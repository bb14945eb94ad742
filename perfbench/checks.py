"""Independent answer checks for every benchmark operation.

Nothing here imports zipcone.  Each check recomputes the answer from the
argument vector, or re-verifies a certificate from the numbers in its own
JSON, with separately written arithmetic: windows act as signed
permutations, lengths are inversion counts over the positive roots,
reflections come from s(x) = x - <x, a^vee> a, and Bruhat order uses the
tableau criterion.  `check` returns None for a correct answer and a short
reason otherwise.

An exit code of 1 with a correct "false" answer (a non-member, a Farkas
witness) is a valid answer, not a failure.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import factorial


class Mismatch(Exception):
    """The output disagrees with the independently derived answer."""


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def check(argv: list[str], rc: int | None, out: str) -> str | None:
    """None when the output of `zipcone <argv>` is right, else the reason."""
    if rc is None:
        return "raised"
    if rc == 2:
        return "exit 2 (refused or crashed)"
    try:
        data = json.loads(out)
        _CHECKERS[argv[0]](_options(argv[1:]), rc, data)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def _options(args: list[str]) -> dict[str, str]:
    opts: dict[str, str] = {}
    k = 0
    while k < len(args):
        key, eq, val = args[k].partition("=")
        if eq:
            opts[key] = val
            k += 1
        elif k + 1 < len(args) and not args[k + 1].startswith("--"):
            opts[key] = args[k + 1]
            k += 2
        else:
            opts[key] = ""
            k += 1
    return opts


# ---------------------------------------------------------------------------
# arithmetic of the rank-n root system, written from the definitions


def parse_window(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split())


def parse_char(text: str) -> tuple[tuple[Fraction, ...], Fraction]:
    body, _, tail = text.partition("|")
    return tuple(Fraction(x) for x in body.split(",")), Fraction(tail)


def _basis_images(w) -> list[tuple[int, int]]:
    """w(e_i) = sign * e_j as (j, sign), 1-based: a window value v <= n
    sends e_i to e_v, a value v > n to -e_{2n+1-v}."""
    n = len(w) // 2
    return [(v, 1) if v <= n else (2 * n + 1 - v, -1) for v in w[:n]]


def act(w, a) -> tuple:
    """The a-part of w(lambda) = sum_i a_i w(e_i); b is fixed by every w."""
    out = [0] * (len(w) // 2)
    for (j, sign), ai in zip(_basis_images(w), a):
        out[j - 1] += sign * ai
    return tuple(out)


def positive_roots(n: int) -> list[tuple[str, dict[int, int], dict[int, int]]]:
    """(name, root vector, coroot vector) with sparse 1-based coordinates."""
    roots = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append((f"e{i}-e{j}", {i: 1, j: -1}, {i: 1, j: -1}))
            roots.append((f"e{i}+e{j}", {i: 1, j: 1}, {i: 1, j: 1}))
        roots.append((f"2e{i}", {i: 2}, {i: 1}))
    return roots


def length(w) -> int:
    """Number of positive roots sent to negative ones.  A root vector is
    positive when its first nonzero coordinate is."""
    images = _basis_images(w)
    count = 0
    for _, vec, _ in positive_roots(len(w) // 2):
        image = {}
        for i, c in vec.items():
            j, sign = images[i - 1]
            image[j] = image.get(j, 0) + sign * c
        first = min(j for j, c in image.items() if c != 0)
        if image[first] < 0:
            count += 1
    return count


def reflection(n: int, root: dict[int, int], coroot: dict[int, int]) -> tuple[int, ...]:
    """Window of s(x) = x - <x, coroot> root."""
    m = 2 * n
    window = [0] * m
    for k in range(1, n + 1):
        image = {k: 1}
        c = coroot.get(k, 0)
        for i, r in root.items():
            image[i] = image.get(i, 0) - c * r
        (j, sign), = [(i, s) for i, s in image.items() if s != 0]
        window[k - 1] = j if sign > 0 else m + 1 - j
        window[m - k] = m + 1 - window[k - 1]
    return tuple(window)


def compose(u, v) -> tuple[int, ...]:
    """(u v)(i) = u(v(i))."""
    return tuple(u[x - 1] for x in v)


def lower_neighbor_roots(w) -> set[str]:
    """Positive roots a with l(w s_a) = l(w) - 1; for a reflection t,
    l(wt) < l(w) already means wt < w in Bruhat order."""
    n = len(w) // 2
    lw = length(w)
    return {
        name
        for name, root, coroot in positive_roots(n)
        if length(compose(w, reflection(n, root, coroot))) == lw - 1
    }


def bruhat_leq(u, v) -> bool:
    """Tableau criterion in the symmetric group on 2n letters, whose order
    restricts to Bruhat order on mirror windows."""
    for k in range(1, len(u)):
        if any(x > y for x, y in zip(sorted(u[:k]), sorted(v[:k]))):
            return False
    return True


def pair(a, coroot: dict[int, int]):
    return sum(c * a[i - 1] for i, c in coroot.items())


def rank(rows) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((k for k in range(r, len(mat)) if mat[k][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for k in range(r + 1, len(mat)):
            f = mat[k][col] / mat[r][col]
            mat[k] = [x - f * y for x, y in zip(mat[k], mat[r])]
        r += 1
    return r


def dot(u, v):
    if len(u) != len(v):
        raise Mismatch(f"dimension mismatch {len(u)} vs {len(v)}")
    return sum(Fraction(x) * Fraction(y) for x, y in zip(u, v))


def wmax(n: int) -> tuple[int, ...]:
    """The longest minimal coset representative (n+1, ..., 2n, 1, ..., n)."""
    return tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1))


def step_weight(w, chi_a, chi_b, p: int):
    """-w(chi) + p * wmax(chi), as (a-part, b)."""
    wa = act(w, chi_a)
    ma = act(wmax(len(w) // 2), chi_a)
    return tuple(-x + p * y for x, y in zip(wa, ma)), -chi_b + p * chi_b


def coordinate_rows(n: int) -> list[list[int]]:
    """a_i <= 0: the inequality form of the top-stratum weight cone."""
    return [[1 if k == i else 0 for k in range(n + 1)] for i in range(n)]


def prefix_row(n: int, p: int, j: int) -> list[int]:
    return [p if i <= j else 1 for i in range(1, n + 1)] + [0]


def lmin_member(a, p: int) -> bool:
    """Each orbit's subset functionals, maximised root by root: a root
    contributes x if its pairing x is negative and p*x otherwise."""
    n = len(a)
    orbits = [
        [{i: 1} for i in range(1, n + 1)],
        [{i: 1, j: 1} for i in range(1, n + 1) for j in range(i + 1, n + 1)],
    ]
    for orbit in orbits:
        xs = [pair(a, cor) for cor in orbit]
        if sum(x if x < 0 else p * x for x in xs) > 0:
            return False
    return True


def worst_orbit_row(n: int, p: int, orbit: list[dict[int, int]], gen_a) -> list[int]:
    row = [0] * (n + 1)
    for cor in orbit:
        scale = 1 if pair(gen_a, cor) < 0 else p
        for i, c in cor.items():
            row[i - 1] += scale * c
    return row


def _recheck_farkas(system, target, data) -> bool:
    """Re-verify a Farkas answer from its own system; returns `implied`."""
    if "multipliers" in data:
        mults = [Fraction(m) for m in data["multipliers"]]
        _expect(len(mults) == len(system), "one multiplier per row expected")
        _expect(all(m >= 0 for m in mults), "negative multiplier")
        combo = [sum(m * row[k] for m, row in zip(mults, system)) for k in range(len(target))]
        _expect(combo == [Fraction(t) for t in target], "multipliers do not recombine to the target")
        return True
    x = [Fraction(v) for v in data["witness"]]
    _expect(all(dot(row, x) <= 0 for row in system), "witness leaves the cone")
    _expect(dot(target, x) > 0, "witness does not violate the target")
    return False


# ---------------------------------------------------------------------------
# per-verb checks


def _check_verify_theorem(opts, rc, data):
    n, p = int(opts["--n"]), int(opts["--p"])
    _expect(rc == 0 and data["verdict"] == "PASS", f"verdict {data['verdict']} (exit {rc})")
    _expect((data["n"], data["p"]) == (n, p), "n or p not echoed")
    path = data["path"]
    _expect(len(path) == n * (n - 1) // 2, f"{len(path)} path steps, expected n(n-1)/2")
    top = length(parse_window(path[0]["window"])) if path else 0
    for k, step in enumerate(path):
        w = parse_window(step["window"])
        _expect(length(w) == top - k, f"length does not drop by one at step {k}")
        chi_a, chi_b = parse_char(step["chi"])
        _expect(parse_char(step["ha"]) == step_weight(w, chi_a, chi_b, p), f"step weight wrong at step {k}")
    _expect(data["ha_weights"] == [s["ha"] for s in path], "ha_weights differ from the path weights")

    base = {parse_char(g) for g in data["base_generators"]}
    expected_base = {(tuple(-1 if k == i else 0 for k in range(n)), Fraction(0)) for i in range(n)}
    expected_base |= {((0,) * n, Fraction(1)), ((0,) * n, Fraction(-1))}
    _expect(base == expected_base, "base generators are not -e_i and +-e_b")
    generators = data["base_generators"] + data["ha_weights"]

    long_orbit = [{i: 1} for i in range(1, n + 1)]
    sum_orbit = [{i: 1, j: 1} for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    labels = ["orbit-long-worst"] + (["orbit-sum-worst"] if sum_orbit else [])
    labels += [f"prefix-{j}" for j in range(1, n + 1)]
    expected = Counter((g, label) for g in generators for label in labels)
    expected.update((None, f"prefix-{j}-from-base") for j in range(1, n + 1))
    seen = Counter()
    rows = coordinate_rows(n)
    for c in data["checks"]:
        label, functional = c["label"], list(c["functional"])
        seen[(c["generator"], label)] += 1
        _expect(c["ok"] is True, f"check {label} not ok")
        if label.endswith("-from-base"):
            j = int(label.split("-")[1])
            _expect(functional == prefix_row(n, p, j), f"{label}: wrong functional")
            _expect(_recheck_farkas(rows, functional, c), f"{label}: not implied")
            continue
        gen_a, gen_b = parse_char(c["generator"])
        value = Fraction(c["value"])
        _expect(value == dot(functional, gen_a + (gen_b,)), f"{label}: value is not functional . generator")
        _expect(value <= 0, f"{label}: positive value")
        if label.startswith("prefix-"):
            want = prefix_row(n, p, int(label.split("-")[1]))
        else:
            want = worst_orbit_row(n, p, long_orbit if "long" in label else sum_orbit, gen_a)
        _expect(functional == want, f"{label}: wrong functional")
    _expect(seen == expected, "checks do not cover every generator and functional once")


def _check_path(opts, rc, data):
    n, p = int(opts["--n"]), int(opts["--p"])
    _expect(rc == 0 and data["all_passed"] is True, f"path checks failed (exit {rc})")
    _expect((data["n"], data["p"]) == (n, p), "n or p not echoed")
    steps = data["steps"]
    order = [(d, i) for d in range(1, n) for i in range(d)]
    _expect([(s["d"], s["i"]) for s in steps] == order, f"{len(steps)} steps, expected n(n-1)/2 in order")
    _expect(
        data["reference_mismatches"] == [[n - 1, i] for i in range(1, n - 1)],
        "reference mismatches are not exactly the d = n-1, i >= 1 steps",
    )
    top = length(parse_window(steps[0]["window"])) if steps else 0
    for k, s in enumerate(steps):
        w = parse_window(s["window"])
        _expect(s["passed"] is True, f"step {k} not passed")
        _expect(length(w) == top - k, f"length does not drop by one at step {k}")
        _expect(len(s["computed_eset"]) == n, f"step {k}: E_w does not have n roots")
        chi = tuple(1 if c == s["i"] else 0 for c in range(n))
        weight = parse_char(s["pipeline_weight"])
        _expect(weight == step_weight(w, chi, 0, p), f"step {k}: wrong step weight")


def _check_sweep(opts, rc, data):
    suite, n = opts["--suite"], int(opts["--n"])
    samples = int(opts.get("--samples", "0"))
    _expect(rc == 0, f"sweep failed (exit {rc})")
    (res,) = data["results"]
    total = 2**n * factorial(n) if suite == "gamma" else samples
    _expect(res["suite"] == suite and res["params"]["n"] == n, "suite or n not echoed")
    _expect(res["total"] == total, f"total {res['total']}, expected {total}")
    _expect(res["passed"] == total and res["ok"] is True, f"{res['passed']}/{total} passed")


def _check_weyl(opts, rc, data):
    w = parse_window(opts["--elem"])
    a, b = parse_char(opts["--act"])
    _expect(rc == 0, f"exit {rc}")
    _expect(parse_window(data["elem"]) == w, "element not echoed")
    _expect(parse_char(data["act"]) == (act(w, a), b), "action is not the signed permutation")


def _check_neighbors(opts, rc, data):
    w = parse_window(opts["--elem"])
    n = len(w) // 2
    _expect(rc == 0, f"exit {rc}")
    _expect(data["length"] == length(w), "length is not the inversion count")
    roots = lower_neighbor_roots(w)
    _expect(set(data["lower_neighbors"]) == roots, "lower neighbors differ from the length-drop set")
    coroots = {name: cor for name, _, cor in positive_roots(n)}
    rows = [[cor.get(i, 0) for i in range(1, n + 1)] for cor in (coroots[r] for r in roots)]
    _expect(data["separating"] == (rank(rows) == len(rows)), "separating flag wrong")


def _check_bruhat(opts, rc, data):
    u, v = parse_window(opts["--elem"]), parse_window(opts["--elem2"])
    _expect(rc == 0, f"exit {rc}")
    _expect(data["lengths"] == [length(u), length(v)], "lengths are not inversion counts")
    _expect(data["leq"] == bruhat_leq(u, v), "leq disagrees with the tableau criterion")
    _expect(data["geq"] == bruhat_leq(v, u), "geq disagrees with the tableau criterion")


def _check_cone(opts, rc, data):
    a, b = parse_char(opts["--lambda"])
    cone = opts["--cone"]
    member = data["member"]
    _expect(parse_char(data["lambda"]) == (a, b), "lambda not echoed")
    _expect(rc == (0 if member else 1), f"exit {rc} with member={member}")
    if cone == "pha-wmax":
        _expect(member == all(x <= 0 for x in a), "pha-wmax membership is not 'every a_i <= 0'")
    elif cone == "lmin":
        _expect(member == lmin_member(a, int(opts["--p"])), "lmin membership wrong")
    elif cone == "pha":
        w, p = parse_window(opts["--elem"]), int(opts["--p"])
        chi_a, chi_b = parse_char(data["chi"])
        _expect(step_weight(w, chi_a, chi_b, p) == (a, b), "chi is not a preimage of lambda")
        coroots = {name: cor for name, _, cor in positive_roots(len(a))}
        ok = all(pair(chi_a, coroots[r]) >= 0 for r in lower_neighbor_roots(w))
        _expect(member == ok, "pha membership wrong")
        integral = all(x.denominator == 1 for x in chi_a) and chi_b.denominator == 1
        _expect(data["chi_integral"] == integral, "chi_integral wrong")
        _expect(data["chi_parity_ok"] == (integral and (sum(chi_a) - chi_b) % 2 == 0), "parity flag wrong")
    else:
        raise Mismatch(f"no check for cone {cone}")


def _check_farkas(opts, rc, data):
    ta, tb = parse_char(opts["--target"])
    target = [int(x) for x in ta + (tb,)]
    n = len(ta)
    cone = opts["--cone"]
    system = [list(r) for r in data["system"]]
    _expect(data["target"] == target, "target not echoed")
    if cone == "pha-wmax":
        _expect(system == coordinate_rows(n), "system is not a_i <= 0")
    elif cone == "lmin-i":
        p = int(opts["--p"])
        rows = [prefix_row(n, p, j) for j in range(1, n + 1)]
        rows += [[-1 if k == i - 1 else 1 if k == i else 0 for k in range(n + 1)] for i in range(1, n)]
        _expect(sorted(system) == sorted(rows), "system is not the prefix and dominance rows")
    else:
        raise Mismatch(f"no check for cone {cone}")
    implied = _recheck_farkas(system, target, data)
    _expect(data["implied"] == implied, "implied flag disagrees with the certificate")
    _expect(rc == (0 if implied else 1), f"exit {rc} with implied={implied}")
    if cone == "pha-wmax":
        _expect(implied == (all(c >= 0 for c in ta) and tb == 0), "pha-wmax implication is not 'c >= 0, c_b = 0'")


_CHECKERS = {
    "verify-theorem": _check_verify_theorem,
    "path": _check_path,
    "sweep": _check_sweep,
    "weyl": _check_weyl,
    "neighbors": _check_neighbors,
    "bruhat": _check_bruhat,
    "cone-check": _check_cone,
    "farkas": _check_farkas,
}
