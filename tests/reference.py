"""Pure references and fixtures of the tests.

Each reference is an independent, slower reading of something the package
computes, and each fixture builds test inputs.  No verb runs them, so they
live beside the tests and not in `src/zipcone/`.
"""

import functools
from fractions import Fraction
from types import MappingProxyType

from zipcone import linalg
from zipcone.bruhat import mask_bits
from zipcone.certify import Certificate
from zipcone.hasse import PathStep, hasse_map
from zipcone.weylroot import (
    Character,
    RatCharacter,
    Root,
    WeylElem,
    _parse_char_text,
    act,
    canonical_elements,
    levi_simple_roots,
    pairing,
    positive_roots,
    root_table,
    weyl_windows,
)

# ---------------------------------------------------------------------------
# fixtures


def identity(n: int) -> WeylElem:
    """The identity window of rank n."""
    return WeylElem(tuple(range(1, 2 * n + 1)))


def weyl_elements(n: int):
    """Every element of rank n: the windows of `weyl_windows`, in order."""
    return map(WeylElem._trusted, weyl_windows(n))


def random_element(n: int, rng) -> WeylElem:
    """A uniformly random mirror window from an externally seeded RNG."""
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    m = 2 * n
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    first = tuple(p if rng.random() < 0.5 else m + 1 - p for p in perm)
    second = tuple(m + 1 - x for x in reversed(first))
    return WeylElem._trusted(first + second)


def simple_roots(n: int) -> list[Root]:
    """The simple roots: the Levi's e_i - e_{i+1}, then 2e_n."""
    return levi_simple_roots(n) + [Root.long(n)]


# ---------------------------------------------------------------------------
# the certificate loader


def parse_character(text: str) -> Character:
    """An integer character from its text "a_1,...,a_n|b"."""
    a, b = _parse_char_text(text)
    if any(x.denominator != 1 for x in a) or b.denominator != 1:
        raise ValueError(f"character {text!r} has non-integer entries")
    return Character(tuple(int(x) for x in a), int(b))


def parse_root(text: str) -> Root:
    """A positive root from its text: "e1-e2", "e1+e2" or "2e1"."""
    t = text.strip().replace(" ", "")
    try:
        if t.startswith("2e"):
            return Root.long(int(t[2:]))
        if "-" in t:
            left, right = t.split("-")
            return Root.diff(int(left[1:]), int(right[1:]))
        if "+" in t:
            left, right = t.split("+")
            return Root.sum(int(left[1:]), int(right[1:]))
    except (ValueError, IndexError):
        pass
    raise ValueError(f"cannot parse root {text!r}")


def certificate_from_json(data: dict) -> Certificate:
    """The certificate whose `Certificate.iter_json` text parses to data,
    read as the file says, closed forms included.  It only parses: windows
    are validated by `WeylElem.parse`, and nothing else is re-checked."""
    path = tuple(
        PathStep(
            d=int(s["d"]),
            i=int(s["i"]),
            w=WeylElem.parse(s["window"]),
            beta=parse_root(s["beta"]),
            chi=parse_character(s["chi"]),
            ha=parse_character(s["ha"]),
            ha_closed_form=parse_character(s["ha_closed_form"]),
            first_term_relation=s["first_term_relation"],
        )
        for s in data["path"]
    )
    ledger = tuple(
        (
            c["label"],
            tuple(int(x) for x in c["functional"]),
            parse_character(c["generator"]) if c.get("generator") else None,
            Fraction(c["value"]) if "value" in c else None,
            tuple(Fraction(m) for m in c["multipliers"]) if "multipliers" in c else None,
            bool(c["ok"]),
        )
        for c in data["checks"]
    )
    return Certificate(
        int(data["n"]), int(data["p"]), path,
        tuple(parse_character(g) for g in data["base_generators"]),
        tuple(parse_character(h) for h in data["ha_weights"]),
        ledger, data["verdict"],
    )


# ---------------------------------------------------------------------------
# references


def is_I_dominant(lam) -> bool:
    """Nonnegative pairing with every simple Levi coroot: a_1 >= ... >= a_n."""
    return all(x >= y for x, y in zip(lam.a, lam.a[1:]))


def root_character(alpha: Root, n: int) -> Character:
    """The root written in the character coordinates (b = 0): the coroot
    times 2 / <coroot, coroot>, and that norm is the number of pairs,
    since every coroot coefficient is +-1."""
    alpha.check_rank(n)
    a = [0] * n
    scale = 2 // len(alpha.coroot)
    for k, c in alpha.coroot:
        a[k] = scale * c
    return Character(tuple(a), 0)


@functools.lru_cache(maxsize=32)
def _roots_by_vector(n: int):
    """Every positive root of rank n keyed by its vector; read-only."""
    return MappingProxyType({root_character(alpha, n).a: alpha for alpha in positive_roots(n)})


def root_image(w: WeylElem, alpha: Root) -> tuple[Root, int]:
    """The pair (beta, sign) with w . alpha = sign * beta and beta positive."""
    vec = act(w, root_character(alpha, w.n)).a
    roots = _roots_by_vector(w.n)
    if vec in roots:
        return roots[vec], 1
    neg = tuple(-c for c in vec)
    if neg in roots:
        return roots[neg], -1
    raise ValueError(f"{vec} is not a root vector")


def inversion_count(w: WeylElem) -> int:
    """Number of positive roots sent to negative roots by w: its length."""
    return sum(1 for alpha in positive_roots(w.n) if root_image(w, alpha)[1] < 0)


def rank_entry(w, i: int, j: int) -> int:
    """r_w(i, j) = #{k <= i : w(k) <= j} of a raw window, with 1-based i, j."""
    return sum(1 for x in w[:i] if x <= j)


def root_set(neighbors) -> frozenset[Root]:
    """The roots of a `NeighborSet`: bit k of its mask is `root_table(n)[k]`."""
    table = root_table(neighbors.owner.n)
    return frozenset(table[k] for k in mask_bits(neighbors.mask))


def worst_subset(orbit, lam) -> list[Root]:
    """The subset maximizing an orbit's mixed sum at lam: exactly the roots
    pairing negatively with lam (coefficient 1 beats 1/p on positives)."""
    return [alpha for alpha in orbit if pairing(lam, alpha) < 0]


def weight(w: WeylElem, p: int, chi):
    """The weight map's definition, -w(chi) + p*wmax(chi), written with act."""
    minus, plus = act(w, chi), act(canonical_elements(w.n).wmax, chi)
    return type(chi)(tuple(p * y - x for x, y in zip(minus.a, plus.a)), p * plus.b - minus.b)


def dense_preimage(lam, w: WeylElem, p: int) -> RatCharacter:
    """The exact chi with weight(w, p, chi) = lam, by the dense Bareiss
    solve of the weight matrix `hasse.hasse_map(w, p)`."""
    if lam.n != w.n:
        raise ValueError(f"rank mismatch: {lam.n} vs {w.n}")
    sol = linalg.solve_square(hasse_map(w, p).matrix, lam.vector())
    if sol is None:
        raise AssertionError("weight map must be invertible")
    return RatCharacter(sol[:-1], sol[-1])


def fraction_residual(target, system, mults) -> tuple[Fraction, ...]:
    """Target minus the recombination of the system rows, over Fraction."""
    acc = [Fraction(t) for t in target]
    for m, row in zip(mults, system):
        for k, x in enumerate(row):
            acc[k] -= Fraction(m) * x
    return tuple(acc)
