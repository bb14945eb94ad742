"""Exhaustive and seeded oracle sweeps.

Each suite cross-checks an implementation path against an independent
oracle (brute-force definition, exponential enumeration, or transitive
closure).  Sampled suites take a mandatory seed so every report is
reproducible; workers only ever evaluate pure functions, so any schedule
aggregates to the same result.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import itemgetter

from . import kernels, linalg
from .bruhat import lower_neighbor_mask, mask_bits
from .cones import (
    dominance_functionals,
    farkas_implies,
    frac_str,
    lmin_member,
    lmin_member_enumerated,
    prefix_functional,
)
from .weylroot import RatCharacter, Record, WeylElem, _window_from_swaps, reflection_swaps, weyl_windows

_MAX_REPORTED_FAILURES = 20


class SweepResult(Record):
    suite: str
    params: dict
    total: int
    passed: int
    failures: tuple[str, ...]
    lines: tuple[str, ...]

    def __init__(
        self, suite: str, params: dict, total: int, passed: int, failures: tuple[str, ...],
        lines: tuple[str, ...],
    ):
        vars(self).update(
            suite=suite, params=params, total=total, passed=passed, failures=failures, lines=lines
        )

    @property
    def ok(self) -> bool:
        """All checks passed, and there was at least one: zero work is not ok."""
        return self.total > 0 and self.passed == self.total

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "total": self.total,
            "passed": self.passed,
            "failures": self.failures,
            "lines": self.lines,
            "ok": self.ok,
        }


def _chunks(items, jobs):
    k = max(1, jobs * 4)
    size = max(1, (len(items) + k - 1) // k)
    return [items[i : i + size] for i in range(0, len(items), size)]


def _pmap(fn, chunks, jobs):
    if jobs <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    # imported here: with its pool module it would add about 40% to the
    # CLI's import time (14 of 35 ms), and only a pool needs it
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        return pool.map(fn, chunks)


# ---------------------------------------------------------------------------
# gamma: classed admissible pairs against the brute-force neighbor oracle


def _gamma_chunk(windows):
    # the windows come from weyl_windows, so they need no validation; an
    # element is built only to name a failure
    bad = [
        str(WeylElem._trusted(win))
        for win in windows
        if lower_neighbor_mask(win) != kernels.length_drops(win)
    ]
    return len(windows), bad


def gamma_suite(n: int, jobs: int = 1) -> SweepResult:
    windows = list(weyl_windows(n))
    results = _pmap(_gamma_chunk, _chunks(windows, jobs), jobs)
    total = sum(t for t, _ in results)
    failures = [f for _, bad in results for f in bad]
    passed = total - len(failures)
    return SweepResult(
        suite="gamma",
        params={"n": n},
        total=total,
        passed=passed,
        failures=tuple(failures[:_MAX_REPORTED_FAILURES]),
        lines=(f"{passed}/{total} elements pass",),
    )


# ---------------------------------------------------------------------------
# bruhat: sorted-prefix order against the transitive closure of covers


def cover_closure_bits(windows: list[tuple[int, ...]]) -> list[int]:
    """Bitmask of the down-set {v : v <= w} of each window, as a list indexed
    like `windows`: bit k of bits[j] says windows[k] <= windows[j].  Built
    from covers only: the down-set is the reflexive-transitive closure of
    the lower-neighbor relation, so each mask is its own bit or-ed with the
    masks of its lower neighbors w*s_alpha, filled in order of length.
    Works on raw windows and integer indices; the windows must be the whole
    group of one rank, so that every lower neighbor is among them.  Each
    bit of a window's neighbor mask indexes the roots of `reflection_swaps`,
    which come in the same order; each reflection is held as an itemgetter
    of 0-based positions, so that getter(w) is `kernels.compose(w, s_alpha)`
    in one C call."""
    n = len(windows[0]) // 2
    refl = [
        itemgetter(*[x - 1 for x in _window_from_swaps(swaps, n)])
        for swaps in reflection_swaps(n).values()
    ]
    index = {win: k for k, win in enumerate(windows)}
    bits = [0] * len(windows)
    for k in sorted(range(len(windows)), key=lambda k: kernels.length(windows[k])):
        win = windows[k]
        mask = 1 << k
        for b in mask_bits(lower_neighbor_mask(win)):
            mask |= bits[index[refl[b](win)]]
        bits[k] = mask
    return bits


def bruhat_suite(n: int, samples: int = 0, seed: int = 0) -> SweepResult:
    """The sorted-prefix order (`kernels.bruhat_leq`) against the cover
    closure, on raw windows.  Exhaustive over all pairs when no sample
    count is given (sensible for n <= 3); otherwise a seeded sample of
    pairs."""
    windows = list(weyl_windows(n))
    bits = cover_closure_bits(windows)
    if samples:
        rng = random.Random(seed)
        pairs = [
            (rng.randrange(len(windows)), rng.randrange(len(windows)))
            for _ in range(samples)
        ]
    else:
        pairs = [(i, j) for i in range(len(windows)) for j in range(len(windows))]
    failures = []
    for i, j in pairs:
        by_rank = kernels.bruhat_leq(windows[i], windows[j])
        by_closure = bool(bits[j] >> i & 1)
        if by_rank != by_closure:
            u, v = WeylElem._trusted(windows[i]), WeylElem._trusted(windows[j])
            failures.append(f"{u} vs {v}")
    passed = len(pairs) - len(failures)
    params = {"n": n}
    if samples:
        params.update({"samples": samples, "seed": seed})
    return SweepResult(
        suite="bruhat",
        params=params,
        total=len(pairs),
        passed=passed,
        failures=tuple(failures[:_MAX_REPORTED_FAILURES]),
        lines=(f"{passed}/{len(pairs)} pairs agree with the cover closure",),
    )


# ---------------------------------------------------------------------------
# lmin-oracle: worst-subset shortcut against full subset enumeration


def random_rat_character(n: int, rng: random.Random) -> RatCharacter:
    a = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 8)) for _ in range(n))
    return RatCharacter(a, Fraction(rng.randint(-3, 3)))


def random_dominant_character(n: int, rng: random.Random) -> RatCharacter:
    a = sorted(
        (Fraction(rng.randint(-60, 60), rng.randint(1, 8)) for _ in range(n)),
        reverse=True,
    )
    return RatCharacter(tuple(a), Fraction(rng.randint(-3, 3)))


def _lmin_oracle_chunk(args):
    p, chars = args
    bad = []
    for text in chars:
        lam = RatCharacter.parse(text)
        if lmin_member(lam, p) != lmin_member_enumerated(lam, p):
            bad.append(text)
    return bad


def lmin_oracle_suite(n: int, p: int, samples: int, seed: int, jobs: int = 1) -> SweepResult:
    # samples are drawn up front so the report is schedule-independent
    rng = random.Random(seed)
    chars = [str(random_rat_character(n, rng)) for _ in range(samples)]
    chunked = _pmap(_lmin_oracle_chunk, [(p, c) for c in _chunks(chars, jobs)], jobs)
    failures = [f for bad in chunked for f in bad]
    passed = samples - len(failures)
    return SweepResult(
        suite="lmin-oracle",
        params={"n": n, "p": p, "samples": samples, "seed": seed},
        total=samples,
        passed=passed,
        failures=tuple(failures[:_MAX_REPORTED_FAILURES]),
        lines=(f"{passed}/{samples} characters agree with subset enumeration",),
    )


# ---------------------------------------------------------------------------
# redundancy: the j=n prefix functional and the sum-orbit subsets


def redundancy_suite(n: int, p: int, samples: int, seed: int) -> SweepResult:
    """Two claims inside the dominance region: the last prefix functional is
    implied by the others, and the prefix system alone already decides
    membership in the full orbit-inequality cone.  The first claim needs
    n >= 2 (in rank 1 there are no other functionals)."""
    if n < 2:
        raise ValueError(f"the redundancy suite needs rank at least 2, got {n}")
    lines = []
    failures = []
    total = 1 + samples
    system = [prefix_functional(n, p, j) for j in range(1, n)] + dominance_functionals(n)
    cert = farkas_implies(prefix_functional(n, p, n), system)
    if cert.implied:
        mults = ", ".join(frac_str(m) for m in cert.multipliers)
        lines.append(f"j=n prefix functional certified redundant (p={p}; multipliers {mults})")
        passed = 1
    else:
        failures.append(f"j=n functional not implied at p={p}")
        passed = 0

    rng = random.Random(seed)
    prefix_rows = [prefix_functional(n, p, j) for j in range(1, n + 1)]
    agree = 0
    for _ in range(samples):
        lam = random_dominant_character(n, rng)
        vec = lam.vector()
        by_prefix = all(linalg.dot(row, vec) <= 0 for row in prefix_rows)
        by_enum = lmin_member_enumerated(lam, p)
        if by_prefix == by_enum:
            agree += 1
        else:
            failures.append(str(lam))
    passed += agree
    lines.append(
        f"{agree}/{samples} dominant characters: prefix system matches subset enumeration (p={p})"
    )
    return SweepResult(
        suite="redundancy",
        params={"n": n, "p": p, "samples": samples, "seed": seed},
        total=total,
        passed=passed,
        failures=tuple(failures[:_MAX_REPORTED_FAILURES]),
        lines=tuple(lines),
    )
