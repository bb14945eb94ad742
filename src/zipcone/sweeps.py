"""Exhaustive and seeded oracle sweeps.

Each suite cross-checks an implementation path against an independent
oracle (brute-force definition, exponential enumeration, or transitive
closure).  Sampled suites take a mandatory seed so every report is
reproducible; workers only ever evaluate pure functions, so any schedule
aggregates to the same result.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import kernels, linalg
from .bruhat import lower_neighbors, lower_neighbors_oracle
from .cones import (
    dominance_functionals,
    farkas_implies,
    frac_str,
    lmin_member,
    lmin_member_enumerated,
    prefix_functional,
)
from .weylroot import RatCharacter, WeylElem, compose, reflection, weyl_elements

_MAX_REPORTED_FAILURES = 20


@dataclass(frozen=True)
class SweepResult:
    suite: str
    params: dict
    total: int
    passed: int
    failures: tuple[str, ...]
    lines: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """All checks passed, and there was at least one: zero work is not ok."""
        return self.total > 0 and self.passed == self.total

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _chunks(items, jobs):
    k = max(1, jobs * 4)
    size = max(1, (len(items) + k - 1) // k)
    return [items[i : i + size] for i in range(0, len(items), size)]


def _pmap(fn, chunks, jobs):
    if jobs <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with multiprocessing.Pool(jobs) as pool:
        return pool.map(fn, chunks)


# ---------------------------------------------------------------------------
# gamma: classed admissible pairs against the brute-force neighbor oracle


def _gamma_chunk(windows):
    # the windows come from weyl_elements, so they need no re-validation
    bad = []
    for win in windows:
        w = WeylElem._trusted(win)
        if lower_neighbors(w).roots != lower_neighbors_oracle(w).roots:
            bad.append(str(w))
    return len(windows), bad


def gamma_suite(n: int, jobs: int = 1) -> SweepResult:
    windows = [w.window for w in weyl_elements(n)]
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
# bruhat: rank-matrix order against the transitive closure of covers


def cover_closure_bits(elements: list[WeylElem]) -> dict[WeylElem, int]:
    """Bitmask of {v : v <= w} per element, via covers only: the down-set is
    the reflexive-transitive closure of the lower-neighbor relation."""
    index = {w: k for k, w in enumerate(elements)}
    bits: dict[WeylElem, int] = {}
    for w in sorted(elements, key=lambda x: x.length()):
        mask = 1 << index[w]
        n = w.n
        for alpha in lower_neighbors(w).roots:
            mask |= bits[compose(w, reflection(alpha, n))]
        bits[w] = mask
    return bits


def bruhat_suite(n: int, samples: int = 0, seed: int = 0) -> SweepResult:
    """Exhaustive over all pairs when no sample count is given (sensible for
    n <= 3); otherwise a seeded sample of pairs."""
    elements = list(weyl_elements(n))
    bits = cover_closure_bits(elements)
    index = {w: k for k, w in enumerate(elements)}
    if samples:
        rng = random.Random(seed)
        pairs = [
            (rng.randrange(len(elements)), rng.randrange(len(elements)))
            for _ in range(samples)
        ]
    else:
        pairs = [(i, j) for i in range(len(elements)) for j in range(len(elements))]
    failures = []
    for i, j in pairs:
        w1, w2 = elements[i], elements[j]
        by_rank = kernels.bruhat_leq(w1.window, w2.window)
        by_closure = bool(bits[w2] & (1 << index[w1]))
        if by_rank != by_closure:
            failures.append(f"{w1} vs {w2}")
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
