"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact everywhere (integer and rational arithmetic);
the two runtime-bounded criteria assert their wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager

from reference import fraction_residual, inversion_count, random_element, weyl_elements
from zipcone.bruhat import enum_IW, lower_neighbors, lower_neighbors_oracle
from zipcone.certify import envelope_certificate
from zipcone.cones import (
    dominance_functionals,
    farkas_implies,
    lmin_member,
    lmin_member_enumerated,
    lmin_prefix_cone,
    n3_exact_cone,
    prefix_functional,
)
from zipcone.hasse import (
    compare_step_weights,
    descent_path,
    ha_closed_form,
    verify_path_lemmas,
)
from zipcone.linalg import dot
from zipcone.sweeps import (
    bruhat_suite,
    gamma_suite,
    random_dominant_character,
    random_rat_character,
)
from zipcone.weylroot import canonical_elements


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_gamma_bijection():
    with criterion(1, "lower-neighbor bijection"):
        t0 = time.perf_counter()
        for n in (2, 3, 4):
            result = gamma_suite(n)
            assert result.ok and result.total == [0, 0, 8, 48, 384][n]
        rng = random.Random(20240501)
        for _ in range(500):
            w = random_element(5, rng)
            assert lower_neighbors(w).mask == lower_neighbors_oracle(w).mask
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_2_length_and_bruhat_consistency():
    with criterion(2, "length and Bruhat order"):
        for n in (1, 2, 3, 4):
            for w in weyl_elements(n):
                assert w.length() == inversion_count(w)
        for n in (2, 3):
            assert bruhat_suite(n).ok  # exhaustive closure comparison
        assert bruhat_suite(4, samples=10_000, seed=20240502).ok


def test_criterion_3_path_esets_and_separating():
    with criterion(3, "descent-path neighbor sets"):
        for n in range(2, 9):
            report = verify_path_lemmas(n, 2)
            for s in report.steps:
                assert s.separating
                assert s.oracle_agrees
                computed = frozenset(s.computed_eset)
                assert computed == frozenset(s.verified_eset)
                if s.d <= n - 2:
                    # the five-family closed form is exact here
                    assert s.matches_reference
            # the d = n-1 closed form provably omits long roots exactly at
            # the steps with i >= 1; the gap is pinned, not glossed over
            assert report.reference_mismatches == tuple(
                (n - 1, i) for i in range(1, n - 1)
            )
        print("  note: closed-form neighbor list at d=n-1 omits 2e_k (k<=i); "
              "computed sets are authoritative (see decisions ledger)")


def test_criterion_4_step_weights_in_orbit_cone():
    with criterion(4, "step weights and closed form"):
        shifted = 0
        total = 0
        for n in range(2, 7):
            for p in (2, 3, 5, 7):
                for step in descent_path(n, p):
                    closed = ha_closed_form(n, p, step.d, step.i)
                    assert lmin_member(step.ha, p)
                    assert lmin_member(closed, p)
                    # second terms agree exactly: -p e_{n-i}
                    rel = compare_step_weights(n, p, step.d, step.i, step.ha)
                    assert rel in ("equal", "first_index_shift")
                    total += 1
                    if rel == "first_index_shift":
                        shifted += 1
        print(f"  first-term comparison: {shifted}/{total} steps off by one index "
              "(documented ambiguity; both variants verified in the cone)")


def test_criterion_5_envelope_certificates():
    with criterion(5, "envelope certificate grid"):
        t0 = time.perf_counter()
        for n in range(1, 7):
            for p in (2, 3, 5, 7, 11):
                cert = envelope_certificate(n, p)
                assert cert.passed, (n, p)
                for check in cert.checks:
                    if check.multipliers is not None:
                        # self-verification re-done here: recombine exactly
                        residual = list(check.functional)
                        for m, row in zip(check.multipliers, (r for r in _base_rows(n))):
                            for k in range(n + 1):
                                residual[k] -= m * row[k]
                        assert all(r == 0 for r in residual)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.1f}s"


def _base_rows(n):
    rows = []
    for i in range(1, n + 1):
        row = [0] * (n + 1)
        row[i - 1] = 1
        rows.append(tuple(row))
    return rows


def test_criterion_6_rank3_cone_comparison():
    with criterion(6, "rank-3 cone comparison"):
        for p in (2, 3, 5, 7):
            small = n3_exact_cone(p)
            for row in lmin_prefix_cone(3, p).hform:
                cert = farkas_implies(row, small)
                assert cert.implied
        # strictness witness at p = 5: inside the prefix cone, violating the
        # second exact functional
        lam = (1, 1, -25, 1)
        assert all(dot(row, lam) <= 0 for row in lmin_prefix_cone(3, 5).hform)
        assert dot((5, 25, 1, 0), lam) == 5 > 0


def test_criterion_7_redundancy_claims():
    with criterion(7, "redundancy certificates"):
        for n in (2, 3, 4, 5):
            for p in (2, 3, 5):
                rest = [prefix_functional(n, p, j) for j in range(1, n)]
                rest += dominance_functionals(n)
                cert = farkas_implies(prefix_functional(n, p, n), rest)
                assert cert.implied and not any(fraction_residual(cert.target, cert.system, cert.multipliers))
        for n in (2, 3, 4):
            for p in (2, 3, 5):
                rng = random.Random(20240507 + 100 * n + p)
                prefix_rows = [prefix_functional(n, p, j) for j in range(1, n + 1)]
                for _ in range(1000):
                    lam = random_dominant_character(n, rng)
                    vec = lam.vector()
                    by_prefix = all(dot(row, vec) <= 0 for row in prefix_rows)
                    assert by_prefix == lmin_member_enumerated(lam, p)


def test_criterion_8_counting_identities():
    with criterion(8, "counting identities"):
        for n in range(1, 7):
            ce = canonical_elements(n)
            assert ce.w0.length() == n * n
            assert ce.wmax.length() == n * (n + 1) // 2
            assert len(enum_IW(n)) == 2**n
            assert len(descent_path(n, 2)) == n * (n - 1) // 2


def test_criterion_9_worst_subset_reduction():
    with criterion(9, "worst-subset reduction"):
        for n in (2, 3, 4):
            rng = random.Random(20240509 + n)
            for _ in range(1000):
                lam = random_rat_character(n, rng)
                for p in (2, 5):
                    assert lmin_member(lam, p) == lmin_member_enumerated(lam, p)
