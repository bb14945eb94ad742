import random

import pytest

from zipcone import _kernels_py
from zipcone import kernels

try:
    from zipcone import _ckernels
except ImportError:
    _ckernels = None

needs_compiled = pytest.mark.skipif(
    _ckernels is None, reason="compiled kernels not built"
)


def random_window(n, rng):
    m = 2 * n
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    first = tuple(x if rng.random() < 0.5 else m + 1 - x for x in perm)
    return first + tuple(m + 1 - x for x in reversed(first))


def test_selected_backend_exposed():
    assert kernels.BACKEND in ("c", "python")


@needs_compiled
def test_backend_parity():
    rng = random.Random(123)
    for n in (1, 2, 3, 5, 8):
        for _ in range(60):
            u = random_window(n, rng)
            v = random_window(n, rng)
            assert _ckernels.compose(u, v) == _kernels_py.compose(u, v)
            assert _ckernels.invert(u) == _kernels_py.invert(u)
            assert _ckernels.length(u) == _kernels_py.length(u)
            assert _ckernels.mirror_defect(u) == _kernels_py.mirror_defect(u)
            assert _ckernels.bruhat_leq(u, v) == _kernels_py.bruhat_leq(u, v)
            assert _ckernels.admissible_pairs(u) == _kernels_py.admissible_pairs(u)
            i = rng.randint(1, 2 * n)
            j = rng.randint(1, 2 * n)
            assert _ckernels.rank_entry(u, i, j) == _kernels_py.rank_entry(u, i, j)


@needs_compiled
def test_backend_parity_on_defective_windows():
    # mirror_defect must flag the same index on non-mirror permutations
    bad = (1, 3, 4, 2)
    assert _ckernels.mirror_defect(bad) == _kernels_py.mirror_defect(bad) == 1


def test_pure_python_basics():
    assert _kernels_py.compose((4, 3, 2, 1), (2, 1, 4, 3)) == (3, 4, 1, 2)
    assert _kernels_py.invert((3, 1, 4, 2)) == (2, 4, 1, 3)
    assert _kernels_py.length((4, 3, 2, 1)) == 4
    assert _kernels_py.mirror_defect((1, 2, 3, 4)) == 0
    assert _kernels_py.admissible_pairs((4, 3, 2, 1)) == ((1, 2), (2, 3), (3, 4))


def test_parallel_sweeps_match_serial():
    from zipcone.sweeps import gamma_suite, lmin_oracle_suite

    assert gamma_suite(3, jobs=2).to_json_dict() == gamma_suite(3, jobs=1).to_json_dict()
    serial = lmin_oracle_suite(3, 3, 60, seed=5, jobs=1)
    parallel = lmin_oracle_suite(3, 3, 60, seed=5, jobs=2)
    assert serial.to_json_dict() == parallel.to_json_dict()
