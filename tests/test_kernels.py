import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import random_element, rank_entry, weyl_elements
from zipcone import kernels
from zipcone.hasse import descent_path
from zipcone.sweeps import gamma_suite, lmin_oracle_suite
from zipcone.weylroot import (
    Root,
    canonical_elements,
    positive_roots,
    reflection_swaps,
    reflection_window,
    weyl_windows,
)


def test_selected_backend_exposed():
    assert kernels.BACKEND == "python"


def test_pure_python_basics():
    assert kernels.compose((4, 3, 2, 1), (2, 1, 4, 3)) == (3, 4, 1, 2)
    assert type(kernels.compose((2, 1), (2, 1))) is tuple
    assert kernels.invert((3, 1, 4, 2)) == (2, 4, 1, 3)
    assert kernels.length((4, 3, 2, 1)) == 4
    assert kernels.mirror_defect((1, 2, 3, 4)) == 0
    assert kernels.mirror_defect((1, 3, 4, 2)) == 1
    assert kernels.admissible_pairs((4, 3, 2, 1)) == ((1, 2), (2, 3), (3, 4))
    assert kernels.length_change((4, 3, 2, 1), ((2, 3),)) == -1
    assert kernels.length_change((1, 2, 3, 4), ((1, 2), (3, 4))) == 1


def assert_length_change_matches(win, n):
    lw = kernels.length(win)
    for alpha, swaps in reflection_swaps(n).items():
        ws = kernels.compose(win, reflection_window(alpha, n))
        assert kernels.length_change(win, swaps) == kernels.length(ws) - lw, (win, alpha)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_length_change_matches_length_exhaustive(n):
    for w in weyl_elements(n):
        assert_length_change_matches(w.window, n)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_length_change_matches_length_sampled(n, seed):
    assert_length_change_matches(random_element(n, random.Random(seed)).window, n)


def assert_length_drops_match(win, n):
    expected = 0
    for k, swaps in enumerate(reflection_swaps(n).values()):
        if kernels.length_change(win, swaps) == -1:
            expected |= 1 << k
    assert kernels.length_drops(win) == expected, win


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_length_drops_match_length_change_exhaustive(n):
    for win in weyl_windows(n):
        assert_length_drops_match(win, n)


@pytest.mark.parametrize("n", range(1, 13))
def test_length_drops_match_length_change_on_path_windows(n):
    steps = descent_path(n, 5)
    for win in [step.w.window for step in steps] + [canonical_elements(n).wmax.window]:
        assert_length_drops_match(win, n)


@pytest.mark.parametrize("n", [8, 16, 33, 64, 128])
def test_length_drops_match_length_change_on_random_windows(n):
    rng = random.Random(n)
    for _ in range(4 if n > 64 else 12):
        assert_length_drops_match(random_element(n, rng).window, n)


@pytest.mark.parametrize("n", range(1, 25))
def test_chained_length_drops_match_full_along_the_descent_path(n):
    windows = [step.w.window for step in descent_path(n, 5)] + [canonical_elements(n).wmax.window]
    mask = kernels.length_drops(windows[0])
    for prev, win in zip(windows, windows[1:]):
        mask = kernels.length_drops_after(win, prev, mask)
        assert mask == kernels.length_drops(win), win


def swap_values(win, pairs):
    """The window with each pair of values (u, v) exchanged."""
    where = {v: k for k, v in enumerate(win)}
    out = list(win)
    for u, v in pairs:
        out[where[u]], out[where[v]] = v, u
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 17, 40, 64])
def test_length_drops_after_an_adjacent_value_swap(n):
    """Seeded pairs that differ by exchanging the values u and u + 1, and
    their mirrors N - u - 1 and N - u; for u = n the two pairs are one."""
    rng = random.Random(n)
    top = 2 * n + 1
    for _ in range(40):
        prev = random_element(n, rng).window
        u = rng.randrange(1, 2 * n)
        win = swap_values(prev, {(u, u + 1), (top - u - 1, top - u)})
        assert kernels.length_drops_after(win, prev, kernels.length_drops(prev)) == kernels.length_drops(win)


def test_length_drops_after_falls_back_to_a_full_scan(monkeypatch):
    """Each fallback tests every root: it reads no bit of the previous mask,
    so even a wrong one gives the right answer, and calls `length_drops`
    once.  A step the lemma covers does read the previous mask."""
    full = kernels.length_drops
    calls = []

    def counting(w):
        calls.append(w)
        return full(w)

    monkeypatch.setattr(kernels, "length_drops", counting)
    n = 6
    top = 2 * n + 1
    prev = random_element(n, random.Random(6)).window
    cases = {
        "non-adjacent values": swap_values(prev, {(2, 4), (top - 4, top - 2)}),
        "more than four moved positions": swap_values(prev, {(1, 2), (top - 2, top - 1), (3, 4), (top - 4, top - 3)}),
        "rank mismatch": random_element(n - 1, random.Random(5)).window,
    }
    for reason, win in cases.items():
        calls.clear()
        for wrong in (0, -1):
            assert kernels.length_drops_after(win, prev, wrong) == full(win), reason
        assert calls == [win, win], reason
    calls.clear()
    win = swap_values(prev, {(2, 3), (top - 3, top - 2)})
    assert kernels.length_drops_after(win, prev, full(prev)) == full(win)
    assert kernels.length_drops_after(win, prev, 0) != full(win)
    assert calls == []


def test_length_change_sum_root_regressions():
    # e1+e2 at n = 2: doubling the first swap's change (1 + 2c) + h gives 4
    # on the identity, and (1 + 2c) alone gives 1 on (2, 1, 4, 3)
    sum_root = list(reflection_swaps(2)).index(Root.sum(1, 2))
    for win in ((1, 2, 3, 4), (2, 1, 4, 3)):
        assert kernels.length_change(win, reflection_swaps(2)[Root.sum(1, 2)]) == 3
        assert not kernels.length_drops(win) >> sum_root & 1


def admissible_pairs_by_definition(w):
    m = len(w)
    return tuple(
        (i + 1, j + 1)
        for i in range(m)
        for j in range(i + 1, m)
        if w[i] > w[j] and not any(w[j] < w[k] < w[i] for k in range(i + 1, j))
    )


@settings(max_examples=300, deadline=None)
@given(perm=st.integers(1, 14).flatmap(lambda m: st.permutations(range(1, m + 1))))
def test_admissible_pairs_match_definition_on_permutations(perm):
    w = tuple(perm)
    assert kernels.admissible_pairs(w) == admissible_pairs_by_definition(w)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_admissible_pairs_match_definition_exhaustive(n):
    for w in weyl_elements(n):
        assert kernels.admissible_pairs(w.window) == admissible_pairs_by_definition(w.window), w


def test_reflection_swaps_table():
    table = reflection_swaps(3)
    assert list(table) == positive_roots(3)
    assert reflection_swaps(3) is table
    with pytest.raises(TypeError):
        table[positive_roots(3)[0]] = ((1, 2),)
    for swaps in table.values():
        assert 1 <= len(swaps) <= 2
        assert all(1 <= a < b <= 6 for a, b in swaps)


def test_oracle_matches_lower_neighbors_rank5():
    result = gamma_suite(5)
    assert result.ok and result.total == 3840


def test_parallel_sweeps_match_serial():
    assert gamma_suite(3, jobs=2).to_json_dict() == gamma_suite(3, jobs=1).to_json_dict()
    serial = lmin_oracle_suite(3, 3, 60, seed=5, jobs=1)
    parallel = lmin_oracle_suite(3, 3, 60, seed=5, jobs=2)
    assert serial.to_json_dict() == parallel.to_json_dict()


def bruhat_leq_by_rank_matrix(w1, w2):
    """w1 <= w2 from the definition: r_{w1}(i,j) >= r_{w2}(i,j) for all i, j."""
    m = len(w1)
    return all(
        rank_entry(w1, i, j) >= rank_entry(w2, i, j)
        for i in range(1, m + 1)
        for j in range(1, m + 1)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_matrix_mirror_identity(n):
    """r_w(2n-i, 2n-j) = 2n - i - j + r_w(i, j) on mirror windows: the rows
    past n repeat the rows up to n, so `bruhat_leq` compares prefixes
    1..n only."""
    m = 2 * n
    for win in weyl_windows(n):
        for i in range(m + 1):
            for j in range(m + 1):
                expected = m - i - j + rank_entry(win, i, j)
                assert rank_entry(win, m - i, m - j) == expected, (win, i, j)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bruhat_leq_matches_rank_matrix_exhaustive(n):
    windows = [w.window for w in weyl_elements(n)]
    for w1 in windows:
        for w2 in windows:
            assert kernels.bruhat_leq(w1, w2) == bruhat_leq_by_rank_matrix(w1, w2), (w1, w2)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_bruhat_leq_matches_rank_matrix_sampled(n, seed):
    rng = random.Random(seed)
    u = random_element(n, rng).window
    v = random_element(n, rng).window
    us = kernels.compose(u, reflection_window(rng.choice(positive_roots(n)), n))
    for w1, w2 in ((u, v), (v, u), (u, u), (us, u), (u, us)):
        assert kernels.bruhat_leq(w1, w2) == bruhat_leq_by_rank_matrix(w1, w2), (w1, w2)
