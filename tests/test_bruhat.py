import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipcone import bruhat, kernels, linalg
from zipcone.bruhat import (
    NeighborSet,
    PairClass,
    admissible_pairs,
    bruhat_leq,
    enum_IW,
    gamma,
    is_min_rep,
    is_separating,
    lower_neighbors,
    lower_neighbors_oracle,
    preceq,
    rank_matrix,
    stratum_dim,
)
from zipcone.weylroot import (
    Root,
    WeylElem,
    canonical_elements,
    compose,
    levi_elements,
    positive_roots,
    random_element,
    reflection,
    reflection_swaps,
    weyl_elements,
)


def classes(w):
    return {(p.i, p.j): p.cls for p in admissible_pairs(w)}


def test_rank_matrix_identity():
    ident = WeylElem.identity(3)
    for i in range(1, 7):
        for j in range(1, 7):
            assert rank_matrix(ident, i, j) == min(i, j)


def test_rank_matrix_w0_rank2():
    w0 = WeylElem.parse("4 3 2 1")
    assert rank_matrix(w0, 1, 1) == 0
    assert rank_matrix(w0, 2, 3) == 1


def test_rank_matrix_bounds():
    with pytest.raises(ValueError):
        rank_matrix(WeylElem.identity(2), 0, 1)
    with pytest.raises(ValueError):
        rank_matrix(WeylElem.identity(2), 1, 5)


def test_bruhat_examples():
    assert bruhat_leq(WeylElem.parse("3 4 1 2"), WeylElem.parse("4 3 2 1"))
    assert not bruhat_leq(WeylElem.parse("4 3 2 1"), WeylElem.parse("3 4 1 2"))
    with pytest.raises(ValueError):
        bruhat_leq(WeylElem.identity(2), WeylElem.identity(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bruhat_partial_order_axioms(n):
    elems = list(weyl_elements(n))
    leq = [[bruhat_leq(u, w) for w in elems] for u in elems]
    ident = WeylElem.identity(n)
    for w in elems:
        assert bruhat_leq(ident, w)
    for a in range(len(elems)):
        assert leq[a][a]
        for b in range(len(elems)):
            if a != b:
                assert not (leq[a][b] and leq[b][a])
            if leq[a][b]:
                assert all(leq[a][c] for c in range(len(elems)) if leq[b][c])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bruhat_order_agrees_with_length(n):
    elems = list(weyl_elements(n))
    for u in elems:
        for w in elems:
            if bruhat_leq(u, w):
                assert u.length() < w.length() or u == w


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reflection_goes_down_exactly_when_length_drops(n):
    # the neighbor oracle tests covers by length alone; this is what allows it
    roots = positive_roots(n)
    for w in weyl_elements(n):
        for alpha in roots:
            ws = compose(w, reflection(alpha, n))
            assert bruhat_leq(ws, w) == (ws.length() < w.length())


def test_admissible_pairs_identity_empty():
    assert admissible_pairs(WeylElem.identity(3)) == []


def test_admissible_pairs_w0_rank2():
    got = classes(WeylElem.parse("4 3 2 1"))
    assert got == {
        (1, 2): PairClass.E1,
        (2, 3): PairClass.E3,
        (3, 4): PairClass.OTHER,
    }


def test_admissible_pairs_wmax_rank2():
    got = classes(WeylElem.parse("3 4 1 2"))
    assert got == {
        (1, 3): PairClass.OTHER,
        (1, 4): PairClass.E3,
        (2, 3): PairClass.E3,
        (2, 4): PairClass.OTHER,
    }


@pytest.mark.parametrize("n", [2, 3])
def test_e_classes_partition(n):
    # each admissible pair gets exactly one label; the three E conditions
    # never overlap
    for w in weyl_elements(n):
        for p in admissible_pairs(w):
            hits = 0
            if p.j <= n:
                hits += 1
            if p.i <= n < p.j and w(p.i) <= n and w(p.j) <= n:
                hits += 1
            if p.i <= n and p.j == 2 * n + 1 - p.i:
                hits += 1
            assert hits == (0 if p.cls is PairClass.OTHER else 1)


def test_gamma_examples():
    w0 = WeylElem.parse("4 3 2 1")
    by_pos = {(p.i, p.j): p for p in admissible_pairs(w0)}
    assert gamma(by_pos[(1, 2)], w0) == Root.diff(1, 2)
    assert gamma(by_pos[(2, 3)], w0) == Root.long(2)
    wmax = WeylElem.parse("3 4 1 2")
    by_pos = {(p.i, p.j): p for p in admissible_pairs(wmax)}
    assert gamma(by_pos[(1, 4)], wmax) == Root.long(1)
    with pytest.raises(ValueError):
        gamma(by_pos[(1, 3)], wmax)  # OTHER class carries no root


def test_lower_neighbors_examples():
    assert lower_neighbors(WeylElem.identity(2)).roots == frozenset()
    assert lower_neighbors(WeylElem.parse("4 3 2 1")).roots == {
        Root.diff(1, 2),
        Root.long(2),
    }
    assert lower_neighbors(WeylElem.parse("3 4 1 2")).roots == {
        Root.long(1),
        Root.long(2),
    }


def reference_gamma(i, j, w):
    """The root of an admissible pair from the class definitions, or None:
    E1 gives e_i - e_j, E2 gives e_i + e_k with k = 2n+1-j, E3 gives 2e_i."""
    n = w.n
    if j <= n:
        return Root.diff(i, j)
    if i <= n and j == 2 * n + 1 - i:
        return Root.long(i)
    if i <= n < j and w(i) <= n and w(j) <= n:
        k = 2 * n + 1 - j
        return Root.sum(min(i, k), max(i, k))
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gamma_bijection_exhaustive(n):
    for w in weyl_elements(n):
        all_pairs = admissible_pairs(w)
        pairs = [p for p in all_pairs if p.cls is not PairClass.OTHER]
        roots = [gamma(p, w) for p in pairs]
        assert len(set(roots)) == len(roots)  # injective on the E-classes
        assert frozenset(roots) == lower_neighbors_oracle(w).roots
        # the table-driven E_w, against the same set and the class definitions
        assert lower_neighbors(w).roots == frozenset(roots)
        assert [reference_gamma(p.i, p.j, w) for p in all_pairs] == [
            None if p.cls is PairClass.OTHER else gamma(p, w) for p in all_pairs
        ]


def test_oracle_calls_no_admissible_pair_code(monkeypatch):
    counted = [
        (kernels, "admissible_pairs"),
        (kernels, "admissible_mask"),
        (bruhat, "_pair_roots"),
        (bruhat, "_pair_rows"),
    ]
    calls = dict.fromkeys([name for _, name in counted], 0)

    def count_calls(module, name):
        real = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    # build the rank-6 row table first, so that building it calls
    # _pair_roots outside the count whatever ran before this test
    bruhat._pair_rows(6)
    for module, name in counted:
        count_calls(module, name)
    rng = random.Random(6)
    elems = [canonical_elements(6).w0, canonical_elements(6).wmax]
    elems += [random_element(6, rng) for _ in range(20)]
    oracle = [lower_neighbors_oracle(w) for w in elems]
    assert calls == dict.fromkeys(calls, 0)
    # positive control: the wrappers do see both admissible-pair routes, the
    # fused row scan of E_w and the classed pairs
    assert [lower_neighbors(w) for w in elems] == oracle
    for w in elems:
        admissible_pairs(w)
    assert calls == dict.fromkeys(calls, len(elems))


@pytest.mark.parametrize("n", [2, 3])
def test_covers_drop_length_by_exactly_one(n):
    for w in weyl_elements(n):
        lw = w.length()
        for alpha in lower_neighbors(w).roots:
            ws = compose(w, reflection(alpha, n))
            assert ws.length() == lw - 1
            assert bruhat_leq(ws, w)


def test_is_separating_examples():
    assert is_separating(lower_neighbors(WeylElem.identity(3)))
    assert is_separating(lower_neighbors(WeylElem.parse("4 3 2 1")))


def independent_by_rank(roots, n) -> bool:
    """The reference: the dense coroot rows have full rank."""
    rows = [alpha.coroot_row(n) for alpha in roots]
    return linalg.rank(rows) == len(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_separating_matches_rank_on_every_neighbor_set(n):
    seen = set()
    for w in weyl_elements(n):
        neighbors = lower_neighbors(w)
        separating = is_separating(neighbors)
        assert separating == independent_by_rank(neighbors.roots, n), w
        seen.add(separating)
    # every neighbor set of rank at most 2 is separating
    assert seen == ({True} if n <= 2 else {True, False})


def test_is_separating_matches_rank_on_random_root_sets():
    """Subsets of up to n + 1 roots, so that dependent sets of every size
    occur: balanced cycles, two unbalanced cycles in one component, and
    the loops of the long roots."""
    seen = set()

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 8))
        bits = data.draw(st.lists(st.integers(0, n * n - 1), max_size=n + 1, unique=True))
        neighbors = NeighborSet(WeylElem.identity(n), sum(1 << k for k in bits))
        roots = [positive_roots(n)[k] for k in bits]
        separating = is_separating(neighbors)
        assert separating == independent_by_rank(roots, n)
        seen.add(separating)

    check()
    assert seen == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_is_separating_matches_rank_on_every_small_root_set(n):
    """Every set of at most n + 1 roots.  The test reads the roots in bit
    order, so two unbalanced components can meet only when a later sum edge
    joins them, as e3+e4 joins {e1-e3, e1+e3} and {e2-e4, e2+e4} at n = 4;
    random subsets rarely have that shape."""
    roots = positive_roots(n)
    for size in range(n + 2):
        for bits in itertools.combinations(range(n * n), size):
            neighbors = NeighborSet(WeylElem.identity(n), sum(1 << k for k in bits))
            assert is_separating(neighbors) == independent_by_rank([roots[k] for k in bits], n), bits


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_neighbor_set_roots_decode_the_root_set_construction(n):
    """`NeighborSet.roots`, decoded from the mask, against the Root sets both
    routes built before they returned masks."""
    for w in weyl_elements(n):
        by_pairs = frozenset(gamma(p, w) for p in admissible_pairs(w) if p.cls is not PairClass.OTHER)
        by_oracle = frozenset(
            alpha for alpha, swaps in reflection_swaps(n).items()
            if kernels.length_change(w.window, swaps) == -1
        )
        assert lower_neighbors(w).roots == by_pairs
        assert lower_neighbors_oracle(w).roots == by_oracle


def test_non_separating_elements_exist():
    # any element with more lower neighbors than the rank is dependent
    found = False
    for w in weyl_elements(3):
        neighbors = lower_neighbors(w)
        if len(neighbors.roots) > 3:
            assert not is_separating(neighbors)
            found = True
    assert found


def test_enum_IW_rank1():
    assert enum_IW(1) == [WeylElem.identity(1), WeylElem.parse("2 1")]


def test_enum_IW_rank2():
    got = [str(w) for w in enum_IW(2)]
    assert got == ["1 2 3 4", "1 3 2 4", "3 1 4 2", "3 4 1 2"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enum_IW_matches_length_criterion(n):
    reps = enum_IW(n)
    assert len(reps) == 2**n
    assert reps[-1] == canonical_elements(n).wmax
    filtered = sorted(
        (w for w in weyl_elements(n) if is_min_rep(w)),
        key=lambda w: (w.length(), w.window),
    )
    assert reps == filtered


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unique_levi_factorization(n):
    reps = set(enum_IW(n))
    levi = levi_elements(n)
    for w in weyl_elements(n):
        coset = [compose(u, w) for u in levi]
        in_reps = [v for v in coset if v in reps]
        assert len(in_reps) == 1  # exactly one minimal representative per coset
        v = in_reps[0]
        u = compose(w, v.inverse())
        assert u in set(levi)
        assert u.length() + v.length() == w.length()


def test_preceq_examples():
    for n in (2, 3, 4):
        reps = enum_IW(n)
        top = canonical_elements(n).wmax
        for w in reps:
            assert preceq(reps[0], w)
            assert preceq(w, top)
            assert preceq(w, w)


def test_preceq_requires_min_reps():
    with pytest.raises(ValueError):
        preceq(WeylElem.parse("4 3 2 1"), WeylElem.parse("3 4 1 2"))


@pytest.mark.parametrize("n", [2, 3])
def test_preceq_order_axioms(n):
    reps = enum_IW(n)
    rel = {(a, b): preceq(a, b) for a in reps for b in reps}
    for a in reps:
        for b in reps:
            if a != b:
                assert not (rel[(a, b)] and rel[(b, a)])
            if bruhat_leq(a, b):
                assert rel[(a, b)]  # preceq refines Bruhat on the reps
            for c in reps:
                if rel[(a, b)] and rel[(b, c)]:
                    assert rel[(a, c)]


def test_stratum_dim():
    for n in (1, 2, 3, 4):
        reps = enum_IW(n)
        ident = reps[0]
        top = canonical_elements(n).wmax
        dim_p = stratum_dim(ident)
        # the top stratum is open dense: its dimension is the full group's
        assert stratum_dim(top) == n * (2 * n + 1) + 1
        assert stratum_dim(top) - dim_p == n * (n + 1) // 2
    with pytest.raises(ValueError):
        stratum_dim(WeylElem.parse("4 3 2 1"))
