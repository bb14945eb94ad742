import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import identity, random_element, rank_entry, root_set, weyl_elements
from zipcone import bruhat, kernels, linalg
from zipcone.bruhat import (
    NeighborSet,
    PairClass,
    admissible_pairs,
    bruhat_leq,
    enum_IW,
    is_min_rep,
    is_separating,
    lower_neighbors,
    lower_neighbors_oracle,
    preceq,
    stratum_dim,
)
from zipcone.hasse import descent_path
from zipcone.weylroot import (
    Root,
    RootKind,
    WeylElem,
    canonical_elements,
    compose,
    levi_elements,
    positive_roots,
    reflection,
    reflection_swaps,
    root_index,
    root_order,
)


def classes(w):
    return {(p.i, p.j): p.cls for p in admissible_pairs(w)}


def test_rank_matrix_identity():
    ident = identity(3).window
    for i in range(1, 7):
        for j in range(1, 7):
            assert rank_entry(ident, i, j) == min(i, j)


def test_rank_matrix_w0_rank2():
    w0 = (4, 3, 2, 1)
    assert rank_entry(w0, 1, 1) == 0
    assert rank_entry(w0, 2, 3) == 1


def test_bruhat_examples():
    assert bruhat_leq(WeylElem.parse("3 4 1 2"), WeylElem.parse("4 3 2 1"))
    assert not bruhat_leq(WeylElem.parse("4 3 2 1"), WeylElem.parse("3 4 1 2"))
    with pytest.raises(ValueError):
        bruhat_leq(identity(2), identity(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bruhat_partial_order_axioms(n):
    elems = list(weyl_elements(n))
    leq = [[bruhat_leq(u, w) for w in elems] for u in elems]
    ident = identity(n)
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
    assert admissible_pairs(identity(3)) == []


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


def gamma(pair, w):
    """The root of a classed admissible pair, by the class rule."""
    return Root(*bruhat.pair_root(w.n, pair.i, pair.j, w(pair.i) <= w.n))


def test_gamma_examples():
    w0 = WeylElem.parse("4 3 2 1")
    by_pos = {(p.i, p.j): p for p in admissible_pairs(w0)}
    assert gamma(by_pos[(1, 2)], w0) == Root.diff(1, 2)
    assert gamma(by_pos[(2, 3)], w0) == Root.long(2)
    wmax = WeylElem.parse("3 4 1 2")
    by_pos = {(p.i, p.j): p for p in admissible_pairs(wmax)}
    assert gamma(by_pos[(1, 4)], wmax) == Root.long(1)
    assert by_pos[(1, 3)].cls is PairClass.OTHER
    assert bruhat.pair_root(2, 1, 3, wmax(1) <= 2) is None  # OTHER class carries no root


def test_lower_neighbors_examples():
    assert root_set(lower_neighbors(identity(2))) == frozenset()
    assert root_set(lower_neighbors(WeylElem.parse("4 3 2 1"))) == {
        Root.diff(1, 2),
        Root.long(2),
    }
    assert root_set(lower_neighbors(WeylElem.parse("3 4 1 2"))) == {
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


CLASS_OF_KIND = {RootKind.DIFF: PairClass.E1, RootKind.SUM: PairClass.E2, RootKind.LONG: PairClass.E3}


def reference_pair_root(n, i, j, low):
    """`reference_gamma` for a pair (i, j), i < j, of which only whether
    w(i) <= n is known: on an admissible pair w(j) < w(i), so that bound
    is E2's whole test."""
    if j <= n:
        return Root.diff(i, j)
    if i <= n and j == 2 * n + 1 - i:
        return Root.long(i)
    if i <= n < j and low:
        k = 2 * n + 1 - j
        return Root.sum(min(i, k), max(i, k))
    return None


@pytest.mark.parametrize("n", range(1, 13))
def test_class_rule_matches_the_class_definition(n):
    for i in range(1, 2 * n):
        for j in range(i + 1, 2 * n + 1):
            for low in (True, False):
                ref = reference_pair_root(n, i, j, low)
                root = bruhat.pair_root(n, i, j, low)
                assert root == (None if ref is None else root_order(ref)), (i, j, low)
                assert bruhat.pair_class(root) is (PairClass.OTHER if ref is None else CLASS_OF_KIND[ref.kind])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gamma_bijection_exhaustive(n):
    for w in weyl_elements(n):
        all_pairs = admissible_pairs(w)
        pairs = [p for p in all_pairs if p.cls is not PairClass.OTHER]
        roots = [gamma(p, w) for p in pairs]
        assert len(set(roots)) == len(roots)  # injective on the E-classes
        assert frozenset(roots) == root_set(lower_neighbors_oracle(w))
        # the table-driven E_w, against the same set and the class definitions
        assert root_set(lower_neighbors(w)) == frozenset(roots)
        assert [reference_gamma(p.i, p.j, w) for p in all_pairs] == [
            None if p.cls is PairClass.OTHER else gamma(p, w) for p in all_pairs
        ]


def test_oracle_calls_no_admissible_pair_code(monkeypatch):
    counted = [
        (kernels, "admissible_pairs"),
        (kernels, "admissible_mask"),
        (bruhat, "classed_pairs"),
        (bruhat, "_pair_rows"),
    ]
    calls = dict.fromkeys([name for _, name in counted], 0)

    def count_calls(module, name):
        real = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    # _pair_rows applies the class rule itself, not through classed_pairs,
    # so each wrapper counts only the calls made to it
    for module, name in counted:
        count_calls(module, name)
    rng = random.Random(6)
    elems = [canonical_elements(6).w0, canonical_elements(6).wmax]
    elems += [random_element(6, rng) for _ in range(20)]
    oracle = [lower_neighbors_oracle(w) for w in elems]
    # a chained walk: each step starts from the oracle's answer for the step before
    walk = [step.w for step in descent_path(6, 5)]
    chained = [lower_neighbors_oracle(walk[0])]
    for w in walk[1:]:
        chained.append(lower_neighbors_oracle(w, chained[-1]))
    assert calls == dict.fromkeys(calls, 0)
    assert [s.mask for s in chained] == [kernels.length_drops(w.window) for w in walk]
    # positive control: the wrappers do see both admissible-pair routes, the
    # fused row scan of E_w and the classed pairs
    assert [lower_neighbors(w) for w in elems] == oracle
    assert [lower_neighbors(w) for w in walk] == chained
    for w in elems:
        admissible_pairs(w)
    assert calls == {
        "admissible_pairs": len(elems),
        "admissible_mask": len(elems) + len(walk),
        "classed_pairs": len(elems),
        "_pair_rows": len(elems) + len(walk),
    }


def pair_rows_from_class_definition(n):
    """The admissible-mask row table derived from the written-out class
    definitions of `reference_pair_root` and `root_order`."""
    rows = []
    for i in range(1, n + 1):
        low, high = (
            tuple(
                -1 if root is None else root_index(n, *root_order(root))
                for root in [None] * i + [reference_pair_root(n, i, j, flag) for j in range(i + 1, 2 * n + 1)]
            )
            for flag in (True, False)
        )
        rows.append((low, high))
    return tuple(rows)


def coroot_edges_from_coroots(n):
    """The signed-graph edges of `_coroot_edges`, read off `Root.coroot`."""
    edges = []
    for alpha in positive_roots(n):
        (u, _), *rest = alpha.coroot
        v, c = rest[0] if rest else (u, 1)
        edges.append((u, v, int(c == 1)))
    return tuple(edges)


def pair_rows_from_class_rule(n):
    """The admissible-mask row table with one `pair_root` call per entry."""
    def row(i, low):
        roots = [bruhat.pair_root(n, i, j, low) for j in range(i + 1, 2 * n + 1)]
        return (-1,) * i + tuple(-1 if r is None else root_index(n, *r) for r in roots)

    return tuple((row(i, True), row(i, False)) for i in range(1, n + 1))


@pytest.mark.parametrize("n", range(1, 17))
def test_arithmetic_tables_match_the_root_objects(n):
    assert bruhat._pair_rows(n) == pair_rows_from_class_definition(n) == pair_rows_from_class_rule(n)
    assert bruhat._coroot_edges(n) == coroot_edges_from_coroots(n)


@pytest.mark.parametrize("n", [2, 3])
def test_covers_drop_length_by_exactly_one(n):
    for w in weyl_elements(n):
        lw = w.length()
        for alpha in root_set(lower_neighbors(w)):
            ws = compose(w, reflection(alpha, n))
            assert ws.length() == lw - 1
            assert bruhat_leq(ws, w)


def test_is_separating_examples():
    assert is_separating(lower_neighbors(identity(3)))
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
        assert separating == independent_by_rank(root_set(neighbors), n), w
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
        neighbors = NeighborSet(identity(n), sum(1 << k for k in bits))
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
            neighbors = NeighborSet(identity(n), sum(1 << k for k in bits))
            assert is_separating(neighbors) == independent_by_rank([roots[k] for k in bits], n), bits


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_neighbor_set_roots_decode_the_root_set_construction(n):
    """The roots decoded from the mask, against the Root sets both
    routes built before they returned masks."""
    for w in weyl_elements(n):
        by_pairs = frozenset(gamma(p, w) for p in admissible_pairs(w) if p.cls is not PairClass.OTHER)
        by_oracle = frozenset(
            alpha for alpha, swaps in reflection_swaps(n).items()
            if kernels.length_change(w.window, swaps) == -1
        )
        assert root_set(lower_neighbors(w)) == by_pairs
        assert root_set(lower_neighbors_oracle(w)) == by_oracle


def test_non_separating_elements_exist():
    # any element with more lower neighbors than the rank is dependent
    found = False
    for w in weyl_elements(3):
        neighbors = lower_neighbors(w)
        if len(root_set(neighbors)) > 3:
            assert not is_separating(neighbors)
            found = True
    assert found


def test_enum_IW_rank1():
    assert enum_IW(1) == [identity(1), WeylElem.parse("2 1")]


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


def one_scan_mask(w):
    """E_w from the element's own classed pairs, as a root bitmask."""
    return sum(1 << root_index(w.n, *root_order(a)) for a in bruhat.neighbor_roots(bruhat.classed_pairs(w)))


def assert_one_scan_matches(w):
    roots = bruhat.neighbor_roots(bruhat.classed_pairs(w))
    assert roots == sorted(set(roots), key=root_order)  # in root order, each once
    table, oracle = lower_neighbors(w), lower_neighbors_oracle(w)
    assert one_scan_mask(w) == table.mask == oracle.mask, w
    assert bruhat.roots_separating(w.n, roots) == is_separating(table) == is_separating(oracle), w


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_scan_neighbors_match_both_masks_on_every_window(n):
    for w in weyl_elements(n):
        assert_one_scan_matches(w)


@pytest.mark.parametrize("n", [5, 8, 13, 21, 40])
def test_one_scan_neighbors_match_both_masks_on_seeded_windows(n):
    rng = random.Random(4000 + n)
    ce = canonical_elements(n)
    for w in [ce.w0, ce.w0I, ce.wmax, identity(n)] + [random_element(n, rng) for _ in range(40)]:
        assert_one_scan_matches(w)
