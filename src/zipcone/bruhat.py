"""Bruhat order, lower neighbors and minimal coset representatives.

Lower neighbors are computed two ways: combinatorially from admissible
pairs of the first half of the window, through a per-rank table from
position pairs to root indices, and by the brute-force definition (a
length drop of one under a positive reflection).  The two must agree; the
sweeps and the acceptance suite check this exhaustively.  Both give E_w as
a root bitmask: bit k stands for `positive_roots(n)[k]`.  A query about
one element reads E_w off its own classed pairs instead (`classed_pairs`,
`neighbor_roots`), by the same class rule and with no per-rank table.
"""

from __future__ import annotations

import functools
from enum import Enum

from . import kernels
from .weylroot import (
    Record,
    Root,
    RootKind,
    WeylElem,
    compose,
    levi_elements,
    levi_simple_roots,
    non_levi_positive_roots,
    reflection,
    root_index,
)


class PairClass(Enum):
    E1 = "E1"
    E2 = "E2"
    E3 = "E3"
    OTHER = "other"


class AdmissiblePair(Record):
    """An admissible pair (i, j) of a window, tagged with its class.

    E1: j <= n.  E2: i <= n < j with both values w(i), w(j) <= n.
    E3: i <= n and j = 2n+1-i.  The classes are pairwise disjoint; pairs in
    no class are tagged OTHER and carry no root.
    """

    i: int
    j: int
    cls: PairClass

    def __init__(self, i: int, j: int, cls: PairClass):
        vars(self).update(i=i, j=j, cls=cls)


def bruhat_leq(w1: WeylElem, w2: WeylElem) -> bool:
    """w1 <= w2 iff r_{w1}(i,j) >= r_{w2}(i,j) for all i, j; the kernel tests
    it in the equivalent sorted-prefix form."""
    if w1.n != w2.n:
        raise ValueError(f"rank mismatch: {w1.n} vs {w2.n}")
    return kernels.bruhat_leq(w1.window, w2.window)


def pair_root(n: int, i: int, j: int, low: bool) -> tuple[RootKind, int, int] | None:
    """The class rule: the root of the position pair (i, j), i < j, of an
    admissible pair, as the fields (kind, i, j) of a `Root`, or None where
    the pair is in no class; `low` says whether w(i) <= n.  E1 (j <= n)
    gives e_i - e_j, E3 (j = 2n+1-i) gives 2e_i, and every other pair with
    i <= n gives e_i + e_k, k = 2n+1-j, under E2.  E2 needs w(i) <= n and
    w(j) <= n; on an admissible pair w(j) < w(i), so w(i) <= n is the
    whole test.  Pairs with i > n are in no class.  The kind names the
    class, as `_PAIR_CLASS` lists them; `root_index` turns the triple into
    the root's bit with no table."""
    if i > n:
        return None
    if j <= n:
        return RootKind.DIFF, i, j
    k = 2 * n + 1 - j
    if k == i:
        return RootKind.LONG, i, 0
    if not low:
        return None
    return (RootKind.SUM, i, k) if i < k else (RootKind.SUM, k, i)


_PAIR_CLASS = (PairClass.E1, PairClass.E2, PairClass.E3)  # indexed by RootKind


def pair_class(root: tuple[RootKind, int, int] | None) -> PairClass:
    """The class of a pair whose root `pair_root` gives."""
    return PairClass.OTHER if root is None else _PAIR_CLASS[root[0]]


@functools.lru_cache(maxsize=32)
def _pair_rows(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The class rule of `pair_root` as the row table of
    `kernels.admissible_mask`: row i-1 holds two tuples indexed by j-1, the
    root index of the pair (i, j) when w(i) <= n and when w(i) > n, or -1
    where the pair has no class or j <= i.  Read off the `root_index`
    formula row by row, which builds it in half the time of a `pair_root`
    call per entry: the E1 pairs (i, j <= n) are the consecutive indices
    of e_i - e_j, the E2 pair (i, 2n+1-k) is e_i + e_k or e_k + e_i,
    present only when w(i) <= n, and the E3 pair (i, 2n+1-i) is 2e_i.
    Built once per rank, on first use."""
    sums = n * (n - 1) // 2
    rows = []
    for i in range(1, n + 1):
        start = root_index(n, RootKind.DIFF, i, i + 1)
        diffs = [-1] * i + list(range(start, start + n - i))
        # j = 2n+1-k for k = n down to 1: e_i + e_k, and 2e_i at k = i
        low = [sums + root_index(n, RootKind.DIFF, min(i, k), max(i, k)) for k in range(n, 0, -1)]
        high = [-1] * n
        low[n - i] = high[n - i] = root_index(n, RootKind.LONG, i)
        rows.append((tuple(diffs + low), tuple(diffs + high)))
    return tuple(rows)


def classed_pairs(w: WeylElem) -> list[tuple[int, int, tuple[RootKind, int, int] | None]]:
    """Every admissible pair (i, j) of the window with its root as
    `pair_root` gives it, from one scan and no per-rank table."""
    win = w.window
    n = w.n
    return [(i, j, pair_root(n, i, j, win[i - 1] <= n)) for i, j in kernels.admissible_pairs(win)]


def admissible_pairs(w: WeylElem) -> list[AdmissiblePair]:
    """All admissible pairs of the window with their class labels."""
    return [AdmissiblePair(i, j, pair_class(root)) for i, j, root in classed_pairs(w)]


def neighbor_roots(pairs) -> list[Root]:
    """E_w in root order, read off the `classed_pairs` of w: the roots of
    its classed admissible pairs, the set `lower_neighbors` reads off the
    row table.  A `Root` is built only for each member."""
    return [Root(*root) for root in sorted({root for _, _, root in pairs if root is not None})]


def mask_bits(mask: int) -> list[int]:
    """The indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class NeighborSet(Record):
    """The set E_w of positive roots alpha with w*s_alpha covered by w, as a
    root bitmask: bit k is set when `positive_roots(n)[k]` is in E_w."""

    owner: WeylElem
    mask: int

    def __init__(self, owner: WeylElem, mask: int):
        vars(self).update(owner=owner, mask=mask)


def lower_neighbor_mask(window) -> int:
    """E_w of a raw window: the bits of the roots of its classed admissible
    pairs, from one scan of the first half of the window."""
    return kernels.admissible_mask(window, _pair_rows(len(window) // 2))


def lower_neighbors(w: WeylElem) -> NeighborSet:
    """E_w computed from the classed admissible pairs."""
    return NeighborSet(w, lower_neighbor_mask(w.window))


def lower_neighbors_oracle(w: WeylElem, previous: NeighborSet | None = None) -> NeighborSet:
    """E_w by brute force: test every positive root for a length drop of one.

    Bruhat order is graded by length and w * s_alpha is comparable with w,
    so w * s_alpha is covered by w exactly when l(w * s_alpha) = l(w) - 1.
    Still brute force over all n^2 positive roots, with no shortcut from the
    admissible-pair theory, so it stays independent of `lower_neighbors`.
    It works on the raw window: `kernels.length_drops` builds the window's
    prefix value masks in O(n) and reads each root's length change off them
    in O(1) word operations, O(n^2) in all, without building w * s_alpha;
    mirror symmetry lets it evaluate one swap per root.

    Along a walk, `previous` is this oracle's own answer for the element
    before w, never `lower_neighbors`' answer.  Then
    `kernels.length_drops_after` starts from its mask and re-tests, from
    the definition, only the roots whose first swap touches a position
    where the two windows differ; its lemma shows that every other root
    keeps its bit.  Without `previous`, and whenever the two windows
    differ in more than four positions or by more than 1 at one of them,
    every root is tested.
    """
    if previous is None:
        return NeighborSet(w, kernels.length_drops(w.window))
    return NeighborSet(w, kernels.length_drops_after(w.window, previous.owner.window, previous.mask))


@functools.lru_cache(maxsize=32)
def _coroot_edges(n: int) -> tuple[tuple[int, int, int], ...]:
    """Bit k of a rank-n root bitmask as an edge (u, v, odd) of a signed
    graph on the 0-based indices: the coroot e_u - e_v is an even edge, e_u +
    e_v an odd one, and e_u an odd loop at u, which spans what the vector
    e_u - (-e_u) = 2e_u spans.  In root order: the differences and the
    sums, each over the pairs u < v in lexicographic order, then the long
    roots.  Read-only, built once per rank."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return tuple([(u, v, 0) for u, v in pairs] + [(u, v, 1) for u, v in pairs] + [(u, u, 1) for u in range(n)])


def _find(parent: list[int], parity: list[int], v: int) -> tuple[int, int]:
    """The root of v's tree and the parity of v's path to it; the path is
    compressed, every vertex on it then pointing at the root."""
    path = []
    while parent[v] != v:
        path.append(v)
        v = parent[v]
    odd = 0
    for x in reversed(path):  # from the root's child down to the start
        odd ^= parity[x]
        parity[x] = odd
        parent[x] = v
    return v, odd


def is_separating(neighbors: NeighborSet) -> bool:
    """Whether the coroot functionals of E_w are linearly independent over
    Q; takes the `NeighborSet` the caller already holds, so E_w is not
    computed twice.  Its edges come from the per-rank table, which the
    path reuses along its walk; `roots_separating` gives the same verdict
    for E_w given as its roots, with no table."""
    n = neighbors.owner.n
    edges = _coroot_edges(n)
    return _independent(n, [edges[k] for k in mask_bits(neighbors.mask)])


def roots_separating(n: int, roots) -> bool:
    """`is_separating` for rank-n roots, as `neighbor_roots` gives E_w: each
    root's edge is read off its fields, as `_coroot_edges` lists them."""
    return _independent(n, [(a.i - 1, (a.j or a.i) - 1, int(a.kind is not RootKind.DIFF)) for a in roots])


def _independent(n: int, edges) -> bool:
    """Whether signed-graph edges (u, v, odd) on the vertices 0..n-1, as
    `_coroot_edges` encodes coroots, are independent.

    The coroots e_u - e_v, e_u + e_v and e_u are the edge vectors of a
    signed graph, and a set of them is independent exactly when it is
    independent in the graph's frame matroid (Zaslavsky, Signed graphs,
    Discrete Appl. Math. 4, 1982): no connected component holds a balanced
    cycle (an even number of odd edges), and none holds more than one
    unbalanced cycle, each loop counting as one.  A union-find over the n
    indices that keeps every vertex's parity to its root adds the edges
    one by one and stops at the first that breaks this: in O(n alpha(n)),
    since a set of more than n edges is dependent, so at most n + 1 edges
    are read.
    """
    parent = list(range(n))
    parity = [0] * n  # parity of the path from a vertex to its parent
    size = [1] * n
    unbalanced = [False] * n  # at a root: its component holds an unbalanced cycle
    for u, v, odd in edges:
        ru, pu = _find(parent, parity, u)
        rv, pv = _find(parent, parity, v)
        cycle = pu ^ pv ^ odd
        if ru == rv:
            # the edge closes a cycle of this parity
            if not cycle or unbalanced[ru]:
                return False
            unbalanced[ru] = True
        else:
            # merging two components that each hold an unbalanced cycle
            # leaves more edges than vertices
            if unbalanced[ru] and unbalanced[rv]:
                return False
            if size[ru] > size[rv]:
                ru, rv = rv, ru
            parent[ru] = rv
            parity[ru] = cycle
            size[rv] += size[ru]
            unbalanced[rv] = unbalanced[rv] or unbalanced[ru]
    return True


def is_min_rep(w: WeylElem) -> bool:
    """Minimal length in its left Levi coset: l(s_alpha * w) > l(w) for alpha in I."""
    lw = w.length()
    n = w.n
    return all(
        compose(reflection(alpha, n), w).length() > lw
        for alpha in levi_simple_roots(n)
    )


def enum_IW(n: int) -> list[WeylElem]:
    """The 2^n minimal coset representatives, sorted by length.

    A window is minimal in its left Levi coset iff the positions of the
    values 1..n are increasing.  Each representative is determined by
    choosing, for every k <= n, which of {k, 2n+1-k} the inverse window
    takes on the first half.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    m = 2 * n
    out = []
    for mask in range(2**n):
        chosen = sorted(k if not mask & (1 << (k - 1)) else m + 1 - k for k in range(1, n + 1))
        inv = [0] * m
        for idx, val in enumerate(chosen):
            inv[idx] = val
            inv[m - 1 - idx] = m + 1 - val
        out.append(WeylElem._trusted(tuple(inv)).inverse())
    out.sort(key=lambda w: (w.length(), w.window))
    return out


def preceq(w1: WeylElem, w2: WeylElem) -> bool:
    """The closure order on minimal representatives: some Levi conjugate of
    the smaller element is Bruhat-below the larger one.  Brute force over
    the n! Levi elements.

    Conjugation must act on the smaller side: conjugating w2 instead breaks
    antisymmetry already in rank 2 (a Levi conjugate of a short element can
    dominate a longer one), while this form is a genuine partial order that
    refines Bruhat and never relates a longer element below a shorter one.
    The Frobenius twist is trivial here; twisting the conjugator by the
    frame element gives the same relation on the representatives.
    """
    for w, name in ((w1, "w1"), (w2, "w2")):
        if not is_min_rep(w):
            raise ValueError(f"{name} = {w} is not a minimal coset representative")
    for u in levi_elements(w1.n):
        if bruhat_leq(compose(compose(u, w1), u.inverse()), w2):
            return True
    return False


def stratum_dim(w: WeylElem) -> int:
    """l(w) + dim P, with dim P assembled from root counts: the Levi has
    dimension n^2 + 1 (roots plus an (n+1)-dimensional torus) and the
    unipotent radical contributes one dimension per root outside the Levi."""
    if not is_min_rep(w):
        raise ValueError(f"{w} is not a minimal coset representative")
    n = w.n
    dim_levi = n * (n - 1) + (n + 1)
    dim_parabolic = dim_levi + len(non_levi_positive_roots(n))
    return w.length() + dim_parabolic

