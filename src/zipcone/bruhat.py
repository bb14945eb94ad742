"""Bruhat order, lower neighbors and minimal coset representatives.

Lower neighbors are computed two ways: combinatorially from admissible
pairs of the first half of the window, through a per-rank table from
position pairs to root indices, and by the brute-force definition (a
length drop of one under a positive reflection).  The two must agree; the
sweeps and the acceptance suite check this exhaustively.  Both give E_w as
a root bitmask: bit k stands for `positive_roots(n)[k]`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from . import kernels
from .weylroot import (
    Root,
    WeylElem,
    compose,
    levi_elements,
    levi_simple_roots,
    non_levi_positive_roots,
    reflection,
    root_index,
    root_order,
    root_table,
)


class PairClass(Enum):
    E1 = "E1"
    E2 = "E2"
    E3 = "E3"
    OTHER = "other"


@dataclass(frozen=True)
class AdmissiblePair:
    """An admissible pair (i, j) of a window, tagged with its class.

    E1: j <= n.  E2: i <= n < j with both values w(i), w(j) <= n.
    E3: i <= n and j = 2n+1-i.  The classes are pairwise disjoint; pairs in
    no class are tagged OTHER and carry no root.
    """

    i: int
    j: int
    cls: PairClass


def rank_matrix(w: WeylElem, i: int, j: int) -> int:
    """r_w(i, j) = #{k <= i : w(k) <= j}."""
    m = 2 * w.n
    if not (1 <= i <= m and 1 <= j <= m):
        raise ValueError(f"indices ({i}, {j}) out of range 1..{m}")
    return kernels.rank_entry(w.window, i, j)


def bruhat_leq(w1: WeylElem, w2: WeylElem) -> bool:
    """w1 <= w2 iff r_{w1}(i,j) >= r_{w2}(i,j) for all i, j; the kernel tests
    it in the equivalent sorted-prefix form."""
    if w1.n != w2.n:
        raise ValueError(f"rank mismatch: {w1.n} vs {w2.n}")
    return kernels.bruhat_leq(w1.window, w2.window)


@functools.lru_cache(maxsize=32)
def _pair_roots(n: int) -> Mapping[tuple[int, int], tuple[PairClass, Root, int, int]]:
    """Every 1-based position pair (i, j), i < j, i <= n, mapped to its
    class, its root, the largest w(i) the class allows and the root's index
    in `positive_roots(n)`: E1 (j <= n) to e_i - e_j, E3 (j = 2n+1-i) to
    2e_i, and every other pair to e_i + e_k, k = 2n+1-j, under E2.  E2 needs
    w(i) <= n and w(j) <= n; on an admissible pair w(j) < w(i), so the bound
    n on w(i) is the whole test, and E1 and E3 carry the bound 2n that every
    value meets.  Pairs with i > n are in no class and absent.  Built once
    per rank, on first use; read-only, since every caller shares it."""
    m = 2 * n
    table = {}
    for i in range(1, n + 1):
        for j in range(i + 1, m + 1):
            if j <= n:
                cls, root, bound = PairClass.E1, Root.diff(i, j), m
            elif j == m + 1 - i:
                cls, root, bound = PairClass.E3, Root.long(i), m
            else:
                k = m + 1 - j
                cls, root, bound = PairClass.E2, Root.sum(min(i, k), max(i, k)), n
            table[i, j] = (cls, root, bound, root_index(n, *root_order(root)))
    return MappingProxyType(table)


@functools.lru_cache(maxsize=32)
def _pair_rows(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """`_pair_roots(n)` as the row table of `kernels.admissible_mask`: row
    i-1 holds two tuples indexed by j-1, the root index of the pair (i, j)
    when w(i) <= n and when w(i) > n, or -1 where the pair has no class.
    Built once per rank, on first use."""
    m = 2 * n
    rows = [([-1] * m, [-1] * m) for _ in range(n)]
    for (i, j), (_, _, bound, index) in _pair_roots(n).items():
        low, high = rows[i - 1]
        low[j - 1] = index
        if bound == m:
            high[j - 1] = index
    return tuple((tuple(low), tuple(high)) for low, high in rows)


def admissible_pairs(w: WeylElem) -> list[AdmissiblePair]:
    """All admissible pairs of the window with their class labels."""
    win = w.window
    table = _pair_roots(w.n)
    out = []
    for i, j in kernels.admissible_pairs(win):
        entry = table.get((i, j))
        cls = entry[0] if entry is not None and win[i - 1] <= entry[2] else PairClass.OTHER
        out.append(AdmissiblePair(i, j, cls))
    return out


def gamma(pair: AdmissiblePair, w: WeylElem) -> Root:
    """The positive root attached to a classed admissible pair."""
    entry = _pair_roots(w.n).get((pair.i, pair.j))
    if pair.cls is PairClass.OTHER or entry is None:
        raise ValueError(f"pair ({pair.i}, {pair.j}) is in no E-class")
    return entry[1]


def mask_bits(mask: int) -> list[int]:
    """The indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_roots(n: int, mask: int) -> frozenset[Root]:
    """The roots of a rank-n root bitmask."""
    table = root_table(n)
    return frozenset([table[k] for k in mask_bits(mask)])


@dataclass(frozen=True)
class NeighborSet:
    """The set E_w of positive roots alpha with w*s_alpha covered by w, as a
    root bitmask: bit k is set when `positive_roots(n)[k]` is in E_w."""

    owner: WeylElem
    mask: int

    @functools.cached_property
    def roots(self) -> frozenset[Root]:
        return mask_roots(self.owner.n, self.mask)


def lower_neighbor_mask(window) -> int:
    """E_w of a raw window: the bits of the roots of its classed admissible
    pairs, from one scan of the first half of the window."""
    return kernels.admissible_mask(window, _pair_rows(len(window) // 2))


def lower_neighbors(w: WeylElem) -> NeighborSet:
    """E_w computed from the classed admissible pairs."""
    return NeighborSet(w, lower_neighbor_mask(w.window))


def lower_neighbors_oracle(w: WeylElem) -> NeighborSet:
    """E_w by brute force: test every positive root for a length drop of one.

    Bruhat order is graded by length and w * s_alpha is comparable with w,
    so w * s_alpha is covered by w exactly when l(w * s_alpha) = l(w) - 1.
    Still brute force over all n^2 positive roots, with no shortcut from the
    admissible-pair theory, so it stays independent of `lower_neighbors`.
    It works on the raw window: `kernels.length_drops` builds the window's
    prefix value masks in O(n) and reads each root's length change off them
    in O(1) word operations, O(n^2) in all, without building w * s_alpha;
    mirror symmetry lets it evaluate one swap per root.
    """
    return NeighborSet(w, kernels.length_drops(w.window))


@functools.lru_cache(maxsize=32)
def _coroot_edges(n: int) -> tuple[tuple[int, int, int], ...]:
    """Bit k of a rank-n root bitmask as an edge (u, v, odd) of a signed
    graph on the 0-based indices: the coroot e_u - e_v is an even edge, e_u +
    e_v an odd one, and e_u an odd loop at u, which spans what the vector
    e_u - (-e_u) = 2e_u spans.  Read-only, built once per rank."""
    edges = []
    for alpha in root_table(n):
        (u, _), *rest = alpha.coroot
        v, c = rest[0] if rest else (u, 1)
        edges.append((u, v, int(c == 1)))
    return tuple(edges)


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
    computed twice.

    The coroots e_u - e_v, e_u + e_v and e_u are the edge vectors of a
    signed graph (see `_coroot_edges`), and a set of them is independent
    exactly when it is independent in the graph's frame matroid (Zaslavsky,
    Signed graphs, Discrete Appl. Math. 4, 1982): no connected component
    holds a balanced cycle (an even number of odd edges), and none holds more
    than one unbalanced cycle, each loop counting as one.  A union-find over
    the n indices that keeps every vertex's parity to its root adds the
    edges one by one and stops at the first that breaks this: in
    O(n alpha(n)), since a set of more than n edges is dependent, so at most
    n + 1 edges are read.
    """
    n = neighbors.owner.n
    edges = _coroot_edges(n)
    parent = list(range(n))
    parity = [0] * n  # parity of the path from a vertex to its parent
    size = [1] * n
    unbalanced = [False] * n  # at a root: its component holds an unbalanced cycle
    for k in mask_bits(neighbors.mask):
        u, v, odd = edges[k]
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

