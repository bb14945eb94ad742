"""Bruhat order, lower neighbors and minimal coset representatives.

Lower neighbors are computed two ways: combinatorially from admissible
pairs of the window, and by the brute-force definition (length drop plus
rank-matrix comparison).  The two must agree; the sweeps and the
acceptance suite check this exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from . import kernels, linalg
from .weylroot import (
    Root,
    WeylElem,
    compose,
    levi_elements,
    levi_simple_roots,
    non_levi_positive_roots,
    reflection,
    reflection_windows,
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
    """w1 <= w2 iff r_{w1}(i,j) >= r_{w2}(i,j) for all i, j."""
    if w1.n != w2.n:
        raise ValueError(f"rank mismatch: {w1.n} vs {w2.n}")
    return kernels.bruhat_leq(w1.window, w2.window)


def admissible_pairs(w: WeylElem) -> list[AdmissiblePair]:
    """All admissible pairs of the window with their class labels."""
    n = w.n
    out = []
    for i, j in kernels.admissible_pairs(w.window):
        if j <= n:
            cls = PairClass.E1
        elif i <= n and j == 2 * n + 1 - i:
            cls = PairClass.E3
        elif i <= n < j and w(i) <= n and w(j) <= n:
            cls = PairClass.E2
        else:
            cls = PairClass.OTHER
        out.append(AdmissiblePair(i, j, cls))
    return out


def gamma(pair: AdmissiblePair, w: WeylElem) -> Root:
    """The positive root attached to a classed admissible pair."""
    n = w.n
    if pair.cls is PairClass.E1:
        return Root.diff(pair.i, pair.j)
    if pair.cls is PairClass.E2:
        k = 2 * n + 1 - pair.j
        return Root.sum(min(pair.i, k), max(pair.i, k))
    if pair.cls is PairClass.E3:
        return Root.long(pair.i)
    raise ValueError(f"pair ({pair.i}, {pair.j}) is in no E-class")


@dataclass(frozen=True)
class NeighborSet:
    """The set E_w of positive roots alpha with w*s_alpha covered by w."""

    owner: WeylElem
    roots: frozenset[Root]


def lower_neighbors(w: WeylElem) -> NeighborSet:
    """E_w computed from the classed admissible pairs."""
    roots = frozenset(
        gamma(p, w) for p in admissible_pairs(w) if p.cls is not PairClass.OTHER
    )
    return NeighborSet(w, roots)


def lower_neighbors_oracle(w: WeylElem) -> NeighborSet:
    """E_w by brute force: test every positive root for a length-1 Bruhat drop.

    Still brute force over all n^2 positive roots, with no shortcut from the
    admissible-pair theory, so it stays independent of `lower_neighbors`.
    It works on raw windows: w * s_alpha is composed with the per-rank
    reflection window and checked by the length and rank-matrix kernels.
    """
    win = w.window
    lw = kernels.length(win)
    roots = []
    for alpha, s in reflection_windows(w.n).items():
        ws = kernels.compose(win, s)
        if kernels.length(ws) == lw - 1 and kernels.bruhat_leq(ws, win):
            roots.append(alpha)
    return NeighborSet(w, frozenset(roots))


def is_separating(w: WeylElem) -> bool:
    """Whether the coroot functionals of E_w are linearly independent over Q."""
    roots = sorted(lower_neighbors(w).roots)
    rows = [alpha.coroot_row(w.n) for alpha in roots]
    return linalg.rank(rows) == len(rows)


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

