"""Window kernels: the hot inner loops on raw windows.

A window is the image tuple (w(1), ..., w(2n)) of a permutation of
{1, ..., 2n}, stored with 1-based values.  The kernels take and return
plain tuples and trust their input; `weylroot.WeylElem` validates windows
where they enter.  This is the only backend; `BACKEND` names it for the
JSON of `weyl --json` and for benchmark records.
"""

from __future__ import annotations

from bisect import insort
from operator import le

BACKEND = "python"


def compose(u, v):
    """Window of u*v with the right factor applied first: (u*v)(i) = u(v(i))."""
    return tuple([u[x - 1] for x in v])


def invert(w):
    out = [0] * len(w)
    for pos, val in enumerate(w):
        out[val - 1] = pos + 1
    return tuple(out)


def mirror_defect(w):
    """First 1-based i with w(i) + w(2n+1-i) != 2n+1, or 0 if none."""
    m = len(w)
    for i in range(m):
        if w[i] + w[m - 1 - i] != m + 1:
            return i + 1
    return 0


def length(w):
    """Coxeter length M(w) + N(w) counted over the first half of the window.

    M counts pairs i < j <= n with w(i) > w(j); N counts pairs i <= j <= n
    with w(i) + w(j) > 2n + 1.
    """
    n = len(w) // 2
    bound = len(w) + 1
    total = 0
    for i in range(n):
        wi = w[i]
        if 2 * wi > bound:
            total += 1
        for j in range(i + 1, n):
            if wi > w[j]:
                total += 1
            if wi + w[j] > bound:
                total += 1
    return total


def length_change(w, swaps):
    """l(w*s) - l(w) for the reflection s that swaps the given 1-based
    position pairs (a, b), a < b, one after the other; O(n).

    On mirror windows l(w) = (inv(w) + #{i <= n : w(i) > n}) / 2, with inv
    the inversion count of the whole window (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, section 8.1).  Swapping positions a < b changes inv
    by +-(1 + 2c), with c the number of positions strictly between whose
    values lie strictly between w(a) and w(b); it changes the first-half
    count only when a <= n < b.
    """
    n = len(w) // 2
    w = list(w)
    delta = 0
    for a, b in swaps:
        x = w[a - 1]
        y = w[b - 1]
        lo, hi = (x, y) if x < y else (y, x)
        c = 0
        for v in w[a:b - 1]:
            if lo < v < hi:
                c += 1
        delta += 1 + 2 * c if x < y else -1 - 2 * c
        if a <= n < b:
            delta += (y > n) - (x > n)
        w[a - 1] = y
        w[b - 1] = x
    return delta // 2


def bruhat_leq(w1, w2):
    """Sorted-prefix (tableau) criterion: for every i, the sorted values
    w1(1..i) lie entrywise at or below the sorted values w2(1..i)
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 2.6.3; the order
    on mirror windows is the one induced from all permutations, Cor 8.1.9).
    For each i this is the rank-matrix inequality r_{w1}(i,j) >= r_{w2}(i,j)
    for all j."""
    a = []
    b = []
    for x, y in zip(w1, w2):
        insort(a, x)
        insort(b, y)
        if not all(map(le, a, b)):
            return False
    return True


def rank_entry(w, i, j):
    """r_w(i,j) = #{k <= i : w(k) <= j} with 1-based i, j."""
    c = 0
    for k in range(i):
        if w[k] <= j:
            c += 1
    return c


def admissible_pairs(w):
    """All 1-based pairs (i, j), i < j, with w(i) > w(j) and no intermediate
    position whose value lies strictly between w(j) and w(i)."""
    m = len(w)
    out = []
    for i in range(m - 1):
        wi = w[i]
        best = 0  # largest value < w(i) seen so far between the endpoints
        for j in range(i + 1, m):
            wj = w[j]
            if wj < wi:
                if best < wj:
                    out.append((i + 1, j + 1))
                if wj > best:
                    best = wj
    return tuple(out)
