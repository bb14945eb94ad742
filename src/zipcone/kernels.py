"""Window kernels: the hot inner loops on raw windows.

A window is the image tuple (w(1), ..., w(2n)) of a permutation of
{1, ..., 2n}, stored with 1-based values.  The kernels take and return
plain tuples and trust their input; `weylroot.WeylElem` validates windows
where they enter.  This is the only backend; `BACKEND` names it for the
JSON of `weyl --json` and for benchmark records.

The brute-force neighbor oracle needs l(w*s) - l(w) for every positive
root: `length_changes` gives all n^2 of them in O(n^2) per window from one
pass of prefix value masks, while `length_change` counts one in O(n) and
serves single steps and as the reference for the batch kernel.
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


def length_changes(w, swaps_list):
    """[length_change(w, s) for s in swaps_list] for reflections s of one or
    two swaps, the two on four distinct positions as in
    `weylroot.reflection_swaps`; O(n) once plus O(1) word operations per
    reflection, so O(n^2) over all positive roots.

    The count c of `length_change` for a swap (a, b) is read off prefix
    value masks: P[k] has bit v set for each value v = w(i), i <= k, so
    P[b] ^ P[a] holds the values at positions a+1..b, and
    (1 << hi) - (2 << lo) keeps those strictly between lo and hi, which
    drops w(b).  A second swap (c, d) sees the window after the first one:
    if exactly one of the first swap's positions lies strictly between c and
    d, that position's value changed from w(a) to w(b) or back, so both bits
    flip; if both do, the set of values between is unchanged.
    """
    n = len(w) // 2
    win = (0, *w)  # 1-based: win[k] = w(k)
    prefix = [0]
    seen = 0
    for v in w:
        seen |= 1 << v
        prefix.append(seen)
    out = []
    for swaps in swaps_list:
        a, b = swaps[0]
        x = win[a]
        y = win[b]
        if x < y:
            delta = 1 + 2 * ((prefix[b] ^ prefix[a]) & ((1 << y) - (2 << x))).bit_count()
        else:
            delta = -1 - 2 * ((prefix[b] ^ prefix[a]) & ((1 << x) - (2 << y))).bit_count()
        if a <= n < b:
            delta += (y > n) - (x > n)
        if len(swaps) == 2:
            c, d = swaps[1]
            u = win[c]
            v = win[d]
            between = prefix[d] ^ prefix[c]
            if (c < a < d) != (c < b < d):
                between ^= (1 << x) | (1 << y)
            if u < v:
                delta += 1 + 2 * (between & ((1 << v) - (2 << u))).bit_count()
            else:
                delta -= 1 + 2 * (between & ((1 << u) - (2 << v))).bit_count()
            if c <= n < d:
                delta += (v > n) - (u > n)
        out.append(delta // 2)
    return out


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
