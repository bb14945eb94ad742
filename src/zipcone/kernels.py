"""Window kernels: the hot inner loops on raw windows.

A window is the image tuple (w(1), ..., w(2n)) of a permutation of
{1, ..., 2n}, stored with 1-based values.  The kernels take and return
plain tuples and trust their input; `weylroot.WeylElem` validates windows
where they enter.  This is the only backend; `BACKEND` names it for the
JSON of `weyl --json` and for benchmark records.

The brute-force neighbor oracle needs l(w*s) - l(w) for every positive
root: `length_changes` gives all n^2 of them in O(n^2) per mirror window
from one pass of prefix value masks, evaluating one swap per root, while
`length_change` counts one in O(n) and serves single steps and as the
reference for the batch kernel.
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


def length_changes(w):
    """[length_change(w, s) for s in reflection_swaps(n).values()] on a
    mirror window w, in the order of `weylroot.positive_roots`; O(n) once
    plus O(1) word operations per root, so O(n^2) over all n^2 roots.

    Only the first swap (a, b) of each root is evaluated.  Write N = 2n + 1,
    x = w(a), y = w(b), s = +1 if x < y else -1, c for the number of
    positions strictly between a and b whose values lie strictly between x
    and y, and h = (y > n) - (x > n).  As in `length_change`, the swap
    changes the inversion count by s(1 + 2c) and, when a <= n < b, the
    count #{i <= n : w(i) > n} by h.  The second swap of a two-swap root is
    the mirror (N - b, N - a) of the first; on w itself its values N - y and
    N - x give the same s, c and h.

    e_i - e_j: swaps (i, j) and its mirror, neither across n.  The mirror
    sees positions the first swap left alone, so each changes inv by
    s(1 + 2c) and the length changes by s(1 + 2c).

    e_i + e_j: swaps (i, b), b = N - j, then its mirror (j, N - i), with
    values u = w(j) and v = N - x.  Position b lies strictly between j and
    N - i and now holds x in place of y, so the mirror's c grows by
    [x strictly between u and v] - [y strictly between u and v], and the
    length changes by s(1 + 2c) + h + s([x between] - [y between]).  If x
    and y lie on one side of n, u and v lie on the other: h and both
    brackets are 0.  Otherwise h = s, and the last two terms add up to
    2s[v strictly between x and y].  Since v sits at N - i, beyond b, the
    change is s(1 + 2c') with c' counting v along with the values strictly
    between x and y at positions i+1..b.  Doubling the first swap is wrong:
    on the identity window at n = 2, e1+e2 changes the length by 3, while
    s(1 + 2c) + h is 4.

    2e_i: the single swap (i, N - i) across n, so the length changes by
    (s(1 + 2c) + h) / 2.  Positions k and N - k hold w(k) and N - w(k),
    strictly between x and N - x together, so c = 2c' with c' counted over
    positions i+1..n, and h = s.  The change is s(1 + 2c').

    Each c' is read off prefix value masks: P[k] has bit v set for each
    value v = w(k'), k' <= k, so P[k] ^ P[i] holds the values at positions
    i+1..k, and (1 << hi) - (2 << lo) keeps those strictly between lo and
    hi, which drops w(k) itself.
    """
    n = len(w) // 2
    top = 2 * n + 1
    win = (0, *w)  # 1-based: win[k] = w(k)
    prefix = [0]
    seen = 0
    for v in w:
        seen |= 1 << v
        prefix.append(seen)
    half = prefix[n]
    # one row per i: (i, x = w(i), P[i], then the two bounds on x's side of
    # the masks); the signed count is written out three times, since a
    # helper called per row was measurably slower at n = 16
    rows = [(i, x, prefix[i], 1 << x, 2 << x) for i, x in enumerate(w[:n], 1)]
    diffs = [
        1 + 2 * ((p ^ left) & ((1 << y) - above)).bit_count() if x < y
        else -1 - 2 * ((p ^ left) & (below - (2 << y))).bit_count()
        for i, x, left, below, above in rows
        for y, p in zip(win[i + 1:n + 1], prefix[i + 1:n + 1])
    ]
    sums = [  # v = N - x joins the counted values
        1 + 2 * ((p ^ mirrored) & ((1 << y) - above)).bit_count() if x < y
        else -1 - 2 * ((p ^ mirrored) & (below - (2 << y))).bit_count()
        for i, x, left, below, above in rows
        for mirrored in [left | 1 << (top - x)]
        for y, p in zip(win[top - i - 1:n:-1], prefix[top - i - 1:n:-1])
    ]
    longs = [
        1 + 2 * ((half ^ left) & ((1 << v) - above)).bit_count() if x < v
        else -1 - 2 * ((half ^ left) & (below - (2 << v))).bit_count()
        for i, x, left, below, above in rows
        for v in [top - x]
    ]
    return diffs + sums + longs


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
    position whose value lies strictly between w(j) and w(i).

    The scan from i stops once it has recorded the value w(i) - 1: no later
    value lies strictly between it and w(i)."""
    m = len(w)
    out = []
    for i in range(m - 1):
        wi = w[i]
        best = 0  # largest value < w(i) seen so far between the endpoints
        for j in range(i + 1, m):
            wj = w[j]
            if best < wj < wi:
                out.append((i + 1, j + 1))
                if wj == wi - 1:
                    break
                best = wj
    return tuple(out)
