"""Window kernels: the hot inner loops on raw windows.

A window is the image tuple (w(1), ..., w(2n)) of a permutation of
{1, ..., 2n}, stored with 1-based values.  The kernels take and return
plain tuples and trust their input; `weylroot.WeylElem` validates windows
where they enter.  This is the only backend; `BACKEND` names it for the
JSON of `weyl --json` and for benchmark records.

The brute-force neighbor oracle needs the positive roots whose
reflection lowers the length by one: `length_drops` tests all n^2 of them
in O(n^2) per mirror window from one pass of prefix value masks,
evaluating one swap per root, while `length_change` counts one change in
O(n) and serves single steps and as the reference for the batch kernel.
`admissible_mask` gives the same set the other way, by the classed
admissible pairs of the first half of the window.
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


def length_drops(w):
    """The root bitmask of {alpha : l(w*s_alpha) - l(w) = -1} on a mirror
    window w: bit k stands for `weylroot.positive_roots(n)[k]`.  O(n) once
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

    Every change is thus s(1 + 2c'), with c' = c for e_i - e_j, and
    s(1 + 2c') is -1 exactly when s = -1 and c' = 0: the value at b lies
    below x, and no counted value lies strictly between them.  Each c' = 0
    is read off prefix value masks: P[k] has bit v set for each value
    v = w(k'), k' <= k, so P[k] ^ P[i] holds the values at positions
    i+1..k, and (1 << x) - (2 << y) keeps those strictly between y and x,
    which drops w(k) itself.  The sign is tested first, so the masks are
    read only for the roots that can drop.
    """
    n = len(w) // 2
    top = 2 * n + 1
    prefix = [0]  # prefix[k] = P[k], over the 1-based positions 1..k
    seen = 0
    for v in w:
        seen |= 1 << v
        prefix.append(seen)
    half = prefix[n]
    mask = 0
    k = 0  # the index of the current root in `positive_roots` order
    for a in range(n):  # e_i - e_j, i = a + 1: b = j runs over i+1..n
        x = w[a]
        left = prefix[a + 1]
        below = 1 << x
        for b in range(a + 1, n):
            y = w[b]
            if y < x and not (prefix[b + 1] ^ left) & (below - (2 << y)):
                mask |= 1 << k
            k += 1
    for a in range(n):  # e_i + e_j: b = N - j runs down from N - i - 1 to n + 1
        x = w[a]
        mirrored = prefix[a + 1] | 1 << (top - x)  # v = N - x joins the counted values
        below = 1 << x
        for b in range(top - a - 3, n - 1, -1):
            y = w[b]
            if y < x and not (prefix[b + 1] ^ mirrored) & (below - (2 << y)):
                mask |= 1 << k
            k += 1
    for a in range(n):  # 2e_i: the value at N - i is N - x, below x when x > n
        x = w[a]
        if x > n and not (half ^ prefix[a + 1]) & ((1 << x) - (2 << (top - x))):
            mask |= 1 << k
        k += 1
    return mask


def bruhat_leq(w1, w2):
    """Sorted-prefix (tableau) criterion on mirror windows: for every
    i <= n, the sorted values w1(1..i) lie entrywise at or below the sorted
    values w2(1..i) (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    Thm 2.6.3; the order on mirror windows is the one induced from all
    permutations, Cor 8.1.9).  For each i this is the rank-matrix
    inequality r_{w1}(i,j) >= r_{w2}(i,j) for all j.

    The rows i >= n repeat the rows i <= n.  On a mirror window
    w(2n+1-k) = 2n+1-w(k), so the positions k > 2n-i are the mirrors
    k' = 2n+1-k <= i, and w(k) <= 2n-j holds exactly when w(k') > j:

        r_w(2n-i, 2n-j) = (2n-j) - #{k' <= i : w(k') > j}
                        = 2n - i - j + r_w(i, j).

    The shift 2n - i - j is the same for w1 and w2, so row 2n-i of the
    rank-matrix inequality is row i, and only the prefixes 1..n are
    compared.

    A row is compared only where w1(i) > w2(i).  The k-th smallest entry
    of a list does not decrease when one entry grows.  So if the sorted
    prefixes of row i-1 lie entrywise in order, they stay so with w1(i)
    inserted into both, and raising the copy in the second to
    w2(i) >= w1(i) keeps them so."""
    a = []
    b = []
    for i in range(len(w1) // 2):
        x = w1[i]
        y = w2[i]
        insort(a, x)
        insort(b, y)
        if x > y and not all(map(le, a, b)):
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


def admissible_mask(w, rows):
    """The root bitmask of the classed admissible pairs (i, j), i <= n, of a
    mirror window: the scan of `admissible_pairs` over the first-half rows,
    each pair's root index read off the per-rank table `rows`.  Row i-1 of
    the table is (low, high): entry j-1 of low is the root index of the
    pair (i, j) when w(i) <= n, and of high when w(i) > n, or -1 where
    the pair is in no class.  Rows i > n are skipped: no pair there has a
    class."""
    n = len(rows)
    m = len(w)
    mask = 0
    for i, (low, high) in enumerate(rows):
        wi = w[i]
        roots = low if wi <= n else high
        best = 0
        for j in range(i + 1, m):
            wj = w[j]
            if best < wj < wi:
                k = roots[j]
                if k >= 0:
                    mask |= 1 << k
                if wj == wi - 1:
                    break
                best = wj
    return mask
