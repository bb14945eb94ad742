"""Small exact linear algebra, plus a Fourier-Motzkin oracle.

Everything here is exact and runs on integers; Fraction appears only in the
answers.  The dimensions in this package are tiny (at most rank + 1).
Rational rows are cleared of denominators on entry, and `rank`, `det` and
`solve_square` share one fraction-free (Bareiss) forward elimination.
`farkas_split` is provenance-tracked Fourier-Motzkin elimination on integer
rows, each derived row divided by the gcd of its entries: a search, used
only for implications whose multipliers are not known in closed form, such
as the targets of the `farkas` verb.  The envelope certificate and the
equivalence proof in `cones.pha_wmax_cone` carry closed-form multipliers,
checked exactly by `cones.FarkasCertificate`, and never call it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]

_MAX_FM_ROWS = 200_000


class FourierMotzkinBlowup(RuntimeError):
    """Fourier-Motzkin elimination produced more rows than `_MAX_FM_ROWS`."""

    def __init__(self, var: int, dim: int, rows: int, limit: int):
        super().__init__(
            f"Fourier-Motzkin blow-up eliminating variable {var + 1} of {dim}: "
            f"{rows} rows exceed the limit of {limit}"
        )


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


def _cleared(row: Sequence) -> tuple[list[int], int]:
    """The row scaled by the lcm of its denominators, and that lcm."""
    if all(isinstance(x, int) for x in row):
        return list(row), 1
    fr = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in fr))
    return [x.numerator * (scale // x.denominator) for x in fr], scale


def _bareiss(mat: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free forward elimination of integer rows, in place, over the
    first `ncols` columns: (pivot columns, sign of the row swaps, last pivot).

    After a pivot step every entry below the pivot row is a minor of the
    input, so the division by the previous pivot is exact; on a nonsingular
    square matrix the last pivot is the determinant up to the swap sign.
    """
    m = len(mat)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((k for k in range(r, m) if mat[k][col]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        top = mat[r]
        pv = top[col]
        for k in range(r + 1, m):
            a = mat[k][col]
            mat[k] = [(pv * x - a * y) // prev for x, y in zip(mat[k], top)]
        prev = pv
        pivots.append(col)
    return pivots, sign, prev


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a rational matrix."""
    mat = [_cleared(row)[0] for row in rows]
    return len(_bareiss(mat, len(mat[0]))[0]) if mat else 0


def solve_square(a: Sequence[Sequence], b: Sequence) -> Optional[Vector]:
    """Solve a square rational system exactly; None when singular.

    Each augmented row is cleared of denominators.  By Cramer's rule d * x is
    integral, d the last pivot, so back-substitution stays in integers."""
    m = len(a)
    mat = [_cleared([*row, b[i]])[0] for i, row in enumerate(a)]
    pivots, _, d = _bareiss(mat, m)
    if len(pivots) < m:
        return None
    y = [0] * m
    for i in reversed(range(m)):
        row = mat[i]
        y[i] = (d * row[m] - sum(row[j] * y[j] for j in range(i + 1, m))) // row[i]
    return tuple(Fraction(v, d) for v in y)


def det(a: Sequence[Sequence]) -> Fraction:
    m = len(a)
    cleared = [_cleared(row) for row in a]
    pivots, sign, last = _bareiss([row for row, _ in cleared], m)
    if len(pivots) < m:
        return Fraction(0)
    return Fraction(sign * last, prod(scale for _, scale in cleared))


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by the least positive rational that makes it
    integral with coprime entries; the zero vector stays zero."""
    ints = _cleared(v)[0]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def _integer_entries(row: Sequence) -> tuple[int, ...]:
    if not all(isinstance(x, int) for x in row):
        raise ValueError(f"Fourier-Motzkin needs integer entries, got {tuple(row)}")
    return tuple(row)


def farkas_split(rows: Sequence[Sequence], target: Sequence):
    """Decide whether target(x) <= 0 holds on the cone {x : r(x) <= 0 for all r}.

    Returns ("multipliers", mu) with target == sum(mu_k * rows_k), all mu_k >= 0,
    or ("witness", x) with rows(x) <= 0 componentwise and target(x) >= 1.
    Fourier-Motzkin elimination with provenance tracking on integer rows;
    a non-integer entry raises ValueError.  Raises FourierMotzkinBlowup when
    an elimination step exceeds `_MAX_FM_ROWS` rows.
    """
    dim = len(target)
    m = len(rows)

    def unit(k):
        return tuple(int(i == k) for i in range(m + 1))

    # (dedup key, (coefficients, bound, provenance)); a row says
    # coefficients . x <= bound, and provenance holds its combination of the
    # input rows and the negated target.  Input rows are keyed as given,
    # derived rows by their primitive (coefficients, bound).
    system = []
    for k, r in enumerate(rows):
        if len(r) != dim:
            raise ValueError("row dimension mismatch")
        coeffs = _integer_entries(r)
        system.append(((coeffs, 0), (coeffs, 0, unit(k))))
    coeffs = tuple(-c for c in _integer_entries(target))
    system.append(((coeffs, -1), (coeffs, -1, unit(m))))

    def multipliers(prov):
        # an all-zero row with a negative bound is the infeasibility proof
        mu_t = prov[m]
        if mu_t <= 0:
            raise AssertionError("infeasibility must involve the target row")
        return tuple(Fraction(mu, mu_t) for mu in prov[:m])

    stages = []
    remaining = list(range(dim))
    while remaining:
        # cheapest variable first: fewest pos*neg combinations
        def cost(var):
            pos = sum(1 for _, (c, _, _) in system if c[var] > 0)
            neg = sum(1 for _, (c, _, _) in system if c[var] < 0)
            return pos * neg
        var = min(remaining, key=cost)
        remaining.remove(var)

        pos, neg, keep = [], [], []
        for entry in system:
            c = entry[1][0][var]
            (pos if c > 0 else neg if c < 0 else keep).append(entry)
        stages.append((var, [row for _, row in pos + neg]))

        new_rows = {}
        for key, (coeffs, rhs, prov) in keep:
            if not any(coeffs):
                if rhs < 0:
                    return "multipliers", multipliers(prov)
                continue
            new_rows.setdefault(key, (coeffs, rhs, prov))
        for _, (cp, rp, pp) in pos:
            a = cp[var]
            for _, (cn, rn, pn) in neg:
                b = -cn[var]
                coeffs = [b * x + a * y for x, y in zip(cp, cn)]
                rhs = b * rp + a * rn
                prov = [b * x + a * y for x, y in zip(pp, pn)]
                if not any(coeffs):
                    if rhs < 0:
                        return "multipliers", multipliers(prov)
                    continue
                g = gcd(*coeffs, rhs)
                key = (tuple(x // g for x in coeffs), rhs // g)
                if key not in new_rows:
                    g = gcd(g, *prov)
                    new_rows[key] = (
                        tuple(x // g for x in coeffs), rhs // g, tuple(x // g for x in prov)
                    )
            if len(new_rows) > _MAX_FM_ROWS:
                raise FourierMotzkinBlowup(var, dim, len(new_rows), _MAX_FM_ROWS)
        system = list(new_rows.items())

    for _, (_, rhs, prov) in system:
        if rhs < 0:
            return "multipliers", multipliers(prov)

    # feasible: back-substitute a witness in reverse elimination order; each
    # bound is a ratio of row entries, so it ignores the scale of its row
    x = [Fraction(0)] * dim
    for var, bucket in reversed(stages):
        lo = None
        hi = None
        for coeffs, rhs, _ in bucket:
            c = coeffs[var]
            bound = Fraction(rhs - sum(cj * xj for cj, xj in zip(coeffs, x) if cj), c)
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None:
            x[var] = (lo + hi) / 2
        elif lo is not None:
            x[var] = lo
        elif hi is not None:
            x[var] = hi
    return "witness", tuple(x)
