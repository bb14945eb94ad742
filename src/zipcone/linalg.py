"""Small exact linear algebra, plus a Fourier-Motzkin oracle.

Everything here is exact; no floating point.  The dimensions in this
package are tiny (at most rank + 1).  `rank` runs fraction-free Bareiss
elimination over integer rows; `solve_square` and `det` use plain Gaussian
elimination over Fraction.  `farkas_split` is provenance-tracked
Fourier-Motzkin elimination: a search, used only for implications whose
multipliers are not known in closed form, such as the targets of the
`farkas` verb.  The envelope certificate and the equivalence proof in
`cones.pha_wmax_cone` carry closed-form multipliers, checked exactly by
`cones.FarkasCertificate`, and never call it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _integer_row(row: Sequence) -> list[int]:
    """The row scaled by the lcm of its denominators: same span, integer entries."""
    if all(isinstance(x, int) for x in row):
        return list(row)
    fr = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in fr))
    return [x.numerator * (scale // x.denominator) for x in fr]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a rational matrix by fraction-free (Bareiss) elimination.

    Each row is cleared of denominators first.  After a pivot step every
    entry below the pivot row is a minor of the integer matrix, so the
    division by the previous pivot is exact.
    """
    mat = [_integer_row(row) for row in rows]
    if not mat:
        return 0
    m = len(mat)
    prev = 1
    r = 0
    for col in range(len(mat[0])):
        piv = next((k for k in range(r, m) if mat[k][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r]
        pv = top[col]
        for k in range(r + 1, m):
            a = mat[k][col]
            mat[k] = [(pv * x - a * y) // prev for x, y in zip(mat[k], top)]
        prev = pv
        r += 1
        if r == m:
            break
    return r


def solve_square(a: Sequence[Sequence], b: Sequence) -> Optional[Vector]:
    """Solve a square rational system exactly; None when singular."""
    m = len(a)
    mat = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for col in range(m):
        piv = next((k for k in range(col, m) if mat[k][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for k in range(m):
            if k != col and mat[k][col] != 0:
                f = mat[k][col]
                mat[k] = [x - f * y for x, y in zip(mat[k], mat[col])]
    return tuple(mat[i][m] for i in range(m))


def det(a: Sequence[Sequence]) -> Fraction:
    m = len(a)
    mat = [[Fraction(x) for x in row] for row in a]
    sign = 1
    result = Fraction(1)
    for col in range(m):
        piv = next((k for k in range(col, m) if mat[k][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            sign = -sign
        pv = mat[col][col]
        result *= pv
        for k in range(col + 1, m):
            if mat[k][col] != 0:
                f = mat[k][col] / pv
                mat[k] = [x - f * y for x, y in zip(mat[k], mat[col])]
    return sign * result


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by the least positive rational that makes it
    integral with coprime entries; the zero vector stays zero."""
    ints = _integer_row(v)
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def _normalized(coeffs, rhs, prov):
    nonzero = [x for x in coeffs if x != 0]
    if rhs != 0:
        nonzero.append(rhs)
    if not nonzero:
        return coeffs, rhs, prov
    scale = lcm(*(x.denominator for x in nonzero))
    g = 0
    for x in nonzero:
        g = gcd(g, abs(int(x * scale)))
    f = Fraction(scale, g)
    return tuple(x * f for x in coeffs), rhs * f, [x * f for x in prov]


def farkas_split(rows: Sequence[Sequence], target: Sequence):
    """Decide whether target(x) <= 0 holds on the cone {x : r(x) <= 0 for all r}.

    Returns ("multipliers", mu) with target == sum(mu_k * rows_k), all mu_k >= 0,
    or ("witness", x) with rows(x) <= 0 componentwise and target(x) >= 1.
    Fourier-Motzkin elimination with provenance tracking; exact throughout.
    Raises FourierMotzkinBlowup when an elimination step exceeds
    `_MAX_FM_ROWS` rows.
    """
    dim = len(target)
    m = len(rows)
    system = []
    for k, r in enumerate(rows):
        if len(r) != dim:
            raise ValueError("row dimension mismatch")
        prov = [Fraction(0)] * (m + 1)
        prov[k] = Fraction(1)
        system.append((tuple(Fraction(c) for c in r), Fraction(0), prov))
    prov = [Fraction(0)] * (m + 1)
    prov[m] = Fraction(1)
    system.append((tuple(-Fraction(c) for c in target), Fraction(-1), prov))

    def settle_constant(row):
        # all-zero coefficient row; a negative bound is the infeasibility proof
        coeffs, rhs, pv = row
        if rhs < 0:
            mu_t = pv[m]
            if mu_t <= 0:
                raise AssertionError("infeasibility must involve the target row")
            return tuple(pv[k] / mu_t for k in range(m))
        return None

    stages = []
    remaining = list(range(dim))
    while remaining:
        # cheapest variable first: fewest pos*neg combinations
        def cost(var):
            pos = sum(1 for c, _, _ in system if c[var] > 0)
            neg = sum(1 for c, _, _ in system if c[var] < 0)
            return pos * neg
        var = min(remaining, key=cost)
        remaining.remove(var)

        pos, neg, keep = [], [], []
        for row in system:
            c = row[0][var]
            if c > 0:
                pos.append(row)
            elif c < 0:
                neg.append(row)
            else:
                keep.append(row)
        stages.append((var, pos + neg))

        new_rows = {}
        for row in keep:
            coeffs, rhs, pv = row
            if all(c == 0 for c in coeffs):
                mult = settle_constant(row)
                if mult is not None:
                    return "multipliers", mult
                continue
            key = (coeffs, rhs)
            new_rows.setdefault(key, row)
        for cp, rp, pp in pos:
            a = cp[var]
            for cn, rn, pn in neg:
                b = -cn[var]
                coeffs = tuple(b * x + a * y for x, y in zip(cp, cn))
                rhs = b * rp + a * rn
                pv2 = [b * x + a * y for x, y in zip(pp, pn)]
                coeffs, rhs, pv2 = _normalized(coeffs, rhs, pv2)
                if all(c == 0 for c in coeffs):
                    mult = settle_constant((coeffs, rhs, pv2))
                    if mult is not None:
                        return "multipliers", mult
                    continue
                key = (coeffs, rhs)
                new_rows.setdefault(key, (coeffs, rhs, pv2))
            if len(new_rows) > _MAX_FM_ROWS:
                raise FourierMotzkinBlowup(var, dim, len(new_rows), _MAX_FM_ROWS)
        system = list(new_rows.values())

    for row in system:
        mult = settle_constant(row)
        if mult is not None:
            return "multipliers", mult

    # feasible: back-substitute a witness in reverse elimination order
    x = [Fraction(0)] * dim
    assigned = set()
    for var, bucket in reversed(stages):
        lo = None
        hi = None
        for coeffs, rhs, _ in bucket:
            c = coeffs[var]
            rest = rhs - sum(
                coeffs[j] * x[j] for j in range(dim) if j != var and coeffs[j] != 0
            )
            bound = rest / c
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
        assigned.add(var)
    return "witness", tuple(x)
