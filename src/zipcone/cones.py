"""Exact rational polyhedral cones in character space and Farkas certificates.

Cones live in dimension n+1 (the a-coordinates plus the b-coordinate) and
are stored as integer inequality rows f with the convention f(x) <= 0.
Fractional inequalities (the 1/p ones) are cleared to integers by
multiplying through by p, so every certificate is bit-exact.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm
from operator import ge

from . import linalg
from .bruhat import classed_pairs, neighbor_roots
from .weylroot import (
    AnyCharacter,
    Character,
    RatCharacter,
    Record,
    Root,
    WeylElem,
    levi_simple_roots,
    long_orbit,
    non_levi_positive_roots,
    pairing,
    sum_orbit,
)

IntRow = tuple[int, ...]


def _as_vector(x) -> tuple:
    if isinstance(x, (Character, RatCharacter)):
        return x.vector()
    return tuple(x)


def support(vec: Sequence) -> list[tuple[int, int]]:
    """The nonzero entries of a vector, as (index, entry) pairs."""
    return [(k, x) for k, x in enumerate(vec) if x]


def sparse_value(row: Sequence, entries: list[tuple[int, int]]):
    """row . v for the vector v whose nonzero entries are `entries`: the cone
    generators have one or two, so this is O(1) where a dense dot is O(n)."""
    value = 0
    for k, x in entries:
        value += row[k] * x
    return value


def coroot_functional(alpha: Root, n: int, scale: int = 1) -> IntRow:
    """The pairing functional of alpha, scaled, as a row on (a_1..a_n, b)."""
    return tuple(scale * c for c in alpha.coroot_row(n)) + (0,)


class Cone(Record):
    """A polyhedral cone {x : f(x) <= 0 for all rows f}, with optional generators.

    When generators are present the constructor checks that every generator
    satisfies every inequality; the reverse containment is a separate,
    cone-specific certificate.
    """

    dim: int
    hform: tuple[IntRow, ...]
    vform: tuple[IntRow, ...] | None
    label: str

    def __init__(
        self, dim: int, hform: tuple[IntRow, ...], vform: tuple[IntRow, ...] | None = None,
        label: str = "",
    ):
        vars(self).update(dim=dim, hform=hform, vform=vform, label=label)
        self.__post_init__()

    def __post_init__(self):
        for row in self.hform:
            if len(row) != self.dim:
                raise ValueError(f"functional {row} has wrong dimension")
        if self.vform is not None:
            for g in self.vform:
                if len(g) != self.dim:
                    raise ValueError(f"generator {g} has wrong dimension")
                entries = support(g)
                bad = [row for row in self.hform if sparse_value(row, entries) > 0]
                if bad:
                    raise ValueError(f"generator {g} violates {bad[0]}")

    def member(self, x) -> bool:
        """Rational membership.  The inequalities are homogeneous, so this is
        also membership in the saturation; the parity constraint plays no
        part."""
        v = _as_vector(x)
        if len(v) != self.dim:
            raise ValueError(f"vector {v} has wrong dimension for {self.label}")
        return all(linalg.dot(row, v) <= 0 for row in self.hform)


# ---------------------------------------------------------------------------
# named cones


def cone_GS(n: int) -> Cone:
    """Characters dominant for the Levi and nonpositive on every coroot outside
    it.  Generators: the negated prefix sums -(e_k + ... + e_n) plus the free
    b-line."""
    rows = [coroot_functional(alpha, n, scale=-1) for alpha in levi_simple_roots(n)]
    rows += [coroot_functional(alpha, n) for alpha in non_levi_positive_roots(n)]
    gens = []
    for k in range(1, n + 1):
        gens.append(tuple(-1 if i >= k else 0 for i in range(1, n + 1)) + (0,))
    gens.append((0,) * n + (1,))
    gens.append((0,) * n + (-1,))
    return Cone(n + 1, tuple(rows), tuple(gens), label="gs")


def gs_member(lam: AnyCharacter) -> bool:
    """Membership in cone_GS(n), in O(n): a_1 >= ... >= a_n and a_1 <= 0.

    Lemma: the rows of cone_GS are the Levi rows a_i >= a_{i+1} and the
    coroot rows of the roots outside the Levi, a_i + a_j <= 0 (i < j) and
    a_i <= 0.  Under the Levi rows a_1 is the largest entry, so a_1 <= 0
    gives a_i <= 0 for every i, and then a_i + a_j <= 0; a_1 <= 0 itself is
    the row of 2e_1.  b is free."""
    a = lam.a
    return a[0] <= 0 and all(map(ge, a, a[1:]))


def prefix_functional(n: int, p: int, j: int) -> IntRow:
    """p * (a_1 + ... + a_j) + (a_{j+1} + ... + a_n) <= 0, cleared to integers."""
    return tuple(p if i <= j else 1 for i in range(1, n + 1)) + (0,)


def dominance_functionals(n: int) -> list[IntRow]:
    """a_{i+1} - a_i <= 0 for i < n."""
    rows = []
    for i in range(1, n):
        row = [0] * (n + 1)
        row[i - 1] = -1
        row[i] = 1
        rows.append(tuple(row))
    return rows


def lmin_prefix_cone(n: int, p: int) -> Cone:
    """The dominance slice of the orbit-inequality cone, cut out by the n
    prefix functionals together with the dominance functionals."""
    _check_p(p)
    rows = [prefix_functional(n, p, j) for j in range(1, n + 1)]
    rows += dominance_functionals(n)
    return Cone(n + 1, tuple(rows), label="lmin-i")


def lmin_prefix_member(lam: AnyCharacter, p: int) -> bool:
    """Membership in lmin_prefix_cone(n, p), in O(n): its rows read at lam.

    Prefix row j reads p * S_j + (T - S_j), with S_j = a_1 + ... + a_j and
    T = S_n, so one running sum gives all n of them; the other rows are
    dominance, a_1 >= ... >= a_n."""
    _check_p(p)
    a = lam.a
    total = sum(a)
    partial = 0
    for x in a:
        partial += x
        if p * partial + total - partial > 0:
            return False
    return all(map(ge, a, a[1:]))


def orbit_subset_functional(orbit: Sequence[Root], subset: Iterable[Root], n: int, p: int) -> IntRow:
    """Coefficient p on roots outside the subset, 1 on roots inside (the 1/p
    inequality multiplied through by p)."""
    inside = set(subset)
    row = [0] * n
    for alpha in orbit:
        scale = 1 if alpha in inside else p
        for k, c in alpha.coroot:
            row[k] += scale * c
    return tuple(row) + (0,)


def orbit_worst_rows(a: Sequence[int], p: int) -> list[IntRow]:
    """The worst-subset functionals of the long orbit and, from rank 2, of
    the sum orbit at a character with entries a, read off the entries.

    Each root of an orbit takes coefficient 1 when it pairs negatively with
    a and p otherwise, as orbit_subset_functional does root by root for
    the subset of roots pairing negatively.  The long root 2e_k pairs to
    a_k and has coroot e_k, so the long row's coefficient on a_k is 1 if
    a_k < 0 else p; dotted with a it is the long-orbit sum that lmin_member
    tests.  The sum root e_k + e_j pairs to a_k + a_j and has coroot
    e_k + e_j, so the sum row's coefficient on a_k is the sum over j != k of
    (1 if a_k + a_j < 0 else p), that is c_k + p * (n - 1 - c_k) with
    c_k = #{j != k : a_j < -a_k}.  Bisecting the sorted entries at -a_k
    counts #{j : a_j < -a_k}, which includes j = k exactly when a_k < -a_k,
    that is a_k < 0; so c_k is that count minus 1 when a_k < 0, and the
    whole row takes O(n log n).
    """
    rows = [tuple(1 if x < 0 else p for x in a) + (0,)]
    n = len(a)
    if n > 1:
        ordered = sorted(a)
        counts = [bisect_left(ordered, -x) - (x < 0) for x in a]
        rows.append(tuple(c + p * (n - 1 - c) for c in counts) + (0,))
    return rows


def lmin_member(lam: AnyCharacter, p: int) -> bool:
    """Membership in the full orbit-inequality cone, which is the long-orbit
    cone: the sum orbit's inequalities are implied by the long orbit's.

    Worst subset: each root contributes with coefficient 1 or 1/p
    independently, and the larger contribution is 1 on positives and 1/p on
    negatives.  So, cleared by p, an orbit's worst value is the sum of f(t)
    over its pairings t, with f(t) = max(t, p * t): t for t < 0 and p * t
    otherwise.  The long orbit pairs to a_i, the sum orbit to a_i + a_j
    (i < j).

    Orbit lemma: f is convex and positively homogeneous, hence subadditive,
    so  sum_{i<j} f(a_i + a_j) <= sum_{i<j} (f(a_i) + f(a_j))
    = (n - 1) * sum_i f(a_i).  A character whose long-orbit worst value is
    <= 0 therefore passes the sum orbit too, and only the long orbit is read.
    lmin_member_enumerated is the 2^|orbit| oracle over both orbits,
    independent of the lemma.
    """
    _check_p(p)
    return sum(t if t < 0 else p * t for t in lam.a) <= 0


# subset enumeration visits 2^(n(n-1)/2) sum-orbit subsets: 0.03 s per
# member character at n = 5, 1.3 s at n = 6 and over a minute at n = 7
MAX_ENUMERATED_RANK = 5


def lmin_member_enumerated(lam: AnyCharacter, p: int) -> bool:
    """Oracle: test every subset of both orbits (exponential; n <= 5 only)."""
    _check_p(p)
    n = lam.n
    if n > MAX_ENUMERATED_RANK:
        raise ValueError(
            f"subset enumeration is limited to rank {MAX_ENUMERATED_RANK}, got {n}"
        )
    v = _as_vector(lam)
    for orbit in (long_orbit(n), sum_orbit(n)):
        for mask in range(2 ** len(orbit)):
            subset = [alpha for k, alpha in enumerate(orbit) if mask & (1 << k)]
            if linalg.dot(orbit_subset_functional(orbit, subset, n, p), v) > 0:
                return False
    return True


def coroot_form_multipliers(alpha: Root, n: int) -> tuple[int, ...]:
    """Multipliers writing the coroot functional of a root outside the Levi
    over the rows {a_i <= 0} of pha_wmax_cone: the coroot coefficients
    themselves (row i plus row j for e_i+e_j, row i for 2e_i)."""
    mults = [0] * n
    for k, c in alpha.coroot:
        mults[k] = c
    return tuple(mults)


def coordinate_form_multipliers(i: int, roots: Sequence[Root]) -> tuple[int, ...]:
    """Multipliers writing a_i <= 0 over the coroot rows of `roots`: the
    coroot row of 2e_i (the root whose coroot is e_i) with multiplier 1,
    every other multiplier 0."""
    e_i = ((i - 1, 1),)
    return tuple(1 if alpha.coroot == e_i else 0 for alpha in roots)


def prefix_multipliers(n: int, p: int, j: int) -> tuple[int, ...]:
    """Multipliers writing prefix_functional(n, p, j) over the rows
    {a_i <= 0} of pha_wmax_cone: p on rows <= j and 1 on rows > j.  The rows
    are linearly independent, so these are the only multipliers."""
    return tuple(p if i <= j else 1 for i in range(1, n + 1))


def pha_wmax_cone(n: int) -> Cone:
    """{a_i <= 0 for all i}: the weight cone of the top stratum.  Generators
    are the negated basis characters plus the free b-line.

    The equivalence with the description by coroots outside the Levi is
    certified in both directions by Farkas certificates whose multipliers
    are closed form (coroot_form_multipliers, coordinate_form_multipliers)
    and checked exactly on construction; no Fourier-Motzkin search runs."""
    rows = []
    for i in range(1, n + 1):
        row = [0] * (n + 1)
        row[i - 1] = 1
        rows.append(tuple(row))
    gens = []
    for i in range(1, n + 1):
        g = [0] * (n + 1)
        g[i - 1] = -1
        gens.append(tuple(g))
    gens.append((0,) * n + (1,))
    gens.append((0,) * n + (-1,))
    cone = Cone(n + 1, tuple(rows), tuple(gens), label="pha-wmax")
    roots = non_levi_positive_roots(n)
    alt = tuple(coroot_functional(alpha, n) for alpha in roots)
    for alpha, row in zip(roots, alt):
        FarkasCertificate(row, cone.hform, multipliers=coroot_form_multipliers(alpha, n))
    for i, row in enumerate(rows, start=1):
        FarkasCertificate(row, alt, multipliers=coordinate_form_multipliers(i, roots))
    return cone


def pha_wmax_member(lam: AnyCharacter) -> bool:
    """Membership in pha_wmax_cone(n), in O(n): its rows are a_i <= 0."""
    return max(lam.a) <= 0


def n3_exact_cone(p: int) -> Cone:
    """The known complete rank-3 cone: two p-weighted functionals inside the
    dominance region."""
    _check_p(p)
    rows = [
        (p * p, 1, p, 0),
        (p, p * p, 1, 0),
    ]
    rows += dominance_functionals(3)
    return Cone(4, tuple(rows), label="n3-exact")


def _check_p(p: int) -> None:
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")


# ---------------------------------------------------------------------------
# Farkas certificates


class FarkasCertificate(Record):
    """Either nonnegative multipliers writing the target as a combination of
    the system rows (implication over the cone), or a rational witness in
    the cone violating the target.  Self-verifying on construction; both
    are checked exactly in integer arithmetic."""

    target: IntRow
    system: tuple[IntRow, ...]
    multipliers: tuple[int | Fraction, ...] | None
    witness: tuple[Fraction, ...] | None

    def __init__(
        self, target: IntRow, system: tuple[IntRow, ...],
        multipliers: tuple[int | Fraction, ...] | None = None,
        witness: tuple[Fraction, ...] | None = None,
    ):
        vars(self).update(
            target=target, system=system, multipliers=multipliers, witness=witness
        )
        self.__post_init__()

    def __post_init__(self):
        if (self.multipliers is None) == (self.witness is None):
            raise ValueError("exactly one of multipliers/witness required")
        if self.multipliers is not None:
            if len(self.multipliers) != len(self.system):
                raise ValueError("one multiplier per system row required")
            if any(m < 0 for m in self.multipliers):
                raise AssertionError("multipliers must be nonnegative")
            scale, acc = self._scaled_residual()
            if any(acc):
                raise AssertionError(f"nonzero residual {tuple(Fraction(a, scale) for a in acc)}")
        else:
            # L * witness is integral for L the lcm of its denominators, and
            # L > 0 keeps the sign of every value, so integers decide both
            witness = linalg._cleared(self.witness)
            for row in self.system:
                if linalg.dot(row, witness) > 0:
                    raise AssertionError("witness violates the system")
            if linalg.dot(self.target, witness) <= 0:
                raise AssertionError("witness does not violate the target")

    def _scaled_residual(self) -> tuple[int, list]:
        """(L, L * residual), with L the lcm of the multiplier denominators:
        integer arithmetic only, and zero multipliers are skipped."""
        nonzero = [(m, row) for m, row in zip(self.multipliers, self.system) if m]
        scale = lcm(*(m.denominator for m, _ in nonzero))
        acc = [scale * t for t in self.target]
        for m, row in nonzero:
            c = m.numerator * (scale // m.denominator)
            for k, x in enumerate(row):
                if x:
                    acc[k] -= c * x
        return scale, acc

    @property
    def implied(self) -> bool:
        return self.multipliers is not None

    def to_json_dict(self) -> dict:
        out = {
            "target": list(self.target),
            "system": [list(r) for r in self.system],
            "implied": self.implied,
        }
        if self.multipliers is not None:
            out["multipliers"] = [frac_str(m) for m in self.multipliers]
        else:
            out["witness"] = [frac_str(x) for x in self.witness]
        return out


def frac_str(x) -> str:
    # ints and Fractions already carry their lowest terms
    f = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def farkas_implies(target: Sequence[int], system) -> FarkasCertificate:
    """Certify whether target(x) <= 0 holds on the system's cone."""
    rows = system.hform if isinstance(system, Cone) else tuple(tuple(r) for r in system)
    kind, payload = linalg.farkas_split(rows, tuple(target))
    if kind == "multipliers":
        return FarkasCertificate(tuple(target), rows, multipliers=tuple(payload))
    return FarkasCertificate(tuple(target), rows, witness=tuple(payload))


# ---------------------------------------------------------------------------
# stratum weight cones through the Hasse maps


class PhaMembership(Record):
    """Saturated membership result for a stratum weight cone, with the exact
    preimage character and its lattice flags."""

    member: bool
    chi: RatCharacter
    chi_integral: bool
    chi_parity_ok: bool

    def __init__(
        self, member: bool, chi: RatCharacter, chi_integral: bool, chi_parity_ok: bool
    ):
        vars(self).update(
            member=member, chi=chi, chi_integral=chi_integral, chi_parity_ok=chi_parity_ok
        )


def weight_preimage(lam: AnyCharacter, w: WeylElem, p: int) -> RatCharacter:
    """The exact chi with -w(chi) + p*wmax(chi) = lam, solved along the
    cycles of a signed permutation, with no matrix.

    w sends e_i to eps_i e_{s(i)}: s(i) = w(i) and eps_i = 1 when
    w(i) <= n, s(i) = 2n+1-w(i) and eps_i = -1 otherwise.  wmax sends e_k
    to -e_{n+1-k}, since wmax(k) = n + k.  Entry n+1-k of the map's value
    is then -p chi_k - eps_i chi_i, with i = sigma(k) the index that s
    sends to n+1-k, so

        chi_k = (c_k + t_k chi_{sigma(k)}) / p,   c_k = -lam_{n+1-k},
                                                  t_k = -eps_{sigma(k)}.

    sigma permutes 1..n.  On a cycle k_0 -> k_1 = sigma(k_0) -> ... ->
    k_L = k_0, substituting the equation L times gives

        (p^L - T) chi_{k_0} = sum_j (t_{k_0} ... t_{k_{j-1}}) c_{k_j} p^(L-1-j),

    with T = t_{k_0} ... t_{k_{L-1}} = +-1.  Since p >= 2, p^L - T >=
    2^L - 1 > 0: each cycle has exactly one solution, so the map is
    invertible for every w and p.  The same sum, started at any k_j, shows
    that N_j = q (p^L - T) chi_{k_j} is an integer, q being the lcm of
    lam's denominators; so after N_0 the entries go round the cycle
    backwards by N_j = (q c_{k_j} (p^L - T) + t_{k_j} N_{j+1}) / p, each an
    exact division.  Both elements fix b, so (p - 1) chi_b = lam_b.
    The dense reference solves the matrix `hasse.hasse_map(w, p)` with
    `linalg.solve_square`.
    """
    n = w.n
    if lam.n != n:
        raise ValueError(f"rank mismatch: {lam.n} vs {n}")
    _check_p(p)
    # 0-based: sigma[k] and t[k], with k the 0-based index of n+1-s(i)
    sigma = [0] * n
    t = [0] * n
    for i, v in enumerate(w.window[:n]):
        k, t_k = (n - v, -1) if v <= n else (v - n - 1, 1)
        sigma[k] = i
        t[k] = t_k
    a = lam.a
    q = lcm(*[x.denominator for x in a])
    c = [-x.numerator * (q // x.denominator) for x in reversed(a)]  # q c_k
    chi: list = [None] * n
    for start in range(n):
        if chi[start] is not None:
            continue
        cycle = [start]
        k = sigma[start]
        while k != start:
            cycle.append(k)
            k = sigma[k]
        num = 0
        sign = 1
        for k in cycle:
            num = num * p + sign * c[k]
            sign *= t[k]
        den = p ** len(cycle) - sign
        scale = q * den
        chi[start] = Fraction(num, scale)
        for k in reversed(cycle[1:]):
            num = (c[k] * den + t[k] * num) // p
            chi[k] = Fraction(num, scale)
    return RatCharacter(tuple(chi), Fraction(lam.b) / (p - 1))


def pha_w_member(lam: AnyCharacter, w: WeylElem, p: int) -> PhaMembership:
    """Invert the weight map exactly and test dominance against E_w.

    The saturated cone is h_w(X^*_{+,w}); membership of lam amounts to the
    preimage chi = h_w^{-1}(lam) pairing nonnegatively with every root of
    E_w.  Lattice-exact membership additionally needs chi integral with the
    parity constraint; both facts are reported, not conflated.  The
    preimage comes from `weight_preimage` and E_w from the element's own
    classed pairs, so no per-rank table is built.
    """
    chi = weight_preimage(lam, w, p)
    ok = all(pairing(chi, alpha) >= 0 for alpha in neighbor_roots(classed_pairs(w)))
    integral = chi.is_integral()
    parity = integral and chi.to_integral().satisfies_parity
    return PhaMembership(ok, chi, integral, parity)
