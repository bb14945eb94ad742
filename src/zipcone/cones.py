"""Exact rational polyhedral cones in character space and Farkas certificates.

Cones live in dimension n+1 (the a-coordinates plus the b-coordinate) and
are stored as integer inequality rows f with the convention f(x) <= 0.
Fractional inequalities (the 1/p ones) are cleared to integers by
multiplying through by p, so every certificate is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from . import linalg
from .weylroot import (
    AnyCharacter,
    Character,
    RatCharacter,
    Root,
    RootKind,
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


def coroot_functional(alpha: Root, n: int, scale: int = 1) -> IntRow:
    """The pairing functional of alpha, scaled, as a row on (a_1..a_n, b)."""
    return tuple(scale * c for c in alpha.coroot_row(n)) + (0,)


@dataclass(frozen=True)
class Cone:
    """A polyhedral cone {x : f(x) <= 0 for all rows f}, with optional generators.

    When generators are present the constructor checks that every generator
    satisfies every inequality; the reverse containment is a separate,
    cone-specific certificate.
    """

    dim: int
    hform: tuple[IntRow, ...]
    vform: Optional[tuple[IntRow, ...]] = None
    label: str = ""

    def __post_init__(self):
        for row in self.hform:
            if len(row) != self.dim:
                raise ValueError(f"functional {row} has wrong dimension")
        if self.vform is not None:
            for g in self.vform:
                if len(g) != self.dim:
                    raise ValueError(f"generator {g} has wrong dimension")
                bad = [row for row in self.hform if linalg.dot(row, g) > 0]
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


def orbit_subset_functional(orbit: Sequence[Root], subset: Iterable[Root], n: int, p: int) -> IntRow:
    """Coefficient p on roots outside the subset, 1 on roots inside (the 1/p
    inequality multiplied through by p)."""
    inside = set(subset)
    row = [0] * (n + 1)
    for alpha in orbit:
        scale = 1 if alpha in inside else p
        for k, c in enumerate(alpha.coroot_row(n)):
            row[k] += scale * c
    return tuple(row)


def worst_subset(orbit: Sequence[Root], lam, n: int) -> list[Root]:
    """The subset maximizing the mixed sum: exactly the roots pairing
    negatively with lam (coefficient 1 beats 1/p exactly on positives)."""
    return [alpha for alpha in orbit if pairing(lam, alpha) < 0]


def lmin_member(lam: AnyCharacter, p: int) -> bool:
    """Membership in the full orbit-inequality cone, via the worst-subset
    reduction: per orbit it suffices to test the subset of negative pairings.

    The reduction is one line: each root contributes with coefficient 1 or
    1/p independently, and the larger contribution is 1 on positives and
    1/p on negatives.  lmin_member_enumerated is the 2^|orbit| oracle.
    """
    _check_p(p)
    n = lam.n
    v = _as_vector(lam)
    for orbit in (long_orbit(n), sum_orbit(n)):
        row = orbit_subset_functional(orbit, worst_subset(orbit, lam, n), n, p)
        if linalg.dot(row, v) > 0:
            return False
    return True


def lmin_member_enumerated(lam: AnyCharacter, p: int) -> bool:
    """Oracle: test every subset of both orbits (exponential; small n only)."""
    _check_p(p)
    n = lam.n
    v = _as_vector(lam)
    for orbit in (long_orbit(n), sum_orbit(n)):
        for mask in range(2 ** len(orbit)):
            subset = [alpha for k, alpha in enumerate(orbit) if mask & (1 << k)]
            if linalg.dot(orbit_subset_functional(orbit, subset, n, p), v) > 0:
                return False
    return True


_ZERO = Fraction(0)
_ONE = Fraction(1)


def coroot_form_multipliers(alpha: Root, n: int) -> tuple[Fraction, ...]:
    """Multipliers writing the coroot functional of a root outside the Levi
    over the rows {a_i <= 0} of pha_wmax_cone: the coroot row of e_i+e_j is
    row i plus row j, and the coroot row of 2e_i is row i."""
    mults = [_ZERO] * n
    mults[alpha.i - 1] = _ONE
    if alpha.kind is RootKind.SUM:
        mults[alpha.j - 1] = _ONE
    return tuple(mults)


def coordinate_form_multipliers(i: int, roots: Sequence[Root]) -> tuple[Fraction, ...]:
    """Multipliers writing a_i <= 0 over the coroot rows of `roots`: the
    coroot row of 2e_i with multiplier 1, every other multiplier 0."""
    return tuple(
        _ONE if alpha.kind is RootKind.LONG and alpha.i == i else _ZERO for alpha in roots
    )


def prefix_multipliers(n: int, p: int, j: int) -> tuple[Fraction, ...]:
    """Multipliers writing prefix_functional(n, p, j) over the rows
    {a_i <= 0} of pha_wmax_cone: p on rows <= j and 1 on rows > j.  The rows
    are linearly independent, so these are the only multipliers."""
    fp = Fraction(p)
    return tuple(fp if i <= j else _ONE for i in range(1, n + 1))


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


@dataclass(frozen=True)
class FarkasCertificate:
    """Either nonnegative multipliers writing the target as a combination of
    the system rows (implication over the cone), or a rational witness in
    the cone violating the target.  Self-verifying on construction; the
    multipliers are checked exactly in integer arithmetic."""

    target: IntRow
    system: tuple[IntRow, ...]
    multipliers: Optional[tuple[Fraction, ...]] = None
    witness: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        if (self.multipliers is None) == (self.witness is None):
            raise ValueError("exactly one of multipliers/witness required")
        if self.multipliers is not None:
            if len(self.multipliers) != len(self.system):
                raise ValueError("one multiplier per system row required")
            if any(m < 0 for m in self.multipliers):
                raise AssertionError("multipliers must be nonnegative")
            _, acc = self._scaled_residual()
            if any(acc):
                raise AssertionError(f"nonzero residual {self.residual}")
        else:
            for row in self.system:
                if linalg.dot(row, self.witness) > 0:
                    raise AssertionError("witness violates the system")
            if linalg.dot(self.target, self.witness) <= 0:
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

    @property
    def residual(self) -> tuple:
        """target minus the recombined multipliers; must vanish identically."""
        if self.multipliers is None:
            raise ValueError("no multipliers on a witness certificate")
        scale, acc = self._scaled_residual()
        return tuple(Fraction(a, scale) for a in acc)

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
    f = Fraction(x)
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


@dataclass(frozen=True)
class PhaMembership:
    """Saturated membership result for a stratum weight cone, with the exact
    preimage character and its lattice flags."""

    member: bool
    chi: RatCharacter
    chi_integral: bool
    chi_parity_ok: bool


def pha_w_member(lam: AnyCharacter, w: WeylElem, p: int, hasse_matrix=None) -> PhaMembership:
    """Invert the weight map exactly and test dominance against E_w.

    The saturated cone is h_w(X^*_{+,w}); membership of lam amounts to the
    preimage chi = h_w^{-1}(lam) pairing nonnegatively with every root of
    E_w.  Lattice-exact membership additionally needs chi integral with the
    parity constraint; both facts are reported, not conflated.
    """
    from .bruhat import lower_neighbors
    from .hasse import hasse_map

    _check_p(p)
    hm = hasse_map(w, p) if hasse_matrix is None else hasse_matrix
    chi = hm.inverse_apply(lam)
    ok = all(pairing(chi, alpha) >= 0 for alpha in lower_neighbors(w).roots)
    integral = chi.is_integral()
    parity = integral and chi.to_integral().satisfies_parity
    return PhaMembership(ok, chi, integral, parity)
