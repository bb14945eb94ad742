"""Partial Hasse invariant weights and the descent path.

The weight map of a stratum is chi -> -w(chi) + p*wmax(chi); its values on
suitably chosen characters cut out single boundary strata.  The descent
path walks from the longest element down to the longest minimal coset
representative through elements that all admit separating systems, and
carries a closed-form weight at every step.

The closed-form data is cross-checked against the computed pipeline and
every disagreement is reported, never reconciled silently: the first index
of the closed-form weight differs from the computed one by one (both
variants land in the orbit-inequality cone, so downstream certificates are
insensitive to the discrepancy), and for d = n-1 the closed-form neighbor
list omits long roots that demonstrably occur.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from . import linalg
from .bruhat import is_separating, lower_neighbors, lower_neighbors_oracle
from .cones import lmin_member
from .weylroot import (
    AnyCharacter,
    Character,
    RatCharacter,
    Root,
    WeylElem,
    act,
    canonical_elements,
    compose,
    pairing,
    reflection,
)


# ---------------------------------------------------------------------------
# the weight map


@dataclass(frozen=True)
class HasseMap:
    """The linear map chi -> -w(chi) + p*wmax(chi) on (a_1..a_n, b).

    Integer matrix, invertible over Q for every w and every p >= 2 (the
    signed-permutation part has spectral radius 1 < p).
    """

    w: WeylElem
    p: int
    matrix: tuple[tuple[int, ...], ...]

    def apply(self, chi: AnyCharacter) -> AnyCharacter:
        if chi.n != self.w.n:
            raise ValueError(f"rank mismatch: {chi.n} vs {self.w.n}")
        vec = chi.vector()
        out = tuple(linalg.dot(row, vec) for row in self.matrix)
        if isinstance(chi, Character):
            return Character(tuple(int(x) for x in out[:-1]), int(out[-1]))
        return RatCharacter(out[:-1], out[-1])

    def inverse_apply(self, lam: AnyCharacter) -> RatCharacter:
        """Exact rational preimage."""
        if lam.n != self.w.n:
            raise ValueError(f"rank mismatch: {lam.n} vs {self.w.n}")
        sol = linalg.solve_square(self.matrix, lam.vector())
        if sol is None:
            raise AssertionError("weight map must be invertible")
        return RatCharacter(sol[:-1], sol[-1])

    def determinant(self) -> Fraction:
        return linalg.det(self.matrix)


def hasse_map(w: WeylElem, p: int) -> HasseMap:
    """Assemble the weight map column by column on the basis characters."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    n = w.n
    wmax = canonical_elements(n).wmax
    dim = n + 1
    cols = []
    for k in range(1, dim + 1):
        basis = Character.unit(n, k) if k <= n else Character((0,) * n, 1)
        img = (-1 * act(w, basis)) + p * act(wmax, basis)
        cols.append(img.vector())
    matrix = tuple(tuple(cols[c][r] for c in range(dim)) for r in range(dim))
    return HasseMap(w, p, matrix)


def pha_multiplicities(w: WeylElem, chi: AnyCharacter) -> dict[Root, int]:
    """Vanishing orders of the weight-chi section on the boundary strata:
    alpha -> <chi, alpha^vee> over the lower neighbors of w."""
    return {alpha: pairing(chi, alpha) for alpha in lower_neighbors(w).roots}


def chi_is_valid(w: WeylElem, beta: Root, chi: AnyCharacter) -> bool:
    """Validator: positive pairing with beta, zero pairing with the rest of E_w."""
    roots = lower_neighbors(w).roots
    if beta not in roots:
        return False
    if pairing(chi, beta) <= 0:
        return False
    return all(pairing(chi, alpha) == 0 for alpha in roots if alpha != beta)


def solve_chi(w: WeylElem, beta: Root) -> Character:
    """Canonical integral character with minimal positive pairing against beta
    and zero pairing against the rest of E_w.

    The rational solution is taken inside the span of the coroot rows (zero
    component along the orthogonal complement), scaled to the smallest
    positive integral multiple; b is the parity-matching value of least
    absolute value, ties resolved to the nonnegative one.
    """
    n = w.n
    roots = sorted(lower_neighbors(w).roots)
    if beta not in roots:
        raise ValueError(f"{beta} is not a lower-neighbor root of {w}")
    if not is_separating(w):
        raise ValueError(f"{w} admits no separating system")
    rows = [alpha.coroot_row(n) for alpha in roots]
    target = [Fraction(1) if alpha == beta else Fraction(0) for alpha in roots]
    gram = [[linalg.dot(r1, r2) for r2 in rows] for r1 in rows]
    y = linalg.solve_square(gram, target)
    if y is None:
        raise AssertionError("separating rows must give an invertible Gram matrix")
    x = [sum(y[k] * rows[k][c] for k in range(len(rows))) for c in range(n)]
    a = linalg.primitive(x)
    b = 0 if sum(a) % 2 == 0 else 1
    return Character(a, b)


# ---------------------------------------------------------------------------
# descent path


def anchor_element(n: int, d: int) -> WeylElem:
    """The block window with d-by-d corner blocks: positions 1..d map to
    2n-d+1..2n, the middle reverses, positions 2n-d+1..2n map to 1..d."""
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= {n}, got {d}")
    m = 2 * n
    window = [0] * m
    for i in range(1, d + 1):
        window[i - 1] = m - d + i
        window[m - d + i - 1] = i
    for pos in range(d + 1, m - d + 1):
        window[pos - 1] = m + 1 - pos
    return WeylElem._trusted(tuple(window))


@dataclass(frozen=True)
class PathStep:
    """One step of the descent path: the element w = tau_d^(i), the step root
    beta = e_{i+1} - e_{d+1}, the cutting character chi = e_{i+1}, and the
    weight ha of the corresponding partial Hasse invariant (computed value)."""

    d: int
    i: int
    w: WeylElem
    beta: Root
    chi: Character
    ha: Character

    @property
    def index(self) -> tuple[int, int]:
        return (self.d, self.i)


def descent_path(n: int, p: int) -> list[PathStep]:
    """The length-decreasing walk from the longest element to the top minimal
    coset representative; n(n-1)/2 steps, empty in rank 1."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if n == 1:
        return []
    wmax = canonical_elements(n).wmax
    steps = []
    w = anchor_element(n, 1)
    for d in range(1, n):
        if w != anchor_element(n, d):
            raise AssertionError(f"path must pass through the block window at d={d}")
        for i in range(0, d):
            beta = Root.diff(i + 1, d + 1)
            chi = Character.unit(n, i + 1)
            ha = (-1 * act(w, chi)) + p * act(wmax, chi)
            steps.append(PathStep(d, i, w, beta, chi, ha))
            nxt = compose(w, reflection(beta, n))
            if nxt.length() != w.length() - 1:
                raise AssertionError(f"length must drop by one at ({d}, {i})")
            w = nxt
    if w != wmax:
        raise AssertionError("path must end at the top minimal representative")
    return steps


def ha_closed_form(n: int, p: int, d: int, i: int) -> Character:
    """The closed-form step weight e_{d-i+1} - p*e_{n-i}, kept verbatim as
    reference data; the computed pipeline value is authoritative and its
    first index is smaller by one (see compare_step_weights)."""
    if not (1 <= d <= n - 1 and 0 <= i <= d - 1):
        raise ValueError(f"bad step index ({d}, {i}) for rank {n}")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    a = [0] * n
    a[d - i] += 1          # e_{d-i+1}
    a[n - i - 1] -= p      # -p * e_{n-i}
    return Character(tuple(a), 0)


def compare_step_weights(n: int, p: int, d: int, i: int, pipeline: Character) -> str:
    """Relation of the computed weight to the closed form: 'equal',
    'first_index_shift' (difference is exactly e_{d-i+1} - e_{d-i}, so the
    -p*e_{n-i} terms agree), or 'other'."""
    closed = ha_closed_form(n, p, d, i)
    if pipeline == closed:
        return "equal"
    shift = Character.unit(n, d - i + 1) - Character.unit(n, d - i)
    if closed - pipeline == shift:
        return "first_index_shift"
    return "other"


# ---------------------------------------------------------------------------
# closed-form neighbor sets along the path


def eset_reference(n: int, d: int, i: int) -> frozenset[Root]:
    """Closed-form description of E_w along the path, read uniformly: the
    union of five families with out-of-range members dropped.

    For d <= n-2 this is exact.  For d = n-1 it keeps the difference tail
    {e_k - e_n : i+1 <= k <= n-1} and the long root 2e_n but omits the long
    roots 2e_k for k <= i, which direct computation shows do occur;
    eset_verified restores them.
    """
    if not (1 <= d <= n - 1 and 0 <= i <= d - 1):
        raise ValueError(f"bad step index ({d}, {i}) for rank {n}")
    roots: set[Root] = set()
    if d + 2 <= n:
        for k in range(1, i + 1):
            roots.add(Root.diff(k, d + 2))
        roots.add(Root.diff(d + 1, d + 2))
    for k in range(i + 1, d + 1):
        roots.add(Root.diff(k, d + 1))
    for k in range(d + 2, n):
        roots.add(Root.diff(k, k + 1))
    roots.add(Root.long(n))
    return frozenset(roots)


def eset_verified(n: int, d: int, i: int) -> frozenset[Root]:
    """The computationally verified closed form: the reference set, plus the
    long roots 2e_k (k <= i) that appear when d = n-1.  Every path element
    has exactly n lower neighbors."""
    roots = set(eset_reference(n, d, i))
    if d == n - 1:
        for k in range(1, i + 1):
            roots.add(Root.long(k))
    return frozenset(roots)


# ---------------------------------------------------------------------------
# step-by-step verification report


@dataclass(frozen=True)
class StepReport:
    d: int
    i: int
    window: str
    computed_eset: tuple[str, ...]
    reference_eset: tuple[str, ...]
    verified_eset: tuple[str, ...]
    matches_reference: bool
    matches_verified: bool
    extra_vs_reference: tuple[str, ...]
    oracle_agrees: bool
    separating: bool
    chi_orthogonal: bool
    pipeline_weight: str
    closed_form_weight: str
    first_term_relation: str
    second_term_agrees: bool
    pipeline_in_lmin: bool
    closed_form_in_lmin: bool

    @property
    def passed(self) -> bool:
        """Everything the downstream certificate relies on; closed-form
        reference agreement is reported separately."""
        return (
            self.matches_verified
            and self.oracle_agrees
            and self.separating
            and self.chi_orthogonal
            and self.second_term_agrees
            and self.pipeline_in_lmin
            and self.closed_form_in_lmin
        )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class PathReport:
    n: int
    p: int
    steps: tuple[StepReport, ...]

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.steps)

    @property
    def reference_mismatches(self) -> tuple[tuple[int, int], ...]:
        """Step indices where the computed set differs from the uncorrected
        closed form; expected to be exactly the d = n-1 steps with i >= 1."""
        return tuple((s.d, s.i) for s in self.steps if not s.matches_reference)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "steps": [s.to_json_dict() for s in self.steps],
            "all_passed": self.all_passed,
            "reference_mismatches": [list(t) for t in self.reference_mismatches],
        }


def verify_path_lemmas(n: int, p: int) -> PathReport:
    """Check every descent-path element: neighbor sets against both closed
    forms and the brute-force oracle, the separating property, the cutting
    character's orthogonality, and both weight variants' membership in the
    orbit-inequality cone.  Failures become report entries, not exceptions."""
    reports = []
    for step in descent_path(n, p):
        computed = lower_neighbors(step.w).roots
        oracle = lower_neighbors_oracle(step.w).roots
        reference = eset_reference(n, step.d, step.i)
        verified = eset_verified(n, step.d, step.i)
        others = [a for a in computed if a != step.beta]
        orthogonal = (
            step.beta in computed
            and pairing(step.chi, step.beta) == 1
            and all(pairing(step.chi, a) == 0 for a in others)
        )
        closed = ha_closed_form(n, p, step.d, step.i)
        reports.append(
            StepReport(
                d=step.d,
                i=step.i,
                window=str(step.w),
                computed_eset=tuple(str(a) for a in sorted(computed)),
                reference_eset=tuple(str(a) for a in sorted(reference)),
                verified_eset=tuple(str(a) for a in sorted(verified)),
                matches_reference=computed == reference,
                matches_verified=computed == verified,
                extra_vs_reference=tuple(str(a) for a in sorted(computed - reference)),
                oracle_agrees=computed == oracle,
                separating=is_separating(step.w),
                chi_orthogonal=orthogonal,
                pipeline_weight=str(step.ha),
                closed_form_weight=str(closed),
                first_term_relation=compare_step_weights(n, p, step.d, step.i, step.ha),
                second_term_agrees=compare_step_weights(n, p, step.d, step.i, step.ha)
                in ("equal", "first_index_shift"),
                pipeline_in_lmin=lmin_member(step.ha, p),
                closed_form_in_lmin=lmin_member(closed, p),
            )
        )
    return PathReport(n, p, tuple(reports))
