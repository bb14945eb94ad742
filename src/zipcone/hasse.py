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
list omits long roots that demonstrably occur.  The corrected closed form
is step_weight, proved in its docstring; descent_path asserts it at every
step against the weight it reads off the windows.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from . import kernels
from .bruhat import (
    _coroot_edges,
    is_separating,
    lower_neighbors,
    lower_neighbors_oracle,
    mask_bits,
)
from .cones import lmin_member
from .weylroot import (
    Character,
    Record,
    Root,
    RootKind,
    WeylElem,
    act,
    canonical_elements,
    compose,
    pairing,
    reflection,
    reflection_swaps,
    root_index,
    root_order,
    root_table,
)


# ---------------------------------------------------------------------------
# the weight map


class HasseMap(Record):
    """The linear map chi -> -w(chi) + p*wmax(chi) on (a_1..a_n, b).

    Integer matrix, invertible over Q for every w and every p >= 2 (the
    signed-permutation part has spectral radius 1 < p).
    """

    w: WeylElem
    p: int
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, w: WeylElem, p: int, matrix: tuple[tuple[int, ...], ...]):
        vars(self).update(w=w, p=p, matrix=matrix)


def hasse_map(w: WeylElem, p: int) -> HasseMap:
    """Assemble the weight map column by column on the basis characters: the
    dense matrix whose exact solve is the reference that
    `cones.weight_preimage` is checked against."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    n = w.n
    wmax = canonical_elements(n).wmax
    dim = n + 1
    cols = []
    for k in range(1, dim + 1):
        basis = Character.unit(n, k) if k <= n else Character((0,) * n, 1)
        minus, plus = act(w, basis).vector(), act(wmax, basis).vector()
        cols.append(tuple(p * y - x for x, y in zip(minus, plus)))
    matrix = tuple(tuple(cols[c][r] for c in range(dim)) for r in range(dim))
    return HasseMap(w, p, matrix)


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


class PathStep(Record):
    """One step of the descent path: the element w = tau_d^(i), the step root
    beta = e_{i+1} - e_{d+1}, the cutting character chi = e_{i+1}, the
    weight ha of the corresponding partial Hasse invariant (computed value),
    and its closed-form reference: ha_closed_form(n, p, d, i) and the
    relation compare_step_weights reports between the two."""

    d: int
    i: int
    w: WeylElem
    beta: Root
    chi: Character
    ha: Character
    ha_closed_form: Character
    first_term_relation: str

    def __init__(
        self, d: int, i: int, w: WeylElem, beta: Root, chi: Character, ha: Character,
        ha_closed_form: Character, first_term_relation: str,
    ):
        vars(self).update(
            d=d, i=i, w=w, beta=beta, chi=chi, ha=ha, ha_closed_form=ha_closed_form,
            first_term_relation=first_term_relation,
        )


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
    roots = root_table(n)
    swaps = reflection_swaps(n)
    steps = []
    w = anchor_element(n, 1)
    for d in range(1, n):
        if w != anchor_element(n, d):
            raise AssertionError(f"path must pass through the block window at d={d}")
        for i in range(0, d):
            beta = roots[root_index(n, RootKind.DIFF, i + 1, d + 1)]
            chi = Character._trusted((0,) * i + (1,) + (0,) * (n - i - 1), 0)  # e_{i+1}
            ha = _unit_weight(n, p, w.window[i], wmax.window[i])
            if ha != step_weight(n, p, d, i):
                raise AssertionError(f"step weight must be e_{{d-i}} - p*e_{{n-i}} at ({d}, {i})")
            closed = ha_closed_form(n, p, d, i)
            relation = compare_step_weights(n, p, d, i, ha)
            steps.append(PathStep(d, i, w, beta, chi, ha, closed, relation))
            if kernels.length_change(w.window, swaps[beta]) != -1:
                raise AssertionError(f"length must drop by one at ({d}, {i})")
            w = compose(w, reflection(beta, n))
    if w != wmax:
        raise AssertionError("path must end at the top minimal representative")
    return steps


def _unit_weight(n: int, p: int, w_value: int, wmax_value: int) -> Character:
    """-w(e_k) + p*wmax(e_k) from the window values w(k) and wmax(k).

    A signed permutation sends e_k to e_v when v = w(k) <= n and to
    -e_{2n+1-v} when v > n, so each image is one signed slot; this is
    `act` on a basis character, read off two window entries."""
    a = [0] * n
    for value, scale in ((w_value, -1), (wmax_value, p)):
        if value <= n:
            a[value - 1] += scale
        else:
            a[2 * n - value] -= scale
    return Character._trusted(tuple(a), 0)


def step_weight(n: int, p: int, d: int, i: int) -> Character:
    """The step weight at step (d, i) in closed form: e_{d-i} - p*e_{n-i}.

    The weight is -w(e_{i+1}) + p*wmax(e_{i+1}) with w = tau_d^(i), so it is
    fixed by the two window values w(i+1) and wmax(i+1) (see _unit_weight).

    wmax = w0I * w0 sends k <= n to n+k: w0 sends k to 2n+1-k, and w0I,
    which reverses 1..n and fixes the mirror pairing, sends that to n+k.
    So wmax(i+1) = n+1+i > n and wmax(e_{i+1}) = -e_{n-i}.

    Within the d-block, w(k) = 2n-d+k for i+1 <= k <= d, by induction on
    i.  At i = 0, w is the block window anchor(d), which sends 1..d to
    2n-d+1..2n.  The step from i to i+1 composes w on the right with the
    reflection in e_{i+1} - e_{d+1}, which swaps positions i+1 and d+1 (and
    their mirrors 2n-i and 2n-d, both above n) and moves no other
    position, so positions i+2..d keep their values.  Hence
    w(i+1) = 2n+1-(d-i) > n and w(e_{i+1}) = -e_{d-i}, and the weight is
    e_{d-i} - p*e_{n-i}.

    That the walk passes through anchor(d) at the start of every d-block
    is not proved here: descent_path checks it at run time, and checks the
    computed weight against this closed form at every step.
    """
    _check_step(n, p, d, i)
    a = [0] * n
    a[d - i - 1] += 1      # e_{d-i}
    a[n - i - 1] -= p      # -p * e_{n-i}
    return Character._trusted(tuple(a), 0)


def ha_closed_form(n: int, p: int, d: int, i: int) -> Character:
    """The closed-form step weight e_{d-i+1} - p*e_{n-i}, kept verbatim as
    reference data; the computed pipeline value is authoritative and its
    first index is smaller by one (see compare_step_weights and
    step_weight)."""
    _check_step(n, p, d, i)
    a = [0] * n
    a[d - i] += 1          # e_{d-i+1}
    a[n - i - 1] -= p      # -p * e_{n-i}
    return Character._trusted(tuple(a), 0)


def _check_step(n: int, p: int, d: int, i: int) -> None:
    if not (1 <= d <= n - 1 and 0 <= i <= d - 1):
        raise ValueError(f"bad step index ({d}, {i}) for rank {n}")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")


def compare_step_weights(n: int, p: int, d: int, i: int, pipeline: Character) -> str:
    """Relation of the computed weight to the closed form: 'equal',
    'first_index_shift' (difference is exactly e_{d-i+1} - e_{d-i}, so the
    -p*e_{n-i} terms agree), or 'other'.  Compares the vectors directly."""
    closed = ha_closed_form(n, p, d, i).vector()
    if pipeline.n != n:
        raise ValueError(f"rank mismatch: {pipeline.n} vs {n}")
    got = pipeline.vector()
    if got == closed:
        return "equal"
    shifted = list(closed)
    shifted[d - i] -= 1    # - e_{d-i+1}
    shifted[d - i - 1] += 1  # + e_{d-i}
    if got == tuple(shifted):
        return "first_index_shift"
    return "other"


# ---------------------------------------------------------------------------
# closed-form neighbor sets along the path


def _reference_mask(n: int, d: int, i: int) -> int:
    """Closed-form description of E_w at step (d, i) of the path, read
    uniformly, as a root bitmask: the union of five families with
    out-of-range members dropped, namely e_k - e_{d+2} (k <= i),
    e_{d+1} - e_{d+2}, e_k - e_{d+1} (i < k <= d), e_k - e_{k+1} (d+2 <= k
    < n) and 2e_n.

    For d <= n-2 this is exact.  For d = n-1 it keeps the difference tail
    {e_k - e_n : i+1 <= k <= n-1} and the long root 2e_n but omits the long
    roots 2e_k for k <= i, which direct computation shows do occur;
    `_restored_long_mask` restores them.  The bit of e_k - e_j is
    `root_index(n, RootKind.DIFF, k, j)`, (k-1)(2n-k)/2 + j - k - 1,
    written out below; 2e_n is bit n(n-1) + n - 1."""
    if not (1 <= d <= n - 1 and 0 <= i <= d - 1):
        raise ValueError(f"bad step index ({d}, {i}) for rank {n}")
    mask = 1 << (n * n - 1)
    if d + 2 <= n:
        for k in range(1, i + 1):
            mask |= 1 << ((k - 1) * (2 * n - k) // 2 + d + 1 - k)
        mask |= 1 << (d * (2 * n - d - 1) // 2)
    for k in range(i + 1, d + 1):
        mask |= 1 << ((k - 1) * (2 * n - k) // 2 + d - k)
    for k in range(d + 2, n):
        mask |= 1 << ((k - 1) * (2 * n - k) // 2)
    return mask


def _restored_long_mask(n: int, d: int, i: int) -> int:
    """The long roots 2e_k (k <= i) that the reference set omits at d = n-1,
    as a root bitmask: bits n(n-1) .. n(n-1) + i - 1.  With them the closed
    form is the computationally verified one, and every path element has
    exactly n lower neighbors."""
    return ((1 << i) - 1) << root_index(n, RootKind.LONG, 1) if d == n - 1 else 0


# ---------------------------------------------------------------------------
# step-by-step verification report


class StepReport(Record):
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

    def __init__(
        self, d: int, i: int, window: str, computed_eset: tuple[str, ...],
        reference_eset: tuple[str, ...], verified_eset: tuple[str, ...],
        matches_reference: bool, matches_verified: bool, extra_vs_reference: tuple[str, ...],
        oracle_agrees: bool, separating: bool, chi_orthogonal: bool, pipeline_weight: str,
        closed_form_weight: str, first_term_relation: str, second_term_agrees: bool,
        pipeline_in_lmin: bool, closed_form_in_lmin: bool,
    ):
        # in field order: to_json_dict reads vars(self)
        vars(self).update(
            d=d, i=i, window=window, computed_eset=computed_eset,
            reference_eset=reference_eset, verified_eset=verified_eset,
            matches_reference=matches_reference, matches_verified=matches_verified,
            extra_vs_reference=extra_vs_reference, oracle_agrees=oracle_agrees,
            separating=separating, chi_orthogonal=chi_orthogonal,
            pipeline_weight=pipeline_weight, closed_form_weight=closed_form_weight,
            first_term_relation=first_term_relation, second_term_agrees=second_term_agrees,
            pipeline_in_lmin=pipeline_in_lmin, closed_form_in_lmin=closed_form_in_lmin,
        )

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
        return {**vars(self), "passed": self.passed}


class PathReport(Record):
    n: int
    p: int
    steps: tuple[StepReport, ...]

    def __init__(self, n: int, p: int, steps: tuple[StepReport, ...]):
        vars(self).update(n=n, p=p, steps=steps)

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

    def iter_json(self, depth: int = 0) -> Iterator[str]:
        """The text of `json.dumps(self.to_json_dict(), indent=2,
        sort_keys=True)` in blocks, written `depth` levels deep as the value
        of an enclosing object's key: the head up to the steps, then one
        block per step, then the close, so a writer of the blocks never
        holds the whole text.  Written directly: `indent` would send the
        payload through CPython's pure-Python encoder.  Each step is one
        f-string with its keys in sorted order; each distinct string is
        quoted once, through `json.dumps`, and each distinct root list
        rendered once."""
        pad = "\n" + "  " * depth
        key = pad + "      "  # a step's keys, three levels below the report
        quoted = _Fragments(json.dumps)
        lists = _Fragments(lambda items: _json_list([quoted[a] for a in items], depth + 3))
        mismatches = [_json_list([str(d), str(i)], depth + 2) for d, i in self.reference_mismatches]
        yield (
            f'{{{pad}  "all_passed": {_BOOL[self.all_passed]},{pad}  "n": {self.n},{pad}  "p": {self.p},'
            f'{pad}  "reference_mismatches": {_json_list(mismatches, depth + 1)},{pad}  "steps": '
        )
        if not self.steps:
            yield f"[]{pad}}}"
            return
        sep = f"[{pad}    "
        for s in self.steps:
            yield (
                f"{sep}{{"
                f'{key}"chi_orthogonal": {_BOOL[s.chi_orthogonal]},'
                f'{key}"closed_form_in_lmin": {_BOOL[s.closed_form_in_lmin]},'
                f'{key}"closed_form_weight": {quoted[s.closed_form_weight]},'
                f'{key}"computed_eset": {lists[s.computed_eset]},'
                f'{key}"d": {s.d},'
                f'{key}"extra_vs_reference": {lists[s.extra_vs_reference]},'
                f'{key}"first_term_relation": {quoted[s.first_term_relation]},'
                f'{key}"i": {s.i},'
                f'{key}"matches_reference": {_BOOL[s.matches_reference]},'
                f'{key}"matches_verified": {_BOOL[s.matches_verified]},'
                f'{key}"oracle_agrees": {_BOOL[s.oracle_agrees]},'
                f'{key}"passed": {_BOOL[s.passed]},'
                f'{key}"pipeline_in_lmin": {_BOOL[s.pipeline_in_lmin]},'
                f'{key}"pipeline_weight": {quoted[s.pipeline_weight]},'
                f'{key}"reference_eset": {lists[s.reference_eset]},'
                f'{key}"second_term_agrees": {_BOOL[s.second_term_agrees]},'
                f'{key}"separating": {_BOOL[s.separating]},'
                f'{key}"verified_eset": {lists[s.verified_eset]},'
                f'{key}"window": {quoted[s.window]}'
                f"{pad}    }}"
            )
            sep = f",{pad}    "
        yield f"{pad}  ]{pad}}}"


_BOOL = {True: "true", False: "false"}


def _json_list(items: list[str], depth: int) -> str:
    """A list of rendered JSON values as `json.dumps(indent=2)` writes it
    `depth` levels deep; each item already carries the indentation of its
    own later lines."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return f"[{pad}{(',' + pad).join(items)}\n{'  ' * depth}]"


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _BOOL.__getitem__,
    type(None): lambda _: "null",
}


def json_text(value, depth: int = 0) -> str:
    """The text of `json.dumps(value, indent=2, sort_keys=True)`, written
    `depth` levels deep, for dicts with str keys, lists, tuples, str, int,
    bool and None; anything else raises TypeError, as `json` does for a type
    it cannot write.  Written directly: `indent` sends a payload through
    CPython's pure-Python encoder.  Exact types are looked up first, and a
    subclass is then tested in `json`'s order, so bool is never int and an
    IntEnum writes as its int.  A list of one exact scalar type is rendered
    by one C-level map."""
    render = _SCALARS.get(type(value))
    if render is not None:
        return render(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        flat = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        return _json_list(list(map(flat, value)) if flat else [json_text(x, depth + 1) for x in value], depth)
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = "\n" + "  " * (depth + 1)
        body = ("," + pad).join(
            [f"{encode_basestring_ascii(k)}: {json_text(v, depth + 1)}" for k, v in sorted(value.items())]
        )
        return f"{{{pad}{body}\n{'  ' * depth}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Fragments(dict):
    """Text fragments, each rendered on its first lookup by `render(key)`."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key) -> str:
        text = self[key] = self.render(key)
        return text


@functools.lru_cache(maxsize=32)
def _root_names(n: int) -> tuple[str, ...]:
    """The text of each rank-n root, indexed like a root bitmask."""
    return tuple(map(str, root_table(n)))


def verify_path_lemmas(n: int, p: int) -> PathReport:
    """Check every element of the rank-n descent path for p; see
    `check_path_steps`."""
    return check_path_steps(n, p, descent_path(n, p))


def check_path_steps(n: int, p: int, steps) -> PathReport:
    """Check every step of a descent path, as `descent_path(n, p)` or a
    certificate's `path` gives it: neighbor sets against both closed forms
    and the brute-force oracle, the separating property, the cutting
    character's orthogonality, and both weight variants' membership in the
    orbit-inequality cone.  Failures become report entries, not exceptions.
    The neighbor sets are compared as root bitmasks, and E_w is rendered
    once per step; a closed form equal to it reuses that text."""
    table = root_table(n)
    edges = _coroot_edges(n)
    names = _root_names(n)

    def strs(mask: int) -> tuple[str, ...]:
        return tuple([names[k] for k in mask_bits(mask)])

    reports = []
    oracle = None
    for step in steps:
        neighbors = lower_neighbors(step.w)
        computed = neighbors.mask
        # chained from the oracle's own answer for the step before
        oracle = lower_neighbors_oracle(step.w, oracle)
        reference = _reference_mask(n, step.d, step.i)
        verified = reference | _restored_long_mask(n, step.d, step.i)
        bits = mask_bits(computed)
        computed_strs = tuple([names[k] for k in bits])
        # the bit the step root would have at rank n; the table check catches a
        # root from a certificate that does not fit the rank
        beta = root_index(n, *root_order(step.beta))
        # on alpha's coroot edge (u, v, odd), <chi, alpha^vee> is a_u - a_v,
        # a_u + a_v or a_u (a loop, u = v), so it is 0 exactly when a_u equals
        # a_v on an even edge and -a_v on an odd one
        a = step.chi.a
        orthogonal = (
            computed >> beta & 1 == 1
            and table[beta] == step.beta
            and pairing(step.chi, step.beta) == 1
            and all(a[u] == (-a[v] if odd else a[v]) for u, v, odd in [edges[k] for k in bits if k != beta])
        )
        reports.append(
            StepReport(
                d=step.d,
                i=step.i,
                window=str(step.w),
                computed_eset=computed_strs,
                reference_eset=computed_strs if computed == reference else strs(reference),
                verified_eset=computed_strs if computed == verified else strs(verified),
                matches_reference=computed == reference,
                matches_verified=computed == verified,
                extra_vs_reference=strs(computed & ~reference),
                oracle_agrees=computed == oracle.mask,
                separating=is_separating(neighbors),
                chi_orthogonal=orthogonal,
                pipeline_weight=str(step.ha),
                closed_form_weight=str(step.ha_closed_form),
                first_term_relation=step.first_term_relation,
                second_term_agrees=step.first_term_relation in ("equal", "first_index_shift"),
                pipeline_in_lmin=lmin_member(step.ha, p),
                closed_form_in_lmin=lmin_member(step.ha_closed_form, p),
            )
        )
    return PathReport(n, p, tuple(reports))
