"""The envelope certificate behind the vanishing statement.

The combinatorial core is a cone inclusion: the weight cone of the top
stratum, propagated up the descent path by adding the step weights, stays
inside the orbit-inequality cone.  The certificate makes this
machine-checkable: the envelope cone is generated by the base generators
{-e_i, +/-e_b} together with every step weight, and each generator is
checked exactly against the binding (worst-subset) orbit functionals and
the prefix functionals; the prefix functionals are in turn
Farkas-certified against the base cone's inequality form.  Those
multipliers are closed form (p on rows <= j, 1 on the rest) and checked
exactly in integer arithmetic by FarkasCertificate; no Fourier-Motzkin
search runs here.  Search (linalg.farkas_split) is kept for implications
without a known closed form, such as the `farkas` verb's user targets.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property

# farkas_implies is unused here but stays importable as certify.farkas_implies:
# perfbench/selftest.py checks that its tracer rebinds this copy.
from .cones import farkas_implies  # noqa: F401
from .cones import (
    FarkasCertificate,
    IntRow,
    orbit_worst_rows,
    pha_wmax_cone,
    prefix_functional,
    prefix_multipliers,
    frac_str,
    sparse_value,
    support,
)
from .hasse import PathReport, PathStep, _Fragments, _json_list, descent_path
from .weylroot import Character, Record


class EnvelopeCheck(Record):
    """One ledger line of the certificate.

    Evaluation lines pin a generator against a functional with the exact
    value; implication lines carry the Farkas multipliers expressing the
    target functional over the base system.
    """

    label: str
    functional: IntRow
    generator: Character | None
    value: int | Fraction | None
    multipliers: tuple[int | Fraction, ...] | None
    ok: bool

    def __init__(
        self, label: str, functional: IntRow, generator: Character | None = None,
        value: int | Fraction | None = None,
        multipliers: tuple[int | Fraction, ...] | None = None, ok: bool = False,
    ):
        vars(self).update(
            label=label, functional=functional, generator=generator, value=value,
            multipliers=multipliers, ok=ok,
        )

    def to_json_dict(self) -> dict:
        out: dict = {
            "label": self.label,
            "functional": list(self.functional),
            "generator": str(self.generator) if self.generator is not None else None,
            "ok": self.ok,
        }
        if self.value is not None:
            out["value"] = frac_str(self.value)
        if self.multipliers is not None:
            out["multipliers"] = [frac_str(m) for m in self.multipliers]
        return out


class Certificate(Record):
    """A verification run: path, envelope generators, ledger, verdict.

    The ledger holds each check as a plain tuple in `EnvelopeCheck` field
    order, (label, functional, generator, value, multipliers, ok); `checks`
    builds the `EnvelopeCheck` records from it on first read."""

    n: int
    p: int
    path: tuple[PathStep, ...]
    base_generators: tuple[Character, ...]
    ha_weights: tuple[Character, ...]
    ledger: tuple[tuple, ...]
    verdict: str

    def __init__(
        self, n: int, p: int, path: tuple[PathStep, ...], base_generators: tuple[Character, ...],
        ha_weights: tuple[Character, ...], ledger: tuple[tuple, ...], verdict: str,
    ):
        vars(self).update(
            n=n, p=p, path=path, base_generators=base_generators, ha_weights=ha_weights,
            ledger=ledger, verdict=verdict,
        )

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    @cached_property
    def checks(self) -> tuple[EnvelopeCheck, ...]:
        return tuple(EnvelopeCheck(*line) for line in self.ledger)

    def to_json_dict(self) -> dict:
        """The structured view, and the reference for `iter_json`."""
        return {
            "n": self.n,
            "p": self.p,
            "path": [
                {
                    "d": s.d,
                    "i": s.i,
                    "window": str(s.w),
                    "beta": str(s.beta),
                    "chi": str(s.chi),
                    "ha": str(s.ha),
                    "ha_closed_form": str(s.ha_closed_form),
                    "first_term_relation": s.first_term_relation,
                }
                for s in self.path
            ],
            "base_generators": [str(g) for g in self.base_generators],
            "ha_weights": [str(h) for h in self.ha_weights],
            "verdict": self.verdict,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def iter_json(self, path_report: PathReport | None = None) -> Iterator[str]:
        """The text of `json.dumps(payload, indent=2, sort_keys=True)` in
        blocks, where the payload is `to_json_dict()` plus
        `path_report.to_json_dict()` as a top-level key when a report is
        given.  It is rendered from the ledger, building neither the payload
        nor an `EnvelopeCheck`: the keys in sorted order, one block per run
        of ledger lines that share a generator (one generator's lines, as
        `envelope_certificate` writes them), then the path, the report and
        the verdict, so a writer of the blocks never holds the whole text.
        Each distinct row, string and (ok, value) ending is rendered once,
        each line is one f-string with its keys in sorted order, and
        `_json_list` writes the lists.  The report is its own `iter_json`,
        one block per step, written at depth 1.
        """
        quoted = _Fragments(json.dumps)
        rows = _Fragments(lambda row: _json_list(list(map(str, row)), 3))
        tails = _Fragments(_tail)
        base = _json_list([quoted[str(g)] for g in self.base_generators], 1)
        yield f'{{\n  "base_generators": {base},\n  "checks": ['
        block, gen, gen_text, sep = [], None, "null", "\n    "
        for label, row, generator, value, mults, ok in self.ledger:
            if generator is not gen:
                if block:
                    yield "".join(block)
                    block = []
                gen, gen_text = generator, "null" if generator is None else quoted[str(generator)]
            mults = "" if mults is None else (
                f'\n      "multipliers": {_json_list([quoted[frac_str(m)] for m in mults], 3)},'
            )
            block.append(
                f'{sep}{{\n      "functional": {rows[row]},\n      "generator": {gen_text},'
                f'\n      "label": {quoted[label]},{mults}{tails[ok, value]}'
            )
            sep = ",\n    "
        yield "".join(block) + ("\n  ]" if self.ledger else "]")
        weights = _json_list([quoted[str(h)] for h in self.ha_weights], 1)
        yield f',\n  "ha_weights": {weights},\n  "n": {self.n},\n  "p": {self.p},\n  "path": '
        path = [
            f'{{\n      "beta": {quoted[str(s.beta)]},\n      "chi": {quoted[str(s.chi)]},'
            f'\n      "d": {s.d},\n      "first_term_relation": {quoted[s.first_term_relation]},'
            f'\n      "ha": {quoted[str(s.ha)]},\n      "ha_closed_form": {quoted[str(s.ha_closed_form)]},'
            f'\n      "i": {s.i},\n      "window": {quoted[str(s.w)]}\n    }}'
            for s in self.path
        ]
        yield _json_list(path, 1)
        if path_report is not None:
            yield ',\n  "path_report": '
            yield from path_report.iter_json(1)
        yield f',\n  "verdict": {json.dumps(self.verdict)}\n}}'


def _tail(key: tuple) -> str:
    """A check's text after its label or multipliers, for key (ok, value):
    "ok", then "value" when there is one."""
    ok, value = key
    text = f'\n      "ok": {"true" if ok else "false"}'
    if value is not None:
        text += f',\n      "value": "{frac_str(value)}"'
    return text + "\n    }"


def _char_from_vector(vec: IntRow) -> Character:
    return Character(tuple(vec[:-1]), vec[-1])


def envelope_certificate(n: int, p: int) -> Certificate:
    """Build and verify the envelope inclusion for the given rank and p.

    Generators: the base cone's generators plus the computed step weights.
    For each generator, each orbit contributes its binding subset functional
    (the subset of negative pairings; every other subset functional is
    dominated by it), read off the generator's entries by orbit_worst_rows,
    and every prefix functional is evaluated as well.  Each value is summed
    over the generator's nonzero entries, at most two.  The prefix
    functionals are also written as nonnegative combinations of the base
    inequalities {a_i <= 0}, with closed-form, self-verifying integer
    multipliers.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    base_cone = pha_wmax_cone(n)
    base_gens = tuple(_char_from_vector(g) for g in base_cone.vform)
    steps = tuple(descent_path(n, p))
    ha_weights = tuple(s.ha for s in steps)

    ledger = []
    prefix_rows = [(f"prefix-{j}", prefix_functional(n, p, j)) for j in range(1, n + 1)]
    for gen in base_gens + ha_weights:
        entries = support(gen.vector())
        orbit_rows = list(zip(("orbit-long-worst", "orbit-sum-worst"), orbit_worst_rows(gen.a, p)))
        for label, row in orbit_rows + prefix_rows:
            value = sparse_value(row, entries)
            ledger.append((label, row, gen, value, None, value <= 0))

    for j, (_, row) in enumerate(prefix_rows, 1):
        cert = FarkasCertificate(row, base_cone.hform, multipliers=prefix_multipliers(n, p, j))
        ledger.append((f"prefix-{j}-from-base", row, None, None, cert.multipliers, cert.implied))

    # the verdict reads each line's ok, its last field
    return Certificate(
        n=n, p=p, path=steps, base_generators=base_gens, ha_weights=ha_weights,
        ledger=tuple(ledger), verdict="PASS" if all(line[-1] for line in ledger) else "FAIL",
    )
