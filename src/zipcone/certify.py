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
from fractions import Fraction
from typing import Optional

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
from .weylroot import Character, Record, Root, WeylElem


class EnvelopeCheck(Record):
    """One ledger line of the certificate.

    Evaluation lines pin a generator against a functional with the exact
    value; implication lines carry the Farkas multipliers expressing the
    target functional over the base system.
    """

    label: str
    functional: IntRow
    generator: Optional[Character]
    value: Optional[int | Fraction]
    multipliers: Optional[tuple[int | Fraction, ...]]
    ok: bool

    def __init__(
        self, label: str, functional: IntRow, generator: Optional[Character] = None,
        value: Optional[int | Fraction] = None,
        multipliers: Optional[tuple[int | Fraction, ...]] = None, ok: bool = False,
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
    """A verification run: path, envelope generators, per-check ledger, verdict."""

    n: int
    p: int
    path: tuple[PathStep, ...]
    base_generators: tuple[Character, ...]
    ha_weights: tuple[Character, ...]
    checks: tuple[EnvelopeCheck, ...]
    verdict: str

    def __init__(
        self, n: int, p: int, path: tuple[PathStep, ...], base_generators: tuple[Character, ...],
        ha_weights: tuple[Character, ...], checks: tuple[EnvelopeCheck, ...], verdict: str,
    ):
        vars(self).update(
            n=n, p=p, path=path, base_generators=base_generators, ha_weights=ha_weights,
            checks=checks, verdict=verdict,
        )

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_json_dict(self) -> dict:
        """The structured view, and the reference for `to_json`."""
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

    def to_json(self, path_report: Optional[PathReport] = None) -> str:
        """The text of `json.dumps(payload, indent=2, sort_keys=True)`, where
        the payload is `to_json_dict()` plus `path_report.to_json_dict()` as
        a top-level key when a report is given, rendered without building
        the payload.

        The checks repeat a few dozen functional rows and far fewer
        generators than checks, so each distinct row, generator, label and
        (ok, value) ending is rendered once, and every check is one f-string
        over those fragments, with its keys in sorted order; multipliers,
        where a check has them, are rendered in place.  Every string is
        quoted once by `json.dumps`.  `_json_list` writes the functional
        rows from their integer entries, and the multiplier lists, path steps
        and generator lists over those quotes.  The path report is its own
        `to_json`, moved to its depth by indenting every line after the
        first; that is exact because JSON strings never hold a raw newline.
        The text is joined once from its pieces, since every further
        concatenation would copy all of it again.
        """
        quoted = _Fragments(json.dumps)
        rows = _Fragments(lambda row: _json_list(list(map(str, row)), 3))
        gens = _Fragments(lambda gen: quoted[str(gen)])
        tails = _Fragments(_tail)
        gen, gen_text = None, "null"
        gens[None] = gen_text
        checks = []
        for c in self.checks:
            # the generator's fragment is kept while consecutive checks share it,
            # as envelope_certificate writes them, to skip hashing the character
            if c.generator is not gen:
                gen, gen_text = c.generator, gens[c.generator]
            mults = "" if c.multipliers is None else (
                f'\n      "multipliers": {_json_list([quoted[frac_str(m)] for m in c.multipliers], 3)},'
            )
            checks += (
                ",\n    ",
                f'{{\n      "functional": {rows[c.functional]},\n      "generator": {gen_text},'
                f'\n      "label": {quoted[c.label]},{mults}{tails[c.ok, c.value]}',
            )
        path = [
            f'{{\n      "beta": {quoted[str(s.beta)]},\n      "chi": {quoted[str(s.chi)]},'
            f'\n      "d": {s.d},\n      "first_term_relation": {quoted[s.first_term_relation]},'
            f'\n      "ha": {quoted[str(s.ha)]},\n      "ha_closed_form": {quoted[str(s.ha_closed_form)]},'
            f'\n      "i": {s.i},\n      "window": {quoted[str(s.w)]}\n    }}'
            for s in self.path
        ]
        fields = {
            "n": [json.dumps(self.n)],
            "p": [json.dumps(self.p)],
            "path": [_json_list(path, 1)],
            "base_generators": [_json_list([quoted[str(g)] for g in self.base_generators], 1)],
            "ha_weights": [_json_list([quoted[str(h)] for h in self.ha_weights], 1)],
            "verdict": [json.dumps(self.verdict)],
            "checks": ["[\n    ", *checks[1:], "\n  ]"] if checks else ["[]"],
        }
        if path_report is not None:
            fields["path_report"] = [path_report.to_json().replace("\n", "\n  ")]
        parts = []
        for k in sorted(fields):
            parts += (",\n", f'  "{k}": ', *fields[k])
        parts[0] = "{\n"
        parts.append("\n}")
        return "".join(parts)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        n = int(data["n"])
        p = int(data["p"])
        path = tuple(
            PathStep(
                d=int(s["d"]),
                i=int(s["i"]),
                w=WeylElem.parse(s["window"]),
                beta=Root.parse(s["beta"]),
                chi=Character.parse(s["chi"]),
                ha=Character.parse(s["ha"]),
                ha_closed_form=Character.parse(s["ha_closed_form"]),
                first_term_relation=s["first_term_relation"],
            )
            for s in data["path"]
        )
        checks = []
        for c in data["checks"]:
            checks.append(
                EnvelopeCheck(
                    label=c["label"],
                    functional=tuple(int(x) for x in c["functional"]),
                    generator=Character.parse(c["generator"])
                    if c.get("generator")
                    else None,
                    value=Fraction(c["value"]) if "value" in c else None,
                    multipliers=tuple(Fraction(m) for m in c["multipliers"])
                    if "multipliers" in c
                    else None,
                    ok=bool(c["ok"]),
                )
            )
        return cls(
            n=n,
            p=p,
            path=path,
            base_generators=tuple(Character.parse(g) for g in data["base_generators"]),
            ha_weights=tuple(Character.parse(h) for h in data["ha_weights"]),
            checks=tuple(checks),
            verdict=data["verdict"],
        )


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

    checks: list[EnvelopeCheck] = []
    prefix_rows = [(f"prefix-{j}", prefix_functional(n, p, j)) for j in range(1, n + 1)]
    for gen in base_gens + ha_weights:
        entries = support(gen.vector())
        orbit_rows = list(zip(("orbit-long-worst", "orbit-sum-worst"), orbit_worst_rows(gen.a, p)))
        for label, row in orbit_rows + prefix_rows:
            value = sparse_value(row, entries)
            checks.append(
                EnvelopeCheck(label=label, functional=row, generator=gen, value=value, ok=value <= 0)
            )

    for j, (_, row) in enumerate(prefix_rows, 1):
        cert = FarkasCertificate(row, base_cone.hform, multipliers=prefix_multipliers(n, p, j))
        checks.append(
            EnvelopeCheck(
                label=f"prefix-{j}-from-base",
                functional=row,
                multipliers=cert.multipliers,
                ok=cert.implied,
            )
        )

    verdict = "PASS" if all(c.ok for c in checks) else "FAIL"
    return Certificate(
        n=n,
        p=p,
        path=steps,
        base_generators=base_gens,
        ha_weights=ha_weights,
        checks=tuple(checks),
        verdict=verdict,
    )
