"""Command-line surface.

Verbs: weyl, neighbors, path, cone-check, farkas, verify-theorem, enum-iw,
bruhat, sweep.  Exit codes: 0 when every requested check passes, 1 when a
check fails, 2 on usage errors.  --json switches to the documented schema;
sampled sweeps embed their seed so identical flags give byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import kernels
from .linalg import FourierMotzkinBlowup
from .bruhat import (
    admissible_pairs,
    bruhat_leq,
    enum_IW,
    is_min_rep,
    is_separating,
    lower_neighbors,
    preceq,
    stratum_dim,
)
from .certify import envelope_certificate
from .cones import (
    cone_GS,
    farkas_implies,
    frac_str,
    lmin_member,
    lmin_prefix_cone,
    pha_w_member,
    pha_wmax_cone,
)
from .hasse import verify_path_lemmas
from .sweeps import bruhat_suite, gamma_suite, lmin_oracle_suite, redundancy_suite
from .weylroot import (
    RatCharacter,
    WeylElem,
    act,
    canonical_elements,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="zipcone", description=__doc__)
    sub = parser.add_subparsers(dest="verb")

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("weyl", help="inspect a single group element")
    p.add_argument("--n", type=int)
    p.add_argument("--elem", help='window "w(1) w(2) ... w(2n)"')
    p.add_argument("--length", action="store_true")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--act", metavar="CHAR", help='act on a character "a_1,..,a_n|b"')
    p.add_argument("--canonical", action="store_true", help="print w0, w0I, wmax, z")

    p = add("neighbors", help="admissible pairs and lower neighbors")
    p.add_argument("--n", type=int)
    p.add_argument("--elem", required=True)

    p = add("path", help="the descent path with its step weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("cone-check", help="membership of a character in a named cone")
    p.add_argument("--cone", required=True, choices=["gs", "lmin", "lmin-i", "pha-wmax", "pha"])
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--elem", help="stratum element (only for --cone pha)")

    p = add("farkas", help="certify an implication over a named cone")
    p.add_argument("--cone", required=True, choices=["gs", "lmin-i", "pha-wmax", "n3"])
    p.add_argument("--target", required=True, help='functional coefficients "c_1,..,c_n|c_b"')
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)

    p = add("verify-theorem", help="build and check the envelope certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out", help="also write the certificate JSON to a file")
    p.add_argument("--path-report", action="store_true", help="include the per-step path report")

    p = add("enum-iw", help="list the minimal coset representatives")
    p.add_argument("--n", type=int, required=True)

    p = add("bruhat", help="compare two elements in Bruhat order")
    p.add_argument("--elem", required=True)
    p.add_argument("--elem2", required=True)
    p.add_argument("--preceq", action="store_true", help="also compare in the coset order")

    p = add("sweep", help="run an oracle suite")
    p.add_argument("--suite", required=True, choices=["gamma", "bruhat", "lmin-oracle", "redundancy"])
    p.add_argument("--n", required=True, help="rank or comma list of ranks")
    p.add_argument("--p", help="p or comma list")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    return parser


def _parse_elem(text: str, n: int | None) -> WeylElem:
    return WeylElem.parse(text, n)


def _parse_char(text: str):
    lam = RatCharacter.parse(text)
    if lam.is_integral():
        return lam.to_integral()
    return lam


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"expected an integer or comma list, got {text!r}")


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_weyl(args) -> int:
    payload: dict = {"backend": kernels.BACKEND}
    lines: list[str] = []
    if args.canonical:
        if args.n is None:
            raise UsageError("--canonical requires --n")
        ce = canonical_elements(args.n)
        payload["canonical"] = {
            "w0": str(ce.w0),
            "w0I": str(ce.w0I),
            "wmax": str(ce.wmax),
            "z": str(ce.z),
        }
        lines += [f"w0:   {ce.w0}", f"w0I:  {ce.w0I}", f"wmax: {ce.wmax}", f"z:    {ce.z}"]
    if args.elem:
        w = _parse_elem(args.elem, args.n)
        payload["elem"] = str(w)
        if args.length:
            payload["length"] = w.length()
            lines.append(str(w.length()))
        if args.inverse:
            payload["inverse"] = str(w.inverse())
            lines.append(str(w.inverse()))
        if args.act:
            lam = _parse_char(args.act)
            payload["act"] = str(act(w, lam))
            lines.append(str(act(w, lam)))
        if not (args.length or args.inverse or args.act):
            payload["length"] = w.length()
            lines.append(f"window: {w}")
            lines.append(f"length: {w.length()}")
    elif not args.canonical:
        raise UsageError("weyl needs --elem or --canonical")
    _emit(payload, args.json, lines)
    return 0


def _cmd_neighbors(args) -> int:
    w = _parse_elem(args.elem, args.n)
    pairs = admissible_pairs(w)
    roots = sorted(lower_neighbors(w).roots)
    sep = is_separating(w)
    payload = {
        "elem": str(w),
        "length": w.length(),
        "admissible_pairs": [
            {"i": p.i, "j": p.j, "class": p.cls.value} for p in pairs
        ],
        "lower_neighbors": [str(a) for a in roots],
        "separating": sep,
    }
    lines = [f"window: {w} (length {w.length()})"]
    lines += [f"pair ({p.i},{p.j}): {p.cls.value}" for p in pairs]
    lines.append("E_w: " + (", ".join(str(a) for a in roots) if roots else "(empty)"))
    lines.append(f"separating: {str(sep).lower()}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_path(args) -> int:
    report = verify_path_lemmas(args.n, args.p)
    payload = report.to_json_dict()
    lines = []
    for s in report.steps:
        lines.append(
            f"tau({s.d},{s.i}) = {s.window}  beta-step weight {s.pipeline_weight}"
            f"  [closed form {s.closed_form_weight}, {s.first_term_relation}]"
        )
        lines.append(
            f"  E_w = {', '.join(s.computed_eset)}"
            + ("" if s.matches_reference else f"  (beyond closed form: {', '.join(s.extra_vs_reference)})")
        )
    lines.append("all step checks passed" if report.all_passed else "STEP CHECKS FAILED")
    _emit(payload, args.json, lines)
    return 0 if report.all_passed else 1


def _cmd_cone_check(args) -> int:
    lam = _parse_char(args.lam)
    n = lam.n
    if args.p is not None and args.p < 2:
        raise UsageError("p must be at least 2")
    extra: dict = {}
    if args.cone == "gs":
        member = cone_GS(n).member(lam)
    elif args.cone == "lmin":
        if args.p is None:
            raise UsageError("--cone lmin requires --p")
        member = lmin_member(lam, args.p)
    elif args.cone == "lmin-i":
        if args.p is None:
            raise UsageError("--cone lmin-i requires --p")
        member = lmin_prefix_cone(n, args.p).member(lam)
    elif args.cone == "pha-wmax":
        member = pha_wmax_cone(n).member(lam)
    else:
        if args.p is None or not args.elem:
            raise UsageError("--cone pha requires --p and --elem")
        w = _parse_elem(args.elem, n)
        res = pha_w_member(lam, w, args.p)
        member = res.member
        extra = {
            "chi": str(res.chi),
            "chi_integral": res.chi_integral,
            "chi_parity_ok": res.chi_parity_ok,
        }
    payload = {"cone": args.cone, "lambda": str(lam), "member": member, **extra}
    lines = [f"member: {str(member).lower()}"]
    for key, val in extra.items():
        lines.append(f"{key}: {val}")
    _emit(payload, args.json, lines)
    return 0 if member else 1


def _cmd_farkas(args) -> int:
    target = _parse_char(args.target)
    if isinstance(target, RatCharacter):
        raise UsageError("target functional must have integer coefficients")
    n = target.n
    if args.cone == "gs":
        cone = cone_GS(n)
    elif args.cone == "lmin-i":
        if args.p is None:
            raise UsageError("--cone lmin-i requires --p")
        cone = lmin_prefix_cone(n, args.p)
    elif args.cone == "pha-wmax":
        cone = pha_wmax_cone(n)
    else:
        if args.p is None:
            raise UsageError("--cone n3 requires --p")
        if n != 3:
            raise UsageError("--cone n3 needs a rank-3 functional")
        from .cones import n3_exact_cone

        cone = n3_exact_cone(args.p)
    cert = farkas_implies(target.vector(), cone)
    payload = {"cone": args.cone, **cert.to_json_dict()}
    if cert.implied:
        mults = ", ".join(frac_str(m) for m in cert.multipliers)
        lines = ["implied: true", f"multipliers: {mults}"]
    else:
        wit = ", ".join(frac_str(x) for x in cert.witness)
        lines = ["implied: false", f"witness: {wit}"]
    _emit(payload, args.json, lines)
    return 0 if cert.implied else 1


def _cmd_verify_theorem(args) -> int:
    cert = envelope_certificate(args.n, args.p)
    payload = cert.to_json_dict()
    if args.path_report:
        payload["path_report"] = verify_path_lemmas(args.n, args.p).to_json_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    ok_checks = sum(1 for c in cert.checks if c.ok)
    lines = [
        f"envelope generators: {len(cert.base_generators)} base + {len(cert.ha_weights)} path weights",
        f"checks: {ok_checks}/{len(cert.checks)} ok",
        f"verdict: {cert.verdict}",
    ]
    _emit(payload, args.json, lines)
    return 0 if cert.passed else 1


def _cmd_enum_iw(args) -> int:
    reps = enum_IW(args.n)
    wmax = canonical_elements(args.n).wmax
    payload = {
        "n": args.n,
        "count": len(reps),
        "elements": [{"window": str(w), "length": w.length(), "dim": stratum_dim(w)} for w in reps],
        "max": str(wmax),
    }
    lines = [f"{len(reps)} minimal representatives"]
    lines += [f"{w}   length {w.length()}  dim {stratum_dim(w)}" for w in reps]
    _emit(payload, args.json, lines)
    return 0


def _cmd_bruhat(args) -> int:
    w1 = _parse_elem(args.elem, None)
    w2 = _parse_elem(args.elem2, None)
    payload = {
        "elem": str(w1),
        "elem2": str(w2),
        "leq": bruhat_leq(w1, w2),
        "geq": bruhat_leq(w2, w1),
        "lengths": [w1.length(), w2.length()],
    }
    lines = [
        f"{w1} <= {w2}: {str(payload['leq']).lower()}",
        f"{w2} <= {w1}: {str(payload['geq']).lower()}",
    ]
    if args.preceq:
        if not (is_min_rep(w1) and is_min_rep(w2)):
            raise UsageError("--preceq needs minimal coset representatives")
        payload["preceq"] = preceq(w1, w2)
        lines.append(f"{w1} preceq {w2}: {str(payload['preceq']).lower()}")
    _emit(payload, args.json, lines)
    return 0


def _check_sweep_args(args, ranks: list[int]) -> None:
    if not ranks:
        raise UsageError("--n needs at least one rank")
    for n in ranks:
        if n < 1:
            raise UsageError(f"--n must be at least 1, got {n}")
        if args.suite == "redundancy" and n < 2:
            raise UsageError(
                f"--suite redundancy needs --n at least 2 (its claim is about rank >= 2), got {n}"
            )
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    if args.samples < 0:
        raise UsageError(f"--samples must be at least 0, got {args.samples}")


def _cmd_sweep(args) -> int:
    ranks = _int_list(args.n)
    ps = _int_list(args.p) if args.p else []
    _check_sweep_args(args, ranks)
    results = []
    for n in ranks:
        if args.suite == "gamma":
            results.append(gamma_suite(n, jobs=args.jobs))
        elif args.suite == "bruhat":
            results.append(bruhat_suite(n, samples=args.samples, seed=args.seed))
        elif args.suite == "lmin-oracle":
            if not ps:
                raise UsageError("--suite lmin-oracle requires --p")
            samples = args.samples or 100
            for p in ps:
                results.append(lmin_oracle_suite(n, p, samples, args.seed, jobs=args.jobs))
        else:
            if not ps:
                raise UsageError("--suite redundancy requires --p")
            samples = args.samples or 100
            for p in ps:
                results.append(redundancy_suite(n, p, samples, args.seed))
    payload = {"seed": args.seed, "results": [r.to_json_dict() for r in results]}
    lines = []
    for r in results:
        prefix = f"[{r.suite} {r.params}] "
        lines += [prefix + line for line in r.lines]
        for f in r.failures:
            lines.append(prefix + "FAIL " + f)
    ok = all(r.ok for r in results)
    lines.append("sweep ok" if ok else "sweep FAILED")
    _emit(payload, args.json, lines)
    return 0 if ok else 1


_HANDLERS = {
    "weyl": _cmd_weyl,
    "neighbors": _cmd_neighbors,
    "path": _cmd_path,
    "cone-check": _cmd_cone_check,
    "farkas": _cmd_farkas,
    "verify-theorem": _cmd_verify_theorem,
    "enum-iw": _cmd_enum_iw,
    "bruhat": _cmd_bruhat,
    "sweep": _cmd_sweep,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.verb:
            parser.print_usage(sys.stderr)
            return 2
        return _HANDLERS[args.verb](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (ValueError, FourierMotzkinBlowup) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
