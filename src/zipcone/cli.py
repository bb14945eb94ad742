"""Command-line surface.

Verbs: weyl, neighbors, path, cone-check, farkas, verify-theorem, enum-iw,
bruhat, sweep.  Exit codes: 0 when every requested check passes, 1 when a
check fails, 2 on usage errors.  --json switches to the documented schema;
sampled sweeps embed their seed so identical flags give byte-identical
output.

Every value with a bounded range is checked against its `LIMITS` row before
any work: outside it the CLI exits 2 with one message naming the verb, the
scope, the option, the bound and the value.  In one process `run` keeps one
argument parser and each named cone it has built, so repeated in-process
calls pay only for the question asked.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import kernels
from .linalg import FourierMotzkinBlowup
from .bruhat import (
    bruhat_leq,
    classed_pairs,
    enum_IW,
    is_min_rep,
    neighbor_roots,
    pair_class,
    preceq,
    roots_separating,
    stratum_dim,
)
from .certify import envelope_certificate
from .cones import (
    MAX_ENUMERATED_RANK,
    cone_GS,
    farkas_implies,
    frac_str,
    gs_member,
    lmin_member,
    lmin_prefix_cone,
    lmin_prefix_member,
    n3_exact_cone,
    pha_w_member,
    pha_wmax_cone,
    pha_wmax_member,
)
from .hasse import check_path_steps, json_text, verify_path_lemmas
from .sweeps import bruhat_suite, gamma_suite, lmin_oracle_suite, redundancy_suite
from .weylroot import (
    Character,
    RatCharacter,
    WeylElem,
    _parse_char_text,
    act,
    canonical_elements,
)


# The range of each value the CLI accepts, keyed by (verb, option, scope):
# the scope is the flag that selects the bounded work, None where the bound
# holds for the whole verb, and a window or character option (--elem,
# --lambda, --target) is bounded by its rank.  (lo, hi) are inclusive, None
# is no bound.  `_check_limit` tests each parsed value against its row
# before any work starts.  In the exponential rows (sweeps, enum-iw,
# --preceq) the work at least doubles with every rank; every other rank
# limit is the largest rank measured within the times of README's limits
# table, which lists these rows in this order.  Every verb that takes --p
# takes it up to P_MAX: the certificate's text grows with the digits of p,
# and at P_MAX `verify-theorem --n 64` prints 1.64 times its p = 5 size.
P_MAX = 10**18
LIMITS = {
    ("weyl", "--n", "--canonical"): (None, 300),  # prints four 2n-entry windows
    ("weyl", "--elem", None): (None, 5000),  # O(n^2) length
    ("neighbors", "--elem", None): (None, 1000),
    ("path", "--n", None): (None, 128),
    ("path", "--p", None): (2, P_MAX),
    ("cone-check", "--lambda", "--cone gs"): (None, 4096),
    ("cone-check", "--lambda", "--cone pha-wmax"): (None, 4096),
    ("cone-check", "--lambda", "--cone pha"): (None, 1000),
    ("cone-check", "--p", None): (2, P_MAX),
    ("farkas", "--target", "--cone gs"): (None, 10),
    ("farkas", "--target", "--cone pha-wmax"): (None, 224),
    ("farkas", "--target", "--cone lmin-i"): (None, 16),
    ("farkas", "--p", None): (2, P_MAX),
    ("verify-theorem", "--n", None): (None, 64),
    ("verify-theorem", "--p", None): (2, P_MAX),
    ("enum-iw", "--n", None): (None, 16),  # 2^n representatives
    ("bruhat", "--elem", None): (None, 3500),  # O(n^2) comparisons and lengths
    ("bruhat", "--elem", "--preceq"): (None, 9),  # all n! Levi elements
    ("sweep", "--n", "--suite gamma"): (1, 7),  # all 2^n n! elements
    ("sweep", "--n", "--suite bruhat"): (1, 5),  # cover closure of all elements
    ("sweep", "--n", "--suite bruhat --samples 0"): (1, 4),  # every pair of elements
    ("sweep", "--n", "--suite lmin-oracle"): (1, MAX_ENUMERATED_RANK),
    ("sweep", "--n", "--suite redundancy"): (2, MAX_ENUMERATED_RANK),  # its claim needs rank 2
    ("sweep", "--p", None): (2, P_MAX),
    ("sweep", "--samples", None): (0, 100_000),
    ("sweep", "--jobs", None): (1, 32),  # worker processes of one Pool
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Formatter(argparse.HelpFormatter):
    # argparse builds a formatter in every add_argument only to check the
    # metavar; this one reads the terminal width, importing shutil, when it
    # first formats text
    def __init__(self, prog):
        self._prog = prog

    def __getattr__(self, name):
        if "_width" in vars(self):
            raise AttributeError(name)
        super().__init__(self._prog)
        return getattr(self, name)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # --help shows the docstring without its last paragraph, which is about
    # limits and in-process use
    parser = _Parser(prog="zipcone", description=__doc__.rpartition("\n\n")[0], formatter_class=_Formatter)
    # with a prog, add_subparsers formats no usage to derive one
    sub = parser.add_subparsers(dest="verb", prog=parser.prog)

    def add(name, **kwargs):
        p = sub.add_parser(name, formatter_class=_Formatter, **kwargs)
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


def _parse_char(text: str):
    """A Character when every entry is integral, else a RatCharacter."""
    a, b = _parse_char_text(text)
    if all(map(int.__instancecheck__, a)) and isinstance(b, int):
        return Character(tuple(a), b)
    return RatCharacter(a, b)


def _check_rank_flag(n: int | None, char, flag: str) -> None:
    if n is not None and n != char.n:
        raise UsageError(f"--n is {n} but {flag} has rank {char.n}")


def _check_limit(verb: str, option: str, value: int, scope: str | None = None) -> None:
    """Refuse a value outside its `LIMITS` row, naming the row, the bound
    and the value."""
    lo, hi = LIMITS[verb, option, scope]
    if lo is not None and value < lo:
        bound = f"at least {lo}"
    elif hi is not None and value > hi:
        bound = f"at most {hi}"
    else:
        return
    where = f"{verb} {scope}" if scope else verb
    what = f"the rank of {option}" if option in ("--elem", "--lambda", "--target") else option
    raise UsageError(f"{where}: {what} must be {bound}, got {value}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"expected an integer or comma list, got {text!r}")


def _require_p(args) -> int:
    if args.p is None:
        raise UsageError(f"--cone {args.cone} requires --p")
    return args.p


@functools.lru_cache(maxsize=32)
def _cone(name: str, n: int, p: int | None):
    """Each named cone once per key and process: a Cone is immutable.  The
    cache sits here, not on the constructors, so a direct call still runs
    its construction checks."""
    if name == "gs":
        return cone_GS(n)
    if name == "lmin-i":
        return lmin_prefix_cone(n, p)
    return pha_wmax_cone(n)


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json_text(payload))
    else:
        for line in lines:
            print(line)


def _cmd_weyl(args) -> int:
    if args.canonical:
        if args.n is None:
            raise UsageError("--canonical requires --n")
        _check_limit("weyl", "--n", args.n, "--canonical")
    if args.elem:
        w = WeylElem.parse(args.elem, args.n)
        _check_limit("weyl", "--elem", w.n)
    elif not args.canonical:
        raise UsageError("weyl needs --elem or --canonical")
    payload: dict = {"backend": kernels.BACKEND}
    lines: list[str] = []
    if args.canonical:
        ce = canonical_elements(args.n)
        payload["canonical"] = {
            "w0": str(ce.w0),
            "w0I": str(ce.w0I),
            "wmax": str(ce.wmax),
            "z": str(ce.z),
        }
        lines += [f"w0:   {ce.w0}", f"w0I:  {ce.w0I}", f"wmax: {ce.wmax}", f"z:    {ce.z}"]
    if args.elem:
        payload["elem"] = str(w)
        if args.length:
            payload["length"] = w.length()
            lines.append(str(payload["length"]))
        if args.inverse:
            payload["inverse"] = str(w.inverse())
            lines.append(payload["inverse"])
        if args.act:
            payload["act"] = str(act(w, _parse_char(args.act)))
            lines.append(payload["act"])
        if not (args.length or args.inverse or args.act):
            payload["length"] = w.length()
            lines += [f"window: {w}", f"length: {payload['length']}"]
    _emit(payload, args.json, lines)
    return 0


def _cmd_neighbors(args) -> int:
    w = WeylElem.parse(args.elem, args.n)
    _check_limit("neighbors", "--elem", w.n)
    # one scan of the window: E_w and its separating verdict come from the
    # classed pairs it prints, with no per-rank table
    pairs = classed_pairs(w)
    roots = neighbor_roots(pairs)
    names = [str(a) for a in roots]
    sep = roots_separating(w.n, roots)
    length = w.length()
    # a window has up to n^2 admissible pairs: only the form asked for is built
    if args.json:
        pair_dicts = [{"i": i, "j": j, "class": pair_class(root).value} for i, j, root in pairs]
        payload = {
            "elem": str(w),
            "length": length,
            "admissible_pairs": pair_dicts,
            "lower_neighbors": names,
            "separating": sep,
        }
        print(json_text(payload))
        return 0
    lines = [f"window: {w} (length {length})"]
    lines += [f"pair ({i},{j}): {pair_class(root).value}" for i, j, root in pairs]
    lines.append("E_w: " + (", ".join(names) if names else "(empty)"))
    lines.append(f"separating: {str(sep).lower()}")
    print("\n".join(lines))
    return 0


def _cmd_path(args) -> int:
    _check_limit("path", "--n", args.n)
    _check_limit("path", "--p", args.p)
    report = verify_path_lemmas(args.n, args.p)
    if args.json:
        for block in report.iter_json():
            sys.stdout.write(block)
        print()
        return 0 if report.all_passed else 1
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
    print("\n".join(lines))
    return 0 if report.all_passed else 1


def _cmd_cone_check(args) -> int:
    lam = _parse_char(args.lam)
    _check_rank_flag(args.n, lam, "--lambda")
    n = lam.n
    scope = f"--cone {args.cone}"
    # lmin and lmin-i have no row: they answer in O(n) at any rank
    if ("cone-check", "--lambda", scope) in LIMITS:
        _check_limit("cone-check", "--lambda", n, scope)
    if args.p is not None:
        _check_limit("cone-check", "--p", args.p)
    extra: dict = {}
    if args.cone == "lmin":
        member = lmin_member(lam, _require_p(args))
    elif args.cone == "pha":
        if args.p is None or not args.elem:
            raise UsageError("--cone pha requires --p and --elem")
        w = WeylElem.parse(args.elem, n)
        res = pha_w_member(lam, w, args.p)
        member = res.member
        extra = {
            "chi": str(res.chi),
            "chi_integral": res.chi_integral,
            "chi_parity_ok": res.chi_parity_ok,
        }
    elif args.cone == "gs":
        member = gs_member(lam)
    elif args.cone == "pha-wmax":
        member = pha_wmax_member(lam)
    else:
        member = lmin_prefix_member(lam, _require_p(args))
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
    _check_rank_flag(args.n, target, "--target")
    n = target.n
    if args.p is not None:
        _check_limit("farkas", "--p", args.p)
    if args.cone == "n3":
        p = _require_p(args)
        if n != 3:
            raise UsageError("--cone n3 needs a rank-3 functional")
        cone = n3_exact_cone(p)
    else:
        _check_limit("farkas", "--target", n, f"--cone {args.cone}")
        cone = _cone(args.cone, n, _require_p(args) if args.cone == "lmin-i" else None)
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


def _out_error(path: str, exc: OSError) -> ValueError:
    """The refusal of an --out path that cannot be written, which `run`
    reports with exit 2."""
    return ValueError(f"cannot write --out {path}: {exc.strerror or exc}")


def _cmd_verify_theorem(args) -> int:
    _check_limit("verify-theorem", "--n", args.n)
    _check_limit("verify-theorem", "--p", args.p)
    if args.out:
        # refuse a path that cannot be written before the build, not after it;
        # the probe leaves no trace: append mode keeps an existing file as it
        # is, and a file the probe creates is removed again
        try:
            existed = os.path.exists(args.out)
            open(args.out, "a", encoding="utf-8").close()
            if not existed:
                os.remove(args.out)
        except OSError as exc:
            raise _out_error(args.out, exc) from None
    cert = envelope_certificate(args.n, args.p)
    # the report checks the certificate's own path instead of walking it again
    report = check_path_steps(cert.n, cert.p, cert.path) if args.path_report else None
    # stdout and --out take each block of the text as it is rendered
    blocks = cert.iter_json(report) if args.json or args.out else ()
    for block in _written(args.out, blocks) if args.out else blocks:
        if args.json:
            sys.stdout.write(block)
    if args.json:
        print()
    else:
        print(f"envelope generators: {len(cert.base_generators)} base + {len(cert.ha_weights)} path weights")
        print(f"checks: {sum(ok for *_, ok in cert.ledger)}/{len(cert.ledger)} ok")
        print(f"verdict: {cert.verdict}")
    return 0 if cert.passed else 1


def _written(path: str, blocks):
    """Each block, after it is written to the file at path.  Only the file's
    errors are caught: the caller's own writes, to stdout, raise in its frame."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for block in blocks:
                fh.write(block)
                yield block
    except OSError as exc:
        raise _out_error(path, exc) from None


def _cmd_enum_iw(args) -> int:
    _check_limit("enum-iw", "--n", args.n)
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
    w1 = WeylElem.parse(args.elem)
    w2 = WeylElem.parse(args.elem2)
    _check_limit("bruhat", "--elem", w1.n, "--preceq" if args.preceq else None)
    # so the bound on --elem holds for --elem2, before `is_min_rep` reads it
    if w1.n != w2.n:
        raise ValueError(f"rank mismatch: {w1.n} vs {w2.n}")
    if args.preceq and not (is_min_rep(w1) and is_min_rep(w2)):
        raise UsageError("--preceq needs minimal coset representatives")
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
        payload["preceq"] = preceq(w1, w2)
        lines.append(f"{w1} preceq {w2}: {str(payload['preceq']).lower()}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_sweep(args) -> int:
    ranks = _int_list(args.n)
    ps = _int_list(args.p) if args.p else []
    if not ranks:
        raise UsageError("--n needs at least one rank")
    scope = f"--suite {args.suite}"
    if args.suite == "bruhat" and not args.samples:
        scope += " --samples 0"
    # every listed value is checked before the first suite runs
    for n in ranks:
        _check_limit("sweep", "--n", n, scope)
    if args.suite in ("lmin-oracle", "redundancy"):
        if not ps:
            raise UsageError(f"--suite {args.suite} requires --p")
        for p in ps:
            _check_limit("sweep", "--p", p)
    _check_limit("sweep", "--samples", args.samples)
    _check_limit("sweep", "--jobs", args.jobs)
    results = []
    for n in ranks:
        if args.suite == "gamma":
            results.append(gamma_suite(n, jobs=args.jobs))
        elif args.suite == "bruhat":
            results.append(bruhat_suite(n, samples=args.samples, seed=args.seed))
        elif args.suite == "lmin-oracle":
            samples = args.samples or 100
            for p in ps:
                results.append(lmin_oracle_suite(n, p, samples, args.seed, jobs=args.jobs))
        else:
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
    try:
        code = run(sys.argv[1:])
        # flush here, so that a reader that has gone raises inside the try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`zipcone ... | head`): no traceback.  As
        # the SIGPIPE note of the `signal` documentation advises, point
        # stdout at devnull so that the flush at exit cannot fail again, and
        # exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
