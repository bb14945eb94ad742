"""Span tracing of zipcone from outside the package, and the per-module
metrics derived from the spans.

`install` replaces the functions and methods named in SPANS with timing
wrappers.  A function is rebound under every name any zipcone module holds
for it, so the copies made by ``from .cones import farkas_implies`` in
certify, cli and sweeps are traced along with the defining module.  Each
call appends one span (name, start, end, parent) to flat arrays kept in
memory; `Tracer.dump` writes them once, when the run ends, and
`layer_metrics` derives every per-module metric from the written file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, function or Class.method) in the zipcone package: the callables
# a per-module metric reads, and every other zipcone callable the CLI calls
# directly on the four workloads, so that cli self time is argument
# parsing, JSON and printing only.
SPANS = [
    ("linalg", "farkas_split"),
    ("linalg", "rank"),
    ("linalg", "solve_square"),
    ("cones", "pha_wmax_cone"),
    ("cones", "farkas_implies"),
    ("cones", "lmin_member"),
    ("cones", "lmin_prefix_cone"),
    ("cones", "pha_w_member"),
    ("cones", "Cone.member"),
    ("cones", "FarkasCertificate.__post_init__"),
    ("cones", "FarkasCertificate.to_json_dict"),
    ("certify", "envelope_certificate"),
    ("certify", "Certificate.to_json_dict"),
    ("hasse", "descent_path"),
    ("hasse", "verify_path_lemmas"),
    ("hasse", "hasse_map"),
    ("hasse", "PathReport.to_json_dict"),
    ("bruhat", "lower_neighbors"),
    ("bruhat", "lower_neighbors_oracle"),
    ("bruhat", "is_separating"),
    ("bruhat", "admissible_pairs"),
    ("bruhat", "bruhat_leq"),
    ("weylroot", "compose"),
    ("weylroot", "reflection"),
    ("weylroot", "act"),
    ("weylroot", "canonical_elements"),
    ("weylroot", "WeylElem.__post_init__"),
    ("weylroot", "WeylElem.parse"),
    ("weylroot", "RatCharacter.parse"),
    ("kernels", "compose"),
    ("kernels", "invert"),
    ("kernels", "length"),
    ("kernels", "bruhat_leq"),
    ("kernels", "mirror_defect"),
    ("kernels", "admissible_pairs"),
    ("sweeps", "gamma_suite"),
    ("sweeps", "bruhat_suite"),
    ("sweeps", "cover_closure_bits"),
    ("sweeps", "SweepResult.to_json_dict"),
    ("cli", "run"),
]

SUITES = ("sweeps.gamma_suite", "sweeps.bruhat_suite")


def _farkas_counts(args, result):
    yield "linalg.farkas_split.rows_in", len(args[0])
    yield "linalg.farkas_split.witnesses", int(result[0] == "witness")


def _suite_items(args, result):
    yield "sweeps.items", result.total


# counters read from a wrapped call's arguments and result
OBSERVERS = {
    "linalg.farkas_split": _farkas_counts,
    "certify.envelope_certificate": lambda args, result: [("certify.checks", len(result.checks))],
    "hasse.descent_path": lambda args, result: [("hasse.steps", len(result))],
    **{name: _suite_items for name in SUITES},
}

# (name, unit, better), in the order run.py prints them
PER_LAYER = [
    ("linalg.farkas_split.calls", "count", "lower"),
    ("linalg.farkas_split.s", "s", "lower"),
    ("linalg.farkas_split.rows_in", "count", "lower"),
    ("linalg.farkas_split.witness_share", "ratio", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.s", "s", "lower"),
    ("linalg.solve_square.calls", "count", "lower"),
    ("linalg.solve_square.s", "s", "lower"),
    ("cones.pha_wmax_cone.calls", "count", "lower"),
    ("cones.pha_wmax_cone.self_s", "s", "lower"),
    ("cones.farkas_implies.calls", "count", "lower"),
    ("cones.cert_verify_s", "s", "lower"),
    ("cones.farkas.in_cert_share", "ratio", "higher"),
    ("cones.lmin_member.calls", "count", "lower"),
    ("certify.envelope_certificate.self_s", "s", "lower"),
    ("certify.checks", "count", "lower"),
    ("certify.to_json_s", "s", "lower"),
    ("hasse.descent_path.s", "s", "lower"),
    ("hasse.steps", "count", "lower"),
    ("hasse.verify_path_lemmas.self_s", "s", "lower"),
    ("hasse.hasse_map.calls", "count", "lower"),
    ("bruhat.lower_neighbors.calls", "count", "lower"),
    ("bruhat.lower_neighbors.s", "s", "lower"),
    ("bruhat.oracle.calls", "count", "lower"),
    ("bruhat.oracle.s", "s", "lower"),
    ("bruhat.is_separating.calls", "count", "lower"),
    ("bruhat.is_separating.s", "s", "lower"),
    ("bruhat.self_s", "s", "lower"),
    ("weylroot.elems_built", "count", "lower"),
    ("weylroot.validate_s", "s", "lower"),
    ("weylroot.boundary_share", "ratio", "higher"),
    ("weylroot.compose.calls", "count", "lower"),
    ("weylroot.reflection.calls", "count", "lower"),
    ("weylroot.act.calls", "count", "lower"),
    ("kernels.s", "s", "lower"),
    ("kernels.compose.calls", "count", "lower"),
    ("kernels.invert.calls", "count", "lower"),
    ("kernels.length.calls", "count", "lower"),
    ("kernels.bruhat_leq.calls", "count", "lower"),
    ("kernels.mirror_defect.calls", "count", "lower"),
    ("kernels.admissible_pairs.calls", "count", "lower"),
    ("sweeps.items", "count", "higher"),
    ("sweeps.items_per_s", "1/s", "higher"),
    ("sweeps.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    """Spans in flat arrays: name id, parent span index (-1 for a root),
    start and end in perf_counter nanoseconds."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        counters, stack = self.counters, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                for key, inc in observe(args, result):
                    counters[key] += inc
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header and the four arrays back to back."""
        header = {"names": self.names, "count": len(self.name), "counters": dict(self.counters)}
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(tracer: Tracer) -> None:
    """Wrap every entry of SPANS that exists; record the ones that do not."""
    modules = {short: importlib.import_module(f"zipcone.{short}") for short, _ in SPANS}
    for short, qualname in SPANS:
        name = f"{short}.{qualname}"
        owner = modules[short]
        *cls_path, attr = qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            tracer.missing.append(name)
            continue
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(original.__func__, name)))
            continue
        wrapped = tracer.wrap(original, name)
        if cls_path:
            setattr(owner, attr, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "zipcone" or mod_name.startswith("zipcone."):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)


def load(path: Path):
    header = json.loads(path.with_suffix(".json").read_text())
    count = header["count"]
    arrays = []
    with open(path, "rb") as fh:
        for code in ("H", "i", "q", "q"):
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    return header, arrays


def layer_metrics(path: Path) -> dict[str, float]:
    """Per-module metrics from a span file.  A span's self time is its
    duration minus the durations of its direct children."""
    header, (name, parent, start, end) = load(path)
    names = header["names"]
    counters = Counter(header["counters"])
    dur = [e - s for s, e in zip(start, end)]
    child = [0] * len(dur)
    for idx, par in enumerate(parent):
        if par >= 0:
            child[par] += dur[idx]
    calls: Counter = Counter()
    incl: Counter = Counter()
    own: Counter = Counter()
    for nid, d, c in zip(name, dur, child):
        calls[nid] += 1
        incl[nid] += d
        own[nid] += d - c
    ids = {n: k for k, n in enumerate(names)}

    def nid_of(span):
        return ids.get(span, -1)

    def n_calls(span):
        return calls[nid_of(span)]

    def secs(span, table=incl):
        return table[nid_of(span)] / 1e9

    def prefixed(prefix, table):
        return sum(table[k] for k, n in enumerate(names) if n.startswith(prefix)) / 1e9

    def count_with_parent(span, parent_span):
        sid, pid = nid_of(span), nid_of(parent_span)
        return sum(1 for nid, par in zip(name, parent) if nid == sid and par >= 0 and name[par] == pid)

    def share(part, whole):
        return part / whole if whole else 0.0

    farkas_calls = n_calls("cones.farkas_implies")
    elems = n_calls("weylroot.WeylElem.__post_init__")
    suite_s = sum(secs(s) for s in SUITES)
    out = {
        "linalg.farkas_split.calls": n_calls("linalg.farkas_split"),
        "linalg.farkas_split.s": secs("linalg.farkas_split"),
        "linalg.farkas_split.rows_in": counters["linalg.farkas_split.rows_in"],
        "linalg.farkas_split.witness_share": share(
            counters["linalg.farkas_split.witnesses"], n_calls("linalg.farkas_split")
        ),
        "linalg.rank.calls": n_calls("linalg.rank"),
        "linalg.rank.s": secs("linalg.rank"),
        "linalg.solve_square.calls": n_calls("linalg.solve_square"),
        "linalg.solve_square.s": secs("linalg.solve_square"),
        "cones.pha_wmax_cone.calls": n_calls("cones.pha_wmax_cone"),
        "cones.pha_wmax_cone.self_s": secs("cones.pha_wmax_cone", own),
        "cones.farkas_implies.calls": farkas_calls,
        "cones.cert_verify_s": secs("cones.FarkasCertificate.__post_init__"),
        # a Farkas result lands in the output unless it only serves the
        # equivalence proof inside pha_wmax_cone
        "cones.farkas.in_cert_share": share(
            farkas_calls - count_with_parent("cones.farkas_implies", "cones.pha_wmax_cone"),
            farkas_calls,
        ),
        "cones.lmin_member.calls": n_calls("cones.lmin_member"),
        "certify.envelope_certificate.self_s": secs("certify.envelope_certificate", own),
        "certify.checks": counters["certify.checks"],
        "certify.to_json_s": secs("certify.Certificate.to_json_dict"),
        "hasse.descent_path.s": secs("hasse.descent_path"),
        "hasse.steps": counters["hasse.steps"],
        "hasse.verify_path_lemmas.self_s": secs("hasse.verify_path_lemmas", own),
        "hasse.hasse_map.calls": n_calls("hasse.hasse_map"),
        "bruhat.lower_neighbors.calls": n_calls("bruhat.lower_neighbors"),
        "bruhat.lower_neighbors.s": secs("bruhat.lower_neighbors"),
        "bruhat.oracle.calls": n_calls("bruhat.lower_neighbors_oracle"),
        "bruhat.oracle.s": secs("bruhat.lower_neighbors_oracle"),
        "bruhat.is_separating.calls": n_calls("bruhat.is_separating"),
        "bruhat.is_separating.s": secs("bruhat.is_separating"),
        "bruhat.self_s": prefixed("bruhat.", own),
        "weylroot.elems_built": elems,
        "weylroot.validate_s": secs("weylroot.WeylElem.__post_init__"),
        "weylroot.boundary_share": share(
            count_with_parent("weylroot.WeylElem.__post_init__", "weylroot.WeylElem.parse"), elems
        ),
        "weylroot.compose.calls": n_calls("weylroot.compose"),
        "weylroot.reflection.calls": n_calls("weylroot.reflection"),
        "weylroot.act.calls": n_calls("weylroot.act"),
        "kernels.s": prefixed("kernels.", incl),
        **{f"kernels.{k}.calls": n_calls(f"kernels.{k}") for k in
           ("compose", "invert", "length", "bruhat_leq", "mirror_defect", "admissible_pairs")},
        "sweeps.items": counters["sweeps.items"],
        "sweeps.items_per_s": share(counters["sweeps.items"], suite_s),
        "sweeps.self_s": prefixed("sweeps.", own),
        "cli.self_s": secs("cli.run", own),
        "cli.out_bytes": counters["cli.out_bytes"],
        "trace.spans": header["count"],
    }
    return out
