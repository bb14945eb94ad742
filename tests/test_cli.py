import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zipcone
from zipcone.cli import LIMITS, _parse_char, run
from zipcone.weylroot import Character, RatCharacter


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weyl_length_example(capsys):
    code, out, _ = invoke(capsys, "weyl", "--n", "2", "--elem", "4 3 2 1", "--length")
    assert code == 0
    assert out.strip() == "4"


def test_weyl_canonical(capsys):
    code, out, _ = invoke(capsys, "weyl", "--n", "2", "--canonical", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["canonical"]["wmax"] == "3 4 1 2"
    assert data["canonical"]["z"] == "3 4 1 2"
    # at its limit every window is still built and printed
    n = LIMITS["weyl", "--n", "--canonical"][1]
    code, out, _ = invoke(capsys, "weyl", "--n", str(n), "--canonical", "--json")
    assert code == 0 and json.loads(out)["canonical"]["w0"] == w0(n)


def test_weyl_act_and_inverse(capsys):
    code, out, _ = invoke(
        capsys, "weyl", "--elem", "3 4 1 2", "--act", "1,0|0", "--inverse", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["act"] == "0,-1|0"
    assert data["inverse"] == "3 4 1 2"


def test_neighbors(capsys):
    code, out, _ = invoke(capsys, "neighbors", "--elem", "4 3 2 1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lower_neighbors"] == ["e1-e2", "2e2"]
    assert data["separating"] is True
    assert {"i": 3, "j": 4, "class": "other"} in data["admissible_pairs"]


def test_cone_check_member(capsys):
    code, out, _ = invoke(
        capsys, "cone-check", "--n", "3", "--p", "5", "--cone", "lmin-i",
        "--lambda", "1,1,-25|1",
    )
    assert code == 0
    assert out.strip() == "member: true"


def test_cone_check_non_member_exits_1(capsys):
    code, out, _ = invoke(
        capsys, "cone-check", "--cone", "gs", "--lambda", "1,0|1"
    )
    assert code == 1
    assert out.strip() == "member: false"


def test_cone_check_lmin_and_pha_wmax(capsys):
    code, out, _ = invoke(
        capsys, "cone-check", "--cone", "lmin", "--p", "5",
        "--lambda", "1,1,-25|1",
    )
    assert code == 0 and out.strip() == "member: true"
    code, out, _ = invoke(
        capsys, "cone-check", "--cone", "pha-wmax", "--lambda", "0,0|4"
    )
    assert code == 0 and out.strip() == "member: true"
    # rational input is accepted; leading-dash values need the = form
    code, out, _ = invoke(
        capsys, "cone-check", "--cone", "gs", "--lambda=-1/2,-3/4|0"
    )
    assert code == 0


def test_cone_check_pha(capsys):
    code, out, _ = invoke(
        capsys, "cone-check", "--cone", "pha", "--p", "3",
        "--elem", "4 3 2 1", "--lambda", "1,-3|0", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True and data["chi"] == "1,0|0"


def test_verify_theorem(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, _ = invoke(
        capsys, "verify-theorem", "--n", "3", "--p", "5", "--json",
        "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    on_disk = json.loads(out_file.read_text())
    assert on_disk == data
    # stdout and --out are one text; print adds the newline
    assert out == out_file.read_text() + "\n"


def test_verify_theorem_path_report_out_matches_stdout(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, _ = invoke(
        capsys, "verify-theorem", "--n", "4", "--p", "3", "--json", "--path-report",
        "--out", str(out_file),
    )
    assert code == 0
    assert json.loads(out)["path_report"]["all_passed"] is True
    assert out == out_file.read_text() + "\n"


def test_verify_theorem_out_without_json_matches_the_json_text(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, _ = invoke(capsys, "verify-theorem", "--n", "3", "--p", "5", "--path-report", "--out", str(out_file))
    assert code == 0
    assert out.splitlines()[-1] == "verdict: PASS"
    code, json_out, _ = invoke(capsys, "verify-theorem", "--n", "3", "--p", "5", "--path-report", "--json")
    assert code == 0
    assert json_out == out_file.read_text() + "\n"


def test_path_report(capsys):
    code, out, _ = invoke(capsys, "path", "--n", "3", "--p", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert data["reference_mismatches"] == [[2, 1]]


def test_enum_iw(capsys):
    code, out, _ = invoke(capsys, "enum-iw", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4
    assert data["elements"][-1]["window"] == "3 4 1 2"


def test_bruhat_verb(capsys):
    code, out, _ = invoke(
        capsys, "bruhat", "--elem", "3 4 1 2", "--elem2", "4 3 2 1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["leq"] is True and data["geq"] is False


def test_farkas_verb(capsys):
    code, out, _ = invoke(
        capsys, "farkas", "--cone", "pha-wmax", "--target", "1,1|0", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["implied"] is True
    assert data["multipliers"] == ["1/1", "1/1"]


def test_farkas_witness_exit(capsys):
    code, out, _ = invoke(
        capsys, "farkas", "--cone", "lmin-i", "--p", "5", "--target", "5,25,1|0"
    )
    assert code == 1
    assert "witness" in out


def test_sweep_gamma(capsys):
    code, out, _ = invoke(capsys, "sweep", "--suite", "gamma", "--n", "3")
    assert code == 0
    assert "48/48 elements pass" in out


def test_sweep_reproducible(capsys):
    args = [
        "sweep", "--suite", "lmin-oracle", "--n", "3", "--p", "3",
        "--samples", "40", "--seed", "7", "--json",
    ]
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical with identical flags and seed
    data = json.loads(out1)
    assert data["seed"] == 7
    assert all(r["ok"] for r in data["results"])


def test_sweep_redundancy(capsys):
    code, out, _ = invoke(
        capsys, "sweep", "--suite", "redundancy", "--n", "3", "--p", "2,3",
        "--samples", "25", "--seed", "3",
    )
    assert code == 0
    assert out.count("certified redundant") == 2


def test_usage_errors():
    assert run(["no-such-verb"]) == 2
    assert run(["weyl"]) == 2
    assert run(["weyl", "--elem", "4 3 1 2"]) == 2  # mirror violation
    assert run(["cone-check", "--cone", "lmin", "--lambda", "1,0|0"]) == 2  # missing p


def test_mirror_error_names_pair(capsys):
    code = run(["weyl", "--elem", "1 3 4 2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "w(1) + w(4)" in err


def test_farkas_blowup_exits_2_with_message(capsys, monkeypatch):
    import zipcone.linalg

    monkeypatch.setattr(zipcone.linalg, "_MAX_FM_ROWS", 10)
    code, out, err = invoke(
        capsys, "farkas", "--cone", "lmin-i", "--p", "3", "--target", "9,8,7,6,5|0"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: Fourier-Motzkin blow-up eliminating variable ")
    assert "of 6: " in err and "exceed the limit of 10" in err
    assert "Traceback" not in err


def assert_refused(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cone-check", "--cone", "lmin", "--lambda", "1,0|0"], "--cone lmin requires --p"),
        (["cone-check", "--cone", "lmin-i", "--lambda", "1,0|0"], "--cone lmin-i requires --p"),
        (
            ["cone-check", "--cone", "pha", "--elem", "4 3 2 1", "--lambda", "1,0|0"],
            "--cone pha requires --p and --elem",
        ),
        (["farkas", "--cone", "lmin-i", "--target", "1,0|0"], "--cone lmin-i requires --p"),
        (["farkas", "--cone", "n3", "--target", "1,0,0|0"], "--cone n3 requires --p"),
    ],
)
def test_cones_that_need_p_refuse_without_it(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: {message}"


def test_sweep_refuses_empty_rank_list(capsys):
    assert_refused(
        capsys, ["sweep", "--suite", "gamma", "--n", ","], "--n needs at least one rank"
    )


def test_sweep_refuses_rank_below_one(capsys):
    for scope, ranks, bad in (
        ("--suite gamma", "0", "0"),
        ("--suite bruhat --samples 0", "2,-1", "-1"),
    ):
        assert_refused(
            capsys,
            ["sweep", *scope.split()[:2], "--n", ranks],
            f"sweep {scope}: --n must be at least 1, got {bad}",
        )


def test_sweep_refuses_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        assert_refused(
            capsys,
            ["sweep", "--suite", "gamma", "--n", "2", "--jobs", jobs],
            f"sweep: --jobs must be at least 1, got {jobs}",
        )


def test_sweep_refuses_negative_samples(capsys):
    assert_refused(
        capsys,
        ["sweep", "--suite", "bruhat", "--n", "2", "--samples", "-1"],
        "sweep: --samples must be at least 0, got -1",
    )
    assert_refused(
        capsys,
        ["sweep", "--suite", "lmin-oracle", "--n", "2", "--p", "3", "--samples", "-1"],
        "sweep: --samples must be at least 0, got -1",
    )


def test_sweep_refuses_gamma_above_rank_limit(capsys, monkeypatch):
    import zipcone.cli

    limit = LIMITS["sweep", "--n", "--suite gamma"][1]

    def no_sweep(*args, **kwargs):
        raise AssertionError("a refused rank must sweep nothing")

    monkeypatch.setattr(zipcone.cli, "gamma_suite", no_sweep)
    assert_refused(
        capsys,
        ["sweep", "--suite", "gamma", "--n", f"2,{limit + 1}"],
        f"sweep --suite gamma: --n must be at most {limit}, got {limit + 1}",
    )
    with pytest.raises(AssertionError, match="sweep nothing"):
        run(["sweep", "--suite", "gamma", "--n", str(limit), "--jobs", "2"])


def test_sweep_refuses_samples_above_limit(capsys):
    limit = LIMITS["sweep", "--samples", None][1]
    assert_refused(
        capsys,
        ["sweep", "--suite", "bruhat", "--n", "3", "--samples", str(limit + 1)],
        f"sweep: --samples must be at most {limit}, got {limit + 1}",
    )


def test_sweep_refuses_jobs_above_limit_before_any_pool(capsys, monkeypatch):
    import multiprocessing

    limit = LIMITS["sweep", "--jobs", None][1]

    def no_pool(*args, **kwargs):
        raise AssertionError("a refused --jobs must start no worker pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert_refused(
        capsys,
        ["sweep", "--suite", "gamma", "--n", "6", "--jobs", str(limit + 1)],
        f"sweep: --jobs must be at most {limit}, got {limit + 1}",
    )


def test_sweep_with_zero_total_is_not_ok():
    from zipcone.sweeps import SweepResult

    empty = SweepResult("bruhat", {"n": 2}, total=0, passed=0, failures=(), lines=())
    assert not empty.ok
    assert empty.to_json_dict()["ok"] is False
    assert SweepResult("bruhat", {"n": 2}, 3, 3, (), ()).ok


def w0(n: int) -> str:
    return " ".join(map(str, range(2 * n, 0, -1)))


def identity(n: int) -> str:
    return " ".join(map(str, range(1, 2 * n + 1)))


def char(n: int, entry: str = "-1") -> str:
    return ",".join([entry] * n) + "|0"


# Each `LIMITS` row: the argv that carries a value v, and the work an
# accepted v reaches first (`zipcone.cli` names unless dotted, each patched
# to fail).  A list option carries v second, after an accepted value.
# Every cone-check row patches every cone build and membership test.
CONE_WORK = "_cone gs_member pha_wmax_member pha_w_member"
LIMIT_CASES = {
    ("weyl", "--n", "--canonical"): (lambda v: ["weyl", "--n", str(v), "--canonical"], "canonical_elements"),
    ("weyl", "--elem", None): (lambda v: ["weyl", "--elem", w0(v)], "zipcone.weylroot.WeylElem.length"),
    ("neighbors", "--elem", None): (lambda v: ["neighbors", "--elem", w0(v), "--json"], "classed_pairs"),
    ("path", "--n", None): (lambda v: ["path", "--n", str(v), "--p", "5"], "verify_path_lemmas"),
    ("path", "--p", None): (lambda v: ["path", "--n", "3", "--p", str(v)], "verify_path_lemmas"),
    ("cone-check", "--lambda", "--cone gs"): (
        lambda v: ["cone-check", "--cone", "gs", f"--lambda={char(v)}"], CONE_WORK
    ),
    ("cone-check", "--lambda", "--cone pha-wmax"): (
        lambda v: ["cone-check", "--cone", "pha-wmax", f"--lambda={char(v)}"], CONE_WORK
    ),
    ("cone-check", "--lambda", "--cone pha"): (
        lambda v: ["cone-check", "--cone", "pha", "--p", "5", "--elem", w0(v), f"--lambda={char(v)}"],
        CONE_WORK,
    ),
    ("cone-check", "--p", None): (
        lambda v: ["cone-check", "--cone", "lmin", "--p", str(v), "--lambda=1,0|0"], "lmin_member"
    ),
    **{
        ("farkas", "--target", f"--cone {cone}"): (
            lambda v, cone=cone: ["farkas", "--cone", cone, "--p", "5", f"--target={char(v, '1')}", "--json"],
            "_cone",
        )
        for cone in ("gs", "pha-wmax", "lmin-i")
    },
    ("farkas", "--p", None): (
        lambda v: ["farkas", "--cone", "lmin-i", "--p", str(v), "--target=1,0|0"], "_cone"
    ),
    ("verify-theorem", "--n", None): (
        lambda v: ["verify-theorem", "--n", str(v), "--p", "5", "--json"], "envelope_certificate"
    ),
    ("verify-theorem", "--p", None): (
        lambda v: ["verify-theorem", "--n", "3", "--p", str(v), "--json"], "envelope_certificate"
    ),
    ("enum-iw", "--n", None): (lambda v: ["enum-iw", "--n", str(v)], "enum_IW"),
    ("bruhat", "--elem", None): (lambda v: ["bruhat", "--elem", w0(v), "--elem2", w0(v)], "bruhat_leq"),
    ("bruhat", "--elem", "--preceq"): (
        lambda v: ["bruhat", "--elem", identity(v), "--elem2", identity(v), "--preceq"], "bruhat_leq"
    ),
    ("sweep", "--n", "--suite gamma"): (lambda v: ["sweep", "--suite", "gamma", "--n", f"2,{v}"], "gamma_suite"),
    ("sweep", "--n", "--suite bruhat"): (
        lambda v: ["sweep", "--suite", "bruhat", "--n", f"2,{v}", "--samples", "1000"], "bruhat_suite"
    ),
    ("sweep", "--n", "--suite bruhat --samples 0"): (
        lambda v: ["sweep", "--suite", "bruhat", "--n", f"2,{v}"], "bruhat_suite"
    ),
    ("sweep", "--n", "--suite lmin-oracle"): (
        lambda v: ["sweep", "--suite", "lmin-oracle", "--n", f"2,{v}", "--p", "3"], "lmin_oracle_suite"
    ),
    ("sweep", "--n", "--suite redundancy"): (
        lambda v: ["sweep", "--suite", "redundancy", "--n", f"2,{v}", "--p", "3"], "redundancy_suite"
    ),
    # the rank and the first p alone would run a 2 s suite before the refusal
    ("sweep", "--p", None): (
        lambda v: ["sweep", "--suite", "lmin-oracle", "--n", "5", "--p", f"3,{v}", "--samples", "300"],
        "lmin_oracle_suite",
    ),
    ("sweep", "--samples", None): (
        lambda v: ["sweep", "--suite", "bruhat", "--n", "3", "--samples", str(v)], "bruhat_suite"
    ),
    ("sweep", "--jobs", None): (
        lambda v: ["sweep", "--suite", "gamma", "--n", "6", "--jobs", str(v)],
        "gamma_suite multiprocessing.Pool",
    ),
}


class Reached(Exception):
    pass


def test_every_limit_has_a_case():
    assert list(LIMIT_CASES) == list(LIMITS)


def limit_id(key) -> str:
    verb, option, scope = key
    return " ".join(filter(None, (verb, scope, option)))


@pytest.mark.parametrize("key", LIMIT_CASES, ids=limit_id)
def test_limit_row(capsys, monkeypatch, key):
    """Each bound of a `LIMITS` row reaches the work; one past it exits 2
    with empty stdout, the one message and no traceback, before the work."""
    argv, works = LIMIT_CASES[key]

    def reached(*args, **kwargs):
        raise Reached

    for work in works.split():
        monkeypatch.setattr(work if "." in work else f"zipcone.cli.{work}", reached)
    verb, option, scope = key
    where = f"{verb} {scope}" if scope else verb
    what = f"the rank of {option}" if option in ("--elem", "--lambda", "--target") else option
    lo, hi = LIMITS[key]
    for bound, past, side in ((lo, -1, "at least"), (hi, 1, "at most")):
        if bound is None:
            continue
        with pytest.raises(Reached):
            run(argv(bound))
        code, out, err = invoke(capsys, *argv(bound + past))
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"error: {where}: {what} must be {side} {bound}, got {bound + past}"
        assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--json", "--out"])
def test_a_p_past_its_row_writes_no_byte(capsys, tmp_path, flag):
    """A 2,200-digit p once wrote 57,871 bytes of JSON and then exited 2 on
    CPython's 4,300-digit limit for int-to-str conversion; its row now
    refuses it before the first byte and before --out is opened."""
    out = tmp_path / "cert.json"
    argv = ["verify-theorem", "--n", "2", "--p", "9" * 2200, flag] + ([str(out)] if flag == "--out" else [])
    code, stdout, err = invoke(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: verify-theorem: --p must be at most 1000000000000000000, got 999")
    assert "Traceback" not in err and not out.exists()


def test_bruhat_refuses_a_rank_mismatch_before_reading_either_window(capsys, monkeypatch):
    """With --preceq only --elem has a row; an --elem2 of another rank is
    refused before `is_min_rep` reads it, which is O(n^3) at its rank."""

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr("zipcone.cli.is_min_rep", reached)
    code, out, err = invoke(capsys, "bruhat", "--elem", "1 2", "--elem2", identity(3000), "--preceq")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: rank mismatch: 1 vs 3000"
    assert "Traceback" not in err


def test_readme_limits_table_is_the_limits_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| input | min | max | why |\n|---|---|---|---|\n")[1].split("\n\n")[0]
    rows = [line.split(" | ")[:3] for line in table.splitlines()]
    assert rows == [
        [f"| `{limit_id(key)}`", *("-" if b is None else str(b) for b in bounds)]
        for key, bounds in LIMITS.items()
    ]


def test_closed_stdout_prints_no_traceback():
    """A reader that stops early (`| head -c 10`) closes the pipe; the CLI
    exits 1, as Python does on EPIPE, without a traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "zipcone", "verify-theorem", "--n", "12", "--p", "5", "--json"],
        env=subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head == b'{\n  "base_'
    assert "Traceback" not in err and "BrokenPipeError" not in err


def fraction_parse(text: str):
    """The CLI's reading of a character with every entry parsed as a
    Fraction: the reference for reading integral entries as ints."""
    body, _, tail = text.strip().partition("|")
    try:
        a = [Fraction(t.strip()) for t in body.split(",") if t.strip() != ""]
        b = Fraction(tail.strip())
    except (ValueError, ZeroDivisionError) as exc:
        return ValueError, f"cannot parse character {text!r}: {exc}"
    if all(x.denominator == 1 for x in [*a, b]):
        return Character(tuple(int(x) for x in a), int(b))
    return RatCharacter(tuple(a), b)


@pytest.mark.parametrize("part", ["3/1", "-0/1", "1.5", "1e2", " 4 ", "-0", "", "x", "1/0", "7"])
@pytest.mark.parametrize("place", ["{},2|0", "2,{}|1", "2|{}"])
def test_parse_char_reads_integral_entries_as_ints(place, part):
    text = place.format(part)
    want = fraction_parse(text)
    if isinstance(want, tuple):
        with pytest.raises(ValueError) as caught:
            _parse_char(text)
        assert str(caught.value) == want[1]
        return
    got = _parse_char(text)
    assert type(got) is type(want) and got == want
    if isinstance(got, Character):
        assert all(type(x) is int for x in got.vector())


def test_path_report_reuses_the_certificate_path(capsys, monkeypatch):
    import zipcone.cli
    from zipcone.hasse import verify_path_lemmas

    code, expected, _ = invoke(capsys, "verify-theorem", "--n", "4", "--p", "5", "--json", "--path-report")
    assert code == 0

    def no_walk(*args, **kwargs):
        raise AssertionError("--path-report must check the certificate's own path")

    monkeypatch.setattr(zipcone.cli, "verify_path_lemmas", no_walk)
    code, out, _ = invoke(capsys, "verify-theorem", "--n", "4", "--p", "5", "--json", "--path-report")
    assert code == 0 and out == expected
    walked = json.dumps(verify_path_lemmas(4, 5).to_json_dict())
    assert json.loads(out)["path_report"] == json.loads(walked)


def test_limits_accept_benchmark_and_readme_inputs(monkeypatch):
    def reached(*args, **kwargs):
        raise Reached

    for suite in ("gamma_suite", "bruhat_suite", "lmin_oracle_suite", "redundancy_suite"):
        monkeypatch.setattr(f"zipcone.cli.{suite}", reached)
    for argv in (
        ["sweep", "--suite", "gamma", "--n", "5", "--jobs", "1", "--json"],
        ["sweep", "--suite", "bruhat", "--n", "5", "--samples", "20000", "--seed", "3"],
        ["sweep", "--suite", "gamma", "--n", "4", "--jobs", "4"],
        ["sweep", "--suite", "lmin-oracle", "--n", "4", "--p", "3", "--samples", "1000"],
        ["sweep", "--suite", "redundancy", "--n", "3", "--p", "2,3,5", "--samples", "200"],
    ):
        with pytest.raises(Reached):
            run(argv)


def test_cone_check_refuses_n_that_differs_from_lambda(capsys):
    assert_refused(
        capsys,
        ["cone-check", "--n", "5", "--cone", "gs", "--lambda", "1,2,3|0"],
        "--n is 5 but --lambda has rank 3",
    )
    code, out, _ = invoke(
        capsys, "cone-check", "--n", "3", "--p", "5", "--cone", "lmin-i", "--lambda", "1,1,-25|1"
    )
    assert code == 0 and out == "member: true\n"


def test_farkas_refuses_n_that_differs_from_target(capsys):
    assert_refused(
        capsys,
        ["farkas", "--n", "7", "--cone", "pha-wmax", "--target", "1,1|0"],
        "--n is 7 but --target has rank 2",
    )
    code, _, _ = invoke(capsys, "farkas", "--n", "2", "--cone", "pha-wmax", "--target", "1,1|0")
    assert code == 0


def test_verify_theorem_refuses_unwritable_out(capsys, tmp_path, monkeypatch):
    import zipcone.cli

    def never(*args):
        raise AssertionError("the certificate was built for an unwritable --out")

    # the path is refused before the build, so the build is never reached
    monkeypatch.setattr(zipcone.cli, "envelope_certificate", never)
    for target, reason in (
        (tmp_path / "missing" / "cert.json", "No such file or directory"),
        (tmp_path, "Is a directory"),
    ):
        assert_refused(
            capsys,
            ["verify-theorem", "--n", "2", "--p", "3", "--out", str(target)],
            f"cannot write --out {target}: {reason}",
        )


def test_verify_theorem_refused_build_leaves_no_out_file(capsys, tmp_path):
    target = tmp_path / "cert.json"
    assert_refused(
        capsys, ["verify-theorem", "--n", "0", "--p", "5", "--out", str(target)], "rank must be at least 1"
    )
    assert not target.exists()


def test_verify_theorem_streams_without_check_records_or_a_joined_text(capsys, tmp_path, monkeypatch):
    """`verify-theorem` writes the certificate blocks from the ledger as
    they are rendered: it builds no `EnvelopeCheck`, and its bytes are
    still the payload dump."""
    from zipcone.certify import EnvelopeCheck, envelope_certificate
    from zipcone.hasse import verify_path_lemmas

    cert = envelope_certificate(4, 5)
    payload = {**cert.to_json_dict(), "path_report": verify_path_lemmas(4, 5).to_json_dict()}
    reference = json.dumps(payload, indent=2, sort_keys=True)

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI built a check record")

    monkeypatch.setattr(EnvelopeCheck, "__init__", refuse)
    target = tmp_path / "cert.json"
    argv = ["verify-theorem", "--n", "4", "--p", "5", "--path-report", "--out", str(target)]
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 0
    assert out == reference + "\n"
    assert target.read_text() == reference
    target.unlink()
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "envelope generators: 6 base + 6 path weights", "checks: 76/76 ok", "verdict: PASS",
    ]
    assert target.read_text() == reference


def test_verify_theorem_out_failing_mid_stream_exits_2(capsys, tmp_path, monkeypatch):
    """A write to --out that fails after the first block ends the run with
    exit 2 and the --out message, no traceback; stdout stops at the last
    block the file took."""
    import builtins

    import zipcone.cli

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def close(self):
            self.fh.close()

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise OSError(28, "No space left on device")
            return self.fh.write(text)

    target = tmp_path / "cert.json"
    code, whole, _ = invoke(capsys, "verify-theorem", "--n", "3", "--p", "5", "--json")
    assert code == 0
    monkeypatch.setattr(zipcone.cli, "open", lambda *a, **k: FullDisk(builtins.open(*a, **k)), raising=False)
    for flags in ((), ("--json",)):
        code, out, err = invoke(capsys, "verify-theorem", "--n", "3", "--p", "5", "--out", str(target), *flags)
        assert code == 2
        assert f"error: cannot write --out {target}: No space left on device" in err
        assert "Traceback" not in err
        first = target.read_text()
        assert first and whole.startswith(first) and len(first) < len(whole) // 2
        assert out == (first if flags else "")


def test_verify_theorem_out_replaces_an_existing_file(capsys, tmp_path):
    target = tmp_path / "cert.json"
    target.write_text("x" * 100_000)
    code, out, _ = invoke(capsys, "verify-theorem", "--n", "2", "--p", "3", "--json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)
    assert out == target.read_text() + "\n"


SWEEPS_ACROSS_JOBS = [
    ("--suite", "gamma", "--n", "2"),
    ("--suite", "gamma", "--n", "3"),
    ("--suite", "gamma", "--n", "4"),
    ("--suite", "lmin-oracle", "--n", "3", "--p", "3", "--samples", "40", "--seed", "0"),
    ("--suite", "lmin-oracle", "--n", "3", "--p", "3", "--samples", "40", "--seed", "7"),
    ("--suite", "lmin-oracle", "--n", "3", "--p", "3", "--samples", "60", "--seed", "5"),
    ("--suite", "bruhat", "--n", "3", "--samples", "500", "--seed", "4"),
]


def sweep_json_across_jobs(flags):
    """The `sweep --json` stdout for --jobs 1, 2 and 3, each with its exit code."""
    outputs = []
    for jobs in ("1", "2", "3"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(["sweep", *flags, "--jobs", jobs, "--json"])
        outputs.append((code, buf.getvalue()))
    return outputs


@pytest.mark.parametrize("flags", SWEEPS_ACROSS_JOBS, ids=" ".join)
def test_sweep_json_is_byte_identical_across_jobs(flags):
    outputs = sweep_json_across_jobs(flags)
    assert outputs[0][0] == 0
    assert outputs[1:] == outputs[:1] * 2


@settings(max_examples=10, deadline=None)
@given(
    flags=st.one_of(
        st.integers(1, 3).map(lambda n: ("--suite", "gamma", "--n", str(n))),
        st.tuples(st.integers(1, 3), st.integers(1, 40), st.integers(0, 2**31 - 1)).map(
            lambda t: (
                "--suite", "lmin-oracle", "--n", str(t[0]), "--p", "3",
                "--samples", str(t[1]), "--seed", str(t[2]),
            )
        ),
    )
)
def test_sweep_json_is_byte_identical_across_jobs_property(flags):
    outputs = sweep_json_across_jobs(flags)
    assert outputs[0][0] == 0
    assert outputs[1:] == outputs[:1] * 2


def subprocess_env() -> dict:
    """The environment of a child Python that imports zipcone from the path
    this suite imports it from."""
    src = str(Path(zipcone.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_loads_every_module_and_no_dataclasses():
    """`import zipcone.cli` loads every package module, so each verb's first
    call pays no import, and never `dataclasses` or `inspect`, whose
    imports cost about a fifth of a whole invocation, nor `typing`.  The
    argument parser, built on the first `run`, does not import `shutil`
    either: argparse reads the terminal width through it, which only help
    and usage text need.  -S keeps site hooks from importing modules the
    package does not."""
    package = Path(zipcone.__file__).resolve().parent
    code = (
        f"import sys; sys.path.insert(0, {str(package.parent)!r}); import zipcone.cli; "
        "print(' '.join(sys.modules)); zipcone.cli._build_parser(); print(' '.join(sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    imported, built = (set(line.split()) for line in out.splitlines())
    assert not imported & {"dataclasses", "inspect", "typing"}
    assert not built & {"dataclasses", "inspect", "typing", "shutil"}
    modules = {f"zipcone.{p.stem}" for p in package.glob("*.py") if not p.stem.startswith("__")}
    assert modules <= imported


def test_python_dash_m_runs_the_cli(capsys):
    """`python -m zipcone` is the CLI, with the package found on the path
    this suite imports it from."""
    argv = ["path", "--n", "2", "--p", "2"]
    done = subprocess.run(
        [sys.executable, "-m", "zipcone", *argv],
        env=subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and out
    assert (done.returncode, done.stdout) == (code, out)


def test_importing_the_cli_leaves_multiprocessing_unimported():
    """Only `sweep --jobs` above 1 needs a worker pool, so importing the CLI
    must not pay for `multiprocessing`."""
    code = "import sys, zipcone.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "[]\n")


# ---------------------------------------------------------------------------
# the warm in-process path: one parser and each named cone once per process


def test_run_builds_its_parser_once(capsys, monkeypatch):
    import zipcone.cli as cli

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for argv in (["weyl", "--n", "2", "--canonical"], ["enum-iw", "--n", "2"], ["no-such-verb"]):
        invoke(capsys, *argv)
    assert built.count("zipcone") == 1
    # positive control: the counter sees a second build once the cache is gone
    cli._build_parser.cache_clear()
    invoke(capsys, "enum-iw", "--n", "2")
    assert built.count("zipcone") == 2


def test_cli_builds_each_named_cone_once(capsys, monkeypatch):
    import zipcone.cli as cli

    built = []
    real = cli.pha_wmax_cone

    def counting_cone(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(cli, "pha_wmax_cone", counting_cone)
    cli._cone.cache_clear()
    for argv in (
        ["farkas", "--cone", "pha-wmax", "--target", "1,0,0|0"],
        ["cone-check", "--cone", "pha-wmax", "--lambda=-1,0,-2|1"],
        ["farkas", "--cone", "pha-wmax", "--target", "1,2,0|0", "--p", "5"],
        ["cone-check", "--cone", "pha-wmax", "--lambda=-1,0,-2|1", "--p", "3"],
    ):
        assert invoke(capsys, *argv)[0] == 0
    assert built == [3]
    # positive control: another rank is another cone
    assert invoke(capsys, "farkas", "--cone", "pha-wmax", "--target", "1,0|0")[0] == 0
    assert built == [3, 2]


def test_warm_parser_carries_nothing_between_calls(capsys):
    import zipcone.cli as cli

    valid = ("weyl", "--n", "2", "--elem", "4 3 2 1")
    cli._build_parser.cache_clear()
    alone = invoke(capsys, *valid)
    assert alone == (0, "window: 4 3 2 1\nlength: 4\n", "")
    assert invoke(capsys, *valid, "--no-such-flag")[0] == 2
    assert invoke(capsys, "cone-check", "--cone", "no-such-cone", "--lambda", "1|0")[0] == 2
    assert invoke(capsys, *valid) == alone
    assert invoke(capsys, *valid, "--length") == (0, "4\n", "")
    assert invoke(capsys, *valid) == alone


def test_cli_cone_cache_leaves_direct_construction_checked(capsys, monkeypatch):
    """The CLI's cone cache must not reach `cones.pha_wmax_cone`: a direct
    call still checks its closed-form certificates."""
    from zipcone import cones

    assert invoke(capsys, "farkas", "--cone", "pha-wmax", "--target", "1,0,0|0")[0] == 0
    good = cones.coroot_form_multipliers
    monkeypatch.setattr(
        cones, "coroot_form_multipliers", lambda alpha, n: tuple(m + 1 for m in good(alpha, n))
    )
    with pytest.raises(AssertionError):
        cones.pha_wmax_cone(3)


SMALL_VERBS = [
    ["weyl", "--elem", "4 6 5 2 1 3", "--length", "--inverse", "--act=1,-2,3/2|1"],
    ["weyl", "--n", "3", "--canonical", "--elem", "4 6 5 2 1 3"],
    ["neighbors", "--elem", "4 6 5 2 1 3"],
    ["neighbors", "--elem", "1 2 3 4"],
    ["cone-check", "--cone", "gs", "--lambda=0,-1,-1|2"],
    ["cone-check", "--cone", "lmin", "--p", "3", "--lambda=1,-4,-4|0"],
    ["cone-check", "--cone", "lmin-i", "--p", "3", "--lambda=1,-4,-4|0"],
    ["cone-check", "--cone", "pha-wmax", "--lambda=0,-1/2,-1|2"],
    ["cone-check", "--cone", "pha", "--p", "5", "--elem", "4 6 5 2 1 3", "--lambda=1,-3/2,2|1"],
    ["farkas", "--cone", "gs", "--target=1,1,1|0"],
    ["farkas", "--cone", "lmin-i", "--p", "3", "--target=1,-2,0|0"],
    ["farkas", "--cone", "n3", "--p", "2", "--target=4,1,2|0"],
    ["enum-iw", "--n", "3"],
    ["bruhat", "--elem", "1 3 2 4", "--elem2", "3 4 1 2", "--preceq"],
    ["sweep", "--suite", "gamma", "--n", "2,3"],
    ["sweep", "--suite", "redundancy", "--n", "2", "--p", "3", "--samples", "20", "--seed", "4"],
]


@pytest.mark.parametrize("argv", SMALL_VERBS, ids=" ".join)
def test_small_verb_json_is_the_json_dumps_text(capsys, monkeypatch, argv):
    """Each small verb's payload, as `_emit` receives it, renders to the
    text of `json.dumps(payload, indent=2, sort_keys=True)`."""
    import zipcone.cli

    seen = []
    real = zipcone.cli.json_text

    def checked(payload):
        seen.append(payload)
        return real(payload)

    monkeypatch.setattr(zipcone.cli, "json_text", checked)
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code in (0, 1) and len(seen) == 1
    assert out == json.dumps(seen[0], indent=2, sort_keys=True) + "\n"
