import json

from zipcone.cli import run


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


def test_sweep_refuses_rank_below_one(capsys):
    for suite, ranks, bad in (("gamma", "0", "0"), ("bruhat", "2,-1", "-1")):
        assert_refused(
            capsys,
            ["sweep", "--suite", suite, "--n", ranks],
            f"--n must be at least 1, got {bad}",
        )


def test_sweep_refuses_empty_rank_list(capsys):
    assert_refused(
        capsys, ["sweep", "--suite", "gamma", "--n", ","], "--n needs at least one rank"
    )


def test_sweep_refuses_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        assert_refused(
            capsys,
            ["sweep", "--suite", "gamma", "--n", "2", "--jobs", jobs],
            f"--jobs must be at least 1, got {jobs}",
        )


def test_sweep_refuses_negative_samples(capsys):
    assert_refused(
        capsys,
        ["sweep", "--suite", "bruhat", "--n", "2", "--samples", "-1"],
        "--samples must be at least 0, got -1",
    )
    assert_refused(
        capsys,
        ["sweep", "--suite", "lmin-oracle", "--n", "2", "--p", "3", "--samples", "-1"],
        "--samples must be at least 0, got -1",
    )


def test_sweep_refuses_redundancy_below_rank_two(capsys):
    assert_refused(
        capsys,
        ["sweep", "--suite", "redundancy", "--n", "1", "--p", "3"],
        "--suite redundancy needs --n at least 2",
    )


def test_sweep_with_zero_total_is_not_ok():
    from zipcone.sweeps import SweepResult

    empty = SweepResult("bruhat", {"n": 2}, total=0, passed=0, failures=(), lines=())
    assert not empty.ok
    assert empty.to_json_dict()["ok"] is False
    assert SweepResult("bruhat", {"n": 2}, 3, 3, (), ()).ok
