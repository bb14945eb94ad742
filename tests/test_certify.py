import json
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import certificate_from_json
from zipcone import cones, hasse, linalg, weylroot
from zipcone.certify import Certificate, EnvelopeCheck, envelope_certificate
from zipcone.cones import lmin_member
from zipcone.hasse import check_path_steps, descent_path, verify_path_lemmas
from zipcone.weylroot import Character


def replace(record, **changes):
    """A copy of a record with some fields changed."""
    fields = {f: getattr(record, f) for f in type(record).__annotations__}
    return type(record)(**{**fields, **changes})


def line(check: EnvelopeCheck) -> tuple:
    """A check as a certificate ledger line: its fields, in order."""
    return tuple(getattr(check, f) for f in type(check).__annotations__)


def test_envelope_rank1_trivial_pass():
    cert = envelope_certificate(1, 2)
    assert cert.passed
    assert cert.path == ()
    assert cert.ha_weights == ()
    gens = {str(g) for g in cert.base_generators}
    assert gens == {"-1|0", "0|1", "0|-1"}


def test_envelope_rank2_example():
    cert = envelope_certificate(2, 3)
    assert cert.passed
    assert [str(g) for g in cert.base_generators] == [
        "-1,0|0",
        "0,-1|0",
        "0,0|1",
        "0,0|-1",
    ]
    assert [str(h) for h in cert.ha_weights] == ["1,-3|0"]
    # the step weight sits on the boundary of the first prefix functional
    by_label = {}
    for c in cert.checks:
        if c.generator is not None and str(c.generator) == "1,-3|0":
            by_label[c.label] = c.value
    assert by_label["prefix-1"] == 0
    assert by_label["prefix-2"] == -6


def test_envelope_checks_cover_all_generators():
    cert = envelope_certificate(3, 5)
    gens = {str(g) for g in cert.base_generators} | {str(h) for h in cert.ha_weights}
    checked = {str(c.generator) for c in cert.checks if c.generator is not None}
    assert checked == gens
    # every generator is a genuine orbit-cone member
    for g in list(cert.base_generators) + list(cert.ha_weights):
        assert lmin_member(g, 5)


def test_envelope_implications_carry_multipliers():
    cert = envelope_certificate(3, 5)
    imps = [c for c in cert.checks if c.multipliers is not None]
    assert len(imps) == 3  # one per prefix functional
    for c in imps:
        assert c.ok
        # base system rows are a_i <= 0; recombining gives the functional back
        assert [int(m) for m in c.multipliers] == list(c.functional[:-1])


def test_envelope_rejects_bad_parameters():
    with pytest.raises(ValueError):
        envelope_certificate(0, 3)
    with pytest.raises(ValueError):
        envelope_certificate(2, 1)


def test_certificate_json_round_trip():
    cert = envelope_certificate(2, 3)
    data = cert.to_json_dict()
    # documented schema fields
    assert set(data) == {
        "n",
        "p",
        "path",
        "base_generators",
        "ha_weights",
        "checks",
        "verdict",
    }
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data
    rebuilt = certificate_from_json(json.loads(text))
    assert rebuilt.to_json_dict() == data
    assert rebuilt.passed


def test_certificate_path_entries():
    cert = envelope_certificate(3, 5)
    first = cert.to_json_dict()["path"][0]
    assert first["window"] == "6 5 4 3 2 1"
    assert first["beta"] == "e1-e2"
    assert first["chi"] == "1,0,0|0"
    assert first["ha"] == "1,0,-5|0"
    assert first["ha_closed_form"] == "0,1,-5|0"
    assert first["first_term_relation"] == "first_index_shift"


def test_loader_keeps_the_files_step_closed_forms():
    text = "".join(envelope_certificate(4, 5).iter_json())
    data = json.loads(text)
    data["path"][2]["first_term_relation"] = "other"
    data["path"][2]["ha_closed_form"] = "9,-9,9,-9|0"
    edited = json.dumps(data, indent=2, sort_keys=True)
    assert edited != text
    assert "".join(certificate_from_json(json.loads(edited)).iter_json()) == edited


def count_calls(monkeypatch, *funcs) -> Counter:
    """Replace every copy of each function that a zipcone module holds with a
    wrapper counting its calls by name."""
    calls: Counter = Counter()
    for func in funcs:
        def counting(*args, _func=func, **kwargs):
            calls[_func.__name__] += 1
            return _func(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "zipcone" or name.startswith("zipcone."):
                for attr, value in list(vars(module).items()):
                    if value is func:
                        monkeypatch.setattr(module, attr, counting)
    return calls


def test_envelope_build_pairs_no_roots(monkeypatch):
    calls = count_calls(
        monkeypatch, weylroot.pairing, cones.orbit_subset_functional
    )
    envelope_certificate(8, 5)
    assert calls == Counter()
    verify_path_lemmas(3, 5)  # the wrappers are live: this pairs chi with E_w
    assert calls["pairing"] > 0


def test_envelope_build_makes_no_dense_dot(monkeypatch):
    calls = count_calls(monkeypatch, linalg.dot)
    envelope_certificate(12, 5)
    assert calls == Counter()
    cones.pha_wmax_cone(3).member((-1, 0, -2, 1))  # the wrapper is live
    assert calls["dot"] > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_sparse_check_values_equal_dense_dots(p):
    for n in range(1, 13):
        evaluations = [c for c in envelope_certificate(n, p).checks if c.generator is not None]
        assert evaluations
        for c in evaluations:
            assert type(c.value) is int
            assert c.value == linalg.dot(c.functional, c.generator.vector())
            assert c.ok == (c.value <= 0)


def test_certificate_text_reads_the_steps_closed_forms(monkeypatch):
    cert = envelope_certificate(8, 5)
    calls = count_calls(monkeypatch, hasse.ha_closed_form, hasse.compare_step_weights)
    "".join(cert.iter_json())
    assert calls == Counter()
    descent_path(3, 5)  # the wrappers are live: the path computes both
    assert calls["ha_closed_form"] > 0 and calls["compare_step_weights"] > 0


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_envelope_passes_small_grid(n, p):
    assert envelope_certificate(n, p).passed


def reference_json(cert: Certificate, path_report=None) -> str:
    """The text `iter_json` must join to: `json.dumps` over the whole payload."""
    payload = cert.to_json_dict()
    if path_report is not None:
        payload["path_report"] = path_report
    return json.dumps(payload, indent=2, sort_keys=True)


def assert_same_text(got: str, want: str) -> None:
    """Fail on the first differing line; a diff of two certificate texts
    would take minutes."""
    if got != want:
        got_lines, want_lines = got.split("\n"), want.split("\n")
        k = next(
            (k for k, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
            min(len(got_lines), len(want_lines)),
        )
        pytest.fail(f"line {k + 1}: {got_lines[k:k + 1]} != {want_lines[k:k + 1]}")


def assert_renders_like_reference(cert: Certificate) -> None:
    text = "".join(cert.iter_json())
    assert_same_text(text, reference_json(cert))
    assert_same_text("".join(certificate_from_json(json.loads(text)).iter_json()), text)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10), p=st.sampled_from([2, 3, 5, 7, 13]))
def test_to_json_matches_the_payload_dump(n, p):
    assert_renders_like_reference(envelope_certificate(n, p))


@pytest.mark.parametrize("n, p", [(1, 2), (2, 3), (4, 5)])
def test_to_json_matches_the_payload_dump_with_a_path_report(n, p):
    cert = envelope_certificate(n, p)
    report = verify_path_lemmas(n, p)
    assert_same_text("".join(cert.iter_json(report)), reference_json(cert, report.to_json_dict()))


# ledger lines that envelope_certificate never writes
HAND_BUILT_CHECKS = {
    "empty multipliers": EnvelopeCheck(label="zero-from-base", functional=(0, 0, 0), multipliers=(), ok=True),
    "no generator, no value": EnvelopeCheck(label="bare", functional=(1, 2, 0)),
    "escaped label": EnvelopeCheck(
        label='quote " backslash \\ tab \t caf\u00e9',
        functional=(-2, 0, 0),
        generator=Character((1, -3), 0),
        value=Fraction(-2),
        ok=True,
    ),
}


@pytest.mark.parametrize("kind", sorted(HAND_BUILT_CHECKS))
def test_to_json_matches_the_payload_dump_on_hand_built_checks(kind):
    real = envelope_certificate(2, 3)
    check = line(HAND_BUILT_CHECKS[kind])
    assert_renders_like_reference(replace(real, ledger=real.ledger[:3] + (check,) + real.ledger[3:]))
    assert_renders_like_reference(replace(real, ledger=(check,)))


def test_to_json_matches_the_payload_dump_on_a_failed_or_empty_ledger():
    real = envelope_certificate(2, 3)
    bad = line(replace(real.checks[0], value=Fraction(5), ok=False))
    failed = replace(real, ledger=(bad,) + real.ledger[1:], verdict="FAIL")
    assert not failed.passed
    assert_renders_like_reference(failed)
    assert_renders_like_reference(replace(real, ledger=()))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10), p=st.sampled_from([2, 3, 5, 7, 13]), with_report=st.booleans())
def test_iter_json_blocks_join_to_the_payload_dump(n, p, with_report):
    """The blocks join to the reference text, with one block per
    generator's ledger lines, so a writer of the blocks never holds more
    than one generator's lines at a time."""
    cert = envelope_certificate(n, p)
    report = check_path_steps(n, p, cert.path) if with_report else None
    blocks = list(cert.iter_json(report))
    assert_same_text("".join(blocks), reference_json(cert, report and report.to_json_dict()))
    generators = len(cert.base_generators) + len(cert.ha_weights)
    assert sum('"generator": "' in b for b in blocks) == generators
    assert all(b.count('"generator": "') == n + 2 - (n == 1) for b in blocks if '"generator": "' in b)


def test_the_build_and_the_text_make_no_check_records(monkeypatch):
    """The ledger is plain tuples; `checks` builds the records on first read."""
    def refuse(*args, **kwargs):
        raise AssertionError("an EnvelopeCheck was built")

    with monkeypatch.context() as m:
        m.setattr(EnvelopeCheck, "__init__", refuse)
        cert = envelope_certificate(5, 3)
        text = "".join(cert.iter_json())
    assert "checks" not in vars(cert)
    assert [line(c) for c in cert.checks] == list(cert.ledger)
    assert cert.checks is cert.checks
    assert text == reference_json(cert)
