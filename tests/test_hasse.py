import enum
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import dense_preimage, identity, random_element, root_set, weight, weyl_elements
from zipcone.bruhat import NeighborSet, is_separating, lower_neighbors
from zipcone.cones import lmin_member
from zipcone.hasse import (
    _reference_mask,
    _restored_long_mask,
    anchor_element,
    compare_step_weights,
    descent_path,
    ha_closed_form,
    PathReport,
    hasse_map,
    json_text,
    step_weight,
    verify_path_lemmas,
)
from zipcone.weylroot import (
    Character,
    Root,
    WeylElem,
    act,
    canonical_elements,
    pairing,
)


def replace(record, **changes):
    """A copy of a record with some fields changed."""
    fields = {f: getattr(record, f) for f in type(record).__annotations__}
    return type(record)(**{**fields, **changes})


def test_hasse_map_rejects_small_p():
    with pytest.raises(ValueError):
        hasse_map(identity(2), 1)


def test_hasse_map_zero_and_linearity():
    w0 = canonical_elements(2).w0
    zero = Character((0, 0), 0)
    assert dense_preimage(zero, w0, 3).to_integral() == zero
    x = Character((2, -1), 1)
    y = Character((0, 4), 1)
    both = [a + b for a, b in zip(dense_preimage(x, w0, 3).vector(), dense_preimage(y, w0, 3).vector())]
    assert dense_preimage(Character((2, 3), 2), w0, 3).vector() == tuple(both)


def test_hasse_map_example():
    w0 = canonical_elements(2).w0
    e1 = Character.unit(2, 1)
    assert weight(w0, 3, e1) == Character((1, -3), 0)
    assert dense_preimage(Character((1, -3), 0), w0, 3).to_integral() == e1


def test_hasse_map_at_wmax_is_scaled_action():
    for n, p in [(2, 3), (3, 5)]:
        wmax = canonical_elements(n).wmax
        for k in range(1, n + 1):
            e = Character.unit(n, k)
            scaled = Character(tuple((p - 1) * x for x in act(wmax, e).a), 0)
            assert dense_preimage(scaled, wmax, p).to_integral() == e


def test_hasse_map_preserves_parity():
    rng = random.Random(2)
    for n, p in [(2, 2), (3, 3), (4, 5)]:
        for w in [canonical_elements(n).w0, canonical_elements(n).wmax]:
            for _ in range(25):
                a = [rng.randint(-9, 9) for _ in range(n)]
                b = sum(a) % 2 + 2 * rng.randint(-2, 2)
                chi = Character(tuple(a), b)
                assert chi.satisfies_parity
                lam = weight(w, p, chi)
                assert lam.satisfies_parity
                assert dense_preimage(lam, w, p).to_integral() == chi


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_hasse_map_injective(n, p):
    # the dense solve raises unless the matrix is invertible
    chi = Character(tuple(range(1, n + 1)), 1)
    for w in weyl_elements(n):
        assert dense_preimage(weight(w, p, chi), w, p).to_integral() == chi


def test_hasse_map_b_coordinate():
    w0 = canonical_elements(3).w0
    b = Character((0, 0, 0), 1)
    assert weight(w0, 5, b) == Character((0, 0, 0), 4)
    assert dense_preimage(Character((0, 0, 0), 4), w0, 5).to_integral() == b


def test_inverse_apply_round_trip():
    rng = random.Random(9)
    for n, p in [(2, 2), (3, 3), (4, 5)]:
        for w in [canonical_elements(n).w0, canonical_elements(n).wmax, random_element(n, rng)]:
            for _ in range(20):
                chi = Character(tuple(rng.randint(-9, 9) for _ in range(n)), rng.randint(-4, 4))
                assert dense_preimage(weight(w, p, chi), w, p).to_integral() == chi


def test_anchor_elements():
    assert anchor_element(3, 1) == WeylElem.longest(3)
    assert anchor_element(3, 2) == WeylElem.parse("5 6 4 3 1 2")
    assert anchor_element(3, 3) == canonical_elements(3).wmax
    assert anchor_element(4, 3) == WeylElem.parse("6 7 8 5 4 1 2 3")
    with pytest.raises(ValueError):
        anchor_element(3, 4)


def test_descent_path_rank2():
    steps = descent_path(2, 3)
    assert len(steps) == 1
    (step,) = steps
    assert step.w == WeylElem.parse("4 3 2 1")
    assert step.beta == Root.diff(1, 2)
    assert step.chi == Character.unit(2, 1)
    assert step.ha == Character((1, -3), 0)


def test_descent_path_rank3_lengths():
    steps = descent_path(3, 5)
    assert [s.w.length() for s in steps] == [9, 8, 7]
    assert [str(s.w) for s in steps] == ["6 5 4 3 2 1", "5 6 4 3 1 2", "4 6 5 2 1 3"]


def test_descent_path_edge_cases():
    assert descent_path(1, 3) == []
    with pytest.raises(ValueError):
        descent_path(2, 1)
    with pytest.raises(ValueError):
        descent_path(0, 3)


@pytest.mark.parametrize("n", range(2, 9))
def test_descent_path_step_count(n):
    assert len(descent_path(n, 2)) == n * (n - 1) // 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_descent_path_separating(n):
    for step in descent_path(n, 2):
        assert is_separating(lower_neighbors(step.w))


def test_ha_closed_form_examples():
    p = 11
    assert ha_closed_form(3, p, 1, 0) == Character((0, 1, -p), 0)
    assert ha_closed_form(3, p, 2, 1) == Character((0, 1 - p, 0), 0)
    with pytest.raises(ValueError):
        ha_closed_form(3, 2, 3, 0)
    with pytest.raises(ValueError):
        ha_closed_form(3, 2, 2, 2)


def test_step_weight_examples():
    p = 11
    assert step_weight(3, p, 1, 0) == Character((1, 0, -p), 0)
    assert step_weight(3, p, 2, 1) == Character((1, -p, 0), 0)
    assert step_weight(2, 3, 1, 0) == Character((1, -3), 0)
    with pytest.raises(ValueError):
        step_weight(3, 2, 3, 0)
    with pytest.raises(ValueError):
        step_weight(3, 2, 2, 2)
    with pytest.raises(ValueError):
        step_weight(3, 1, 1, 0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 64), p=st.sampled_from([2, 3, 5, 7]))
def test_step_weight_is_the_computed_weight(n, p):
    """The closed form e_{d-i} - p*e_{n-i} equals, at every step, the weight
    -w(chi) + p*wmax(chi) computed through the full signed-permutation
    action, independently of the window reads descent_path makes."""
    wmax = canonical_elements(n).wmax
    steps = descent_path(n, p)
    assert [(s.d, s.i) for s in steps] == [(d, i) for d in range(1, n) for i in range(d)]
    for s in steps:
        closed = step_weight(n, p, s.d, s.i)
        assert s.ha == closed
        assert closed == weight(s.w, p, s.chi)
        # the two window facts of the proof in step_weight's docstring
        assert s.w(s.i + 1) == 2 * n + 1 - (s.d - s.i)
        assert wmax(s.i + 1) == n + 1 + s.i


def test_descent_path_checks_the_closed_form_step_weight(monkeypatch):
    import zipcone.hasse as hasse

    real = hasse.step_weight

    def doubled(n, p, d, i):
        return Character(tuple(2 * x for x in real(n, p, d, i).a), 0)

    monkeypatch.setattr(hasse, "step_weight", doubled)
    with pytest.raises(AssertionError, match="step weight"):
        descent_path(3, 5)
    monkeypatch.setattr(hasse, "step_weight", real)
    assert len(descent_path(3, 5)) == 3


def test_compare_step_weights_relations():
    n, p, d, i = 4, 5, 2, 1
    closed = ha_closed_form(n, p, d, i)
    assert compare_step_weights(n, p, d, i, closed) == "equal"
    assert compare_step_weights(n, p, d, i, step_weight(n, p, d, i)) == "first_index_shift"
    assert compare_step_weights(n, p, d, i, Character((1, 0, 0, -p), 0)) == "other"
    shifted_with_b = Character(step_weight(n, p, d, i).a, 1)
    assert compare_step_weights(n, p, d, i, shifted_with_b) == "other"
    with pytest.raises(ValueError):
        compare_step_weights(n, p, d, i, Character((1, -p, 0), 0))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_weights_land_in_orbit_cone(n, p):
    for step in descent_path(n, p):
        assert lmin_member(step.ha, p)
        assert lmin_member(ha_closed_form(n, p, step.d, step.i), p)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_first_index_shift_everywhere(n):
    # computed first term e_{d-i} vs closed-form e_{d-i+1}; the -p e_{n-i}
    # terms always agree
    for p in (2, 3):
        for step in descent_path(n, p):
            rel = compare_step_weights(n, p, step.d, step.i, step.ha)
            assert rel == "first_index_shift"
            assert step.ha.a[n - step.i - 1] == -p
            # the closed forms the path carries are the ones computed here
            assert step.first_term_relation == rel
            assert step.ha_closed_form == ha_closed_form(n, p, step.d, step.i)


def test_chi_orthogonality_on_computed_esets():
    # pairing(chi, beta) = 1 and 0 on the rest of the computed neighbor set;
    # holds for the actual sets, including the long roots the closed form
    # misses at d = n-1
    for n in (2, 3, 4, 5):
        for step in descent_path(n, 2):
            roots = root_set(lower_neighbors(step.w))
            assert step.beta in roots
            assert pairing(step.chi, step.beta) == 1
            for alpha in roots:
                if alpha != step.beta:
                    assert pairing(step.chi, alpha) == 0


def eset_reference(n, d, i):
    return root_set(NeighborSet(identity(n), _reference_mask(n, d, i)))


def eset_verified(n, d, i):
    return root_set(NeighborSet(identity(n), _reference_mask(n, d, i) | _restored_long_mask(n, d, i)))


def test_eset_reference_rank2():
    assert eset_reference(2, 1, 0) == {Root.diff(1, 2), Root.long(2)}
    assert eset_verified(2, 1, 0) == eset_reference(2, 1, 0)


def test_eset_closed_forms_rank3():
    assert eset_reference(3, 1, 0) == {Root.diff(1, 2), Root.diff(2, 3), Root.long(3)}
    assert eset_reference(3, 2, 0) == {Root.diff(1, 3), Root.diff(2, 3), Root.long(3)}
    assert eset_reference(3, 2, 1) == {Root.diff(2, 3), Root.long(3)}
    assert eset_verified(3, 2, 1) == {Root.diff(2, 3), Root.long(1), Root.long(3)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_path_element_has_n_lower_neighbors(n):
    for step in descent_path(n, 2):
        assert len(root_set(lower_neighbors(step.w))) == n


def test_verify_path_lemmas_rank2():
    report = verify_path_lemmas(2, 3)
    assert report.all_passed
    assert report.reference_mismatches == ()
    (step,) = report.steps
    assert step.computed_eset == ("e1-e2", "2e2")
    assert step.matches_reference


def test_verify_path_lemmas_rank3():
    report = verify_path_lemmas(3, 5)
    assert report.all_passed
    # the closed-form reference misses long roots exactly at d=n-1, i>=1
    assert report.reference_mismatches == ((2, 1),)
    by_index = {(s.d, s.i): s for s in report.steps}
    assert by_index[(2, 1)].extra_vs_reference == ("2e1",)
    assert by_index[(2, 1)].matches_verified


@pytest.mark.parametrize("n", [4, 5])
def test_verify_path_lemmas_reference_gap_pattern(n):
    report = verify_path_lemmas(n, 3)
    assert report.all_passed
    expected = tuple((n - 1, i) for i in range(1, n - 1))
    assert report.reference_mismatches == expected
    for s in report.steps:
        if s.d == n - 1 and s.i >= 1:
            assert s.extra_vs_reference == tuple(f"2e{k}" for k in range(1, s.i + 1))


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_path_report_to_json_matches_the_payload_dump(p):
    # n = 1 has no steps
    for n in range(1, 19):
        report = verify_path_lemmas(n, p)
        assert "".join(report.iter_json()) == json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


def test_path_report_to_json_matches_the_payload_dump_on_a_hand_built_report():
    """Values the path never produces: false flags, a non-empty extra list,
    reference mismatches, an empty root list and a string JSON escapes."""
    real = verify_path_lemmas(3, 5)
    step = real.steps[0]
    failed = replace(
        step,
        computed_eset=(),
        extra_vs_reference=("2e1", "e1+e2"),
        matches_reference=False,
        matches_verified=False,
        oracle_agrees=False,
        separating=False,
        chi_orthogonal=False,
        first_term_relation='other "quoted" \\ caf\u00e9',
        second_term_agrees=False,
        pipeline_in_lmin=False,
        closed_form_in_lmin=False,
    )
    for report in (PathReport(3, 5, (failed,) + real.steps), PathReport(3, 5, (failed,))):
        assert not report.all_passed and report.reference_mismatches
        assert "".join(report.iter_json()) == json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_path_report_streams_one_block_per_step(n):
    """The head, one block per step and the close; at depth 1 the text is
    the depth-0 text with every line after the first indented once more,
    as an enclosing object's value."""
    report = verify_path_lemmas(n, 3)
    blocks = list(report.iter_json())
    assert len(blocks) == len(report.steps) + 2
    text = "".join(blocks)
    assert text == json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    for step, block in zip(report.steps, blocks[1:]):
        assert f'"window": "{step.window}"' in block
    assert "".join(report.iter_json(1)) == text.replace("\n", "\n  ")


# ---------------------------------------------------------------------------
# the direct JSON renderer of the small verbs

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES, st.integers(0, 3))
def test_json_text_is_the_json_dumps_text(value, depth):
    expected = json.dumps(value, indent=2, sort_keys=True)
    assert json_text(value, depth) == expected.replace("\n", "\n" + "  " * depth)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        [[], {}, ()],
        {"": [], "a": {}},
        [True, 1, False, 0, None],
        {"one": 1, "true": True, "zero": 0, "false": False},
        [1, 2, 3],
        [True, False],
        ["e1-e2", "2e1"],
        'quote " backslash \\ newline \n tab \t nul \x00 bell \x07',
        "non-ASCII: é 中 \U0001f600 \ud800",
        {"é": "é", "\x00": "\n", "b": [-(2**80), 2**80]},
        [Level.LOW, Level.HIGH, 3],
        {"level": Level.HIGH, "nested": [[Level.LOW], {"k": (Level.LOW, True)}]},
        {"z": 1, "a": 2, "m": [{"y": None, "b": "x"}]},
    ],
)
def test_json_text_examples(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {1, 2}, object(), b"bytes", [1, 2.0], {"k": {1}}])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)
