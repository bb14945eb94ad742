"""Windows are validated at the boundary and trusted inside.

Products, inverses, reflections and the enumeration helpers wrap their
windows with `WeylElem._trusted`; these tests check that every such window
would pass full validation, that the boundary still rejects bad input, that
the sweeps build no validated windows, and that the window-level neighbor
oracle agrees with an object-level reference.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipcone.bruhat import bruhat_leq, enum_IW, lower_neighbors_oracle
from zipcone.certify import Certificate, envelope_certificate
from zipcone.hasse import anchor_element
from zipcone.sweeps import gamma_suite
from zipcone.weylroot import (
    WeylElem,
    compose,
    levi_elements,
    positive_roots,
    random_element,
    reflection,
    reflection_window,
    reflection_windows,
    weyl_elements,
)


def assert_valid(x):
    """Full validation accepts the window and gives an equal, equal-hash element."""
    checked = WeylElem(x.window)
    assert checked == x
    assert hash(checked) == hash(x)
    assert type(x.window) is tuple


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_trusted_products_pass_full_validation(n, seed):
    rng = random.Random(seed)
    u = random_element(n, rng)
    v = random_element(n, rng)
    alpha = rng.choice(positive_roots(n))
    s = reflection(alpha, n)
    for x in (u, v, compose(u, v), u.inverse(), s, compose(u, s), s.inverse()):
        assert_valid(x)


@pytest.mark.parametrize("n", range(1, 5))
def test_trusted_generators_pass_full_validation(n):
    for x in weyl_elements(n):
        assert_valid(x)
    for x in levi_elements(n):
        assert_valid(x)
    for x in enum_IW(n):
        assert_valid(x)
    for d in range(1, n + 1):
        assert_valid(anchor_element(n, d))


def test_reflection_windows_are_built_once_per_rank():
    table = reflection_windows(4)
    assert list(table) == positive_roots(4)
    assert reflection_windows(4) is table
    with pytest.raises(TypeError):
        table[positive_roots(4)[0]] = (1, 2, 3, 4, 5, 6, 7, 8)
    alpha = positive_roots(4)[3]
    win = reflection_window(alpha, 4)
    assert type(win) is tuple and win is table[alpha]
    assert reflection(alpha, 4).window is win
    with pytest.raises(ValueError, match="does not fit rank"):
        reflection_window(positive_roots(4)[-1], 3)


def test_generators_refuse_rank_below_one():
    for gen in (weyl_elements, levi_elements):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            gen(0)
    with pytest.raises(ValueError, match="rank must be at least 1"):
        random_element(0, random.Random(0))


def test_boundary_still_validates():
    not_permutation = r"window \(1, 1, 4, 4\) is not a permutation of 1..4"
    not_mirror = r"not a mirror window: w\(1\) \+ w\(4\) = 3, expected 5"
    for make in (WeylElem, lambda w: WeylElem.parse(" ".join(map(str, w)))):
        with pytest.raises(ValueError, match=not_permutation):
            make((1, 1, 4, 4))
        with pytest.raises(ValueError, match=not_mirror):
            make((1, 3, 4, 2))


def test_certificate_loading_still_validates():
    data = json.loads(envelope_certificate(3, 5).to_json())
    for window, message in (
        ("6 5 4 3 2 2", r"is not a permutation of 1..6"),
        ("6 4 5 3 2 1", r"not a mirror window: w\(2\) \+ w\(5\) = 6, expected 7"),
    ):
        bad = json.loads(json.dumps(data))
        bad["path"][0]["window"] = window
        with pytest.raises(ValueError, match=message):
            Certificate.from_json_dict(bad)


def count_validations(monkeypatch):
    calls = []
    original = WeylElem.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(WeylElem, "__post_init__", counting)
    return calls


def test_counter_sees_public_construction(monkeypatch):
    calls = count_validations(monkeypatch)
    WeylElem((2, 1, 4, 3))
    WeylElem.parse("3 4 1 2")
    assert len(calls) == 2


def test_sweep_and_oracle_validate_nothing(monkeypatch):
    calls = count_validations(monkeypatch)
    assert gamma_suite(3).ok
    for w in weyl_elements(3):
        lower_neighbors_oracle(w)
    assert calls == []


def reference_oracle(w):
    """E_w from the definition, on the object layer."""
    roots = set()
    for alpha in positive_roots(w.n):
        ws = compose(w, reflection(alpha, w.n))
        if ws.length() == w.length() - 1 and bruhat_leq(ws, w):
            roots.add(alpha)
    return frozenset(roots)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_window_oracle_matches_object_reference_exhaustive(n):
    for w in weyl_elements(n):
        assert lower_neighbors_oracle(w).roots == reference_oracle(w)


def test_window_oracle_matches_object_reference_sampled():
    rng = random.Random(2024)
    for _ in range(500):
        w = random_element(6, rng)
        assert lower_neighbors_oracle(w).roots == reference_oracle(w)

