"""Windows are validated at the boundary and trusted inside.

Products, inverses, reflections and the enumeration helpers wrap their
windows with `WeylElem._trusted`; these tests check that every such window
would pass full validation, that the boundary still rejects bad input, that
the sweeps build no validated windows, and that the window-level neighbor
oracle agrees with an object-level reference.
"""

import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import certificate_from_json, random_element, root_set, weyl_elements
from zipcone import weylroot
from zipcone.bruhat import (
    AdmissiblePair,
    admissible_pairs,
    bruhat_leq,
    enum_IW,
    lower_neighbors_oracle,
)
from zipcone.certify import envelope_certificate
from zipcone.hasse import anchor_element, descent_path
from zipcone.sweeps import bruhat_suite, gamma_suite
from zipcone.weylroot import (
    WeylElem,
    compose,
    levi_elements,
    positive_roots,
    reflection,
    reflection_swaps,
    reflection_window,
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


def test_reflection_window_is_the_identity_with_its_swaps():
    for alpha, swaps in reflection_swaps(4).items():
        win = reflection_window(alpha, 4)
        assert type(win) is tuple and reflection(alpha, 4).window == win
        moved = {a for pair in swaps for a in pair}
        assert all(win[k - 1] == k for k in range(1, 9) if k not in moved)
        assert all((win[a - 1], win[b - 1]) == (b, a) for a, b in swaps)
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
    data = json.loads("".join(envelope_certificate(3, 5).iter_json()))
    for window, message in (
        ("6 5 4 3 2 2", r"is not a permutation of 1..6"),
        ("6 4 5 3 2 1", r"not a mirror window: w\(2\) \+ w\(5\) = 6, expected 7"),
    ):
        bad = json.loads(json.dumps(data))
        bad["path"][0]["window"] = window
        with pytest.raises(ValueError, match=message):
            certificate_from_json(bad)


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


def test_sweeps_build_no_pairs_and_no_reflections(monkeypatch):
    pairs = []
    original_init = AdmissiblePair.__init__

    def counting_init(self, *args):
        pairs.append(args)
        original_init(self, *args)

    monkeypatch.setattr(AdmissiblePair, "__init__", counting_init)
    reflections = []
    original = weylroot.reflection

    def counting_reflection(*args):
        reflections.append(args)
        return original(*args)

    # rebind every copy the package holds, as ``from .weylroot import reflection`` makes one
    for module in list(sys.modules.values()):
        if module.__name__.startswith("zipcone") and getattr(module, "reflection", None) is original:
            monkeypatch.setattr(module, "reflection", counting_reflection)
    admissible_pairs(WeylElem.parse("4 3 2 1"))
    weylroot.reflection(positive_roots(2)[0], 2)
    assert len(pairs) == 3 and len(reflections) == 1  # the counters see both
    pairs.clear()
    reflections.clear()
    assert bruhat_suite(3, 200, 0).ok
    assert gamma_suite(3).ok
    assert pairs == [] and reflections == []


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
        assert root_set(lower_neighbors_oracle(w)) == reference_oracle(w)


def test_window_oracle_matches_object_reference_sampled():
    rng = random.Random(2024)
    for _ in range(500):
        w = random_element(6, rng)
        assert root_set(lower_neighbors_oracle(w)) == reference_oracle(w)



def test_descent_path_validates_no_character_and_builds_no_root(monkeypatch):
    """The walk takes its roots from the shared table and builds its
    characters from ints with `Character._trusted`."""
    n = 7
    weylroot.root_table(n)
    built = []
    for cls in (weylroot.Character, weylroot.Root):
        original = cls.__post_init__

        def counting(self, original=original):
            built.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    weylroot.Character((1, 0), 0)
    assert len(built) == 1  # the counter sees a validated character
    built.clear()
    steps = descent_path(n, 5)
    assert len(steps) == n * (n - 1) // 2 and built == []
