"""The value types are `Record`s: immutable, compared and hashed by their
fields, and equal only within one class."""

import pickle
import random
from fractions import Fraction

import pytest

from zipcone.bruhat import admissible_pairs, lower_neighbors
from zipcone.certify import envelope_certificate
from zipcone.cones import cone_GS, farkas_implies, pha_w_member
from zipcone.hasse import descent_path, hasse_map, verify_path_lemmas
from zipcone.sweeps import gamma_suite
from zipcone.weylroot import Character, RatCharacter, Record, Root, WeylElem, positive_roots, root_order


def _samples():
    w = WeylElem((4, 2, 3, 1))
    cert = envelope_certificate(2, 3)
    report = verify_path_lemmas(3, 5)
    return [
        Character((1, -2), 3),
        RatCharacter((Fraction(1, 2), 0), 1),
        Root.sum(1, 2),
        w,
        admissible_pairs(w)[0],
        lower_neighbors(w),
        cone_GS(2),
        farkas_implies((1, 0, 0), ((1, 0, 0), (0, 1, 0))),
        pha_w_member(Character((-3, -1), 0), w, 5),
        hasse_map(w, 3),
        descent_path(3, 5)[0],
        report.steps[0],
        report,
        cert.checks[0],
        cert,
        gamma_suite(2),
    ]


SAMPLES = _samples()


def test_samples_cover_every_record_class():
    assert len({type(x) for x in SAMPLES}) == len(Record.__subclasses__()) == 16


def _fields(x):
    return tuple(type(x).__annotations__)


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_record_contract(x):
    values = tuple(getattr(x, f) for f in _fields(x))
    try:
        expected = hash(values)
    except TypeError:  # a dict field, as SweepResult.params, is unhashable
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected
    twin = type(x)(*values)
    assert twin == x and not twin != x
    assert x != values
    assert pickle.loads(pickle.dumps(x)) == x
    assert repr(x).startswith(f"{type(x).__name__}({_fields(x)[0]}=")
    for f in _fields(x):
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert tuple(getattr(x, f) for f in _fields(x)) == values


def test_equal_fields_in_two_classes_compare_unequal():
    integral, rational = Character((1, 2), 0), RatCharacter((1, 2), 0)
    assert integral.vector() == rational.vector()
    assert integral != rational and rational != integral
    assert repr(integral) == "Character(a=(1, 2), b=0)"


@pytest.mark.parametrize("n", [1, 2, 5])
def test_shuffled_roots_sort_back_into_root_order(n):
    roots = positive_roots(n)
    shuffled = roots[:]
    random.Random(n).shuffle(shuffled)
    assert sorted(shuffled, key=root_order) == roots
    assert max(shuffled, key=root_order) == roots[-1] and min(shuffled, key=root_order) == roots[0]


def test_trusted_character_equals_the_validated_one():
    for a, b in (((1, -2, 0), 3), ((0,), 0), ((-5, 5), -1)):
        trusted, checked = Character._trusted(a, b), Character(a, b)
        assert type(trusted) is Character
        assert trusted == checked and checked == trusted
        assert hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked) and str(trusted) == str(checked)
        with pytest.raises(AttributeError):
            trusted.a = (0,) * len(a)
