"""Closed-form Farkas multipliers against Fourier-Motzkin search, and the
exact integer self-check of FarkasCertificate."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipcone import certify, cones
from zipcone.certify import envelope_certificate
from zipcone.cones import (
    FarkasCertificate,
    coordinate_form_multipliers,
    coroot_form_multipliers,
    coroot_functional,
    pha_wmax_cone,
    prefix_functional,
    prefix_multipliers,
)
from zipcone.linalg import farkas_split
from zipcone.weylroot import non_levi_positive_roots

RANKS = range(1, 8)
PRIMES = (2, 3, 5, 7)
TAMPERS = {
    "off by one": lambda m: m + 1,
    "negated": lambda m: -m,
    "off by 1/3": lambda m: m + Fraction(1, 3),
}


def _tampered(mults, k, tamper):
    return mults[:k] + (TAMPERS[tamper](mults[k]),) + mults[k + 1:]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", RANKS)
def test_prefix_multipliers_match_search(n, p):
    rows = pha_wmax_cone(n).hform
    for j in range(1, n + 1):
        kind, mults = farkas_split(rows, prefix_functional(n, p, j))
        assert kind == "multipliers"
        assert mults == prefix_multipliers(n, p, j)


@pytest.mark.parametrize("n", RANKS)
def test_coroot_form_multipliers_match_search(n):
    rows = pha_wmax_cone(n).hform
    for alpha in non_levi_positive_roots(n):
        kind, mults = farkas_split(rows, coroot_functional(alpha, n))
        assert kind == "multipliers"
        assert mults == coroot_form_multipliers(alpha, n)


@pytest.mark.parametrize("n", RANKS)
def test_coordinate_form_multipliers_match_search(n):
    roots = non_levi_positive_roots(n)
    alt = [coroot_functional(alpha, n) for alpha in roots]
    for i, row in enumerate(pha_wmax_cone(n).hform, start=1):
        kind, mults = farkas_split(alt, row)
        assert kind == "multipliers"
        assert mults == coordinate_form_multipliers(i, roots)


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", RANKS)
def test_tampered_prefix_multiplier_raises(n, p, tamper):
    rows = pha_wmax_cone(n).hform
    for j in range(1, n + 1):
        target = prefix_functional(n, p, j)
        mults = prefix_multipliers(n, p, j)
        FarkasCertificate(target, rows, multipliers=mults)
        for k in range(n):
            with pytest.raises(AssertionError):
                FarkasCertificate(target, rows, multipliers=_tampered(mults, k, tamper))


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
@pytest.mark.parametrize("n", RANKS)
def test_tampered_pha_wmax_multiplier_raises(n, tamper):
    rows = pha_wmax_cone(n).hform
    roots = non_levi_positive_roots(n)
    alt = tuple(coroot_functional(alpha, n) for alpha in roots)
    for alpha, target in zip(roots, alt):
        mults = coroot_form_multipliers(alpha, n)
        for k in (k for k, m in enumerate(mults) if m):
            with pytest.raises(AssertionError):
                FarkasCertificate(target, rows, multipliers=_tampered(mults, k, tamper))
    for i, target in enumerate(rows, start=1):
        mults = coordinate_form_multipliers(i, roots)
        k = next(k for k, m in enumerate(mults) if m)
        with pytest.raises(AssertionError):
            FarkasCertificate(target, alt, multipliers=_tampered(mults, k, tamper))


def test_wrong_closed_form_breaks_pha_wmax_cone(monkeypatch):
    good = cones.coroot_form_multipliers
    monkeypatch.setattr(
        cones, "coroot_form_multipliers", lambda alpha, n: _tampered(good(alpha, n), 0, "off by 1/3")
    )
    with pytest.raises(AssertionError):
        pha_wmax_cone(3)
    monkeypatch.setattr(cones, "coroot_form_multipliers", good)
    good_coord = cones.coordinate_form_multipliers
    monkeypatch.setattr(
        cones,
        "coordinate_form_multipliers",
        lambda i, roots: _tampered(good_coord(i, roots), 0, "off by one"),
    )
    with pytest.raises(AssertionError):
        pha_wmax_cone(3)


def test_wrong_closed_form_breaks_envelope_certificate(monkeypatch):
    good = certify.prefix_multipliers
    monkeypatch.setattr(
        certify, "prefix_multipliers", lambda n, p, j: _tampered(good(n, p, j), n - 1, "off by one")
    )
    with pytest.raises(AssertionError):
        envelope_certificate(3, 5)


def fraction_residual(target, system, mults):
    """Reference: target minus the recombination, over Fraction."""
    acc = [Fraction(t) for t in target]
    for m, row in zip(mults, system):
        for k, x in enumerate(row):
            acc[k] -= Fraction(m) * x
    return tuple(acc)


@st.composite
def certificates(draw):
    """A small integer system, rational multipliers and an integer target that
    is either their exact recombination or a perturbation of it."""
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    system = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=m, max_size=m))
    mults = draw(
        st.lists(st.fractions(min_value=0, max_value=4, max_denominator=6), min_size=m, max_size=m)
    )
    comb = [-x for x in fraction_residual([0] * dim, system, mults)]
    scale = lcm(*(x.denominator for x in comb))
    target = tuple(int(x * scale) for x in comb)
    mults = [x * scale for x in mults]
    how = draw(st.sampled_from(["exact", "multiplier", "target"]))
    if how == "multiplier":
        k = draw(st.integers(0, m - 1))
        mults[k] += draw(st.fractions(min_value=-2, max_value=2, max_denominator=6))
    elif how == "target":
        k = draw(st.integers(0, dim - 1))
        target = target[:k] + (target[k] + draw(st.integers(-2, 2)),) + target[k + 1:]
    return target, tuple(system), tuple(mults)


@settings(max_examples=200, deadline=None)
@given(certificates())
def test_integer_check_accepts_exactly_zero_fraction_residual(case):
    target, system, mults = case
    residual = fraction_residual(target, system, mults)
    try:
        cert = FarkasCertificate(target, system, multipliers=mults)
    except AssertionError as exc:
        assert min(mults) < 0 or any(residual)
        if min(mults) >= 0:
            assert str(exc) == f"nonzero residual {residual}"
    else:
        assert min(mults) >= 0 and not any(residual)
        assert cert.residual == residual
