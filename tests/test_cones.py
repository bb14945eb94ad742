import random
from fractions import Fraction

import pytest

from zipcone.cones import (
    Cone,
    FarkasCertificate,
    cone_GS,
    dominance_functionals,
    farkas_implies,
    lmin_member,
    lmin_member_enumerated,
    lmin_prefix_cone,
    n3_exact_cone,
    pha_w_member,
    pha_wmax_cone,
    prefix_functional,
)
from zipcone.hasse import hasse_map
from zipcone.sweeps import random_dominant_character, random_rat_character
from zipcone.weylroot import (
    Character,
    RatCharacter,
    canonical_elements,
    random_element,
)


def test_cone_gs_examples():
    gs = cone_GS(2)
    assert gs.member(Character.zero(2))
    assert gs.member(Character((-1, -2), 3))
    assert not gs.member(Character.unit(2, 1, b=1))


def test_cone_gs_generators_validated_at_construction():
    for n in (1, 2, 3, 4):
        cone = cone_GS(n)
        assert cone.vform is not None
        for g in cone.vform:
            assert cone.member(g)


def test_cone_rejects_bad_generator():
    with pytest.raises(ValueError, match="violates"):
        Cone(2, ((1, 0),), vform=((1, 0),))


def test_lmin_member_examples():
    assert lmin_member(Character.zero(3), 2)
    assert lmin_member(Character((1, 1, -25), 1), 5)
    for p in (2, 3, 5, 7):
        assert not lmin_member(Character.unit(3, 1, b=1), p)
    with pytest.raises(ValueError):
        lmin_member(Character.zero(2), 1)


@pytest.mark.parametrize("n,p", [(2, 2), (3, 3), (3, 5)])
def test_lmin_shortcut_matches_enumeration(n, p):
    rng = random.Random(100 + n + p)
    for _ in range(120):
        lam = random_rat_character(n, rng)
        assert lmin_member(lam, p) == lmin_member_enumerated(lam, p)


def test_lmin_prefix_cone_examples():
    cone = lmin_prefix_cone(3, 5)
    assert cone.member(Character((1, 1, -25), 1))
    assert not cone.member(Character.unit(3, 1, b=1))


@pytest.mark.parametrize("n,p", [(2, 2), (3, 3), (4, 5)])
def test_prefix_cone_equals_lmin_on_dominant_characters(n, p):
    cone = lmin_prefix_cone(n, p)
    rng = random.Random(37 * n + p)
    for _ in range(200):
        lam = random_dominant_character(n, rng)
        assert cone.member(lam) == lmin_member(lam, p)


def test_pha_wmax_cone():
    cone = pha_wmax_cone(3)
    assert cone.member(Character((0, 0, 0), 5))
    assert cone.member(Character((-1, 0, -2), 1))
    assert not cone.member(Character.unit(3, 2))
    gens = set(cone.vform)
    assert (0, 0, 0, 1) in gens and (0, 0, 0, -1) in gens
    assert (-1, 0, 0, 0) in gens


def test_saturation_member():
    # Cone.member is membership in the saturation
    cone = pha_wmax_cone(2)
    inside = Character((-3, -1), 0)
    assert cone.member(inside)
    # parity-violating but inequality-satisfying: saturation says yes
    odd = Character((-1, 0), 0)
    assert not odd.satisfies_parity
    assert cone.member(odd)
    assert not cone.member(Character.unit(2, 1))


def test_farkas_trivial_example():
    cert = farkas_implies((1, 1, 0), Cone(3, ((1, 0, 0), (0, 1, 0))))
    assert cert.implied
    assert cert.multipliers == (1, 1)
    assert all(r == 0 for r in cert.residual)


def test_farkas_redundant_last_prefix():
    n, p = 3, 5
    system = [prefix_functional(n, p, 1), prefix_functional(n, p, 2)]
    system += dominance_functionals(n)
    cert = farkas_implies(prefix_functional(n, p, n), system)
    assert cert.implied
    # recombination is checked by the certificate itself; spot-check one entry
    assert sum(m * row[0] for m, row in zip(cert.multipliers, system)) == p


def test_farkas_witness_case():
    target = (5, 25, 1, 0)
    cert = farkas_implies(target, lmin_prefix_cone(3, 5))
    assert not cert.implied
    wit = cert.witness
    assert sum(c * x for c, x in zip(target, wit)) > 0
    # the documented strictness witness also works
    lam = (1, 1, -25, 1)
    assert all(
        sum(c * x for c, x in zip(row, lam)) <= 0
        for row in lmin_prefix_cone(3, 5).hform
    )
    assert sum(c * x for c, x in zip(target, lam)) == 5


def test_farkas_certificate_self_verification():
    with pytest.raises(AssertionError):
        FarkasCertificate(
            target=(1, 0),
            system=((0, 1),),
            multipliers=(Fraction(1),),
        )
    with pytest.raises(AssertionError):
        FarkasCertificate(
            target=(1, 0),
            system=((1, 0),),
            witness=(Fraction(1), Fraction(0)),
        )


def test_n3_exact_cone_examples():
    cone = n3_exact_cone(5)
    assert cone.member(Character.zero(3))
    assert cone.member(Character((-1, -1, -1), 1))
    assert not cone.member(Character((1, 1, -25), 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_n3_cone_inside_prefix_cone(p):
    small = n3_exact_cone(p)
    for row in lmin_prefix_cone(3, p).hform:
        assert farkas_implies(row, small).implied


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gs_cone_inside_lmin(n, p):
    for g in cone_GS(n).vform:
        lam = RatCharacter(tuple(Fraction(c) for c in g[:-1]), Fraction(g[-1]))
        assert lmin_member(lam, p)


def test_pha_w_member_examples():
    ce = canonical_elements(2)
    assert pha_w_member(Character.zero(2), ce.w0, 3).member
    res = pha_w_member(Character((1, -3), 0), ce.w0, 3)
    assert res.member
    assert res.chi.to_integral() == Character.unit(2, 1)
    assert res.chi_integral and not res.chi_parity_ok
    with pytest.raises(ValueError):
        pha_w_member(Character.zero(2), ce.w0, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pha_w_member_at_wmax_matches_coordinate_cone(n):
    # two independent code paths: exact inversion of the weight map vs the
    # plain coordinate inequalities
    rng = random.Random(50 + n)
    wmax = canonical_elements(n).wmax
    cone = pha_wmax_cone(n)
    p = 3
    hm = hasse_map(wmax, p)
    for _ in range(150):
        lam = RatCharacter(
            tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n)),
            Fraction(rng.randint(-3, 3)),
        )
        assert pha_w_member(lam, wmax, p, hasse_matrix=hm).member == cone.member(lam)


def test_pha_w_member_random_strata():
    # weight-map membership round trip on random elements: h_w(chi) lands in
    # the cone iff chi is dominant for E_w
    rng = random.Random(77)
    from zipcone.bruhat import lower_neighbors
    from zipcone.weylroot import pairing

    for _ in range(25):
        w = random_element(3, rng)
        p = rng.choice([2, 3, 5])
        hm = hasse_map(w, p)
        chi = Character(tuple(rng.randint(-6, 6) for _ in range(3)), 0)
        lam = hm.apply(chi)
        expected = all(pairing(chi, a) >= 0 for a in lower_neighbors(w).roots)
        assert pha_w_member(lam, w, p, hasse_matrix=hm).member == expected
