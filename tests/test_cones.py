import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    dense_preimage,
    fraction_residual,
    random_element,
    root_set,
    weight,
    weyl_elements,
    worst_subset,
)
from zipcone.cones import (
    Cone,
    FarkasCertificate,
    cone_GS,
    dominance_functionals,
    farkas_implies,
    gs_member,
    lmin_member,
    lmin_member_enumerated,
    lmin_prefix_cone,
    lmin_prefix_member,
    n3_exact_cone,
    orbit_subset_functional,
    orbit_worst_rows,
    pha_w_member,
    pha_wmax_cone,
    pha_wmax_member,
    prefix_functional,
    weight_preimage,
)
from zipcone.linalg import dot
from zipcone.sweeps import random_dominant_character, random_rat_character
from zipcone.weylroot import (
    Character,
    RatCharacter,
    Root,
    canonical_elements,
    long_orbit,
    sum_orbit,
)


def test_cone_gs_examples():
    gs = cone_GS(2)
    assert gs.member(Character((0, 0), 0))
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
    assert lmin_member(Character((0, 0, 0), 0), 2)
    assert lmin_member(Character((1, 1, -25), 1), 5)
    for p in (2, 3, 5, 7):
        assert not lmin_member(Character.unit(3, 1, b=1), p)
    with pytest.raises(ValueError):
        lmin_member(Character((0, 0), 0), 1)


@pytest.mark.parametrize("n,p", [(2, 2), (3, 3), (3, 5)])
def test_lmin_shortcut_matches_enumeration(n, p):
    rng = random.Random(100 + n + p)
    for _ in range(120):
        lam = random_rat_character(n, rng)
        assert lmin_member(lam, p) == lmin_member_enumerated(lam, p)


def _lmin_member_by_rows(lam, p):
    """The row form: each orbit's worst-subset functional, dotted with lam."""
    n = lam.n
    return all(
        dot(orbit_subset_functional(orbit, worst_subset(orbit, lam), n, p), lam.vector()) <= 0
        for orbit in (long_orbit(n), sum_orbit(n))
    )


_entries = st.one_of(
    st.integers(-12, 12).map(Fraction),
    st.fractions(min_value=-60, max_value=60, max_denominator=8),
)


@st.composite
def rat_characters(draw):
    n = draw(st.integers(1, 16))
    return RatCharacter(tuple(draw(st.lists(_entries, min_size=n, max_size=n))), draw(_entries))


@settings(max_examples=300, deadline=None)
@given(lam=rat_characters(), p=st.sampled_from([2, 3, 5, 7]))
def test_lmin_member_matches_row_form(lam, p):
    assert lmin_member(lam, p) == _lmin_member_by_rows(lam, p)


def _orbit_worst_value(orbit, lam, p):
    """An orbit's worst value at lam, cleared by p, read at root level."""
    return dot(orbit_subset_functional(orbit, worst_subset(orbit, lam), lam.n, p), lam.vector())


@settings(max_examples=300, deadline=None)
@given(lam=rat_characters(), p=st.sampled_from([2, 3, 5, 7]))
def test_sum_orbit_worst_is_bounded_by_long_orbit_worst(lam, p):
    # the orbit lemma behind lmin_member: f(t) = max(t, p*t) is subadditive
    n = lam.n
    long_worst = _orbit_worst_value(long_orbit(n), lam, p)
    assert _orbit_worst_value(sum_orbit(n), lam, p) <= (n - 1) * long_worst


@st.composite
def int_generators(draw):
    """Integer entries of a rank-n generator, n <= 16: dense, or with at most
    two nonzero entries like every envelope generator.  Dense entries are
    sometimes drawn from -3..3, which makes a_j = -a_k, zeros and repeats
    common: the ties where counting by bisection could be off by one."""
    n = draw(st.integers(1, 16))
    if draw(st.booleans()):
        bound = draw(st.sampled_from([3, 40]))
        return tuple(draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)))
    a = [0] * n
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
        a[k] = draw(st.integers(-40, 40))
    return tuple(a)


@settings(max_examples=300, deadline=None)
@given(a=int_generators(), p=st.sampled_from([2, 3, 5, 7, 13]))
def test_orbit_worst_rows_match_root_level_rows(a, p):
    n = len(a)
    gen = Character(a, 0)
    orbits = [long_orbit(n)] + ([sum_orbit(n)] if n > 1 else [])
    want = [orbit_subset_functional(orbit, worst_subset(orbit, gen), n, p) for orbit in orbits]
    assert orbit_worst_rows(a, p) == want


def test_lmin_member_builds_no_roots(monkeypatch):
    built = []
    original = Root.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Root, "__post_init__", counting)
    Root.long(1)
    assert len(built) == 1  # the counter sees construction
    built.clear()
    lam = Character(tuple(range(8, -8, -1)), 0)
    for p in (2, 3, 5, 7):
        assert not lmin_member(lam, p)
        assert lmin_member(Character((-1,) + (0,) * 15, 0), p)
    assert built == []


def test_lmin_enumeration_refuses_rank_above_limit():
    from zipcone.cones import MAX_ENUMERATED_RANK

    n = MAX_ENUMERATED_RANK + 1
    with pytest.raises(ValueError, match=f"limited to rank {MAX_ENUMERATED_RANK}, got {n}"):
        lmin_member_enumerated(Character((0,) * n, 0), 3)


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
    assert not any(fraction_residual(cert.target, cert.system, cert.multipliers))


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


def witness_accepted_over_fractions(target, system, witness) -> bool:
    """The reference check: every system row <= 0 and the target > 0 at the
    witness, in Fraction arithmetic."""
    return all(dot(row, witness) <= 0 for row in system) and dot(target, witness) > 0


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 5),
    rows=st.integers(0, 5),
)
def test_witness_check_in_integers_matches_fractions(data, dim, rows):
    ints = st.integers(-6, 6)
    system = tuple(tuple(data.draw(st.lists(ints, min_size=dim, max_size=dim))) for _ in range(rows))
    target = tuple(data.draw(st.lists(ints, min_size=dim, max_size=dim)))
    witness = tuple(
        Fraction(data.draw(ints), data.draw(st.integers(1, 12))) for _ in range(dim)
    )
    if witness_accepted_over_fractions(target, system, witness):
        cert = FarkasCertificate(target, system, witness=witness)
        assert cert.witness == witness and not cert.implied
    else:
        with pytest.raises(AssertionError):
            FarkasCertificate(target, system, witness=witness)


def test_tampered_witness_still_raises():
    target = (5, 25, 1, 0)
    cone = lmin_prefix_cone(3, 5)
    wit = farkas_implies(target, cone).witness
    assert any(x.denominator != 1 for x in wit)  # so the check clears denominators
    FarkasCertificate(target, cone.hform, witness=wit)
    # off the cone: raise a_1 far enough to break the first prefix row
    off_cone = (wit[0] + 1000 + Fraction(1, 7),) + wit[1:]
    with pytest.raises(AssertionError, match="violates the system"):
        FarkasCertificate(target, cone.hform, witness=off_cone)
    # on the wrong side of the target
    with pytest.raises(AssertionError, match="does not violate the target"):
        FarkasCertificate(tuple(-c for c in target), cone.hform, witness=wit)
    with pytest.raises(ValueError):
        FarkasCertificate(target, cone.hform, witness=wit[:-1])


def test_n3_exact_cone_examples():
    cone = n3_exact_cone(5)
    assert cone.member(Character((0, 0, 0), 0))
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
    assert pha_w_member(Character((0, 0), 0), ce.w0, 3).member
    res = pha_w_member(Character((1, -3), 0), ce.w0, 3)
    assert res.member
    assert res.chi.to_integral() == Character.unit(2, 1)
    assert res.chi_integral and not res.chi_parity_ok
    with pytest.raises(ValueError):
        pha_w_member(Character((0, 0), 0), ce.w0, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pha_w_member_at_wmax_matches_coordinate_cone(n):
    # two independent code paths: exact inversion of the weight map vs the
    # plain coordinate inequalities
    rng = random.Random(50 + n)
    wmax = canonical_elements(n).wmax
    cone = pha_wmax_cone(n)
    p = 3
    for _ in range(150):
        lam = RatCharacter(
            tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n)),
            Fraction(rng.randint(-3, 3)),
        )
        assert pha_w_member(lam, wmax, p).member == cone.member(lam)


def test_pha_w_member_random_strata():
    # weight-map membership round trip on random elements: h_w(chi) lands in
    # the cone iff chi is dominant for E_w
    rng = random.Random(77)
    from zipcone.bruhat import lower_neighbors
    from zipcone.weylroot import pairing

    for _ in range(25):
        w = random_element(3, rng)
        p = rng.choice([2, 3, 5])
        chi = Character(tuple(rng.randint(-6, 6) for _ in range(3)), 0)
        lam = weight(w, p, chi)
        expected = all(pairing(chi, a) >= 0 for a in root_set(lower_neighbors(w)))
        assert pha_w_member(lam, w, p).member == expected


# ---------------------------------------------------------------------------
# the weight map solved along cycles, and memberships from the inequality form


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weight_preimage_matches_the_dense_solve_on_every_element(n):
    rng = random.Random(900 + n)
    for w in weyl_elements(n):
        for p in (2, 3, 5, 7, 13):
            lam = Character(tuple(rng.randint(-9, 9) for _ in range(n)), rng.randint(-3, 3))
            chi = weight_preimage(lam, w, p)
            assert chi == dense_preimage(lam, w, p)
            assert weight(w, p, chi) == RatCharacter(lam.a, lam.b)


RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=9)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2**32),
            st.one_of(
                st.tuples(st.lists(st.integers(-60, 60), min_size=n, max_size=n), st.integers(-5, 5)).map(
                    lambda ab: Character(tuple(ab[0]), ab[1])
                ),
                st.tuples(st.lists(RATIONALS, min_size=n, max_size=n), RATIONALS).map(
                    lambda ab: RatCharacter(tuple(ab[0]), ab[1])
                ),
            ),
        )
    ),
    st.sampled_from([2, 3, 5, 7, 13]),
)
def test_weight_preimage_matches_the_dense_solve(case, p):
    n, seed, lam = case
    w = random_element(n, random.Random(seed))
    chi = weight_preimage(lam, w, p)
    dense = dense_preimage(lam, w, p)
    assert chi == dense
    assert str(chi) == str(dense)


def test_weight_preimage_refuses_a_rank_mismatch_and_a_small_p():
    w0 = canonical_elements(3).w0
    with pytest.raises(ValueError, match="rank mismatch: 2 vs 3"):
        weight_preimage(Character((1, 2), 0), w0, 5)
    with pytest.raises(ValueError, match="p must be at least 2"):
        weight_preimage(Character((1, 2, 3), 0), w0, 1)


@functools.lru_cache(maxsize=None)
def named_cones(n, p):
    return cone_GS(n), pha_wmax_cone(n), lmin_prefix_cone(n, p)


def assert_memberships_match_the_cones(lam, p):
    gs, pha_wmax, lmin_i = named_cones(lam.n, p)
    assert gs_member(lam) == gs.member(lam), lam
    assert pha_wmax_member(lam) == pha_wmax.member(lam), lam
    assert lmin_prefix_member(lam, p) == lmin_i.member(lam), (lam, p)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 16).flatmap(lambda n: st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([2, 3, 5, 7, 13]),
)
def test_linear_memberships_match_the_cones(a, dominant, b, p):
    # small entries give ties and zeros; half the draws are sorted, so that
    # dominant characters, where gs and lmin-i look past dominance, are common
    a = sorted(a, reverse=True) if dominant else a
    assert_memberships_match_the_cones(Character(tuple(a), b), p)


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("p", [2, 5, 13])
def test_linear_memberships_match_the_cones_on_their_faces(n, p):
    faces = [
        (0,) * n,  # every row of every cone at 0
        (0,) + (-1,) * (n - 1),  # a_1 = 0: the row of 2e_1 at 0
        (-1,) * n,  # ties: every Levi row at 0
        (1,) + (0,) * (n - 1),  # just outside a_1 <= 0
        (0,) * (n - 1) + (1,),  # not dominant, on the boundary of a_n
    ]
    for a in faces:
        assert_memberships_match_the_cones(Character(a, 1), p)
    if n >= 2:
        # prefix row 1 exactly at 0 and every other row below it: a member of
        # lmin-i, and one just past it is not
        tail = (Fraction(-p, n - 1),) * (n - 1)
        on_row = RatCharacter((Fraction(1),) + tail, Fraction(0))
        past_row = RatCharacter((Fraction(101, 100),) + tail, Fraction(0))
        assert lmin_prefix_member(on_row, p) and not lmin_prefix_member(past_row, p)
        assert_memberships_match_the_cones(on_row, p)
        assert_memberships_match_the_cones(past_row, p)
