import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    identity,
    inversion_count,
    is_I_dominant,
    parse_character,
    random_element,
    root_character,
    root_image,
    simple_roots,
    weyl_elements,
)
from zipcone.cones import cone_GS
from zipcone.linalg import dot
from zipcone.weylroot import (
    Character,
    RatCharacter,
    Root,
    RootKind,
    WeylElem,
    act,
    canonical_elements,
    compose,
    levi_positive_roots,
    non_levi_positive_roots,
    pairing,
    positive_roots,
    reflection,
    root_index,
    root_order,
    root_table,
)


def test_positive_roots_rank1():
    assert positive_roots(1) == [Root.long(1)]


def test_positive_roots_rank2():
    roots = positive_roots(2)
    assert set(roots) == {Root.diff(1, 2), Root.sum(1, 2), Root.long(1), Root.long(2)}
    assert len(roots) == 4


@pytest.mark.parametrize("n", range(1, 9))
def test_positive_roots_come_sorted(n):
    assert sorted(positive_roots(n)[::-1], key=root_order) == positive_roots(n)


@pytest.mark.parametrize("n", range(1, 17))
def test_positive_roots_are_in_root_order_and_bit_order(n):
    """A root bitmask's bit k is the k-th positive root, and both the kernel
    (`length_drops`) and the neighbor masks rely on that order being the
    root order."""
    roots = positive_roots(n)
    assert roots == sorted(roots, key=root_order)
    assert root_table(n) == tuple(roots)
    assert [root_index(n, *root_order(alpha)) for alpha in roots] == list(range(n * n))


def _family_key(alpha):
    """The root order spelled out: differences, sums, long roots; then i, j."""
    family = {RootKind.DIFF: 0, RootKind.SUM: 1, RootKind.LONG: 2}
    return (family[alpha.kind], alpha.i, alpha.j)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_root_order_is_family_then_indices(n):
    rng = random.Random(n)
    for _ in range(5):
        roots = positive_roots(n) + positive_roots(n)[:n]
        rng.shuffle(roots)
        assert sorted(roots, key=root_order) == sorted(roots, key=_family_key)


def _defined_vectors(alpha, n):
    """(root, coroot) on (a_1..a_n), written out from the definitions:
    e_i - e_j and e_i + e_j are their own coroots; 2e_i has coroot e_i."""
    e = [[int(k == m) for k in range(n)] for m in range(n)]
    i = alpha.i - 1
    if alpha.kind is RootKind.LONG:
        return [2 * x for x in e[i]], e[i]
    sign = -1 if alpha.kind is RootKind.DIFF else 1
    vec = [x + sign * y for x, y in zip(e[i], e[alpha.j - 1])]
    return vec, vec


@pytest.mark.parametrize("n", range(1, 7))
def test_coroot_row_and_as_character_match_definitions(n):
    for alpha in positive_roots(n):
        root, coroot = _defined_vectors(alpha, n)
        assert root_character(alpha, n) == Character(tuple(root), 0)
        assert alpha.coroot_row(n) == tuple(coroot)
        assert dict(alpha.coroot) == {k: c for k, c in enumerate(coroot) if c}


@pytest.mark.parametrize("n", range(1, 7))
def test_pairing_is_the_coroot_row(n):
    rng = random.Random(10 + n)
    chars = [Character(tuple(rng.randint(-9, 9) for _ in range(n)), rng.randint(-3, 3))]
    chars.append(RatCharacter(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))))
    for lam in chars:
        for alpha in positive_roots(n):
            assert pairing(lam, alpha) == dot(alpha.coroot_row(n), lam.a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_positive_roots_counts(n):
    roots = positive_roots(n)
    assert len(roots) == n * n
    assert len(set(roots)) == n * n
    assert len(levi_positive_roots(n)) == n * (n - 1) // 2
    assert len(non_levi_positive_roots(n)) == n * (n + 1) // 2


def test_non_levi_orbits_rank3():
    outside = non_levi_positive_roots(3)
    longs = [a for a in outside if a.j == 0]
    sums = [a for a in outside if a.j != 0]
    assert len(outside) == 6 and len(longs) == 3 and len(sums) == 3


def test_rank_zero_rejected():
    with pytest.raises(ValueError):
        positive_roots(0)


def test_pairing_examples():
    assert pairing(Character((1, 0), 1), Root.long(1)) == 1
    assert pairing(Character((7, 7, 7), 1), Root.diff(1, 3)) == 0
    assert pairing(Character((3, -2, 5), 0), Root.sum(2, 3)) == 3


def test_pairing_rank_mismatch():
    with pytest.raises(ValueError):
        pairing(Character((1, 0), 0), Root.long(3))


def test_pairing_ignores_b():
    lam = Character((2, -1), 0)
    mu = Character((2, -1), 6)
    for alpha in positive_roots(2):
        assert pairing(lam, alpha) == pairing(mu, alpha)


def test_is_I_dominant():
    assert is_I_dominant(Character((0, 0, 0), 0))
    assert is_I_dominant(Character((1, 1, -25), 1))
    assert not is_I_dominant(Character((-5, 1, 1), 1))
    # the reference for the Levi rows of cone_GS, its first n - 1 rows
    rng = random.Random(4)
    for n in (1, 2, 3, 4):
        levi_rows = cone_GS(n).hform[: n - 1]
        for _ in range(50):
            lam = Character(tuple(rng.randint(-2, 2) for _ in range(n)), 0)
            assert is_I_dominant(lam) == all(dot(row, lam.vector()) <= 0 for row in levi_rows)


def test_compose_examples():
    u = WeylElem.parse("4 3 2 1")
    v = WeylElem.parse("2 1 4 3")
    assert compose(u, v) == WeylElem.parse("3 4 1 2")
    ident = identity(2)
    assert compose(u, ident) == u and compose(ident, u) == u


def test_inverse_involution():
    w = WeylElem.parse("3 4 1 2")
    assert w.inverse() == w
    assert compose(w, w.inverse()) == identity(2)


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


@pytest.mark.parametrize("n", [2, 3])
def test_group_axioms_exhaustive(n):
    elems = list(weyl_elements(n))
    assert len(elems) == 2**n * factorial(n)
    ident = identity(n)
    for u in elems:
        assert compose(u, u.inverse()) == ident
        assert compose(u.inverse(), u) == ident
    # closure: every product is again a mirror window (checked on construction)
    for u in elems:
        for v in elems:
            compose(u, v)
    rng = random.Random(7)
    sample = [rng.choice(elems) for _ in range(60)]
    for u, v, w in zip(sample, sample[20:], sample[40:]):
        assert compose(compose(u, v), w) == compose(u, compose(v, w))
        assert compose(u, v).inverse() == compose(v.inverse(), u.inverse())


def test_group_axioms_randomized_rank6():
    rng = random.Random(11)
    for _ in range(40):
        u, v, w = (random_element(6, rng) for _ in range(3))
        assert compose(compose(u, v), w) == compose(u, compose(v, w))
        assert compose(u, v).inverse() == compose(v.inverse(), u.inverse())


def test_length_examples():
    assert identity(3).length() == 0
    for n in range(1, 7):
        assert WeylElem.longest(n).length() == n * n
    assert WeylElem.parse("3 4 1 2").length() == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_length_equals_root_inversions(n):
    for w in weyl_elements(n):
        assert w.length() == inversion_count(w)


def test_canonical_elements():
    ce1 = canonical_elements(1)
    assert ce1.w0 == WeylElem.parse("2 1")
    assert ce1.w0I == identity(1)
    assert ce1.wmax == WeylElem.parse("2 1")
    ce2 = canonical_elements(2)
    assert ce2.w0I == WeylElem.parse("2 1 4 3")
    assert ce2.wmax == WeylElem.parse("3 4 1 2")
    assert ce2.z == ce2.wmax
    for n in range(1, 7):
        ce = canonical_elements(n)
        assert ce.w0.length() - ce.w0I.length() == ce.wmax.length()
        assert ce.wmax.length() == n * (n + 1) // 2


def test_act_examples():
    ce = canonical_elements(2)
    lam = Character((5, -2), 1)
    assert act(identity(2), lam) == lam
    assert act(ce.w0, lam) == Character((-5, 2), 1)
    assert act(ce.wmax, Character.unit(2, 1)) == Character((0, -1), 0)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_act_is_group_action(n, seed):
    rng = random.Random(seed)
    u = random_element(n, rng)
    v = random_element(n, rng)
    lam = Character(tuple(rng.randint(-9, 9) for _ in range(n)), rng.randint(-3, 3))
    assert act(identity(n), lam) == lam
    assert act(u, act(v, lam)) == act(compose(u, v), lam)


def test_act_pairing_invariance():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(20):
            w = random_element(n, rng)
            lam = Character(tuple(rng.randint(-9, 9) for _ in range(n)), 0)
            for alpha in positive_roots(n):
                beta, sign = root_image(w, alpha)
                assert pairing(act(w, lam), beta) == sign * pairing(lam, alpha)


def test_act_rational():
    lam = RatCharacter((Fraction(1, 2), Fraction(-3, 4)), Fraction(2))
    out = act(canonical_elements(2).w0, lam)
    assert out == RatCharacter((Fraction(-1, 2), Fraction(3, 4)), Fraction(2))


def test_reflection_examples():
    assert reflection(Root.diff(1, 2), 2) == WeylElem.parse("2 1 4 3")
    assert reflection(Root.long(2), 2) == WeylElem.parse("1 3 2 4")
    assert reflection(Root.sum(1, 2), 2) == WeylElem.parse("3 4 1 2")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reflection_properties(n):
    ident = identity(n)
    for alpha in positive_roots(n):
        s = reflection(alpha, n)
        assert compose(s, s) == ident
        assert s.length() % 2 == 1
        # reflection formula: s(lam) = lam - <lam, alpha^vee> alpha
        lam = Character(tuple(range(1, n + 1)), 0)
        c = pairing(lam, alpha)
        expected = [x - c * y for x, y in zip(lam.a, root_character(alpha, n).a)]
        assert act(s, lam) == Character(tuple(expected), 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_group_generated_by_reflections(n):
    gens = [reflection(alpha, n) for alpha in simple_roots(n)]
    seen = {identity(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = compose(w, s)
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    assert len(seen) == 2**n * factorial(n)
    assert seen == set(weyl_elements(n))


def test_window_validation():
    with pytest.raises(ValueError, match="permutation"):
        WeylElem((1, 1, 4, 4))
    with pytest.raises(ValueError, match=r"w\(1\) \+ w\(4\)"):
        WeylElem((1, 3, 4, 2))
    with pytest.raises(ValueError):
        WeylElem.parse("1 2 3")


def test_window_text_round_trip():
    w = WeylElem.parse("3 4 1 2")
    assert WeylElem.parse(str(w)) == w
    with pytest.raises(ValueError, match="expected 6"):
        WeylElem.parse("3 4 1 2", n=3)


def test_character_parse_and_format():
    lam = parse_character("1,1,-25|1")
    assert lam == Character((1, 1, -25), 1)
    assert str(lam) == "1,1,-25|1"
    rat = RatCharacter.parse("1/2,-3|0")
    assert rat.a == (Fraction(1, 2), Fraction(-3))
    with pytest.raises(ValueError):
        parse_character("1,2,3")
    with pytest.raises(ValueError):
        parse_character("|2")
    with pytest.raises(ValueError, match="non-integer"):
        parse_character("1/2,0|0")


def test_character_parity():
    assert Character((1, 1), 0).satisfies_parity
    assert not Character((1, 0), 0).satisfies_parity
    assert Character((1, 0), 1).satisfies_parity
