from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipcone import linalg
from zipcone.cones import FarkasCertificate, lmin_prefix_cone


def fraction_rank(rows):
    """Reference: Gauss-Jordan elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((k for k in range(r, len(mat)) if mat[k][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][col] != 0:
                f = mat[k][col]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
        r += 1
    return r


def fraction_solve_det(a, b):
    """Reference: Gauss-Jordan elimination over Fraction; (solution or None
    when singular, determinant)."""
    m = len(a)
    mat = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    d = Fraction(1)
    for col in range(m):
        piv = next((k for k in range(col, m) if mat[k][col] != 0), None)
        if piv is None:
            return None, Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            d = -d
        pv = mat[col][col]
        d *= pv
        mat[col] = [x / pv for x in mat[col]]
        for k in range(m):
            if k != col and mat[k][col] != 0:
                f = mat[k][col]
                mat[k] = [x - f * y for x, y in zip(mat[k], mat[col])]
    return tuple(row[m] for row in mat), d


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=7))
    # a product of a short basis and coefficients: rank deficient on purpose
    basis = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=3))
    coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)), max_size=7))
    return [[sum(c * b[k] for c, b in zip(cs, basis)) for k in range(ncols)] for cs in coeffs]


@st.composite
def square_systems(draw):
    """(a, b) with a square; about half the matrices repeat a scaled row, so
    they are singular."""
    m = draw(st.integers(0, 5))
    a = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        k = draw(st.integers(-3, 3))
        a[-1] = [k * x for x in a[0]]
    b = draw(st.lists(entries, min_size=m, max_size=m))
    return a, b


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_bareiss_rank_matches_fraction_elimination(rows):
    assert linalg.rank(rows) == fraction_rank(rows)


def test_rank_examples():
    assert linalg.rank([]) == 0
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    assert linalg.rank([[0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]]) == 3


def test_farkas_blowup_names_variable_rows_and_limit(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_FM_ROWS", 10)
    rows = lmin_prefix_cone(5, 3).hform
    with pytest.raises(linalg.FourierMotzkinBlowup) as exc:
        linalg.farkas_split(rows, (9, 8, 7, 6, 5, 0))
    assert isinstance(exc.value, RuntimeError)
    message = str(exc.value)
    assert message.startswith("Fourier-Motzkin blow-up eliminating variable ")
    assert "of 6: " in message and "exceed the limit of 10" in message


@settings(max_examples=200, deadline=None)
@given(square_systems())
def test_solve_square_and_det_match_fraction_elimination(system):
    a, b = system
    solution, determinant = fraction_solve_det(a, b)
    assert linalg.solve_square(a, b) == solution
    assert linalg.det(a) == determinant
    assert type(linalg.det(a)) is Fraction


@st.composite
def integer_systems(draw):
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    return draw(st.lists(row, max_size=6)), draw(row)


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_farkas_split_answer_is_a_valid_certificate(system):
    rows, target = system
    kind, payload = linalg.farkas_split(rows, target)
    # the certificate checks itself on construction
    if kind == "multipliers":
        FarkasCertificate(target, tuple(rows), multipliers=payload)
    else:
        assert kind == "witness"
        FarkasCertificate(target, tuple(rows), witness=payload)


non_integers = st.one_of(
    st.fractions(min_value=-6, max_value=6).filter(lambda x: x.denominator > 1),
    st.floats(-6, 6).filter(lambda x: not x.is_integer()),
)


@settings(max_examples=100, deadline=None)
@given(integer_systems(), non_integers, st.data())
def test_farkas_split_refuses_non_integer_entries(system, bad, data):
    rows, target = system
    rows = [list(r) for r in rows]
    if rows and data.draw(st.booleans()):
        r = data.draw(st.integers(0, len(rows) - 1))
        rows[r][data.draw(st.integers(0, len(target) - 1))] = bad
    else:
        target = list(target)
        target[data.draw(st.integers(0, len(target) - 1))] = bad
    with pytest.raises(ValueError):
        linalg.farkas_split(rows, target)
