from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipcone import linalg
from zipcone.cones import lmin_prefix_cone


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
