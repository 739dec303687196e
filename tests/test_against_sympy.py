"""Differential tests of the exact linear algebra against sympy."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilinv.exactpoly import det, det_minor, rank
from nilinv.invgen import formal_matrix
from nilinv.rootcomb import ParabolicType

sympy = pytest.importorskip("sympy")

ENTRIES = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=4))
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def rational_matrices(draw, square: bool):
    nr = draw(st.integers(0, 5))
    nc = nr if square else draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if nr >= 3 and draw(st.booleans()):
        # make the last row a combination of the first two, so singular cases are common
        a, b = draw(COEFFS), draw(COEFFS)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def _sympy_matrix(rows, nc):
    return sympy.Matrix(len(rows), nc, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row])


def _sympy_poly(p, symbols):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(symbols[v] ** e for v, e in mono))
        for mono, c in p.terms.items()
    ))


@given(rational_matrices(square=False))
@settings(max_examples=100, deadline=None)
def test_rank_matches_sympy(rows):
    nc = len(rows[0]) if rows else 1
    assert rank(rows) == _sympy_matrix(rows, nc).rank()


@given(rational_matrices(square=True))
@settings(max_examples=100, deadline=None)
def test_det_matches_sympy(rows):
    want = _sympy_matrix(rows, len(rows)).det()
    got = det(rows)
    assert isinstance(got, Fraction)
    assert sympy.Rational(got.numerator, got.denominator) == want


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        det([[1, 2], [3]])


def test_det_minor_matches_sympy_on_formal_242():
    x = formal_matrix(ParabolicType((2, 4, 2)))
    symbols = {(i, j): sympy.Symbol(f"x_{i}_{j}") for i in range(1, 9) for j in range(1, 9)}
    sx = sympy.Matrix(8, 8, lambda i, j: _sympy_poly(x.get(i + 1, j + 1), symbols))
    checked = 0
    for k in (1, 2, 3, 4):
        for rows in itertools.combinations(range(1, 9), k):
            for cols in itertools.combinations(range(1, 9), k):
                if (sum(rows) * 7 + sum(cols)) % 23:  # a fixed spread-out sample of index sets
                    continue
                sub = sx.extract([r - 1 for r in rows], [c - 1 for c in cols])
                got = _sympy_poly(det_minor(x, rows, cols), symbols)
                assert sympy.expand(got - sub.det(method="berkowitz")) == 0, (rows, cols)
                checked += 1
    assert checked > 200
