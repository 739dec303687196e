"""Differential tests of the exact polynomial arithmetic and linear algebra against sympy."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilinv.exactpoly import Polynomial, T, _var_key, det_minor, rank
from nilinv.invgen import formal_matrix
from nilinv.rootcomb import ParabolicType
from oracles import full_minor, gradient

sympy = pytest.importorskip("sympy")

# plain ints as well as Fractions, so rank and minors_at run on int, Fraction and mixed rows
ENTRIES = st.one_of(
    st.just(Fraction(0)), st.just(0), st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=4)
)
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


# mostly zeros, ints and Fractions mixed, up to 8 x 8: elimination leaves rows alone and lifts them later
SPARSE_ENTRIES = st.one_of(
    st.just(0), st.just(0), st.just(Fraction(0)), st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=4)
)


@st.composite
def sparse_matrices(draw, square: bool):
    nr = draw(st.integers(1, 8))
    nc = nr if square else draw(st.integers(1, 8))
    return draw(st.lists(st.lists(SPARSE_ENTRIES, min_size=nc, max_size=nc), min_size=nr, max_size=nr))


def _sympy_matrix(rows, nc):
    return sympy.Matrix(len(rows), nc, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row])


def _sympy_poly(p, symbols):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(symbols[v] ** e for v, e in mono))
        for mono, c in p.terms.items()
    ))


@given(rational_matrices(square=False))
@example([[1, 2, 3], [2, 4, 6]])
@example([[Fraction(1, 2), 1], [1, 2], [0, Fraction(-3, 4)]])
@settings(max_examples=100, deadline=None)
def test_rank_matches_sympy(rows):
    nc = len(rows[0]) if rows else 1
    assert rank(rows) == _sympy_matrix(rows, nc).rank()


@given(rational_matrices(square=True))
@example([[2, -1], [3, 4]])
@example([[Fraction(1, 3), 2], [5, Fraction(-1, 2)]])
@settings(max_examples=100, deadline=None)
def test_det_matches_sympy(rows):
    # the determinant is the full minor of minors_at, at the matrix as a point
    want = _sympy_matrix(rows, len(rows)).det()
    got = full_minor(rows)
    assert isinstance(got, Fraction)
    assert sympy.Rational(got.numerator, got.denominator) == want


# row 2 is left alone at step 0 and lifted by P[1]/P[0] = 2 at step 1; without the lift the determinant reads 8
LIFTED = [[2, 1, 0], [0, 3, 1], [0, 5, 7]]


@given(sparse_matrices(square=False))
@example(LIFTED)
@settings(max_examples=100, deadline=None)
def test_rank_matches_sympy_on_sparse_matrices(rows):
    assert rank(rows) == _sympy_matrix(rows, len(rows[0])).rank()


@given(sparse_matrices(square=True))
@example(LIFTED)
@settings(max_examples=100, deadline=None)
def test_det_matches_sympy_on_sparse_matrices(rows):
    got = full_minor(rows)
    assert sympy.Rational(got.numerator, got.denominator) == _sympy_matrix(rows, len(rows)).det()


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


# -- Polynomial arithmetic -----------------------------------------------------

# a few position variables and the deformation parameter t, as in one_param_transform
VARS = [(1, 3), (1, 4), (2, 4), T]
SYMBOLS = {v: sympy.Symbol(v if v == T else f"x_{v[0]}_{v[1]}") for v in VARS}
# a monomial may repeat a variable; the constructor merges the factors
MONOMIALS = st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 3)), max_size=3).map(tuple)
POLYS = st.dictionaries(MONOMIALS, COEFFS, max_size=5).map(Polynomial)
VALUES = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _sym(p):
    return _sympy_poly(p, SYMBOLS)


def _agrees(p, want):
    # p's terms are canonical (sorted, merged, no zero coefficient) and equal want once expanded
    assert Polynomial(p.terms).terms == p.terms and all(p.terms.values())
    return sympy.expand(_sym(p) - want) == 0


@given(POLYS, POLYS)
@settings(max_examples=60, deadline=None)
def test_polynomial_ring_operations_match_sympy(p, q):
    assert _agrees(p + q, _sym(p) + _sym(q))
    assert _agrees(p - q, _sym(p) - _sym(q))
    assert _agrees(p - p, 0) and not (p - p)
    assert _agrees(-p, -_sym(p))
    assert _agrees(p * q, _sym(p) * _sym(q))
    assert (p == q) == (sympy.expand(_sym(p) - _sym(q)) == 0)


@given(POLYS, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_polynomial_power_matches_sympy(p, k):
    assert _agrees(p**k, _sym(p) ** k)


@given(POLYS, st.sampled_from(VARS))
@settings(max_examples=60, deadline=None)
def test_polynomial_derivative_matches_sympy(p, v):
    assert _agrees(p.derivative(v), sympy.diff(_sym(p), SYMBOLS[v]))


# a named parameter besides t, so the gradient also sees two string variables
GRAD_VARS = VARS + ["a"]
GRAD_SYMBOLS = {**SYMBOLS, "a": sympy.Symbol("a")}
GRAD_MONOMIALS = st.lists(st.tuples(st.sampled_from(GRAD_VARS), st.integers(1, 3)), max_size=4).map(tuple)
GRAD_POLYS = st.dictionaries(GRAD_MONOMIALS, COEFFS, max_size=6).map(Polynomial)
GRAD_POINTS = st.tuples(*[st.one_of(VALUES, st.integers(-4, 4))] * len(GRAD_VARS))


@given(GRAD_POLYS, GRAD_POINTS)
@settings(max_examples=60, deadline=None)
def test_polynomial_gradient_matches_derivatives_and_sympy(p, values):
    point = dict(zip(GRAD_VARS, values))
    grad = gradient(p, point)
    # the path it replaces: one derivative polynomial per variable, then evaluated
    assert grad == {v: p.derivative(v).evaluate(point) for v in p.variables()}
    at = {GRAD_SYMBOLS[v]: sympy.Rational(x.numerator, x.denominator) for v, x in point.items()}
    for v, g in grad.items():
        want = sympy.diff(_sympy_poly(p, GRAD_SYMBOLS), GRAD_SYMBOLS[v]).xreplace(at)
        assert sympy.Rational(g.numerator, g.denominator) == want


@given(POLYS, st.dictionaries(st.sampled_from(VARS), st.one_of(POLYS, VALUES, st.integers(-3, 3)), max_size=3))
@settings(max_examples=60, deadline=None)
def test_polynomial_derive_matches_derivatives_and_sympy(p, images):
    got = p.derive(images)
    # the path it replaces: one derivative polynomial per variable, times its image, summed
    assert got == sum((p.derivative(v) * images[v] for v in p.variables() if v in images), Polynomial.zero())
    want = sum(
        sympy.diff(_sym(p), SYMBOLS[v]) * (_sym(img) if isinstance(img, Polynomial) else sympy.Rational(img))
        for v, img in images.items()
    )
    assert _agrees(got, want)


@given(POLYS, st.dictionaries(st.sampled_from(VARS), st.one_of(POLYS, VALUES, st.integers(-3, 3)), max_size=3))
@settings(max_examples=50, deadline=None)
def test_polynomial_substitute_matches_sympy(p, mapping):
    image = {SYMBOLS[v]: _sym(img) if isinstance(img, Polynomial) else sympy.Rational(img) for v, img in mapping.items()}
    assert _agrees(p.substitute(mapping), _sym(p).xreplace(image))


# positions, one named parameter and t, listed out of order; _var_key puts t last
ORDER_VARS = [T, (2, 4), "a", (1, 3), (1, 4), (3, 5)]
ORDER_GENS = sorted(ORDER_VARS, key=_var_key)
ORDER_MONOMIALS = st.lists(st.tuples(st.sampled_from(ORDER_VARS), st.integers(1, 3)), max_size=4).map(tuple)


@given(st.dictionaries(ORDER_MONOMIALS, COEFFS, max_size=8).map(Polynomial))
# two monomials of one degree that first differ in an exponent, then in a variable
@example(Polynomial({(((1, 3), 1), ((2, 4), 2)): 1, (((1, 3), 2), ((2, 4), 1)): 2, (((1, 4), 1), ("a", 2)): -1, ((T, 3),): 1}))
@settings(max_examples=100, deadline=None)
def test_printed_term_order_is_sympy_grlex(p):
    # str and latex print the terms in this order
    symbols = {v: sympy.Symbol(v if isinstance(v, str) else f"x_{v[0]}_{v[1]}") for v in ORDER_VARS}
    got = [(tuple(dict(mono).get(v, 0) for v in ORDER_GENS), coef) for mono, coef in p._sorted_terms()]
    poly = sympy.Poly(_sympy_poly(p, symbols), *(symbols[v] for v in ORDER_GENS))
    want = [(monom, Fraction(int(c.p), int(c.q))) for monom, c in poly.terms(order="grlex") if c != 0]
    assert got == want


@given(POLYS, st.tuples(*[VALUES] * len(VARS)))
@settings(max_examples=60, deadline=None)
def test_polynomial_evaluate_matches_sympy(p, values):
    point = dict(zip(VARS, values))
    got = p.evaluate(point)
    assert isinstance(got, Fraction)
    want = _sym(p).xreplace({SYMBOLS[v]: sympy.Rational(x.numerator, x.denominator) for v, x in point.items()})
    assert sympy.Rational(got.numerator, got.denominator) == want
