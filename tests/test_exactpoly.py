"""Tests for the exact arithmetic substrate."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilinv.exactpoly import MatrixPoint, Polynomial, T, det_minor, rank

X13 = Polynomial.var((1, 3))
X14 = Polynomial.var((1, 4))
X23 = Polynomial.var((2, 3))
X24 = Polynomial.var((2, 4))


def small_polys():
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    variables = st.sampled_from([(1, 2), (1, 3), (2, 3), T])
    mono = st.lists(st.tuples(variables, st.integers(1, 2)), max_size=2).map(tuple)
    return st.dictionaries(mono, coeffs, max_size=4).map(Polynomial)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero()
    assert p * Polynomial.one() == p
    assert p * Polynomial.zero() == Polynomial.zero()


def test_no_zero_terms_stored():
    p = X13 - X13 + Polynomial.constant(0)
    assert p.terms == {}
    q = Polynomial({((T, 1),): Fraction(1, 2), (): 0})
    assert () not in q.terms


def test_repeated_variable_in_a_monomial_is_merged():
    p = Polynomial({(((1, 2), 1), ((1, 2), 1)): 1})
    assert p == Polynomial.var((1, 2)) ** 2
    assert str(p) == "x[1,2]^2"
    q = Polynomial({((T, 1), ((1, 3), 1), (T, 2)): 2, (((1, 3), 1), (T, 3)): 1})
    assert q == 3 * X13 * Polynomial.var(T) ** 3


def test_power_and_degree():
    p = (X13 + 1) ** 3
    assert p.terms[(((1, 3), 2),)] == 3
    assert p.degree() == 3
    assert Polynomial.zero().degree() == -1


def test_substitute_examples():
    f = X13 * X24
    assert f.substitute({(1, 3): 0}) == Polynomial.zero()
    assert X23.substitute({}) == X23
    shift = X24 + Polynomial.var(T) * X23
    assert X24.substitute({(2, 4): shift}) == shift


def test_substitute_composes():
    f = X13 * X24 - X14 * X23
    g = f.substitute({(1, 3): X13 + X14}).substitute({(1, 4): 0})
    assert g == X13 * X24


def test_evaluate():
    f = X13 * X24 - X14 * X23
    vals = {(1, 3): 2, (2, 4): 3, (1, 4): 1, (2, 3): 5}
    assert f.evaluate(vals) == 1
    with pytest.raises(ValueError):
        f.evaluate({(1, 3): 2})


def test_derivative():
    f = X13 * X13 * X24 + 3 * X14
    assert f.derivative((1, 3)) == 2 * X13 * X24
    assert f.derivative((1, 4)) == Polynomial.constant(3)
    assert f.derivative((2, 3)) == Polynomial.zero()


def test_canonical_str():
    f = X13 * X24 - X14 * X23
    assert str(f) == "x[1,3]*x[2,4] - x[1,4]*x[2,3]"
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.constant(Fraction(-3, 2))) == "-3/2"
    assert str(-X13 + 1) == "-x[1,3] + 1"


def test_latex():
    f = X13 * X24 - X14 * X23
    assert f.latex() == "x_{13}x_{24} - x_{14}x_{23}"


@pytest.mark.parametrize(
    "poly, text, tex",
    [
        (
            -3 * Polynomial.var((1, 2)) ** 2 * Polynomial.var((10, 11))
            + Fraction(1, 2) * Polynomial.var((2, 3)) * Polynomial.var(T) ** 2
            + Polynomial.var("s") ** 3
            - Fraction(7, 3) * Polynomial.var((4, 5))
            + 5,
            "-3*x[1,2]^2*x[10,11] + 1/2*x[2,3]*t^2 + s^3 - 7/3*x[4,5] + 5",
            r"-3x_{12}^{2}x_{10,11} + \tfrac{1}{2}x_{23}t^{2} + s^{3} - \tfrac{7}{3}x_{45} + 5",
        ),
        (
            Fraction(-2, 5) * Polynomial.var((1, 12)) * Polynomial.var("s") - Polynomial.var((3, 4)) - Fraction(1, 3),
            "-2/5*x[1,12]*s - x[3,4] - 1/3",
            r"-\tfrac{2}{5}x_{1,12}s - x_{34} - \tfrac{1}{3}",
        ),
        (Polynomial.var((2, 3)) - 1, "x[2,3] - 1", "x_{23} - 1"),
        (Polynomial.constant(Fraction(-3, 4)), "-3/4", r"-\tfrac{3}{4}"),
        (Polynomial.zero(), "0", "0"),
    ],
    ids=["mixed", "negative-fraction", "unit", "constant", "zero"],
)
def test_str_and_latex_share_one_term_layout(poly, text, tex):
    # expected strings pin the renderings: fractional coefficients (\tfrac), named
    # parameters with exponents, two-digit indices, constants, negative leading terms
    assert str(poly) == text
    assert poly.latex() == tex


def _x_matrix_242():
    blocks = [1, 1, 2, 2, 2, 2, 3, 3]
    return MatrixPoint(8, [
        [Polynomial.var((i, j)) if blocks[i - 1] < blocks[j - 1] else Polynomial.zero() for j in range(1, 9)]
        for i in range(1, 9)
    ])


def test_det_examples():
    m = _x_matrix_242()
    assert det_minor(m, (1, 2), (3, 4)) == X13 * X24 - X14 * X23
    assert det_minor(m, (2,), (3,)) == X23
    # rows/cols inside one block: identically zero entries
    assert det_minor(m, (3, 4), (5, 6)) == Polynomial.zero()


def test_det_errors():
    m = _x_matrix_242()
    with pytest.raises(ValueError):
        det_minor(m, (1, 2), (3,))
    with pytest.raises(ValueError):
        det_minor(m, (2, 1), (3, 4))
    with pytest.raises(ValueError):
        det_minor(m, (0, 1), (3, 4))


def _perm_expansion(m, rows, cols):
    total = Polynomial.zero()
    k = len(rows)
    for perm in itertools.permutations(range(k)):
        sign = 1
        for a in range(k):
            for b in range(a + 1, k):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Polynomial.constant(sign)
        for a in range(k):
            term = term * m.get(rows[a], cols[perm[a]])
        total = total + term
    return total


def test_det_matches_permutation_expansion():
    m = _x_matrix_242()
    cases = [((1, 2), (3, 4)), ((1, 2), (7, 8)), ((1, 2, 3), (4, 6, 7)), ((1, 2, 3, 4), (5, 6, 7, 8))]
    for rows, cols in cases:
        assert det_minor(m, rows, cols) == _perm_expansion(m, rows, cols)


def test_poly_matrix_power():
    m = _x_matrix_242()
    sq = m * m
    expect = Polynomial.zero()
    for c in range(3, 7):
        expect = expect + Polynomial.var((1, c)) * Polynomial.var((c, 7))
    assert sq.get(1, 7) == expect


def _full_product(a, b):
    # every pair of entries multiplied, zeros included
    return [[sum(a.get(i, k) * b.get(k, j) for k in range(1, a.n + 1)) for j in range(1, a.n + 1)]
            for i in range(1, a.n + 1)]


def test_product_skipping_zeros_matches_full_product_over_both_rings():
    x = _x_matrix_242()
    t = Polynomial.var(T)
    shear = MatrixPoint.identity(8)
    shear.rows[2][3] = -t
    point = MatrixPoint.from_dict(8, {(1, 3): Fraction(5, 3), (2, 4): -2, (4, 7): 7, (3, 8): Fraction(-1, 2)})
    cases = [(x, x), (x * x, x), (shear, x), (x, shear), (point, point), (point, MatrixPoint.identity(8)),
             (MatrixPoint.zeros(8), point), (point, point * point)]
    for a, b in cases:
        ring = Polynomial if Polynomial in {type(v) for m in (a, b) for row in m.rows for v in row} else Fraction
        product = a * b
        assert product.rows == _full_product(a, b)
        assert all(type(v) is ring for row in product.rows for v in row)


def test_rank_examples():
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1 if i == j else 0 for j in range(5)] for i in range(5)]) == 5
    weights = [
        [0, 0, 1, 0, 0, -1, 0, 0],
        [0, 0, 1, 0, -1, 0, 0, 0],
        [0, 0, 0, 1, 0, -1, 0, 0],
        [0, 0, 0, 1, -1, 0, 0, 0],
    ]
    assert rank(weights) == 3
    assert rank([]) == 0


def test_rank_with_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
    assert rank(m) == 2
    # second row is a rational multiple of the first
    m2 = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(2, 3), Fraction(1, 3)]]
    assert rank(m2) == 1


def _rank_row_reduce(matrix):
    # independent oracle: naive Gaussian elimination over Fraction
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    r = 0
    for c in range(nc):
        piv = next((p for p in range(r, nr) if m[p][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for p in range(nr):
            if p != r and m[p][c] != 0:
                f = m[p][c] / m[r][c]
                m[p] = [a - f * b for a, b in zip(m[p], m[r])]
        r += 1
    return r


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=80, deadline=None)
def test_rank_matches_row_reduction_and_transpose(matrix):
    want = _rank_row_reduce(matrix)
    assert rank(matrix) == want
    transpose = [list(col) for col in zip(*matrix)]
    assert rank(transpose) == want


def test_matrix_point_roundtrip():
    p = MatrixPoint.from_dict(4, {(1, 3): Fraction(5, 3), (2, 4): -2})
    assert p.get(1, 3) == Fraction(5, 3)
    assert p.support() == {(1, 3), (2, 4)}
    doc = p.to_json_dict()
    assert doc == {"n": 4, "entries": [[1, 3, "5/3"], [2, 4, "-2"]]}
    assert MatrixPoint.from_json_dict(doc) == p
    with pytest.raises(ValueError):
        MatrixPoint.from_json_dict({"n": 4, "entries": [[1, 3, 0.5]]})
    with pytest.raises(ValueError):
        MatrixPoint.from_dict(2, {(3, 3): 1})
