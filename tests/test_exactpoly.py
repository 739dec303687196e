"""Tests for the exact arithmetic substrate."""

import functools
import gc
import inspect
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilinv import exactpoly, invgen, orbitlab
from nilinv.exactpoly import MatrixPoint, Polynomial, T, _eliminate, _mono_mul, _var_key, det_minor, rank
from nilinv.invgen import formal_matrix
from nilinv.orbitlab import DEFAULT_SEED, bracket, max_orbit_dim, orbit_dim, sample_point
from nilinv.rootcomb import ParabolicType, compositions, nilradical_roots
from oracles import bareiss, degree, full_minor, gradient, identity, matmul, without_lcm_scaling

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
    # a repeated monomial that cancels once its factors are merged, and a product term that cancels
    a, b = (1, 3), (2, 4)
    assert Polynomial({((a, 1), (b, 1)): 1, ((b, 1), (a, 1)): -1}).terms == {}
    assert ((X13 + X24) * (X13 - X24)).terms == {((a, 2),): 1, ((b, 2),): -1}


def test_repeated_variable_in_a_monomial_is_merged():
    p = Polynomial({(((1, 2), 1), ((1, 2), 1)): 1})
    assert p == Polynomial.var((1, 2)) ** 2
    assert str(p) == "x[1,2]^2"
    q = Polynomial({((T, 1), ((1, 3), 1), (T, 2)): 2, (((1, 3), 1), (T, 3)): 1})
    assert q == 3 * X13 * Polynomial.var(T) ** 3


def merge_oracle(items) -> tuple:
    # the dict-plus-sort canonicalizer that _mono_mul replaced: add shared exponents, drop zeros, sort every factor
    exps: dict = {}
    for v, e in items:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda ve: _var_key(ve[0])))


# positions, named parameters and t, so that the three kinds of variable interleave and shared ones are frequent
MIXED_VARIABLES = st.sampled_from([(1, 2), (1, 3), (2, 3), (2, 10), (10, 2), "a", "b1", "c", T])


def canonical_monos():
    return st.lists(st.tuples(MIXED_VARIABLES, st.integers(1, 3)), max_size=6).map(merge_oracle)


@given(canonical_monos(), canonical_monos())
@settings(max_examples=300, deadline=None)
def test_mono_mul_matches_the_dict_and_sort_merge(m1, m2):
    assert _mono_mul(m1, m2) == merge_oracle(m1 + m2)
    assert _mono_mul(m2, m1) == _mono_mul(m1, m2)


@given(st.lists(st.tuples(MIXED_VARIABLES, st.integers(-2, 3)), max_size=8))
@settings(max_examples=300, deadline=None)
def test_constructor_makes_any_monomial_canonical(factors):
    # unsorted input, repeated variables and zero (or negative) exponents all come out as the oracle's monomial
    canonical = merge_oracle(factors)
    assert Polynomial({tuple(factors): 3}).terms == {canonical: 3}
    assert Polynomial({tuple(reversed(factors)): 3}).terms == {canonical: 3}


def test_constructor_drops_a_factor_whose_exponents_cancel():
    a, b = (1, 3), (2, 4)
    p = Polynomial({((T, 1), (b, 2), (a, 0), (b, -2), ("s", 1)): 5})
    assert p.terms == {(("s", 1), (T, 1)): 5}
    assert Polynomial({((a, 1), (a, -1)): 2}) == Polynomial.constant(2)


def test_power_and_degree():
    p = (X13 + 1) ** 3
    assert p.terms[(((1, 3), 2),)] == 3
    assert degree(p) == 3
    assert degree(Polynomial.zero()) == -1


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


def test_gradient_and_derive():
    f = X13 * X13 * X24 + 3 * X14 - Fraction(1, 2) * Polynomial.var(T)
    grad = gradient(f, {(1, 3): 2, (2, 4): Fraction(-1, 3), (1, 4): 7, T: 5, (2, 3): 9})
    assert grad == {(1, 3): Fraction(-4, 3), (2, 4): 4, (1, 4): 3, T: Fraction(-1, 2)}
    assert all(isinstance(x, Fraction) for x in grad.values())
    assert gradient(Polynomial.constant(4), {}) == {} and gradient(Polynomial.zero(), {}) == {}
    # D(f) = df/dx13 * x23 + df/dt * 2; a variable without an image is a constant of D
    assert f.derive({(1, 3): X23, T: 2}) == 2 * X13 * X23 * X24 - 1
    assert f.derive({}) == Polynomial.zero()


def test_gradient_names_a_missing_variable_as_evaluate_does():
    f = X13 * X24 - X14 * X23
    values = {(1, 3): 2, (2, 4): 3, (1, 4): 1}
    with pytest.raises(ValueError) as by_evaluate:
        f.evaluate(values)
    with pytest.raises(ValueError) as by_gradient:
        gradient(f, values)
    assert str(by_gradient.value) == str(by_evaluate.value) == "no value supplied for variable (2, 3)"


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


def test_det_minor_leaves_no_garbage():
    # the sub-minor memo is freed on return, not left in a reference cycle for the collector
    x = formal_matrix(ParabolicType((1,) * 8))
    gc.collect()
    gc.disable()
    try:
        minor = det_minor(x, (1, 2, 3, 4), (5, 6, 7, 8))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(minor.terms) == 24


def test_det_matches_permutation_expansion():
    m = _x_matrix_242()
    cases = [((1, 2), (3, 4)), ((1, 2), (7, 8)), ((1, 2, 3), (4, 6, 7)), ((1, 2, 3, 4), (5, 6, 7, 8))]
    for rows, cols in cases:
        assert det_minor(m, rows, cols) == _perm_expansion(m, rows, cols)


def test_poly_matrix_power():
    m = _x_matrix_242()
    sq = matmul(m, m)
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
    shear = identity(8)
    shear.rows[2][3] = -t
    point = MatrixPoint.from_dict(8, {(1, 3): Fraction(5, 3), (2, 4): -2, (4, 7): 7, (3, 8): Fraction(-1, 2)})
    cases = [(x, x), (matmul(x, x), x), (shear, x), (x, shear), (point, point), (point, identity(8)),
             (MatrixPoint.zeros(8), point), (point, matmul(point, point))]
    for a, b in cases:
        ring = Polynomial if Polynomial in {type(v) for m in (a, b) for row in m.rows for v in row} else Fraction
        product = matmul(a, b)
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


def test_det_scales_rows_of_different_denominators_by_one_lcm():
    # L = 30 scales both rows; the full minor of the scaled rows is divided by L**2
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(7)]]
    assert full_minor(m) == Fraction(103, 30) == bareiss(m)[1]
    assert full_minor([]) == 1 == bareiss([])[1]


@functools.cache
def _scaling_cases():
    """Square matrices of orders 1 to 4 with entries a/b, b in 1..4, each beside its integral twin with entries a.

    About half of those of order above 1 end in their first row halved.
    """
    rng = random.Random(DEFAULT_SEED)
    cases = []
    for k in [1, 2, 3, 4] * 10:
        pairs = [[(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)] for _ in range(k)]
        if k > 1 and rng.random() < 0.5:  # the first row halved: a rank that hangs on the exact values
            pairs[-1] = [(a, 2 * b) for a, b in pairs[0]]
        cases.append([[Fraction(a, b) for a, b in row] for row in pairs])
        cases.append([[Fraction(a) for a, _ in row] for row in pairs])
    return cases


def test_rank_and_det_without_the_lcm_scaling_are_caught():
    # the determinant is the full minor of invgen.minors_at
    (mutant_rank,) = without_lcm_scaling(exactpoly, "rank")
    (mutant_minors,) = without_lcm_scaling(invgen, "minors_at")
    mutant_det = lambda m: full_minor(m, mutant_minors)
    integral = lambda m: all(v.denominator == 1 for row in m for v in row)
    fractional = [m for m in _scaling_cases() if not integral(m)]
    assert any(mutant_rank(m) != bareiss(m)[0] for m in fractional)
    assert any(mutant_det(m) != bareiss(m)[1] for m in fractional)
    # on integer rows the mutants are rank and the full minor
    for m in filter(integral, _scaling_cases()):
        assert (mutant_rank(m), mutant_det(m)) == (rank(m), full_minor(m)) == bareiss(m)


def test_rank_rejects_ragged_rows():
    # one row shorter than the first, and one longer: neither is cut to the first row's width
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="ragged rows"):
            rank(ragged)


@functools.cache
def _bracket_cases():
    """orbit_dim's bracket matrix at a DEFAULT_SEED sample point of each composition with n <= 7, and its leading minors."""
    cases = []
    for n in range(1, 8):
        for sizes in compositions(n):
            pt = ParabolicType(sizes)
            x = sample_point(pt, random.Random(DEFAULT_SEED))
            positions = sorted(nilradical_roots(pt))
            entries = [bracket(i, j, x) for i, j in itertools.combinations(range(1, n + 1), 2)]
            m = [[int(e.get(r, 0)) for r in positions] for e in entries]
            assert rank(m) == orbit_dim(pt, x)
            cases.append((sizes, m))
            cases += [((sizes, k), [row[:k] for row in m[:k]]) for k in range(1, min(len(m), len(positions)) + 1)]
    return cases


def test_eliminate_matches_textbook_bareiss_on_bracket_matrices():
    cases = _bracket_cases()
    assert len(cases) > 1000
    for label, m in cases:
        assert _eliminate([row[:] for row in m]) == bareiss(m), label


def test_eliminate_without_the_lift_is_caught_on_bracket_matrices():
    # the mutant reads a row left alone since an earlier step as if it were current
    source, lifts = re.subn(r"if last\[\w\] != prev:", "if False:", inspect.getsource(_eliminate))
    assert lifts == 2
    namespace = dict(vars(exactpoly))
    exec(source, namespace)
    mutant = namespace["_eliminate"]
    assert any(mutant([row[:] for row in m]) != bareiss(m) for _, m in _bracket_cases())


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


def _commutator_rank(pt, x):
    # the naive path: [E_ij, x] from two matrix products, ranked by Fraction row reduction
    positions = sorted(nilradical_roots(pt))
    matrix = []
    for i, j in itertools.combinations(range(1, pt.n + 1), 2):
        e = MatrixPoint.zeros(pt.n)
        e.rows[i - 1][j - 1] = Fraction(1)
        left, right = matmul(e, x), matmul(x, e)
        matrix.append([left.get(*r) - right.get(*r) for r in positions])
    return _rank_row_reduce(matrix)


@functools.cache
def _cross_check_cases():
    """(type, point, naive rank) on every composition with n <= 7 at three points.

    The points are a DEFAULT_SEED integer point, a point with denominators 2 to 4
    and the zero point.  The fractional point is x_(p,q) = a_p / b_q with a_p in
    -9..9 and b_q in 2..4: a rank-one matrix on the nilradical, so its orbit is
    not generic and its rank hangs on the exact values.
    """
    cases = []
    for n in range(1, 8):
        for sizes in compositions(n):
            pt, rng = ParabolicType(sizes), random.Random(DEFAULT_SEED)
            a, b = [rng.randint(-9, 9) for _ in range(n)], [rng.randint(2, 4) for _ in range(n)]
            fractional = MatrixPoint.from_dict(n, {r: Fraction(a[r.i - 1], b[r.j - 1]) for r in nilradical_roots(pt)})
            for x in (sample_point(pt, random.Random(DEFAULT_SEED)), fractional, MatrixPoint.zeros(n)):
                cases.append((pt, x, _commutator_rank(pt, x)))
    return cases


def test_orbit_dim_matches_naive_commutator_rank():
    # orbit_dim scales x to integers and places sparse bracket rows; the naive path does neither
    cases = _cross_check_cases()
    assert len(cases) == 3 * 127
    for pt, x, want in cases:
        assert orbit_dim(pt, x) == want, (pt.block_sizes, x.to_json_dict())


def test_orbit_dim_without_the_lcm_scaling_is_caught():
    # the mutant keeps only the numerators: a different point unless every denominator is 1
    (mutant,) = without_lcm_scaling(orbitlab, "orbit_dim")
    integral = lambda x: all(v.denominator == 1 for row in x.rows for v in row)
    assert any(mutant(pt, x) != want for pt, x, want in _cross_check_cases() if not integral(x))
    # at an integer point the mutant is orbit_dim
    assert all(mutant(pt, x) == want for pt, x, want in _cross_check_cases() if integral(x))


def test_orbit_dim_on_a_layout_without_the_negative_entries_is_caught():
    # the mutant layout keeps only the x_(j,q) entries at (i,q) and leaves out every -x_(p,i) at (p,j);
    # a layout that drops only their minus sign gives the same rank on every case here, so
    # test_bracket_layout_places_the_bracket_entries catches that one by its entries
    source, subs = re.subn(r"\.items\(\) if v\]", ".items() if v > 0]", inspect.getsource(orbitlab.bracket_layout))
    assert subs == 1
    namespace = dict(vars(orbitlab))
    exec(source, namespace)
    exec(inspect.getsource(orbit_dim), namespace)
    mutant = namespace["orbit_dim"]
    assert any(mutant(pt, x) != want for pt, x, want in _cross_check_cases())


def test_max_orbit_dim_is_the_best_naive_rank_over_the_sampled_points():
    # max_orbit_dim draws its integers without a MatrixPoint; the naive path ranks the sample_point draws of one seed
    for n in range(1, 7):
        for sizes in compositions(n):
            pt = ParabolicType(sizes)
            for seed, trials in ((DEFAULT_SEED, 3), (n, 2)):
                rng = random.Random(seed)
                want = max(_commutator_rank(pt, sample_point(pt, rng)) for _ in range(trials))
                assert max_orbit_dim(pt, trials, seed) == want, (sizes, seed)


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
