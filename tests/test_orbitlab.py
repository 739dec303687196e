"""Tests for the orbit geometry: adjoint action, dimensions, reduction."""

import random
from fractions import Fraction

import pytest

from nilinv.errors import OutsideU0Error, UnsupportedTypeError
from nilinv.exactpoly import MatrixPoint
from nilinv.invgen import build_generators, formal_matrix, invariant_values
from nilinv.orbitlab import (
    GroupElement,
    adjoint,
    bracket,
    max_orbit_dim,
    orbit_dim,
    orbit_experiment,
    random_unitriangular,
    reduce_to_canonical,
    sample_point,
    sample_u0_point,
    verify_unique_intersection,
)
from nilinv.rootcomb import ParabolicType, admissible_pairs, compute_base, nilradical_roots, phi_set

P242 = ParabolicType((2, 4, 2))


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(2, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]])
    with pytest.raises(ValueError):
        GroupElement(2, [[Fraction(1), Fraction(0)], [Fraction(3), Fraction(1)]])
    g = GroupElement.elementary(3, 1, 2, Fraction(5))
    assert g.rows[0][1] == 5


def test_group_inverse():
    rng = random.Random(0)
    for n in range(1, 9):
        for _ in range(10):
            g = random_unitriangular(n, rng, ops=12 if n > 1 else 0)
            h = g.inverse()
            assert isinstance(h, GroupElement) and all(isinstance(v, Fraction) for row in h.rows for v in row)
            assert (g * h).rows == GroupElement.identity(n).rows
            assert (h * g).rows == GroupElement.identity(n).rows


def test_adjoint_identity_and_composition():
    rng = random.Random(1)
    x = sample_point(P242, rng)
    assert adjoint(P242, GroupElement.identity(8), x) == x
    g = random_unitriangular(8, rng)
    h = random_unitriangular(8, rng)
    assert adjoint(P242, g, adjoint(P242, h, x)) == adjoint(P242, g * h, x)


def test_adjoint_rejects_off_nilradical_points():
    bad = MatrixPoint.from_dict(8, {(3, 5): 1})  # same diagonal block
    with pytest.raises(ValueError):
        adjoint(P242, GroupElement.identity(8), bad)


def test_adjoint_preserves_generator_values():
    gens = build_generators(P242)
    rng = random.Random(2)
    for _ in range(5):
        x = sample_point(P242, rng)
        g = random_unitriangular(8, rng)
        moved = adjoint(P242, g, x)
        assert invariant_values(gens, moved) == invariant_values(gens, x)


def _assert_bracket_is_commutator(pt, x):
    positions = sorted(nilradical_roots(pt))
    for i in range(1, pt.n):
        for j in range(i + 1, pt.n + 1):
            e = MatrixPoint.zeros(pt.n)
            e.rows[i - 1][j - 1] = Fraction(1)
            left, right = e * x, x * e
            assert bracket(positions, i, j, x) == [left.get(*r) - right.get(*r) for r in positions]


def test_bracket_matches_matrix_products():
    # [E_ij, x] from MatrixPoint products, at rational points and on the formal matrix
    rng = random.Random(6)
    for sizes in [(2, 4, 2), (2, 1, 3, 2), (3, 2, 2), (1, 1, 1, 1)]:
        pt = ParabolicType(sizes)
        entries = {r: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for r in nilradical_roots(pt)}
        _assert_bracket_is_commutator(pt, MatrixPoint.from_dict(pt.n, entries))
    for sizes in [(3, 2, 2), (1, 1, 1, 1), (2, 2)]:
        pt = ParabolicType(sizes)
        _assert_bracket_is_commutator(pt, formal_matrix(pt))


def test_orbit_dim_examples():
    assert orbit_dim(P242, MatrixPoint.zeros(8)) == 0
    rng = random.Random(3)
    assert orbit_dim(P242, sample_u0_point(P242, rng)) == 12
    borel = ParabolicType((1, 1, 1, 1))
    assert orbit_dim(borel, sample_u0_point(borel, rng)) == 3


def test_max_orbit_dim():
    assert max_orbit_dim(P242, 20, seed=3) == 12
    assert max_orbit_dim(ParabolicType((2, 1, 3, 2)), 20, seed=3) == 15
    assert max_orbit_dim(ParabolicType((5,)), 3, seed=3) == 0
    with pytest.raises(ValueError):
        max_orbit_dim(P242, 0)


def test_orbit_dim_bounded_by_prediction_on_covered_types():
    rng = random.Random(4)
    for sizes in [(2, 2), (3, 2, 1), (2, 4, 2), (1, 2, 3), (2, 2, 1, 1)]:
        pt = ParabolicType(sizes)
        predicted = orbit_experiment(pt, 1, seed=1)["predicted"]
        for _ in range(8):
            assert orbit_dim(pt, sample_point(pt, rng)) <= predicted
        # every U0 point of a covered type is regular
        assert orbit_dim(pt, sample_u0_point(pt, rng)) == predicted


def test_orbit_experiment_record():
    rec = orbit_experiment(P242, trials=20, seed=9)
    assert rec["covered"] and rec["match"] and rec["pass"]
    assert rec["max_rank"] == rec["predicted"] == 12
    rec2 = orbit_experiment(ParabolicType((1, 2, 2, 1)), trials=20, seed=9)
    assert not rec2["covered"]
    assert rec2["exceeds_prediction"] is (rec2["max_rank"] > rec2["predicted"])


def test_reduce_2_2_closed_form():
    pt = ParabolicType((2, 2))
    a13, a14, a23, a24 = Fraction(5), Fraction(7), Fraction(3), Fraction(2)
    A = MatrixPoint.from_dict(4, {(1, 3): a13, (1, 4): a14, (2, 3): a23, (2, 4): a24})
    g, y = reduce_to_canonical(pt, A)
    assert y.get(2, 3) == a23
    assert y.get(1, 4) == -(a13 * a24 - a14 * a23) / a23
    assert y.support() <= {(2, 3), (1, 4)}
    assert adjoint(pt, g, A) == y


def test_reduce_lands_on_slice_and_is_conjugation():
    for sizes in [(2, 2), (2, 2, 1, 1), (2, 2, 2, 1, 1), (3, 2, 1), (2, 4, 2), (3, 1, 3)]:
        pt = ParabolicType(sizes)
        slice_pos = {tuple(r) for r in compute_base(pt).roots} | {
            tuple(r) for r in phi_set(admissible_pairs(pt))
        }
        rng = random.Random(sum(sizes))
        for _ in range(5):
            A = sample_u0_point(pt, rng)
            g, y = reduce_to_canonical(pt, A)
            assert y.support() <= slice_pos
            assert adjoint(pt, g, A) == y


def test_reduce_errors():
    with pytest.raises(OutsideU0Error) as err:
        reduce_to_canonical(ParabolicType((2, 2)), MatrixPoint.from_dict(4, {(1, 4): 3}))
    assert tuple(err.value.xi) == (2, 3)
    with pytest.raises(UnsupportedTypeError):
        reduce_to_canonical(ParabolicType((2, 1, 3, 2)), MatrixPoint.zeros(8))
    with pytest.raises(ValueError):
        reduce_to_canonical(P242, MatrixPoint.from_dict(8, {(3, 5): 1}))


def test_reduce_fixes_slice_points():
    # a generic slice point reduces to itself with g = identity
    pt = P242
    entries = {}
    val = 2
    for xi in compute_base(pt).by_column():
        entries[tuple(xi)] = val
        val += 1
    for phi in sorted(phi_set(admissible_pairs(pt))):
        entries[tuple(phi)] = val
        val += 1
    A = MatrixPoint.from_dict(8, entries)
    g, y = reduce_to_canonical(pt, A)
    assert y == A
    assert g.rows == GroupElement.identity(8).rows


def test_reduce_idempotent():
    rng = random.Random(6)
    for sizes in [(2, 2, 1, 1), (2, 4, 2)]:
        pt = ParabolicType(sizes)
        A = sample_u0_point(pt, rng)
        _, y = reduce_to_canonical(pt, A)
        g2, y2 = reduce_to_canonical(pt, y)
        assert y2 == y
        assert g2.rows == GroupElement.identity(pt.n).rows


def test_verify_unique_intersection_batches():
    for sizes in [(2, 2), (2, 2, 1, 1), (3, 2, 1), (2, 4, 2)]:
        pt = ParabolicType(sizes)
        gens = build_generators(pt)
        rng = random.Random(10 + sum(sizes))
        for _ in range(10):
            rep = verify_unique_intersection(pt, sample_u0_point(pt, rng), gens)
            assert rep["invariants_preserved"]
            assert rep["y_coordinates_agree"]
            assert rep["pass"]
