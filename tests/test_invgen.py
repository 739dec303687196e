"""Tests for generator construction, restriction, and slice coordinates."""

import json
import random
import sys
from fractions import Fraction

import pytest

from nilinv.errors import OutsideU0Error, UnsupportedTypeError
from nilinv.exactpoly import MatrixPoint, Polynomial
from nilinv.invgen import (
    InvariantValues,
    build_generators,
    formal_matrix,
    invariant_values,
    l_poly,
    minor_poly,
    power_minor,
    restrict,
    vanishing_minor,
    y_coordinates,
)
from nilinv.cli import main
from nilinv.orbitlab import DEFAULT_SEED, sample_point, sample_u0_point, verify_unique_intersection
from nilinv.rootcomb import (
    AdmissiblePair,
    ParabolicType,
    Root,
    admissible_pairs,
    compute_base,
    is_covered,
    nilradical_roots,
    phi_set,
    s_gamma,
)

P242 = ParabolicType((2, 4, 2))


def V(i, j):
    return Polynomial.var((i, j))


def test_formal_matrix_support():
    m = formal_matrix(P242)
    assert m.get(2, 3) == V(2, 3)
    assert m.get(3, 2).is_zero
    assert m.get(3, 5).is_zero  # same block
    m2 = formal_matrix(ParabolicType((1, 1)))
    assert m2.get(1, 2) == V(1, 2)
    assert all(formal_matrix(ParabolicType((4,))).get(i, j).is_zero for i in range(1, 5) for j in range(1, 5))


def test_minor_examples():
    base = compute_base(P242)
    assert minor_poly(P242, base, Root(2, 3)) == V(2, 3)
    assert minor_poly(P242, base, Root(1, 4)) == V(1, 3) * V(2, 4) - V(1, 4) * V(2, 3)
    assert minor_poly(P242, base, Root(5, 8)) == V(5, 7) * V(6, 8) - V(5, 8) * V(6, 7)
    assert minor_poly(P242, base, Root(2, 6)) == V(2, 6)
    with pytest.raises(ValueError):
        minor_poly(P242, base, Root(3, 5))


def _pair(ptype, xi, xi_prime):
    for q in admissible_pairs(ptype):
        if q.xi == xi and q.xi_prime == xi_prime:
            return q
    raise AssertionError(f"no admissible pair {xi}, {xi_prime}")


def test_l_poly_printed_forms():
    base = compute_base(P242)
    l11 = l_poly(P242, base, _pair(P242, Root(2, 3), Root(6, 7)))
    assert l11 == V(2, 3) * V(3, 7) + V(2, 4) * V(4, 7) + V(2, 5) * V(5, 7) + V(2, 6) * V(6, 7)

    # pair (alpha_2, beta_1): the 2x2-minor-times-entry expansion
    l21 = l_poly(P242, base, _pair(P242, Root(1, 4), Root(6, 7)))
    m2 = V(1, 3) * V(2, 4) - V(1, 4) * V(2, 3)
    assert l21 == (
        m2 * V(4, 7)
        + (V(1, 3) * V(2, 5) - V(1, 5) * V(2, 3)) * V(5, 7)
        + (V(1, 3) * V(2, 6) - V(1, 6) * V(2, 3)) * V(6, 7)
    )

    # pair (alpha_1, beta_2): entry-times-2x2-minor expansion
    l12 = l_poly(P242, base, _pair(P242, Root(2, 3), Root(5, 8)))
    n2 = V(5, 7) * V(6, 8) - V(5, 8) * V(6, 7)
    assert l12 == (
        V(2, 3) * (V(3, 7) * V(6, 8) - V(3, 8) * V(6, 7))
        + V(2, 4) * (V(4, 7) * V(6, 8) - V(4, 8) * V(6, 7))
        + V(2, 5) * n2
    )

    l22 = l_poly(P242, base, _pair(P242, Root(1, 4), Root(5, 8)))
    assert l22 == (
        m2 * (V(4, 7) * V(6, 8) - V(4, 8) * V(6, 7))
        + (V(1, 3) * V(2, 5) - V(1, 5) * V(2, 3)) * n2
    )


def test_l_poly_rejects_non_admissible():
    pt = ParabolicType((1, 1, 1))
    base = compute_base(pt)
    fake = AdmissiblePair(Root(1, 2), Root(2, 3), Root(2, 2), Root(2, 3), Root(1, 2))
    with pytest.raises(ValueError):
        l_poly(pt, base, fake)


def test_power_minor():
    d = power_minor(P242, 2, (1, 2), (7, 8))
    x = formal_matrix(P242)
    sq = x * x
    assert d == sq.get(1, 7) * sq.get(2, 8) - sq.get(1, 8) * sq.get(2, 7)
    assert power_minor(P242, 1, (2,), (3,)) == V(2, 3)
    with pytest.raises(ValueError):
        power_minor(P242, 0, (1,), (3,))


def test_restrict_kills_off_slice_variables():
    base = compute_base(P242)
    phi = phi_set(admissible_pairs(P242))
    assert restrict(P242, base, phi, V(2, 6)).is_zero
    assert restrict(P242, base, phi, V(2, 3)) == V(2, 3)
    assert restrict(P242, base, phi, V(3, 7)) == V(3, 7)


def test_restrict_minor_images_are_signed_monomials():
    for sizes in [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]:
        pt = ParabolicType(sizes)
        base = compute_base(pt)
        pairs = admissible_pairs(pt, base)
        phi = phi_set(pairs)
        for xi in base.roots:
            image = restrict(pt, base, phi, minor_poly(pt, base, xi))
            coef, mono = image.as_monomial()
            assert abs(coef) == 1
            assert all(e == 1 for _, e in mono)
            assert {Root(*v) for v, _ in mono} == {xi} | set(s_gamma(base, xi))


def test_restrict_pair_images_are_signed_monomials():
    for sizes in [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]:
        pt = ParabolicType(sizes)
        base = compute_base(pt)
        pairs = admissible_pairs(pt, base)
        phi = phi_set(pairs)
        for q in pairs:
            image = restrict(pt, base, phi, l_poly(pt, base, q))
            coef, mono = image.as_monomial()
            assert abs(coef) == 1
            assert all(e == 1 for _, e in mono)
            want = {q.phi, q.xi} | set(s_gamma(base, q.xi)) | set(s_gamma(base, q.xi_prime))
            assert {Root(*v) for v, _ in mono} == want


def test_restrict_l22_golden():
    base = compute_base(P242)
    pairs = admissible_pairs(P242, base)
    q22 = _pair(P242, Root(1, 4), Root(5, 8))
    image = restrict(P242, base, phi_set(pairs), l_poly(P242, base, q22))
    assert image == V(1, 4) * V(2, 3) * V(4, 8) * V(6, 7)


def test_restricted_monomials_pairwise_distinct():
    for sizes in [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]:
        pt = ParabolicType(sizes)
        gens = build_generators(pt)
        phi = phi_set(gens.pairs)
        monos = []
        for p in gens.core_polys():
            _, mono = restrict(pt, gens.base, phi, p).as_monomial()
            monos.append(mono)
        assert len(set(monos)) == len(monos)


def test_build_generators_counts_and_extras():
    gens = build_generators(P242)
    assert len(gens.base_minors) == 4 and len(gens.pair_polys) == 4
    assert [name for name, _ in gens.extras] == ["D"]
    gens2 = build_generators(ParabolicType((2, 2)))
    assert gens2.extras == ()
    doc = gens.to_json_dict()
    assert doc["type"] == [2, 4, 2] and len(doc["generators"]) == 9
    assert "M_{(2,3)}" in gens.to_latex()


def test_y_coordinates_2_2():
    pt = ParabolicType((2, 2))
    base = compute_base(pt)
    pairs = admissible_pairs(pt, base)
    u, v = Fraction(4), Fraction(6)
    y = y_coordinates(pt, base, pairs, InvariantValues({Root(2, 3): u, Root(1, 4): v}, {}))
    assert y.get(2, 3) == u
    assert y.get(1, 4) == -v / u
    assert y.support() == {(2, 3), (1, 4)}


def test_y_coordinates_errors():
    pt = ParabolicType((2, 2))
    base = compute_base(pt)
    pairs = admissible_pairs(pt, base)
    with pytest.raises(OutsideU0Error):
        y_coordinates(pt, base, pairs, InvariantValues({Root(2, 3): Fraction(0), Root(1, 4): Fraction(1)}, {}))
    bad = ParabolicType((2, 1, 3, 2))
    with pytest.raises(UnsupportedTypeError):
        y_coordinates(bad, compute_base(bad), admissible_pairs(bad), InvariantValues({}, {}))


def test_y_coordinates_inverts_invariants_on_slice():
    # build a slice point, read its invariants, solve back: must return the same point
    pt = ParabolicType((2, 4, 2))
    gens = build_generators(pt)
    entries = {}
    value = 2
    for xi in gens.base.by_column():
        entries[tuple(xi)] = value
        value += 1
    for q in gens.pairs:
        entries[tuple(q.phi)] = value
        value += 1
    point = MatrixPoint.from_dict(pt.n, entries)
    vals = invariant_values(gens, point)
    solved = y_coordinates(pt, gens.base, gens.pairs, vals)
    assert solved == point


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_numeric_generators_match_expanded_polynomials():
    # the determinant path against Polynomial.evaluate of the expanded generators;
    # entries in -1..1 make vanishing minors common, so both U0 verdicts occur
    rng = random.Random(DEFAULT_SEED)
    verdicts = set()
    for n in range(1, 9):
        for sizes in _compositions(n):
            ptype = ParabolicType(sizes)
            gens = build_generators(ptype)
            for lo, hi in ((-9, 9), (-1, 1)):
                point = sample_point(ptype, rng, lo, hi)
                values = point.values(nilradical_roots(ptype))
                got = invariant_values(gens, point)
                assert got.m_values == {xi: p.evaluate(values) for xi, p in gens.base_minors}, sizes
                assert got.l_values == {q.phi: p.evaluate(values) for q, p in gens.pair_polys}, sizes
                first_zero = next((xi for xi, p in gens.base_minors if p.evaluate(values) == 0), None)
                assert vanishing_minor(ptype, gens.base, point) == first_zero, sizes
                verdicts.add(first_zero is None)
    assert verdicts == {True, False}


def test_restrict_equals_substituting_zero_off_the_slice():
    # dropping terms against the substitution of 0 for every off-slice variable
    for n in range(1, 9):
        for sizes in _compositions(n):
            ptype = ParabolicType(sizes)
            if not is_covered(ptype):
                continue
            gens = build_generators(ptype)
            phi = phi_set(gens.pairs)
            keep = set(gens.base.roots) | phi
            zeros = {tuple(r): 0 for r in nilradical_roots(ptype) if r not in keep}
            for name, p in gens.named():
                assert restrict(ptype, gens.base, phi, p) == p.substitute(zeros), (sizes, name)
    with pytest.raises(ValueError, match="non-position variable 'a'"):
        restrict(P242, compute_base(P242), (), V(2, 3) * Polynomial.var("a"))


def test_pair_polynomial_on_the_slice_is_the_splitting_c_equals_b():
    # y_coordinates solves each pair step with M_xi * M_phi in place of the whole sum L_q
    checked = 0
    for n in range(1, 9):
        for sizes in _compositions(n):
            ptype = ParabolicType(sizes)
            if not is_covered(ptype):
                continue
            gens = build_generators(ptype)
            phi = phi_set(gens.pairs)
            for q in gens.pairs:
                split = minor_poly(ptype, gens.base, q.xi) * minor_poly(ptype, gens.base, q.phi)
                got = restrict(ptype, gens.base, phi, l_poly(ptype, gens.base, q))
                assert got == restrict(ptype, gens.base, phi, split), (sizes, q)
                checked += 1
    assert checked == 74


def test_numeric_generators_reject_points_off_the_nilradical():
    pt = ParabolicType((2, 2))
    gens = build_generators(pt)
    entries = {(1, 3): 5, (1, 4): 7, (2, 3): 3, (2, 4): 2}
    assert vanishing_minor(pt, gens.base, MatrixPoint.from_dict(4, entries)) is None
    for bad in (
        MatrixPoint.from_dict(4, {**entries, (1, 2): 1}),  # inside a diagonal block
        MatrixPoint.from_dict(4, {**entries, (3, 1): 1}),  # below the diagonal
        MatrixPoint.from_dict(3, {(1, 3): 5}),  # wrong size
    ):
        with pytest.raises(ValueError):
            invariant_values(gens, bad)
        with pytest.raises(ValueError):
            vanishing_minor(pt, gens.base, bad)


def _restricted_steps(ptype, base, pairs):
    # the symbolic solve order: each generator restricted to the slice, read as one signed monomial
    phi = phi_set(pairs)
    steps = [(xi, minor_poly(ptype, base, xi)) for xi in sorted(base.roots, key=lambda r: len(s_gamma(base, r)))]
    steps += [(q.phi, l_poly(ptype, base, q)) for q in pairs]
    return [(target, *restrict(ptype, base, phi, p).as_monomial()) for target, p in steps]


def _y_coordinates_by_restriction(ptype, steps, vals):
    coords = {}
    for target, coef, mono in steps:
        denom = coef
        for v, e in mono:
            if Root(*v) == target:
                assert e == 1
            else:
                denom *= coords[Root(*v)] ** e
        value = vals.m_values[target] if target in vals.m_values else vals.l_values[target]
        coords[target] = value / denom
    return MatrixPoint.from_dict(ptype.n, coords)


def test_numeric_slice_solve_matches_symbolic_solve():
    # y_coordinates divides generator values against the restrict-and-read-the-monomial solve
    rng = random.Random(DEFAULT_SEED)
    zero_marks = 0
    for n in range(1, 9):
        for sizes in _compositions(n):
            ptype = ParabolicType(sizes)
            if not is_covered(ptype):
                continue
            gens = build_generators(ptype)
            steps = _restricted_steps(ptype, gens.base, gens.pairs)
            entries = {r: rng.choice((-3, -2, -1, 1, 2, 3)) for r in gens.base.roots}
            entries.update({q.phi: rng.randint(-1, 1) for q in gens.pairs})
            zero_marks += sum(entries[q.phi] == 0 for q in gens.pairs)
            for point in (sample_u0_point(ptype, rng), MatrixPoint.from_dict(ptype.n, entries)):
                vals = invariant_values(gens, point)
                want = _y_coordinates_by_restriction(ptype, steps, vals)
                assert y_coordinates(ptype, gens.base, gens.pairs, vals) == want, sizes
    assert zero_marks > 0


def _refuse(name):
    def expand(*args, **kwargs):
        raise AssertionError(f"{name} expanded a polynomial")

    return expand


def test_reduce_path_expands_nothing(monkeypatch, tmp_path, capsys):
    for name in ("det_minor", "minor_poly", "l_poly", "restrict"):
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "nilinv"]:
            if name in vars(module):
                monkeypatch.setattr(module, name, _refuse(name))
    rng = random.Random(DEFAULT_SEED)
    for sizes in [(2, 4, 2), (2, 5, 3), (9, 9, 9)]:
        ptype = ParabolicType(sizes)
        point = sample_u0_point(ptype, rng)
        assert verify_unique_intersection(ptype, point)["pass"], sizes
        path = tmp_path / "point.json"
        path.write_text(json.dumps(point.to_json_dict()))
        assert main(["reduce", "--type", ",".join(map(str, sizes)), "--point", str(path)]) == 0, sizes
        assert json.loads(capsys.readouterr().out)["pass"], sizes
