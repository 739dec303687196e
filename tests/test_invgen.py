"""Tests for generator construction, restriction, and slice coordinates."""

import functools
import gc
import inspect
import itertools
import json
import math
import operator
import pathlib
import random
import re
import sys
import types
from fractions import Fraction

import pytest

from nilinv import invgen
from nilinv.errors import OutsideU0Error, UnsupportedTypeError
from nilinv.exactpoly import MatrixPoint, Polynomial
from nilinv.checker import independence_details
from nilinv.invgen import (
    GeneratorSet,
    _one_matching,
    build_generators,
    check_support,
    expand,
    formal_matrix,
    invariant_values,
    minor_form,
    minor_indices,
    minors_at,
    pair_form,
    proves_independence,
    restrict,
    vanishing_minor,
    y_coordinates,
)
from nilinv.cli import main
from nilinv.orbitlab import DEFAULT_SEED, SAMPLE_RANGE, proves_orbit_bound, reduce_to_canonical, sample_point, verify_unique_intersection
from nilinv.rootcomb import (
    AdmissiblePair,
    ParabolicType,
    Root,
    admissible_pairs,
    compositions,
    compute_base,
    dims,
    is_covered,
    nilradical_columns,
    nilradical_roots,
    phi_set,
    s_gamma,
)
from oracles import (
    as_monomial,
    bareiss,
    matmul,
    minors_at_by_fractions,
    mutant,
    one_matching_by_augmenting,
    power_minor,
    sample_u0_point,
    without_lcm_scaling,
    y_coordinates_by_det,
)

P242 = ParabolicType((2, 4, 2))


def V(i, j):
    return Polynomial.var((i, j))


def test_formal_matrix_support():
    m = formal_matrix(P242)
    assert m.support() == nilradical_roots(P242)  # a zero polynomial tests false
    assert m.get(2, 3) == V(2, 3)
    assert not m.get(3, 2)
    assert not m.get(3, 5)  # same block
    m2 = formal_matrix(ParabolicType((1, 1)))
    assert m2.get(1, 2) == V(1, 2)
    assert all(not formal_matrix(ParabolicType((4,))).get(i, j) for i in range(1, 5) for j in range(1, 5))


def test_minor_examples():
    base = compute_base(P242)
    assert expand(P242, minor_form(base, Root(2, 3))) == V(2, 3)
    assert expand(P242, minor_form(base, Root(1, 4))) == V(1, 3) * V(2, 4) - V(1, 4) * V(2, 3)
    assert expand(P242, minor_form(base, Root(5, 8))) == V(5, 7) * V(6, 8) - V(5, 8) * V(6, 7)
    assert expand(P242, minor_form(base, Root(2, 6))) == V(2, 6)
    with pytest.raises(ValueError):
        expand(P242, minor_form(base, Root(3, 5)))


def _pair(ptype, xi, xi_prime):
    for q in admissible_pairs(ptype):
        if q.xi == xi and q.xi_prime == xi_prime:
            return q
    raise AssertionError(f"no admissible pair {xi}, {xi_prime}")


def test_l_poly_printed_forms():
    base = compute_base(P242)
    l11 = expand(P242, pair_form(base, _pair(P242, Root(2, 3), Root(6, 7))))
    assert l11 == V(2, 3) * V(3, 7) + V(2, 4) * V(4, 7) + V(2, 5) * V(5, 7) + V(2, 6) * V(6, 7)

    # pair (alpha_2, beta_1): the 2x2-minor-times-entry expansion
    l21 = expand(P242, pair_form(base, _pair(P242, Root(1, 4), Root(6, 7))))
    m2 = V(1, 3) * V(2, 4) - V(1, 4) * V(2, 3)
    assert l21 == (
        m2 * V(4, 7)
        + (V(1, 3) * V(2, 5) - V(1, 5) * V(2, 3)) * V(5, 7)
        + (V(1, 3) * V(2, 6) - V(1, 6) * V(2, 3)) * V(6, 7)
    )

    # pair (alpha_1, beta_2): entry-times-2x2-minor expansion
    l12 = expand(P242, pair_form(base, _pair(P242, Root(2, 3), Root(5, 8))))
    n2 = V(5, 7) * V(6, 8) - V(5, 8) * V(6, 7)
    assert l12 == (
        V(2, 3) * (V(3, 7) * V(6, 8) - V(3, 8) * V(6, 7))
        + V(2, 4) * (V(4, 7) * V(6, 8) - V(4, 8) * V(6, 7))
        + V(2, 5) * n2
    )

    l22 = expand(P242, pair_form(base, _pair(P242, Root(1, 4), Root(5, 8))))
    assert l22 == (
        m2 * (V(4, 7) * V(6, 8) - V(4, 8) * V(6, 7))
        + (V(1, 3) * V(2, 5) - V(1, 5) * V(2, 3)) * n2
    )


def test_l_poly_rejects_non_admissible():
    pt = ParabolicType((1, 1, 1))
    base = compute_base(pt)
    fake = AdmissiblePair(Root(1, 2), Root(2, 3), Root(2, 2), Root(2, 3), Root(1, 2))
    with pytest.raises(ValueError):
        expand(pt, pair_form(base, fake))


def test_power_minor():
    d = power_minor(P242, 2, (1, 2), (7, 8))
    x = formal_matrix(P242)
    sq = matmul(x, x)
    assert d == sq.get(1, 7) * sq.get(2, 8) - sq.get(1, 8) * sq.get(2, 7)
    assert power_minor(P242, 1, (2,), (3,)) == V(2, 3)
    with pytest.raises(ValueError):
        power_minor(P242, 0, (1,), (3,))
    # the form of D is the 28 Cauchy-Binet products det_{12,K}(X) * det_{K,78}(X)
    d_form = dict(build_generators(P242).forms)["D"]
    assert len(d_form) == 28 and expand(P242, d_form) == d and str(expand(P242, d_form)) == str(d)


def test_restrict_kills_off_slice_variables():
    base = compute_base(P242)
    phi = phi_set(admissible_pairs(P242))
    assert not restrict(base, phi, V(2, 6))
    assert restrict(base, phi, V(2, 3)) == V(2, 3)
    assert restrict(base, phi, V(3, 7)) == V(3, 7)


def test_restrict_minor_images_are_signed_monomials():
    for sizes in [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]:
        pt = ParabolicType(sizes)
        base = compute_base(pt)
        pairs = admissible_pairs(pt, base)
        phi = phi_set(pairs)
        for xi in base.roots:
            image = restrict(base, phi, expand(pt, minor_form(base, xi)))
            coef, mono = as_monomial(image)
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
            image = restrict(base, phi, expand(pt, pair_form(base, q)))
            coef, mono = as_monomial(image)
            assert abs(coef) == 1
            assert all(e == 1 for _, e in mono)
            want = {q.phi, q.xi} | set(s_gamma(base, q.xi)) | set(s_gamma(base, q.xi_prime))
            assert {Root(*v) for v, _ in mono} == want


def test_restrict_l22_golden():
    base = compute_base(P242)
    pairs = admissible_pairs(P242, base)
    q22 = _pair(P242, Root(1, 4), Root(5, 8))
    image = restrict(base, phi_set(pairs), expand(P242, pair_form(base, q22)))
    assert image == V(1, 4) * V(2, 3) * V(4, 8) * V(6, 7)


def test_restricted_monomials_pairwise_distinct():
    for sizes in [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]:
        pt = ParabolicType(sizes)
        gens = build_generators(pt)
        phi = phi_set(gens.pairs)
        monos = []
        for _, p in gens.named()[: len(gens.core_forms())]:
            _, mono = as_monomial(restrict(gens.base, phi, p))
            monos.append(mono)
        assert len(set(monos)) == len(monos)


def test_build_generators_counts_and_extras(capsys):
    gens = build_generators(P242)
    assert [name for name, _ in gens.forms] == [
        *("M[2,3]", "M[1,4]", "M[6,7]", "M[5,8]"),
        *("L[1,4;5,8]", "L[1,4;6,7]", "L[2,3;5,8]", "L[2,3;6,7]"),
        "D",
    ]
    assert len(gens.core_forms()) == 8 and [name for name, _ in gens.named()] == [name for name, _ in gens.forms]
    gens2 = build_generators(ParabolicType((2, 2)))
    assert [name for name, _ in gens2.forms] == ["M[2,3]", "M[1,4]"] and len(gens2.core_forms()) == 2
    assert main(["invariants", "--type", "2,4,2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == [2, 4, 2] and len(doc["generators"]) == 9
    assert main(["invariants", "--type", "2,4,2", "--format", "latex"]) == 0
    assert "M_{(2,3)}" in capsys.readouterr().out


def test_y_coordinates_2_2():
    pt = ParabolicType((2, 2))
    u, v = Fraction(4), Fraction(6)
    y = y_coordinates(build_generators(pt), [u, v])  # M(2,3), then M(1,4): the base in column order
    assert y.get(2, 3) == u
    assert y.get(1, 4) == -v / u
    assert y.support() == {(2, 3), (1, 4)}


def test_y_coordinates_errors():
    gens = build_generators(ParabolicType((2, 2)))
    with pytest.raises(OutsideU0Error):
        y_coordinates(gens, [Fraction(0), Fraction(1)])
    bad = ParabolicType((2, 1, 3, 2))
    with pytest.raises(UnsupportedTypeError) as err:
        y_coordinates(build_generators(bad), [])
    assert str(err.value) == "type (2,1,3,2) not supported: need non-increasing sizes or at most 3 blocks"


def test_y_coordinates_takes_one_value_per_base_minor_and_pair():
    gens = build_generators(P242)  # 4 base minors and 4 pair polynomials
    values = [Fraction(k) for k in range(2, 10)]
    assert len(y_coordinates(gens, values).support()) == 8
    for wrong in (values[:-1], values + [Fraction(1)]):
        with pytest.raises(ValueError, match=re.escape(f"expected 8 generator values, got {len(wrong)}")):
            y_coordinates(gens, wrong)


def test_y_coordinates_inverts_invariants_on_slice():
    # build a slice point, read its invariants, solve back: must return the same point
    pt = ParabolicType((2, 4, 2))
    gens = build_generators(pt)
    entries = {}
    value = 2
    for xi in gens.base.roots:
        entries[tuple(xi)] = value
        value += 1
    for q in gens.pairs:
        entries[tuple(q.phi)] = value
        value += 1
    point = MatrixPoint.from_dict(pt.n, entries)
    vals = invariant_values(gens, point)
    solved = y_coordinates(gens, vals)
    assert solved == point


def test_numeric_generators_match_expanded_polynomials():
    # the determinant path against Polynomial.evaluate of the expanded generators;
    # entries in -1..1 make vanishing minors common, so both U0 verdicts occur
    rng = random.Random(DEFAULT_SEED)
    verdicts = set()
    for n in range(1, 9):
        for sizes in compositions(n):
            ptype = ParabolicType(sizes)
            gens = build_generators(ptype)
            for lo, hi in (SAMPLE_RANGE, (-1, 1)):
                draws = {tuple(r): rng.randint(lo, hi) for r in sorted(nilradical_roots(ptype))}
                point = MatrixPoint.from_dict(ptype.n, draws)
                values = {tuple(r): point.get(*r) for r in nilradical_roots(ptype)}
                got = invariant_values(gens, point)
                polys = [p for _, p in gens.named()]
                base_minors = list(zip(gens.base.roots, polys))
                assert got[: len(gens.base)] == [p.evaluate(values) for _, p in base_minors], sizes
                assert got[len(gens.base) :] == [p.evaluate(values) for _, p in zip(gens.pairs, polys[len(gens.base) :])], sizes
                first_zero = next((xi for xi, p in base_minors if p.evaluate(values) == 0), None)
                assert vanishing_minor(gens.base, point) == first_zero, sizes
                verdicts.add(first_zero is None)
    assert verdicts == {True, False}


def test_restrict_equals_substituting_zero_off_the_slice():
    # dropping terms against the substitution of 0 for every off-slice variable
    for n in range(1, 9):
        for sizes in compositions(n):
            ptype = ParabolicType(sizes)
            if not is_covered(ptype):
                continue
            gens = build_generators(ptype)
            phi = phi_set(gens.pairs)
            keep = set(gens.base.roots) | phi
            zeros = {tuple(r): 0 for r in nilradical_roots(ptype) if r not in keep}
            for name, p in gens.named():
                assert restrict(gens.base, phi, p) == p.substitute(zeros), (sizes, name)
    with pytest.raises(ValueError, match="non-position variable 'a'"):
        restrict(compute_base(P242), (), V(2, 3) * Polynomial.var("a"))


def test_pair_polynomial_on_the_slice_is_the_splitting_c_equals_b():
    # y_coordinates solves each pair step with M_xi * M_phi in place of the whole sum L_q
    checked = 0
    for n in range(1, 9):
        for sizes in compositions(n):
            ptype = ParabolicType(sizes)
            if not is_covered(ptype):
                continue
            gens = build_generators(ptype)
            phi = phi_set(gens.pairs)
            for q in gens.pairs:
                m_xi, m_phi = (expand(ptype, minor_form(gens.base, gamma)) for gamma in (q.xi, q.phi))
                split = m_xi * m_phi
                got = restrict(gens.base, phi, expand(ptype, pair_form(gens.base, q)))
                assert got == restrict(gens.base, phi, split), (sizes, q)
                checked += 1
    assert checked == 74


def test_numeric_generators_reject_points_off_the_nilradical():
    pt = ParabolicType((2, 2))
    gens = build_generators(pt)
    entries = {(1, 3): 5, (1, 4): 7, (2, 3): 3, (2, 4): 2}
    assert vanishing_minor(gens.base, MatrixPoint.from_dict(4, entries)) is None
    for bad in (
        MatrixPoint.from_dict(4, {**entries, (1, 2): 1}),  # inside a diagonal block
        MatrixPoint.from_dict(4, {**entries, (3, 1): 1}),  # below the diagonal
        MatrixPoint.from_dict(3, {(1, 3): 5}),  # wrong size
    ):
        with pytest.raises(ValueError):
            invariant_values(gens, bad)
        with pytest.raises(ValueError):
            vanishing_minor(gens.base, bad)
    # check_support reads only the positions off the nilradical: each one is read, and named
    for n in range(1, 7):
        for sizes in compositions(n):
            ptype = ParabolicType(sizes)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    point = MatrixPoint.from_dict(n, {(i, j): Fraction(-1, 3)})
                    if (i, j) in nilradical_roots(ptype):
                        check_support(ptype, point)
                    else:
                        with pytest.raises(ValueError, match=re.escape(f"nilradical: [({i}, {j})]")):
                            check_support(ptype, point)


MINOR_TYPES = [(2, 2), (2, 2, 1, 1), (3, 2, 1), (2, 4, 2), (2, 5, 3), (3, 3, 3)]


def _mixed(point):
    return len({v.denominator for row in point.rows for v in row}) > 1


@functools.cache
def _minor_cases():
    """(point, minors): per type, the first two reduced U0 draws whose entries have different denominators.

    The minors are those of every form and every cofactor of one, the empty minor included.
    """
    cases = []
    for sizes in MINOR_TYPES:
        ptype = ParabolicType(sizes)
        minors = {m for _, form in build_generators(ptype).forms for product in form for m in product}
        minors |= {(r[:a] + r[a + 1 :], c[:b] + c[b + 1 :]) for r, c in minors for a in range(len(r)) for b in range(len(c))}
        rng = random.Random(DEFAULT_SEED)
        reduced = (reduce_to_canonical(build_generators(ptype), sample_u0_point(ptype, rng))[1] for _ in range(20))
        cases += [(y, sorted(minors)) for y in itertools.islice(filter(_mixed, reduced), 2)]
    return cases


def _fraction_det(point, m):
    rows, cols = m
    return bareiss([[point.get(i, j) for j in cols] for i in rows])[1]


def test_minors_from_one_integer_scaling_match_fraction_determinants():
    checked = empty = 0
    assert len(_minor_cases()) == 2 * len(MINOR_TYPES)
    for y, minors in _minor_cases():
        minor = minors_at(y)
        for m in minors:
            assert minor(m) == _fraction_det(y, m), m
            checked += 1
            empty += m == ((), ())
        assert minor(((), ())) == 1
    assert checked == 378 and empty == 12


def test_minors_divided_by_one_power_too_few_are_caught():
    # the mutant divides a minor of order k by the lcms of its last k - 1 rows only, leaving out its first row's
    broken = mutant(minors_at, r"for i in rows\)\)", "for i in rows[1:]))")
    assert any(broken(y)(m) != _fraction_det(y, m) for y, minors in _minor_cases() for m in minors if m[0])


@pytest.mark.parametrize("divisor, what", [
    ("prod(lcms[i - 1] for i in rows if i != 1)", "drops the lcm of row 1 of the point"),
    ("prod(lcms[i % len(lcms)] for i in rows)", "reads the lcm of the next row of the point"),
])
def test_minors_over_another_row_lcm_are_caught(divisor, what):
    # the minor cases are reduced points whose rows have different denominators
    broken = mutant(minors_at, r"prod\(lcms\[i - 1\] for i in rows\)", divisor)
    assert any(broken(y)(m) != _fraction_det(y, m) for y, minors in _minor_cases() for m in minors if m[0]), what


def test_minors_without_the_lcm_scaling_are_caught():
    # the mutant keeps only the numerators: a different point unless every denominator is 1
    (mutant,) = without_lcm_scaling(invgen, "minors_at")
    assert any(mutant(y)(m) != _fraction_det(y, m) for y, minors in _minor_cases() for m in minors if m[0])
    # at an integer point the mutant is minors_at
    for (_, minors), sizes in zip(_minor_cases()[::2], MINOR_TYPES):
        x = sample_point(ParabolicType(sizes), random.Random(DEFAULT_SEED))
        assert all(mutant(x)(m) == minors_at(x)(m) == _fraction_det(x, m) for m in minors)


def _points_by_row_lcm(ptype):
    """A seeded integer point, that point with every nonzero row rational, and with only its odd rows rational.

    A rational row i holds (v d + 1) / d for each nonzero v, d = 2 + i % 3, so its lcm is exactly d.
    """
    x = sample_point(ptype, random.Random(DEFAULT_SEED))

    def over(rational):
        return MatrixPoint(x.n, [
            [Fraction(v.numerator * (2 + i % 3) + 1, 2 + i % 3) if v and rational(i) else v for v in row]
            for i, row in enumerate(x.rows, 1)
        ])

    return x, over(lambda i: True), over(lambda i: i % 2)


@functools.cache
def _int_path_cases():
    """(point, row lcms, forms, columns, minors): three points per composition with n <= 7, D included.

    The minors are those of every form and every cofactor that ``jacobian_row`` reads.
    """
    cases = []
    for n in range(1, 8):
        for sizes in compositions(n):
            ptype = ParabolicType(sizes)
            forms = [form for _, form in build_generators(ptype).forms]
            column = nilradical_columns(ptype)
            for point in _points_by_row_lcm(ptype):
                reference = minors_at_by_fractions(point)
                read = {m for form in forms for product in form for m in product}
                for form in forms:
                    invgen.jacobian_row(form, lambda m: read.add(m) or reference(m), column)
                lcms = [math.lcm(*[v.denominator for v in row]) for row in point.rows]
                cases.append((point, lcms, forms, column, sorted(read)))
    return cases


def _int_path_faults(minors):
    """What ``minors`` reads unlike the all-Fraction reference: a minor of another value, or not an int
    exactly where every row it reads has lcm 1; a form value or Jacobian row of another value."""
    faults = []
    for point, lcms, forms, column, read in _int_path_cases():
        minor, reference = minors(point), minors_at_by_fractions(point)
        for m in read:
            got = minor(m)
            if got != reference(m) or type(got) is not (int if all(lcms[i - 1] == 1 for i in m[0]) else Fraction):
                faults.append(m)
        for form in forms:
            if invgen.form_value(form, minor) != invgen.form_value(form, reference):
                faults.append(form)
            if invgen.jacobian_row(form, minor, column) != invgen.jacobian_row(form, reference, column):
                faults.append(form)
    return faults


def test_int_minors_match_the_fraction_path():
    assert _int_path_faults(minors_at) == []
    # every point kind is met, and minors of both types, with a rational row behind an integral first row
    read = [(lcms, m) for _, lcms, _, _, minors in _int_path_cases() for m in minors]
    assert len(_int_path_cases()) == 3 * 127
    assert any(all(lcms[i - 1] == 1 for i in m[0]) for lcms, m in read)
    assert any(lcms[m[0][0] - 1] == 1 and any(lcms[i - 1] > 1 for i in m[0]) for lcms, m in read if m[0])


@pytest.mark.parametrize("pattern, mutation", [
    (r"return det if .*", "return det"),
    (r"return det if .*", "return det if not rows or lcms[rows[0] - 1] == 1 else Fraction(det, prod(lcms[i - 1] for i in rows))"),
], ids=["always-the-determinant", "first-row-lcm-only"])
def test_int_minor_mutants_are_caught(pattern, mutation):
    assert _int_path_faults(mutant(minors_at, pattern, mutation))


def _restricted_steps(ptype, base, pairs):
    # the symbolic solve order: each generator restricted to the slice, read as one signed monomial
    phi = phi_set(pairs)
    steps = [(xi, expand(ptype, minor_form(base, xi))) for xi in sorted(base.roots, key=lambda r: len(s_gamma(base, r)))]
    steps += [(q.phi, expand(ptype, pair_form(base, q))) for q in pairs]
    return [(target, *as_monomial(restrict(base, phi, p))) for target, p in steps]


def _y_coordinates_by_restriction(ptype, steps, vals):
    coords = {}
    for target, coef, mono in steps:
        denom = coef
        for v, e in mono:
            if Root(*v) == target:
                assert e == 1
            else:
                denom *= coords[Root(*v)] ** e
        coords[target] = vals[target] / denom
    return MatrixPoint.from_dict(ptype.n, coords)


def test_numeric_slice_solve_matches_symbolic_solve():
    # y_coordinates divides generator values against the restrict-and-read-the-monomial solve
    rng = random.Random(DEFAULT_SEED)
    zero_marks = 0
    for n in range(1, 9):
        for sizes in compositions(n):
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
                targets = [*gens.base.roots, *(q.phi for q in gens.pairs)]
                want = _y_coordinates_by_restriction(ptype, steps, dict(zip(targets, vals)))
                assert y_coordinates(gens, vals) == want, sizes
    assert zero_marks > 0


def _refuse(name):
    def expand(*args, **kwargs):
        raise AssertionError(f"{name} expanded a polynomial")

    return expand


def test_reduce_path_expands_nothing(monkeypatch, tmp_path, capsys):
    for name in ("det_minor", "minor_poly", "expand", "restrict"):
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


def test_reduce_path_builds_no_per_type_data(monkeypatch):
    # verify_unique_intersection reads the base and the pairs from gens; it rebuilds neither per point
    golden = pathlib.Path(__file__).parent / "golden"
    gens = build_generators(P242)
    point = MatrixPoint.from_json_dict(json.loads((golden / "point_242_u0.json").read_text()), P242.n)

    def rebuild(*args, **kwargs):
        raise AssertionError("the reduction rebuilt the base or the pairs")

    for name in ("compute_base", "admissible_pairs"):
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "nilinv"]:
            if name in vars(module):
                monkeypatch.setattr(module, name, rebuild)
    record = verify_unique_intersection(P242, point, gens)
    assert json.dumps(record, sort_keys=True, indent=2) + "\n" == (golden / "reduce_242.json").read_text()


def test_generator_set_is_built_from_its_type_alone():
    # a base and pairs of another type can no longer be passed beside the type
    p2222 = ParabolicType((2, 2, 2, 2))
    with pytest.raises(TypeError):
        GeneratorSet(P242, compute_base(p2222), admissible_pairs(p2222))
    assert list(inspect.signature(GeneratorSet).parameters) == ["ptype"]
    golden = (pathlib.Path(__file__).parent / "golden" / "invariants_242.txt").read_text()
    assert [name for name, _ in GeneratorSet(P242).forms] == [line.split(" = ")[0] for line in golden.splitlines()]


def test_slice_and_first_products_on_every_type_up_to_9():
    rng = random.Random(DEFAULT_SEED)
    solved = 0
    for n in range(1, 10):
        for sizes in compositions(n):
            ptype = ParabolicType(sizes)
            gens = GeneratorSet(ptype)
            base, core = gens.base, gens.core_forms()
            assert len(gens.slice) == len(core) == dims(gens)["y_dim"], sizes
            for xi, form in zip(base.roots, core):
                assert form == ((minor_indices(base, xi),),), (sizes, xi)
            for q, form in zip(gens.pairs, core[len(base) :]):
                assert form[0] == (minor_indices(base, q.xi), minor_indices(base, q.phi)), (sizes, q)
            if is_covered(ptype):
                point = sample_u0_point(ptype, rng)
                assert y_coordinates(gens, invariant_values(gens, point)).support() <= gens.slice, sizes
                solved += 1
    assert solved == 173  # the covered types among them


def test_y_coordinates_reads_no_splitting_order(monkeypatch):
    # the solve reads the one product of each form that survives on the slice, wherever the splittings put it
    golden = pathlib.Path(__file__).parent / "golden"
    monkeypatch.setattr(invgen, "splittings", lambda q, listed=invgen.splittings: listed(q)[::-1])
    for sizes, name in (((2, 4, 2), "242"), ((2, 5, 3), "253")):
        gens = GeneratorSet(ParabolicType(sizes))
        for q, form in zip(gens.pairs, gens.core_forms()[len(gens.base) :]):
            assert form[-1] == (minor_indices(gens.base, q.xi), minor_indices(gens.base, q.phi)), q  # c = b comes last
        point = MatrixPoint.from_json_dict(json.loads((golden / f"point_{name}_u0.json").read_text()), gens.ptype.n)
        want = json.loads((golden / f"reduce_{name}.json").read_text())["y"]
        assert y_coordinates(gens, invariant_values(gens, point)).to_json_dict() == want, sizes


def _restricted_form(gens, form):
    return restrict(gens.base, phi_set(gens.pairs), expand(gens.ptype, form))


def test_slice_monomials_are_the_restricted_forms():
    checked = 0
    for n in range(1, 8):
        for sizes in compositions(n):
            gens = GeneratorSet(ParabolicType(sizes))
            positions = sorted(gens.slice)
            for form, (sign, row) in zip(gens.core_forms(), gens.slice_monomials(), strict=True):
                factors = [V(*p) for p, e in zip(positions, row) for _ in range(e)]
                assert _restricted_form(gens, form) == functools.reduce(operator.mul, factors, Polynomial.constant(sign))
                checked += 1
    assert checked == 485


def test_monomial_independence_matches_the_sampled_verdict():
    types = 0
    for n in range(1, 10):
        for sizes in compositions(n):
            ptype = ParabolicType(sizes)
            gens = GeneratorSet(ptype)
            core = gens.core_forms()
            sampled = independence_details(ptype, core).independent if core else True
            assert proves_independence(gens) is sampled is True, sizes
            types += 1
    assert types == 511


def test_slice_without_phi_is_refused():
    # on the base alone no product of a pair polynomial has a matching: L_q restricts to 0 there
    gens = GeneratorSet(P242)
    gens.slice = frozenset(gens.base.roots)
    assert not restrict(gens.base, [], expand(P242, gens.core_forms()[len(gens.base)]))
    with pytest.raises(ValueError, match=r"^generator L\[1,4;5,8\] has 0 products that survive on the slice, not one$"):
        gens.slice_monomials()


def test_a_second_matching_is_refused():
    # rows 1, 2 and columns 3, 4: two matchings on the full support, one once (2,3) is gone, none without row 2
    minor, full = ((1, 2), (3, 4)), frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})
    with pytest.raises(ValueError, match=r"^generator X is not one monomial on the slice: its minor .* has no single matching there$"):
        _one_matching(minor, full, "X")
    assert _one_matching(minor, full - {(2, 3)}, "X") == [(1, 3), (2, 4)]
    assert _one_matching(minor, frozenset({(1, 3), (1, 4)}), "X") is None
    # a slice that is the whole nilradical of (2,2): M[1,4] then has both matchings
    gens = GeneratorSet(ParabolicType((2, 2)))
    gens.slice = nilradical_roots(gens.ptype)
    with pytest.raises(ValueError, match=r"^generator M\[1,4\] is not one monomial"):
        gens.slice_monomials()


def _verdict(match, minor, keep):
    """The matching that ``match`` finds, None when it finds none, or "refused"."""
    try:
        return match(minor, keep, "X")
    except ValueError:
        return "refused"


@pytest.mark.parametrize("pattern, mutation", [
    pytest.param(r"if size > 1:\n.*\n\s+\(matched\[r\],\) = reach\.pop\(r\)", "matched[r] = min(reach.pop(r))", id="smallest-column-where-stuck"),
    pytest.param(r"if size == 0:", "if size != 1:", id="none-where-stuck"),
])
def test_peeling_mutants_are_caught(pattern, mutation, monkeypatch):
    broken = mutant(_one_matching, pattern, mutation)
    minor, full = ((1, 2), (3, 4)), frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})
    assert _verdict(_one_matching, minor, full) == "refused" != _verdict(broken, minor, full)
    # (2,2) with the whole nilradical as slice: the mutant gives M[1,4] a monomial, or none, in place of the refusal
    monkeypatch.setattr(invgen, "_one_matching", broken)
    gens = GeneratorSet(ParabolicType((2, 2)))
    gens.slice = nilradical_roots(gens.ptype)
    try:
        gens.slice_monomials()
    except ValueError as err:
        assert "is not one monomial" not in str(err)


LARGE = [(20, 20, 20), (14, 14, 14), (1,) * 24, (5,) * 12, (1,) * 60]


def test_slice_monomials_match_each_distinct_minor_once(monkeypatch):
    # the 3080 minors of the products of (20,20,20) are 420 distinct ones, each matched once
    calls = []
    monkeypatch.setattr(invgen, "_one_matching", lambda minor, *rest: calls.append(minor) or _one_matching(minor, *rest))
    GeneratorSet(ParabolicType((20, 20, 20))).slice_monomials()
    assert len(calls) == len(set(calls)) == 420


def test_peeling_matches_the_augmenting_reference():
    minors = unmatched = 0
    for sizes in [s for n in range(1, 11) for s in compositions(n)] + LARGE:
        gens = GeneratorSet(ParabolicType(sizes))
        for minor in {minor for form in gens.core_forms() for product in form for minor in product}:
            got = _one_matching(minor, gens.slice, "X")
            assert got == one_matching_by_augmenting(minor, gens.slice, "X"), (sizes, minor)
            minors, unmatched = minors + 1, unmatched + (got is None)
    assert (minors, unmatched) == (11810, 3578)


def test_peeling_against_the_reference_on_random_supports():
    # the peeling keeps every matching and every refusal of the reference; where the reference
    # finds no matching and every row reaches two columns or more, the peeling refuses instead
    rng = random.Random(DEFAULT_SEED)
    seen = set()
    for _ in range(5000):
        k = rng.randint(1, 5)
        minor, density = (tuple(range(1, k + 1)), tuple(range(k + 1, 2 * k + 1))), rng.random()
        keep = frozenset((r, c) for r in minor[0] for c in minor[1] if rng.random() < density)
        want, got = _verdict(one_matching_by_augmenting, minor, keep), _verdict(_one_matching, minor, keep)
        assert got == want or (want is None and got == "refused"), (minor, sorted(keep))
        seen.add((want if want in (None, "refused") else "matched", got if got in (None, "refused") else "matched"))
    assert seen == {("matched", "matched"), ("refused", "refused"), (None, None), (None, "refused")}


@pytest.mark.parametrize("sizes", LARGE[:3], ids=["20-20-20", "14-14-14", "1x24"])
def test_large_slices_prove_the_orbit_bound(sizes):
    gens = GeneratorSet(ParabolicType(sizes))
    assert proves_independence(gens) and proves_orbit_bound(gens)


def test_slice_monomials_leave_no_garbage():
    # the peeling loop builds no closure and no reference cycle, so a matching leaves nothing for the collector
    gens = GeneratorSet(ParabolicType((4, 4, 4, 4)))
    gc.collect()
    gc.disable()
    try:
        monomials = gens.slice_monomials()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(monomials) == len(gens.base) + len(gens.pairs)


def test_distinct_rows_in_place_of_their_rank_are_caught():
    # three distinct exponent rows of rank 2: x, y and xy are algebraically dependent
    stub = types.SimpleNamespace(slice_monomials=lambda: [(1, (1, 0)), (1, (0, 1)), (1, (1, 1))])
    assert proves_independence(stub) is False
    assert mutant(proves_independence, r"rank\(rows\) == len\(rows\)", "len(set(rows)) == len(rows)")(stub) is True


@functools.cache
def _solve_cases():
    """(label, gens, values, pinned y) for the slice solve.

    Every reduce_pins.json record with its y, then a seeded U0 point of every
    covered composition with n <= 10 and of (9,9,9), with None.
    """
    cases = []
    for key, records in json.loads((pathlib.Path(__file__).parent / "golden" / "reduce_pins.json").read_text()).items():
        gens = GeneratorSet(ParabolicType.from_string(key))
        for rec in records:
            point = MatrixPoint.from_json_dict({"n": gens.ptype.n, "entries": rec["point"]})
            cases.append((key, gens, invariant_values(gens, point), rec["y"]))
    rng = random.Random(DEFAULT_SEED)
    for sizes in [s for n in range(1, 11) for s in compositions(n) if is_covered(ParabolicType(s))] + [(9, 9, 9)]:
        gens = GeneratorSet(ParabolicType(sizes))
        cases.append((sizes, gens, invariant_values(gens, sample_u0_point(gens.ptype, rng)), None))
    return cases


def test_monomial_solve_matches_the_det_solve():
    assert len(_solve_cases()) == 3 * 76 + 247 + 1
    for label, gens, values, pinned in _solve_cases():
        got = y_coordinates(gens, values)
        assert got == y_coordinates_by_det(gens, values), label
        # a pinned point reduces to the pinned y, which the solve reaches from the values alone
        assert pinned is None or got.to_json_dict()["entries"] == pinned, label


@pytest.mark.parametrize("obj, pattern, mutation", [
    pytest.param(y_coordinates, r"num \* sign\)", "num)", id="sign-dropped-by-the-solve"),
    pytest.param(GeneratorSet, r"\(-1\) \*\* sum", "1 ** sum", id="sign-dropped-from-the-matchings"),
])
def test_monomial_solve_mutants_are_caught(obj, pattern, mutation):
    broken = mutant(obj, pattern, mutation)
    pins = [case for case in _solve_cases() if case[3] is not None]  # every reduce_pins.json record
    if obj is GeneratorSet:
        pins = [(label, broken(gens.ptype), values, y) for label, gens, values, y in pins]
    solve = y_coordinates if obj is GeneratorSet else broken
    assert any(solve(gens, values) != y_coordinates_by_det(gens, values) for _, gens, values, _ in pins)
