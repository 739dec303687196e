"""Tests for the verification engines."""

import json
import pathlib

import pytest

from nilinv.exactpoly import Polynomial, PolyMatrix, T
from nilinv.checker import (
    case242_generators,
    case242_report,
    corank_of_roots,
    independence_details,
    invariance_table,
    is_n_invariant,
    one_param_transform,
    verify_type,
    weight_corank,
)
from nilinv.invgen import build_generators, formal_matrix, l_poly, minor_poly
from nilinv.rootcomb import (
    ParabolicType,
    Root,
    admissible_pairs,
    compute_base,
    nilradical_roots,
    phi_set,
)

P242 = ParabolicType((2, 4, 2))
PAPER_TYPES = [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]


def V(i, j):
    return Polynomial.var((i, j))


def _transform_via_matrix_product(ptype, k, f):
    # independent route: substitute entries of (1 - tE) X (1 + tE)
    n = ptype.n
    t = Polynomial.var(T)
    left = PolyMatrix.identity(n)
    left.set_at(k, k + 1, -t)
    right = PolyMatrix.identity(n)
    right.set_at(k, k + 1, t)
    moved = left * formal_matrix(ptype) * right
    mapping = {tuple(r): moved.at(*r) for r in nilradical_roots(ptype)}
    return f.substitute(mapping)


def test_transform_examples():
    assert one_param_transform(P242, 3, V(2, 4)) == V(2, 4) + Polynomial.var(T) * V(2, 3)
    assert one_param_transform(P242, 5, Polynomial.constant(1)) == Polynomial.constant(1)
    base = compute_base(P242)
    for xi in base.roots:
        m = minor_poly(P242, base, xi)
        for k in range(1, 8):
            assert one_param_transform(P242, k, m) == m
    with pytest.raises(ValueError):
        one_param_transform(P242, 0, V(2, 4))
    with pytest.raises(ValueError):
        one_param_transform(P242, 8, V(2, 4))


def test_transform_matches_matrix_product():
    for sizes in [(2, 4, 2), (2, 1, 3, 2)]:
        pt = ParabolicType(sizes)
        gens = build_generators(pt)
        polys = [p for _, p in gens.named()] + [V(*next(iter(nilradical_roots(pt))))]
        for f in polys:
            for k in range(1, pt.n):
                assert one_param_transform(pt, k, f) == _transform_via_matrix_product(pt, k, f)


def test_transform_stays_on_nilradical_variables():
    f = V(2, 4) * V(1, 3)
    out = one_param_transform(P242, 3, f)
    positions = nilradical_roots(P242)
    for v in out.variables():
        if v != T:
            assert Root(*v) in positions


def test_minor_shift_identities():
    # For an admissible pair (a,b),(a',b') and b <= k < a':
    #   T_{g_k} M_(a,k+1) = M_(a,k+1) + t M_(a,k)
    #   T_{g_k} M_(k,b')  = M_(k,b')  - t M_(k+1,b')
    base = compute_base(P242)
    t = Polynomial.var(T)
    for q in admissible_pairs(P242, base):
        (a, b), (a2, b2) = q.xi, q.xi_prime
        for k in range(b, a2):
            raised = minor_poly(P242, base, Root(a, k + 1))
            plain = minor_poly(P242, base, Root(a, k))
            assert one_param_transform(P242, k, raised) == raised + t * plain
            upper = minor_poly(P242, base, Root(k, b2))
            lower = minor_poly(P242, base, Root(k + 1, b2))
            assert one_param_transform(P242, k, upper) == upper - t * lower


def test_generators_invariant_and_x24_not():
    gens = build_generators(P242)
    for name, p in gens.named():
        assert is_n_invariant(P242, p), name
    assert not is_n_invariant(P242, V(2, 4))
    table = invariance_table(P242, V(2, 4))
    assert table[2] is False  # k = 3 produces a t-term
    assert len(table) == 7


def test_independence_ranks():
    gens = build_generators(P242)
    assert independence_details(P242, gens.core_polys()).rank == 8
    nine = gens.core_polys() + [p for _, p in gens.extras]
    assert independence_details(P242, nine).rank == 8  # D is algebraically dependent
    pt = ParabolicType((1, 1))
    assert independence_details(pt, [V(1, 2)]).rank == 1
    details = independence_details(P242, gens.core_polys(), seed=5)
    assert details.independent and details.expected == 8


def test_weight_coranks():
    assert weight_corank(admissible_pairs(P242), 8) == 1
    assert weight_corank(admissible_pairs(ParabolicType((2, 2, 2, 1, 1))), 8) == 0
    assert weight_corank((), 8) == 0


def test_corank_s_phi_values():
    # frozen from the weight relations; (2,2,2,1,1) has the extra relation
    # (3,5)+(5,7) == (3,6)+(6,7), so its S-union-Phi corank exceeds its
    # alpha-system corank
    expected = {(2, 1, 3, 2): 1, (2, 2, 2, 1, 1): 1, (2, 2, 1, 1): 0, (2, 4, 2): 1}
    for sizes, want in expected.items():
        pt = ParabolicType(sizes)
        base = compute_base(pt)
        pairs = admissible_pairs(pt, base)
        roots = list(base.roots) + sorted(phi_set(pairs))
        assert corank_of_roots(roots, pt.n) == want, sizes


def test_verify_type_reports():
    rep = verify_type(P242, seed=11)
    doc = rep.to_json_dict()
    assert rep.passed
    assert doc["independence"]["rank"] == 8
    assert doc["corank"] == {"alpha": 1, "s_phi": 1, "consistent": True}
    assert doc["trdeg"]["field_n"] == 8

    # the corank bookkeeping genuinely fails for (2,2,2,1,1); the report
    # must say so rather than hide it
    rep2 = verify_type(ParabolicType((2, 2, 2, 1, 1)), seed=11)
    assert rep2.flags["invariance"] and rep2.flags["independence"]
    assert not rep2.flags["corank_bookkeeping"]
    assert not rep2.passed
    assert rep2.corank_alpha == 0 and rep2.corank_s_phi == 1


def test_verify_single_block():
    rep = verify_type(ParabolicType((4,)))
    assert rep.passed
    assert rep.independence.rank == 0 and rep.independence.expected == 0


def test_case242_named_generators_match_displays():
    gens = case242_generators()
    assert gens["M1"] == V(2, 3)
    assert gens["M2"] == V(1, 3) * V(2, 4) - V(1, 4) * V(2, 3)
    assert gens["N1"] == V(6, 7)
    assert gens["N2"] == V(5, 7) * V(6, 8) - V(5, 8) * V(6, 7)
    assert gens["L11"] == V(2, 3) * V(3, 7) + V(2, 4) * V(4, 7) + V(2, 5) * V(5, 7) + V(2, 6) * V(6, 7)


def test_case242_report():
    rep = case242_report(seed=7)
    assert rep.identity_holds and rep.identity_sign == 1
    assert rep.d_invariant
    assert rep.table_ok
    assert rep.l11_sign_exact and rep.d_sign_exact
    assert rep.nine_generator_rank == 8
    assert rep.passed
    by_name = {row["name"]: row for row in rep.table}
    assert by_name["M1"]["computed"] == "0"
    assert by_name["L11"]["computed"] == "a2*c21"
    assert by_name["D"]["sign"] == 1


def test_case242_against_golden():
    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "case242.json").read_text())
    doc = case242_report().to_json_dict()
    assert doc == golden
