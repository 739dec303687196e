"""Tests for the verification engines."""

import functools
import inspect
import json
import pathlib
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilinv.exactpoly import Polynomial, T, rank
from nilinv.checker import (
    case242_generators,
    case242_report,
    corank_of_roots,
    derivation,
    independence_details,
    jacobian_rank_at,
    one_param_transform,
    verify_type,
    weight_corank,
)
from nilinv import exactpoly, invgen
from nilinv.cli import main
from nilinv.invgen import build_generators, check_invariance, expand, formal_matrix, is_zero_minor, jacobian_row
from nilinv.invgen import D_FORM, minor_derivatives, minor_form, minor_poly, minors_at, unproved_steps
from nilinv.orbitlab import DEFAULT_SEED, sample_point
from nilinv.rootcomb import (
    ParabolicType,
    Root,
    admissible_pairs,
    compositions,
    compute_base,
    nilradical_roots,
    phi_set,
)
from oracles import gradient, identity, invariance_table, is_n_invariant, matmul, mutant, proves_invariance

P242 = ParabolicType((2, 4, 2))
PAPER_TYPES = [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]


def V(i, j):
    return Polynomial.var((i, j))


@functools.lru_cache(maxsize=None)
def _matrix_product_images(ptype, k):
    # independent route: the entries of (1 - tE) X (1 + tE)
    n = ptype.n
    t = Polynomial.var(T)
    left = identity(n)
    left.rows[k - 1][k] = -t
    right = identity(n)
    right.rows[k - 1][k] = t
    moved = matmul(matmul(left, formal_matrix(ptype)), right)
    return {tuple(r): moved.get(*r) for r in nilradical_roots(ptype)}


def _transform_via_matrix_product(ptype, k, f):
    return f.substitute(_matrix_product_images(ptype, k))


def test_derivation_reads_delta_k_off_the_bracket():
    positions, delta = derivation(P242, 3)
    assert positions == nilradical_roots(P242)
    # delta_3(X) = -[E_34, X]: row 3 takes -x_(4,q), column 4 takes x_(p,3)
    assert delta == {(1, 4): V(1, 3), (2, 4): V(2, 3), (3, 7): -V(4, 7), (3, 8): -V(4, 8)}


def test_transform_examples():
    assert one_param_transform(P242, 3, V(2, 4)) == V(2, 4) + Polynomial.var(T) * V(2, 3)
    assert one_param_transform(P242, 5, Polynomial.constant(1)) == Polynomial.constant(1)
    base = compute_base(P242)
    for xi in base.roots:
        m = expand(P242, minor_form(base, xi))
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


@st.composite
def nilradical_polynomials(draw):
    # a type and a random polynomial in its nilradical variables and t,
    # sometimes multiplied by one of the type's invariant generators
    ptype = ParabolicType(draw(st.sampled_from([(2, 4, 2), (2, 1, 3, 2), (3, 2, 2)])))
    variables = sorted(tuple(r) for r in nilradical_roots(ptype)) + [T]
    f = Polynomial.zero()
    for _ in range(draw(st.integers(1, 4))):
        term = Polynomial.constant(Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))))
        for v in draw(st.lists(st.sampled_from(variables), max_size=4)):
            term = term * Polynomial.var(v)
        f = f + term
    if draw(st.booleans()):
        f = f * draw(st.sampled_from([p for _, p in build_generators(ptype).named()]))
    return ptype, f


@given(nilradical_polynomials())
@settings(max_examples=60, deadline=None)
def test_transform_matches_matrix_product_on_random_polynomials(case):
    ptype, f = case
    for k in range(1, ptype.n):
        assert one_param_transform(ptype, k, f) == _transform_via_matrix_product(ptype, k, f)


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
            raised = expand(P242, minor_form(base, Root(a, k + 1)))
            plain = expand(P242, minor_form(base, Root(a, k)))
            assert one_param_transform(P242, k, raised) == raised + t * plain
            upper = expand(P242, minor_form(base, Root(k, b2)))
            lower = expand(P242, minor_form(base, Root(k + 1, b2)))
            assert one_param_transform(P242, k, upper) == upper - t * lower


def test_generators_invariant_and_x24_not():
    gens = build_generators(P242)
    for name, p in gens.named():
        assert is_n_invariant(P242, p), name
    assert not is_n_invariant(P242, V(2, 4))
    table = invariance_table(P242, V(2, 4))
    assert table[2] is False  # k = 3 produces a t-term
    assert len(table) == 7


def _random_minors():
    # every composition with n <= 6 and every k, with seeded random rows and columns of order 1..4
    rng = random.Random(DEFAULT_SEED)
    for n in range(2, 7):
        for sizes in compositions(n):
            pt = ParabolicType(sizes)
            for k in range(1, n):
                for _ in range(6):
                    order = rng.randint(1, min(4, n))
                    rows, cols = (tuple(sorted(rng.sample(range(1, n + 1), order))) for _ in "RC")
                    yield pt, k, (rows, cols)


def test_minor_derivative_matches_derive():
    checked = 0
    for pt, k, (rows, cols) in _random_minors():
        moves = [(sign, m) for step, sign, m in minor_derivatives((rows, cols)) if step == k]
        rule = sum((sign * minor_poly(pt, *m) for sign, m in moves), Polynomial.zero())
        assert rule == minor_poly(pt, rows, cols).derive(derivation(pt, k)[1]), (pt, k, rows, cols)
        checked += 1
    assert checked == 6 * sum(n - 1 for n in range(2, 7) for _ in compositions(n))


def test_zero_minor_test_matches_expansion():
    seen = set()
    for pt, _, minor in _random_minors():
        assert is_zero_minor(pt, minor) == (not minor_poly(pt, *minor)), (pt, minor)
        seen.add(is_zero_minor(pt, minor))
    assert seen == {True, False}


def _proof_table(pt, form):
    unproved = unproved_steps(pt, form)
    return [k not in unproved for k in range(1, pt.n)]


def test_proof_matches_symbolic_invariance_and_rejects_mutant():
    # every form of every composition with 2 <= n <= 8, D included; each pair form again with the factors of
    # every other product swapped (a product commutes), and without its last splitting
    types = mutants = 0
    for n in range(2, 9):
        for sizes in compositions(n):
            pt = ParabolicType(sizes)
            gens = build_generators(pt)
            for name, form in gens.forms:
                assert _proof_table(pt, form) == invariance_table(pt, expand(pt, form)), (sizes, name)
            for name, form in gens.forms[len(gens.base) : len(gens.base) + len(gens.pairs)]:
                assert all(_proof_table(pt, tuple(p[::-1] if i % 2 else p for i, p in enumerate(form)))), (sizes, name)
                assert not all(_proof_table(pt, form[:-1])), (sizes, name)
                assert not is_n_invariant(pt, expand(pt, form[:-1])), (sizes, name)
                mutants += 1
            types += 1
    assert types == 254 and mutants == 264


def test_every_form_proved_up_to_n10():
    # the index-set proof leaves no form of a type with n <= 10 open, so verify refuses none of them
    types = 0
    for n in range(2, 11):
        for sizes in compositions(n):
            pt = ParabolicType(sizes)
            assert all(all(_proof_table(pt, form)) for _, form in build_generators(pt).forms), sizes
            types += 1
    assert types == 1022


def test_every_form_proved_on_a_sample_up_to_n24():
    # verify admits n <= 24: a seeded sample of 300 compositions with 11 <= n <= 24, each n cut at a
    # random subset of its n - 1 places between neighbouring indices
    rng = random.Random(DEFAULT_SEED)
    forms = 0
    for _ in range(300):
        n = rng.randint(11, 24)
        cuts = [0, *sorted(rng.sample(range(1, n), rng.randint(0, n - 1))), n]
        pt = ParabolicType(tuple(b - a for a, b in zip(cuts, cuts[1:])))
        for _, form in build_generators(pt).forms:
            assert all(_proof_table(pt, form)), pt
            forms += 1
    assert forms == 5545


def _random_forms():
    # four seeded forms on every composition with 2 <= n <= 8: 1-3 products of 1-2 random minors of order 1..3
    rng = random.Random(DEFAULT_SEED)
    for n in range(2, 9):
        for sizes in compositions(n):
            for _ in range(4):
                form = []
                for _ in range(rng.randint(1, 3)):
                    orders = [rng.randint(1, min(3, n // 2)) for _ in range(rng.randint(1, 2))]
                    form.append(tuple(tuple(tuple(sorted(rng.sample(range(1, n + 1), o))) for _ in "RC") for o in orders))
                yield ParabolicType(sizes), tuple(form)


def test_one_pass_proof_matches_the_per_k_proof():
    forms = opened = 0
    for pt, form in _random_forms():
        unproved = [k for k in range(1, pt.n) if not proves_invariance(pt, form, k)]
        assert unproved_steps(pt, form) == unproved, (pt, form)
        forms += 1
        opened += bool(unproved)
    assert forms == 1016 and opened == 184


def test_one_pass_proof_mutants_are_caught():
    # x13 + x24 on (2,2): D_1 x13 = -x23 and D_3 x24 = +x23 cancel only across k
    pt = ParabolicType((2, 2))
    form = ((((1,), (3,)),), (((2,), (4,)),))
    assert unproved_steps(pt, form) == [1, 3]
    assert [k for k, proved in enumerate(invariance_table(pt, expand(pt, form)), 1) if not proved] == [1, 3]
    assert mutant(unproved_steps, r"total\[k, ", "total[None, ")(pt, form) == []  # a Counter keyed by factors alone
    # D on (2,4,2) moves row 8 of det_{K,78} to row 9, which the 1 <= k < n filter drops
    assert unproved_steps(P242, D_FORM) == []
    with pytest.raises(ValueError, match=r"^index 9 out of range 1\.\.8$"):
        mutant(unproved_steps, r"1 <= k < ptype\.n and ", "")(P242, D_FORM)


def test_verify_expands_nothing(monkeypatch):
    # (6,6,6) against the symbolic invariance tables of the expanded generators
    pt = ParabolicType((6, 6, 6))
    want = verify_type(pt).to_json_dict()
    want["invariance"] = {name: invariance_table(pt, p) for name, p in sorted(build_generators(pt).named())}

    def refuse(*args, **kwargs):
        raise AssertionError("verify expanded a polynomial")

    for module, name in ((invgen, "minor_poly"), (exactpoly, "det_minor"), (invgen, "det_minor")):
        monkeypatch.setattr(module, name, refuse)
    assert verify_type(pt).to_json_dict() == want
    # (1,8,7,8) has corner minors of order 15; every form is proved invariant under all 23 subgroups
    doc = verify_type(ParabolicType((1, 8, 7, 8))).to_json_dict()
    assert len(doc["invariance"]) == 44 and all(table == [True] * 23 for table in doc["invariance"].values())
    assert doc["independence"] == {
        "rank": 44, "expected": 44, "seed": DEFAULT_SEED, "attempts": 1, "independent": True, "note": None,
    }
    assert doc["corank"] == {"alpha": 15, "s_phi": 21, "consistent": False}
    assert doc["flags"] == {"invariance": True, "independence": True, "corank_bookkeeping": False}


def test_unproved_form_is_refused(monkeypatch):
    # a form the proof leaves open is refused with its name and open k, and nothing is expanded
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was expanded")

    for module, name in ((invgen, "minor_poly"), (exactpoly, "det_minor"), (invgen, "det_minor")):
        monkeypatch.setattr(module, name, refuse)
    pt = ParabolicType((2, 2, 1, 1))
    named = list(build_generators(pt).forms)
    assert check_invariance(pt, named) is None
    x24 = ((((2,), (4,)),),)  # the entry x_(2,4), moved by g_3(t) only
    with pytest.raises(ValueError, match=r"^invariance of generator x24 is not proved on index sets at k = 3$"):
        check_invariance(pt, named + [("x24", x24)])
    monkeypatch.setattr("nilinv.invgen.unproved_steps", lambda ptype, form: [2])
    with pytest.raises(ValueError, match=r"^invariance of generator M\[2,3\] is not proved on index sets at k = 2$"):
        check_invariance(pt, named)


def test_independence_ranks():
    gens = build_generators(P242)
    assert independence_details(P242, gens.core_forms()).rank == 8
    nine = [form for _, form in gens.forms]
    assert len(nine) == 9 and independence_details(P242, nine).rank == 8  # D is algebraically dependent
    pt = ParabolicType((1, 1))
    assert independence_details(pt, [minor_form(compute_base(pt), Root(1, 2))]).rank == 1
    details = independence_details(P242, gens.core_forms(), seed=5)
    assert details.independent and details.expected == 8


def _jacobian_via_derivatives(ptype, polys, assignment):
    # the path the gradient replaced: one derivative polynomial per (generator, position), then evaluated
    return [[p.derivative(tuple(v)).evaluate(assignment) for v in sorted(nilradical_roots(ptype))] for p in polys]


def _cofactor_jacobian(ptype, forms, point, row=jacobian_row):
    column = {v: k for k, v in enumerate(sorted(nilradical_roots(ptype)))}
    minor = minors_at(point)
    return [row(form, minor, column) for form in forms]


def _jacobian_cases():
    # every composition with n <= 7, D included, at two seeded points
    for n in range(1, 8):
        for sizes in compositions(n):
            pt = ParabolicType(sizes)
            gens = build_generators(pt)
            for seed in (13, 14):
                yield pt, gens, sample_point(pt, random.Random(seed))


def _gradient_rows(pt, gens, point):
    # the reference: the gradient of each expanded generator, one column per nilradical position
    values = {tuple(r): point.get(*r) for r in nilradical_roots(pt)}
    return [[gradient(p, values).get(v, Fraction(0)) for v in sorted(nilradical_roots(pt))] for _, p in gens.named()]


def test_jacobian_from_gradients_matches_derivatives():
    checked = 0
    for pt, gens, point in _jacobian_cases():
        want = _gradient_rows(pt, gens, point)
        values = {tuple(r): point.get(*r) for r in nilradical_roots(pt)}
        assert _jacobian_via_derivatives(pt, [p for _, p in gens.named()], values) == want, pt
        forms = [form for _, form in gens.forms]
        got = _cofactor_jacobian(pt, forms, point)
        assert got == want, pt
        assert all(isinstance(x, Fraction) for row in got for x in row)
        assert jacobian_rank_at(pt, forms, point) == rank(want), pt
        checked += 1
    assert checked == 2 * 127


def test_cofactor_jacobian_rejects_mutants():
    # a cofactor without its sign (-1)^(a+b), and pair forms without their last splitting
    source, signs = re.subn(r"-cofactor if \(a \+ b\) % 2 else cofactor", "cofactor", inspect.getsource(jacobian_row))
    assert signs == 1
    namespace = dict(vars(invgen))
    exec(source, namespace)
    unsigned = namespace["jacobian_row"]
    caught = {"sign": 0, "splitting": 0}
    for pt, gens, point in _jacobian_cases():
        want = _gradient_rows(pt, gens, point)
        forms = [form for _, form in gens.forms]
        caught["sign"] += _cofactor_jacobian(pt, forms, point, unsigned) != want
        short = [form[:-1] if name.startswith("L") else form for name, form in gens.forms]
        caught["splitting"] += _cofactor_jacobian(pt, short, point) != want
    assert caught["sign"] > 0 and caught["splitting"] > 0, caught


def test_independence_expands_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("independence expanded a polynomial")

    for name in ("det_minor", "minor_poly", "expand"):
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "nilinv"]:
            if name in vars(module):
                monkeypatch.setattr(module, name, refuse)
    pt = ParabolicType((1, 8, 7, 8))
    details = independence_details(pt, build_generators(pt).core_forms(), seed=DEFAULT_SEED)
    assert details.rank == details.expected == 44


def test_weight_coranks():
    assert weight_corank(admissible_pairs(P242), 8) == 1
    assert weight_corank(admissible_pairs(ParabolicType((2, 2, 2, 1, 1))), 8) == 0
    assert weight_corank((), 8) == 0
    assert corank_of_roots([], 8) == 0


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
    assert rep["passed"]
    assert doc["independence"]["rank"] == 8
    assert doc["corank"] == {"alpha": 1, "s_phi": 1, "consistent": True}
    assert doc["trdeg"]["field_n"] == 8

    # the corank bookkeeping genuinely fails for (2,2,2,1,1); the report
    # must say so rather than hide it
    rep2 = verify_type(ParabolicType((2, 2, 2, 1, 1)), seed=11)
    assert rep2["flags"]["invariance"] and rep2["flags"]["independence"]
    assert not rep2["flags"]["corank_bookkeeping"]
    assert not rep2["passed"]
    assert rep2["corank"]["alpha"] == 0 and rep2["corank"]["s_phi"] == 1


def test_verify_single_block():
    rep = verify_type(ParabolicType((4,)))
    assert rep["passed"]
    assert rep["independence"]["rank"] == 0 and rep["independence"]["expected"] == 0


def test_verify_document_contract_up_to_8(capsys):
    # every composition with n <= 8: the verdicts agree with the fields they are read from, and verify prints the document
    types = 0
    for n in range(1, 9):
        for sizes in compositions(n):
            pt, types = ParabolicType(sizes), types + 1
            doc, gens = verify_type(pt), build_generators(pt)
            flags, corank, independence = doc["flags"], doc["corank"], doc["independence"]
            assert doc["passed"] == all(flags.values()), sizes
            assert corank["consistent"] == flags["corank_bookkeeping"] == (corank["alpha"] == corank["s_phi"]), sizes
            assert doc["trdeg"] == {
                "field_n": independence["expected"], "field_b_claimed": corank["alpha"], "field_b_lattice": corank["s_phi"],
            }, sizes
            assert independence["expected"] == len(gens.core_forms()), sizes
            assert list(doc["invariance"]) == sorted(name for name, _ in gens.forms), sizes
            assert all(table == [True] * (n - 1) for table in doc["invariance"].values()), sizes
            assert doc.to_json_dict() is doc, sizes
            main(["verify", "--type", ",".join(map(str, sizes))])
            assert json.loads(capsys.readouterr().out) == doc, sizes
    assert types == 255


def test_case242_named_generators_match_displays():
    gens = {name: expand(P242, form) for name, form in case242_generators().items()}
    assert list(gens) == ["M1", "M2", "N1", "N2", "L11", "L12", "L21", "L22", "D"]
    assert gens["M1"] == V(2, 3)
    assert gens["M2"] == V(1, 3) * V(2, 4) - V(1, 4) * V(2, 3)
    assert gens["N1"] == V(6, 7)
    assert gens["N2"] == V(5, 7) * V(6, 8) - V(5, 8) * V(6, 7)
    assert gens["L11"] == V(2, 3) * V(3, 7) + V(2, 4) * V(4, 7) + V(2, 5) * V(5, 7) + V(2, 6) * V(6, 7)


def test_case242_report():
    rep = case242_report(seed=7)
    assert rep["identity"]["holds"] and rep["identity"]["sign"] == 1
    assert rep["d_invariant"]
    assert rep["table_ok"]
    assert rep["l11_sign_exact"] and rep["d_sign_exact"]
    assert rep["nine_generator_rank"] == 8
    assert rep["passed"]
    by_name = {row["name"]: row for row in rep["y_table"]}
    assert by_name["M1"]["computed"] == "0"
    assert by_name["L11"]["computed"] == "a2*c21"
    assert by_name["D"]["sign"] == 1


def test_case242_against_golden():
    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "case242.json").read_text())
    doc = case242_report()
    assert doc == golden
