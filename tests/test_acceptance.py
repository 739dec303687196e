"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance (exact equality unless
noted) and within its stated time budget.
"""

import json
import random
import time

from nilinv.checker import (
    case242_report,
    corank_of_roots,
    independence_details,
    weight_corank,
)
from nilinv.cli import main
from nilinv.exactpoly import Polynomial
from nilinv.invgen import (
    build_generators,
    expand,
    minor_form,
    pair_form,
    restrict,
)
from nilinv.orbitlab import (
    orbit_experiment,
    reduce_to_canonical,
    verify_unique_intersection,
)
from nilinv.rootcomb import (
    ParabolicType,
    Root,
    admissible_pairs,
    compositions,
    compute_base,
    phi_set,
    s_gamma,
)
from oracles import as_monomial, is_n_invariant, sample_u0_point

PAPER_TYPES = [(2, 1, 3, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1), (2, 4, 2)]


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} {detail}"


def V(i, j):
    return Polynomial.var((i, j))


def as_pairs(roots):
    return {tuple(r) for r in roots}


def test_criterion_01_diagram_reproduction():
    start = time.time()
    expected = {
        (2, 1, 3, 2): ({(2, 3), (3, 4), (1, 5), (6, 7), (5, 8)}, {(4, 7), (4, 8), (5, 7)}),
        (2, 2, 2, 1, 1): (
            {(2, 3), (1, 4), (4, 5), (3, 6), (6, 7), (7, 8)},
            {(3, 5), (5, 7)},
        ),
        (2, 4, 2): ({(2, 3), (1, 4), (6, 7), (5, 8)}, {(3, 7), (3, 8), (4, 7), (4, 8)}),
    }
    ok = True
    for sizes, (want_s, want_phi) in expected.items():
        pt = ParabolicType(sizes)
        ok = ok and as_pairs(compute_base(pt).roots) == want_s
        ok = ok and as_pairs(phi_set(admissible_pairs(pt))) == want_phi
    # (2,2,1,1) embedded at offset 2
    pt = ParabolicType((2, 2, 1, 1))
    shift = lambda roots: {(i + 2, j + 2) for i, j in as_pairs(roots)}
    ok = ok and shift(compute_base(pt).roots) == {(4, 5), (3, 6), (6, 7), (7, 8)}
    ok = ok and shift(phi_set(admissible_pairs(pt))) == {(5, 7)}
    elapsed = time.time() - start
    report("criterion 1: diagram marks for the four types", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    largest = largest or n
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_criterion_02_closed_form_base():
    start = time.time()
    checked = 0
    ok = True
    for n in range(1, 13):
        for sizes in _partitions(n):
            pt = ParabolicType(sizes)
            m = [0]
            for x in sizes:
                m.append(m[-1] + x)
            want = {
                (m[i] - j + 1, m[i] + j)
                for i in range(1, len(sizes))
                for j in range(1, sizes[i] + 1)
            }
            got = as_pairs(compute_base(pt).roots)
            ok = ok and got == want and len(got) == sum(sizes[1:])
            checked += 1
    elapsed = time.time() - start
    report(
        "criterion 2: closed-form base on all non-increasing types n<=12",
        ok and elapsed < 10.0,
        f"{checked} types, {elapsed:.2f}s",
    )


def test_criterion_03_generator_fidelity():
    start = time.time()
    pt = ParabolicType((2, 4, 2))
    base = compute_base(pt)
    pair = {(q.xi, q.xi_prime): q for q in admissible_pairs(pt, base)}
    m2 = V(1, 3) * V(2, 4) - V(1, 4) * V(2, 3)
    n2 = V(5, 7) * V(6, 8) - V(5, 8) * V(6, 7)
    printed = {
        "M1": (expand(pt, minor_form(base, Root(2, 3))), V(2, 3)),
        "M2": (expand(pt, minor_form(base, Root(1, 4))), m2),
        "N1": (expand(pt, minor_form(base, Root(6, 7))), V(6, 7)),
        "N2": (expand(pt, minor_form(base, Root(5, 8))), n2),
        "L11": (
            expand(pt, pair_form(base, pair[(Root(2, 3), Root(6, 7))])),
            V(2, 3) * V(3, 7) + V(2, 4) * V(4, 7) + V(2, 5) * V(5, 7) + V(2, 6) * V(6, 7),
        ),
        # labels follow the pair convention; the printed displays for the two
        # mixed products are interchanged relative to it
        "L12": (
            expand(pt, pair_form(base, pair[(Root(2, 3), Root(5, 8))])),
            V(2, 3) * (V(3, 7) * V(6, 8) - V(3, 8) * V(6, 7))
            + V(2, 4) * (V(4, 7) * V(6, 8) - V(4, 8) * V(6, 7))
            + V(2, 5) * n2,
        ),
        "L21": (
            expand(pt, pair_form(base, pair[(Root(1, 4), Root(6, 7))])),
            m2 * V(4, 7)
            + (V(1, 3) * V(2, 5) - V(1, 5) * V(2, 3)) * V(5, 7)
            + (V(1, 3) * V(2, 6) - V(1, 6) * V(2, 3)) * V(6, 7),
        ),
        "L22": (
            expand(pt, pair_form(base, pair[(Root(1, 4), Root(5, 8))])),
            m2 * (V(4, 7) * V(6, 8) - V(4, 8) * V(6, 7))
            + (V(1, 3) * V(2, 5) - V(1, 5) * V(2, 3)) * n2,
        ),
    }
    ok = True
    for name, (computed, want) in printed.items():
        ok = ok and (computed == want or computed == -want)
    elapsed = time.time() - start
    report("criterion 3: (2,4,2) generators match printed forms", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_04_invariance():
    start = time.time()
    ok = True
    count = 0
    for sizes in PAPER_TYPES:
        pt = ParabolicType(sizes)
        for name, p in build_generators(pt).named():
            ok = ok and is_n_invariant(pt, p)
            count += 1
    elapsed = time.time() - start
    report(
        "criterion 4: symbolic invariance of every generator (incl. D)",
        ok and elapsed < 120.0,
        f"{count} generators, {elapsed:.2f}s",
    )


def test_criterion_05_independence():
    start = time.time()
    expected = {(2, 1, 3, 2): 8, (2, 2, 2, 1, 1): 8, (2, 2, 1, 1): 5, (2, 4, 2): 8}
    ok = True
    for sizes, want in expected.items():
        pt = ParabolicType(sizes)
        core = build_generators(pt).core_forms()
        ok = ok and len(core) == want
        for seed in (101, 202, 303):
            details = independence_details(pt, core, seed=seed)
            ok = ok and details.rank == want
    elapsed = time.time() - start
    report("criterion 5: Jacobian independence rank |S|+|Q| at 3 seeds", ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_06_restriction_structure():
    start = time.time()
    ok = True
    for sizes in PAPER_TYPES:
        pt = ParabolicType(sizes)
        base = compute_base(pt)
        pairs = admissible_pairs(pt, base)
        phi = phi_set(pairs)
        for xi in base.roots:
            image = restrict(base, phi, expand(pt, minor_form(base, xi)))
            coef, mono = as_monomial(image)
            ok = ok and abs(coef) == 1 and all(e == 1 for _, e in mono)
            ok = ok and {Root(*v) for v, _ in mono} == {xi} | set(s_gamma(base, xi))
        for q in pairs:
            image = restrict(base, phi, expand(pt, pair_form(base, q)))
            coef, mono = as_monomial(image)
            want = {q.phi, q.xi} | set(s_gamma(base, q.xi)) | set(s_gamma(base, q.xi_prime))
            ok = ok and abs(coef) == 1 and all(e == 1 for _, e in mono)
            ok = ok and {Root(*v) for v, _ in mono} == want
    elapsed = time.time() - start
    report("criterion 6: restricted generators are fresh-variable monomials", ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_07_orbit_dimension_oracle():
    start = time.time()
    ok = True
    covered_count = uncovered_count = 0
    for n in range(1, 7):
        for sizes in compositions(n):
            rec = orbit_experiment(ParabolicType(sizes), trials=20, seed=271828)
            if rec["covered"]:
                covered_count += 1
                ok = ok and rec["match"]
            else:
                uncovered_count += 1
                # sampled maximum must not silently exceed the prediction
                ok = ok and rec["exceeds_prediction"] is (rec["max_rank"] > rec["predicted"])
                ok = ok and not rec["exceeds_prediction"]
    elapsed = time.time() - start
    report(
        "criterion 7: sampled max orbit dimension vs prediction, n<=6",
        ok and elapsed < 300.0,
        f"{covered_count} covered + {uncovered_count} uncovered types, {elapsed:.2f}s",
    )


def test_criterion_08_reduction_cross_check():
    start = time.time()
    ok = True
    for sizes in [(2, 2), (2, 2, 1, 1), (2, 2, 2, 1, 1), (3, 2, 1), (2, 4, 2)]:
        pt = ParabolicType(sizes)
        gens = build_generators(pt)
        slice_pos = as_pairs(gens.base.roots) | as_pairs(phi_set(gens.pairs))
        rng = random.Random(271828 + pt.n)
        for _ in range(50):
            point = sample_u0_point(pt, rng)
            rec = verify_unique_intersection(pt, point, gens)
            _, y = reduce_to_canonical(gens, point)
            ok = ok and rec["pass"] and y.support() <= slice_pos
    elapsed = time.time() - start
    report(
        "criterion 8: reduction lands on the slice and matches the coordinate solver",
        ok and elapsed < 120.0,
        f"50 points x 5 types, {elapsed:.2f}s",
    )


def test_criterion_09_case_242_study():
    start = time.time()
    rep = case242_report(seed=271828)
    by_name = {row["name"]: row for row in rep["y_table"]}
    ok = (
        rep["identity"]["holds"]
        and rep["identity"]["sign"] in (1, -1)
        and rep["table_ok"]
        and by_name["L11"]["sign"] == 1
        and by_name["D"]["sign"] == 1
        and rep["nine_generator_rank"] == 8
    )
    elapsed = time.time() - start
    report(
        "criterion 9: (2,4,2) identity, evaluation table, 9-generator rank",
        ok and elapsed < 30.0,
        f"identity sign {rep['identity']['sign']}, {elapsed:.2f}s",
    )


def test_criterion_10_weight_corank():
    start = time.time()
    ok = weight_corank(admissible_pairs(ParabolicType((2, 4, 2))), 8) == 1
    detail = []
    for sizes in PAPER_TYPES:
        pt = ParabolicType(sizes)
        base = compute_base(pt)
        pairs = admissible_pairs(pt, base)
        alpha_corank = weight_corank(pairs, pt.n)
        s_phi_corank = corank_of_roots(list(base.roots) + sorted(phi_set(pairs)), pt.n)
        detail.append(f"{sizes}: corank(S+Phi)={s_phi_corank} corank(alpha)={alpha_corank}")
        ok = ok and s_phi_corank == alpha_corank
    elapsed = time.time() - start
    # Known honest failure: for (2,2,2,1,1) the weights satisfy
    # (3,5)+(5,7) == (3,6)+(6,7), so corank(S+Phi) = 1 while the two alpha
    # weights (3,4), (5,6) are independent (corank 0).  The identity the
    # criterion asserts is false for that type; see notes/decisions.md.
    report(
        "criterion 10: corank bookkeeping on the four types",
        ok and elapsed < 1.0,
        "; ".join(detail),
    )


def test_criterion_11_deterministic_cli(capsys):
    runs = [
        ["verify", "--type", "2,4,2", "--seed", "13"],
        ["verify", "--type", "2,1,3,2", "--seed", "13"],
        ["orbit-dim", "--type", "2,4,2", "--trials", "20", "--seed", "13"],
        ["case242", "--seed", "13"],
        ["base", "--type", "2,4,2", "--format", "json"],
        ["diagram", "--type", "2,2,1,1", "--format", "json", "--offset", "2"],
    ]
    ok = True
    for args in runs:
        main(list(args))
        first = capsys.readouterr().out
        main(list(args))
        second = capsys.readouterr().out
        ok = ok and first == second and json.loads(first) is not None
    report("criterion 11: byte-identical JSON for fixed seeds", ok)
