"""Tests for the orbit geometry: adjoint action, dimensions, reduction."""

import functools
import inspect
import json
import pathlib
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from nilinv import orbitlab
from nilinv.errors import OutsideU0Error, ReductionError, UnsupportedTypeError
from nilinv.exactpoly import ZERO, MatrixPoint
from nilinv.invgen import GeneratorSet, build_generators, formal_matrix, invariant_values, minors_at, vanishing_minor
from nilinv.invgen import y_coordinates
from nilinv.orbitlab import (
    GroupElement,
    bracket,
    bracket_layout,
    max_orbit_dim,
    orbit_dim,
    orbit_experiment,
    proves_orbit_bound,
    reduce_to_canonical,
    sample_point,
    verify_unique_intersection,
)
from nilinv.rootcomb import (
    ParabolicType,
    Root,
    admissible_pairs,
    compositions,
    compute_base,
    is_covered,
    nilradical_roots,
    phi_set,
)
from oracles import adjoint, elementary, identity, inverse, matmul, random_unitriangular, reduce_over_fractions
from oracles import sample_u0_point

P242 = ParabolicType((2, 4, 2))


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(2, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]])
    with pytest.raises(ValueError):
        GroupElement(2, [[Fraction(1), Fraction(0)], [Fraction(3), Fraction(1)]])
    g = elementary(3, 1, 2, Fraction(5))
    assert g.rows[0][1] == 5


def test_group_inverse():
    rng = random.Random(0)
    for n in range(1, 9):
        for _ in range(10):
            g = random_unitriangular(n, rng)
            h = inverse(g)
            # g is a product of elementary matrices: a product of two GroupElements is one
            assert isinstance(g, GroupElement) and isinstance(h, GroupElement)
            assert all(isinstance(v, Fraction) for row in h.rows for v in row)
            assert matmul(g, h).rows == identity(n).rows
            assert matmul(h, g).rows == identity(n).rows
    # n = 1 has no elementary matrix: the identity, and the generator is left untouched
    rng = random.Random(0)
    assert random_unitriangular(1, rng).rows == identity(1).rows
    assert rng.getstate() == random.Random(0).getstate()
    # draws for n >= 2 are pinned
    assert random_unitriangular(3, random.Random(0)).rows == [[1, 2, 24], [0, 1, 11], [0, 0, 1]]


def test_adjoint_identity_and_composition():
    rng = random.Random(1)
    x = sample_point(P242, rng)
    assert adjoint(P242, identity(8), x) == x
    g = random_unitriangular(8, rng)
    h = random_unitriangular(8, rng)
    assert adjoint(P242, g, adjoint(P242, h, x)) == adjoint(P242, matmul(g, h), x)


def test_adjoint_rejects_off_nilradical_points():
    bad = MatrixPoint.from_dict(8, {(3, 5): 1})  # same diagonal block
    with pytest.raises(ValueError):
        adjoint(P242, identity(8), bad)


@pytest.mark.parametrize(
    "n, entries",
    [
        (4, {(1, 3): 1, (2, 4): 1, (1, 2): 5}),  # a reductive position of (2,2)
        (5, {(1, 3): 1, (2, 4): 1, (4, 5): 1}),  # one row and column too many
        (3, {(1, 3): 1}),  # too small
    ],
)
def test_orbit_dim_rejects_points_off_the_nilradical(n, entries):
    p22 = ParabolicType((2, 2))
    assert orbit_dim(p22, MatrixPoint.from_dict(4, {(1, 3): 1, (2, 4): 1})) == 1
    with pytest.raises(ValueError):
        orbit_dim(p22, MatrixPoint.from_dict(n, entries))


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
            left, right = matmul(e, x), matmul(x, e)
            entries = bracket(i, j, x)
            # every nilradical entry that the sparse formula does not reach is 0
            assert [entries.get(r, 0) for r in positions] == [left.get(*r) - right.get(*r) for r in positions]
            # and every entry it does reach is the commutator's, in sorted order
            assert list(entries) == sorted(entries)
            assert all(v == left.get(*pos) - right.get(*pos) for pos, v in entries.items())


def test_bracket_matches_matrix_products():
    # [E_ij, x] from matrix products, at rational points and on the formal matrix
    rng = random.Random(6)
    for sizes in [(2, 4, 2), (2, 1, 3, 2), (3, 2, 2), (1, 1, 1, 1)]:
        pt = ParabolicType(sizes)
        entries = {r: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for r in nilradical_roots(pt)}
        _assert_bracket_is_commutator(pt, MatrixPoint.from_dict(pt.n, entries))
    for sizes in [(3, 2, 2), (1, 1, 1, 1), (2, 2)]:
        pt = ParabolicType(sizes)
        _assert_bracket_is_commutator(pt, formal_matrix(pt))


def _placed(entries, pt, x):
    # the entries that one layout row places at the integer point x, by position; a zero value places nothing
    positions = sorted(nilradical_roots(pt))
    values = {k + 1: int(x.get(*r)) for k, r in enumerate(positions)}
    value = lambda label: values[label] if label > 0 else -values[-label]
    return {positions[t]: value(label) for t, label in entries if value(label)}


def test_bracket_layout_places_the_bracket_entries():
    rng = random.Random(11)
    unsigned = re.subn(r"\(column\[pos\], v\)", "(column[pos], abs(v))", inspect.getsource(bracket_layout))
    assert unsigned[1] == 1
    namespace = dict(vars(orbitlab))
    exec(unsigned[0], namespace)
    caught = 0
    for n in range(1, 9):
        for sizes in compositions(n):
            pt = ParabolicType(sizes)
            layout, x = list(bracket_layout(pt)), sample_point(pt, rng)
            rows = iter(layout)
            for i, j in combinations(range(1, n + 1), 2):
                nonzero = {pos: v for pos, v in bracket(i, j, x).items() if v}
                if any(bracket(i, j, formal_matrix(pt)).values()):
                    entries = next(rows)
                    assert _placed(entries, pt, x) == nonzero, (sizes, i, j)
                    assert len({t for t, _ in entries}) == len(entries)
                else:  # a dropped row: no nilradical source, so its bracket is 0 at every point
                    assert not nonzero
            assert next(rows, None) is None
            # a layout that drops the minus sign of the (p, j) entries places other entries
            mutant = namespace["bracket_layout"](pt)
            caught += any(_placed(m, pt, x) != _placed(e, pt, x) for m, e in zip(mutant, layout, strict=True))
    assert caught > 200


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


SWEEP = [ParabolicType(sizes) for n in range(1, 9) for sizes in compositions(n)]


def _sweep(experiment, seed, monkeypatch):
    """The records of ``experiment`` over every composition with n <= 8 at 5 trials, and the draws it ranked."""
    draws = []
    monkeypatch.setattr(orbitlab, "_rank_at", lambda *args, rank=orbitlab._rank_at: draws.append(1) or rank(*args))
    records = [experiment(ptype, 5, seed) for ptype in SWEEP]
    monkeypatch.undo()
    return records, len(draws)


@functools.cache
def _all_trials(seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(orbitlab, "proves_orbit_bound", lambda gens: False)
        return _sweep(orbit_experiment, seed, monkeypatch)


@pytest.mark.parametrize("seed, draws", [(1, 260), (2, 271)])
def test_early_stop_keeps_the_all_trials_record(seed, draws, monkeypatch):
    assert all(proves_orbit_bound(GeneratorSet(ptype)) for ptype in SWEEP)
    assert _all_trials(seed)[1] == 5 * len(SWEEP)
    assert _sweep(orbit_experiment, seed, monkeypatch) == (_all_trials(seed)[0], draws)


def _open(*args):
    raise ValueError("not proved")


@pytest.mark.parametrize("where, stub", [
    ("orbitlab.check_invariance", _open),  # a form the invariance proof leaves open
    ("invgen.GeneratorSet.slice_monomials", _open),  # a form that is not one monomial on the slice
    ("orbitlab.proves_independence", lambda gens: False),  # exponent rows short of full rank
])
def test_every_trial_is_drawn_without_the_proof(where, stub, monkeypatch):
    monkeypatch.setattr(f"nilinv.{where}", stub)
    assert not any(proves_orbit_bound(GeneratorSet(ptype)) for ptype in SWEEP)
    assert _sweep(orbit_experiment, 1, monkeypatch) == _all_trials(1)


def test_a_stop_below_the_bound_is_caught(monkeypatch):
    source, subs = re.subn(r"predicted if trials > 1", "predicted - 1 if trials > 1", inspect.getsource(orbit_experiment))
    assert subs == 1
    namespace = dict(vars(orbitlab))
    exec(source, namespace)
    for seed in (1, 2):
        assert _sweep(namespace["orbit_experiment"], seed, monkeypatch)[0] != _all_trials(seed)[0]


def test_reduce_2_2_closed_form():
    pt = ParabolicType((2, 2))
    a13, a14, a23, a24 = Fraction(5), Fraction(7), Fraction(3), Fraction(2)
    A = MatrixPoint.from_dict(4, {(1, 3): a13, (1, 4): a14, (2, 3): a23, (2, 4): a24})
    g, y = reduce_to_canonical(build_generators(pt), A)
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
            g, y = reduce_to_canonical(build_generators(pt), A)
            assert y.support() <= slice_pos
            assert adjoint(pt, g, A) == y


REDUCE_PINS = pathlib.Path(__file__).parent / "golden" / "reduce_pins.json"


def _pinned_points(pt):
    """Two seeded U0 draws and one seeded slice point conjugated by a seeded g."""
    rng = random.Random(int("".join(map(str, pt.block_sizes))))
    points = [sample_u0_point(pt, rng) for _ in range(2)]
    base = compute_base(pt)
    slice_pos = sorted(set(base.roots) | set(phi_set(admissible_pairs(pt, base))))
    y = MatrixPoint.from_dict(pt.n, {tuple(r): rng.choice((-1, 1)) * rng.randint(1, 9) for r in slice_pos})
    return points + [adjoint(pt, random_unitriangular(pt.n, rng), y)]


def test_reduce_matches_pinned_g_and_y():
    # g and y of three points per covered type with 2 <= n <= 7, recorded before the
    # conjugation step learnt to skip zero operands; they must stay exactly the same
    pins = json.loads(REDUCE_PINS.read_text())
    covered = [s for n in range(2, 8) for s in compositions(n) if is_covered(ParabolicType(s))]
    assert sorted(pins) == sorted(",".join(map(str, s)) for s in covered)
    for key, records in pins.items():
        pt = ParabolicType.from_string(key)
        for point, rec in zip(_pinned_points(pt), records, strict=True):
            assert point.to_json_dict()["entries"] == rec["point"]
            g, y = reduce_to_canonical(build_generators(pt), point)
            assert (g.to_json_dict()["entries"], y.to_json_dict()["entries"]) == (rec["g"], rec["y"]), key


REDUCE_RATIONAL_PINS = pathlib.Path(__file__).parent / "golden" / "reduce_rational_pins.json"


def test_reduce_matches_pinned_g_and_y_at_rational_points():
    # g and y at a seeded U0 point of each covered type with 2 <= n <= 6, its row r divided by a
    # seeded d_r in 1..6, which scales each minor by a nonzero factor and so stays in U0; recorded
    # when the reduction started every row over the one lcm of all the point's denominators
    pins = json.loads(REDUCE_RATIONAL_PINS.read_text())
    covered = [s for n in range(2, 7) for s in compositions(n) if is_covered(ParabolicType(s))]
    assert sorted(pins) == sorted(",".join(map(str, s)) for s in covered)
    for key, rec in pins.items():
        pt, rng = ParabolicType.from_string(key), random.Random(key)
        u0 = sample_u0_point(pt, rng)
        d = [rng.randint(1, 6) for _ in range(pt.n)]
        x = MatrixPoint.from_dict(pt.n, {(i, j): u0.get(i, j) / d[i - 1] for i, j in u0.support()})
        assert x.to_json_dict()["entries"] == rec["point"]
        g, y = reduce_to_canonical(build_generators(pt), x)
        assert (g.to_json_dict()["entries"], y.to_json_dict()["entries"]) == (rec["g"], rec["y"]), key


@functools.cache
def _reduction_cases():
    """(type, point) on every covered composition with 2 <= n <= 8, and on (4,4,4,4) and (2,5,3).

    Per type: two U0 draws, two slice points conjugated by a seeded g, and a U0 point
    with denominators 1 to 4, so that the rows start with different denominators.
    """
    types = [s for n in range(2, 9) for s in compositions(n) if is_covered(ParabolicType(s))]
    cases = []
    for sizes in types + [(4, 4, 4, 4), (2, 5, 3)]:
        pt, rng = ParabolicType(sizes), random.Random(sum(sizes) * len(sizes))
        base = compute_base(pt)
        slice_pos = sorted(set(base.roots) | set(phi_set(admissible_pairs(pt, base))))
        for _ in range(2):
            cases.append((pt, sample_u0_point(pt, rng)))
            y = MatrixPoint.from_dict(pt.n, {tuple(r): rng.choice((-1, 1)) * rng.randint(1, 9) for r in slice_pos})
            cases.append((pt, adjoint(pt, random_unitriangular(pt.n, rng), y)))
        draw = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        fractional = MatrixPoint.from_dict(pt.n, {tuple(r): draw() for r in sorted(nilradical_roots(pt))})
        if vanishing_minor(base, fractional) is None:
            cases.append((pt, fractional))
    return cases


def test_integer_reduction_matches_the_fraction_oracle():
    cases = _reduction_cases()
    assert len({pt for pt, _ in cases}) == 119
    assert sum(any(v.denominator > 1 for row in x.rows for v in row) for _, x in cases) > 100
    for pt, x in cases:
        g, y = reduce_to_canonical(build_generators(pt), x)
        want_g, want_y = reduce_over_fractions(pt, x)
        assert (g, y) == (want_g, want_y), (pt.block_sizes, x.to_json_dict())
        assert (g.to_json_dict(), y.to_json_dict()) == (want_g.to_json_dict(), want_y.to_json_dict())


def test_reduction_errors_match_the_oracle():
    off_u0 = MatrixPoint.from_dict(8, {tuple(r): 1 + k for k, r in enumerate(sorted(nilradical_roots(P242)))})
    off_u0.rows[0][2] = off_u0.rows[1][2] = Fraction(0)
    cases = [
        (ParabolicType((2, 2)), MatrixPoint.from_dict(4, {(1, 4): 3})),  # OutsideU0Error at (2,3)
        (P242, off_u0),  # OutsideU0Error at (2,3), with M(1,4) vanishing as well
        (ParabolicType((2, 1, 3, 2)), MatrixPoint.zeros(8)),  # UnsupportedTypeError
        (P242, MatrixPoint.from_dict(8, {(3, 5): 1})),  # an entry off the nilradical
        (P242, MatrixPoint.zeros(7)),  # the wrong size
    ]
    for pt, x in cases:
        outcomes = []
        for reduce, arg in ((reduce_to_canonical, build_generators(pt)), (reduce_over_fractions, pt)):
            with pytest.raises((OutsideU0Error, UnsupportedTypeError, ValueError)) as err:
                reduce(arg, x)
            outcomes.append((type(err.value), str(err.value), getattr(err.value, "xi", None)))
        assert outcomes[0] == outcomes[1], outcomes


def test_reduction_that_forgets_to_rescale_the_row_is_caught():
    # the mutant's column operation scales D[r] and corrects the entry at v, but leaves the rest of row r as it was
    pattern = r"A\[r\] = \[y \* den for y in A\[r\]\]"
    source, subs = re.subn(pattern, "A[r][v] *= den", inspect.getsource(reduce_to_canonical))
    assert subs == 1
    namespace = dict(vars(orbitlab))
    exec(source, namespace)
    mutant = namespace["reduce_to_canonical"]

    def caught(pt, x):
        try:
            return mutant(build_generators(pt), x) != reduce_over_fractions(pt, x)
        except ReductionError:
            return True

    assert any(caught(pt, x) for pt, x in _reduction_cases())


def test_reduce_errors():
    with pytest.raises(OutsideU0Error) as err:
        reduce_to_canonical(build_generators(ParabolicType((2, 2))), MatrixPoint.from_dict(4, {(1, 4): 3}))
    assert tuple(err.value.xi) == (2, 3)
    with pytest.raises(UnsupportedTypeError) as unsupported:
        reduce_to_canonical(build_generators(ParabolicType((2, 1, 3, 2))), MatrixPoint.zeros(8))
    assert str(unsupported.value) == "type (2,1,3,2) not supported: need non-increasing sizes or at most 3 blocks"
    with pytest.raises(ValueError):
        reduce_to_canonical(build_generators(P242), MatrixPoint.from_dict(8, {(3, 5): 1}))


def test_reduce_and_y_coordinates_name_the_same_vanishing_minor():
    # x13 = x23 = 0 makes both M(2,3) and M(1,4) vanish; both checks walk the base in column order
    x = MatrixPoint.from_dict(8, {tuple(r): 1 + k for k, r in enumerate(sorted(nilradical_roots(P242)))})
    x.rows[0][2] = x.rows[1][2] = Fraction(0)
    gens = build_generators(P242)
    values = invariant_values(gens, x)
    m_values = dict(zip(gens.base.roots, values))
    assert m_values[Root(1, 4)] == m_values[Root(2, 3)] == 0
    with pytest.raises(OutsideU0Error) as reduced:
        reduce_to_canonical(gens, x)
    with pytest.raises(OutsideU0Error) as solved:
        y_coordinates(gens, values)
    with pytest.raises(OutsideU0Error) as crossed:  # its reduction reads the base minors from the shared memo
        verify_unique_intersection(P242, x, gens)
    assert tuple(reduced.value.xi) == tuple(solved.value.xi) == tuple(crossed.value.xi) == (2, 3)


def test_reduction_shares_the_minor_memo_and_the_zero():
    rng = random.Random(12)
    for sizes in [(2, 2, 1, 1), (2, 4, 2), (3, 1, 3)]:
        pt = ParabolicType(sizes)
        gens = build_generators(pt)
        u0 = sample_u0_point(pt, rng)  # row i over 1 + i % 3 is in U0 too, and its rows start over different denominators
        entries = {(i, j): u0.get(i, j) / (1 + i % 3) for i, j in u0.support()}
        x = MatrixPoint.from_dict(pt.n, entries)
        minor = minors_at(x)
        g, y = reduce_to_canonical(gens, x, minor)
        assert (g, y) == reduce_to_canonical(gens, x)
        assert minor.cache_info().misses == len(gens.base)  # the U0 test read each base minor into the memo
        assert x == MatrixPoint.from_dict(pt.n, entries)  # the reduction worked on its own rows
        assert invariant_values(gens, x, minor) == invariant_values(gens, x)
        assert minor.cache_info().hits > 0
        # y and the slice solve's point share one zero object, so comparing them skips Fraction.__eq__ on zeros
        zeros = [v for m in (y, g, MatrixPoint.zeros(pt.n)) for row in m.rows for v in row if not v]
        assert all(v is ZERO for v in zeros)


def test_reduce_fixes_slice_points():
    # a generic slice point reduces to itself with g = identity
    pt = P242
    entries = {}
    val = 2
    for xi in compute_base(pt).roots:
        entries[tuple(xi)] = val
        val += 1
    for phi in sorted(phi_set(admissible_pairs(pt))):
        entries[tuple(phi)] = val
        val += 1
    A = MatrixPoint.from_dict(8, entries)
    g, y = reduce_to_canonical(build_generators(pt), A)
    assert y == A
    assert g.rows == identity(8).rows


def test_reduce_idempotent():
    rng = random.Random(6)
    for sizes in [(2, 2, 1, 1), (2, 4, 2)]:
        pt = ParabolicType(sizes)
        A = sample_u0_point(pt, rng)
        _, y = reduce_to_canonical(build_generators(pt), A)
        g2, y2 = reduce_to_canonical(build_generators(pt), y)
        assert y2 == y
        assert g2.rows == identity(pt.n).rows


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


def test_verify_unique_intersection_rejects_generators_of_another_type():
    golden = pathlib.Path(__file__).parent / "golden"
    point = MatrixPoint.from_json_dict(json.loads((golden / "point_242_u0.json").read_text()), P242.n)
    # the golden point lies in U0 of (2,4,2); read under (2,2,2,2) its base minor at (4,5) vanishes
    with pytest.raises(ValueError, match=r"^generators of type \(2,2,2,2\) given for a point of type \(2,4,2\)$"):
        verify_unique_intersection(P242, point, build_generators(ParabolicType((2, 2, 2, 2))))
    record = verify_unique_intersection(P242, point, build_generators(P242))
    assert json.dumps(record, sort_keys=True, indent=2) + "\n" == (golden / "reduce_242.json").read_text()
