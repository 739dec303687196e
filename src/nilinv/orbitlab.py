"""Exact orbit geometry for the unitriangular conjugation action.

Unitriangular group elements, the sparse bracket [E_ij, x] and orbit
dimension as the exact rank of its integer rows, laid out once per type
from that bracket, randomized search for the maximal orbit dimension, which
stops at the bound that invariant and independent generators prove, and
the block-by-block elimination that conjugates any point with nonvanishing
base minors onto the linear slice spanned by the base and marked positions,
on integer rows that each start over the lcm of their own denominators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Callable, Iterable, Iterator

from .errors import OutsideU0Error, ReductionError
from .exactpoly import ZERO, MatrixPoint, _eliminate, scale_to_integers
from .invgen import GeneratorSet, build_generators, check_covered, check_invariance, check_support, invariant_values
from .invgen import minors_at, proves_independence, vanishing_minor, y_coordinates
from .rootcomb import ParabolicType, Root, dims, is_covered, nilradical_columns, nilradical_roots

DEFAULT_SEED = 271828
SAMPLE_RANGE = (-9, 9)


@dataclass
class GroupElement(MatrixPoint):
    """An upper unitriangular matrix with exact rational entries."""

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if any(row[:i]):
                raise ValueError("entries below the diagonal must be 0")
            if row[i] != 1:
                raise ValueError("diagonal entries must be 1")

    def to_json_dict(self) -> dict:
        # the unit diagonal is implied: list only the strictly upper entries
        doc = super().to_json_dict()
        doc["entries"] = [e for e in doc["entries"] if e[0] < e[1]]
        return doc


def bracket(i: int, j: int, x: MatrixPoint) -> dict[tuple, object]:
    """The entries of [E_ij, x] = E_ij x - x E_ij that can be nonzero, for i < j and x strictly upper triangular.

    Column j of x E_ij is column i of x, and row i of E_ij x is row j of x:
    the bracket is -x_(p,i) at (p,j) for p < i, x_(j,q) at (i,q) for q > j,
    and 0 elsewhere, in that (sorted) order.  Works over either ring of
    ``MatrixPoint``: rationals or integers at a point, polynomials on X.
    """
    out = {(p, j): -x.get(p, i) for p in range(1, i)}
    out.update(((i, q), x.get(j, q)) for q in range(j + 1, x.n + 1))
    return out


def bracket_layout(ptype: ParabolicType) -> Iterator[list[tuple[int, int]]]:
    """The entries of each bracket row that can be nonzero, read off ``bracket`` row by row.

    At the point whose entry at nilradical column k is the label k + 1, row (i, j)
    of ``bracket`` is +-(k + 1) at column t exactly where it is +-x_k at any point.
    Each row, in the order of the pairs i < j, comes as those (t, +-(k + 1)) pairs;
    a row with no entry, such as (1, n), adds nothing to the rank and is left out.
    Rows are generated, so ranking one point keeps no layout beside its rows.
    """
    column, n = nilradical_columns(ptype), ptype.n
    labels = MatrixPoint(n, [[0] * n for _ in range(n)])
    for (i, j), k in column.items():
        labels.rows[i - 1][j - 1] = k + 1
    for i, j in combinations(range(1, n + 1), 2):
        if row := [(column[pos], v) for pos, v in bracket(i, j, labels).items() if v]:
            yield row


def _rank_at(layout: Iterable[list[tuple[int, int]]], values: list[int]) -> int:
    """Exact rank of the bracket matrix at the integer point with ``values`` in ``nilradical_columns`` order."""
    signed = [0, *values, *(-v for v in reversed(values))]  # the label +-(k + 1) indexes +-values[k]
    rows = []
    for entries in layout:
        rows.append(row := [0] * len(values))
        for t, label in entries:
            row[t] = signed[label]
    return _eliminate(rows)[0]


def orbit_dim(ptype: ParabolicType, x: MatrixPoint) -> int:
    """Exact rank of a -> [a, x] from strictly upper matrices into the nilradical; ValueError off the nilradical.

    The bracket is linear in x and its rows mix entries of different rows of x, so x's values,
    in ``nilradical_columns`` order, are scaled to integers as one row, by the lcm of all their
    denominators; they fill the rows of ``bracket_layout``, which go straight to Bareiss elimination.
    """
    check_support(ptype, x)
    (values,), _ = scale_to_integers([[x.get(i, j) for i, j in nilradical_columns(ptype)]])
    return _rank_at(bracket_layout(ptype), values)


def _draw(ptype: ParabolicType, rng: random.Random) -> list[int]:
    # the one sampler: one draw from SAMPLE_RANGE per nilradical position, in nilradical_columns order
    return [rng.randint(*SAMPLE_RANGE) for _ in nilradical_columns(ptype)]


def sample_point(ptype: ParabolicType, rng: random.Random) -> MatrixPoint:
    """Random integer point of the nilradical, entries drawn from SAMPLE_RANGE in a fixed order."""
    return MatrixPoint.from_dict(ptype.n, dict(zip(map(tuple, nilradical_columns(ptype)), _draw(ptype, rng))))


def max_orbit_dim(ptype: ParabolicType, trials: int, seed: int = DEFAULT_SEED, bound: int | None = None) -> int:
    """Maximum orbit dimension over seeded random integer points: the draws of ``sample_point``, ranked on one layout.

    ``bound`` is a proved upper bound on every orbit dimension, if one is known: the draws
    stop at the first that reaches it, as no later draw can rank higher.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    layout = list(bracket_layout(ptype))
    best = 0
    for _ in range(trials):
        best = max(best, _rank_at(layout, _draw(ptype, rng)))
        if best == bound:
            break
    return best


def proves_orbit_bound(gens: GeneratorSet) -> bool:
    """Whether every orbit is proved to have dimension at most dim m - |S| - |Q|.

    It is, once the core forms are proved invariant (``check_invariance``) and independent
    (``proves_independence``): then trdeg C(m)^N >= |S| + |Q|, and by Rosenlicht (1956) the
    largest orbit dimension is dim m - trdeg C(m)^N.  A proof that does not go through is no
    verdict: False.
    """
    try:
        check_invariance(gens.ptype, gens.forms)
        return proves_independence(gens)
    except ValueError:
        return False


def orbit_experiment(ptype: ParabolicType, trials: int, seed: int = DEFAULT_SEED) -> dict:
    """Experiment record comparing the sampled maximum against the prediction.

    The draws stop at the prediction where ``proves_orbit_bound`` holds, which leaves the
    maximum as it is; a single trial has nothing to stop, so it is drawn without the proof.
    """
    gens = GeneratorSet(ptype)
    d = dims(gens)
    predicted = d["predicted_regular_orbit_dim"]
    sampled = max_orbit_dim(ptype, trials, seed, predicted if trials > 1 and proves_orbit_bound(gens) else None)
    covered = is_covered(ptype)
    exceeded = sampled > predicted
    matches = sampled == predicted
    return {
        "type": list(ptype.block_sizes),
        "seed": seed,
        "trials": trials,
        "dims": d,
        "max_rank": sampled,
        "predicted": predicted,
        "covered": covered,
        "match": matches,
        "exceeds_prediction": exceeded,
        "pass": matches if covered else not exceeded,
    }


def reduce_to_canonical(gens: GeneratorSet, point: MatrixPoint, minor: Callable | None = None) -> tuple[GroupElement, MatrixPoint]:
    """Conjugate a point with nonvanishing base minors onto the slice of the type of ``gens``.

    Works block by block, trailing blocks first.  For each base root in the
    leading block: clear its column upward with row operations anchored at
    the pivot row, then clear its row rightward with column operations
    anchored at the pivot column (whose side effects land exactly on marked
    positions).  Residual entries in the leading-block rows are then swept
    column by column, right to left, using the base root of each column as
    anchor.  Supported for non-increasing block sizes and for any sizes
    with at most three blocks.

    It runs on integers: row r of the point is A[r] / D[r] and of g G[r] / E[r],
    one positive denominator per row, from ``scale_to_integers``, and a row a step
    touches is divided by the gcd of its entries and denominator; Fractions are
    built at the end.  ``minor`` is the point's ``minors_at`` memo when the caller
    shares one: the U0 test reads it.
    """
    ptype, base, slice_positions = gens.ptype, gens.base, gens.slice
    check_covered(ptype)
    n, s = ptype.n, ptype.s

    minor = minor or minors_at(point)
    xi = vanishing_minor(base, point, minor)
    if xi is not None:
        raise OutsideU0Error(xi)

    A, D = scale_to_integers(point.rows)
    G, E = [[int(i == j) for j in range(n)] for i in range(n)], [1] * n
    threeblock = s == 3 and not ptype.is_nonincreasing

    def cut(rows: list[list[int]], dens: list[int], r: int) -> None:
        if dens[r] != 1 and (h := gcd(dens[r], *rows[r])) > 1:  # gcd(1, ...) is 1
            rows[r] = [x // h for x in rows[r]]
            dens[r] //= h

    def conj(u: int, v: int, num: int, den: int) -> None:
        # A <- (1 + s E_{uv}) A (1 - s E_{uv}); G <- (1 + s E_{uv}) G; s = num/den, 1-based u < v
        h = gcd(num, den) if den > 0 else -gcd(num, den)
        u, v, num, den = u - 1, v - 1, num // h, den // h  # s in lowest terms, den > 0
        for rows, dens in ((A, D), (G, E)):
            # row u += s row v: over the denominator D[u] den D[v] / h, row u gains the factor p and row v the factor q
            p, q = den * dens[v], num * dens[u]
            h = gcd(p, q)
            p, q = p // h, q // h
            rows[u] = [p * x + q * y for x, y in zip(rows[u], rows[v])]
            dens[u] *= p
            cut(rows, dens, u)
        # column v -= s column u; of a strictly upper A only the rows r < u hold an entry in column u
        for r in range(u):
            if x := A[r][u]:
                if den != 1:
                    A[r] = [y * den for y in A[r]]
                    D[r] *= den
                A[r][v] -= num * x
                cut(A, D, r)

    # windows from the trailing pair of blocks to the whole matrix
    for bi in range(s - 1, 0, -1):
        nblocks = s - bi + 1
        lead_rows = set(ptype.block_range(bi))
        wstart = ptype.block_start(bi)
        pivots = sorted((r for r in base.roots if r.i in lead_rows), key=lambda r: r.j)
        full_row_clear = nblocks == 2 or (threeblock and bi == 1)
        for (pa, pb) in pivots:
            if not A[pa - 1][pb - 1]:
                raise ReductionError(f"pivot at {(pa, pb)} vanished during elimination")
            for p in range(wstart, pa):
                if A[p - 1][pb - 1]:  # s = -a[p][pb] / a[pa][pb]
                    conj(p, pa, -A[p - 1][pb - 1] * D[pa - 1], D[p - 1] * A[pa - 1][pb - 1])
            if full_row_clear:
                cols = [c for c in range(pb + 1, n + 1) if ptype.block_of(c) > bi]
            else:
                cols = [c for c in ptype.block_range(ptype.block_of(pb)) if c > pb]
            for c in cols:
                if A[pa - 1][c - 1]:
                    conj(pb, c, A[pa - 1][c - 1], A[pa - 1][pb - 1])
        if nblocks >= 3:
            res_start = ptype.block_start(bi + 2)
            for c in range(n, res_start - 1, -1):
                junk = [p for p in sorted(lead_rows) if A[p - 1][c - 1] and Root(p, c) not in slice_positions]
                if not junk:
                    continue
                anchor = base.root_in_column.get(c)
                if anchor is None or anchor.i in lead_rows:
                    raise ReductionError(f"no usable anchor for residual column {c}")
                if not A[anchor.i - 1][c - 1]:
                    raise ReductionError(f"anchor at {tuple(anchor)} vanished")
                for p in junk:  # s = -a[p][c] / a[anchor][c]
                    conj(p, anchor.i, -A[p - 1][c - 1] * D[anchor.i - 1], D[p - 1] * A[anchor.i - 1][c - 1])

    for r in nilradical_roots(ptype):
        if A[r.i - 1][r.j - 1] and r not in slice_positions:
            raise ReductionError(f"entry at {tuple(r)} survived the elimination")
    a = [[Fraction(x, d) if x else ZERO for x in row] for row, d in zip(A, D)]
    g = [[Fraction(x, d) if x else ZERO for x in row] for row, d in zip(G, E)]
    return GroupElement(n, g), MatrixPoint(n, a)


def verify_unique_intersection(ptype: ParabolicType, point: MatrixPoint, gens: GeneratorSet | None = None) -> dict:
    """Reduce a point and cross-check against the slice-coordinate solver.

    Asserts that (i) every generator value is preserved by the reduction and
    (ii) the reduced point coincides with the point reconstructed from the
    invariant values alone.
    """
    if gens is None:
        gens = build_generators(ptype)
    if gens.ptype != ptype:
        raise ValueError(f"generators of type {gens.ptype} given for a point of type {ptype}")
    minor = minors_at(point)  # one minor memo for the reduction's U0 test and the input's values
    g, y = reduce_to_canonical(gens, point, minor)
    vals_in = invariant_values(gens, point, minor)
    vals_out = invariant_values(gens, y)
    preserved = vals_in == vals_out
    y_solved = y_coordinates(gens, vals_in)
    agrees = y_solved == y  # both points hold the one shared ZERO, so only the nonzero entries go through Fraction.__eq__
    return {
        "type": list(ptype.block_sizes),
        "point": point.to_json_dict(),
        "g": g.to_json_dict(),
        "y": y.to_json_dict(),
        "invariants_preserved": preserved,
        "y_coordinates_agree": agrees,
        "pass": preserved and agrees,
    }
