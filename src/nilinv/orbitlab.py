"""Exact orbit geometry for the unitriangular conjugation action.

Unitriangular group elements, the sparse bracket [E_ij, x] and orbit
dimension as the exact rank of its integer rows, randomized search for the
maximal orbit dimension, and the block-by-block elimination that conjugates
any point with nonvanishing base minors onto the linear slice spanned by the
base and marked positions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import OutsideU0Error, ReductionError
from .exactpoly import MatrixPoint, _eliminate
from .invgen import GeneratorSet, build_generators, check_covered, check_support, invariant_values
from .invgen import vanishing_minor, y_coordinates
from .rootcomb import (
    ParabolicType,
    Root,
    admissible_pairs,
    compute_base,
    dims,
    is_covered,
    nilradical_columns,
    nilradical_roots,
    phi_set,
)

DEFAULT_SEED = 271828
SAMPLE_RANGE = (-9, 9)


@dataclass
class GroupElement(MatrixPoint):
    """An upper unitriangular matrix with exact rational entries."""

    def __post_init__(self):
        for i in range(self.n):
            for j in range(self.n):
                v = self.rows[i][j]
                if i == j and v != 1:
                    raise ValueError("diagonal entries must be 1")
                if i > j and v != 0:
                    raise ValueError("entries below the diagonal must be 0")

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


def orbit_dim(ptype: ParabolicType, x: MatrixPoint) -> int:
    """Exact rank of a -> [a, x] from strictly upper matrices into the nilradical; ValueError off the nilradical.

    The bracket is linear in x, so x is scaled to integers by the lcm of its denominators, and
    the integer rows, placed by a per-type column index, go straight to Bareiss elimination.
    """
    check_support(ptype, x)
    column, n, scale = nilradical_columns(ptype), ptype.n, lcm(*(v.denominator for row in x.rows for v in row))
    x = MatrixPoint(n, [[v.numerator * (scale // v.denominator) for v in row] for row in x.rows])
    rows = []
    for i, j in combinations(range(1, n + 1), 2):
        rows.append(row := [0] * len(column))
        for pos, v in bracket(i, j, x).items():
            if v:
                row[column[pos]] = v
    return _eliminate(rows)[0]


def sample_point(ptype: ParabolicType, rng: random.Random) -> MatrixPoint:
    """Random integer point of the nilradical, entries drawn from SAMPLE_RANGE in a fixed order."""
    return MatrixPoint.from_dict(ptype.n, {tuple(r): rng.randint(*SAMPLE_RANGE) for r in nilradical_columns(ptype)})


def max_orbit_dim(ptype: ParabolicType, trials: int, seed: int = DEFAULT_SEED) -> int:
    """Maximum orbit dimension over seeded random integer points."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        best = max(best, orbit_dim(ptype, sample_point(ptype, rng)))
    return best


def orbit_experiment(ptype: ParabolicType, trials: int, seed: int = DEFAULT_SEED) -> dict:
    """Experiment record comparing the sampled maximum against the prediction."""
    d = dims(ptype)
    sampled = max_orbit_dim(ptype, trials, seed)
    covered = is_covered(ptype)
    exceeded = sampled > d.predicted_regular_orbit_dim
    matches = sampled == d.predicted_regular_orbit_dim
    return {
        "type": list(ptype.block_sizes),
        "seed": seed,
        "trials": trials,
        "dims": d.to_dict(),
        "max_rank": sampled,
        "predicted": d.predicted_regular_orbit_dim,
        "covered": covered,
        "match": matches,
        "exceeds_prediction": exceeded,
        "pass": matches if covered else not exceeded,
    }


def reduce_to_canonical(ptype: ParabolicType, point: MatrixPoint) -> tuple[GroupElement, MatrixPoint]:
    """Conjugate a point with nonvanishing base minors onto the slice.

    Works block by block, trailing blocks first.  For each base root in the
    leading block: clear its column upward with row operations anchored at
    the pivot row, then clear its row rightward with column operations
    anchored at the pivot column (whose side effects land exactly on marked
    positions).  Residual entries in the leading-block rows are then swept
    column by column, right to left, using the base root of each column as
    anchor.  Supported for non-increasing block sizes and for any sizes
    with at most three blocks.
    """
    check_covered(ptype)
    n, s = ptype.n, ptype.s
    base = compute_base(ptype)
    pairs = admissible_pairs(ptype, base)
    slice_positions = {Root(*r) for r in base.roots} | set(phi_set(pairs))

    xi = vanishing_minor(ptype, base, point)
    if xi is not None:
        raise OutsideU0Error(xi)

    a = [row[:] for row in point.rows]
    g = MatrixPoint.identity(n).rows
    threeblock = s == 3 and not ptype.is_nonincreasing

    def conj(u: int, v: int, scale: Fraction) -> None:
        # A <- (1 + s E_{uv}) A (1 - s E_{uv}); G <- (1 + s E_{uv}) G; 1-based u < v
        # only nonzero operands are multiplied: adding zero would leave a Fraction as it is
        au, av = a[u - 1], a[v - 1]
        for c, x in enumerate(av):
            if x:
                au[c] += scale * x
        for row in a:
            if x := row[u - 1]:
                row[v - 1] -= scale * x
        gu = g[u - 1]
        for c, x in enumerate(g[v - 1]):
            if x:
                gu[c] += scale * x

    # windows from the trailing pair of blocks to the whole matrix
    for bi in range(s - 1, 0, -1):
        nblocks = s - bi + 1
        lead_rows = set(ptype.block_range(bi))
        wstart = ptype.block_start(bi)
        pivots = sorted((r for r in base.roots if r.i in lead_rows), key=lambda r: r.j)
        full_row_clear = nblocks == 2 or (threeblock and bi == 1)
        for (pa, pb) in pivots:
            if a[pa - 1][pb - 1] == 0:
                raise ReductionError(f"pivot at {(pa, pb)} vanished during elimination")
            for p in range(wstart, pa):
                if a[p - 1][pb - 1] != 0:
                    conj(p, pa, -a[p - 1][pb - 1] / a[pa - 1][pb - 1])
            if full_row_clear:
                cols = [c for c in range(pb + 1, n + 1) if ptype.block_of(c) > bi]
            else:
                cols = [c for c in ptype.block_range(ptype.block_of(pb)) if c > pb]
            for c in cols:
                if a[pa - 1][c - 1] != 0:
                    conj(pb, c, a[pa - 1][c - 1] / a[pa - 1][pb - 1])
        if nblocks >= 3:
            res_start = ptype.block_start(bi + 2)
            for c in range(n, res_start - 1, -1):
                junk = [
                    p
                    for p in sorted(lead_rows)
                    if a[p - 1][c - 1] != 0 and Root(p, c) not in slice_positions
                ]
                if not junk:
                    continue
                anchor = base.root_in_column.get(c)
                if anchor is None or anchor.i in lead_rows:
                    raise ReductionError(f"no usable anchor for residual column {c}")
                if a[anchor.i - 1][c - 1] == 0:
                    raise ReductionError(f"anchor at {tuple(anchor)} vanished")
                for p in junk:
                    conj(p, anchor.i, -a[p - 1][c - 1] / a[anchor.i - 1][c - 1])

    for r in nilradical_roots(ptype):
        if a[r.i - 1][r.j - 1] != 0 and r not in slice_positions:
            raise ReductionError(f"entry at {tuple(r)} survived the elimination")
    return GroupElement(n, g), MatrixPoint(n, a)


def verify_unique_intersection(ptype: ParabolicType, point: MatrixPoint, gens: GeneratorSet | None = None) -> dict:
    """Reduce a point and cross-check against the slice-coordinate solver.

    Asserts that (i) every generator value is preserved by the reduction and
    (ii) the reduced point coincides with the point reconstructed from the
    invariant values alone.
    """
    if gens is None:
        gens = build_generators(ptype)
    g, y = reduce_to_canonical(ptype, point)
    vals_in = invariant_values(gens, point)
    vals_out = invariant_values(gens, y)
    preserved = vals_in == vals_out
    y_solved = y_coordinates(ptype, gens.base, gens.pairs, vals_in)
    agrees = y_solved == y
    return {
        "type": list(ptype.block_sizes),
        "point": point.to_json_dict(),
        "g": g.to_json_dict(),
        "y": y.to_json_dict(),
        "invariants_preserved": preserved,
        "y_coordinates_agree": agrees,
        "pass": preserved and agrees,
    }
