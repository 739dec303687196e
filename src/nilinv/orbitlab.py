"""Exact orbit geometry for the unitriangular conjugation action.

Adjoint action of unitriangular matrices on nilradical points, orbit
dimension as the exact rank of the bracket map, randomized search for the
maximal orbit dimension, and the block-by-block elimination that conjugates
any point with nonvanishing base minors onto the linear slice spanned by
the base and marked positions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import OutsideU0Error, ReductionError, UnsupportedTypeError
from .exactpoly import MatrixPoint, rank
from .invgen import GeneratorSet, build_generators, check_support, invariant_values, vanishing_minor, y_coordinates
from .rootcomb import (
    ParabolicType,
    Root,
    admissible_pairs,
    compute_base,
    dims,
    is_covered,
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

    @classmethod
    def elementary(cls, n: int, u: int, v: int, s) -> "GroupElement":
        """1 + s E_{u,v} with 1 <= u < v <= n."""
        if not 1 <= u < v <= n:
            raise ValueError(f"need 1 <= u < v <= n, got u={u}, v={v}")
        rows = MatrixPoint.identity(n).rows
        rows[u - 1][v - 1] = Fraction(s)
        return cls(n, rows)

    def inverse(self) -> "GroupElement":
        # back substitution for g h = 1, rows bottom up: h_ij = -sum_{i<k<=j} g_ik h_kj
        n, g = self.n, self.rows
        h = MatrixPoint.identity(n).rows
        for i in range(n - 2, -1, -1):
            for j in range(i + 1, n):
                h[i][j] = -sum((g[i][k] * h[k][j] for k in range(i + 1, j + 1) if g[i][k]), Fraction(0))
        return GroupElement(n, h)

    def to_json_dict(self) -> dict:
        # the unit diagonal is implied: list only the strictly upper entries
        doc = super().to_json_dict()
        doc["entries"] = [e for e in doc["entries"] if e[0] < e[1]]
        return doc


def random_unitriangular(n: int, rng: random.Random, ops: int = 12, lo: int = -4, hi: int = 4) -> GroupElement:
    """Product of random elementary unitriangular matrices (for tests and sampling)."""
    g = GroupElement.identity(n)
    for _ in range(ops):
        u = rng.randint(1, n - 1)
        v = rng.randint(u + 1, n)
        g = GroupElement.elementary(n, u, v, Fraction(rng.randint(lo, hi))) * g
    return g


def adjoint(ptype: ParabolicType, g: GroupElement, x: MatrixPoint) -> MatrixPoint:
    """Conjugation g x g^{-1}; the result stays supported on the nilradical."""
    check_support(ptype, x)
    out = g * x * g.inverse()
    assert out.support() <= nilradical_roots(ptype), "conjugation left the nilradical"
    return out


def bracket(positions: list[tuple], i: int, j: int, x: MatrixPoint) -> list:
    """The entries of [E_ij, x] = E_ij x - x E_ij at the given positions, in their order.

    The (p,q) entry is d_{p,i} x_(j,q) - d_{q,j} x_(p,i).  Works over either
    ring of ``MatrixPoint``: rationals at a point, polynomials on the formal
    matrix X.  An entry that neither term reaches is the integer 0.
    """
    return [(x.get(j, q) if p == i else 0) - (x.get(p, i) if q == j else 0) for p, q in positions]


def orbit_dim(ptype: ParabolicType, x: MatrixPoint) -> int:
    """Exact rank of a -> [a, x] from strictly upper matrices into the nilradical."""
    positions = sorted(nilradical_roots(ptype))
    n = ptype.n
    return rank([bracket(positions, i, j, x) for i in range(1, n) for j in range(i + 1, n + 1)])


def sample_point(ptype: ParabolicType, rng: random.Random, lo: int = SAMPLE_RANGE[0], hi: int = SAMPLE_RANGE[1]) -> MatrixPoint:
    """Random integer point of the nilradical, entries drawn in a fixed order."""
    return MatrixPoint.from_dict(
        ptype.n, {tuple(r): rng.randint(lo, hi) for r in sorted(nilradical_roots(ptype))}
    )


def sample_u0_point(ptype: ParabolicType, rng: random.Random, max_tries: int = 200) -> MatrixPoint:
    """Random nilradical point with all base minors nonzero."""
    base = compute_base(ptype)
    for _ in range(max_tries):
        point = sample_point(ptype, rng)
        if vanishing_minor(ptype, base, point) is None:
            return point
    raise RuntimeError(f"could not sample a U0 point of type {ptype} in {max_tries} tries")


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
    if not is_covered(ptype):
        raise UnsupportedTypeError(
            f"type {ptype} not supported: need non-increasing sizes or at most 3 blocks"
        )
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
        au, av = a[u - 1], a[v - 1]
        for c in range(n):
            au[c] += scale * av[c]
        for r in range(n):
            a[r][v - 1] -= scale * a[r][u - 1]
        gu, gv = g[u - 1], g[v - 1]
        for c in range(n):
            gu[c] += scale * gv[c]

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
