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
from .invgen import GeneratorSet, build_generators, invariant_values, vanishing_minor, y_coordinates
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
        # Neumann series: (1 + N)^{-1} = 1 - N + N^2 - ... with N nilpotent
        n = self.n
        nil = MatrixPoint(n, [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(self.rows)])
        inv = MatrixPoint.identity(n).rows
        term = MatrixPoint.identity(n)
        sign = 1
        for _ in range(n - 1):
            term = term * nil
            sign = -sign
            if not term.support():
                break
            for i in range(n):
                for j in range(n):
                    inv[i][j] += sign * term.rows[i][j]
        return GroupElement(n, inv)

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


def _check_support(ptype: ParabolicType, point: MatrixPoint) -> None:
    extra = point.support() - nilradical_roots(ptype)
    if extra:
        raise ValueError(f"point has entries outside the nilradical: {sorted(extra)}")


def adjoint(ptype: ParabolicType, g: GroupElement, x: MatrixPoint) -> MatrixPoint:
    """Conjugation g x g^{-1}; the result stays supported on the nilradical."""
    _check_support(ptype, x)
    out = g * x * g.inverse()
    assert out.support() <= nilradical_roots(ptype), "conjugation left the nilradical"
    return out


def orbit_dim(ptype: ParabolicType, x: MatrixPoint) -> int:
    """Exact rank of a -> [a, x] from strictly upper matrices into the nilradical."""
    positions = sorted(nilradical_roots(ptype))
    col_index = {tuple(r): k for k, r in enumerate(positions)}
    rows = []
    n = ptype.n
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            # [E_{ij}, x] has (p,q) entry  d_{p,i} x_{j,q} - d_{q,j} x_{p,i}
            vec = [Fraction(0)] * len(positions)
            for (p, q), k in col_index.items():
                val = Fraction(0)
                if p == i:
                    val += x.get(j, q)
                if q == j:
                    val -= x.get(p, i)
                vec[k] = val
            rows.append(vec)
    if not rows or not positions:
        return 0
    return rank(rows)


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
    _check_support(ptype, point)
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

    def window(bi: int) -> None:
        nblocks = s - bi + 1
        if nblocks <= 1:
            return
        window(bi + 1)
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

    window(1)

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
