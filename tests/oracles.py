"""Slow, textbook forms of fast paths in ``nilinv`` for tests to compare against, and helpers that only tests use."""

import inspect
import random
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import lcm, prod
from operator import mul

from nilinv import exactpoly
from nilinv.checker import one_param_transform
from nilinv.errors import OutsideU0Error, ReductionError
from nilinv.exactpoly import MatrixPoint, Polynomial, det_minor
from nilinv.invgen import check_covered, check_support, formal_matrix, is_zero_minor, minors_at, vanishing_minor
from nilinv.orbitlab import GroupElement, sample_point
from nilinv.rootcomb import ParabolicType, Root, admissible_pairs, compute_base, nilradical_roots, phi_set


def bareiss(matrix):
    """Textbook fraction-free (Bareiss) elimination: (rank, determinant).

    Every row below the pivot is updated at every step, whatever its entry
    in the pivot column.  The determinant is 0 unless the matrix is square
    and regular; the 0 x 0 matrix has determinant 1.
    """
    rows = []
    scale = 1
    for row in matrix:
        row = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        rows.append([int(x * mult) for x in row])
    nr, nc = len(rows), len(rows[0]) if rows else 0
    prev = 1
    r = 0
    sign = 1
    for c in range(nc):
        pivot_row = next((p for p in range(r, nr) if rows[p][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        pivot = rows[r][c]
        for p in range(r + 1, nr):
            factor = rows[p][c]
            for q in range(c + 1, nc):
                rows[p][q] = (rows[p][q] * pivot - factor * rows[r][q]) // prev
            rows[p][c] = 0
        prev = pivot
        r += 1
        if r == nr:
            break
    return r, Fraction(sign * prev, scale) if r == nr == nc else Fraction(0)


def full_minor(matrix, minors=minors_at):
    """The determinant of a square matrix: its full minor, read through ``minors`` (``invgen.minors_at`` or a mutant)."""
    order = tuple(range(1, len(matrix) + 1))
    return minors(MatrixPoint(len(matrix), [list(row) for row in matrix]))((order, order))


def mutant(obj, pattern, mutation):
    """A function or class rebuilt from its source in its module's namespace, with the one match of ``pattern`` replaced."""
    source, subs = re.subn(pattern, mutation, inspect.getsource(obj))
    assert subs == 1
    namespace = dict(vars(inspect.getmodule(obj)))
    exec(source, namespace)
    return namespace[obj.__name__]


def without_lcm_scaling(module, *names):
    """The functions ``names`` of ``module`` rebuilt over a ``scale_to_integers`` that keeps only the numerators.

    The mutant scales nothing: it returns other rows unless every denominator is 1.
    """
    pattern = r"v\.numerator \* \(scale // v\.denominator\)"
    source, subs = re.subn(pattern, "v.numerator", inspect.getsource(exactpoly.scale_to_integers))
    assert subs == 1
    helpers = dict(vars(exactpoly))
    exec(source, helpers)
    namespace = dict(vars(module), scale_to_integers=helpers["scale_to_integers"])
    for name in names:
        exec(inspect.getsource(getattr(module, name)), namespace)
    return [namespace[name] for name in names]


# -- polynomials --------------------------------------------------------------


def gradient(p, values):
    """{v: dp/dv at the point} for every variable v of the polynomial p, from one sweep over its terms.

    Within a monomial, each partial derivative is the product of the factor
    values before and after it; a value or coefficient with denominator 1 is
    multiplied as an int.  The Jacobian oracle of the cofactor rows.
    """
    ints = {v: x.numerator if x.denominator == 1 else x for v, x in values.items()}
    grad = {}
    for mono, coef in p.terms.items():
        try:
            powers = [ints[v] ** e for v, e in mono]
        except KeyError as exc:
            raise ValueError(f"no value supplied for variable {exc.args[0]!r}") from None
        prefix = list(accumulate(powers, mul, initial=coef.numerator if coef.denominator == 1 else coef))
        suffix = 1
        for idx in range(len(mono) - 1, -1, -1):
            v, e = mono[idx]
            part = prefix[idx] * suffix
            grad[v] = grad.get(v, 0) + (part if e == 1 else part * e * ints[v] ** (e - 1))
            suffix *= powers[idx]
    return {v: Fraction(g) for v, g in grad.items()}


def degree(p):
    """Total degree; -1 for the zero polynomial."""
    return max((sum(e for _, e in mono) for mono in p.terms), default=-1)


def as_monomial(p):
    """(coefficient, monomial) of a polynomial with exactly one term."""
    if len(p.terms) != 1:
        raise ValueError(f"not a monomial: {p}")
    ((mono, coef),) = p.terms.items()
    return coef, mono


def invariance_table(ptype, f):
    """Per-k invariance of an expanded polynomial, k = 1..n-1, by the symbolic t-substitution of ``one_param_transform``.

    The reference that ``invgen.unproved_steps`` is compared against.
    """
    return [one_param_transform(ptype, k, f) == f for k in range(1, ptype.n)]


def minor_derivative(k, minor):
    """D_k M_{R,C} = [k+1 in C, k not in C] M_{R, C-(k+1)+k} - [k in R, k+1 not in R] M_{R-k+(k+1), C}, as signed minors.

    One k at a time: the reference of ``invgen.minor_derivatives``.
    """
    rows, cols = minor
    out = []
    if k + 1 in cols and k not in cols:
        out.append((1, (rows, tuple(k if c == k + 1 else c for c in cols))))
    if k in rows and k + 1 not in rows:
        out.append((-1, (tuple(k + 1 if r == k else r for r in rows), cols)))
    return out


def proves_invariance(ptype, form, k):
    """Whether D_k of a form cancels on index sets, one k and one ``Counter`` at a time: the reference of ``invgen.unproved_steps``.

    D_k by ``minor_derivative`` and the product rule; a term with a factor that ``is_zero_minor`` is
    dropped, and the signs of the terms on the same minors are summed.
    """
    total = Counter()
    for product in form:
        for i, factor in enumerate(product):
            for sign, moved in minor_derivative(k, factor):
                factors = product[:i] + (moved,) + product[i + 1 :]
                if not any(is_zero_minor(ptype, m) for m in factors):
                    total[tuple(sorted(factors))] += sign
    return not any(total.values())


def is_n_invariant(ptype, f):
    """Whether f is fixed by every one-parameter subgroup g_k(t), k = 1..n-1."""
    return all(invariance_table(ptype, f))


def power_minor(ptype, k, rows, cols):
    """Minor of the k-th power of the formal matrix on the given rows and columns, expanded."""
    if k < 1:
        raise ValueError("power must be a positive integer")
    return det_minor(reduce(matmul, [formal_matrix(ptype)] * k), rows, cols)


def y_coordinates_by_det(gens, values):
    """The slice solve of ``invgen.y_coordinates`` by determinants: the reference its signed monomials are held to.

    Each generator is read off the first product of its form: a base minor's one
    product, and for a pair the splitting c = b, M_xi * M_phi, which ``splittings``
    lists first and the only one that survives on the slice.  The base minors go
    innermost first, then the pairs; each target is its value divided by that
    product at the slice point built so far with the target set to 1, every minor
    a ``bareiss`` determinant.
    """
    base, pairs = gens.base, gens.pairs
    check_covered(gens.ptype)
    if len(values) != len(base) + len(pairs):
        raise ValueError(f"expected {len(base) + len(pairs)} generator values, got {len(values)}")
    for xi, value in zip(base.roots, values):
        if value == 0:
            raise OutsideU0Error(xi)
    firsts = [form[0] for form in gens.core_forms()]
    steps = sorted(zip(base.roots, values, firsts), key=lambda step: len(step[2][0][0]))
    steps += zip([q.phi for q in pairs], values[len(base) :], firsts[len(base) :])
    coords = {}
    for target, value, product in steps:
        coords[target] = Fraction(1)
        coords[target] = value / prod(bareiss([[coords.get((i, j), 0) for j in cols] for i in rows])[1] for rows, cols in product)
    return MatrixPoint.from_dict(gens.ptype.n, coords)


def _augment(r, reach, owner, seen):
    """Match row r by an augmenting path through unseen columns into ``owner``."""
    for c in reach[r]:
        if c not in seen:
            seen.add(c)
            if c not in owner or _augment(owner[c], reach, owner, seen):
                owner[c] = r
                return True
    return False


def one_matching_by_augmenting(minor, keep, name):
    """The slice matching of ``invgen._one_matching`` by augmenting paths and a cycle test: the reference it is held to.

    A perfect matching is found by augmenting paths.  It is the only one when there is no alternating
    cycle, that is no cycle of rows r -> r' where row r reaches the column matched to row r';
    peeling the rows nothing points to leaves exactly the cycles.  None when there is no matching;
    a second matching raises ValueError naming the generator.
    """
    rows, cols = minor
    reach = {r: [c for c in cols if (r, c) in keep] for r in rows}
    owner = {}  # column -> the row matched to it
    if not all(_augment(r, reach, owner, set()) for r in rows):
        return None
    matched = {r: c for c, r in owner.items()}
    points_to = {r: [owner[c] for c in reach[r] if c != matched[r]] for r in rows}
    indegree = Counter(s for targets in points_to.values() for s in targets)
    peeled = [r for r in rows if not indegree[r]]
    for r in peeled:  # grows while it is read
        for s in points_to[r]:
            indegree[s] -= 1
            if not indegree[s]:
                peeled.append(s)
    if len(peeled) < len(rows):
        raise ValueError(f"generator {name} is not one monomial on the slice: its minor {minor} has two matchings there")
    return [Root(r, matched[r]) for r in rows]


# -- matrices -------------------------------------------------------------------


def identity(n):
    """The n x n identity, a unitriangular group element."""
    return GroupElement(n, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def matmul(a, b):
    """The product of two ``MatrixPoint``s over rationals or polynomials; a product of two ``GroupElement``s is one."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    # only nonzero factors are multiplied; an entry without any is the zero of the ring
    entries = [x for m in (a, b) for row in m.rows for x in row]
    ring = Polynomial if any(isinstance(x, Polynomial) for x in entries) else Fraction
    cols = [{k: y for k, y in enumerate(col) if y != 0} for col in zip(*b.rows)]
    rows = [[(k, x) for k, x in enumerate(row) if x != 0] for row in a.rows]
    rows = [[sum((x * col[k] for k, x in row if k in col), ring()) for col in cols] for row in rows]
    return (type(a) if type(b) is type(a) else MatrixPoint)(a.n, rows)


# -- roots, group elements and points ------------------------------------------


def reductive_roots(ptype):
    """Positive roots (i, j) with both indices in one diagonal block."""
    out = []
    for a in range(1, ptype.s + 1):
        block = list(ptype.block_range(a))
        out += [Root(block[x], block[y]) for x in range(len(block)) for y in range(x + 1, len(block))]
    return frozenset(out)


def higher(ptype, g1, g2):
    """Whether g1 - g2 is a positive root of the reductive part.

    Equivalently: same row with g2's column left of g1's in one block, or
    same column with g1's row above g2's in one block.
    """
    g1, g2 = Root(*g1), Root(*g2)
    if g1.i == g2.i and g1.j != g2.j:
        return g2.j < g1.j and ptype.block_of(g1.j) == ptype.block_of(g2.j)
    if g1.j == g2.j and g1.i != g2.i:
        return g1.i < g2.i and ptype.block_of(g1.i) == ptype.block_of(g2.i)
    return False


def elementary(n, u, v, s):
    """1 + s E_{u,v} with 1 <= u < v <= n."""
    if not 1 <= u < v <= n:
        raise ValueError(f"need 1 <= u < v <= n, got u={u}, v={v}")
    rows = identity(n).rows
    rows[u - 1][v - 1] = Fraction(s)
    return GroupElement(n, rows)


def inverse(g):
    """The inverse of a unitriangular g, by back substitution for g h = 1, rows bottom up."""
    # h_ij = -sum_{i<k<=j} g_ik h_kj
    n, rows = g.n, g.rows
    h = identity(n).rows
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            h[i][j] = -sum((rows[i][k] * h[k][j] for k in range(i + 1, j + 1) if rows[i][k]), Fraction(0))
    return GroupElement(n, h)


def adjoint(ptype, g, x):
    """Conjugation g x g^{-1}; the result stays supported on the nilradical."""
    check_support(ptype, x)
    out = matmul(matmul(g, x), inverse(g))
    assert out.support() <= nilradical_roots(ptype), "conjugation left the nilradical"
    return out


def random_unitriangular(n, rng: random.Random):
    """Product of 12 random elementary matrices 1 + s E_uv, s in -4..4.

    For n = 1 there is no elementary matrix: the identity, with nothing drawn.
    """
    g = identity(n)
    for _ in range(12 if n > 1 else 0):
        u = rng.randint(1, n - 1)
        v = rng.randint(u + 1, n)
        g = matmul(elementary(n, u, v, Fraction(rng.randint(-4, 4))), g)
    return g


def sample_u0_point(ptype: ParabolicType, rng: random.Random):
    """Random nilradical point with all base minors nonzero, within 200 draws."""
    base = compute_base(ptype)
    for _ in range(200):
        point = sample_point(ptype, rng)
        if vanishing_minor(base, point) is None:
            return point
    raise RuntimeError(f"could not sample a U0 point of type {ptype} in 200 tries")


def reduce_over_fractions(ptype, point):
    """The reduction of ``orbitlab.reduce_to_canonical`` on ``Fraction`` rows: the oracle of its integer rows.

    Conjugates a point with nonvanishing base minors onto the slice.

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

    xi = vanishing_minor(base, point)
    if xi is not None:
        raise OutsideU0Error(xi)

    a = [row[:] for row in point.rows]
    g = identity(n).rows
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
