"""Construction of the invariant generators and the slice coordinates.

For a parabolic type this module builds the formal matrix X (one variable
per nilradical position) and gives each generator one form: a sum of
products of minors of X, each minor a pair (rows, cols) of ascending index
tuples.  A corner minor M_gamma attached to a base root is one product of
one minor, ``minor_form(base, gamma)``; a pair polynomial L_q is one product
of two corner minors per splitting, ``pair_form(base, q)``; the extra (2,4,2)
invariant D = det_{12,78}(X^2) is, by Cauchy-Binet, the 28 products
det_{12,K}(X) det_{K,78}(X) over the 2-subsets K.  Five readers consume a
form.  ``expand`` multiplies out expanded minors of X, only where a
generator is printed or an identity is checked symbolically
(``GeneratorSet(ptype)`` builds the base, the pairs and the slice once from
the type, and expands on first read).  ``form_value`` at a point reads
each minor from ``minors_at``, which scales the point to integers once, by
the lcm L of its denominators, and computes each minor once: the
determinant of its integer submatrix over L**k.  ``invariant_values`` (a
list in ``core_forms`` order) and the U0 test ``vanishing_minor(base,
point)`` read that memo, and ``jacobian_row`` differentiates a form at a
point by cofactors read from it.  ``check_invariance`` proves a form
invariant on its index sets in one pass over its minors
(``unproved_steps``), and ``GeneratorSet.slice_monomials`` reads
each core form on the linear slice ``gens.slice`` spanned by the base and
marked positions as one signed monomial, by the one matching of each minor
there.  Those monomials prove the generators independent
(``proves_independence``) and solve the inverse problem ``y_coordinates(gens,
values)``: the unique slice point whose generators take those values.
``restrict(base, phi, f)`` is the restriction of an expanded polynomial to
the slice.  A function given a ``Base`` or a ``GeneratorSet`` reads the
type from it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import prod
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import OutsideU0Error, UnsupportedTypeError
from .exactpoly import MatrixPoint, Polynomial, _eliminate, det_minor, rank, scale_to_integers
from .rootcomb import (
    AdmissiblePair,
    Base,
    ParabolicType,
    Root,
    admissible_pairs,
    compute_base,
    is_covered,
    nilradical_roots,
    phi_set,
    s_gamma,
)

Minor = tuple[tuple[int, ...], tuple[int, ...]]  # the rows and the columns of a minor of X, each ascending
Form = tuple[tuple[Minor, ...], ...]  # a generator: the sum of the products of these minors

CASE_242 = ParabolicType((2, 4, 2))


@lru_cache(maxsize=None)
def formal_matrix(ptype: ParabolicType) -> MatrixPoint:
    """The matrix X with variable x_(i,j) at every nilradical position, 0 elsewhere."""
    n = ptype.n
    rows = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    for (i, j) in nilradical_roots(ptype):
        rows[i - 1][j - 1] = Polynomial.var((i, j))
    return MatrixPoint(n, rows)


def minor_indices(base: Base, gamma: Root) -> Minor:
    """The rows {a} + rows(S_gamma) and columns cols(S_gamma) + {b} of the minor M_gamma."""
    inner = s_gamma(base, gamma)
    rows, cols = sorted({gamma.i} | {r.i for r in inner}), sorted({r.j for r in inner} | {gamma.j})
    return tuple(rows), tuple(cols)


def splittings(q: AdmissiblePair) -> list[tuple[Root, Root]]:
    """The roots ((a, c), (c, b')) of the minors in L_q, one pair per splitting (b, c) + (c, a') of alpha_q, c = b..a'.

    Either summand of a splitting may vanish (c = b or c = a').  The order, c
    ascending, is the order of the products of L_q in its printed polynomial.
    """
    (a, b), (a2, b2) = q.xi, q.xi_prime
    return [(Root(a, c), Root(c, b2)) for c in range(b, a2 + 1)]


def minor_form(base: Base, gamma: Root) -> Form:
    """M_gamma: one product of one minor."""
    gamma = Root(*gamma)
    if gamma not in nilradical_roots(base.ptype):
        raise ValueError(f"{gamma} is not a nilradical position of type {base.ptype}")
    return ((minor_indices(base, gamma),),)


def pair_form(base: Base, q: AdmissiblePair) -> Form:
    """L_q: the sum of M_(a,c) * M_(c,b') over ``splittings(q)``."""
    b, a2 = q.xi.j, q.xi_prime.i
    if not (b < a2 and base.ptype.block_of(b) == base.ptype.block_of(a2)):
        raise ValueError(f"pair {q.xi}, {q.xi_prime} is not admissible for type {base.ptype}")
    return tuple((minor_indices(base, left), minor_indices(base, right)) for left, right in splittings(q))


# D = det_{12,78}(X^2) on (2,4,2), by Cauchy-Binet
D_FORM: Form = tuple((((1, 2), k), (k, (7, 8))) for k in combinations(range(1, 9), 2))


@lru_cache(maxsize=None)
def minor_poly(ptype: ParabolicType, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
    """The minor of the formal matrix X on the given rows and columns, expanded once per type."""
    return det_minor(formal_matrix(ptype), rows, cols)


def form_value(form: Form, minor: Callable[[Minor], Polynomial | Fraction]) -> Polynomial | Fraction:
    """The sum of the products of a form's minors, each read through ``minor``."""
    return sum(reduce(mul, map(minor, product)) for product in form)


def expand(ptype: ParabolicType, form: Form) -> Polynomial:
    """A form expanded on the formal matrix X."""
    return form_value(form, lambda m: minor_poly(ptype, *m))


def minor_derivatives(minor: Minor) -> list[tuple[int, int, Minor]]:
    """(k, sign, moved minor) for every k whose D_k moves the minor, a k outside 1..n-1 included.

    D_k M_{R,C} = [k+1 in C, k not in C] M_{R, C-(k+1)+k} - [k in R, k+1 not in R] M_{R-k+(k+1), C}, as
    delta_k(X) = XE - EX with E = E_{k,k+1}; k and k+1 are adjacent, so no reordering sign appears.
    """
    rows, cols = minor
    out = [(c - 1, 1, (rows, cols[:i] + (c - 1,) + cols[i + 1 :])) for i, c in enumerate(cols) if c - 1 not in cols]
    return out + [(r, -1, (rows[:i] + (r + 1,) + rows[i + 1 :], cols)) for i, r in enumerate(rows) if r + 1 not in rows]


def is_zero_minor(ptype: ParabolicType, minor: Minor) -> bool:
    """Whether a minor of X is identically 0: its support has no perfect matching.

    Row r of X reaches only the columns after its block, and these supports are nested, so Hall's
    condition is greedy: pair R and C in order and require each column to lie after its row's block.
    """
    return any(c <= ptype.block_end(ptype.block_of(r)) for r, c in zip(*minor))


def unproved_steps(ptype: ParabolicType, form: Form) -> list[int]:
    """The k, 1 <= k < n, at which D_k of the form does not cancel on index sets; [] proves every g_k(t) fixes it.

    One pass over the form's minors: D_k by ``minor_derivatives`` and the product rule; a term with a
    factor that ``is_zero_minor`` is dropped, and the signs of the terms at the same k on the same minors
    are summed.  Sound, not complete (minors obey Pluecker relations), so an open k is no verdict.
    """
    total: Counter = Counter()
    for product in form:
        for i, factor in enumerate(product):
            for k, sign, moved in minor_derivatives(factor):
                factors = product[:i] + (moved,) + product[i + 1 :]
                if 1 <= k < ptype.n and not any(is_zero_minor(ptype, m) for m in factors):
                    total[k, tuple(sorted(factors))] += sign
    return sorted({k for (k, _), count in total.items() if count})


def check_invariance(ptype: ParabolicType, named: Sequence[tuple[str, Form]]) -> None:
    """Prove each named form invariant under g_k(t), k = 1..n-1, by ``unproved_steps`` with nothing expanded.

    The proof is not complete, so a form it leaves open at some k is refused: ValueError names it and those k.
    """
    for name, form in named:
        if unproved := unproved_steps(ptype, form):
            raise ValueError(f"invariance of generator {name} is not proved on index sets at k = {', '.join(map(str, unproved))}")


def check_covered(ptype: ParabolicType) -> None:
    """Reject a type outside the reduction theory: it needs non-increasing sizes or at most 3 blocks."""
    if not is_covered(ptype):
        raise UnsupportedTypeError(f"type {ptype} not supported: need non-increasing sizes or at most 3 blocks")


def check_support(ptype: ParabolicType, point: MatrixPoint) -> None:
    """Reject a point of the wrong size or with entries outside the nilradical; only the positions outside are read."""
    if point.n != ptype.n:
        raise ValueError(f"point size {point.n} != type size {ptype.n}")
    for a in range(1, ptype.s + 1):
        end = ptype.block_end(a)  # a row of block a is outside the nilradical up to column end
        if any(any(row[:end]) for row in point.rows[ptype.block_start(a) - 1 : end]):
            raise ValueError(f"point has entries outside the nilradical: {sorted(point.support() - nilradical_roots(ptype))}")


def minors_at(point: MatrixPoint) -> Callable[[Minor], Fraction]:
    """The minors of a rational point, each computed once.

    The point is scaled to integers once, by the lcm L of its denominators; a minor
    of order k is then the determinant of the integer submatrix divided by L**k.
    That scaling is kept as ``minor.scaled``, (entries, L), for a caller that reads
    the integers too; it must not be changed.
    """
    entries, scale = scaled = scale_to_integers(point.rows)

    @lru_cache(maxsize=None)
    def minor(m: Minor) -> Fraction:
        rows, cols = m
        return Fraction(_eliminate([[entries[i - 1][j - 1] for j in cols] for i in rows])[1], scale ** len(rows))

    minor.scaled = scaled
    return minor


def jacobian_row(form: Form, minor: Callable[[Minor], Fraction], column: Mapping[tuple, int]) -> list[Fraction]:
    """The gradient of a form at a point, at the index in ``column`` of each variable position.

    By Jacobi's formula dM_{R,C}/dx_(r,c) is the cofactor (-1)^(a+b) det(R - r, C - c),
    where r is R[a] and c is C[b]; the product rule does the rest.  ``minor`` gives
    the minors at the point, and a position outside ``column`` is 0 in X.
    """
    row = [Fraction(0)] * len(column)
    for product in form:
        values = [minor(m) for m in product]
        for k, (rows, cols) in enumerate(product):
            if rest := prod(values[:k] + values[k + 1 :]):
                for a, r in enumerate(rows):
                    for b, c in enumerate(cols):
                        if (r, c) in column:
                            cofactor = rest * minor((rows[:a] + rows[a + 1 :], cols[:b] + cols[b + 1 :]))
                            row[column[r, c]] += -cofactor if (a + b) % 2 else cofactor
    return row


def vanishing_minor(base: Base, point: MatrixPoint, minor: Callable | None = None) -> Root | None:
    """The first base root, in column order, whose minor vanishes at the point.

    None means every base minor is nonzero there: the point lies in U0.
    A point off the nilradical raises ValueError.  ``minor`` is the point's
    ``minors_at`` memo when the caller shares one.
    """
    check_support(base.ptype, point)
    minor = minor or minors_at(point)
    return next((xi for xi in base.roots if minor(minor_indices(base, xi)) == 0), None)


def restrict(base: Base, phi: Iterable[Root], f: Polynomial) -> Polynomial:
    """Restriction to the slice: 0 at every position outside the base and marked positions.

    Keeps exactly the terms whose variables all lie on the slice; the
    surviving terms are canonical and distinct, so nothing cancels.
    """
    keep = set(base.roots) | set(phi)
    named = [v for v in f.variables() if isinstance(v, str)]
    if named:
        raise ValueError(f"polynomial has non-position variable {named[0]!r}")
    return Polynomial._wrap({mono: c for mono, c in f.terms.items() if all(v in keep for v, _ in mono)})


def _one_matching(minor: Minor, keep: frozenset[Root], name: str) -> list[Root] | None:
    """The one perfect matching of a minor's rows to its columns inside ``keep``, in row order; None if peeling finds none.

    Peels forced rows: the row with the fewest columns left is matched when it has one, as that
    match lies in every perfect matching, and a row with none leaves no matching.  When every row
    has two or more, there is no single matching and ValueError names the generator: a single
    matching always leaves a forced row, since were each row to reach two columns or more,
    alternating unmatched and matched edges would close a cycle that gives a second matching.
    """
    rows, cols = minor
    reach = {r: {c for c in cols if (r, c) in keep} for r in rows}
    matched: dict[int, int] = {}
    while reach:
        size, r = min((len(left), r) for r, left in reach.items())
        if size == 0:
            return None
        if size > 1:
            raise ValueError(f"generator {name} is not one monomial on the slice: its minor {minor} has no single matching there")
        (matched[r],) = reach.pop(r)
        for left in reach.values():
            left.discard(matched[r])
    return [Root(r, matched[r]) for r in rows]


def minor_name(gamma: Root) -> str:
    return f"M[{gamma.i},{gamma.j}]"


def pair_name(q: AdmissiblePair) -> str:
    return f"L[{q.xi.i},{q.xi.j};{q.xi_prime.i},{q.xi_prime.j}]"


class GeneratorSet:
    """The generators attached to one parabolic type, each by its one form; expanded on first read."""

    def __init__(self, ptype: ParabolicType):
        self.ptype, self.base = ptype, compute_base(ptype)
        self.pairs = admissible_pairs(ptype, self.base)
        self.slice = frozenset(self.base.roots) | phi_set(self.pairs)  # the base and marked positions

    @cached_property
    def forms(self) -> tuple[tuple[str, Form], ...]:
        """Each generator by name: the base minors in column order, the pair polynomials, then D on (2,4,2)."""
        out = [(minor_name(xi), minor_form(self.base, xi)) for xi in self.base.roots]
        out += [(pair_name(q), pair_form(self.base, q)) for q in self.pairs]
        return tuple(out + [("D", D_FORM)] * (self.ptype == CASE_242))

    def core_forms(self) -> list[Form]:
        """The forms of the base minors and pair polynomials, without D."""
        return [form for _, form in self.forms[: len(self.base) + len(self.pairs)]]

    @cached_property
    def _expanded(self) -> tuple[tuple[str, Polynomial], ...]:
        return tuple((name, expand(self.ptype, form)) for name, form in self.forms)

    def named(self) -> list[tuple[str, Polynomial]]:
        """Each generator by name, expanded on X."""
        return list(self._expanded)

    @cached_property
    def _slice_monomials(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        column = {p: k for k, p in enumerate(sorted(self.slice))}
        out = []
        for name, form in self.forms[: len(self.base) + len(self.pairs)]:
            survivors = []
            for product in form:
                matchings = [_one_matching(minor, self.slice, name) for minor in product]
                if None not in matchings:
                    survivors.append(matchings)
            if len(survivors) != 1:
                raise ValueError(f"generator {name} has {len(survivors)} products that survive on the slice, not one")
            row, sign = [0] * len(column), 1
            for matching in survivors[0]:
                sign *= (-1) ** sum(c > d for c, d in combinations([p.j for p in matching], 2))
                for p in matching:
                    row[column[p]] += 1
            out.append((sign, tuple(row)))
        return tuple(out)

    def slice_monomials(self) -> list[tuple[int, tuple[int, ...]]]:
        """Each core form on the slice as one signed monomial: (sign, exponents at ``sorted(slice)``).

        A product survives when each of its minors has a perfect matching inside the slice
        (``_one_matching``), and is then the product of the signed monomials of those matchings.
        ValueError names a form with other than one surviving product, or a minor with no single matching.
        """
        return list(self._slice_monomials)

    def largest_minor_order(self) -> int:
        """The largest order of a minor in the forms; expanding it costs about that order's factorial."""
        return max((len(rows) for _, form in self.forms for product in form for rows, _ in product), default=0)


def build_generators(ptype: ParabolicType) -> GeneratorSet:
    """The generators of a type; nothing is expanded until a polynomial is read."""
    return GeneratorSet(ptype)


def invariant_values(gens: GeneratorSet, point: MatrixPoint, minor: Callable | None = None) -> list[Fraction]:
    """The base minors and pair polynomials at a point, in ``core_forms`` order, read from ``minor`` when given."""
    check_support(gens.ptype, point)
    minor = minor or minors_at(point)
    return [form_value(form, minor) for form in gens.core_forms()]


def proves_independence(gens: GeneratorSet) -> bool:
    """Whether the core forms are proved algebraically independent by their monomials on the slice Y.

    A relation P(f) = 0 gives P(f|Y) = 0, and monomials whose exponent rows are linearly
    independent are algebraically independent: full rank of the rows is a proof, a shortfall
    no verdict.  ``slice_monomials`` raises ValueError on a form that is not one monomial on Y.
    """
    rows = [row for _, row in gens.slice_monomials()]
    return rank(rows) == len(rows)


def y_coordinates(gens: GeneratorSet, values: list[Fraction]) -> MatrixPoint:
    """The unique slice point whose generators take the prescribed values, given in ``core_forms`` order.

    Each generator is its signed monomial on the slice (``slice_monomials``), with one new
    coordinate as a factor: xi for M_xi, phi for L_q.  Each target is its value divided by
    the rest of its monomial, the base roots in column order, which solves S_xi before xi
    (their values must be nonzero), then the pairs.  ``verify_unique_intersection``
    cross-checks it.
    """
    base, pairs = gens.base, gens.pairs
    check_covered(gens.ptype)
    if len(values) != len(base) + len(pairs):
        raise ValueError(f"expected {len(base) + len(pairs)} generator values, got {len(values)}")
    for xi, value in zip(base.roots, values):  # the order of vanishing_minor
        if value == 0:
            raise OutsideU0Error(xi)
    y: dict[Root, Fraction] = {}
    positions = sorted(gens.slice)  # the columns of the exponent rows
    targets = [*base.roots, *(q.phi for q in pairs)]
    for target, (sign, row), value in zip(targets, gens.slice_monomials(), values):
        rest = [(y[p], e) for p, e in zip(positions, row) if e and p != target]
        # the rest of the monomial as one fraction of integer products, normalized once
        num, den = prod(f.numerator ** e for f, e in rest), prod(f.denominator ** e for f, e in rest)
        y[target] = Fraction(value.numerator * den, value.denominator * num * sign)
    return MatrixPoint.from_dict(gens.ptype.n, y)
