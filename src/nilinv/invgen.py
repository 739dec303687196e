"""Construction of the invariant generators and the slice coordinates.

For a parabolic type this module builds the formal matrix X (one variable
per nilradical position), the corner minors M_gamma attached to base
roots, the pair polynomials L_q attached to admissible pairs, minors of
powers of X (the extra (2,4,2) invariant D), the restriction map to the
linear slice spanned by the base and marked positions, and the inverse
problem: reconstructing the unique slice point with prescribed generator
values.  Each generator is defined once, over any ring.  It is evaluated by
exact determinants of submatrices (``invariant_values``, the U0 test
``vanishing_minor`` and the slice solve ``y_coordinates`` all share one
evaluator), and expanded on X only where it is printed or an identity is
checked symbolically: ``GeneratorSet`` expands on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import prod
from typing import Callable, Iterable

from .errors import OutsideU0Error, UnsupportedTypeError
from .exactpoly import MatrixPoint, Polynomial, det, det_minor
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

CASE_242 = ParabolicType((2, 4, 2))


@lru_cache(maxsize=None)
def formal_matrix(ptype: ParabolicType) -> MatrixPoint:
    """The matrix X with variable x_(i,j) at every nilradical position, 0 elsewhere."""
    n = ptype.n
    rows = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    for (i, j) in nilradical_roots(ptype):
        rows[i - 1][j - 1] = Polynomial.var((i, j))
    return MatrixPoint(n, rows)


@lru_cache(maxsize=None)
def minor_indices(base: Base, gamma: Root) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows {a} + rows(S_gamma) and columns cols(S_gamma) + {b} of the minor M_gamma."""
    inner = s_gamma(base, gamma)
    rows, cols = sorted({gamma.i} | {r.i for r in inner}), sorted({r.j for r in inner} | {gamma.j})
    return tuple(rows), tuple(cols)


def pair_value(minor: Callable[[Root], Polynomial | Fraction], q: AdmissiblePair) -> Polynomial | Fraction:
    """L_q from the corner minors: sum of M_(a,c) * M_(c,b') over c from xi.j to xi'.i.

    The sum runs over all splittings of alpha_q = (b, a') into two reductive
    roots (allowing either summand to vanish), which is exactly c = b..a'.
    ``minor`` gives M_gamma as a polynomial or as its value at a point.
    """
    (a, b), (a2, b2) = q.xi, q.xi_prime
    return sum(minor(Root(a, c)) * minor(Root(c, b2)) for c in range(b, a2 + 1))


@lru_cache(maxsize=None)
def minor_poly(ptype: ParabolicType, base: Base, gamma: Root) -> Polynomial:
    """The minor M_gamma of the formal matrix X, expanded."""
    gamma = Root(*gamma)
    if gamma not in nilradical_roots(ptype):
        raise ValueError(f"{gamma} is not a nilradical position of type {ptype}")
    return det_minor(formal_matrix(ptype), *minor_indices(base, gamma))


def l_poly(ptype: ParabolicType, base: Base, q: AdmissiblePair) -> Polynomial:
    """The pair polynomial L_q of an admissible pair, expanded."""
    b, a2 = q.xi.j, q.xi_prime.i
    if not (b < a2 and ptype.block_of(b) == ptype.block_of(a2)):
        raise ValueError(f"pair {q.xi}, {q.xi_prime} is not admissible for type {ptype}")
    return pair_value(lambda gamma: minor_poly(ptype, base, gamma), q)


def check_support(ptype: ParabolicType, point: MatrixPoint) -> None:
    """Reject a point of the wrong size or with entries outside the nilradical."""
    if point.n != ptype.n:
        raise ValueError(f"point size {point.n} != type size {ptype.n}")
    extra = point.support() - nilradical_roots(ptype)
    if extra:
        raise ValueError(f"point has entries outside the nilradical: {sorted(extra)}")


def _minors_at(base: Base, entry: Callable[[int, int], Fraction]) -> Callable[[Root], Fraction]:
    """M_gamma at the point with the given entries, each minor the determinant of a submatrix."""

    @lru_cache(maxsize=None)
    def minor(gamma: Root) -> Fraction:
        rows, cols = minor_indices(base, gamma)
        return det([[entry(i, j) for j in cols] for i in rows])

    return minor


def vanishing_minor(ptype: ParabolicType, base: Base, point: MatrixPoint) -> Root | None:
    """The first base root, in column order, whose minor vanishes at the point.

    None means every base minor is nonzero there: the point lies in U0.
    A point off the nilradical raises ValueError.
    """
    check_support(ptype, point)
    minor = _minors_at(base, point.get)
    return next((xi for xi in base.by_column() if minor(xi) == 0), None)


def power_minor(ptype: ParabolicType, k: int, rows: Iterable[int], cols: Iterable[int]) -> Polynomial:
    """Minor of the k-th power of the formal matrix on the given rows/columns."""
    if k < 1:
        raise ValueError("power must be a positive integer")
    return det_minor(reduce(MatrixPoint.__mul__, [formal_matrix(ptype)] * k), rows, cols)


def restrict(ptype: ParabolicType, base: Base, phi: Iterable[Root], f: Polynomial) -> Polynomial:
    """Restriction to the slice: 0 at every position outside the base and marked positions.

    Keeps exactly the terms whose variables all lie on the slice; the
    surviving monomials are distinct, so nothing cancels.
    """
    keep = set(base.roots) | set(phi)
    named = [v for v in f.variables() if isinstance(v, str)]
    if named:
        raise ValueError(f"polynomial has non-position variable {named[0]!r}")
    return Polynomial({mono: c for mono, c in f.terms.items() if all(v in keep for v, _ in mono)})


def minor_name(gamma: Root) -> str:
    return f"M[{gamma.i},{gamma.j}]"


def pair_name(q: AdmissiblePair) -> str:
    return f"L[{q.xi.i},{q.xi.j};{q.xi_prime.i},{q.xi_prime.j}]"


@dataclass(frozen=True)
class GeneratorSet:
    """The generators attached to one parabolic type, expanded on first read."""

    ptype: ParabolicType
    base: Base
    pairs: tuple[AdmissiblePair, ...]

    @cached_property
    def base_minors(self) -> tuple[tuple[Root, Polynomial], ...]:
        """The base minors in column order."""
        return tuple((xi, minor_poly(self.ptype, self.base, xi)) for xi in self.base.by_column())

    @cached_property
    def pair_polys(self) -> tuple[tuple[AdmissiblePair, Polynomial], ...]:
        return tuple((q, l_poly(self.ptype, self.base, q)) for q in self.pairs)

    @cached_property
    def extras(self) -> tuple[tuple[str, Polynomial], ...]:
        """The extra (2,4,2) invariant D; no other type has one."""
        if self.ptype != CASE_242:
            return ()
        return (("D", power_minor(self.ptype, 2, (1, 2), (7, 8))),)

    def named(self) -> list[tuple[str, Polynomial]]:
        out = [(minor_name(xi), p) for xi, p in self.base_minors]
        out += [(pair_name(q), p) for q, p in self.pair_polys]
        out += list(self.extras)
        return out

    def core_polys(self) -> list[Polynomial]:
        """The base minors and pair polynomials, without extras."""
        return [p for _, p in self.base_minors] + [p for _, p in self.pair_polys]

    def to_json_dict(self) -> dict:
        return {
            "type": list(self.ptype.block_sizes),
            "base": [[xi.i, xi.j] for xi in self.base.by_column()],
            "pairs": [q.to_json_dict() for q in self.pairs],
            "generators": [{"name": name, "poly": str(p)} for name, p in self.named()],
        }

    def to_latex(self) -> str:
        labelled = [(f"M_{{{xi}}}", p) for xi, p in self.base_minors]
        labelled += [(f"L_{{{q.xi},{q.xi_prime}}}", p) for q, p in self.pair_polys]
        labelled += self.extras
        lines = [f"{label} &= {p.latex()}\\\\" for label, p in labelled]
        return "\n".join([r"\begin{align*}", *lines, r"\end{align*}"]) + "\n"


def build_generators(ptype: ParabolicType) -> GeneratorSet:
    """The generators of a type; nothing is expanded until a polynomial is read."""
    base = compute_base(ptype)
    return GeneratorSet(ptype, base, admissible_pairs(ptype, base))


@dataclass(frozen=True)
class InvariantValues:
    """Exact values of the generators at one point."""

    m_values: dict[Root, Fraction]  # keyed by base root
    l_values: dict[Root, Fraction]  # keyed by the phi root of the pair


def invariant_values(gens: GeneratorSet, point: MatrixPoint) -> InvariantValues:
    """The base minors and pair polynomials at a point, without expanding them."""
    check_support(gens.ptype, point)
    minor = _minors_at(gens.base, point.get)
    m_values = {xi: minor(xi) for xi in gens.base.by_column()}
    l_values = {q.phi: pair_value(minor, q) for q in gens.pairs}
    return InvariantValues(m_values, l_values)


def y_coordinates(
    ptype: ParabolicType,
    base: Base,
    pairs: tuple[AdmissiblePair, ...],
    inv_values: InvariantValues,
) -> MatrixPoint:
    """The unique slice point whose generators take the prescribed values.

    On the slice each generator is a signed monomial, linear in its own
    target coordinate and otherwise in coordinates solved before it: the
    base coordinates innermost first from the minor values (all of which
    must be nonzero), then each marked coordinate phi from its pair value.
    Of the splittings c = b..a' in ``pair_value``, only c = b survives on
    the slice, so there L_q is M_xi * M_phi: two determinants instead of
    2(a' - b + 1).  Each target is its value divided by the generator
    evaluated at the slice point built so far with that target set to 1.
    """
    if not is_covered(ptype):
        raise UnsupportedTypeError(
            f"type {ptype} not supported: need non-increasing sizes or at most 3 blocks"
        )
    for xi in base.roots:
        if xi not in inv_values.m_values:
            raise ValueError(f"missing minor value for base root {xi}")
        if inv_values.m_values[xi] == 0:
            raise OutsideU0Error(xi)
    for q in pairs:
        if q.phi not in inv_values.l_values:
            raise ValueError(f"missing pair value for {q.xi}, {q.xi_prime}")

    # (target, value, the minors whose product is the generator on the slice)
    inner_first = sorted(base.roots, key=lambda r: len(s_gamma(base, r)))
    steps = [(xi, inv_values.m_values[xi], (xi,)) for xi in inner_first]
    steps += [(q.phi, inv_values.l_values[q.phi], (q.xi, q.phi)) for q in pairs]
    coords: dict[Root, Fraction] = {}
    for target, value, factors in steps:
        coords[target] = Fraction(1)
        minor = _minors_at(base, lambda i, j: coords.get((i, j), 0))
        coords[target] = value / prod(minor(gamma) for gamma in factors)
    return MatrixPoint.from_dict(ptype.n, coords)
