"""Construction of the invariant generators and the slice coordinates.

For a parabolic type this module builds the formal matrix X (one variable
per nilradical position), the corner minors M_gamma attached to base
roots, the pair polynomials L_q attached to admissible pairs, minors of
powers of X (the extra (2,4,2) invariant D), the restriction map to the
linear slice spanned by the base and marked positions, and the inverse
problem: reconstructing the unique slice point with prescribed generator
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import OutsideU0Error, UnsupportedTypeError
from .exactpoly import MatrixPoint, Polynomial, PolyMatrix, det_minor
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
def formal_matrix(ptype: ParabolicType) -> PolyMatrix:
    """The matrix X with variable x_(i,j) at every nilradical position, 0 elsewhere."""
    m = PolyMatrix(ptype.n)
    for (i, j) in nilradical_roots(ptype):
        m.set_at(i, j, Polynomial.var((i, j)))
    return m


@lru_cache(maxsize=None)
def minor_poly(ptype: ParabolicType, base: Base, gamma: Root) -> Polynomial:
    """The minor M_gamma on rows {a} + rows(S_gamma) and columns cols(S_gamma) + {b}."""
    gamma = Root(*gamma)
    if gamma not in nilradical_roots(ptype):
        raise ValueError(f"{gamma} is not a nilradical position of type {ptype}")
    inner = s_gamma(base, gamma)
    rows = sorted({gamma.i} | {r.i for r in inner})
    cols = sorted({r.j for r in inner} | {gamma.j})
    return det_minor(formal_matrix(ptype), rows, cols)


def l_poly(ptype: ParabolicType, base: Base, q: AdmissiblePair) -> Polynomial:
    """The pair polynomial: sum of M_(a,c) * M_(c,b') over c from xi.j to xi'.i.

    The sum runs over all splittings of alpha_q = (b, a') into two reductive
    roots (allowing either summand to vanish), which is exactly c = b..a'.
    """
    (a, b), (a2, b2) = q.xi, q.xi_prime
    if not (b < a2 and ptype.block_of(b) == ptype.block_of(a2)):
        raise ValueError(f"pair {q.xi}, {q.xi_prime} is not admissible for type {ptype}")
    acc = Polynomial.zero()
    for c in range(b, a2 + 1):
        acc = acc + minor_poly(ptype, base, Root(a, c)) * minor_poly(ptype, base, Root(c, b2))
    return acc


def vanishing_minor(ptype: ParabolicType, base: Base, point: MatrixPoint) -> Root | None:
    """The first base root, in column order, whose minor vanishes at the point.

    None means every base minor is nonzero there: the point lies in U0.
    """
    values = point.values(nilradical_roots(ptype))
    for xi in base.by_column():
        if minor_poly(ptype, base, xi).evaluate(values) == 0:
            return xi
    return None


def power_minor(ptype: ParabolicType, k: int, rows: Iterable[int], cols: Iterable[int]) -> Polynomial:
    """Minor of the k-th power of the formal matrix on the given rows/columns."""
    if k < 1:
        raise ValueError("power must be a positive integer")
    return det_minor(formal_matrix(ptype).power(k), rows, cols)


def restrict(ptype: ParabolicType, base: Base, phi: Iterable[Root], f: Polynomial) -> Polynomial:
    """Restriction to the slice: substitute 0 outside the base and marked positions."""
    keep = {Root(*r) for r in base.roots} | {Root(*r) for r in phi}
    mapping = {}
    for v in f.variables():
        if isinstance(v, str):
            raise ValueError(f"polynomial has non-position variable {v!r}")
        if Root(*v) not in keep:
            mapping[v] = 0
    return f.substitute(mapping)


def minor_name(gamma: Root) -> str:
    return f"M[{gamma.i},{gamma.j}]"


def pair_name(q: AdmissiblePair) -> str:
    return f"L[{q.xi.i},{q.xi.j};{q.xi_prime.i},{q.xi_prime.j}]"


@dataclass(frozen=True)
class GeneratorSet:
    """The generators attached to one parabolic type."""

    ptype: ParabolicType
    base: Base
    pairs: tuple[AdmissiblePair, ...]
    base_minors: tuple[tuple[Root, Polynomial], ...]
    pair_polys: tuple[tuple[AdmissiblePair, Polynomial], ...]
    extras: tuple[tuple[str, Polynomial], ...]

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
            "base": [[xi.i, xi.j] for xi, _ in self.base_minors],
            "pairs": [q.to_json_dict() for q in self.pairs],
            "generators": [{"name": name, "poly": str(p)} for name, p in self.named()],
        }

    def to_latex(self) -> str:
        lines = [r"\begin{align*}"]
        for name, poly in self.named():
            if name.startswith("M["):
                i, j = name[2:-1].split(",")
                label = f"M_{{({i},{j})}}"
            elif name.startswith("L["):
                left, right = name[2:-1].split(";")
                label = f"L_{{({left}),({right})}}"
            else:
                label = name
            lines.append(f"{label} &= {poly.latex()}\\\\")
        lines.append(r"\end{align*}")
        return "\n".join(lines) + "\n"


def build_generators(ptype: ParabolicType) -> GeneratorSet:
    """Assemble all generators for a type; lists base minors in column order."""
    base = compute_base(ptype)
    pairs = admissible_pairs(ptype, base)
    base_minors = tuple((xi, minor_poly(ptype, base, xi)) for xi in base.by_column())
    pair_polys = tuple((q, l_poly(ptype, base, q)) for q in pairs)
    extras: tuple = ()
    if ptype == CASE_242:
        extras = (("D", power_minor(ptype, 2, (1, 2), (7, 8))),)
    return GeneratorSet(ptype, base, pairs, base_minors, pair_polys, extras)


@dataclass(frozen=True)
class InvariantValues:
    """Exact values of the generators at one point."""

    m_values: dict[Root, Fraction]  # keyed by base root
    l_values: dict[Root, Fraction]  # keyed by the phi root of the pair


def invariant_values(gens: GeneratorSet, point: MatrixPoint) -> InvariantValues:
    assignment = point.values(nilradical_roots(gens.ptype))
    m_values = {xi: p.evaluate(assignment) for xi, p in gens.base_minors}
    l_values = {q.phi: p.evaluate(assignment) for q, p in gens.pair_polys}
    return InvariantValues(m_values, l_values)


def _single_monomial(p: Polynomial, context: str) -> tuple[Fraction, tuple]:
    if len(p.terms) != 1:
        raise UnsupportedTypeError(f"{context} does not restrict to a single monomial: {p}")
    return p.as_monomial()


def y_coordinates(
    ptype: ParabolicType,
    base: Base,
    pairs: tuple[AdmissiblePair, ...],
    inv_values: InvariantValues,
) -> MatrixPoint:
    """The unique slice point whose generators take the prescribed values.

    Solves the triangular monomial system given by the restricted
    generators: first the base coordinates from the minor values (all of
    which must be nonzero), then each marked coordinate from its pair
    value.  Signs are read off the symbolically restricted generators.
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
    phi = phi_set(pairs)

    # (target, generator, value): minors innermost first, so each restricted
    # monomial only involves coordinates already solved, then the pairs
    steps = [
        (xi, minor_poly(ptype, base, xi), inv_values.m_values[xi], f"minor at {xi}")
        for xi in sorted(base.roots, key=lambda r: len(s_gamma(base, r)))
    ]
    steps += [
        (q.phi, l_poly(ptype, base, q), inv_values.l_values[q.phi],
         f"pair polynomial at {q.xi},{q.xi_prime}")
        for q in pairs
    ]
    coords: dict[Root, Fraction] = {}
    for target, poly, value, context in steps:
        coef, mono = _single_monomial(restrict(ptype, base, phi, poly), context)
        denom = coef
        for v, e in mono:
            r = Root(*v)
            if r == target:
                if e != 1:
                    raise UnsupportedTypeError(f"{context} restricts with exponent {e}")
                continue
            denom *= coords[r] ** e
        coords[target] = value / denom
    return MatrixPoint.from_dict(ptype.n, coords)
