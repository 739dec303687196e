"""Exact arithmetic substrate: rationals, sparse polynomials, matrices, rank.

Everything is computed over arbitrary-precision rationals
(fractions.Fraction); no floating point appears anywhere.  ``rank`` and
``det`` take rows of ints and Fractions alike and eliminate over the
integers.  ``MatrixPoint`` is the one exact-matrix type.  Its entries are
rationals for nilradical points and unitriangular group elements (its
subclass ``orbitlab.GroupElement``), and polynomials for the formal matrix
of variables; the matrix product works over both rings.  Polynomial
variables are matrix positions (i, j) plus named parameters given as
strings, with the one-parameter deformation variable ``t`` reserved for
the group-action checks.

Canonical term order for printing: graded lexicographic with position
variables ordered by (i, j) and string parameters (t in particular) last.
``str`` and ``latex`` share one term layout and differ only in how a
coefficient and a factor are written.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

T = "t"  # the deformation parameter of one-parameter subgroup transforms

Var = Union[tuple, str]
Scalar = Union[int, Fraction]


def _var_key(v: Var):
    # positions first (by row, column), named parameters after, t last of all
    if isinstance(v, str):
        return (1, v == T, v)
    return (0, False, (v[0], v[1]))


def _canon_mono(items) -> tuple:
    return tuple(sorted(((v, e) for v, e in items if e), key=lambda ve: _var_key(ve[0])))


def _merge_mono(items) -> tuple:
    # adds up the exponents of a variable that occurs more than once
    exps: dict = {}
    for v, e in items:
        exps[v] = exps.get(v, 0) + e
    return _canon_mono(exps.items())


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    return _merge_mono(m1 + m2)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms are stored as a dict from monomial (a sorted tuple of
    (variable, exponent) pairs) to a nonzero Fraction.  Instances are
    treated as immutable; all operations build new polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        canon: dict = {}
        if terms:
            for mono, coef in terms.items():
                coef = Fraction(coef)
                if coef == 0:
                    continue
                mono = _merge_mono(mono)
                acc = canon.get(mono, Fraction(0)) + coef
                if acc:
                    canon[mono] = acc
                elif mono in canon:
                    del canon[mono]
        self.terms = canon

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls({(): Fraction(c)})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def var(cls, v: Var) -> "Polynomial":
        return cls({((v, 1),): Fraction(1)})

    @classmethod
    def _coerce(cls, value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.constant(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Polynomial")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = Polynomial._coerce(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            acc = out.get(mono, Fraction(0)) + coef
            if acc:
                out[mono] = acc
            elif mono in out:
                del out[mono]
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Polynomial.__new__(Polynomial)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-Polynomial._coerce(other))

    def __rsub__(self, other):
        return Polynomial._coerce(other) + (-self)

    def __mul__(self, other):
        other = Polynomial._coerce(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                acc = out.get(mono, Fraction(0)) + c1 * c2
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one()
        square = self
        while k:
            if k & 1:
                result = result * square
            square = square * square if k > 1 else square
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set:
        return {v for mono in self.terms for v, _ in mono}

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e for _, e in mono) for mono in self.terms)

    def as_monomial(self) -> tuple[Fraction, tuple]:
        """Return (coefficient, monomial) if the polynomial has exactly one term."""
        if len(self.terms) != 1:
            raise ValueError(f"not a monomial: {self}")
        ((mono, coef),) = self.terms.items()
        return coef, mono

    # -- substitution and calculus -----------------------------------------

    def substitute(self, mapping: Mapping[Var, "Polynomial | Scalar"]) -> "Polynomial":
        """Substitute polynomials (or scalars) for variables; missing variables stay."""
        images = {v: Polynomial._coerce(img) for v, img in mapping.items()}
        out = Polynomial.zero()
        for mono, coef in self.terms.items():
            term = Polynomial.constant(coef)
            for v, e in mono:
                factor = images.get(v)
                if factor is None:
                    factor = Polynomial.var(v)
                term = term * factor**e
            out = out + term
        return out

    def evaluate(self, values: Mapping[Var, Scalar]) -> Fraction:
        """Evaluate at a total assignment of the variables that occur."""
        total = Fraction(0)
        for mono, coef in self.terms.items():
            acc = coef
            for v, e in mono:
                if v not in values:
                    raise ValueError(f"no value supplied for variable {v!r}")
                acc *= values[v] ** e
            total += acc
        return total

    def derivative(self, v: Var) -> "Polynomial":
        # distinct monomials have distinct derivatives, so nothing merges or cancels
        out: dict = {}
        for mono, coef in self.terms.items():
            for idx, (var, e) in enumerate(mono):
                if var == v:
                    out[mono[:idx] + ((var, e - 1),) * (e > 1) + mono[idx + 1 :]] = coef * e
                    break
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    # -- rendering -----------------------------------------------------------

    def _sorted_terms(self):
        all_vars = sorted(self.variables(), key=_var_key)
        index = {v: k for k, v in enumerate(all_vars)}

        def exps(mono):
            vec = [0] * len(all_vars)
            for v, e in mono:
                vec[index[v]] = e
            return tuple(vec)

        return sorted(
            self.terms.items(),
            key=lambda mc: (-sum(e for _, e in mc[0]), tuple(-e for e in exps(mc[0]))),
        )

    def _render(self, sep: str, coef_text: Callable[[Fraction], str], factor_text: Callable[[Var, int], str]) -> str:
        # the one term layout: the sign, then the coefficient unless it is 1, then the factors
        chunks = []
        for mono, coef in self._sorted_terms():
            mag, sign = abs(coef), "-" if coef < 0 else "+"
            factors = [factor_text(v, e) for v, e in mono]
            body = sep.join([coef_text(mag)] + factors if mag != 1 or not mono else factors)
            chunks.append(f" {sign} {body}" if chunks else ("-" if coef < 0 else "") + body)
        return "".join(chunks) or "0"

    def __str__(self):
        return self._render("*", str, _text_factor)

    def __repr__(self):
        return f"Polynomial({self})"

    def latex(self) -> str:
        return self._render("", _latex_coef, _latex_factor)


def _text_factor(v: Var, e: int) -> str:
    name = v if isinstance(v, str) else f"x[{v[0]},{v[1]}]"
    return name if e == 1 else f"{name}^{e}"


def _latex_coef(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else rf"\tfrac{{{c.numerator}}}{{{c.denominator}}}"


def _latex_factor(v: Var, e: int) -> str:
    if isinstance(v, str):
        name = v
    else:
        name = f"x_{{{v[0]}{v[1]}}}" if v[0] < 10 and v[1] < 10 else f"x_{{{v[0]},{v[1]}}}"
    return name if e == 1 else f"{name}^{{{e}}}"


def det_minor(m: MatrixPoint, rows: Iterable[int], cols: Iterable[int]) -> Polynomial:
    """Determinant of the submatrix of a polynomial matrix on the given rows and columns.

    Expands the minor by its first row.  Indices must be strictly ascending;
    this fixes the sign convention used throughout the package.  A minor of
    a rational matrix is ``det`` of its submatrix.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise ValueError(f"ragged index sets: {len(rows)} rows vs {len(cols)} columns")
    for seq in (rows, cols):
        if any(not 1 <= k <= m.n for k in seq):
            raise ValueError(f"indices out of range 1..{m.n}: {seq}")
        if any(x >= y for x, y in zip(seq, seq[1:])):
            raise ValueError(f"indices must be strictly ascending: {seq}")
    memo: dict = {}

    def go(rs: tuple, cs: tuple) -> Polynomial:
        if not rs:
            return Polynomial.one()
        key = (rs, cs)
        cached = memo.get(key)
        if cached is not None:
            return cached
        acc = Polynomial.zero()
        r0 = rs[0]
        for k, c in enumerate(cs):
            entry = m.get(r0, c)
            if entry.is_zero:
                continue
            sub = go(rs[1:], cs[:k] + cs[k + 1 :])
            term = entry * sub
            acc = acc + (term if k % 2 == 0 else -term)
        memo[key] = acc
        return acc

    return go(rows, cols)


def _eliminate(matrix: Sequence[Sequence[Scalar]]) -> tuple[int, Fraction]:
    """Fraction-free (Bareiss) elimination: the rank, and the determinant (0 unless square and regular).

    Each row is scaled to integers straight from its entries' ``numerator``
    and ``denominator`` (an ``int`` has both); no entry becomes a Fraction.
    """
    if not matrix or not matrix[0]:
        return 0, Fraction(0)
    rows = []
    scale = 1
    for row in matrix:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        rows.append([x.numerator * (mult // x.denominator) for x in row])
    nr, nc = len(rows), len(rows[0])
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
    # the last Bareiss pivot is the determinant of the scaled, row-swapped matrix
    return r, Fraction(sign * prev, scale) if r == nr == nc else Fraction(0)


def rank(matrix: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank over the rationals via fraction-free (Bareiss) elimination."""
    return _eliminate(matrix)[0]


def det(matrix: Sequence[Sequence[Scalar]]) -> Fraction:
    """Exact determinant of a square rational matrix, by the elimination of ``rank``."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError(f"determinant of a non-square matrix with {len(matrix)} rows")
    return _eliminate(matrix)[1] if matrix else Fraction(1)


@dataclass
class MatrixPoint:
    """An n x n exact matrix: rationals for points and group elements, polynomials for X."""

    n: int
    rows: list[list[Fraction | Polynomial]]

    @classmethod
    def zeros(cls, n: int) -> "MatrixPoint":
        return cls(n, [[Fraction(0)] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "MatrixPoint":
        return cls(n, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __mul__(self, other: "MatrixPoint") -> "MatrixPoint":
        """Matrix product; a product of two elements of one subclass stays in it."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        # only nonzero factors are multiplied; an entry without any is the zero of the ring
        entries = [x for m in (self, other) for row in m.rows for x in row]
        ring = Polynomial if any(isinstance(x, Polynomial) for x in entries) else Fraction
        cols = [{k: b for k, b in enumerate(col) if b != 0} for col in zip(*other.rows)]
        rows = [[(k, a) for k, a in enumerate(row) if a != 0] for row in self.rows]
        rows = [[sum((a * col[k] for k, a in row if k in col), ring()) for col in cols] for row in rows]
        return (type(self) if type(other) is type(self) else MatrixPoint)(self.n, rows)

    @classmethod
    def from_dict(cls, n: int, entries: Mapping[tuple, Scalar]) -> "MatrixPoint":
        point = cls.zeros(n)
        for (i, j), value in entries.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"entry ({i},{j}) out of range for n={n}")
            point.rows[i - 1][j - 1] = Fraction(value)
        return point

    def get(self, i: int, j: int) -> Fraction:
        return self.rows[i - 1][j - 1]

    def values(self, positions: Iterable[tuple]) -> dict[tuple, Fraction]:
        """The assignment {(i, j): entry} of the given positions, for Polynomial.evaluate."""
        return {tuple(r): self.get(*r) for r in positions}

    def support(self) -> set[tuple]:
        return {
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(self.n)
            if self.rows[i][j] != 0
        }

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [[i, j, str(self.get(i, j))] for (i, j) in sorted(self.support())],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "MatrixPoint":
        if not isinstance(doc, Mapping) or not {"n", "entries"} <= doc.keys():
            raise ValueError("a point document needs the keys 'n' and 'entries'")
        n, items = doc["n"], doc["entries"]
        if not _is_int(n) or not isinstance(items, list):
            raise ValueError(f"'n' must be an integer and 'entries' a list, got n={n!r} and a {type(items).__name__}")
        entries = {}
        for item in items:
            if not (isinstance(item, list) and len(item) == 3):
                raise ValueError(f"each entry must be a list [i, j, 'p/q'], got {item!r}")
            i, j, value = item
            if not (_is_int(i) and _is_int(j) and isinstance(value, str)):
                raise ValueError(f"each entry needs integer indices and an exact rational string, got {item!r}")
            if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
                raise ValueError(f"entry {item!r} is not an exact rational like '-3' or '3/4'")
            if (i, j) in entries:
                raise ValueError(f"duplicate entry for position ({i},{j})")
            try:
                entries[i, j] = Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"entry {item!r} has a zero denominator") from None
        return cls.from_dict(n, entries)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)
