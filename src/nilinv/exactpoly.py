"""Exact arithmetic substrate: rationals, sparse polynomials, matrices, rank.

Everything is computed over arbitrary-precision rationals
(fractions.Fraction); no floating point appears anywhere.  One scaler,
``scale_to_integers``, multiplies rows of ints and Fractions by the lcm L
of all their denominators; ``rank``, ``invgen.minors_at`` and
``orbitlab.orbit_dim`` eliminate the integer rows it returns.
``MatrixPoint`` is the one exact-matrix type.  Its entries are rationals
for nilradical points and unitriangular group elements (its subclass
``orbitlab.GroupElement``), and polynomials for the formal matrix of
variables.  Polynomial variables are matrix positions (i, j) plus named
parameters given as strings, with the one-parameter deformation variable
``t`` reserved for the group-action checks.

Canonical term order for printing: graded lexicographic with position
variables ordered by (i, j) and string parameters (t in particular) last.
``str`` and ``latex`` share one term layout and differ only in how a
coefficient and a factor are written.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence, Union

T = "t"  # the deformation parameter of one-parameter subgroup transforms
ZERO = Fraction(0)  # the zero of every rational point built here: points compare equal zeros by identity

Var = Union[tuple, str]
Scalar = Union[int, Fraction]


def _var_key(v: Var):
    # positions first (by row, column), named parameters after, t last of all
    if isinstance(v, str):
        return (1, v == T, v)
    return (0, False, (v[0], v[1]))


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    """The canonical product of two canonical monomials; a factor whose exponent reaches 0 is dropped."""
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    if not m2:
        return m1
    out = list(m1)
    for v, e in m2:  # each factor of the shorter goes into its place in the longer, adding a shared exponent
        k = bisect_left(out, _var_key(v), key=lambda f: _var_key(f[0]))
        if k < len(out) and out[k][0] == v:
            e += out.pop(k)[1]
        if e:
            out.insert(k, (v, e))
    return tuple(out)


def _collect(pairs: Iterable[tuple], into: dict | None = None) -> dict:
    """Add (monomial, nonzero coefficient) pairs into a term dict; a term that cancels is dropped."""
    out = {} if into is None else into
    for mono, coef in pairs:
        old = out.get(mono)
        if old is None:
            out[mono] = coef
        elif acc := old + coef:
            out[mono] = acc
        else:
            del out[mono]
    return out


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms are stored as a dict from monomial (a sorted tuple of
    (variable, exponent) pairs) to a nonzero Fraction.  Instances are
    treated as immutable; all operations build new polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        # a zero coefficient is dropped before its monomial is made canonical: most coerced scalars are 0
        canon = lambda mono: reduce(_mono_mul, (((v, e),) for v, e in mono if e), ())
        pairs = ((canon(mono), Fraction(coef)) for mono, coef in terms.items() if coef) if terms else ()
        self.terms = _collect(pairs)

    @classmethod
    def _wrap(cls, terms: dict) -> "Polynomial":
        # a dict that is already canonical: canonical monomials, nonzero Fraction coefficients
        p = cls.__new__(cls)
        p.terms = terms
        return p

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
        return Polynomial._wrap(_collect(other.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Polynomial._coerce(other))

    def __rsub__(self, other):
        return Polynomial._coerce(other) + (-self)

    def __mul__(self, other):
        other = Polynomial._coerce(other)
        pairs = ((_mono_mul(m1, m2), c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in other.terms.items())
        return Polynomial._wrap(_collect(pairs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return reduce(mul, [self] * k, Polynomial.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def variables(self) -> set:
        return {v for mono in self.terms for v, _ in mono}

    # -- substitution and calculus -----------------------------------------

    def substitute(self, mapping: Mapping[Var, "Polynomial | Scalar"]) -> "Polynomial":
        """Substitute polynomials (or scalars) for variables; missing variables stay."""
        images = {v: Polynomial._coerce(img) for v, img in mapping.items()}
        out: dict = {}
        for mono, coef in self.terms.items():
            term = Polynomial.constant(coef)
            for v, e in mono:
                term = term * (images[v] if v in images else Polynomial.var(v)) ** e
            _collect(term.terms.items(), out)
        return Polynomial._wrap(out)

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

    def derive(self, images: Mapping[Var, "Polynomial | Scalar"]) -> "Polynomial":
        """The derivation sum_v df/dv * images[v]; a variable without an image is a constant of it."""
        images = {v: Polynomial._coerce(img).terms for v, img in images.items()}

        def pairs():
            for mono, coef in self.terms.items():
                for idx, (v, e) in enumerate(mono):
                    image = images.get(v)
                    if image:
                        rest = mono[:idx] + ((v, e - 1),) * (e > 1) + mono[idx + 1 :]
                        c = coef * e if e > 1 else coef
                        for m2, c2 in image.items():  # most coefficients are 1 or -1: no Fraction product
                            yield _mono_mul(rest, m2), c if c2 == 1 else -c if c2 == -1 else c * c2

        return Polynomial._wrap(_collect(pairs()))

    def derivative(self, v: Var) -> "Polynomial":
        return self.derive({v: 1})

    # -- rendering -----------------------------------------------------------

    def _sorted_terms(self):
        # graded lex read off each monomial's own sorted factors: at the first factor where
        # two monomials of one degree differ, the earlier variable or the larger exponent leads
        return sorted(self.terms.items(), key=lambda mc: (-sum(e for _, e in mc[0]), [(_var_key(v), -e) for v, e in mc[0]]))

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
    this fixes the sign convention used throughout the package.  Minors of
    a rational point are read from ``invgen.minors_at``.
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
    # the memo is local and the expansion is not a closure over itself, so every sub-minor is freed on return
    return _expand_minor(m, rows, cols, {})


def _expand_minor(m: MatrixPoint, rs: tuple, cs: tuple, memo: dict) -> Polynomial:
    if not rs:
        return Polynomial.one()
    cached = memo.get((rs, cs))
    if cached is not None:
        return cached
    acc: dict = {}
    for k, c in enumerate(cs):
        entry = m.get(rs[0], c)
        if entry:
            sub = _expand_minor(m, rs[1:], cs[:k] + cs[k + 1 :], memo)
            _collect(((entry if k % 2 == 0 else -entry) * sub).terms.items(), acc)
    memo[rs, cs] = minor = Polynomial._wrap(acc)
    return minor


def _eliminate(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of integer rows, in place: the rank, and the determinant (0 unless square and regular).

    A step updates only the rows with a nonzero pivot-column entry.  Bareiss
    would scale each other row by P[r+1]/P[r] at step r, with pivots P and
    P[0] = 1.  These factors telescope, so a row last updated before step s
    is lifted by the exact x * P[r] // P[s] when next touched.  Rows, pivots
    and the determinant are the Bareiss values.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    last = [1] * nr  # P[s] for the step s before which each row was last updated
    prev = 1
    r = 0
    sign = 1
    for c in range(nc):
        pivot_row = r if r < nr and rows[r][c] else next((p for p in range(r + 1, nr) if rows[p][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            last[r], last[pivot_row] = last[pivot_row], last[r]
            sign = -sign
        top = rows[r]
        if last[r] != prev:
            top[c:] = [x * prev // last[r] for x in top[c:]]
        pivot = top[c]
        for p in range(r + 1, nr):
            row = rows[p]
            if factor := row[c]:
                if last[p] != prev:
                    row[c:] = [x * prev // last[p] for x in row[c:]]
                    factor = row[c]
                for q in range(c + 1, nc):
                    row[q] = (row[q] * pivot - factor * top[q]) // prev
                row[c] = 0
                last[p] = pivot
        prev = pivot
        r += 1
    # the last Bareiss pivot is the determinant of the row-swapped matrix
    return r, sign * prev if r == nr == nc else 0


def scale_to_integers(matrix: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """Rows of ints and Fractions times the lcm L of all their denominators, as ints, and L."""
    scale = lcm(*(v.denominator for row in matrix for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in matrix], scale


def rank(matrix: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank over the rationals via fraction-free (Bareiss) elimination; ragged rows raise ValueError."""
    if len(widths := {len(row) for row in matrix}) > 1:
        raise ValueError(f"ragged rows of lengths {sorted(widths)}")
    return _eliminate(scale_to_integers(matrix)[0])[0]


@dataclass
class MatrixPoint:
    """An n x n exact matrix: rationals for points and group elements, polynomials for X."""

    n: int
    rows: list[list[Fraction | Polynomial]]

    @classmethod
    def zeros(cls, n: int) -> "MatrixPoint":
        return cls(n, [[ZERO] * n for _ in range(n)])

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

    def support(self) -> set[tuple]:
        return {(i, j) for i, row in enumerate(self.rows, 1) for j, v in enumerate(row, 1) if v}

    def to_json_dict(self) -> dict:
        # row-major order is the sorted order of the positions
        entries = [[i, j, str(v)] for i, row in enumerate(self.rows, 1) for j, v in enumerate(row, 1) if v]
        return {"n": self.n, "entries": entries}

    @classmethod
    def from_json_dict(cls, doc: Mapping, size: int | None = None) -> "MatrixPoint":
        """Parse a point document; an 'n' other than ``size`` is rejected before any matrix is built."""
        if not isinstance(doc, Mapping) or not {"n", "entries"} <= doc.keys():
            raise ValueError("a point document needs the keys 'n' and 'entries'")
        n, items = doc["n"], doc["entries"]
        if not _is_int(n) or not isinstance(items, list):
            raise ValueError(f"'n' must be an integer and 'entries' a list, got n={n!r} and a {type(items).__name__}")
        if size is not None and n != size:
            raise ValueError(f"point size {n} != type size {size}")
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
