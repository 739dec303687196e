"""Root and block combinatorics for parabolic subalgebras of gl(n).

A parabolic subalgebra of gl(n) containing the upper-triangular Borel is
described by an ordered composition (n_1, ..., n_s) of n: the sizes of the
diagonal blocks of its reductive part.  Positive roots are index pairs
(i, j) with i < j; the nilradical corresponds to the pairs whose row and
column lie in different diagonal blocks.

This module builds the distinguished antichain of nilradical roots (the
"base"), the admissible pairs linking two base roots through a reductive
root, the marked sets Phi/Psi they generate, dimension bookkeeping, and
text/LaTeX/JSON diagram renderings of all of the above.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple


class Root(NamedTuple):
    """A positive root of gl(n): the pair (i, j), i < j, i.e. the weight e_i - e_j."""

    i: int
    j: int

    def __str__(self):
        return f"({self.i},{self.j})"


@dataclass(frozen=True)
class ParabolicType:
    """Ordered composition (n_1, ..., n_s) of n fixing the diagonal block sizes."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(x) for x in self.block_sizes)
        if len(sizes) < 1 or any(x < 1 for x in sizes):
            raise ValueError(f"block sizes must be positive integers, got {sizes!r}")
        object.__setattr__(self, "block_sizes", sizes)

    @classmethod
    def from_string(cls, text: str) -> "ParabolicType":
        """Parse a comma-separated list of block sizes, e.g. '2,4,2'."""
        try:
            sizes = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse block sizes from {text!r}")
        return cls(sizes)

    @cached_property
    def n(self) -> int:
        return sum(self.block_sizes)

    @property
    def s(self) -> int:
        return len(self.block_sizes)

    @cached_property
    def _block_starts(self) -> tuple[int, ...]:
        starts = [1]
        for size in self.block_sizes:
            starts.append(starts[-1] + size)
        return tuple(starts)

    def block_of(self, k: int) -> int:
        """1-based index of the diagonal block containing row/column k."""
        if not 1 <= k <= self.n:
            raise ValueError(f"index {k} out of range 1..{self.n}")
        return bisect_right(self._block_starts, k)

    def block_start(self, a: int) -> int:
        return self._block_starts[a - 1]

    def block_end(self, a: int) -> int:
        return self._block_starts[a] - 1

    def block_range(self, a: int) -> range:
        """Row/column indices of diagonal block a (1-based, inclusive)."""
        return range(self.block_start(a), self.block_end(a) + 1)

    @property
    def is_nonincreasing(self) -> bool:
        return all(x >= y for x, y in zip(self.block_sizes, self.block_sizes[1:]))

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.block_sizes) + ")"


def is_covered(ptype: ParabolicType) -> bool:
    """Whether the canonical-reduction theory applies: non-increasing sizes or s <= 3."""
    return ptype.is_nonincreasing or ptype.s <= 3


class AdmissiblePair(NamedTuple):
    """Two base roots xi=(a,b), xi'=(a',b') chained through alpha=(b,a') in one block.

    phi = alpha + xi' = (b, b') and psi = xi + alpha = (a, a') are the two
    marked roots the pair can contribute.
    """

    xi: Root
    xi_prime: Root
    alpha: Root
    phi: Root
    psi: Root

    def to_json_dict(self) -> dict:
        return {name: list(root) for name, root in self._asdict().items()}


@dataclass(frozen=True)
class Base:
    """The distinguished antichain of nilradical roots, one per used row and column."""

    roots: tuple[Root, ...]  # sorted by row index
    ptype: ParabolicType

    def by_column(self) -> tuple[Root, ...]:
        return tuple(sorted(self.roots, key=lambda r: r.j))

    @cached_property
    def root_in_column(self) -> dict[int, Root]:
        return {r.j: r for r in self.roots}

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)


def nilradical_roots(ptype: ParabolicType) -> frozenset[Root]:
    """All positions (i, j) whose row and column lie in different blocks."""
    out = []
    for i in range(1, ptype.n + 1):
        bi = ptype.block_of(i)
        for j in range(ptype.block_end(bi) + 1, ptype.n + 1):
            out.append(Root(i, j))
    return frozenset(out)


def reductive_roots(ptype: ParabolicType) -> frozenset[Root]:
    """Positive roots (i, j) with both indices in one diagonal block."""
    out = []
    for a in range(1, ptype.s + 1):
        block = list(ptype.block_range(a))
        for x in range(len(block)):
            for y in range(x + 1, len(block)):
                out.append(Root(block[x], block[y]))
    return frozenset(out)


def higher(ptype: ParabolicType, g1: Root, g2: Root) -> bool:
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


def compute_base(ptype: ParabolicType) -> Base:
    """Greedy staircase construction of the base.

    For block distance d = 1, 2, ... and each block pair (a, a+d), pair the
    k-th lowest still-unused row of block a with the k-th leftmost
    still-unused column of block a+d.  Each row and column is used at most
    once, which makes the result an antichain.
    """
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    roots: list[Root] = []
    for d in range(1, ptype.s):
        for a in range(1, ptype.s - d + 1):
            b = a + d
            free_rows = [r for r in ptype.block_range(a) if r not in used_rows]
            free_cols = [c for c in ptype.block_range(b) if c not in used_cols]
            for k in range(min(len(free_rows), len(free_cols))):
                r = free_rows[-1 - k]
                c = free_cols[k]
                roots.append(Root(r, c))
                used_rows.add(r)
                used_cols.add(c)
    return Base(tuple(sorted(roots)), ptype)


def admissible_pairs(ptype: ParabolicType, base: Base | None = None) -> tuple[AdmissiblePair, ...]:
    """All pairs (xi, xi') of base roots with xi.j < xi'.i inside one block."""
    if base is None:
        base = compute_base(ptype)
    pairs = []
    for xi in base.roots:
        for xi2 in base.roots:
            b, a2 = xi.j, xi2.i
            if b < a2 and ptype.block_of(b) == ptype.block_of(a2):
                pairs.append(
                    AdmissiblePair(
                        xi=xi,
                        xi_prime=xi2,
                        alpha=Root(b, a2),
                        phi=Root(b, xi2.j),
                        psi=Root(xi.i, a2),
                    )
                )
    pairs.sort(key=lambda q: (q.xi, q.xi_prime))
    return tuple(pairs)


def phi_set(pairs: Iterable[AdmissiblePair]) -> frozenset[Root]:
    return frozenset(q.phi for q in pairs)


def psi_set(pairs: Iterable[AdmissiblePair]) -> frozenset[Root]:
    return frozenset(q.psi for q in pairs)


def s_gamma(base: Base, gamma: Root) -> list[Root]:
    """Base roots strictly inside gamma = (a, b): row > a and column < b."""
    a, b = Root(*gamma)
    return sorted(r for r in base.roots if r.i > a and r.j < b)


@dataclass(frozen=True)
class Dims:
    """Dimension bookkeeping for one parabolic type."""

    dim_m: int
    base_size: int
    pair_count: int
    phi_count: int
    predicted_regular_orbit_dim: int
    y_dim: int

    @property
    def consistent(self) -> bool:
        return self.predicted_regular_orbit_dim + self.y_dim == self.dim_m

    def to_dict(self) -> dict:
        return {
            "dim_m": self.dim_m,
            "base_size": self.base_size,
            "pair_count": self.pair_count,
            "phi_count": self.phi_count,
            "predicted_regular_orbit_dim": self.predicted_regular_orbit_dim,
            "y_dim": self.y_dim,
            "consistent": self.consistent,
        }


def dims(ptype: ParabolicType) -> Dims:
    sizes = ptype.block_sizes
    dim_m = sum(
        sizes[a] * sizes[b] for a in range(len(sizes)) for b in range(a + 1, len(sizes))
    )
    base = compute_base(ptype)
    pairs = admissible_pairs(ptype, base)
    phi = phi_set(pairs)
    return Dims(
        dim_m=dim_m,
        base_size=len(base),
        pair_count=len(pairs),
        phi_count=len(phi),
        predicted_regular_orbit_dim=dim_m - len(base) - len(pairs),
        y_dim=len(base) + len(phi),
    )


DIAGRAM_FORMATS = ("text", "latex", "json")


def diagram_dict(ptype: ParabolicType, marked: str = "phi", offset: int = 0) -> dict:
    """JSON-ready description of the diagram: {n, blocks, base, phi}.

    `offset` embeds the type into a grid with `offset` leading blank rows
    and columns (used to draw a subtype inside a bigger matrix).
    """
    if marked not in ("phi", "psi"):
        raise ValueError(f"marked set must be 'phi' or 'psi', got {marked!r}")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    base = compute_base(ptype)
    pairs = admissible_pairs(ptype, base)
    marks = phi_set(pairs) if marked == "phi" else psi_set(pairs)
    shift = lambda r: [r.i + offset, r.j + offset]
    return {
        "n": ptype.n + offset,
        "offset": offset,
        "blocks": list(ptype.block_sizes),
        "marked": marked,
        "base": [shift(r) for r in base.by_column()],
        "phi": [shift(r) for r in sorted(marks)],
    }


def _diagram_cells(doc: dict):
    n, offset = doc["n"], doc["offset"]
    base = {tuple(r) for r in doc["base"]}
    marks = {tuple(r) for r in doc["phi"]}
    cells = [["" for _ in range(n)] for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) in base:
                cells[i - 1][j - 1] = "⊗"
            elif (i, j) in marks:
                cells[i - 1][j - 1] = "×"
            elif i == j and i > offset:
                cells[i - 1][j - 1] = "1"
    boundaries = {offset} if offset else set()
    acc = offset
    for size in doc["blocks"]:
        acc += size
        boundaries.add(acc)
    return n, cells, boundaries


def render_diagram(ptype: ParabolicType, fmt: str = "text", marked: str = "phi", offset: int = 0) -> str:
    """Render the diagram with base roots as ⊗ and marked roots as ×."""
    if fmt not in DIAGRAM_FORMATS:
        raise ValueError(f"unknown diagram format {fmt!r}; expected one of {DIAGRAM_FORMATS}")
    doc = diagram_dict(ptype, marked, offset)
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2)

    n, cells, boundaries = _diagram_cells(doc)
    if fmt == "text":
        lines = ["    " + " ".join(f"{j:>2}" for j in range(1, n + 1))]
        rule = "   +" + "".join("---" + ("+" if j in boundaries else "") for j in range(1, n + 1))
        lines.append(rule)
        for i in range(1, n + 1):
            row = [f"{i:>2} |"]
            for j in range(1, n + 1):
                sym = cells[i - 1][j - 1] or "·"
                row.append(f" {sym} " + ("|" if j in boundaries else ""))
            lines.append("".join(row))
            if i in boundaries:
                lines.append(rule)
        if n not in boundaries:
            lines.append(rule)
        return "\n".join(line.rstrip() for line in lines) + "\n"

    # latex
    colspec = "|"
    groups = ([offset] if offset else []) + list(ptype.block_sizes)
    for size in groups:
        colspec += "c" * size + "|"
    tex_sym = {"⊗": r"$\otimes$", "×": r"$\times$", "1": "1", "": ""}
    lines = [rf"\begin{{tabular}}{{{colspec}}}", r"\hline"]
    for i in range(1, n + 1):
        row = " & ".join(tex_sym[cells[i - 1][j - 1]] for j in range(1, n + 1))
        lines.append(row + r" \\")
        if i in boundaries:
            lines.append(r"\hline")
    if n not in boundaries:
        lines.append(r"\hline")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"
