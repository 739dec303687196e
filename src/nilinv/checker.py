"""Verification engines.

Symbolic invariance of polynomials under every one-parameter unitriangular
subgroup, algebraic independence via exact Jacobian rank at random rational
points, weight-system coranks, and the full (2,4,2) case study (the
quadratic identity among the pair polynomials, the extra invariant D, and
the evaluation table on the parameter family Y_{a,b,c}).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .exactpoly import Polynomial, T, rank
from .invgen import CASE_242, build_generators, l_poly, minor_poly, power_minor
from .orbitlab import DEFAULT_SEED, sample_point
from .rootcomb import (
    AdmissiblePair,
    ParabolicType,
    Root,
    admissible_pairs,
    compute_base,
    nilradical_roots,
    phi_set,
)

INDEPENDENCE_RETRIES = 5


def one_param_transform(ptype: ParabolicType, k: int, f: Polynomial) -> Polynomial:
    """Action of g_k(t) = 1 + t E_{k,k+1} on a polynomial in the matrix entries.

    Substitutes each x_(i,j) by the (i,j) entry of (1 - tE) X (1 + tE):
    row k receives -t times row k+1 and column k+1 receives +t times
    column k.  The transformed matrix stays supported on the nilradical.
    """
    if not 1 <= k < ptype.n:
        raise ValueError(f"k must satisfy 1 <= k < {ptype.n}, got {k}")
    positions = nilradical_roots(ptype)
    bad = [v for v in f.variables() if isinstance(v, str) and v != T or not isinstance(v, str) and Root(*v) not in positions]
    if bad:
        raise ValueError(f"polynomial not supported on nilradical variables: {bad}")
    t = Polynomial.var(T)
    mapping = {}
    for v in f.variables():
        if isinstance(v, str):
            continue
        i, j = v
        image = Polynomial.var(v)
        if i == k and Root(k + 1, j) in positions:
            image = image - t * Polynomial.var((k + 1, j))
        if j == k + 1 and Root(i, k) in positions:
            image = image + t * Polynomial.var((i, k))
        mapping[v] = image
    return f.substitute(mapping)


def is_n_invariant(ptype: ParabolicType, f: Polynomial) -> bool:
    """Whether f is fixed by every one-parameter subgroup g_k(t), k = 1..n-1."""
    return all(invariance_table(ptype, f))


def invariance_table(ptype: ParabolicType, f: Polynomial) -> list[bool]:
    """Per-k invariance results, indexed by k = 1..n-1."""
    return [one_param_transform(ptype, k, f) == f for k in range(1, ptype.n)]


def jacobian_rank_at(ptype: ParabolicType, polys: Sequence[Polynomial], assignment: dict) -> int:
    variables = sorted(nilradical_roots(ptype))
    matrix = [
        [p.derivative(tuple(v)).evaluate(assignment) for v in variables]
        for p in polys
    ]
    return rank(matrix)


@dataclass
class IndependenceResult:
    rank: int
    expected: int
    seed: int
    attempts: int

    @property
    def independent(self) -> bool:
        return self.rank == self.expected

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "expected": self.expected,
            "seed": self.seed,
            "attempts": self.attempts,
            "independent": self.independent,
            "note": None
            if self.independent
            else "dependent or unlucky (failure probability bounded by Schwartz-Zippel)",
        }


def independence_details(
    ptype: ParabolicType,
    polys: Sequence[Polynomial],
    seed: int = DEFAULT_SEED,
    retries: int = INDEPENDENCE_RETRIES,
) -> IndependenceResult:
    """Best Jacobian rank over a few random rational points with a fixed seed."""
    if not polys:
        raise ValueError("need at least one polynomial")
    rng = random.Random(seed)
    positions = nilradical_roots(ptype)
    best = 0
    attempts = 0
    for _ in range(retries):
        attempts += 1
        best = max(best, jacobian_rank_at(ptype, polys, sample_point(ptype, rng).values(positions)))
        if best == len(polys):
            break
    return IndependenceResult(rank=best, expected=len(polys), seed=seed, attempts=attempts)


def root_weight_matrix(roots: Iterable[Root], n: int) -> list[list[int]]:
    """Rows are the weight vectors e_i - e_j of the given roots."""
    out = []
    for r in roots:
        row = [0] * n
        row[r.i - 1] = 1
        row[r.j - 1] = -1
        out.append(row)
    return out


def corank_of_roots(roots: Iterable[Root], n: int) -> int:
    roots = list(roots)
    if not roots:
        return 0
    return len(roots) - rank(root_weight_matrix(roots, n))


def weight_corank(pairs: Iterable[AdmissiblePair], n: int) -> int:
    """Number of linking roots alpha_q minus the rank of their weight span."""
    return corank_of_roots([q.alpha for q in pairs], n)


@dataclass
class VerificationReport:
    """All checks for one type: invariance, independence, corank bookkeeping."""

    ptype: ParabolicType
    seed: int
    invariance: dict[str, list[bool]]  # generator name -> per-k results
    independence: IndependenceResult
    corank_alpha: int
    corank_s_phi: int
    trdeg_field_n: int  # |S| + |Q|
    trdeg_field_b_claimed: int  # = corank_alpha
    flags: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if not self.flags:
            self.flags = {
                "invariance": all(all(v) for v in self.invariance.values()),
                "independence": self.independence.independent,
                "corank_bookkeeping": self.corank_alpha == self.corank_s_phi,
            }

    @property
    def passed(self) -> bool:
        return all(self.flags.values())

    def to_json_dict(self) -> dict:
        return {
            "type": list(self.ptype.block_sizes),
            "seed": self.seed,
            "invariance": {name: results for name, results in sorted(self.invariance.items())},
            "independence": self.independence.to_dict(),
            "corank": {
                "alpha": self.corank_alpha,
                "s_phi": self.corank_s_phi,
                "consistent": self.corank_alpha == self.corank_s_phi,
            },
            "trdeg": {
                "field_n": self.trdeg_field_n,
                "field_b_claimed": self.trdeg_field_b_claimed,
                "field_b_lattice": self.corank_s_phi,
            },
            "flags": dict(sorted(self.flags.items())),
            "passed": self.passed,
        }


def verify_type(ptype: ParabolicType, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Run the full battery of checks for one type."""
    gens = build_generators(ptype)
    invariance = {name: invariance_table(ptype, p) for name, p in gens.named()}
    core = gens.core_polys()
    if core:
        independence = independence_details(ptype, core, seed)
    else:
        independence = IndependenceResult(rank=0, expected=0, seed=seed, attempts=0)
    pairs = gens.pairs
    s_phi = list(gens.base.roots) + sorted(phi_set(pairs))
    corank_alpha = weight_corank(pairs, ptype.n)
    return VerificationReport(
        ptype=ptype,
        seed=seed,
        invariance=invariance,
        independence=independence,
        corank_alpha=corank_alpha,
        corank_s_phi=corank_of_roots(s_phi, ptype.n),
        trdeg_field_n=len(gens.base) + len(pairs),
        trdeg_field_b_claimed=corank_alpha,
    )


# -- the (2,4,2) case study -------------------------------------------------

# the parameter family Y_{a,b,c}: entries of an 8x8 matrix in terms of the
# free parameters a1, a2, b1, b2, c11, c12, c21, c22
Y_FAMILY_ENTRIES = {
    (1, 3): "a1",
    (2, 4): "a2",
    (3, 7): "c11",
    (3, 8): "c12",
    (4, 7): "c21",
    (4, 8): "c22",
    (5, 8): "b2",
    (6, 7): "b1",
}


def y_family_map() -> dict:
    """Substitution sending each (2,4,2) matrix variable to its Y-family value."""
    mapping = {}
    for r in nilradical_roots(CASE_242):
        name = Y_FAMILY_ENTRIES.get(tuple(r))
        mapping[tuple(r)] = Polynomial.var(name) if name else Polynomial.zero()
    return mapping


def _expected_y_table() -> dict[str, Polynomial]:
    a1, a2, b1, b2 = map(Polynomial.var, ("a1", "a2", "b1", "b2"))
    c11, c12, c21, c22 = map(Polynomial.var, ("c11", "c12", "c21", "c22"))
    return {
        "M1": Polynomial.zero(),
        "M2": -a1 * a2,
        "N1": b1,
        "N2": b1 * b2,
        "L11": a2 * c21,
        "L12": -a2 * b1 * c22,
        "L21": -a1 * a2 * c21,
        "L22": a1 * a2 * b1 * c22,
        "D": a1 * a2 * (c11 * c22 - c12 * c21),
    }


def case242_generators() -> dict[str, Polynomial]:
    """The nine named generators of the (2,4,2) study.

    L_ij is attached to the pair (alpha_i, beta_j) where alpha_1=(2,3),
    alpha_2=(1,4) are the first-strip base roots and beta_1=(6,7),
    beta_2=(5,8) the second-strip ones.
    """
    ptype = CASE_242
    base = compute_base(ptype)
    alphas = [Root(2, 3), Root(1, 4)]
    betas = [Root(6, 7), Root(5, 8)]
    by_key = {(q.xi, q.xi_prime): q for q in admissible_pairs(ptype, base)}
    gens = {
        "M1": minor_poly(ptype, base, alphas[0]),
        "M2": minor_poly(ptype, base, alphas[1]),
        "N1": minor_poly(ptype, base, betas[0]),
        "N2": minor_poly(ptype, base, betas[1]),
    }
    for i in (1, 2):
        for j in (1, 2):
            gens[f"L{i}{j}"] = l_poly(ptype, base, by_key[(alphas[i - 1], betas[j - 1])])
    gens["D"] = power_minor(ptype, 2, (1, 2), (7, 8))
    return gens


@dataclass
class Case242Report:
    """Results of the (2,4,2) study: identity, invariance of D, Y-table, rank."""

    seed: int
    identity_holds: bool
    identity_sign: int | None  # L12*L21 - L11*L22 == sign * M1*N1*D
    d_invariant: bool
    table: list[dict]  # per generator: name, computed, expected, sign
    table_ok: bool
    l11_sign_exact: bool
    d_sign_exact: bool
    nine_generator_rank: int

    @property
    def passed(self) -> bool:
        return (
            self.identity_holds
            and self.d_invariant
            and self.table_ok
            and self.l11_sign_exact
            and self.d_sign_exact
            and self.nine_generator_rank == 8
        )

    def to_json_dict(self) -> dict:
        return {
            "type": [2, 4, 2],
            "seed": self.seed,
            "identity": {"holds": self.identity_holds, "sign": self.identity_sign},
            "d_invariant": self.d_invariant,
            "y_table": self.table,
            "table_ok": self.table_ok,
            "l11_sign_exact": self.l11_sign_exact,
            "d_sign_exact": self.d_sign_exact,
            "nine_generator_rank": self.nine_generator_rank,
            "passed": self.passed,
        }


def case242_report(seed: int = DEFAULT_SEED) -> Case242Report:
    gens = case242_generators()

    lhs = gens["L12"] * gens["L21"] - gens["L11"] * gens["L22"]
    rhs = gens["M1"] * gens["N1"] * gens["D"]
    if lhs == rhs:
        identity_holds, identity_sign = True, 1
    elif lhs == -rhs:
        identity_holds, identity_sign = True, -1
    else:
        identity_holds, identity_sign = False, None

    d_invariant = is_n_invariant(CASE_242, gens["D"])

    y_map = y_family_map()
    expected = _expected_y_table()
    table = []
    table_ok = True
    signs: dict[str, int | None] = {}
    for name in ("M1", "M2", "N1", "N2", "L11", "L12", "L21", "L22", "D"):
        computed = gens[name].substitute(y_map)
        want = expected[name]
        if computed == want:
            sign = 1
        elif computed == -want:
            sign = -1
        else:
            sign = None
            table_ok = False
        signs[name] = sign
        table.append(
            {
                "name": name,
                "computed": str(computed),
                "expected": str(want),
                "sign": sign,
            }
        )

    nine = list(gens.values())
    nine_rank = independence_details(CASE_242, nine, seed).rank

    return Case242Report(
        seed=seed,
        identity_holds=identity_holds,
        identity_sign=identity_sign,
        d_invariant=d_invariant,
        table=table,
        table_ok=table_ok,
        l11_sign_exact=signs.get("L11") == 1,
        d_sign_exact=signs.get("D") == 1,
        nine_generator_rank=nine_rank,
    )
