"""Verification engines.

Invariance under every one-parameter unitriangular subgroup, proved on the
index sets of the generators' forms, one pass per form with nothing expanded,
by ``invgen.check_invariance``, which raises on a form the proof leaves open,
algebraic independence via the exact rank at random rational points of the
Jacobian read by cofactors off the forms, weight-system coranks, and the
full (2,4,2) case study, returned as its JSON document (the quadratic
identity among the pair polynomials, the extra invariant D, and the
evaluation table on the parameter family Y_{a,b,c}).
``one_param_transform`` is the symbolic t-substitution of an expanded
polynomial, the reference the tests hold the proof against.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import count
from typing import Iterable, Sequence

from .exactpoly import MatrixPoint, Polynomial, T, rank
from .invgen import CASE_242, Form, build_generators, check_invariance, expand, formal_matrix, jacobian_row, minors_at
from .orbitlab import DEFAULT_SEED, bracket, sample_point
from .rootcomb import AdmissiblePair, ParabolicType, Root, nilradical_columns, nilradical_roots

INDEPENDENCE_RETRIES = 5


def derivation(ptype: ParabolicType, k: int) -> tuple[frozenset[Root], dict[Root, Polynomial]]:
    """The nilradical positions and D_k on them: x_v -> delta_k(x_v), for each x_v it does not kill."""
    if not 1 <= k < ptype.n:
        raise ValueError(f"k must satisfy 1 <= k < {ptype.n}, got {k}")
    delta = {Root(*r): -d for r, d in bracket(k, k + 1, formal_matrix(ptype)).items() if d != 0}
    return nilradical_roots(ptype), delta


def one_param_transform(ptype: ParabolicType, k: int, f: Polynomial) -> Polynomial:
    """Action of g_k(t) = 1 + t E_{k,k+1} on a polynomial in the matrix entries.

    On the nilradical (1 - tE) X (1 + tE) = X + t delta_k(X) with
    delta_k(X) = -[E_{k,k+1}, X], and delta_k kills every variable it
    reaches.  So the substitution is exp(t D_k) for the locally nilpotent
    derivation D_k f = sum_v df/dx_v delta_k(x_v), D_k t = 0: the finite
    series sum_m t^m/m! D_k^m f, which is f itself exactly when D_k f = 0.
    """
    positions, delta = derivation(ptype, k)
    bad = [v for v in f.variables() if isinstance(v, str) and v != T or not isinstance(v, str) and Root(*v) not in positions]
    if bad:
        raise ValueError(f"polynomial not supported on nilradical variables: {bad}")
    out = term = f
    for m in count(1):
        # t^m/m! D_k^m f from the previous term, as D_k t = 0
        term = term.derive(delta) * (Polynomial.var(T) * Fraction(1, m))
        if not term:
            return out
        out = out + term


def jacobian_rank_at(ptype: ParabolicType, forms: Sequence[Form], point: MatrixPoint) -> int:
    """The rank of the Jacobian at a point: one cofactor row per form, one column per nilradical position."""
    minor, column = minors_at(point), nilradical_columns(ptype)
    return rank([jacobian_row(form, minor, column) for form in forms])


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
        note = None if self.independent else "dependent or unlucky (failure probability bounded by Schwartz-Zippel)"
        return {**asdict(self), "independent": self.independent, "note": note}


def independence_details(ptype: ParabolicType, forms: Sequence[Form], seed: int = DEFAULT_SEED) -> IndependenceResult:
    """Best Jacobian rank of the forms over a few random rational points with a fixed seed; nothing is expanded."""
    if not forms:
        raise ValueError("need at least one form")
    rng = random.Random(seed)
    best = 0
    for attempts in range(1, INDEPENDENCE_RETRIES + 1):
        best = max(best, jacobian_rank_at(ptype, forms, sample_point(ptype, rng)))
        if best == len(forms):
            break
    return IndependenceResult(rank=best, expected=len(forms), seed=seed, attempts=attempts)


def corank_of_roots(roots: Iterable[Root], n: int) -> int:
    """The number of roots minus the rank of their weight vectors e_i - e_j."""
    rows = [[(k == r.i) - (k == r.j) for k in range(1, n + 1)] for r in roots]
    return len(rows) - rank(rows)


def weight_corank(pairs: Iterable[AdmissiblePair], n: int) -> int:
    """Number of linking roots alpha_q minus the rank of their weight span."""
    return corank_of_roots([q.alpha for q in pairs], n)


class VerificationReport(dict):
    """The JSON document of ``verify_type``; ``to_json_dict`` returns it as it is."""

    def to_json_dict(self) -> dict:
        return self


def verify_type(ptype: ParabolicType, seed: int = DEFAULT_SEED) -> VerificationReport:
    """All checks for one type, as its JSON document: invariance (proved by ``check_invariance`` or refused), independence, corank bookkeeping."""
    gens = build_generators(ptype)
    check_invariance(ptype, gens.forms)
    core = gens.core_forms()
    independence = independence_details(ptype, core, seed) if core else IndependenceResult(0, 0, seed, 0)
    alpha, s_phi = weight_corank(gens.pairs, ptype.n), corank_of_roots(gens.slice, ptype.n)
    consistent = alpha == s_phi
    flags = {"invariance": True, "independence": independence.independent, "corank_bookkeeping": consistent}
    return VerificationReport(
        type=list(ptype.block_sizes),
        seed=seed,
        invariance={name: [True] * (ptype.n - 1) for name in sorted(name for name, _ in gens.forms)},
        independence=independence.to_dict(),
        corank={"alpha": alpha, "s_phi": s_phi, "consistent": consistent},
        trdeg={"field_n": independence.expected, "field_b_claimed": alpha, "field_b_lattice": s_phi},  # field_n = |S| + |Q|
        flags=flags,
        passed=all(flags.values()),
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


# the study's names: alpha_1=(2,3), alpha_2=(1,4), beta_1=(6,7), beta_2=(5,8); L_ij belongs to (alpha_i, beta_j)
CASE242_NAMES = {
    "M1": "M[2,3]", "M2": "M[1,4]", "N1": "M[6,7]", "N2": "M[5,8]",
    "L11": "L[2,3;6,7]", "L12": "L[2,3;5,8]", "L21": "L[1,4;6,7]", "L22": "L[1,4;5,8]", "D": "D",
}


def case242_generators() -> dict[str, Form]:
    """The forms of the nine generators of the (2,4,2) study, read off ``build_generators`` by their names there."""
    forms = dict(build_generators(CASE_242).forms)
    return {short: forms[name] for short, name in CASE242_NAMES.items()}


def _sign(computed: Polynomial, want: Polynomial) -> int | None:
    """1 or -1 when computed equals want up to that sign, else None."""
    return 1 if computed == want else -1 if computed == -want else None


def case242_report(seed: int = DEFAULT_SEED) -> dict:
    """The study's JSON document: the identity L12*L21 - L11*L22 == sign * M1*N1*D, the Y-table and the rank.

    D is proved invariant first, so a D the proof leaves open is refused before anything is expanded.
    """
    forms = case242_generators()
    check_invariance(CASE_242, [("D", forms["D"])])
    gens = {name: expand(CASE_242, form) for name, form in forms.items()}
    identity_sign = _sign(gens["L12"] * gens["L21"] - gens["L11"] * gens["L22"], gens["M1"] * gens["N1"] * gens["D"])
    y_map = y_family_map()
    table = []
    for name, want in _expected_y_table().items():
        computed = gens[name].substitute(y_map)
        table.append({"name": name, "computed": str(computed), "expected": str(want), "sign": _sign(computed, want)})
    signs = {row["name"]: row["sign"] for row in table}
    doc = {
        "type": [2, 4, 2],
        "seed": seed,
        "identity": {"holds": identity_sign is not None, "sign": identity_sign},
        "d_invariant": True,
        "y_table": table,
        "table_ok": None not in signs.values(),
        "l11_sign_exact": signs["L11"] == 1,
        "d_sign_exact": signs["D"] == 1,
        "nine_generator_rank": independence_details(CASE_242, list(forms.values()), seed).rank,
    }
    verdicts = (doc["identity"]["holds"], doc["table_ok"], doc["l11_sign_exact"], doc["d_sign_exact"])
    doc["passed"] = all(verdicts) and doc["nine_generator_rank"] == 8
    return doc
