"""Tests for the block/root combinatorics."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilinv.rootcomb import (
    ParabolicType,
    Root,
    admissible_pairs,
    compute_base,
    diagram_dict,
    dims,
    higher,
    nilradical_roots,
    phi_set,
    psi_set,
    reductive_roots,
    render_diagram,
    s_gamma,
)

PAPER_BASES = {
    (2, 1, 3, 2): {(2, 3), (3, 4), (1, 5), (6, 7), (5, 8)},
    (2, 4, 2): {(2, 3), (1, 4), (6, 7), (5, 8)},
    (2, 2, 2, 1, 1): {(2, 3), (1, 4), (4, 5), (3, 6), (6, 7), (7, 8)},
}

PAPER_PHI = {
    (2, 1, 3, 2): {(4, 7), (4, 8), (5, 7)},
    (2, 4, 2): {(3, 7), (3, 8), (4, 7), (4, 8)},
    (2, 2, 2, 1, 1): {(3, 5), (5, 7)},
}

types = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(lambda xs: ParabolicType(tuple(xs)))


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def as_pairs(roots):
    return {tuple(r) for r in roots}


def test_parabolic_type_validation():
    with pytest.raises(ValueError):
        ParabolicType((0, 2))
    with pytest.raises(ValueError):
        ParabolicType(())
    with pytest.raises(ValueError):
        ParabolicType.from_string("2,x")
    pt = ParabolicType.from_string("2,4,2")
    assert pt.n == 8 and pt.s == 3
    assert [pt.block_of(k) for k in range(1, 9)] == [1, 1, 2, 2, 2, 2, 3, 3]
    # block_of against a scan of block_range on every composition with n <= 8
    for n in range(1, 9):
        for sizes in _compositions(n):
            pt = ParabolicType(sizes)
            scan = {k: a for a in range(1, pt.s + 1) for k in pt.block_range(a)}
            assert [pt.block_of(k) for k in range(1, n + 1)] == [scan[k] for k in range(1, n + 1)], sizes
            for k in (0, n + 1):
                with pytest.raises(ValueError, match="out of range"):
                    pt.block_of(k)


def test_nilradical_sizes():
    assert len(nilradical_roots(ParabolicType((2, 4, 2)))) == 20
    assert nilradical_roots(ParabolicType((5,))) == frozenset()
    assert len(nilradical_roots(ParabolicType((2, 1, 3, 2)))) == 23


def test_higher_examples():
    pt = ParabolicType((2, 1, 3, 2))
    assert higher(pt, Root(1, 5), Root(2, 5))
    pt2 = ParabolicType((2, 2, 2, 1, 1))
    assert not higher(pt2, Root(2, 5), Root(2, 3))
    assert not higher(pt2, Root(2, 5), Root(2, 5))


def test_higher_is_single_reductive_step():
    pt = ParabolicType((2, 4, 2))
    # row moves within one column block
    assert higher(pt, Root(1, 6), Root(1, 3))
    # crossing a block boundary is not a reductive step
    assert not higher(pt, Root(1, 7), Root(1, 3))


def test_paper_bases_and_marks():
    for sizes, want in PAPER_BASES.items():
        pt = ParabolicType(sizes)
        assert as_pairs(compute_base(pt).roots) == want, sizes
    for sizes, want in PAPER_PHI.items():
        pt = ParabolicType(sizes)
        assert as_pairs(phi_set(admissible_pairs(pt))) == want, sizes


def test_embedded_2211():
    pt = ParabolicType((2, 2, 1, 1))
    shifted = {(i + 2, j + 2) for i, j in as_pairs(compute_base(pt).roots)}
    assert shifted == {(4, 5), (3, 6), (6, 7), (7, 8)}
    marks = {(i + 2, j + 2) for i, j in as_pairs(phi_set(admissible_pairs(pt)))}
    assert marks == {(5, 7)}


def test_chain_type_base():
    pt = ParabolicType((1,) * 6)
    assert as_pairs(compute_base(pt).roots) == {(k, k + 1) for k in range(1, 6)}
    assert admissible_pairs(pt) == ()


def test_single_block_degenerates():
    pt = ParabolicType((7,))
    assert compute_base(pt).roots == ()
    assert admissible_pairs(pt) == ()
    d = dims(pt)
    assert d.dim_m == 0 and d.predicted_regular_orbit_dim == 0


def test_admissible_pair_counts_and_fields():
    pt = ParabolicType((2, 4, 2))
    pairs = admissible_pairs(pt)
    assert len(pairs) == 4
    for q in pairs:
        a, b = q.xi
        a2, b2 = q.xi_prime
        assert a < b < a2 < b2
        assert q.alpha == (b, a2) and q.phi == (b, b2) and q.psi == (a, a2)
        assert q.alpha in reductive_roots(pt)
    assert len(admissible_pairs(ParabolicType((2, 1, 3, 2)))) == 3


def test_s_gamma_examples():
    pt = ParabolicType((2, 4, 2))
    base = compute_base(pt)
    assert as_pairs(s_gamma(base, Root(1, 4))) == {(2, 3)}
    assert s_gamma(base, Root(2, 6)) == []
    assert as_pairs(s_gamma(base, Root(4, 8))) == {(6, 7)}


def test_dims_examples():
    d = dims(ParabolicType((2, 4, 2)))
    assert (d.dim_m, d.base_size, d.pair_count, d.predicted_regular_orbit_dim) == (20, 4, 4, 12)
    d = dims(ParabolicType((2, 1, 3, 2)))
    assert (d.dim_m, d.base_size, d.pair_count, d.predicted_regular_orbit_dim) == (23, 5, 3, 15)
    assert dims(ParabolicType((6,))).dim_m == 0


def _marks_from_text(text):
    base, phi = set(), set()
    rows = [line for line in text.splitlines() if "|" in line]
    for line in rows:
        head, _, rest = line.partition("|")
        i = int(head.strip())
        cols = rest.replace("|", "").split()
        for j, sym in enumerate(cols, start=1):
            if sym == "⊗":
                base.add((i, j))
            elif sym == "×":
                phi.add((i, j))
    return base, phi


def test_diagram_text_roundtrip():
    for sizes in PAPER_BASES:
        pt = ParabolicType(sizes)
        base, phi = _marks_from_text(render_diagram(pt, "text"))
        assert base == PAPER_BASES[sizes]
        assert phi == PAPER_PHI[sizes]


def test_diagram_json_roundtrip():
    pt = ParabolicType((2, 4, 2))
    doc = json.loads(render_diagram(pt, "json"))
    assert doc["n"] == 8 and doc["blocks"] == [2, 4, 2]
    assert {tuple(r) for r in doc["base"]} == PAPER_BASES[(2, 4, 2)]
    assert {tuple(r) for r in doc["phi"]} == PAPER_PHI[(2, 4, 2)]


def test_diagram_embedded_offset():
    doc = diagram_dict(ParabolicType((2, 2, 1, 1)), offset=2)
    assert doc["n"] == 8
    assert {tuple(r) for r in doc["base"]} == {(4, 5), (3, 6), (6, 7), (7, 8)}
    assert {tuple(r) for r in doc["phi"]} == {(5, 7)}


def test_diagram_golden_files(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    for sizes, name in [((2, 1, 3, 2), "2132"), ((2, 2, 2, 1, 1), "22211"), ((2, 4, 2), "242")]:
        pt = ParabolicType(sizes)
        assert render_diagram(pt, "text") == (golden / f"diagram_{name}.txt").read_text()
        assert render_diagram(pt, "latex") == (golden / f"diagram_{name}.tex").read_text()
    assert render_diagram(ParabolicType((2, 2, 1, 1)), "text", offset=2) == (
        golden / "diagram_2211_embedded.txt"
    ).read_text()


def test_diagram_psi_marks():
    pt = ParabolicType((2, 2, 2, 1, 1))
    doc = diagram_dict(pt, marked="psi")
    assert {tuple(r) for r in doc["phi"]} == {tuple(r) for r in psi_set(admissible_pairs(pt))}


def test_diagram_unknown_format():
    with pytest.raises(ValueError):
        render_diagram(ParabolicType((2, 2)), "svg")
    with pytest.raises(ValueError):
        render_diagram(ParabolicType((2, 2)), "text", marked="both")


def test_empty_diagram():
    text = render_diagram(ParabolicType((9,)), "text")
    assert "⊗" not in text and "×" not in text


@given(types)
@settings(max_examples=60, deadline=None)
def test_base_is_antichain_with_unique_rows_and_columns(pt):
    base = compute_base(pt)
    rows = [r.i for r in base.roots]
    cols = [r.j for r in base.roots]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    for x in base.roots:
        for y in base.roots:
            if x != y:
                assert not higher(pt, x, y)
    assert set(base.roots) <= nilradical_roots(pt)


@given(types)
@settings(max_examples=60, deadline=None)
def test_marked_roots_avoid_base_and_are_injective(pt):
    base = compute_base(pt)
    pairs = admissible_pairs(pt, base)
    sset = set(base.roots)
    phis = [q.phi for q in pairs]
    assert len(set(phis)) == len(phis)
    for q in pairs:
        assert q.phi not in sset
        assert q.psi not in sset
        assert q.phi in nilradical_roots(pt)


@given(types)
@settings(max_examples=60, deadline=None)
def test_dims_identity(pt):
    d = dims(pt)
    assert d.phi_count == d.pair_count
    assert d.predicted_regular_orbit_dim + d.base_size + d.pair_count == d.dim_m
    assert d.consistent


def _closed_form(sizes):
    # staircase formula for non-increasing sizes
    s = len(sizes)
    m = [0]
    for x in sizes:
        m.append(m[-1] + x)
    out = set()
    for i in range(1, s):
        for j in range(1, sizes[i] + 1):
            out.add((m[i] - j + 1, m[i] + j))
    return out


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_closed_form_on_nonincreasing(sizes):
    sizes = tuple(sorted(sizes, reverse=True))
    pt = ParabolicType(sizes)
    assert as_pairs(compute_base(pt).roots) == _closed_form(sizes)
