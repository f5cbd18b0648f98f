"""Stopping-time decomposition, level-set transport, and the proof chain.

The decomposition oracle re-derives every selection property from the raw
values with Fraction arithmetic (maximality, disjointness, the two-sided
sandwich), independent of the exact-sum machinery under test.
"""

import contextlib
import hashlib
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightlab import czlab
from weightlab.czlab import (
    CZDecomposition,
    CZLevel,
    _cell_transport,
    _children,
    _e_minima,
    _expansion,
    _mass_test,
    _pyramids,
    _span_plan,
    _span_reduce,
    _sum_bounds,
    _tripled,
    _tripled_cover,
    cz_decompose,
    ekj_expansion_check,
    level_sets,
    theorem_chain_check,
)
from weightlab.funcspace import (
    GridFunction,
    SquareMatrix,
    constant_weight,
    power_weight,
)
from weightlab.maximal import dyadic_maximal
from weightlab.young import YoungFn, luxemburg_norm_of_values, luxemburg_norms
from reference import (
    brute_select,
    check_maximality_exact,
    check_sandwich_exact,
    exact_avg,
    slices,
)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_unit_indicator_decomposition_frozen():
    vals = np.zeros(8)
    vals[0:4] = 1.0                    # [0,1) on the 8-cell grid over [0,2)
    f = GridFunction((0.0, 2.0), vals)
    dec = cz_decompose(f, 3.0, range(0, 3))
    assert [qc.span for qc in dec.cubes[0]] == [((0, 8),)]
    assert [qc.span for qc in dec.cubes[1]] == [((0, 4),)]
    assert dec.cubes[2] == []
    assert dec.cubes[0][0].average == pytest.approx(0.5)
    exp = ekj_expansion_check(dec)
    # E at k=0 is the right half [1,2): ratio |Q|/|E| = 2
    assert exp["beta"] == pytest.approx(2.0)
    assert exp["disjoint"] and exp["witness"] is None


def test_root_sandwich_violation_raises():
    f = GridFunction((0.0, 1.0), np.ones(4))
    with pytest.raises(ValueError, match="sandwich"):
        cz_decompose(f, 3.0, range(0, 1))   # root avg 1 > 3^0/2


@pytest.mark.parametrize("box, shape, message", [
    ((0.0, 1.0), (48,), "power-of-two"),
    (((0.0, 0.0), (1.0, 1.0)), (12, 12), "power-of-two"),
    (((0.0, 0.0), (1.0, 2.0)), (4, 8), "square grid"),
])
def test_cz_rejects_grids_whose_splits_miss_cells(box, shape, message):
    # on 48 cells the dyadic splits stop at side 3: the cell above the
    # threshold a^4/4 = 64 lies in no visited cube, so no cube was selected
    vals = np.ones(shape)
    vals[(1,) * len(shape)] = 100.0
    with pytest.raises(ValueError, match=message):
        cz_decompose(GridFunction(box, vals), 4.0, [4])


def test_near_tie_1d_selected_exactly():
    # the cell sum 4 + 2^-51 rounds to exactly a/4 * 2 = 4: only the exact
    # comparison sees the root average above the threshold
    f = GridFunction((0.0, 1.0), [2.0, 2.0 + 2.0 ** -51])
    dec = cz_decompose(f, 8.0, [1])
    assert [qc.span for qc in dec.cubes[1]] == [((0, 2),)]


def test_near_tie_2d_sandwich_violation_raises():
    # the root average 4 + 2^-51 exceeds the upper bound a/2^2 = 4, but its
    # cell sum rounds to exactly 16
    f = GridFunction(((0.0, 0.0), (1.0, 1.0)),
                     [[4.0, 4.0], [4.0, 4.0 + 2.0 ** -49]])
    with pytest.raises(ValueError, match="sandwich"):
        cz_decompose(f, 16.0, [1])


SUBNORMAL_CELLS = [float.fromhex(x) for x in (
    "0x0.0000000000020p-1022", "0x0.8000000000034p-1022",
    "0x1.0000000000004p-1020", "0x0.0000000000005p-1022",
    "0x0.000000000003ep-1022", "0x0.000000000000cp-1022",
    "0x0.0000000000034p-1022", "0x0.800000000003ep-1022")]


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_subnormal_cube_average_rounds_once(alpha):
    # the cell sum is normal and the average subnormal: the rounded sum
    # divided by 8 rounds twice and lands one unit low
    f = GridFunction((0.0, 1.0), SUBNORMAL_CELLS)
    dec = cz_decompose(f, 2.0 ** 1021, [-1], alpha=alpha)
    (qc,) = dec.cubes[-1]
    assert qc.span == ((0, 8),)
    assert qc.average == float.fromhex("0x0.a000000000025p-1022")
    assert qc.average == float(exact_avg(f.values, qc.span))
    assert qc.value == qc.average              # the root has side 1
    assert math.fsum(SUBNORMAL_CELLS) / 8 == float.fromhex("0x0.a000000000024p-1022")


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_cube_average_of_overflowing_sum(alpha):
    # the cell sum 2e308 leaves the float range, the average does not;
    # a^2/4 = 1.44 * 2^1022 < 1e308 <= a^2/2
    f = GridFunction((0.0, 1.0), [1e308, 1e308])
    dec = cz_decompose(f, 1.2 * 2.0 ** 512, [2], alpha=alpha)
    assert [(qc.span, qc.average) for qc in dec.cubes[2]] == [(((0, 2),), 1e308)]


@pytest.mark.parametrize("span", [((2, 6),), ((4, 8), (0, 4)),
                                  ((0, 2), (2, 4), (6, 8))])
def test_span_helpers_any_dimension(span):
    shape = (8,) * len(span)
    # the chain's tripled spans: widened by the side each way, clipped
    corner = np.array([[i0 for i0, _ in span]])
    side = np.array([span[0][1] - span[0][0]])
    lo3, ext3 = _tripled(corner, side, 8)
    tripled = tuple((int(lo), int(lo + e)) for lo, e in zip(lo3[0], ext3[0]))
    assert tripled == {1: ((0, 8),), 2: ((0, 8), (0, 8)),
                       3: ((0, 4), (0, 6), (4, 8))}[len(span)]
    # the cover dilates the cube's block by one block per axis: its triple
    want = np.zeros(shape, dtype=bool)
    want[slices(tripled)] = True
    np.testing.assert_array_equal(_tripled_cover(shape, corner, side), want)
    # one pass over two arrays gives both sums on the cube and on its
    # triple, each bit for bit the sum over that span alone
    vals = np.random.default_rng(len(span)).random((2,) + shape)
    lo = np.concatenate([corner, lo3])
    ext = np.concatenate([np.repeat(side[:, None], len(span), 1), ext3])
    sums = _span_reduce(
        _span_plan(lo, ext),
        lambda *rows: np.column_stack([r.sum(axis=1) for r in rows]), *vals)
    assert sums.tolist() == \
        [[v[slices(s)].sum() for v in vals] for s in (span, tripled)]
    # the stopping-cube sweep's 2^n children of the dyadic cube with the
    # span's side at its first corner tile that cube, in lexicographic order
    side = span[0][1] - span[0][0]
    half = side // 2
    idx = np.array([[i0 // side for i0, _ in span]])
    parent = tuple(slice(i * side, (i + 1) * side) for i in idx[0])
    children = [tuple((c * half, (c + 1) * half) for c in row)
                for row in _children(idx).tolist()]
    assert len(children) == 2 ** len(span) and children == sorted(children)
    cover = np.zeros(shape, dtype=int)
    for child in children:
        cover[tuple(slice(*c) for c in child)] += 1
    assert (cover[parent] == 1).all() and cover.sum() == side ** len(span)


@pytest.mark.parametrize("dim", [1, 2])
def test_tripled_cover_is_the_union_of_clipped_triples(dim):
    """The block dilation paints exactly the cells of the cubes' clipped
    triples, painted one cube at a time: dyadic cubes of several sides,
    at the grid's edges and inside it."""
    rng = np.random.default_rng(42)
    n = 64 if dim == 1 else 32
    for trial in range(5):
        # random cubes, plus one at the first and one at the last corner
        sides = np.concatenate([rng.choice([1, 2, 4, 8], size=6), [4, 8]])
        corner = np.array([rng.integers(0, n // s, dim) * s for s in sides])
        corner[-2:] = [[0] * dim, [n - 8] * dim]
        want = np.zeros((n,) * dim, dtype=bool)
        for c, s in zip(corner.tolist(), sides.tolist()):
            want[tuple(slice(max(x - s, 0), min(x + 2 * s, n))
                       for x in c)] = True
        np.testing.assert_array_equal(
            _tripled_cover(want.shape, corner, sides), want)


def test_a_must_exceed_two_power_dim():
    # a NaN or an infinite a fails too, in the chain as in the decomposition
    f = GridFunction((0.0, 1.0), np.ones(4))
    for a in (2.0, -8.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="need a finite a > 2"):
            cz_decompose(f, a, range(0, 1))
        with pytest.raises(ValueError, match="need a finite a > 2"):
            theorem_chain_check(f, power_weight(0.5, -8.0, 8.0), 2.0, 2.0,
                                YoungFn.power(3.0), a=a)


@pytest.mark.parametrize("alpha, dim", [(-0.5, 1), (math.nan, 1), (1.0, 1),
                                        (2.0, 2), (-1e-300, 2)])
def test_alpha_outside_zero_to_dim_is_rejected(alpha, dim):
    # a negative order would let the max-pyramid prune drop a cube whose
    # small side lifts its value over the threshold
    vals = np.zeros((8,) * dim)
    vals[(0,) * dim] = 1.0
    f = GridFunction(((0.0,) * dim, (8.0,) * dim), vals)
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, dim\)"):
        cz_decompose(f, 3.2 * 2 ** (dim - 1), [1], alpha=alpha)
    # the chain rejects it up front, even where its weight would make the
    # report inapplicable first
    w = (constant_weight(1.0, 0.0, 8.0),) * dim
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, dim\)"):
        theorem_chain_check(f, w[0] if dim == 1 else w, 1.0, 2.0, PHI,
                            alpha=alpha)


def valid_k_range(vals, a, dim, lo=-4, hi=12):
    """Levels where the root box cannot break the upper sandwich bound."""
    root = sum(Fraction(float(v)) for v in np.ravel(vals)) / np.size(vals)
    return [k for k in range(lo, hi)
            if Fraction(a) ** k >= 2 ** dim * root]


def test_random_corpus_sandwich_and_maximality_1d():
    rng = np.random.default_rng(24)
    for trial in range(10):
        vals = rng.integers(0, 64, size=64).astype(float) / 8.0
        if vals.max() == 0.0:
            vals[0] = 1.0
        f = GridFunction((0.0, 4.0), vals)
        dec = cz_decompose(f, 8.0, valid_k_range(vals, 8, 1))
        check_sandwich_exact(dec)
        check_maximality_exact(dec)
        # per-level disjointness of selected spans
        for k in dec.ks:
            marks = np.zeros(64, dtype=int)
            for qc in dec.cubes[k]:
                (i0, i1), = qc.span
                marks[i0:i1] += 1
            assert marks.max(initial=0) <= 1


def test_random_corpus_2d_sandwich():
    rng = np.random.default_rng(25)
    vals = rng.integers(0, 32, size=(16, 16)).astype(float) / 4.0
    f = GridFunction(((0.0, 0.0), (1.0, 1.0)), vals)
    dec = cz_decompose(f, 8.0, valid_k_range(vals, 8, 2))
    check_sandwich_exact(dec)
    assert any(dec.cubes[k] for k in dec.ks)
    for k in dec.ks:
        marks = np.zeros((16, 16), dtype=int)
        for qc in dec.cubes[k]:
            (i0, i1), (j0, j1) = qc.span
            marks[i0:i1, j0:j1] += 1
        assert marks.max(initial=0) <= 1
        np.testing.assert_array_equal(dec.D[k], marks > 0)


def test_stopping_union_matches_dyadic_superlevel():
    """D_k as selected-cube union equals the dyadic maximal superlevel set."""
    rng = np.random.default_rng(26)
    vals = rng.integers(0, 16, size=64).astype(float) / 4.0
    f = GridFunction((0.0, 4.0), vals)
    Md = dyadic_maximal(f).values
    ks = valid_k_range(vals, 8, 1, lo=0, hi=4)
    dec = cz_decompose(f, 8.0, ks)
    assert any(dec.cubes[k] for k in ks)
    for k in ks:
        # exact dyadic data: every average is a float-exact dyadic rational
        np.testing.assert_array_equal(dec.D[k], Md > 8.0 ** k / 4.0)


def test_expansion_sets_nonempty_within_valid_range():
    """E_{k,j} can never vanish: a > 2^n forces part of Q below the next
    threshold.  Verified on the random corpus."""
    rng = np.random.default_rng(27)
    checked = 0
    for trial in range(5):
        vals = rng.integers(0, 64, size=64).astype(float) / 8.0
        vals[rng.integers(0, 64)] = 8.0    # ensure some mass
        f = GridFunction((0.0, 4.0), vals)
        dec = cz_decompose(f, 8.0, valid_k_range(vals, 8, 1))
        exp = ekj_expansion_check(dec)
        checked += exp["cubes_checked"]
        if exp["cubes_checked"]:
            assert math.isfinite(exp["beta"]) and exp["beta"] >= 1.0
            assert exp["disjoint"] and exp["witness"] is None
    assert checked > 0


def test_expansion_check_flags_synthetic_empty_e():
    vals = np.zeros(8)
    vals[0:4] = 1.0
    f = GridFunction((0.0, 2.0), vals)
    dec = cz_decompose(f, 3.0, range(0, 2))
    doctored = CZDecomposition(dec.grid, dec.a, dec.alpha, dec.ks, dec.levels,
                               {0: dec.D[0], 1: np.ones(8, dtype=bool)})
    exp = ekj_expansion_check(doctored)
    assert exp["beta"] == math.inf and exp["witness"] is not None


def test_expansion_skips_the_level_without_a_next():
    # E at level k is Q minus D_{k+1}: a decomposition of k = 0 alone has
    # a cube at k = 0 but no D_1, so no E set is taken
    vals = np.zeros(8)
    vals[0:4] = 1.0
    f = GridFunction((0.0, 2.0), vals)
    dec = cz_decompose(f, 3.0, [0])
    assert len(dec.cubes[0]) == 1
    e = _expansion(dec)
    assert e.report["levels_checked"] == [] and e.report["cubes_checked"] == 0
    assert len(e.counts) == 0 and len(_e_minima(e, np.ones(8))) == 0


def _ekj_per_cube(dec):
    """The E-set check cube by cube, from each cube's own E mask."""
    usable = [k for k in dec.ks if k + 1 in dec.D]
    acc = np.zeros(dec.grid.shape, dtype=np.int32)
    beta, witness, n_cubes = 0.0, None, 0
    for k in usable:
        for qc in dec.cubes[k]:
            n_cubes += 1
            slc = slices(qc.span)
            emask = ~dec.D[k + 1][slc]
            ecount = int(emask.sum())
            if ecount == 0:
                beta, witness = math.inf, qc.cube
                continue
            beta = max(beta, (np.prod([b - a for a, b in qc.span])) / ecount)
            acc[slc] += emask
    return {"beta": beta, "disjoint": bool(acc.max(initial=0) <= 1),
            "witness": witness, "cubes_checked": n_cubes,
            "levels_checked": usable}


@pytest.mark.parametrize("dim", [1, 2])
def test_expansion_sets_match_per_cube_masks(dim):
    """One gather of depths over all the cubes gives each E set's cell
    count, and one more with a field gives the field's minimum over it, as
    the cube's own E mask does; the check's dict
    equals the cube-by-cube one, also on a decomposition whose cubes
    overlap."""
    rng = np.random.default_rng(41)
    n = 64 if dim == 1 else 16
    for trial in range(4):
        vals = rng.random((n,) * dim) ** (trial + 1) * 3.0
        vals.flat[rng.integers(0, vals.size)] = 40.0
        f = GridFunction((0.0, 4.0) if dim == 1 else ((0.0,) * 2, (4.0,) * 2),
                         vals)
        a = 8.0 if dim == 1 else 16.0
        dec = cz_decompose(f, a, valid_k_range(vals, a, dim, hi=4))
        field = rng.random(vals.shape)
        e = _expansion(dec)
        assert e.report == ekj_expansion_check(dec) == _ekj_per_cube(dec)
        minima = _e_minima(e, field)
        cubes = [(k, qc) for k in e.report["levels_checked"]
                 for qc in dec.cubes[k]]
        assert len(e.counts) == len(minima) == len(cubes)
        for (k, qc), count, low in zip(cubes, e.counts, minima):
            slc = slices(qc.span)
            emask = ~dec.D[k + 1][slc]
            assert count == int(emask.sum())
            want = float(field[slc][emask].min()) if emask.any() else math.inf
            assert low == want
    k = max(k for k in dec.ks[:-1] if dec.cubes[k])
    twice = dict(dec.levels)
    twice[k] = CZLevel(*(np.concatenate([x, x[:1]]) for x in dec.levels[k]))
    doubled = CZDecomposition(dec.grid, dec.a, dec.alpha, dec.ks, twice,
                              dec.D)
    assert doubled.cubes[k][-1] == doubled.cubes[k][0]
    assert ekj_expansion_check(doubled) == _ekj_per_cube(doubled)
    assert not ekj_expansion_check(doubled)["disjoint"]


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_span_terms_are_bitwise_per_cube(dim):
    """The chain table's row reductions equal, bit for bit, each cube's
    own norm (the closed form over its ravelled slice for a homogeneous
    phi, the bisection otherwise) and its slice's np.sum: dyadic cubes of
    several sides, the whole grid (contiguous, no copy per cube) and
    clipped tripled spans."""
    rng = np.random.default_rng(13)
    n = 64 if dim == 1 else 32
    vals = rng.random((n,) * dim) ** 3 * 5.0
    corner = np.zeros((1, dim), dtype=np.int64)
    side = np.array([n])
    for s in (1, 2, 4, 8, 16):
        corner = np.concatenate([corner, rng.integers(0, n // s, (4, dim)) * s])
        side = np.concatenate([side, np.full(4, s)])
    lo3, ext3 = _tripled(corner, side, n)
    lo = np.concatenate([corner, lo3])
    ext = np.concatenate([np.repeat(side[:, None], dim, 1), ext3])
    spans = [tuple((int(a), int(a + e)) for a, e in zip(row, width))
             for row, width in zip(lo, ext)]
    for phi in (YoungFn.power(3.0), YoungFn.power(1.5, c=2.0),
                YoungFn.identity(), YoungFn("sup"),
                YoungFn.power_log(1.5, 1.0)):
        got = _span_reduce(_span_plan(lo, ext),
                           lambda r: luxemburg_norms(r, phi), vals).tolist()
        for sp, g in zip(spans, got):
            cells = vals[slices(sp)].ravel()
            assert g == luxemburg_norm_of_values(vals[slices(sp)], phi)
            if phi.kind == "power":
                assert g == (phi.c * float(np.sum(cells ** phi.r))
                             / cells.size) ** (1.0 / phi.r)
    sums = _span_reduce(_span_plan(lo, ext), lambda r: r.sum(axis=1),
                        vals).tolist()
    assert sums == [float(vals[slices(sp)].ravel().sum()) for sp in spans]


def test_fractional_decomposition_scales_by_side():
    vals = np.zeros(16)
    vals[0:2] = 8.0
    f = GridFunction((0.0, 1.0), vals)
    dec = cz_decompose(f, 3.0, [1, 2, 3], alpha=0.5)
    assert dec.alpha == 0.5
    # root selected at k=1 (value 1), the concentrated pair at k=2
    assert [qc.span for qc in dec.cubes[1]] == [((0, 16),)]
    assert [qc.span for qc in dec.cubes[2]] == [((0, 2),)]
    assert dec.cubes[3] == []
    assert dec.cubes[1][0].value == pytest.approx(1.0, rel=1e-14)
    assert dec.cubes[2][0].value == pytest.approx(2.0 * math.sqrt(2.0),
                                                  rel=1e-14)
    for k, lst in dec.cubes.items():
        for qc in lst:
            side = (qc.span[0][1] - qc.span[0][0]) * f.h[0]
            assert qc.value == pytest.approx(side ** 0.5 * qc.average,
                                             rel=1e-12)
            assert 3.0 ** k / 4.0 < qc.value <= 3.0 ** k / 2.0 * (1 + 1e-12)


SUBNORMAL = 2.0 ** -1074


@st.composite
def cz_grids(draw):
    """(values, a, ks) on 1D and 2D power-of-two grids: dyadic rationals whose
    averages land exactly on a^k/4^n, subnormals mixed with values near
    1e300, and hot blocks in a sea of zeros."""
    dim = draw(st.sampled_from([1, 2]))
    n = 2 ** draw(st.integers(0, 5 if dim == 1 else 3))
    shape, size = (n,) * dim, n ** dim
    kind = draw(st.sampled_from(["dyadic", "huge-range", "hot-block"]))
    if kind == "dyadic":
        cells = draw(st.lists(st.integers(0, 16), min_size=size, max_size=size))
        vals = np.array(cells, dtype=float) * 2.0 ** draw(st.integers(-3, 3))
    elif kind == "huge-range":
        cell = st.one_of(st.just(0.0),
                         st.integers(1, 2 ** 52).map(lambda i: i * SUBNORMAL),
                         st.floats(1e299, 1e300))
        vals = np.array(draw(st.lists(cell, min_size=size, max_size=size)))
    else:
        vals = np.zeros(size)
        lo = draw(st.integers(0, size - 1))
        hi = draw(st.integers(lo + 1, min(size, lo + 8)))
        vals[lo:hi] = draw(st.sampled_from([1.0, 4.0, 40.0, 2.0 ** 60]))
    vals = vals.reshape(shape)
    a = draw(st.sampled_from([8.0, 2.0 ** dim + 0.5]))
    positive = sorted({float(v) for v in vals.ravel() if v > 0.0})
    marks = positive[:1] + positive[-1:] + [float(np.mean(vals))]
    ks = set()
    for v in marks:
        if v > 0.0:
            k0 = math.floor(math.log(v * 4 ** dim, a))
            ks.update(range(k0 - 1, k0 + 3))
    return vals, a, sorted(ks) or [0]


@settings(max_examples=60, deadline=None)
@given(cz_grids(), st.sampled_from([0.0, 0.3]))
def test_selection_matches_fraction_brute_force(grid, alpha):
    """Every stopping cube, average and value equals a Fraction selection
    over all dyadic cubes; at alpha = 0 the validated decomposition holds
    the exact sandwich and maximality."""
    vals, a, ks = grid
    dim = vals.ndim
    box = (0.0, 1.0) if dim == 1 else ((0.0, 0.0), (1.0, 1.0))
    f = GridFunction(box, vals)
    dec = cz_decompose(f, a, ks, alpha=alpha, validate=False)
    for k in ks:
        assert [qc.span for qc in dec.cubes[k]] == \
            brute_select(vals, a, k, alpha, f.h[0])
        for qc in dec.cubes[k]:
            avg = float(exact_avg(vals, qc.span))
            side = (qc.span[0][1] - qc.span[0][0]) * f.h[0]
            assert qc.average == avg
            assert qc.value == (avg if alpha == 0.0 else side ** alpha * avg)
    valid = [k for k in ks if k in valid_k_range(vals, a, dim, min(ks), max(ks) + 1)]
    if alpha == 0.0 and valid:
        checked = cz_decompose(f, a, valid)
        check_sandwich_exact(checked)
        check_maximality_exact(checked)


@pytest.mark.parametrize("kind", ["random", "huge-range", "overflow"])
@pytest.mark.parametrize("shape", [(1024,), (32, 32)])
def test_sum_bounds_bracket_exact_block_sums(kind, shape):
    """lo <= s <= hi for every block of the sum pyramid, s the exact sum,
    and an overflowed block sum gives lo = -inf; the max pyramid holds each
    block's largest cell."""
    rng = np.random.default_rng(36)
    vals = rng.random(shape) + 1.0
    if kind == "huge-range":
        vals = np.where(rng.random(shape) < 0.1, 1e300, vals * 2.0 ** -1060)
    elif kind == "overflow":
        vals = vals * 2.0 ** 1014
    maxes, sums = _pyramids(vals)
    for lvl, block_sums in enumerate(sums):
        lo, hi = _sum_bounds(block_sums, len(shape) * lvl)
        side = 1 << lvl
        for idx in np.ndindex(block_sums.shape):
            span = tuple((i * side, (i + 1) * side) for i in idx)
            exact = exact_avg(vals, span) * side ** len(shape)
            assert lo[idx] <= exact <= hi[idx], (lvl, idx)
            assert (lo[idx] == -math.inf) == math.isinf(block_sums[idx])
            assert maxes[lvl][idx] == vals[tuple(slice(*c) for c in span)].max()


@pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(2, 3), Fraction(1, 10)])
def test_mass_test_bounds_on_the_rounded_threshold_decide_nothing(t):
    # the masks decide on strict comparisons with round(t) only: a bound
    # equal to it leaves the cube to the exact test, whether t rounds down
    # (1/3, 2/3) or up (1/10)
    t_f = np.array([float(t)])
    above, below = _mass_test(t_f, t_f, t)
    assert not above.any() and not below.any()


def test_band_cube_falls_back_to_exact_sum():
    # the 63 cells of 2^-60 lift the root sum just above the threshold mass
    # 2 * 64 = 128, but the float block sum rounds to 128 exactly: only the
    # exact comparison selects the root
    vals = np.full(64, 2.0 ** -60)
    vals[0] = 128.0
    f = GridFunction((0.0, 1.0), vals)
    dec = cz_decompose(f, 8.0, [1])
    assert [qc.span for qc in dec.cubes[1]] == [((0, 64),)]
    assert dec.exact_fallbacks == 1
    assert brute_select(vals, 8.0, 1, 0.0, f.h[0]) == [((0, 64),)]


def test_band_cube_is_summed_once(monkeypatch):
    # the selection's exact pass decides the band root and gives it its
    # average: the grid is summed by one call, not once more for the average
    calls = []
    span_totals = czlab.span_totals

    def spy(values, starts, shape):
        calls.append((shape, len(starts[0])))
        return span_totals(values, starts, shape)

    monkeypatch.setattr(czlab, "span_totals", spy)
    vals = np.full(64, 2.0 ** -60)
    vals[0] = 128.0
    dec = cz_decompose(GridFunction((0.0, 1.0), vals), 8.0, [1])
    assert calls == [((64,), 1)]
    assert dec.exact_fallbacks == 1
    assert dec.levels[1].average.tolist() == [math.fsum(vals) / 64]


def test_upper_bound_tie_is_accepted():
    # the root average 4 equals a^k/2^n = 8/2 exactly, which the sandwich
    # allows
    dec = cz_decompose(GridFunction((0.0, 1.0), [4.0, 4.0]), 8.0, [1])
    assert [(qc.span, qc.average) for qc in dec.cubes[1]] == [(((0, 2),), 4.0)]


@pytest.mark.parametrize("ok", [False, True])
def test_upper_bound_off_the_floats_is_decided_exactly(ok):
    # a^k/2^n = 3^36/2 is no float and rounds up to v: the cells v exceed
    # it, and one ulp lower they fall short of it
    upper = Fraction(3) ** 36 / 2
    v = float(upper)
    assert v > upper
    if ok:
        v = math.nextafter(v, 0.0)
    f = GridFunction((0.0, 1.0), [v, v])
    if ok:
        assert [qc.span for qc in cz_decompose(f, 3.0, [36]).cubes[36]] == \
            [((0, 2),)]
    else:
        with pytest.raises(ValueError, match="sandwich"):
            cz_decompose(f, 3.0, [36])


def test_fractional_level_with_two_band_cubes():
    # side-1 cubes have value = average; the cells 0 and 4 sit on and one
    # ulp above a/4 = 0.75, so both land in the band of level 0 (every
    # larger cube is decided by the pyramid) and only cell 0 is selected
    vals = np.zeros(8)
    vals[0], vals[4] = math.nextafter(0.75, 1.0), 0.75
    f = GridFunction((0.0, 8.0), vals)
    dec = cz_decompose(f, 3.0, [1], alpha=0.5, validate=False)
    assert [qc.span for qc in dec.cubes[1]] == [((0, 1),)] == \
        brute_select(vals, 3.0, 1, 0.5, f.h[0])
    assert dec.exact_fallbacks == 2


def test_cell_at_rounded_threshold_is_selected():
    # 3^36/4 rounds up to v, so the cell v exceeds the threshold while the
    # root average v/2 does not; pruning must keep a cell whose value equals
    # the rounded threshold
    thr = Fraction(3) ** 36 / 4
    v = float(thr)
    assert v > thr
    dec = cz_decompose(GridFunction((0.0, 1.0), [v, 0.0]), 3.0, [36])
    assert [qc.span for qc in dec.cubes[36]] == [((0, 1),)]


@pytest.mark.parametrize("v, spans", [(math.nextafter(0.75, 1.0), [((0, 2),)]),
                                      (0.75, [])])
def test_fractional_root_one_ulp_from_threshold(v, spans):
    # the root has side 1, so its value is its average; 3/4 = a/4 is the
    # threshold, and only the exact average decides the root
    dec = cz_decompose(GridFunction((0.0, 1.0), [v, v]), 3.0, [1], alpha=0.5)
    assert [qc.span for qc in dec.cubes[1]] == spans
    assert dec.exact_fallbacks == 1


def test_pyramid_decides_the_chain_corpus():
    vals = corpus_function(1024).values
    f = GridFunction((-1.0, 1.0), vals)
    dec = cz_decompose(f, 8.0, valid_k_range(vals, 8, 1))
    assert sum(len(c) for c in dec.cubes.values()) > 0
    assert dec.exact_fallbacks == 0


def test_cli_cz_tie_heavy_2d_frozen(tmp_path):
    """Frozen bytes of `weightlab cz --out` on a 64^2 grid of zeros and
    powers of two, where many cube averages sit exactly on a^k/4^n."""
    from weightlab.cli import main
    rng = np.random.default_rng(64)
    vals = np.zeros((64, 64))
    hot = rng.integers(0, 64, size=(80, 2))
    vals[hot[:, 0], hot[:, 1]] = rng.choice(
        [4.0, 16.0, 64.0, 256.0, 1024.0, 32.0, 128.0, 512.0, 2048.0], size=80)
    src, out = tmp_path / "f.json", tmp_path / "cz.json"
    src.write_text(json.dumps({"box": [[0.0, 0.0], [1.0, 1.0]],
                               "values": vals.tolist()}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["cz", "--input", str(src), "--a", "8.0",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "88f26326e08c2b6af042b934d5e760489103e5a54aa3d52f56a06278c3aaabba"
    dec = cz_decompose(GridFunction(((0.0, 0.0), (1.0, 1.0)), vals), 8.0,
                       range(2, 7))
    assert dec.exact_fallbacks > 0


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_level_sets_reflection_exact():
    rng = np.random.default_rng(28)
    vals = rng.random(32) * 4.0
    f = GridFunction((-1.0, 1.0), vals)
    ls = level_sets(f, -1.0, 8.0, [-1, 0])
    assert ls.exact
    for k in ls.ks:
        np.testing.assert_array_equal(ls.omega_A[k], ls.omega[k][::-1])
        assert ls.cell_volume_out == ls.cell_volume_in


def test_level_sets_scaling_masses():
    rng = np.random.default_rng(29)
    vals = rng.random(64) * 4.0
    f = GridFunction((-2.0, 2.0), vals)
    ls = level_sets(f, 2.0, 8.0, [0])
    assert ls.exact and ls.out_box == ((-4.0,), (4.0,))
    # the image of the superlevel set carries |det A| times its measure
    # (cell counts and dyadic cell volumes, so the masses are exact)
    assert ls.omega_A[0].sum() == ls.omega[0].sum() > 0
    assert ls.omega_A[0].sum() * ls.cell_volume_out == \
        2.0 * ls.omega[0].sum() * ls.cell_volume_in


def test_level_sets_rotation_fallback():
    rng = np.random.default_rng(30)
    vals = rng.random((16, 16)) * 2.0
    f = GridFunction(((-1.0, -1.0), (1.0, 1.0)), vals)
    R = SquareMatrix([[math.cos(0.7), -math.sin(0.7)],
                      [math.sin(0.7), math.cos(0.7)]])
    ls = level_sets(f, R, 8.0, [0])
    assert not ls.exact          # nearest-cell fallback for a generic rotation
    assert ls.omega[0].shape == (16, 16)


def test_cell_transport_fault():
    """None with a permutation of the cells for a quarter turn; a rotation
    by 0.7 sends some image cells' preimages out of the box."""
    f = GridFunction(((-1.0, -1.0), (1.0, 1.0)), np.ones((16, 16)))
    lo, hi, back, fault = _cell_transport(f, SquareMatrix([[0.0, -1.0],
                                                           [1.0, 0.0]]))
    assert fault is None and (lo, hi) == (f.lo, f.hi)
    assert sorted(back.tolist()) == list(range(256))
    fault = _cell_transport(f, SquareMatrix(ROTATION_07))[3]
    assert fault == "image grid does not map back into the box"


def _level_set_images(f, A, a, ks):
    ls = level_sets(f, A, a, ks)
    return ls, [ls.omega_A[k] for k in ls.ks] + [ls.D_A[k] for k in ls.ks]


ROTATION_07 = [[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]]


@pytest.mark.parametrize("matrix, exact, counts, digest", [
    (ROTATION_07, False, [121, 14, 0, 128, 128, 36],
     "81994634f3e5f43ffe3568bdb9303d94febc747f2657095fe9f94b226ab0807a"),
    ([[0.0, -1.0], [1.0, 0.0]], True, [243, 28, 0, 256, 256, 69],
     "dced72b02d9580fdc9b647485f193070c150d42545d028fcc4ac9b5909ad78f0"),
], ids=["rotation-0.7", "quarter-turn"])
def test_level_sets_image_masks_frozen(matrix, exact, counts, digest):
    """Frozen image masks (cell counts and a sha256 of the packed bits) of
    omega_k and D_k for k = 2, 3, 5 with a = 3."""
    rng = np.random.default_rng(30)
    f = GridFunction(((-1.0, -1.0), (1.0, 1.0)),
                     rng.random((16, 16)) ** 4 * 40.0)
    ls, masks = _level_set_images(f, SquareMatrix(matrix), 3.0, [2, 3, 5])
    assert ls.exact is exact
    assert [int(m.sum()) for m in masks] == counts
    bits = np.packbits(np.stack(masks)).tobytes()
    assert hashlib.sha256(bits).hexdigest() == digest


def test_level_sets_shear_reads_nearest_cells():
    """The shear's image grid has cells twice as wide as tall; each image
    cell takes the membership of the input cell holding the preimage of its
    center, and cells outside the sheared box are in no set."""
    rng = np.random.default_rng(35)
    f = GridFunction(((-1.0, -1.0), (1.0, 1.0)),
                     rng.random((16, 16)) ** 4 * 40.0)
    A = SquareMatrix([[1.0, 1.0], [0.0, 1.0]])
    ls, masks = _level_set_images(f, A, 3.0, [3, 5])
    assert not ls.exact
    assert ls.out_box == ((-2.0, -1.0), (2.0, 1.0))
    assert ls.cell_volume_out == 0.25 * 0.125
    sets = [ls.omega[k] for k in ls.ks] + [ls.D[k] for k in ls.ks]
    outside = 0
    for i, j in np.ndindex(16, 16):
        # dyadic centers: the preimage x - y is exact and never on a boundary
        cell = f.cell_of_point(A.inv @ (-2.0 + (i + 0.5) * 0.25,
                                        -1.0 + (j + 0.5) * 0.125))
        outside += cell is None
        for image, s in zip(masks, sets):
            assert image[i, j] == (cell is not None and s[cell]), (i, j)
    assert outside == 128
    assert [int(m.sum()) for m in masks] == [8, 0, 128, 37]


def test_level_sets_nesting_and_dyadic_domination():
    """Superlevel masks nest downward in k, and the dyadic field never
    exceeds the windowed one (dyadic spans are a subset of all windows)."""
    rng = np.random.default_rng(31)
    vals = rng.random(64) * 6.0
    f = GridFunction((0.0, 4.0), vals)
    ls = level_sets(f, 1.0, 8.0, [-1, 0, 1])
    for k_hi, k_lo in [(0, -1), (1, 0)]:
        assert not (ls.omega[k_hi] & ~ls.omega[k_lo]).any()
        assert not (ls.D[k_hi] & ~ls.D[k_lo]).any()
    from weightlab.maximal import hl_maximal
    M = hl_maximal(f).values
    Md = dyadic_maximal(f).values
    assert (Md <= M * (1.0 + 1e-12)).all()


# ---------------------------------------------------------------------------
# the proof chain
# ---------------------------------------------------------------------------

PHI = YoungFn.power(3.0)


def corpus_function(n=128):
    rng = np.random.default_rng(11)
    vals = rng.random(n) ** 2 * 3.0
    vals[n // 6: n // 6 + max(4, n // 24)] = 40.0
    return GridFunction((-1.0, 1.0), vals)


def corpus_grid_2d(n=16):
    rng = np.random.default_rng(33)
    vals = rng.random((n, n)) * 2.0
    vals[3:6, 9:12] = 30.0
    return GridFunction(((-1.0, -1.0), (1.0, 1.0)), vals)


def acceptance_grid_2d(n):
    """The acceptance-5 2D chain corpus: uniforms plus a raised block."""
    rng = np.random.default_rng(33)
    vals = rng.random((n, n)) * 2.0
    vals[n // 12: n // 6, n // 2: n // 2 + max(2, n // 12)] = 30.0
    return GridFunction(((-1.0, -1.0), (1.0, 1.0)), vals)


PAIR = (power_weight(0.5, -40.0, 40.0), constant_weight(1.0, -40.0, 40.0))

EXPECTED_STEPS = [
    "tail", "s1_slicing", "s2_threshold", "s2c_cover", "s2d_substitution",
    "s2e_sandwich", "s3_holder", "s4_bump", "s4b_triple", "s5a_ellqp",
    "s5b_expansion", "s5c_domination", "s5d_closure", "final",
]


def test_chain_standard_run_passes_with_expected_steps():
    f = corpus_function()
    w = power_weight(0.5, -40.0, 40.0)
    rep = theorem_chain_check(f, w, 2.0, 2.0, PHI)
    assert rep.applicable
    assert [s.name for s in rep.steps] == EXPECTED_STEPS
    assert rep.passed(1e-6), [(s.name, s.rel_slack) for s in rep.steps
                              if s.rel_slack < -1e-6]
    c = rep.constants
    assert c["q"] == c["p"] == 2.0
    assert c["cubes_used"] > 0
    assert c["theorem_ratio"] <= c["bound_ratio"] * (1.0 + 1e-6)
    assert math.isfinite(c["B_used"]) and c["beta"] >= 1.0
    assert c["bump_class_consistent"] is True
    assert rep.steps[-1].lhs == pytest.approx(c["lhs"], rel=1e-15)


def test_chain_negative_scaling_and_p_three_halves():
    f = corpus_function()
    w = power_weight(-0.25, -40.0, 40.0)
    rep = theorem_chain_check(f, w, -0.5, 1.5, PHI)
    assert rep.applicable and rep.passed(1e-6)


def test_chain_fractional_run():
    f = corpus_function()
    w = constant_weight(1.0, -40.0, 40.0)
    rep = theorem_chain_check(f, w, 2.0, 2.0, PHI, alpha=0.25)
    assert rep.applicable and rep.fractional
    assert rep.constants["q"] == pytest.approx(4.0, rel=1e-13)
    assert rep.passed(1e-6)
    # 1/q = 1/p - alpha/n < 0 leaves no q
    with pytest.raises(ValueError, match="alpha too large"):
        theorem_chain_check(f, w, 2.0, 2.0, PHI, alpha=0.6)


def test_chain_alpha_zero_equals_plain_exponent():
    f = corpus_function()
    w = power_weight(0.5, -40.0, 40.0)
    rep = theorem_chain_check(f, w, 2.0, 2.0, PHI, alpha=0.0)
    assert not rep.fractional
    assert rep.constants["q"] == rep.constants["p"]


def test_chain_2d_product_weight():
    f = corpus_grid_2d()
    pair = (power_weight(0.5, -40.0, 40.0), constant_weight(1.0, -40.0, 40.0))
    A = SquareMatrix([[0.0, -2.0], [0.5, 0.0]])
    rep = theorem_chain_check(f, pair, A, 2.0, PHI)
    assert rep.applicable, rep.reason
    assert rep.passed(1e-6), [(s.name, s.rel_slack) for s in rep.steps
                              if s.rel_slack < -1e-6]


@pytest.mark.parametrize("dim", [1, 2])
def test_chain_identity_bump_class_factor(dim):
    if dim == 1:
        f, w, A = corpus_function(256), power_weight(0.5, -40.0, 40.0), 2.0
    else:
        rng = np.random.default_rng(34)
        vals = rng.random((16, 16)) * 2.0
        vals[3:6, 9:12] = 30.0
        f = GridFunction(((-1.0, -1.0), (1.0, 1.0)), vals)
        w = (power_weight(0.5, -40.0, 40.0), constant_weight(1.0, -40.0, 40.0))
        A = SquareMatrix([[0.0, -2.0], [0.5, 0.0]])
    rep = theorem_chain_check(f, w, A, 2.0, YoungFn.identity())
    assert rep.applicable, rep.reason
    assert rep.passed(), [(s.name, s.rel_slack) for s in rep.steps
                          if s.rel_slack < -1e-6]
    assert rep.constants["bump_class_factor"] == 3.0 ** dim


def test_chain_vacuous_zero_function():
    f = GridFunction((-1.0, 1.0), np.zeros(64))
    w = constant_weight(1.0, -40.0, 40.0)
    rep = theorem_chain_check(f, w, 2.0, 2.0, PHI)
    assert rep.applicable
    assert [s.name for s in rep.steps] == ["vacuous"]
    assert rep.passed()


@pytest.mark.parametrize("p", [math.inf, math.nan], ids=["inf", "nan"])
def test_chain_rejects_a_nonfinite_p(p):
    f = GridFunction((-1.0, 1.0), np.random.default_rng(0).random(64))
    with pytest.raises(ValueError, match="need a finite p > 1"):
        theorem_chain_check(f, power_weight(0.5, -40.0, 40.0), 2.0, p, PHI)


def test_chain_underflowing_rhs_of_a_nonzero_f_is_not_vacuous():
    """At p = 1e308 every f^p of this f in [0, 1) underflows, so the
    right-hand side rounds to 0 although f is not zero: the chain has
    nothing to replay and says why, instead of passing as vacuous."""
    f = GridFunction((-1.0, 1.0), np.random.default_rng(0).random(64))
    rep = theorem_chain_check(f, power_weight(0.5, -40.0, 40.0), 2.0, 1e308,
                              PHI)
    assert not rep.applicable and not rep.passed()
    assert rep.reason == ("right-hand side underflows: the integral of f^p "
                          "w rounds to 0 at p = 1e+308 on a nonzero f")


def test_chain_overflowing_powers_give_a_report():
    """At p = 200 the plateau of 40 in the chain corpus gives f^p beyond the
    float range: the right-hand side overflows, and the chain says so,
    without a warning.  At p = 400 on f = 5 the right-hand side stays
    finite, but the level powers a^(k q) do not; at q = 1592 (p = 3.99,
    alpha = 1/4) neither do the whole-grid powers w^q.  Each case is a
    not-applicable report naming the overflow, not an OverflowError."""
    import warnings
    w = power_weight(0.5, -40.0, 40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = theorem_chain_check(corpus_function(64), w, 2.0, 200.0, PHI)
        assert not rep.applicable and not rep.passed()
        assert rep.reason == ("right-hand side overflows: the integral of "
                              "f^p w leaves the float range at p = 200.0")
        five = GridFunction((-1.0, 1.0), np.full(64, 5.0))
        for p, alpha in ((400.0, 0.0), (3.99, 0.25)):
            rep = theorem_chain_check(five, w, 2.0, p, PHI, alpha=alpha)
            assert not rep.applicable and not rep.passed()
            assert rep.reason == ("a power of the chain overflows the float "
                                  f"range at p = {p!r}, before its first step")
        rep = theorem_chain_check(GridFunction((-1.0, 1.0), np.full(64, 0.5)),
                                  w, 2.0, 400.0, PHI)
        assert rep.reason.endswith("at p = 400.0, after step s1_slicing")
        assert [s.name for s in rep.steps] == ["tail", "s1_slicing"]


def test_chain_sup_phi_has_no_bump_class_check():
    """phi = sup is not homogeneous, so no norms on the tripled cubes are
    taken and the three bump-class constants are None."""
    rep = theorem_chain_check(corpus_function(64),
                              power_weight(0.5, -40.0, 40.0), 2.0, 2.0,
                              YoungFn("sup"))
    assert rep.applicable, rep.reason
    assert rep.passed()
    assert [rep.constants[k] for k in ("bump_on_triples", "bump_class_factor",
                                       "bump_class_consistent")] == [None] * 3


def test_chain_inapplicable_outside_weight_support():
    f = corpus_function()
    w = power_weight(0.5, -2.0, 2.0)     # support too small for the 4x box
    rep = theorem_chain_check(f, w, 2.0, 2.0, PHI)
    assert not rep.applicable
    assert not rep.passed()
    assert "vanishes" in rep.reason


def test_chain_inapplicable_nonhomogeneous_complement():
    f = corpus_function(64)
    w = constant_weight(1.0, -40.0, 40.0)
    rep = theorem_chain_check(f, w, 2.0, 2.0, YoungFn.exp_minus_one())
    assert not rep.applicable
    assert "maximal field" in rep.reason


def test_chain_rejects_non_power_of_two():
    f = GridFunction((-1.0, 1.0), np.ones(48))
    w = constant_weight(1.0, -40.0, 40.0)
    with pytest.raises(ValueError, match="power-of-two"):
        theorem_chain_check(f, w, 2.0, 2.0, PHI)
    one_cell = GridFunction((-1.0, 1.0), np.ones(1))    # 1 is a power of two
    with pytest.raises(ValueError, match="at least two cells per axis"):
        theorem_chain_check(one_cell, w, 2.0, 2.0, PHI)


def test_chain_json_dict_is_serializable():
    from weightlab.report import canonical_json
    f = corpus_function(64)
    w = power_weight(0.5, -40.0, 40.0)
    rep = theorem_chain_check(f, w, 2.0, 2.0, PHI)
    text = canonical_json(rep.to_json_dict())
    assert '"applicable": true' in text and '"final"' in text

def test_chain_2d_peak_memory_in_grids():
    """The tracemalloc peak of the 2D chain on the acceptance-5 corpus at
    128^2 cells (embedded in 512^2), with the acceptance-5 weight pair and
    A = -I/2, in float grids of 512^2 cells.  The bound is 6.82 grids plus
    10%, the peak measured when w still lived through the dyadic sweep of
    M f, so a whole grid kept alive past its last use fails it.  Now that
    w is sampled again for the norms, the measured peak is 6.31 grids, at
    the dual weight's norm on the clipped triple that covers the grid."""
    args = (acceptance_grid_2d(128), PAIR, SquareMatrix.scalar(-0.5, 2), 2.0,
            PHI)
    theorem_chain_check(*args)          # imports and caches stay out
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = theorem_chain_check(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.applicable and rep.passed()
    grids = peak / (512 ** 2 * 8)
    assert grids <= 6.82 * 1.1, grids


def test_chain_last_case_of_a_key_drops_its_grids():
    """The chain of ``test_chain_2d_peak_memory_in_grids``, a batch of one,
    is the last case of its matrix and of its (w, A) pair: the cell
    transport and the pulled-back image-side weight, which a batch keeps
    for later cases of their key, are freed at their last use here.  The
    tracemalloc peak is 6.31 grids of 512^2 cells; either one kept
    through the norms adds a grid (7.31 measured)."""
    args = (acceptance_grid_2d(128), PAIR, SquareMatrix.scalar(-0.5, 2), 2.0,
            PHI)
    theorem_chain_check(*args)          # imports and caches stay out
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = theorem_chain_check(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.applicable and rep.passed()
    grids = peak / (512 ** 2 * 8)
    assert grids <= 6.31 + 0.5, grids


@pytest.mark.parametrize("f, w, A", [
    (corpus_function(2 ** 14), PAIR[0], -2.0),
    (acceptance_grid_2d(128), PAIR, SquareMatrix.scalar(-0.5, 2)),
], ids=["1d", "2d"])
def test_chain_substitution_identity_at_rounding(f, w, A):
    """On the shapes of the chain benchmark (the acceptance-5 corpora and
    weights, p = 2), the s2d change of variables |det A| int_Q w_A =
    int_{A(Q)} w holds to rounding: both sides are row sums over the same
    gathered cells, one mass column each, on every tripled cube."""
    rep = theorem_chain_check(f, w, A, 2.0, PHI)
    step = next(s for s in rep.steps if s.name == "s2d_substitution")
    assert abs(step.extra["identity_defect"]) <= 1e-15, step.extra


@pytest.mark.parametrize("n, A, kw, digest", [
    (128, -2.0, {},
     "48511d469521dc874e32ce6f94fb7d40e2c07005716328d05afb0203d93b965c"),
    (128, 2.0, {"alpha": 0.25, "a": 2.5},
     "1c784c3f9a25834e45664165724f70112aec1dab90fd446af9e8ecebc9d54ef5"),
    (64, SquareMatrix.scalar(-0.5, 2), {},
     "3095354ef873f47af929fce44e311006cc89f775f86797b32f7037d392e00c0f"),
    (32, SquareMatrix([[0.0, 1.0], [1.0, 0.0]]), {},
     "86c7bdb7893e7be15ca216ad5a71ec4a9560200541cae8e0eac5e5ed06b84d10"),
], ids=["1d-reflect-scale", "1d-fractional", "2d-negative-half", "2d-axis-swap"])
def test_chain_report_bytes_frozen(n, A, kw, digest):
    """sha256 of the canonical JSON of four chain reports with p = 2 and
    phi = t^3: in 1D with the weight |x|^(1/2), in 2D with the product
    weight |x|^(1/2) |y|^(-1/4), whose two distinct factors the axis swap
    exchanges.  a = 2.5 gives the fractional chain three levels, not one.
    The 2D grids are large enough that the summation order of the per-cube
    masses shows in the bytes."""
    from weightlab.report import canonical_json
    w = power_weight(0.5, -40.0, 40.0)
    if isinstance(A, float):
        f = corpus_function(n)
    else:
        f, w = corpus_grid_2d(n), (w, power_weight(-0.25, -40.0, 40.0))
    rep = theorem_chain_check(f, w, A, 2.0, PHI, **kw)
    assert rep.applicable, rep.reason
    text = canonical_json(rep.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# batches of chains on one f
# ---------------------------------------------------------------------------

def _report_bytes(rep) -> str:
    from weightlab.report import canonical_json
    return canonical_json(rep.to_json_dict())


@pytest.mark.parametrize("alpha", [0.0, 0.25], ids=["plain", "fractional"])
def test_chain_batch_equals_single_calls_on_the_theorems_corpus(alpha):
    """The theorems suite's two batches: every report has the bytes of the
    single call on its case."""
    from weightlab.suites import _CHAIN_WEIGHTS, _chain_corpus_function
    f = _chain_corpus_function()
    ps = (1.5, 2.0) if alpha == 0.0 else (2.0,)
    cases = [(mk(), lam, p) for mk in _CHAIN_WEIGHTS.values()
             for lam in (0.5, -0.5, 2.0, -2.0) for p in ps]
    batch = czlab.theorem_chain_checks(f, cases, PHI, alpha=alpha)
    assert len(batch) == len(cases)
    assert [_report_bytes(rep) for rep in batch] == [
        _report_bytes(theorem_chain_check(f, w, A, p, PHI, alpha=alpha))
        for w, A, p in cases]


_SWAP = SquareMatrix([[0.0, 1.0], [1.0, 0.0]])
_CASES_2D = [
    (PAIR, SquareMatrix.scalar(-0.5, 2), 2.0),
    (PAIR, _SWAP, 1.5),
    (PAIR, SquareMatrix([[1.0, 1.0], [0.0, 1.0]]), 2.0),   # not monomial
    (PAIR, SquareMatrix([[2.0, 0.0], [0.0, 0.5]]), 2.0),
]


def test_chain_2d_batch_equals_single_calls_in_either_order():
    """A 2D batch on the acceptance-5 corpus and weight pair, with a shear
    (a not-applicable report) in the middle: forward and reversed, every
    report has the bytes of its single call, so no case changes what the
    cases after it read.  On a zero f every report is the vacuous one."""
    f = acceptance_grid_2d(64)
    single = [_report_bytes(theorem_chain_check(f, *case, PHI))
              for case in _CASES_2D]
    assert [json.loads(s)["applicable"] for s in single] == \
        [True, True, False, True]
    for order in (1, -1):
        batch = czlab.theorem_chain_checks(f, _CASES_2D[::order], PHI)
        assert [_report_bytes(rep) for rep in batch] == single[::order]
    zero = GridFunction(((-1.0, -1.0), (1.0, 1.0)), np.zeros(f.shape))
    batch = czlab.theorem_chain_checks(zero, _CASES_2D, PHI)
    assert [_report_bytes(rep) for rep in batch] == [
        _report_bytes(theorem_chain_check(zero, *case, PHI))
        for case in _CASES_2D]
    assert batch[0].reason == "f is zero; chain is vacuous"


def test_chain_2d_batch_peak_memory_in_grids():
    """A second case adds at most 1.3 grids of 512^2 cells to the
    tracemalloc peak of the 2D chain of
    ``test_chain_2d_peak_memory_in_grids``: the cases share the unpowered
    dyadic field (one grid) and its layer labels (a quarter grid)."""
    f = acceptance_grid_2d(128)
    one = _CASES_2D[:1]
    two = one + [(PAIR, _SWAP, 2.0)]
    czlab.theorem_chain_checks(f, one, PHI)     # imports and caches stay out
    peaks = []
    for cases in (one, two):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reps = czlab.theorem_chain_checks(f, cases, PHI)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert all(rep.applicable and rep.passed() for rep in reps)
    extra = (peaks[1] - peaks[0]) / (512 ** 2 * 8)
    assert extra <= 1.3, (extra, [p / (512 ** 2 * 8) for p in peaks])


def test_chain_batch_half_built_by_the_first_case_that_reaches_it(
        monkeypatch):
    """A 2D batch whose first case of (PAIR, 2) stops before the shared
    half (a shear, which the product weight cannot compose with): the next
    case of that (w, p) builds it, a duplicated case reads it, and a weight
    with the same factors in the other order gets a half of its own.  On
    one sweep per (w, p) that reaches it, every report has the bytes of its
    single call, forward and reversed."""
    f = acceptance_grid_2d(16)
    swapped = PAIR[::-1]
    cases = [
        (PAIR, SquareMatrix([[1.0, 1.0], [0.0, 1.0]]), 2.0),
        (PAIR, SquareMatrix.scalar(-0.5, 2), 2.0),
        (PAIR, _SWAP, 1.5),
        (PAIR, SquareMatrix.scalar(-0.5, 2), 2.0),
        (swapped, _SWAP, 2.0),
        (PAIR, SquareMatrix([[2.0, 0.0], [0.0, 0.5]]), 2.0),
    ]
    single = [_report_bytes(theorem_chain_check(f, *case, PHI))
              for case in cases]
    assert json.loads(single[0])["reason"] == \
        "2D weights support diagonal or antidiagonal matrices"
    assert all(json.loads(s)["applicable"] for s in single[1:])
    assert single[1] == single[3]
    sweeps = []
    real = czlab.orlicz_maximal
    monkeypatch.setattr(czlab, "orlicz_maximal",
                        lambda *a, **k: sweeps.append(1) or real(*a, **k))
    for order in (1, -1):
        batch = czlab.theorem_chain_checks(f, cases[::order], PHI)
        assert [_report_bytes(rep) for rep in batch] == single[::order]
        assert len(sweeps) == 3
        sweeps.clear()


def test_chain_batch_resolves_each_matrix_once(monkeypatch):
    """The theorems suite's 1D batch names four scalars over its 24 cases:
    each is resolved into a matrix once per call (numpy det and inv), a
    second call resolves them again, and the reports keep their bytes."""
    from weightlab.suites import _CHAIN_WEIGHTS, _chain_corpus_function
    f = _chain_corpus_function()
    cases = [(mk(), lam, p) for mk in _CHAIN_WEIGHTS.values()
             for lam in (0.5, -0.5, 2.0, -2.0) for p in (1.5, 2.0)]
    single = [_report_bytes(rep) for rep in
              czlab.theorem_chain_checks(f, cases, PHI)]
    resolved = []
    real = czlab.resolve_matrix
    monkeypatch.setattr(czlab, "resolve_matrix",
                        lambda A, dim: resolved.append(A) or real(A, dim))
    for _ in range(2):
        batch = czlab.theorem_chain_checks(f, cases, PHI)
        assert [_report_bytes(rep) for rep in batch] == single
        assert sorted(resolved) == [-2.0, -0.5, 0.5, 2.0]
        resolved.clear()


def _spy_transport_and_image_sampling(monkeypatch, Y):
    """Logs of the cell transports and of the weight samplings on a box
    other than Y (the image side's): the matrix per transport, and the
    factors' identities and the box per sampling."""
    transports, images = [], []
    transport, sample = czlab._cell_transport, czlab.product_averages

    def spy_transport(grid, A):
        transports.append(A)
        return transport(grid, A)

    def spy_sample(factors, lo, hi, n):
        if (tuple(lo), tuple(hi)) != Y:
            images.append((tuple(map(id, factors)), tuple(lo), tuple(hi)))
        return sample(factors, lo, hi, n)

    monkeypatch.setattr(czlab, "_cell_transport", spy_transport)
    monkeypatch.setattr(czlab, "product_averages", spy_sample)
    return transports, images


@pytest.mark.parametrize("alpha", [0.0, 0.25], ids=["plain", "fractional"])
def test_chain_batch_shares_each_matrix_and_weight_matrix_pair(
        monkeypatch, alpha):
    """Two weights and two scalars at three exponents, interleaved as
    (A1, p1), (A2, p1), (A1, p2), with (w, A) pairs repeated at other p
    and one case repeated whole: forward and reversed, every report has
    the bytes of its single call.  A call transports the cells once per
    distinct A and samples the image-side weight once per (w, A); the
    fractional chain raises it to the power q, so there once per
    (w, A, p)."""
    f = corpus_function(64)
    w1, w2 = power_weight(0.5, -40.0, 40.0), power_weight(-0.25, -40.0, 40.0)
    cases = [(w1, 2.0, 1.5), (w1, -0.5, 1.5), (w1, 2.0, 2.0), (w2, 2.0, 2.0),
             (w1, -0.5, 3.0), (w2, 2.0, 1.5), (w1, 2.0, 1.5)]
    single = [_report_bytes(theorem_chain_check(f, *case, PHI, alpha=alpha))
              for case in cases]
    assert all(json.loads(s)["applicable"] for s in single)
    transports, images = _spy_transport_and_image_sampling(
        monkeypatch, ((-4.0,), (4.0,)))
    for order in (1, -1):
        batch = czlab.theorem_chain_checks(f, cases[::order], PHI,
                                           alpha=alpha)
        assert [_report_bytes(rep) for rep in batch] == single[::order]
        assert sorted(A.det for A in transports) == [-0.5, 2.0]
        pairs = {(id(w), A) for w, A, _ in cases}
        triples = set((id(w), A, p) for w, A, p in cases)
        assert len(images) == len(pairs if alpha == 0.0 else triples)
        transports.clear()
        images.clear()


def test_chain_2d_batch_shares_transports_around_failing_compositions(
        monkeypatch):
    """A 2D batch that interleaves two matrices at two exponents with a
    shear, which the product weight cannot compose with, between them:
    forward and reversed, every report has the bytes of its single call,
    the shear gets its not-applicable report each time, and the batch
    transports the cells and samples the image-side weight once per
    composable matrix."""
    f = acceptance_grid_2d(16)
    shear = SquareMatrix([[1.0, 1.0], [0.0, 1.0]])
    half = SquareMatrix.scalar(-0.5, 2)
    swap = SquareMatrix([[0.0, 2.0], [0.5, 0.0]])  # its image box is not Y
    cases = [(PAIR, half, 2.0), (PAIR, shear, 2.0), (PAIR, swap, 2.0),
             (PAIR, half, 1.5), (PAIR, shear, 1.5), (PAIR, swap, 1.5)]
    single = [_report_bytes(theorem_chain_check(f, *case, PHI))
              for case in cases]
    assert [json.loads(s)["applicable"] for s in single] == \
        [True, False, True] * 2
    transports, images = _spy_transport_and_image_sampling(
        monkeypatch, ((-4.0, -4.0), (4.0, 4.0)))
    for order in (1, -1):
        batch = czlab.theorem_chain_checks(f, cases[::order], PHI)
        assert [_report_bytes(rep) for rep in batch] == single[::order]
        assert sorted(map(id, transports)) == sorted([id(half), id(swap)])
        assert len(images) == 2
        transports.clear()
        images.clear()
