"""Maximal-field sweeps against the literal all-windows oracles of
``reference.py``.

The oracles enumerate every admissible window per cell in O(n^3); grids are
kept small so the comparison stays exhaustive.  Frozen values for the unit
indicator were derived by hand from the discrete definition.  The fast
paths for every position of each length are also held bit for bit to
``per_length_sweep``, a slow reference that spreads each length on its own
from functionals over the whole grid.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightlab.funcspace import (
    Cube,
    CubeFamily,
    GridFunction,
    SquareMatrix,
    _cumsum_prefix,
    compose_matrix,
    power_weight,
    sample_to_grid,
)
from weightlab import maximal
from weightlab.maximal import (
    _averages,
    _box_prefix,
    _doubling_max,
    _length_list,
    _nested_max,
    _support_box,
    _widen,
    _window_maxima,
    dyadic_maximal,
    fractional_maximal,
    hl_maximal,
    hl_maximals,
    image_box,
    matrix_compose,
    orlicz_maximal,
    preimage_cells,
)
from weightlab.young import YoungFn, luxemburg_norm_of_values
from reference import (
    brute_dyadic_1d,
    brute_family_field,
    brute_field_1d,
    brute_field_2d,
    brute_trailing_max,
    per_length_sweep,
    prefix_averages,
    preimage_cells_every_term,
    window_maxima,
)


# ---------------------------------------------------------------------------
# Hardy-Littlewood
# ---------------------------------------------------------------------------

def test_hl_matches_brute_1d():
    rng = np.random.default_rng(7)
    vals = rng.random(48)
    g = GridFunction((0.0, 3.0), vals)
    got = hl_maximal(g)
    ref = brute_field_1d(vals, g.h[0])
    np.testing.assert_allclose(got.values, ref, rtol=1e-12)


def test_hl_matches_brute_2d():
    rng = np.random.default_rng(8)
    vals = rng.random((10, 10))
    g = GridFunction(((0.0, 0.0), (1.0, 1.0)), vals)
    got = hl_maximal(g)
    ref = brute_field_2d(vals, g.h[0])
    np.testing.assert_allclose(got.values, ref, rtol=1e-12)


def test_hl_unit_indicator_frozen_values():
    # indicator of [0,1) on [-4,4) with 32 cells; ones occupy cells 16..19
    vals = np.zeros(32)
    vals[16:20] = 1.0
    g = GridFunction((-4.0, 4.0), vals)
    got = hl_maximal(g).values
    assert got[0] == pytest.approx(0.2, abs=1e-15)        # window [0,20)
    assert got[17] == pytest.approx(1.0, abs=1e-15)       # the cell itself
    assert got[24] == pytest.approx(4.0 / 9.0, abs=1e-15)  # window [16,25)
    np.testing.assert_allclose(got, brute_field_1d(vals, 0.25), rtol=1e-13)


def test_hl_bounds_and_monotone_in_f():
    rng = np.random.default_rng(9)
    vals = rng.random(40)
    g = GridFunction((0.0, 1.0), vals)
    M = hl_maximal(g).values
    assert np.all(M >= vals - 1e-12)          # the one-cell window
    assert np.all(M <= vals.max() + 1e-12)
    bigger = GridFunction((0.0, 1.0), vals + 0.25)
    assert np.all(hl_maximal(bigger).values >= M - 1e-12)


def test_hl_dyadic_lengths_mode():
    rng = np.random.default_rng(10)
    vals = rng.random(32)
    g = GridFunction((0.0, 2.0), vals)
    got = hl_maximal(g, lengths="dyadic").values
    ref = brute_field_1d(vals, g.h[0], lengths=[1, 2, 4, 8, 16, 32])
    np.testing.assert_allclose(got, ref, rtol=1e-12)
    assert np.all(got <= hl_maximal(g).values + 1e-15)


def test_lengths_array_equals_list():
    g = GridFunction((0.0, 1.0), np.random.default_rng(19).random(16))
    for Ls in ([1, 2, 4], [3, 16]):
        assert np.array_equal(hl_maximal(g, lengths=np.array(Ls)).values,
                              hl_maximal(g, lengths=Ls).values)
        assert np.array_equal(
            fractional_maximal(g, 0.5, lengths=np.array(Ls)).values,
            fractional_maximal(g, 0.5, lengths=Ls).values)
    with pytest.raises(ValueError, match="lengths must be"):
        hl_maximal(g, lengths="every")


def test_hl_family_restriction_is_dominated():
    rng = np.random.default_rng(11)
    vals = rng.random(32)
    g = GridFunction((0.0, 2.0), vals)
    fam = CubeFamily((0.0, 2.0), levels=(0, 5), shifts=2)
    restricted = hl_maximal(g, family=fam).values
    assert np.all(restricted <= hl_maximal(g).values + 1e-15)


@pytest.mark.parametrize("box, n, levels, shifts", [
    ((0.0, 2.0), 64, (0, 5), 2),
    ((0.0, 3.0), 48, (0, 4), 3),
    (((0.0, 0.0), (1.0, 1.0)), 16, (0, 3), 2),
])
def test_family_fields_match_per_cube_brute(box, n, levels, shifts):
    rng = np.random.default_rng(23)
    dim = 1 if np.isscalar(box[0]) else 2
    g = GridFunction(box, rng.random((n,) * dim))
    fam = CubeFamily(box, levels=levels, shifts=shifts)
    np.testing.assert_allclose(
        hl_maximal(g, family=fam).values,
        brute_family_field(g, fam, lambda v, side: v.mean()), rtol=1e-12)
    np.testing.assert_allclose(
        fractional_maximal(g, 0.5, family=fam).values,
        brute_family_field(g, fam, lambda v, side: v.mean() * side ** 0.5),
        rtol=1e-12)
    assert np.array_equal(
        orlicz_maximal(g, YoungFn("sup"), family=fam).values,
        brute_family_field(g, fam, lambda v, side: v.max()))


def test_family_box_mismatch_rejected():
    g = GridFunction((0.0, 2.0), np.ones(8))
    with pytest.raises(ValueError):
        hl_maximal(g, family=CubeFamily((0.0, 4.0), levels=(0, 2)))


# ---------------------------------------------------------------------------
# dyadic and fractional
# ---------------------------------------------------------------------------

def test_dyadic_matches_brute():
    rng = np.random.default_rng(12)
    vals = rng.random(64)
    g = GridFunction((-1.0, 1.0), vals)
    np.testing.assert_allclose(dyadic_maximal(g).values,
                               brute_dyadic_1d(vals), rtol=1e-12)


def test_dyadic_matches_brute_2d():
    rng = np.random.default_rng(24)
    box = ((-1.0, -1.0), (1.0, 1.0))
    g = GridFunction(box, rng.random((16, 16)))
    splits = CubeFamily(box, levels=(0, 4))     # dyadic splits down to cells
    np.testing.assert_allclose(
        dyadic_maximal(g).values,
        brute_family_field(g, splits, lambda v, side: v.mean()), rtol=1e-12)


def test_dyadic_below_hl():
    rng = np.random.default_rng(13)
    vals = rng.random(32)
    g = GridFunction((0.0, 1.0), vals)
    assert np.all(dyadic_maximal(g).values <= hl_maximal(g).values + 1e-15)


def test_fractional_matches_brute():
    rng = np.random.default_rng(14)
    vals = rng.random(32)
    g = GridFunction((0.0, 2.0), vals)
    for alpha in (0.25, 0.5, 0.9):
        got = fractional_maximal(g, alpha).values
        ref = brute_field_1d(vals, g.h[0], alpha=alpha)
        np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_fractional_alpha_zero_is_bitwise_hl():
    rng = np.random.default_rng(15)
    for n in (16, 37, 64):
        vals = rng.random(n)
        g = GridFunction((0.0, 1.0), vals)
        assert np.array_equal(fractional_maximal(g, 0.0).values,
                              hl_maximal(g).values)


def test_fractional_alpha_range_checked():
    g = GridFunction((0.0, 1.0), np.ones(8))
    with pytest.raises(ValueError):
        fractional_maximal(g, 1.0)
    with pytest.raises(ValueError):
        fractional_maximal(g, -0.1)


@pytest.mark.parametrize("alpha", [-0.1, 1.0, math.nan])
def test_orlicz_alpha_range_checked(alpha):
    # the sup kind reads the largest side only, which needs alpha >= 0
    g = GridFunction((0.0, 1.0), np.ones(8))
    for phi in (YoungFn("sup"), YoungFn.power(2.0), YoungFn.identity()):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, dim\)"):
            orlicz_maximal(g, phi, alpha=alpha)


# ---------------------------------------------------------------------------
# Orlicz
# ---------------------------------------------------------------------------

def test_orlicz_identity_equals_hl_bitwise():
    rng = np.random.default_rng(16)
    vals = rng.random(24)
    g = GridFunction((0.0, 1.0), vals)
    assert np.array_equal(orlicz_maximal(g, YoungFn.identity()).values,
                          hl_maximal(g).values)


def test_orlicz_power_matches_powered_mean_brute():
    rng = np.random.default_rng(17)
    vals = rng.random(24) + 0.05
    g = GridFunction((0.0, 3.0), vals)
    for r, alpha in ((2.0, 0.0), (1.5, 0.5)):
        got = orlicz_maximal(g, YoungFn.power(r), alpha=alpha).values
        ref = brute_field_1d(vals, g.h[0], alpha=alpha, r=r)
        np.testing.assert_allclose(got, ref, rtol=1e-11)


def test_orlicz_sup_kind_is_windowed_max():
    rng = np.random.default_rng(18)
    vals = rng.random(20)
    g = GridFunction((0.0, 1.0), vals)
    # "dyadic" keeps the whole box, whose window holds the global maximum;
    # only lengths short of n leave a field that differs from "all"
    for lengths, Ls in (("all", None), ("dyadic", [1, 5, 10, 20]),
                        ([1, 2, 4], [1, 2, 4])):
        got = orlicz_maximal(g, YoungFn("sup"), lengths=lengths).values
        ref = brute_field_1d(vals, g.h[0], lengths=Ls, sup=True)
        np.testing.assert_allclose(got, ref, rtol=1e-13)


def test_orlicz_nonhomogeneous_needs_family():
    g = GridFunction((0.0, 1.0), np.ones(8))
    with pytest.raises(ValueError):
        orlicz_maximal(g, YoungFn.exp_minus_one())


def test_orlicz_nonhomogeneous_family_vs_per_cube_oracle():
    from scipy.optimize import brentq
    rng = np.random.default_rng(19)
    vals = rng.random(16) + 0.1
    g = GridFunction((0.0, 1.0), vals)
    fam = CubeFamily((0.0, 1.0), levels=(0, 2), shifts=1)
    phi = YoungFn.exp_minus_one()
    got = orlicz_maximal(g, phi, family=fam).values

    def norm(win):
        def excess(lam):
            with np.errstate(over="ignore"):
                return min(float(np.mean(np.expm1(win / lam))), 1e12) - 1.0
        return brentq(excess, win.max() * 1e-6, win.max() * 64.0, rtol=1e-13)

    ref = np.zeros(16)
    for side in (16, 8, 4):
        for s in range(0, 16, side):
            m = norm(vals[s:s + side])
            np.maximum(ref[s:s + side], m, out=ref[s:s + side])
    np.testing.assert_allclose(got, ref, rtol=1e-7)


@pytest.mark.parametrize("phi", [YoungFn.exp_minus_one(),
                                 YoungFn.power_log(1.5, 1.0)],
                         ids=["exp", "power-log"])
def test_orlicz_2d_family_field_is_bitwise_the_per_cube_norms(phi):
    # the lattice's windows are normed as rows at once; each row holds its
    # cube's cells in row-major order, as the one-cube norm reads them
    rng = np.random.default_rng(20)
    vals = rng.random((16, 16)) * 3.0
    vals[vals < 1.0] = 0.0
    box = ((0.0, 0.0), (2.0, 2.0))
    g = GridFunction(box, vals)
    fam = CubeFamily(box, levels=(0, 3), shifts=2)
    got = orlicz_maximal(g, phi, family=fam).values
    ref = brute_family_field(
        g, fam, lambda cells, side: luxemburg_norm_of_values(cells, phi))
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_orlicz_sup_family_down_to_single_cells_leaves_f_unchanged():
    # at side 1 the window maxima are f's own cells; the clamp that reads
    # -0.0 as +0.0 must not write into f
    rng = np.random.default_rng(21)
    vals = np.where(rng.random(16) < 0.5, rng.random(16), -0.0)
    g = GridFunction((0.0, 1.0), vals)
    before = vals.copy()
    fam = CubeFamily((0.0, 1.0), levels=(0, 4), shifts=1)
    got = orlicz_maximal(g, YoungFn("sup"), family=fam).values
    assert np.array_equal(g.values, before)
    assert np.array_equal(np.signbit(g.values), np.signbit(before))
    ref = brute_family_field(
        g, fam, lambda cells, side: np.where(cells.max() > 0.0,
                                             cells.max(), 0.0))
    assert np.array_equal(got, ref)
    assert not np.signbit(got).any()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.0, 8.0), min_size=4, max_size=24))
def test_hl_dominates_average_everywhere(raw):
    vals = np.asarray(raw)
    g = GridFunction((0.0, 1.0), vals)
    M = hl_maximal(g).values
    assert np.all(M >= vals.mean() - 1e-12)   # the full-box window


# ---------------------------------------------------------------------------
# every 1D length: the quadrant maximum
# ---------------------------------------------------------------------------

def _hard_inputs(n, dim=1):
    """Zeros, a subnormal hot cell, dyadic-rational ties and a huge
    dynamic range."""
    rng = np.random.default_rng(n)
    shape = (n,) * dim
    hot = np.zeros(shape)
    hot[(n // 3,) * dim] = 5e-324
    return {"zeros": np.zeros(shape), "subnormal": hot,
            "dyadic-ties": rng.integers(0, 4, shape) / 8.0,
            "huge-range": np.exp(rng.normal(0.0, 30.0, shape))}


_RANDOM_BLOCKS = ("off-centre-block", "two-blocks", "chain-block")


def _sparse_inputs(n, dim=1):
    """A hot block at an edge, at a corner and at the centre, one hot cell,
    and -0.0 cells among zeros and among dyadic values.  Then blocks of
    random dyadic-rational cells: off-centre with unequal row and column
    ranges, two separated ones, and the theorem chain's shape (n/4 cells
    per axis at offset 3n/8)."""
    rng = np.random.default_rng([n, dim])
    shape = (n,) * dim
    k = max(1, n // 4)
    c = (n - k) // 2
    hot = {"edge-block": (slice(n - k, n),) + (slice(c, c + k),) * (dim - 1),
           "corner-block": (slice(0, k),) * dim,
           "centre-block": (slice(c, c + k),) * dim,
           "hot-cell": (n // 2,) * dim}
    out = {}
    for name, cells in hot.items():
        out[name] = np.zeros(shape)
        out[name][cells] = 3.0
    negative = rng.random(shape) < 0.5
    out["signed-zeros"] = np.where(negative, -0.0, 0.0)
    out["dyadic-negative-zeros"] = np.where(negative, -0.0,
                                            rng.integers(0, 3, shape) / 4.0)

    def span(start, cells):
        return slice(start, start + max(1, cells))
    blocks = {"off-centre-block": [(span(n // 5, n // 3),
                                    span(n // 2, n // 6))[:dim]],
              "two-blocks": [(span(n // 8, n // 8), span(n // 2, n // 8))[:dim],
                             (span(5 * n // 8, n // 8),
                              span(n // 4, n // 8))[:dim]],
              "chain-block": [(span(3 * n // 8, n // 4),) * dim]}
    for name, spans in blocks.items():
        out[name] = np.zeros(shape)
        for cells in spans:
            out[name][cells] = rng.integers(1, 64, out[name][cells].shape) / 16.0
    return out


def _every_length_cases(g, powers=True):
    """(field, reference functional, alpha) of each operator that takes the
    quadrant path on a 1D grid with every length; powers=False leaves out
    the Orlicz powers."""
    cases = [(hl_maximal(g), prefix_averages(g), 0.0)]
    for alpha in (0.3, 0.7):
        cases.append((fractional_maximal(g, alpha), prefix_averages(g), alpha))
    for r in (1.5, 3.0) if powers else ():
        phi = YoungFn.power(r)
        cases.append((orlicz_maximal(g, phi),
                      prefix_averages(g, phi.r, phi.c), 0.0))
    return cases


def _assert_bitwise_per_length_sweep(n):
    for name, vals in _hard_inputs(n).items():
        g = GridFunction((-1.0, 2.0), vals)
        for k, (field, cube_values, alpha) in enumerate(_every_length_cases(g)):
            ref = per_length_sweep(g, "all", cube_values, alpha)
            assert np.array_equal(field.values, ref), (name, k)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 33, 1000])
def test_every_length_1d_is_bitwise_the_per_length_sweep(n):
    # n = 1000 spans many blocks of rows
    _assert_bitwise_per_length_sweep(n)


@pytest.mark.parametrize("n", [2, 5, 17, 40])
def test_every_length_1d_block_seams(monkeypatch, n):
    # blocks of one to three rows put a seam next to every cell or almost
    # every cell, and three rows leave a short last block
    for rows in (1, 2, 3):
        monkeypatch.setattr(maximal, "_BLOCK_ROWS", rows)
        _assert_bitwise_per_length_sweep(n)


def _window_requests(monkeypatch):
    """The shapes of the window-sum arrays that ``_window_means`` is asked
    for, logged as the functionals make them."""
    shapes = []
    window_means = maximal._window_means

    def counted(S, *args):
        shapes.append(S.shape)
        return window_means(S, *args)

    monkeypatch.setattr(maximal, "_window_means", counted)
    return shapes


def _fields_corpus(n, seed):
    """The ``fields`` benchmark's 1D shape: squared uniforms times 3 with a
    plateau of 40 on n/24 cells from n/6 on."""
    vals = np.random.default_rng(seed).random(n) ** 2 * 3.0
    vals[n // 6:n // 6 + n // 24] = 40.0
    return vals


def _tail_windows(shapes):
    """The windows of the tail requests, the 3D (grids, rows, ends) ones."""
    return sum(math.prod(shape) for shape in shapes if len(shape) == 3)


def test_every_length_1d_takes_fixed_row_blocks(monkeypatch):
    # a deterministic stand-in for a timing test: the quadrant maximum
    # builds the heads of every block of R rows at once, then the tail of
    # each block but the last, for chunks of as many grids as keep an array
    # within _BLOCK_CAP cells.  On the probe's 50 grids of 512 cells, in
    # seven chunks of several grids, each tail spans every column after its
    # rows: 32 requests a chunk, 224 in all where one grid at a time, in
    # blocks of 64 rows, took 400.  One grid alone computes only the tiles
    # of its tails that can raise a cell: on the fields corpus at 4096
    # cells at most a fifth of the windows of the 255 whole tails
    shapes = _window_requests(monkeypatch)
    n, rows = 512, 16
    hl_maximals([GridFunction((0.0, 1.0), np.full(n, 1.0 + k))
                 for k in range(50)])
    chunk = maximal._BLOCK_CAP // (rows * n)
    assert chunk == 8 and len(shapes) == 7 * n // rows == 224
    for g0 in range(0, 50, chunk):
        grids = min(chunk, 50 - g0)
        assert shapes[:n // rows] == [(rows, rows, grids, n // rows)] + \
            [(grids, rows, n - a - rows) for a in range(0, n - rows, rows)]
        del shapes[:n // rows]
    assert not shapes
    n = 4096
    rows = min(maximal._BLOCK_ROWS, maximal._BLOCK_CAP // n)
    assert rows == 16
    hl_maximal(GridFunction((-1.0, 1.0), _fields_corpus(n, 5)))
    assert shapes[0] == (rows, rows, 1, n // rows)
    tails = [shape for shape in shapes if len(shape) == 3]
    assert len(tails) <= n // rows - 1
    assert all(shape[:2] == (1, rows) for shape in tails)
    whole = sum(rows * (n - a - rows) for a in range(0, n - rows, rows))
    assert _tail_windows(shapes) <= 0.2 * whole


def _one_grid_inputs(n):
    """One-grid inputs of the pruned tails: the fields corpus, a 1e300 spike
    among 1e-300 cells, support of subnormal cells only among signed zeros,
    and -0.0 cells among uniforms to the fourth power."""
    rng = np.random.default_rng([n, 71])
    spike = np.full(n, 1e-300)
    spike[n // 3] = 1e300
    subnormal = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    subnormal[n // 4:n // 2] = rng.integers(0, 5, n // 2 - n // 4) * 5e-324
    signed = np.where(rng.random(n) < 0.3, -0.0, rng.random(n) ** 4)
    return {"fields": _fields_corpus(n, n), "spike": spike,
            "subnormal": subnormal, "signed-zeros": signed}


@pytest.mark.parametrize("name, n", [("fields", 1536), ("spike", 1000),
                                     ("subnormal", 1200),
                                     ("signed-zeros", 1031)])
def test_every_length_1d_pruned_tails_are_bitwise_the_per_length_sweep(
        monkeypatch, name, n):
    # a one-grid chunk skips the tail tiles whose bound lies below the
    # least lower bound of the cells they cover; every field keeps the
    # bits of the per-length sweep, sign bits included, for hl, alpha 0.3
    # and 0.7, and the powers r = 1.5 and 3 (not on the spike, whose
    # powers overflow).  Every input but one skips some tiles; a bound
    # below 2^-1000 never prunes, so subnormal support keeps every tail
    g = GridFunction((-1.0, 2.0), _one_grid_inputs(n)[name])
    shapes = _window_requests(monkeypatch)
    rows = min(maximal._BLOCK_ROWS, maximal._BLOCK_CAP // n)
    whole = sum(rows * (n - a - rows) for a in range(0, n - rows, rows))
    cases = _every_length_cases(g, powers=name != "spike")
    for field, cube_values, alpha in cases:
        ref = per_length_sweep(g, "all", cube_values, alpha)
        assert _same_bits(field.values, ref), (name, alpha)
    kept = _tail_windows(shapes) / (len(cases) * whole)
    assert (kept == 1.0) == (name == "subnormal"), kept


@pytest.mark.parametrize("n", [200, 257])
def test_every_length_1d_pruned_tile_seams(monkeypatch, n):
    # blocks of 3 and 16 rows against tiles of 1, 7 and 64 ends put the
    # seams of rows, tiles and runs of cells out of step
    for rows in (3, 16):
        for tile in (1, 7, 64):
            monkeypatch.setattr(maximal, "_BLOCK_ROWS", rows)
            monkeypatch.setattr(maximal, "_TILE_ENDS", tile)
            for name in ("fields", "spike", "signed-zeros"):
                g = GridFunction((-1.0, 2.0), _one_grid_inputs(n)[name])
                for field, cube_values, alpha in _every_length_cases(
                        g, powers=name != "spike"):
                    ref = per_length_sweep(g, "all", cube_values, alpha)
                    assert _same_bits(field.values, ref), (rows, tile, name)


# ---------------------------------------------------------------------------
# every 1D length on a stack of grids
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


def _stacked_inputs(n, count, huge=True):
    """count grids of n cells on one box, each nonzero only in its own
    support box, -0.0 and +0.0 cells outside it, in turn: dyadic rationals
    among zeros, a subnormal hot cell, values spread over 1e-300 to 1e300
    (with huge), uniforms, and no support at all."""
    rng = np.random.default_rng([n, count])
    kinds = (0, 1, 2, 3, 4) if huge else (0, 1, 3, 4)
    out = []
    for k in range(count):
        vals = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        s = int(rng.integers(0, n))
        e = int(rng.integers(s, n)) + 1
        kind = kinds[k % len(kinds)]
        if kind == 0:
            vals[s:e] = rng.integers(0, 4, e - s) / 8.0
        elif kind == 1:
            vals[(s + e) // 2] = 5e-324
        elif kind == 2:
            vals[s:e] = 10.0 ** rng.uniform(-300.0, 300.0, e - s)
        elif kind == 3:
            vals[s:e] = rng.random(e - s)
        out.append(GridFunction((-1.0, 2.0), vals))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5, 33, 512, 1000])
def test_hl_maximals_is_bitwise_each_grid_field(n):
    # stacks of 1, 2 and 50 grids with their own support boxes: each field
    # is the grid's own hl_maximal and the per-length sweep, sign bits
    # included.  50 grids of 512 cells run in chunks of 8, of 1000 cells
    # in chunks of 4; at 1000 cells the 50 are held to hl_maximal only
    for count in (1, 2, 50):
        fs = _stacked_inputs(n, count)
        got = hl_maximals(fs)
        assert len(got) == count
        for k, (f, field) in enumerate(zip(fs, got)):
            assert (field.lo, field.hi) == (f.lo, f.hi)
            assert _same_bits(field.values, hl_maximal(f).values), (count, k)
            if n < 1000 or count < 50:
                ref = per_length_sweep(f, "all", prefix_averages(f))
                assert _same_bits(field.values, ref), (count, k)


def test_hl_maximals_takes_any_grids():
    # 1D grids of several cell counts and boxes, in any order, and 2D
    # grids, which take hl_maximal one at a time
    rng = np.random.default_rng(59)
    fs = [GridFunction((0.0, 1.0), rng.random(17)),
          GridFunction(((0.0, 0.0), (1.0, 1.0)), rng.random((8, 8))),
          GridFunction((-3.0, 5.0), rng.random(40)),
          GridFunction((2.0, 4.0), rng.random(17))]
    got = hl_maximals(iter(fs))
    for f, field in zip(fs, got):
        assert (field.lo, field.hi) == (f.lo, f.hi)
        assert _same_bits(field.values, hl_maximal(f).values)
    assert hl_maximals([]) == []


@pytest.mark.parametrize("n", [5, 33, 512])
def test_stacked_fractional_and_power_fields_are_bitwise_per_grid(n):
    # the kernel's scale factors and powers on a stack: 1D fractional and
    # Orlicz-power fields, row by row the per-length sweep and the public
    # operator on the grid alone
    fs = _stacked_inputs(n, 6, huge=False)
    for r, c, alpha in ((None, 1.0, 0.3), (None, 1.0, 0.7), (1.5, 1.0, 0.0),
                        (3.0, 1.0, 0.5)):
        got = maximal._quadrant_max(fs, r, c, alpha)
        for k, f in enumerate(fs):
            ref = per_length_sweep(f, "all", prefix_averages(f, r, c), alpha)
            assert _same_bits(got[k], ref), (r, alpha, k)
            one = (fractional_maximal(f, alpha) if r is None else
                   orlicz_maximal(f, YoungFn.power(r), alpha=alpha))
            assert _same_bits(got[k], one.values), (r, alpha, k)


@pytest.mark.parametrize("n", [17, 40])
def test_stacked_fields_across_chunks_and_block_seams(monkeypatch, n):
    # one to three rows a block put a seam next to (almost) every cell; a
    # cap of 4 n cells leaves chunks of one to four grids, and a cap below
    # n one row and one grid a chunk
    fs = _stacked_inputs(n, 7)
    refs = [per_length_sweep(f, "all", prefix_averages(f)) for f in fs]
    for rows in (1, 2, 3, 16):
        for cap in (n - 1, 4 * n, 1 << 17):
            monkeypatch.setattr(maximal, "_BLOCK_ROWS", rows)
            monkeypatch.setattr(maximal, "_BLOCK_CAP", cap)
            for field, ref in zip(hl_maximals(fs), refs):
                assert _same_bits(field.values, ref), (rows, cap)


def _clamp_free_inputs(n):
    """Grids of n cells: -0.0 cells among uniforms, subnormal cells among
    zeros of either sign, three spikes between long stretches of such
    zeros, and zeros alone."""
    rng = np.random.default_rng([n, 83])
    zeros = [np.where(rng.random(n) < 0.5, -0.0, 0.0) for _ in range(3)]
    signed = np.where(rng.random(n) < 0.4, -0.0, rng.random(n))
    subnormal, spikes, zero = zeros
    subnormal[::7] = 5e-324 * rng.integers(1, 9, subnormal[::7].size)
    spikes[[n // 9, n // 2, n - 3]] = [3.0, 1e-3, 40.0]
    return [signed, subnormal, spikes, zero]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [40, 512])
def test_clamp_free_tails_are_bitwise_the_per_length_sweep(n):
    # the tails take no clamp: their windows end past their starts, b > a,
    # on a prefix that starts at +0.0 and never decreases, so every sum is
    # +0.0 or more.  The hl, fractional (alpha 0.5) and t^3 fields of a
    # stack of four such grids of one cell count, and of each grid alone,
    # keep the bits of the per-length sweep, sign bits included, and no
    # power meets a negative sum (a RuntimeWarning fails the test)
    fs = [GridFunction((-1.0, 2.0), v) for v in _clamp_free_inputs(n)]
    for r, alpha in ((None, 0.0), (None, 0.5), (3.0, 0.0), (3.0, 0.5)):
        phi = YoungFn.power(r) if r is not None else None
        rc = (None, 1.0) if phi is None else (phi.r, phi.c)
        stack = maximal._quadrant_max(fs, *rc, alpha)
        for k, f in enumerate(fs):
            ref = per_length_sweep(f, "all", prefix_averages(f, *rc), alpha)
            one = (fractional_maximal(f, alpha) if phi is None else
                   orlicz_maximal(f, phi, alpha=alpha))
            assert _same_bits(stack[k], ref), (r, alpha, k)
            assert _same_bits(one.values, ref), (r, alpha, k)
        assert not stack[3].any() and not np.signbit(stack).any()


@pytest.mark.parametrize("count, n", [(50, 512), (1, 4096)])
def test_stacked_sweep_transient_memory_stays_within_the_cap(count, n):
    # the tracemalloc peak of the stacked sweep, beyond the prefix stack
    # and the fields it returns, in arrays of _BLOCK_CAP cells: the length
    # matrix of rows x n cells, at most one, a chunk's array, at most one,
    # and numpy's buffers.  Measured: 1.35 at 50 x 512 and 2.19 at 1 x 4096,
    # where the length matrix is a whole one; the heads or one tail block
    # of all 50 grids at once would hold 6.1 to 6.3
    fs = [GridFunction((0.0, 1.0), v)
          for v in np.random.default_rng(61).random((count, n))]
    maximal._quadrant_max(fs)           # imports and caches stay out
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = maximal._quadrant_max(fs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    stack = count * (2 * n + 1) * 8     # the prefixes and the fields
    assert out.shape == (count, n)
    assert (peak - stack) / (maximal._BLOCK_CAP * 8) <= 2.5


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17])
def test_every_length_1d_matches_brute(n):
    for name, vals in _hard_inputs(n).items():
        g = GridFunction((0.0, 2.0), vals)
        h = g.h[0]
        np.testing.assert_allclose(hl_maximal(g).values,
                                   brute_field_1d(vals, h), rtol=1e-12)
        np.testing.assert_allclose(fractional_maximal(g, 0.7).values,
                                   brute_field_1d(vals, h, alpha=0.7),
                                   rtol=1e-12)
        np.testing.assert_allclose(
            orlicz_maximal(g, YoungFn.power(3.0)).values,
            brute_field_1d(vals, h, r=3.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# every position of each length: the nested recursion
# ---------------------------------------------------------------------------

def _nested_cases(g, lengths):
    """(name, field, reference functional, alpha) of each operator on g
    with ``lengths``, all on the nested path but 1D every length."""
    alphas = (0.3, 0.7) if g.dim == 1 else (0.3, 0.7, 1.5)
    cases = [("hl", hl_maximal(g, lengths=lengths), prefix_averages(g), 0.0)]
    cases += [(f"fractional {alpha}",
               fractional_maximal(g, alpha, lengths=lengths),
               prefix_averages(g), alpha) for alpha in alphas]
    for r in (1.5, 3.0):
        phi = YoungFn.power(r)
        cases.append((f"power {r}", orlicz_maximal(g, phi, lengths=lengths),
                      prefix_averages(g, phi.r, phi.c), 0.0))
    for alpha in (0.0,) + alphas:
        cases.append((f"sup {alpha}", orlicz_maximal(
            g, YoungFn("sup"), alpha=alpha, lengths=lengths),
            window_maxima(g), alpha))
    return cases


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 33])
def test_nested_max_is_bitwise_the_per_length_sweep(n, dim):
    box = (-1.0, 2.0) if dim == 1 else ((-1.0, -1.0), (2.0, 2.0))
    inputs = {**_hard_inputs(n, dim), **_sparse_inputs(n, dim)}
    # the explicit list leaves out 1, so a last widening spreads D to cells
    for lengths in ("all", "dyadic", [L for L in (2, 3, 7) if L <= n] or [n]):
        for name, vals in inputs.items():
            if name in _RANDOM_BLOCKS and not isinstance(lengths, str):
                # without n listed, a power of the block leaves 2D prefix
                # residues in windows of zeros, which the reference spreads
                # and the sweep never evaluates; see
                # test_explicit_lengths_leave_unreached_cells_exactly_zero
                continue
            g = GridFunction(box, vals)
            for op, field, cube_values, alpha in _nested_cases(g, lengths):
                ref = per_length_sweep(g, lengths, cube_values, alpha)
                nested = _nested_max(g, lengths, cube_values, alpha).values
                for got in (field.values, nested):
                    assert np.array_equal(got, ref), (lengths, name, op)
                    assert np.array_equal(np.signbit(got), np.signbit(ref)), \
                        (lengths, name, op)


@pytest.mark.parametrize("n", [1, 4, 7, 10])
def test_fractional_2d_matches_brute(n):
    box = ((0.0, 0.0), (2.0, 2.0))
    for name, vals in {**_hard_inputs(n, 2), **_sparse_inputs(n, 2)}.items():
        g = GridFunction(box, vals)
        np.testing.assert_allclose(fractional_maximal(g, 0.7).values,
                                   brute_field_2d(vals, g.h[0], alpha=0.7),
                                   rtol=1e-12, err_msg=name)


def _counted_averages(calls, averages):
    """A stand-in for ``maximal._averages`` that logs each (side, starts)
    request of the functionals it makes; their floor is the functional's."""
    def counted_averages(f, *args):
        values = averages(f, *args)

        def counted(side, starts):
            calls.append((side, starts))
            return values(side, starts)
        counted.floor_box = values.floor_box
        return counted
    return counted_averages


def test_every_length_2d_takes_shifted_maxima(monkeypatch):
    # a deterministic stand-in for a timing test: with every length the
    # nested recursion widens by shifted maxima, never by doubling, and
    # evaluates the cube functional once per length
    trailing_maxima, requests = [], []
    doubling_max, averages = maximal._doubling_max, maximal._averages

    def counted_doubling_max(y, L, axis):
        trailing_maxima.append(L)
        return doubling_max(y, L, axis)

    monkeypatch.setattr(maximal, "_doubling_max", counted_doubling_max)
    monkeypatch.setattr(maximal, "_averages",
                        _counted_averages(requests, averages))
    n = 24
    g = GridFunction(((0.0, 0.0), (1.0, 1.0)),
                     np.random.default_rng(31).random((n, n)))
    field = hl_maximal(g)
    assert trailing_maxima == [] and len(requests) == n
    assert np.array_equal(field.values,
                          per_length_sweep(g, "all", prefix_averages(g)))


# -inf, mixed signed zeros and ties
_TIES = np.array([-np.inf, -0.0, 0.0, 0.25, 0.25, 1.0])


def _along(ref, x, axis, width):
    """A last-axis reference applied along axis."""
    return np.moveaxis(ref(np.moveaxis(x, axis, -1), width), -1, axis)


def _brute_widen(x, w):
    """Along the last axis, the trailing maxima of width w over x followed
    by w - 1 positions that hold nothing (-inf)."""
    pad = np.full(x.shape[:-1] + (w - 1,), -np.inf)
    return brute_trailing_max(np.concatenate((x, pad), axis=-1), w)


def _tie_cases(seed, sizes):
    # 1D rows, 2D grids and their transposed views, along every axis
    rng = np.random.default_rng(seed)
    for n in sizes:
        grid = rng.choice(_TIES, size=(n, n + 3))
        for x in (grid[0], grid, grid.T):
            for axis in range(x.ndim):
                yield x, axis


def _assert_same_bits(got, ref, *where):
    assert np.array_equal(got, ref), where
    assert np.array_equal(np.signbit(got), np.signbit(ref)), where


def test_trailing_max_matches_brute():
    # the doubling maxima in place, every width from one cell to past the
    # row, on 1D rows and along both axes of 2D grids and their transposed
    # views: values and sign bits as the leftmost largest entry.  The
    # passes alternate between the input and one scratch array, so both an
    # even and an odd number of them (the last copied back) are covered
    parities = set()
    for x, axis in _tie_cases(17, (1, 2, 5, 13, 64)):
        m = x.shape[axis]
        for L in range(1, m + 3):
            y = x.copy(order="K")
            assert _doubling_max(y, L, axis) is y
            parities.add(math.ceil(math.log2(min(L, m))) % 2)
            _assert_same_bits(y, _along(brute_trailing_max, x, axis, L),
                              m, axis, L)
    assert parities == {0, 1}


def test_widen_matches_brute():
    # every width from 1 to m + 2 on m cells: the doubling path (w < m) and
    # the running maxima (w >= m), with values and sign bits as the
    # leftmost largest entry of each position's range
    for x, axis in _tie_cases(19, (1, 2, 5, 13, 64)):
        m = x.shape[axis]
        for w in range(1, m + 3):
            got = _widen(x.copy(order="K"), w, axis)
            _assert_same_bits(got, _along(_brute_widen, x, axis, w),
                              m, axis, w)


def test_doubling_and_widening_on_1024_cell_rows():
    # rows of the length of the 1D chains of ``verify all``, at widths with
    # odd and even pass counts, around powers of two and past the row
    rng = np.random.default_rng(23)
    rows = rng.choice(_TIES, size=(2, 1024))
    for width in (2, 3, 4, 5, 8, 9, 255, 256, 257, 1023, 1024, 1025):
        for axis, x in ((1, rows), (0, rows.T)):
            got = _doubling_max(x.copy(order="K"), width, axis)
            _assert_same_bits(got, _along(brute_trailing_max, x, axis, width),
                              axis, width)
            got = _widen(x.copy(order="K"), width, axis)
            _assert_same_bits(got, _along(_brute_widen, x, axis, width),
                              axis, width)


def test_dyadic_sweep_asks_only_for_windows_meeting_the_support(monkeypatch):
    # a deterministic stand-in for a timing test: on a 16 x 8 block the
    # functional is asked, per side L, only for the starts whose windows
    # meet the block; on a full grid for every start, once per side, of
    # the sides 64 and 32 only.  There the whole-box floor leaves out every
    # smaller side (before it, all seven were asked): a side of 16 or less
    # scales its windows by at most (16/64)^(1/2) of the whole box's factor,
    # so a window above the floor needs a cell above twice the mean, and
    # none of these uniforms on [0, 1) is
    calls = []
    averages = maximal._averages
    monkeypatch.setattr(maximal, "_averages", _counted_averages(calls, averages))
    n = 64
    rng = np.random.default_rng(41)
    box = ((0.0, 0.0), (1.0, 1.0))
    vals = np.zeros((n, n))
    rows, cols = (5, 21), (40, 48)
    vals[slice(*rows), slice(*cols)] = rng.random((16, 8))
    sparse, full = GridFunction(box, vals), GridFunction(box, rng.random((n, n)))
    for g, support, sides in ((sparse, (rows, cols), _length_list(n, "dyadic")),
                              (full, ((0, n), (0, n)), [32, 64])):
        calls.clear()
        field = fractional_maximal(g, 0.5, lengths="dyadic").values
        assert calls == [(L, tuple(slice(max(0, s - L + 1), min(n - L + 1, e))
                                   for s, e in support))
                         for L in sides[::-1]]
        ref = per_length_sweep(g, "dyadic", prefix_averages(g), 0.5)
        assert np.array_equal(field, ref)
        assert np.array_equal(np.signbit(field), np.signbit(ref))


def _chain_shapes(n, dim):
    """Cells of support boxes in 4x zero padding (n/4 cells per axis):
    centred as in the theorem chain, touching each edge, in the corners,
    one hot cell, one-cell-wide strips, and no support at all."""
    k, c = n // 4, 3 * n // 8
    mid = slice(c, c + k)
    shapes = {"centred": (mid,) * dim, "hot-cell": (c + 1,) * dim,
              "all-zero": None}
    for axis in range(dim):
        def along(cells):
            return tuple(cells if d == axis else mid for d in range(dim))
        shapes[f"low-edge-{axis}"] = along(slice(0, k))
        shapes[f"high-edge-{axis}"] = along(slice(n - k, n))
        shapes[f"strip-{axis}"] = along(slice(c + 1, c + 2))
    if dim == 2:
        shapes["low-corner"] = (slice(0, k),) * 2
        shapes["high-corner"] = (slice(n - k, n),) * 2
    return shapes


def test_averages_match_the_whole_grid_prefix_at_every_start():
    # the box-local prefix, clamped, against the whole grid's prefix: values
    # and sign bits at every start of every side, windows wholly outside
    # the support included; -0.0 cells outside the box and inexact powers.
    # The box prefix gathered to the whole grid, which the quadrant maximum
    # stacks, is also the whole grid's prefix, up to the signs of zeros
    rng = np.random.default_rng(43)
    for dim, n in ((1, 64), (2, 32)):
        box = (-1.0, 2.0) if dim == 1 else ((-1.0, -1.0), (2.0, 2.0))
        for name, cells in _chain_shapes(n, dim).items():
            vals = np.where(rng.random((n,) * dim) < 0.3, -0.0, 0.0)
            if cells is not None:
                vals[cells] = rng.random(vals[cells].shape) + 0.25
            g = GridFunction(box, vals)
            for r, c in ((None, 1.0), (1.5, 1.0), (3.0, 0.75)):
                got, ref = _averages(g, r, c), prefix_averages(g, r, c)
                for L in range(1, n + 1):
                    windows = (slice(0, n - L + 1),) * dim
                    a, b = got(L, windows), ref(L, windows)
                    assert np.array_equal(a, b), (dim, name, r)
                    assert np.array_equal(np.signbit(a), np.signbit(b)), \
                        (dim, name, r)
                whole = _cumsum_prefix(vals if r is None else vals ** r)
                assert np.array_equal(_box_prefix(g, r)[2], whole), \
                    (dim, name, r)


def test_window_maxima_match_the_sliding_windows_at_cropped_starts():
    # the sup functional crops the grid to the cells its windows cover
    # before the doubling maxima: values and sign bits against numpy's
    # sliding windows for every side, at every start, at the nested sweep's
    # box region, at the last start and at lattice starts; -0.0 cells
    # outside the support
    rng = np.random.default_rng(47)
    for dim, n in ((1, 64), (2, 32)):
        box = (-1.0, 2.0) if dim == 1 else ((-1.0, -1.0), (2.0, 2.0))
        for name, cells in _chain_shapes(n, dim).items():
            vals = np.where(rng.random((n,) * dim) < 0.3, -0.0, 0.0)
            if cells is not None:
                vals[cells] = rng.random(vals[cells].shape) + 0.25
            g = GridFunction(box, vals)
            got, ref = _window_maxima(g), window_maxima(g)
            support = _support_box(g) or [(0, n)] * dim
            for L in range(1, n + 1):
                m = n - L + 1
                for starts in ((slice(0, m),) * dim,
                               tuple(slice(max(0, s - L + 1), min(m, e))
                                     for s, e in support),
                               (slice(m - 1, m),) * dim,
                               (slice(m // 3, m, L),
                                slice(m // 5, m // 2 + 1, L))[:dim]):
                    a, b = got(L, starts), ref(L, starts)
                    assert np.array_equal(a, b), (dim, name, L, starts)
                    assert np.array_equal(np.signbit(a), np.signbit(b)), \
                        (dim, name, L, starts)


@pytest.mark.parametrize("lengths", ["dyadic", "all", [3, 5, 12]],
                         ids=["dyadic", "all", "explicit"])
@pytest.mark.parametrize("dim", [1, 2])
def test_fields_at_chain_shape_are_bitwise_the_per_length_sweep(dim, lengths):
    # the theorem chain's shape, a support box in 4x zero padding, at every
    # placement, against the reference spread of every window.  Squares of
    # dyadic rationals keep every prefix sum and power exact, so no window
    # of zeros leaves a residue, and the explicit list without n compares
    # bit for bit too
    n = 64 if dim == 1 else 32
    box = (-1.0, 2.0) if dim == 1 else ((-1.0, -1.0), (2.0, 2.0))
    rng = np.random.default_rng([dim, n])
    for name, cells in _chain_shapes(n, dim).items():
        vals = np.zeros((n,) * dim)
        if cells is not None:
            vals[cells] = (rng.integers(1, 16, vals[cells].shape) / 4.0) ** 2
        g = GridFunction(box, vals)
        for op, field, reference, alpha in _nested_cases(g, lengths):
            ref = per_length_sweep(g, lengths, reference, alpha)
            assert np.array_equal(field.values, ref), (name, op)
            assert np.array_equal(np.signbit(field.values), np.signbit(ref)), \
                (name, op)


def test_dyadic_sweep_widening_cells_follow_the_support(monkeypatch):
    # a deterministic stand-in for a timing test: the cells that one dyadic
    # fractional sweep hands to the doubling maxima, for a 16^2 block in
    # 256^2, where only the box regions widen and the widenings of regions
    # no longer than their width take running maxima instead, for the full
    # grid, and for the tiny 1D rows, where numpy's per-call cost already
    # dominates.  The whole-box floor leaves the block's count as it was;
    # on the full grid of values in [0.5, 1.5) no cell reaches the floor of
    # a side below 128, so only sides 256 and 128 run (647,058 cells before
    # the floor), and the 1D row stops widening at side 64 (3,316 before)
    cells = []
    doubling_max = maximal._doubling_max

    def counted_doubling_max(y, L, axis):
        cells.append(y.size)
        return doubling_max(y, L, axis)

    monkeypatch.setattr(maximal, "_doubling_max", counted_doubling_max)
    rng = np.random.default_rng(47)
    square = ((0.0, 0.0), (1.0, 1.0))
    block = np.zeros((256, 256))
    block[120:136, 120:136] = rng.random((16, 16)) + 0.5
    line = np.zeros(1024)       # the 1D chains of ``verify all``
    line[384:640] = rng.random(256) + 0.5
    for vals, box, count in ((block, square, 128_252),
                             (rng.random((256, 256)) + 0.5, square, 98_560),
                             (line, (0.0, 1.0), 3_167)):
        cells.clear()
        fractional_maximal(GridFunction(box, vals), 0.5, lengths="dyadic")
        assert sum(cells) == count


def test_explicit_lengths_leave_unreached_cells_exactly_zero():
    # lengths without n: a cell that no listed window meeting the block
    # reaches reads +0.0, not the cancellation residue of 2D prefix sums
    # over zeros; elsewhere the field matches the brute field
    n, L = 32, 10
    rng = np.random.default_rng(0)
    vals = np.zeros((n, n))
    rows, cols = (4, 12), (16, 20)
    vals[slice(*rows), slice(*cols)] = rng.random((8, 4))
    g = GridFunction(((0.0, 0.0), (1.0, 1.0)), vals)
    field = hl_maximal(g, lengths=[L]).values
    reached = [np.zeros(n, dtype=bool) for _ in range(2)]
    for cells, (s, e) in zip(reached, (rows, cols)):
        cells[max(0, s - L + 1):min(n - L, e - 1) + L] = True
    unreached = ~np.outer(*reached)
    assert unreached.any()
    assert np.all(field[unreached] == 0.0)
    assert not np.signbit(field[unreached]).any()
    np.testing.assert_allclose(field, brute_field_2d(vals, g.h[0], lengths=[L]),
                               rtol=1e-12)


@pytest.mark.parametrize("field", [
    lambda g: hl_maximal(g),
    lambda g: hl_maximal(g, lengths="dyadic"),
    lambda g: hl_maximal(g, lengths=[1, 2]),
    lambda g: fractional_maximal(g, 0.5),
    lambda g: dyadic_maximal(g),
    lambda g: orlicz_maximal(g, YoungFn("sup")),
    lambda g: orlicz_maximal(g, YoungFn.power(3.0), lengths="dyadic"),
], ids=["all", "dyadic", "explicit", "fractional", "dyadic-splits", "sup",
        "power"])
def test_non_square_grid_rejected_on_every_path(field):
    g = GridFunction(((0.0, 0.0), (1.0, 2.0)), np.ones((4, 8)))
    with pytest.raises(ValueError, match="maximal sweeps need a square grid"):
        field(g)


# ---------------------------------------------------------------------------
# the whole-box floor of the nested recursion
# ---------------------------------------------------------------------------

def _hot_block_in_noise(n, dim, seed):
    """Uniform noise on [0, 1) with a block of n/8 cells per axis (at least
    two) at 50 to 60: the whole box's average lies above most of the noise,
    so the floor prunes the smaller sides to about the block."""
    rng = np.random.default_rng([seed, n, dim])
    vals = rng.random((n,) * dim)
    k = max(2, n // 8)
    cells = (slice(n // 5, n // 5 + k),) + (slice(n // 2, n // 2 + k),) * (dim - 1)
    vals[cells] = 50.0 + 10.0 * rng.random(vals[cells].shape)
    return vals


def _floor_cases(g, alpha):
    """(name, field, reference functional) of the prefix operators at one
    alpha: hl (alpha 0) or fractional, and orlicz powers with c != 1."""
    if alpha == 0.0:
        cases = [("hl", lambda lengths: hl_maximal(g, lengths=lengths),
                  prefix_averages(g))]
    else:
        cases = [("fractional", lambda lengths: fractional_maximal(
            g, alpha, lengths=lengths), prefix_averages(g))]
    for r, c in ((1.5, 0.3), (3.0, 2.5)):
        phi = YoungFn.power(r, c)
        cases.append((f"power {r} {c}", lambda lengths, phi=phi: orlicz_maximal(
            g, phi, alpha=alpha, lengths=lengths), prefix_averages(g, r, c)))
    return cases


@pytest.mark.parametrize("lengths", ["all", "dyadic", "explicit"])
@pytest.mark.parametrize("dim, n, alpha", [
    (1, 200, 0.0), (1, 200, 0.5), (1, 256, 0.5),
    (2, 32, 0.0), (2, 33, 0.5), (2, 32, 1.5), (2, 40, 0.5)])
def test_floor_is_bitwise_the_per_length_sweep(dim, n, alpha, lengths):
    # a hot block in noise, where the floor leaves most windows out, and
    # the same noise without the block, where it leaves out few: values
    # and sign bits against the spread of every window.  In 1D "all" takes
    # the quadrant maximum, held here too; the explicit list holds n and
    # one side in each of three other dyadic ranges
    if lengths == "explicit":
        lengths = [2, 5, n // 3, n]
    box = (-1.0, 2.0) if dim == 1 else ((-1.0, -1.0), (2.0, 2.0))
    for seed in (1, 2):
        vals = _hot_block_in_noise(n, dim, seed)
        for g in (GridFunction(box, vals),
                  GridFunction(box, np.minimum(vals, 1.0))):
            for op, field, reference in _floor_cases(g, alpha):
                got = field(lengths).values
                ref = per_length_sweep(g, lengths, reference, alpha)
                assert np.array_equal(got, ref), (seed, op)
                assert np.array_equal(np.signbit(got), np.signbit(ref)), \
                    (seed, op)


def test_floor_prunes_the_hot_block_groups(monkeypatch):
    # the floor's effect on the inputs above, by the requests it makes: in
    # 2D every side is asked for, and the small sides only at the starts
    # whose windows meet the block
    requests = []
    monkeypatch.setattr(maximal, "_averages",
                        _counted_averages(requests, maximal._averages))
    n = 32
    vals = _hot_block_in_noise(n, 2, 1)
    g = GridFunction(((-1.0, -1.0), (2.0, 2.0)), vals)
    fractional_maximal(g, 0.5)
    assert sorted(side for side, _ in requests) == list(range(1, n + 1))
    block = ((6, 10), (16, 20))
    for side, starts in requests:
        if side <= n // 8:
            assert starts == tuple(slice(s - side + 1, e)
                                   for s, e in block), side


def test_floor_keeps_a_window_that_ties_the_whole_box_value():
    # h = 1 and alpha = 1 make every scale factor the side itself.  A 2 x 2
    # block of ones and a hot cell of 12 on 8^2 zeros: the whole box holds
    # 16 / 64 * 8 = 2, and the block's window of side 2 holds 4 / 4 * 2 = 2,
    # a tie.  The floor of side 2 sits just below the block's cells, so the
    # box of side 2 holds the block and that window is asked for; at 0.75
    # instead of 1 the window falls below F0 (1.5 against 1.875) and the
    # floor, and side 2 asks only for the windows that meet the hot cell.
    # Under the floor's slack a window left out never ties F0 exactly.  Bit
    # for bit either way
    n = 8
    for m, tie in ((1.0, True), (0.75, False)):
        vals = np.zeros((n, n))
        vals[1:3, 1:3] = m
        vals[6, 6] = 12.0
        g = GridFunction(((0.0, 0.0), (8.0, 8.0)), vals)
        averages = _averages(g)
        F0 = float(averages(n, (slice(0, 1),) * 2)[0, 0]) * 8.0
        window = float(averages(2, (slice(1, 2),) * 2)[0, 0]) * 2.0
        assert (window == F0) is tie and window <= F0
        kept = averages.floor_box(F0, [2], [2.0])
        assert kept == ([(1, 7), (1, 7)] if tie else [(6, 7), (6, 7)])
        for lengths in ("all", "dyadic"):
            got = fractional_maximal(g, 1.0, lengths=lengths).values
            ref = per_length_sweep(g, lengths, prefix_averages(g), 1.0)
            assert np.array_equal(got, ref), (m, lengths)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_explicit_lengths_without_n_ask_for_the_support_regions(monkeypatch):
    # no whole-box window, no floor: each listed side is asked for once, at
    # the starts whose windows meet the support box, as without a floor
    requests = []
    monkeypatch.setattr(maximal, "_averages",
                        _counted_averages(requests, maximal._averages))
    n, lengths = 32, [3, 5, 12, 31]
    for dim in (1, 2):
        vals = np.zeros((n,) * dim)
        vals[(slice(6, 10),) + (slice(16, 20),) * (dim - 1)] = 50.0
        support = [(6, 10), (16, 20)][:dim]
        g = GridFunction((-1.0, 2.0) if dim == 1 else
                         ((-1.0, -1.0), (2.0, 2.0)), vals)
        requests.clear()
        fractional_maximal(g, 0.5, lengths=lengths)
        assert requests == [(L, tuple(slice(max(0, s - L + 1),
                                            min(n - L + 1, e))
                                      for s, e in support))
                            for L in lengths[::-1]]


def test_floor_cuts_the_window_cells_of_a_hot_block_field(monkeypatch):
    # a deterministic stand-in for a timing test: the window cells that one
    # every-length fractional sweep (alpha = 1/2) asks for on 256^2 noise in
    # [0, 2) with a 21^2 block of 30, the ``fields`` benchmark's input.
    # Without the floor every side asked for its whole level, sum over k of
    # k^2 = 5,625,216 cells; with it the sides above 64 still do (a cell of
    # noise can beat the floor there), the others only near the block
    requests = []
    monkeypatch.setattr(maximal, "_averages",
                        _counted_averages(requests, maximal._averages))
    n = 256
    rng = np.random.default_rng(3)
    vals = rng.random((n, n)) * 2.0
    vals[21:42, 128:149] = 30.0
    g = GridFunction(((-1.0, -1.0), (1.0, 1.0)), vals)
    fractional_maximal(g, 0.5)
    cells = sum(math.prod(s.stop - s.start for s in starts)
                for _, starts in requests)
    assert len(requests) == n
    assert cells == 2_512_489


# ---------------------------------------------------------------------------
# matrix composition
# ---------------------------------------------------------------------------

def test_compose_identity_matrix_keeps_values():
    rng = np.random.default_rng(20)
    vals = rng.random(16)
    g = GridFunction((0.0, 2.0), vals)
    out = matrix_compose(g, 1.0)
    np.testing.assert_array_equal(out.values, vals)
    assert out.mask.all()


def test_compose_scalar_shrinks_box():
    vals = np.arange(8, dtype=float)
    g = GridFunction((0.0, 8.0), vals)
    out = matrix_compose(g, 2.0)      # f(x/2) on (0, 16)... box maps by A
    # output box is A(box) = (0, 16)? no: A maps input box: 2 * (0,8)
    assert out.lo == (0.0,) and out.hi == (16.0,)
    # value at x reads f at x/2
    idx = out.cell_of_point(9.0)
    assert out.values[idx] == g.values[g.cell_of_point(4.5)]


def test_compose_negative_scalar_reverses():
    vals = np.arange(8, dtype=float)
    g = GridFunction((0.0, 8.0), vals)
    out = matrix_compose(g, -1.0)
    assert out.lo == (-8.0,) and out.hi == (0.0,)
    np.testing.assert_array_equal(out.values, vals[::-1])


def test_compose_out_of_domain_masked():
    g = GridFunction((0.0, 1.0), np.ones(4))
    out = matrix_compose(g, 1.0, out_box=(0.0, 2.0), n_out=8)
    assert out.mask[:4].all() and not out.mask[4:].any()
    assert np.all(out.values[4:] == 0.0)


@pytest.mark.parametrize("lam, out_box, n_out, ties", [
    (1.5, None, None, 32),
    (1.5, None, 16, 16),
    (-1.5, (-1.0, 1.0), 64, 22),
    (3.0, None, None, 0),
])
def test_compose_1d_ties_follow_the_floor_rule(lam, out_box, n_out, ties):
    """Each output cell reads the cell holding the exact preimage of its
    center, by the half-open floor rule of ``cell_of_point``: a preimage on
    a cell boundary belongs to the cell on its right.  All the geometry is
    dyadic, so the exact preimages of the centers are rationals."""
    g = GridFunction((-1.0, 1.0), np.arange(64, dtype=float))
    out = matrix_compose(g, lam, out_box=out_box, n_out=n_out)
    lo, hi, m = Fraction(out.lo[0]), Fraction(out.hi[0]), out.shape[0]
    on_boundary = 0
    for i in range(m):
        y = (lo + (i + Fraction(1, 2)) * (hi - lo) / m) / Fraction(lam)
        t = (y - Fraction(g.lo[0])) / Fraction(g.h[0])
        on_boundary += t.denominator == 1
        cell = math.floor(t)
        assert out.mask[i] == (0 <= cell < 64), i
        assert out.values[i] == (cell if out.mask[i] else 0.0), i
    assert on_boundary == ties


def test_preimage_cells_3d_signed_permutation():
    # cell transport is one routine for any dimension; a scaled signed
    # permutation sends centers onto centers, so cell_of_point is exact
    g = GridFunction(((0.0, 0.0, 0.0), (4.0, 4.0, 4.0)),
                     np.arange(64, dtype=float).reshape(4, 4, 4))
    A = SquareMatrix([[0.0, 0.0, 2.0], [-1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    out = matrix_compose(g, A, out_box=((0.0, -4.0, 0.0), (8.0, 0.0, 2.0)),
                         n_out=(8, 4, 2))
    back = preimage_cells(g, A, (out.lo, out.hi), out.shape)
    assert back.shape == (64,) and (back >= 0).all() and out.mask.all()
    for flat, cell in enumerate(np.ndindex(out.shape)):
        center = [a + (c + 0.5) * (b - a) / m for a, b, c, m
                  in zip(out.lo, out.hi, cell, out.shape)]
        want = g.cell_of_point(A.inv @ center)
        assert np.unravel_index(back[flat], g.shape) == want
        assert out.values[cell] == g.values[want]


_TRANSPORT_MATRICES = {
    1: [[[2.0]], [[-0.5]], [[1.0]], [[-3.0]]],
    2: [[[-0.5, 0.0], [0.0, -0.5]], [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -2.0], [0.5, 0.0]], [[3.0, 0.0], [0.0, -1.0]],
        [[1.0, 1.0], [0.0, 1.0]],                        # shear
        [[0.6, -0.8], [0.8, 0.6]]],                      # rotation
    3: [[[0.0, 0.0, 2.0], [-1.0, 0.0, 0.0], [0.0, 0.5, 0.0]],
        [[-0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, -0.5]],
        [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],   # shear
        [[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]]],  # rotation
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_preimage_cells_skipping_zero_terms_is_bitwise(dim):
    """Leaving out the zero-coefficient terms of A^(-1) x changes no cell
    index: on monomial matrices, a shear and a rotation, on the image box
    and on boxes through the origin and past the grid, every index equals
    the every-term formula's."""
    n = {1: 64, 2: 16, 3: 6}[dim]
    g = GridFunction(((-1.0,) * dim, (1.0,) * dim), np.ones((n,) * dim))
    for rows in _TRANSPORT_MATRICES[dim]:
        A = SquareMatrix(rows)
        lo, hi = image_box(g, A)
        for box, shape in [((lo, hi), g.shape),
                           (((0.0,) * dim, hi), (n + 3,) * dim),
                           ((tuple(x - 0.7 for x in lo),
                             tuple(x + 0.9 for x in hi)), (2 * n - 1,) * dim)]:
            got = preimage_cells(g, A, box, shape)
            want = preimage_cells_every_term(g, A, box, shape)
            assert got.dtype == want.dtype and np.array_equal(got, want), \
                (rows, box)


def test_compose_2d_rotation_exact():
    rng = np.random.default_rng(22)
    vals = rng.random((8, 8))
    g = GridFunction(((-1.0, -1.0), (1.0, 1.0)), vals)
    R = SquareMatrix([[0.0, -1.0], [1.0, 0.0]])   # quarter turn
    out = matrix_compose(g, R)
    assert out.mask.all()
    # f(R^{-1} x): spot-check a center
    x = (0.3, 0.55)
    y = R.inv @ x
    assert out.values[out.cell_of_point(x)] == pytest.approx(
        g.values[g.cell_of_point(y)], abs=0.0)


def test_composed_field_unit_indicator_frozen_point():
    # with the doubling map, the composed field near x = 4 reads the plain
    # field near x = 2, whose best window [0,2) averages the indicator to 1/2
    vals = np.zeros(16)
    vals[8:10] = 1.0                       # [0,1) on the 16-cell grid over [-4,4)
    f = GridFunction((-4.0, 4.0), vals)
    field = hl_maximal(f)
    composed = matrix_compose(field, SquareMatrix.scalar(2.0),
                              out_box=(-8.0, 8.0), n_out=16)
    idx = composed.cell_of_point(3.75)
    assert composed.values[idx] == pytest.approx(0.5, abs=1e-15)


def test_composition_identity_for_maximal_field():
    """Field of w(Bx) under the plain sweep equals the plain field read at Bx.

    Operationally: compose the weight with B and then take the maximal field,
    versus take the maximal field of w on the image box and pull it back
    through B^{-1}.  Dyadic scalars keep the cell correspondence exact.
    """
    box = (-2.0, 2.0)
    N = 128
    w = power_weight(0.5, -16.0, 16.0)
    for lam in (2.0, -0.5):
        B = SquareMatrix.scalar(lam)
        wb = compose_matrix(w, B)
        lhs = hl_maximal(sample_to_grid(wb, box, N)).values
        image_box = (min(-2.0 * lam, 2.0 * lam), max(-2.0 * lam, 2.0 * lam))
        inner = hl_maximal(sample_to_grid(w, image_box, N))
        rhs = matrix_compose(inner, B.inverse(), out_box=box, n_out=N).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-9, rtol=1e-9)
