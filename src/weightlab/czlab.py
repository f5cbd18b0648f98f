"""Calderon-Zygmund stopping cubes, level sets, and the theorem chain.

``cz_decompose`` finds, for each level k, the maximal dyadic subcubes of the
grid box on which the (fractional) average of f exceeds a^k/4^n.  It walks
the dyadic levels from the root down: a max pyramid prunes, and a float
block-sum pyramid with an a-priori error bound decides each threshold test;
only the cubes inside the bound's uncertainty band take the exact test on
their exact totals (an integer comparison when alpha = 0, the correctly
rounded average otherwise), so every selection equals the exact one.  The
band cubes' totals and the selected cubes' averages come from labelled
passes of the exact-sum kernel (``funcspace.span_totals``), one per k and
dyadic level, and the cubes stay arrays (one ``CZLevel`` per k) from
the selection to the chain; ``CZDecomposition.cubes`` builds ``CZCube``
objects only when it is read.  ``theorem_chain_check`` replays the
weighted-bound proof for the matrix-composed maximal operator as a chain of
numeric inequalities on one grid and reports the slack of every step; the
fractional variant runs the same chain with exponents (p, q) and the weight
powers w^p, w^q.  ``theorem_chain_checks`` replays a batch of cases (w, A,
p) on one f from one table of parts, each keyed by what it depends on and
built on first use: the f-only half of the chain (embedding, dyadic field,
k range, stopping cubes, cover check, per-cube columns, span plans, E
sets) once for the batch, a B_p integral per p, w sampled on Y per w, the
A-free terms (right-hand side, per-cube norms, the M_phibar g sweep and
its E-set minima) per (w, p), the cell transport per A, and the image-side
weight with its layer totals and masses per (w, A); the table drops each
part after the last case that reads it.  ``theorem_chain_check`` is the
batch of one, and each report has the same bytes either way.

Geometry conventions used by the chain:

* f lives on a box X with 2^m cells per axis; everything is embedded into
  the concentric box Y with side 4 |X|^{1/n} and 4 * 2^m cells, so each
  tripled stopping cube, clipped to Y, stays grid aligned.
* The image grid A(Y) carries the same cell count; the map must send cells
  onto cells bijectively (scalings, axis swaps, sign flips), which makes
  every set-transport step exact.  The chain pulls the image-side weight
  back to Y's grid through that bijection once, and reads every per-cube
  term from columns over the stopping cubes it uses.  Each whole-grid
  array is dropped after its last use, so at most a few live at once.
* Whole-grid and level-set sums go through the exact-sum kernel: one
  labelled pass over M^E w and one over w give the tail, every layer and,
  as the exact total of the layers above it, every level set omega_k, each
  rounded once, so the bits equal ``math.fsum`` over the same cells.  The
  per-cube terms are float reductions over rows gathered a cube shape at a
  time (``funcspace.span_rows``), the shape groups coming from a span plan
  built once per set of cubes: the Luxemburg norms, and one pass for the
  image masses of w and the masses of w_A on the tripled cubes.  A row sum
  adds in the order ``np.sum`` uses on that cube alone.
* Cell transport is ``maximal.preimage_cells``: an image cell corresponds
  to the input cell holding A^(-1) of its center.  ``level_sets`` uses the
  same correspondence for any map, and reports whether it is one to one.
"""

from __future__ import annotations

import copy
import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .funcspace import (
    Cube,
    DomainError,
    GridFunction,
    SquareMatrix,
    add_totals,
    compose_matrix,
    exact_sums,
    exact_totals,
    product_averages,
    resolve_matrix,
    round_total,
    span_rows,
    span_totals,
    total_exceeds,
)
from .maximal import (
    check_alpha,
    dyadic_maximal,
    fractional_maximal,
    hl_maximal,
    image_box,
    orlicz_maximal,
    preimage_cells,
)
from .young import YoungFn, bp_integral, complementary, luxemburg_norms

__all__ = [
    "CZCube",
    "CZLevel",
    "CZDecomposition",
    "cz_decompose",
    "level_sets",
    "ekj_expansion_check",
    "theorem_chain_check",
    "theorem_chain_checks",
    "ChainReport",
]


# ---------------------------------------------------------------------------
# stopping-cube decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CZCube:
    k: int
    span: tuple            # ((i0, i1),) or ((i0, i1), (j0, j1)) in cells
    cube: Cube              # physical cube
    average: float           # exact average of f over the cube, rounded once
    value: float             # side^alpha * average (equals average if alpha=0)


class CZLevel(NamedTuple):
    """The stopping cubes of one k as arrays, one row per cube, ordered by
    span ((i0, i1), (j0, j1), ...) as tuples compare."""
    corner: np.ndarray      # (m, dim) int: the first cell per axis
    side: np.ndarray        # (m,) int: cells per axis
    average: np.ndarray     # (m,) exact average of f, rounded once
    value: np.ndarray       # (m,) side^alpha * average


@dataclass
class CZDecomposition:
    grid: GridFunction
    a: float
    alpha: float
    ks: list
    levels: dict             # k -> CZLevel, disjoint cubes, union = D_k
    D: dict                  # k -> bool mask, D_k = union of stopping cubes
    # band cubes of the selection, which the sum pyramid left to exact
    # totals; the sandwich reads the chosen cubes' exact totals and adds none
    exact_fallbacks: int = 0

    @functools.cached_property
    def cubes(self) -> dict:
        """k -> list[CZCube], built from ``levels`` on first read."""
        out = {}
        for k, lv in self.levels.items():
            out[k] = [
                CZCube(k, span, _span_to_cube(self.grid, span), avg, val)
                for span, avg, val in zip(_spans(lv.corner, lv.side),
                                          lv.average.tolist(),
                                          lv.value.tolist())]
        return out


def _spans(corner: np.ndarray, side: np.ndarray) -> list:
    """Span tuples ((i0, i1), ...) of cubes given as corner and side arrays."""
    return [tuple((c, c + s) for c in row)
            for row, s in zip(corner.tolist(), side.tolist())]


def _span_to_cube(grid: GridFunction, span) -> Cube:
    corner = tuple(grid.lo[d] + span[d][0] * grid.h[d] for d in range(grid.dim))
    side = (span[0][1] - span[0][0]) * grid.h[0]
    return Cube(corner, side)


def _blocks(grid: np.ndarray, side: int) -> np.ndarray:
    """A view of a C-contiguous grid with one (block, cell) axis pair per
    grid axis: view[b0, :, b1, :] is the dyadic block b of that side."""
    return grid.reshape(tuple(x for n in grid.shape
                              for x in (n // side, side)))


_ROW_CELLS = 1 << 16        # cells gathered into rows at a time


class _SpanPlan(NamedTuple):
    """Spans grouped by shape for ``_span_reduce``: per batch of spans of
    one shape, about _ROW_CELLS gathered cells at a time, the shape, the
    spans' positions and their starts (one index array per axis)."""
    size: int               # spans in all
    batches: list           # [(shape, positions, starts)]


def _span_plan(lo: np.ndarray, ext: np.ndarray) -> _SpanPlan:
    """The plan of the spans with starts lo and extents ext ((m, dim) int
    arrays), built once for every reduction over them."""
    batches = []
    if len(lo):
        shapes, group = np.unique(ext, axis=0, return_inverse=True)
        for g, shape in enumerate(shapes.tolist()):
            pos = np.flatnonzero(group.ravel() == g)
            per = max(1, _ROW_CELLS // math.prod(shape))
            for s in range(0, pos.size, per):
                at = pos[s:s + per]
                batches.append((tuple(shape), at, tuple(lo[at].T)))
    return _SpanPlan(len(lo), batches)


def _span_reduce(plan: _SpanPlan, reduce, *arrays) -> np.ndarray:
    """reduce(*rows) over the spans of a plan, one value (or row of values)
    per span, in span order.  The cells of each array over one batch of the
    plan are gathered into (spans, cells) rows, so no gathered array
    outlives its batch."""
    if not plan.batches:
        return np.asarray(reduce(*[np.zeros((0, 1), a.dtype) for a in arrays]))
    out = None
    for shape, at, starts in plan.batches:
        res = np.asarray(reduce(*[span_rows(a, starts, shape)
                                  for a in arrays]))
        if out is None:
            out = np.empty((plan.size,) + res.shape[1:], res.dtype)
        out[at] = res
    return out


def _dyadic_cells(f: GridFunction) -> int:
    """Cells per axis of a square grid with a power-of-two cell count, whose
    dyadic splits reach single cells.  On any other grid the splits stop
    short, and cells outside every visited cube could never be selected."""
    n = f.shape[0]
    if any(m != n for m in f.shape):
        raise ValueError("f needs a square grid")
    if n & (n - 1):
        raise ValueError("f needs a power-of-two cell count per axis")
    return n


def _pyramids(values: np.ndarray):
    """Per-level cell maxima and float block sums of a power-of-two grid.

    Level lvl holds one entry per dyadic cube of side 2^lvl.  The sums add
    neighbouring blocks one axis at a time, so every cell of a level-lvl
    sum went through at most dim * lvl roundings; an overflowed sum is inf.
    """
    maxes, sums = [values], [values]
    m = s = values
    with np.errstate(over="ignore"):
        while m.shape[0] > 1:
            for axis in range(values.ndim):
                even = (slice(None),) * axis + (slice(0, None, 2),)
                odd = (slice(None),) * axis + (slice(1, None, 2),)
                m = np.maximum(m[even], m[odd])
                s = s[even] + s[odd]
            maxes.append(m)
            sums.append(s)
    return maxes, sums


def _sum_bounds(sums: np.ndarray, roundings: int):
    """Floats lo <= s <= hi around the exact sums s of nonnegative cells
    whose float block sums took at most ``roundings`` roundings each.

    Every rounding of a nonnegative sum scales it by some 1 + d, |d| <= u =
    2^-53 (sums in the subnormal range are exact), so |sum - s| <= gamma *
    sum with gamma = r u / (1 - r u) <= r 2^-52 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 4).  The widened sums are
    rounded once more and then stepped one float outward.  An overflowed
    sum gives lo = -inf, which decides nothing."""
    g = roundings * 2.0 ** -52
    with np.errstate(over="ignore"):
        lo = np.nextafter(sums * (1.0 - g), -np.inf)
        hi = np.nextafter(sums * (1.0 + g), np.inf)
    lo[np.isinf(sums)] = -np.inf
    return lo, hi


def _mass_test(lo, hi, mass: Fraction):
    """(above, below): where the exact sums, bracketed by lo <= s <= hi,
    certainly exceed the exact threshold mass t, and where they certainly
    do not.  No float lies strictly between t and its rounding t_f, so a
    float lo > t_f exceeds t and a float hi < t_f falls short of it.  The
    cubes in neither mask need an exact comparison."""
    try:
        t_f = float(mass)               # correctly rounded
    except OverflowError:               # t exceeds every finite hi
        t_f = math.inf
    return lo > t_f, hi < t_f


def _children(idx: np.ndarray) -> np.ndarray:
    """Indices, one level down, of the 2^dim children of each cube in idx
    (an (m, dim) array of cube indices), in lexicographic order."""
    dim = idx.shape[1]
    offsets = np.indices((2,) * dim).reshape(dim, -1).T
    return (2 * idx[:, None, :] + offsets).reshape(-1, dim)


def _select_stopping(grid: GridFunction, thr: Fraction, alpha: float,
                     maxes, sums):
    """Maximal dyadic subcubes with side^alpha * avg > threshold.

    Walks the levels from the root down with the candidate cubes of each
    level as an (m, dim) array of cube indices: the max pyramid prunes,
    the sum pyramid decides, and the cubes it does not put certainly below
    the threshold are summed exactly in one labelled pass per level, which
    decides the ones in its uncertainty band.  The children of live,
    unselected cubes are the next level's candidates.  Returns ([(lvl, idx,
    totals)] for the selected cubes, with idx their indices and totals
    their exact totals, and the number of exact fallbacks)."""
    n, dim = grid.shape[0], grid.dim
    thr_f = float(thr)
    chosen, fallbacks = [], 0
    idx = np.zeros((1, dim), dtype=np.int64)
    for lvl in range(n.bit_length() - 1, -1, -1):
        if not len(idx):
            break
        side = 1 << lvl
        count = 1 << (dim * lvl)
        at = tuple(idx.T)
        # neither a cube nor a descendant can pass if even its best cell,
        # scaled by its side when alpha > 0, stays below thr_f.  At alpha =
        # 0, best < thr_f = round(thr) gives best <= pred(thr_f) < thr, and
        # every average of cells <= best is <= best.  At alpha > 0, the
        # rounded average is <= best and both take the same rounded side
        # factor, so value <= cap; descendants have no larger factor.
        fac = 1.0 if alpha == 0.0 else (side * grid.h[0]) ** alpha
        live = fac * maxes[lvl][at] >= thr_f
        idx = idx[live]
        lo, hi = _sum_bounds(sums[lvl][at][live], dim * lvl)
        if alpha == 0.0:
            above, below = _mass_test(lo, hi, thr * count)
        else:
            # the rounded average lies in [lo/count, hi/count], stepped out
            above = fac * np.nextafter(lo / count, -np.inf) > thr_f
            below = fac * np.nextafter(hi / count, np.inf) <= thr_f
        maybe = np.flatnonzero(~below)
        totals = span_totals(grid.values, tuple((idx[maybe] * side).T),
                             (side,) * dim) if len(maybe) else []
        band = ~above[maybe]
        selected = above
        selected[maybe[band]] = [
            total_exceeds(t, count, thr) if alpha == 0.0
            else fac * round_total(t, count) > thr_f
            for t, b in zip(totals, band.tolist()) if b]
        fallbacks += int(band.sum())
        if selected.any():
            keep = selected[maybe].tolist()
            chosen.append((lvl, idx[selected],
                           [t for t, k in zip(totals, keep) if k]))
        idx = _children(idx[~selected])
    return chosen, fallbacks


def cz_decompose(f: GridFunction, a: float, k_range, alpha: float = 0.0,
                 validate: bool = True) -> CZDecomposition:
    """Stopping cubes at thresholds a^k/4^n for each k in k_range.

    Each selected cube Q is a maximal dyadic subcube of the grid box with
    side^alpha * avg_Q f > a^k/4^n.  With validate=True the sandwich
    a^k/4^n < value <= a^k/2^n is checked on every cube (exactly when
    alpha = 0) and a violation raises; the root box can violate the upper
    half when a^k < 2^n * value(box), so pick k accordingly.  f needs a
    square grid with a power-of-two cell count per axis, so that the
    dyadic subcubes reach every cell, and every a^k/4^n must stay within
    the float range, and alpha must lie in [0, dim).

    The selection decides each cube from one float block-sum pyramid of f,
    built per call, and falls back to exact sums only inside its error
    bound; ``exact_fallbacks`` counts those cubes.  Every cube's average is
    its exact average rounded once: the selection's one labelled exact-sum
    pass (``funcspace.span_totals``) per k and dyadic level sums the cells
    of every cube not certainly below the threshold, which decides the band
    and gives the selected cubes their totals, and each exact total is
    divided by its cell count in one int/int division.  The alpha = 0
    sandwich compares the same totals with the upper bound as integers.

    The cubes of each k come back as arrays (``CZDecomposition.levels``)
    and D_k is painted through a block view of its mask; the ``CZCube``
    lists of ``CZDecomposition.cubes`` are built on their first read.
    """
    dim = f.dim
    check_alpha(alpha, dim)     # the max-pyramid prune needs alpha >= 0
    _dyadic_cells(f)
    check_a(a, dim)
    if (f.values < 0).any():
        raise ValueError("f must be nonnegative")
    ks = sorted(int(k) for k in k_range)
    maxes, sums = _pyramids(f.values)
    a_frac = Fraction(a)
    levels = {}
    masks = {}
    fallbacks = 0
    for k in ks:
        thr = a_frac ** k / 4 ** dim
        if thr > sys.float_info.max:
            raise ValueError(f"the threshold a^k/4^n at k={k} overflows "
                             "the float range")
        upper = thr * 2 ** dim
        upper_f = float(min(upper, sys.float_info.max))
        chosen, fallbacks_k = _select_stopping(f, thr, alpha, maxes, sums)
        fallbacks += fallbacks_k
        # per dyadic level: (corners, sides, averages, values, over), with
        # over where the exact average exceeds the upper bound (alpha = 0)
        mask = np.zeros(f.shape, dtype=bool)
        rows = [(np.zeros((0, dim), np.int64), np.zeros(0, np.int64),
                 np.zeros(0), np.zeros(0), np.zeros(0, bool))]
        for lvl, idx, totals in chosen:
            side = 1 << lvl
            count = 1 << dim * lvl
            avg = np.array([round_total(t, count) for t in totals])
            over = np.zeros(len(idx), bool)
            if validate and alpha == 0.0:
                over[:] = [total_exceeds(t, count, upper) for t in totals]
            # one side factor per level, a Python float power
            val = avg if alpha == 0.0 else (side * f.h[0]) ** alpha * avg
            _blocks(mask, side)[tuple(x for col in idx.T
                                      for x in (col, slice(None)))] = True
            rows.append((idx * side, np.full(len(idx), side), avg, val, over))
        corner, side, avg, val, over = map(np.concatenate, zip(*rows))
        # span order: first cell, then last, axis by axis
        order = np.lexsort([x for d in range(dim - 1, -1, -1)
                            for x in (corner[:, d] + side, corner[:, d])])
        corner, side, avg, val, over = (x[order] for x in (corner, side, avg,
                                                          val, over))
        if validate:
            bad = np.flatnonzero(over if alpha == 0.0
                                 else ~(val <= upper_f * (1.0 + 1e-9)))
            if len(bad):
                i = bad[:1]
                raise ValueError(
                    f"sandwich violated at k={k} on "
                    f"{_span_to_cube(f, _spans(corner[i], side[i])[0])}: "
                    f"value {val[i].item()} > {upper_f}")
        levels[k] = CZLevel(corner, side, avg, val)
        masks[k] = mask
    return CZDecomposition(f, a, alpha, ks, levels, masks, fallbacks)


def check_a(a: float, dim: int) -> None:
    """Raises unless the level base a is finite and exceeds 2^dim; a NaN
    fails too."""
    if not (math.isfinite(a) and a > 2 ** dim):
        raise ValueError(f"need a finite a > 2^n = {2 ** dim}")


def root_level(f: GridFunction, a: float, alpha: float = 0.0) -> int:
    """The least k with a^k >= 2^n side^alpha avg f over the whole grid, the
    average padded by 1e-9 relative; 0 where that product is zero."""
    side_a = (f.hi[0] - f.lo[0]) ** alpha
    with np.errstate(over="ignore"):     # an overflowing mean is rejected below
        root = float(np.mean(f.values)) * (1.0 + 1e-9) * side_a
    if not math.isfinite(root):
        raise ValueError("grid values overflow the automatic k range")
    if root == 0.0:
        return 0
    k = math.ceil(math.log(2 ** f.dim * root, a) - 1e-12)
    while a ** k < 2 ** f.dim * root:
        k += 1
    return k


class _ESets(NamedTuple):
    """The E sets E_{k,j} = Q_{k,j} minus D_{k+1} of a decomposition, over
    the cubes of its usable levels k (those with a D_{k+1}) in (k, span)
    order."""
    report: dict            # the ``ekj_expansion_check`` dict
    plan: _SpanPlan         # the cubes
    counts: np.ndarray      # (m,) |E_{k,j}|
    depth: np.ndarray       # per cell, how many of the D_k hold it


def _least_depth(d):
    """Per row of depths: the least one and how many cells take it."""
    least = d.min(axis=1)
    return np.column_stack([least, (d == least[:, None]).sum(axis=1)])


def ekj_expansion_check(dec: CZDecomposition) -> dict:
    """beta = max |Q_{k,j}| / |E_{k,j}| plus exact disjointness of the E sets.

    Needs consecutive levels in the decomposition (E at level k looks at
    D_{k+1}); the topmost level is skipped.  No cubes at all gives beta = 0.
    """
    return _expansion(dec).report


def _expansion(dec: CZDecomposition) -> _ESets:
    """The E sets of a decomposition (``_ESets``), from one gather over all
    their cubes.

    The D_k are nested, as the stopping cubes above a higher threshold lie
    in those above a lower one, so a cell's depth (the number of D_k
    holding it) says which of them hold it.  With r the rank of k among
    the decomposition's levels (1 for the lowest), every cell of a cube of
    D_k has depth at least r, and D_{k+1} is where it exceeds r: E_{k,j}
    is where the cube's depth is least when that least depth is r, and
    empty otherwise.  The E sets of one level lie in D_k minus D_{k+1},
    whose union over the levels they cover, so they are disjoint exactly
    when their counts add up to the cells of that union."""
    usable = [k for k in dec.ks if k + 1 in dec.D]
    dim = dec.grid.dim
    levels = [dec.levels[k] for k in usable]
    corner = np.concatenate([np.zeros((0, dim), np.int64)]
                            + [lv.corner for lv in levels])
    side = np.concatenate([np.zeros(0, np.int64)] + [lv.side for lv in levels])
    plan = _span_plan(corner, np.repeat(side[:, None], dim, axis=1))
    ranks = sorted(dec.D)
    depth = np.zeros(dec.grid.shape, np.min_scalar_type(len(ranks)))
    union = np.zeros(dec.grid.shape, dtype=bool)
    for k in ranks:
        depth += dec.D[k]
    for k in usable:
        union |= dec.D[k] & ~dec.D[k + 1]
    least, at_least = _span_reduce(plan, _least_depth, depth).T
    rank = np.repeat([ranks.index(k) + 1 for k in usable],
                     [len(lv.side) for lv in levels])
    counts = np.where(least == rank, at_least, 0).astype(np.int64)
    beta, witness = 0.0, None
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        beta, j = math.inf, empty[-1:]
        witness = _span_to_cube(dec.grid, _spans(corner[j], side[j])[0])
    elif len(counts):
        beta = float((side ** dim / counts).max())
    disjoint = int(counts.sum()) == int(union.sum())
    report = {"beta": beta, "disjoint": disjoint, "witness": witness,
              "cubes_checked": len(counts), "levels_checked": usable}
    return _ESets(report, plan, counts, depth)


def _e_minima(e: _ESets, field: np.ndarray) -> np.ndarray:
    """The minimum of a field over each E set, inf on an empty one."""
    minima = _span_reduce(
        e.plan, lambda d, v: np.where(d == d.min(axis=1, keepdims=True),
                                      v, np.inf).min(axis=1),
        e.depth, field)
    minima[e.counts == 0] = np.inf
    return minima


# ---------------------------------------------------------------------------
# grid-to-grid matrix transport
# ---------------------------------------------------------------------------

def _cell_transport(grid: GridFunction, A: SquareMatrix):
    """(out_lo, out_hi, back, fault) for the image grid: A(box) with the
    grid's cell counts.  back[out_flat] is the flat input cell holding the
    preimage of that cell's center, -1 where it leaves the box; fault is
    None when back maps the cells one to one (dyadic scalings, sign flips,
    axis swaps, 90-degree turns), else why it does not."""
    lo, hi = image_box(grid, A)
    back = preimage_cells(grid, A, (lo, hi), grid.shape)
    fault = None
    if (back < 0).any():
        fault = "image grid does not map back into the box"
    elif not (np.bincount(back, minlength=back.size) == 1).all():
        fault = "matrix does not map cells onto cells bijectively"
    return lo, hi, back, fault


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

@dataclass
class LevelSets:
    ks: list
    omega: dict             # k -> bool mask on the input grid, {Mf > a^k}
    omega_A: dict           # k -> bool mask on the image grid, A(omega_k)
    D: dict                 # k -> bool mask, {M^d f > a^k / 4^n}
    D_A: dict
    out_box: tuple           # (lo, hi) of the image grid
    exact: bool              # True when cell transport was bijective
    cell_volume_in: float
    cell_volume_out: float


def level_sets(f: GridFunction, A, a: float, k_range,
               lengths="all") -> LevelSets:
    """Superlevel sets of the maximal fields and their images under A.

    omega_k = {Mf > a^k} (sup over every position of the selected window
    lengths), D_k = {M^d f > a^k/4^n}.  The image grid is A(box) with f's
    cell counts; each image cell takes the set membership of the input cell
    holding the preimage of its center, and cells whose preimage leaves the
    box are outside.  ``exact`` is True when this cell transport is one to
    one, so the images are exact cell sets; otherwise they are the
    nearest-cell approximation.
    """
    A = resolve_matrix(A, f.dim)
    M = hl_maximal(f, lengths=lengths)
    Md = dyadic_maximal(f)
    ks = sorted(int(k) for k in k_range)
    lo, hi, back, fault = _cell_transport(f, A)
    exact = fault is None
    inside = back >= 0

    def image(mask):
        return np.where(inside, mask.ravel()[back], False).reshape(f.shape)

    omega, omega_A, Dm, D_A = {}, {}, {}, {}
    for k in ks:
        omega[k] = M.values > a ** k
        Dm[k] = Md.values > a ** k / 4 ** f.dim
        omega_A[k] = image(omega[k])
        D_A[k] = image(Dm[k])
    vol_out = float(np.prod([(b - aa) / m for (aa, b), m
                             in zip(zip(lo, hi), f.shape)]))
    return LevelSets(ks, omega, omega_A, Dm, D_A, (lo, hi), exact,
                     f.cell_volume, vol_out)


# ---------------------------------------------------------------------------
# the theorem chain
# ---------------------------------------------------------------------------

@dataclass
class ChainStep:
    name: str
    description: str
    lhs: float
    rhs: float
    extra: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def rel_slack(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return self.slack / scale


@dataclass
class ChainReport:
    applicable: bool
    reason: str
    steps: list
    constants: dict
    fractional: bool

    @property
    def min_rel_slack(self) -> float:
        worst = math.inf
        for s in self.steps:
            if math.isnan(s.rel_slack):
                return math.nan
            worst = min(worst, s.rel_slack)
        return worst if self.steps else 0.0

    def passed(self, tol: float = 1e-6) -> bool:
        if not self.applicable:
            return False
        return all(s.rel_slack >= -tol for s in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "reason": self.reason,
            "fractional": self.fractional,
            "constants": {k: _json_num(v) for k, v in sorted(self.constants.items())},
            "steps": [
                {"name": s.name, "description": s.description,
                 "lhs": _json_num(s.lhs), "rhs": _json_num(s.rhs),
                 "rel_slack": _json_num(s.rel_slack),
                 "extra": {k: _json_num(v) for k, v in sorted(s.extra.items())}}
                for s in self.steps
            ],
        }


def _json_num(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def _tripled(corner: np.ndarray, side: np.ndarray, n: int):
    """(lo, ext): the cubes with these corners ((m, dim)) and sides ((m,))
    tripled about their centers and clipped to n cells per axis, as start
    and extent arrays."""
    s = side[:, None]
    lo = np.maximum(corner - s, 0)
    return lo, np.minimum(corner + 2 * s, n) - lo


def _tripled_cover(shape, corner: np.ndarray, side: np.ndarray) -> np.ndarray:
    """The union of the cubes tripled about their centers, clipped to the
    grid: per side, the cubes' dyadic blocks dilated by one block per axis."""
    cover = np.zeros(shape, dtype=bool)
    for s in np.unique(side).tolist():
        blocks = np.zeros(tuple(n // s for n in shape), dtype=bool)
        blocks[tuple((corner[side == s] // s).T)] = True
        for axis in range(blocks.ndim):
            below = (slice(None),) * axis + (slice(None, -1),)
            above = (slice(None),) * axis + (slice(1, None),)
            blocks[above] |= blocks[below]
            blocks[below] |= blocks[above]
        view = _blocks(cover, s)
        view |= blocks[(slice(None), None) * blocks.ndim]
    return cover


class _UsedCubes(NamedTuple):
    """The stopping cubes of the chain's levels ks as columns, in (k, span)
    order, with every per-cube term that depends on f alone."""
    esets: _ESets           # their E sets, over the same plan of the cubes
    plan3: _SpanPlan        # the clipped triples
    cells3: np.ndarray      # (m,) cells of the clipped triples
    k_of: list              # the level of each cube
    side_a: list            # side^alpha
    cells: list             # side^dim
    average: list           # exact average of f, rounded once
    value: list             # side^alpha * average


class _CubeTerms(NamedTuple):
    """The per-cube terms of the chain that depend on (w, p) and not on A."""
    g_norm: list            # ||g||_{phibar,Q}, g = f w^{1/p} (fractional: f w)
    v_norm: list            # ||w^{-1/p}||_{phi,Q} (fractional: w^-1)
    norms3: list | None     # the dual weight's phi-norms on the triples
    sweep_error: ValueError | None  # raised by the M_phibar g sweep
    minima: list | None     # min of M_phibar g over each E set
    int_Mg: float | None    # integral of (M_phibar g)^p


def _weight_key(w, dim: int) -> tuple:
    """A weight by the identities of its factors, in order, so a pair built
    afresh from the same factors is the same weight; a 2D w that is no
    tuple or list is keyed by its own, and its case raises as a single
    call does."""
    if dim > 1 and isinstance(w, (tuple, list)):
        return tuple(map(id, w))
    return (id(w),)


def _powered(x: np.ndarray, e: float, alone: bool) -> np.ndarray:
    """x ** e, taken in place when the caller holds x alone."""
    if alone:
        x **= e
        return x
    return x ** e


class _ChainCorpus:
    """One ``theorem_chain_checks`` batch: f, the box Y it is embedded in,
    and one table of the parts that the cases share.

    A part is keyed by its name and what it depends on: nothing (the
    embedding fY, the dyadic field M with its layers, the used cubes), p
    (the B_p integral), A (the matrix, the cell transport), w (w sampled
    on Y), (w, p) (the right-hand side, the per-cube terms) or (w, A)
    (w_A, the pulled-back image-side weight, its layer totals, the
    masses; (w, A, p) in the fractional chain, as these carry the power
    q).  w is keyed by ``_weight_key``, a scalar A by its value and any
    other A by identity.  The reading case's builder makes a part on
    first use.  The readers come from the case list: every case reads
    the parts of its keys, except w on Y, which only the first case of
    each (w, p) reads, as only it builds that half.  The table holds a
    part until the end of its last reader's case, even one that returns
    early; that case takes it alone at its final read (``take``), so it
    may power it in place, and drops each whole grid where a single chain
    does."""

    def __init__(self, f: GridFunction, a: float, alpha: float,
                 phi: YoungFn, cases: list):
        self.f, self.a, self.alpha = f, a, alpha
        self.phi, self.phibar = phi, complementary(phi)
        # f embedded into the concentric box Y = 4 X
        n = f.shape[0]
        L = f.hi[0] - f.lo[0]
        self.Ylo = tuple(lo - 1.5 * L for lo in f.lo)
        self.Yhi = tuple(hi + 1.5 * L for hi in f.hi)
        self.NY = 4 * n
        self.inner = (slice(3 * n // 2, 3 * n // 2 + n),) * f.dim  # X in Y
        # per case, the key of each part by name; per key, its last reader
        self._keys, self._last, self._held, self.case = [], {}, {}, 0
        for i, (w, A, p) in enumerate(cases):
            wk = _weight_key(w, f.dim)
            ak = ("scalar", A) if np.isscalar(A) else ("object", id(A))
            image = (wk, ak, p if alpha > 0.0 else None)
            deps = {"fY": (), "field": (), "used": (), "bp": (p,),
                    "A": (ak,), "transport": (ak,), "wY": (wk,),
                    "rhs": (wk, p), "terms": (wk, p), "wA": (wk, ak),
                    "w_back": image, "w_totals": image, "masses": image}
            keys = {name: (name, *dep) for name, dep in deps.items()}
            first = keys["rhs"] not in self._last
            self._last.update((key, i) for name, key in keys.items()
                              if first or name != "wY")
            self._keys.append(keys)

    def part(self, name: str, build):
        """The current case's part ``name``, made by ``build()`` on first
        use."""
        key = self._keys[self.case][name]
        if key not in self._held:
            self._held[key] = build()
        return self._held[key]

    def take(self, name: str, build):
        """``part`` at the case's final read of it, and whether the case
        holds it alone: when no later case reads it, it leaves the table."""
        part = self.part(name, build)
        key = self._keys[self.case][name]
        alone = self._last[key] <= self.case
        if alone:
            del self._held[key]
        return part, alone

    def end_case(self):
        """Drops the parts that no later case reads, read or not."""
        self._held = {key: part for key, part in self._held.items()
                      if self._last[key] > self.case}
        self.case += 1

    def embed(self) -> GridFunction:
        """fY: f on Y, zero off X."""
        vals = np.zeros((self.NY,) * self.f.dim)
        vals[self.inner] = self.f.values
        return GridFunction((self.Ylo, self.Yhi), vals)

    def on_Y(self, factors) -> np.ndarray:
        """A product weight sampled on Y's cells."""
        return product_averages(factors, self.Ylo, self.Yhi, self.NY)

    def field(self):
        """(M, layer, ks): M = M^d_alpha fY, unpowered, the chain's levels
        ks = k_low .. k_max, and per cell the layer that M falls in; or the
        error that the sweep or the k range raised, kept for the case to
        raise where it reads the field, as ``_CubeTerms`` keeps its
        sweep's."""
        fY, a = self.part("fY", self.embed), self.a
        try:
            M = fractional_maximal(fY, self.alpha, lengths="dyadic").values
            k_low = root_level(fY, a, self.alpha)
            Mmax = float(M.max())
            k_max = k_low
            while a ** (k_max + 1) < Mmax and k_max - k_low < 400:
                k_max += 1
            # omega_{k_max + 1} = empty by construction of k_max
            ks = list(range(k_low, k_max + 1))
            if Mmax > a ** (k_max + 1):
                k_max += 1
                ks.append(k_max)
            # layer[x] counts the k in ks + [k_max + 1] with M(x) > a^k, so
            # omega_k = {layer > k - k_low} and the tail is {layer = 0}; one
            # labelled exact pass over each of M^E w and w gives every
            # layer's exact total, and omega_k's is the total of the layers
            # above it
            layer = np.searchsorted([a ** k for k in ks + [k_max + 1]],
                                    M).astype(np.uint16)  # < 404 layers
        except (ValueError, ArithmeticError) as err:
            return err.with_traceback(None)
        return M, layer, ks

    def used(self, layer: np.ndarray, ks: list):
        """The used cubes (``_UsedCubes``), or the reason the tripled-cube
        cover check failed: fY decomposed for ks and one level above, and
        omega_k checked to lie inside the union of the clipped tripled
        cubes of D_k."""
        fY, k_low = self.part("fY", self.embed), ks[0]
        dec = cz_decompose(fY, self.a, range(k_low, ks[-1] + 2),
                           alpha=self.alpha)
        levels = [dec.levels[k] for k in ks]
        for k, lv in zip(ks, levels):
            cover = _tripled_cover(fY.shape, lv.corner, lv.side)
            if ((layer > k - k_low) & ~cover).any():
                return f"triple-cube cover failed at k={k}"
        # every per-cube power is a Python float power
        corner, side, average, value = map(np.concatenate, zip(*levels))
        lo3, ext3 = _tripled(corner, side, self.NY)
        # the levels with an E set are ks, so the E sets' plan is the plan
        # of the used cubes
        return _UsedCubes(
            _expansion(dec), _span_plan(lo3, ext3), ext3.prod(axis=1),
            np.repeat(ks, [len(lv.side) for lv in levels]).tolist(),
            [(s * fY.h[0]) ** self.alpha for s in side.tolist()],
            (side ** fY.dim).tolist(), average.tolist(), value.tolist())

    def rhs(self, factors, p: float) -> float | None:
        """The right-hand side int f^p w (fractional: f^p w^p), inf beyond
        the float range, or None where w vanishes on a cell of Y.  Exact
        sums go through one kernel: f vanishes off X, and zero cells add
        nothing to an exact sum."""
        wY = self.part("wY", functools.partial(self.on_Y, factors))
        if (wY <= 0).any():
            return None
        # an f^p or w^p cell that overflows makes the sum inf, as does a
        # sum beyond the float range; the case reports it
        with np.errstate(over="ignore"):
            weight = wY[self.inner] ** p if self.alpha > 0.0 \
                else wY[self.inner]
            cells = self.f.values ** p * weight
        volY = self.part("fY", self.embed).cell_volume
        try:
            return exact_sums(cells)[0] * volY
        except OverflowError:
            return math.inf

    def cube_terms(self, used: _UsedCubes, factors, p: float) -> _CubeTerms:
        """The (w, p) per-cube terms from w sampled on Y: the Luxemburg
        norms of g = f w^{1/p} and of the dual weight w^{-1/p} (fractional:
        f w and w^-1) on the used cubes, the dual weight's on their clipped
        triples for a homogeneous phi, then one M_phibar g sweep (or the
        error it raises), its minima over the E sets and the integral of
        its p-th power."""
        fY = self.part("fY", self.embed)
        wY, alone = self.take("wY", functools.partial(self.on_Y, factors))
        if self.alpha > 0.0:
            g_vals = fY.values * wY
            wY = _powered(wY, -1.0, alone)
        else:
            g_vals = wY ** (1.0 / p)
            g_vals *= fY.values
            wY = _powered(wY, -1.0 / p, alone)
        phi, phibar = self.phi, self.phibar
        g_norm, v_norm = _span_reduce(
            used.esets.plan,
            lambda g, v: np.column_stack([luxemburg_norms(g, phibar),
                                          luxemburg_norms(v, phi)]),
            g_vals, wY).T.tolist()
        # reference bump with norms on the clipped triples, for the class bound
        norms3 = _span_reduce(used.plan3, lambda r: luxemburg_norms(r, phi),
                              wY).tolist() \
            if used.k_of and phi.is_homogeneous else None
        del wY
        try:
            Mg = orlicz_maximal(GridFunction((self.Ylo, self.Yhi), g_vals),
                                phibar, lengths="dyadic").values
        except ValueError as err:
            return _CubeTerms(g_norm, v_norm, norms3,
                              err.with_traceback(None), None, None)
        del g_vals
        minima = _e_minima(used.esets, Mg).tolist()
        Mg **= p
        return _CubeTerms(g_norm, v_norm, norms3, None, minima,
                          exact_sums(Mg)[0] * fY.cell_volume)

    def pull_back(self, factors, lo, hi, perm: np.ndarray, q: float):
        """(w_back, missing): w sampled on the image grid [lo, hi]
        (fractional: w^q) and pulled back to the input grid through the
        cell bijection (image cell o is A of input cell perm[o]), so every
        image-side sum runs over the input grid, with the count of image
        cells where w vanishes."""
        w_out = product_averages(factors, lo, hi, self.NY)
        missing = int((w_out <= 0).sum())
        if self.alpha > 0.0:
            w_out **= q
        w_back = np.empty(perm.size)
        w_back[perm] = w_out.ravel()
        return w_back.reshape((self.NY,) * self.f.dim), missing

    def masses(self, used: _UsedCubes, wA, w_back: np.ndarray, q: float,
               vol_out: float):
        """The image masses of the used cubes' clipped triples, and the
        masses and averages of w_A (fractional: w_A^q) on them: w_A is
        sampled on Y for this one pass of row sums."""
        WA_vals = self.on_Y(wA)
        if self.alpha > 0.0:
            WA_vals **= q
        image_mass, wa = _span_reduce(
            used.plan3,
            lambda r, s: np.column_stack([r.sum(axis=1), s.sum(axis=1)]),
            w_back, WA_vals).T
        volY = self.part("fY", self.embed).cell_volume
        return ((image_mass * vol_out).tolist(), (wa * volY).tolist(),
                (wa / used.cells3).tolist())


def theorem_chain_check(f: GridFunction, w, A, p: float, phi: YoungFn,
                        a: float | None = None,
                        alpha: float = 0.0) -> ChainReport:
    """Replays the weighted-bound proof chain on one grid, step by step.

    f is a nonnegative grid function on a box X with a power-of-two cell
    count; w is an analytic weight (1D) or a pair of them (2D product);
    phi is the bump Young function whose complement drives the final
    maximal bound.  alpha > 0 runs the fractional chain with q from
    1/q = 1/p - alpha/n and the weight powers w^p, w^q; alpha = 0 is the
    plain chain (q = p).  Every step reports (lhs, rhs); the proof holds
    numerically when all relative slacks stay above -1e-6.  This is the
    batch of one of ``theorem_chain_checks``.
    """
    return theorem_chain_checks(f, [(w, A, p)], phi, a, alpha)[0]


def theorem_chain_checks(f: GridFunction, cases, phi: YoungFn,
                         a: float | None = None,
                         alpha: float = 0.0) -> list:
    """One ``theorem_chain_check`` report per case (w, A, p), in order.

    The cases share f, phi, a and alpha, and one table of parts
    (``_ChainCorpus``), each built once for the cases that read it: once
    per batch, the f-only half (the embedding, the dyadic field and its k
    range, the stopping cubes with their cover check and per-cube
    columns, the span plans of the cubes and of their clipped triples,
    the E sets' counts, beta and disjointness); once per p, the B_p
    integral; once per A, the matrix and the cell bijection; once per w,
    w sampled on Y; once per (w, p), the right-hand side, the Luxemburg
    norms of g and of the dual weight, the M_phibar g sweep (or its
    error), its minima over the E sets and its integral; once per (w, A)
    (fractional: per (w, A, p), as the image-side weights carry the power
    q), the composition, the image-side weight pulled back, its layer
    totals, and the image and w_A masses.  Per case, what depends on
    (w, A, p): the layer totals of M^E w, B_used and the bump-class
    check.  Each report has the bytes of the single call on its case, and
    cases in any order give the same reports.
    """
    n = _dyadic_cells(f)
    if n < 2:
        raise ValueError("f needs at least two cells per axis")
    if a is None:
        a = float(2 ** (f.dim + 2))
    cases = list(cases)
    corpus = _ChainCorpus(f, a, alpha, phi, cases)
    reports = []
    for w, A, p in cases:
        reports.append(_chain_case(corpus, w, A, p))
        corpus.end_case()
    return reports


def _chain_case(c: _ChainCorpus, w, A, p: float) -> ChainReport:
    """The chain on one case (w, A, p) of a batch, reading the parts it
    shares with the other cases from c.  A power that leaves the float
    range, a Python float one (a^((k+1) q) at a large p, say) or a
    whole-grid one (M^q, w^q), ends the case with a not-applicable report
    naming the last step it built."""
    steps = []
    try:
        with np.errstate(over="raise"):
            return _chain_steps(c, w, A, p, steps)
    except (OverflowError, FloatingPointError):
        after = f"after step {steps[-1].name}" if steps else \
            "before its first step"
        return ChainReport(False, "a power of the chain overflows the float "
                           f"range at p = {p!r}, {after}", steps, {},
                           c.alpha > 0.0)


def _chain_steps(c: _ChainCorpus, w, A, p: float,
                 steps: list) -> ChainReport:
    """``_chain_case``'s report, appending each step to ``steps``."""
    f, a, alpha = c.f, c.a, c.alpha
    dim = f.dim
    A = c.part("A", functools.partial(resolve_matrix, A, dim))
    check_a(a, dim)
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError("need a finite p > 1")
    check_alpha(alpha, dim)
    factors = (w,) if dim == 1 else tuple(w)
    if len(factors) != dim:
        raise ValueError(f"w needs one factor per axis, {dim} in all")
    frac = alpha > 0.0
    if frac:
        inv_q = 1.0 / p - alpha / dim
        if inv_q <= 0.0:
            raise ValueError("alpha too large for this p")
        q = 1.0 / inv_q
    else:
        q = p
    E = q                       # exponent of the left-hand side
    phi = c.phi

    def fail(reason: str) -> ChainReport:
        return ChainReport(False, reason, steps, {}, frac)

    # ---- geometry: f embedded into the concentric box Y = 4 X (shared) ---
    fY = c.part("fY", c.embed)
    volY = fY.cell_volume

    # ---- weights ---------------------------------------------------------
    # discrete fields: the chain treats the sampled cell averages as the
    # weight; all powers below are cellwise powers of those averages.  A
    # whole grid that dies partway through the case is deleted there
    try:
        wA = c.part("wA", lambda: compose_matrix(factors, A))
    except DomainError as err:
        return fail(str(err))
    (out_lo, out_hi, perm, fault), _ = c.take(
        "transport", lambda: _cell_transport(fY, A))
    if fault:
        return fail(f"cell transport not exact: {fault}")
    (w_back, missing_out), _ = c.take(
        "w_back", lambda: c.pull_back(factors, out_lo, out_hi, perm, q))
    del perm
    det = abs(A.det)
    vol_out = float(np.prod([(b - aa) / c.NY
                             for aa, b in zip(out_lo, out_hi)]))

    # the dyadic field is swept before w is sampled on Y, so the sweep
    # and w's grid are never live together; its error, if any, is raised
    # below, where the chain reads it
    field, alone = c.take("field", c.field)
    rhs_base = c.part("rhs", lambda: c.rhs(factors, p))
    if rhs_base is None:
        return fail("weight vanishes on a cell of the working box")
    power = "w^p" if frac else "w"
    if math.isinf(rhs_base):
        return fail(f"right-hand side overflows: the integral of f^p {power} "
                    f"leaves the float range at p = {p!r}")
    if rhs_base == 0.0:
        if f.values.any():
            # w > 0 on every cell, so only underflow rounds it to 0
            return fail(f"right-hand side underflows: the integral of f^p "
                        f"{power} rounds to 0 at p = {p!r} on a nonzero f")
        return ChainReport(True, "f is zero; chain is vacuous",
                           [ChainStep("vacuous", "zero function", 0.0, 0.0)],
                           {"rhs_base": 0.0}, frac)

    # ---- maximal field, k range and layers (shared) ----------------------
    if isinstance(field, Exception):
        raise copy.copy(field)  # a copy: the kept error holds no case's frames
    M, layer, ks = field
    del field                   # M and layer die under their own names
    k_low, k_max = ks[0], ks[-1]
    n_layers = len(ks) + 2
    M = _powered(M, E, alone)
    M *= w_back                 # M^E w
    me_totals = exact_totals(M, layer, n_layers)
    del M
    w_totals = c.part("w_totals",
                      lambda: exact_totals(w_back, layer, n_layers))
    lhs_total = round_total(add_totals(me_totals)) * vol_out

    # tail: cells where the maximal field never exceeds a^{k_low}
    tail_actual = round_total(me_totals[0]) * vol_out
    tail_bound = a ** (k_low * E) * round_total(w_totals[0]) * vol_out
    steps.append(ChainStep(
        "tail", "below-threshold remainder bounded by its level",
        tail_actual, tail_bound, {"k_low": k_low, "k_max": k_max}))

    # s1: slicing identity
    v_sliced = math.fsum([round_total(me_totals[i + 1]) * vol_out
                          for i in range(len(ks))]) + tail_actual
    steps.append(ChainStep(
        "s1_slicing", "integral equals the sum over level-set layers",
        lhs_total, v_sliced, {"layers": len(ks)}))

    # s2: threshold bound per layer, then monotone extension to omega_k
    v2 = tail_bound + math.fsum(
        a ** ((k + 1) * E)
        * (round_total(add_totals(w_totals[i + 1:])) * vol_out)
        for i, k in enumerate(ks))
    steps.append(ChainStep(
        "s2_threshold", "each layer bounded by a^{(k+1)E} times the weight "
        "of the image level set", v_sliced, v2))

    # CZ decomposition for k_low .. k_max + 1 and the cover check (shared):
    # omega_k inside the union of clipped tripled cubes
    used = c.part("used", lambda: c.used(layer, ks))
    del layer
    if isinstance(used, str):
        return fail(used)

    # the used cubes as columns, in (k, span) order: the masses reduce the
    # clipped triples of one shape at a time.  Every per-cube power below
    # is a Python float power.
    image_mass, wa_mass, wa_avg = c.part(
        "masses", lambda: c.masses(used, wA, w_back, q, vol_out))
    del w_back
    # the norms, the M_phibar g sweep and its E-set terms, once per (w, p)
    g_norm, v_norm, norms3, sweep_error, minima, int_Mg = c.part(
        "terms", lambda: c.cube_terms(used, factors, p))
    cells3 = used.cells3.tolist()
    ek, ecounts = used.esets.report, used.esets.counts.tolist()
    side_a, cells, k_of = used.side_a, used.cells, used.k_of
    average, value = used.average, used.value
    n_used = len(k_of)
    # s2c: replace level sets by the tripled covers
    v3 = tail_bound + a ** E * math.fsum(
        a ** (k * E) * math.fsum(m for kk, m in zip(k_of, image_mass)
                                 if kk == k)
        for k in ks)
    steps.append(ChainStep(
        "s2c_cover", "level sets covered by tripled stopping cubes "
        "(set inclusion verified exactly)", v2, v3))

    # the constant factor a^E |det A| 4^{nE} 2^E B^E 3^n grows one step at
    # a time, multiplied left to right
    c_det = a ** E * det

    # s2d: substitute the image-side masses by |det A| * masses of w_A^E
    v3b = tail_bound + c_det * math.fsum(
        a ** (k * E) * m for k, m in zip(k_of, wa_mass))
    steps.append(ChainStep(
        "s2d_substitution", "image-grid masses equal |det A| times the "
        "pulled-back weight masses", v3, v3b,
        {"det": det, "identity_defect": (v3b - v3) / max(v3, 1e-300)}))

    # s2e: sandwich lower bound replaces a^k by the cube averages
    c_sand = c_det * 4 ** (dim * E)
    v4 = tail_bound + c_sand * math.fsum(
        v ** E * m for v, m in zip(value, wa_mass))
    steps.append(ChainStep(
        "s2e_sandwich", "a^k < 4^n (side^alpha avg_Q f) on stopping cubes",
        v3b, v4))

    # s3: generalized Holder on each stopping cube
    holder_worst = min([math.inf] + [
        (2.0 * gn * vn - av) / max(av, 1e-300)
        for gn, vn, av in zip(g_norm, v_norm, average)])
    v5 = tail_bound + c_sand * math.fsum(
        (2.0 * gn * vn * sa) ** E * m
        for gn, vn, sa, m in zip(g_norm, v_norm, side_a, wa_mass))
    steps.append(ChainStep(
        "s3_holder", "avg_Q f <= 2 ||f w^{1/p}||_{comp,Q} ||w^{-1/p}||_{phi,Q} "
        "(fractional: f w and w^{-1})", v4, v5,
        {"worst_percube_defect": holder_worst if n_used else 0.0}))

    # s4: extract the bump constant measured on the used cubes; the side^alpha
    # factor stays with the g terms, where it later regroups the exponents
    B_used = max((vn * wv ** (1.0 / E) for vn, wv in zip(v_norm, wa_avg)),
                 default=0.0)
    if not math.isfinite(B_used):
        return fail("bump constant infinite on a used cube")
    sum_g_R = math.fsum(
        (gn * sa) ** E * c3 * volY
        for gn, sa, c3 in zip(g_norm, side_a, cells3))
    c_bump = c_sand * 2 ** E * B_used ** E
    v6 = tail_bound + c_bump * sum_g_R
    steps.append(ChainStep(
        "s4_bump", "per-cube bump products bounded by their maximum B",
        v5, v6, {"B_used": B_used}))

    # s4b: clipped triples are at most 3^n times their cubes
    c_tri = c_bump * 3 ** dim
    v7 = tail_bound + c_tri * math.fsum(
        (gn ** p * c * volY) ** (E / p) for gn, c in zip(g_norm, cells))
    steps.append(ChainStep(
        "s4b_triple", "|3Q clipped| <= 3^n |Q|, exponents regrouped to "
        "(||g||^p |Q|)^{q/p}", v6, v7))

    # s5a: little-ell q/p norm below the ell-1 norm
    sum_lin = math.fsum(gn ** p * c * volY for gn, c in zip(g_norm, cells))
    v8 = tail_bound + c_tri * sum_lin ** (E / p)
    steps.append(ChainStep(
        "s5a_ellqp", "sum of (||g||^p |Q|)^{q/p} at most (sum ||g||^p |Q|)^{q/p}",
        v7, v8))

    # s5b: expansion |Q| <= beta |E_{k,j}| with disjoint E sets; the sweep
    # ran with the norms, but its failure is reported after theirs
    beta = ek["beta"]
    if not math.isfinite(beta):
        return fail(f"empty E set below {ek['witness']}")
    if not ek["disjoint"]:
        return fail("E sets are not disjoint")
    if sweep_error is not None:
        return fail("cannot sweep the complementary-bump maximal field: "
                    f"{sweep_error}")
    dom_worst = math.inf
    sum_E = 0.0
    for gn, ecount, low in zip(g_norm, ecounts, minima):
        sum_E += gn ** p * ecount * volY
        if ecount:
            dom_worst = min(dom_worst, (low - gn) / max(gn, 1e-300))
    v9 = tail_bound + c_tri * (beta * sum_E) ** (E / p)
    steps.append(ChainStep(
        "s5b_expansion", "|Q| <= beta |E|, beta measured on the decomposition",
        v8, v9, {"beta": beta}))

    # s5c: the E sets are disjoint and M_phibar g dominates ||g|| on each
    v10 = tail_bound + c_tri * (beta * int_Mg) ** (E / p)
    steps.append(ChainStep(
        "s5c_domination", "sum ||g||^p |E| at most the integral of (M_phibar g)^p",
        v9, v10, {"worst_domination_defect": dom_worst if n_used else 0.0}))

    # s5d: empirical maximal-operator constant closes the chain
    C_emp = int_Mg / rhs_base
    bp = c.part("bp", lambda: bp_integral(c.phibar, p))
    c_total = c_tri * (beta * C_emp) ** (E / p)
    v11 = tail_bound + c_total * rhs_base ** (E / p)
    steps.append(ChainStep(
        "s5d_closure", "integral of (M_phibar g)^p written as C_emp ||g||_p^p",
        v10, v11, {"C_emp": C_emp, "bp_total": bp.total,
                   "bp_converges": bp.converges}))

    steps.append(ChainStep(
        "final", "left-hand side against the assembled right-hand side",
        lhs_total, v11))

    if norms3 is not None:
        b3 = max([0.0] + [nrm * wv ** (1.0 / E)
                          for nrm, wv in zip(norms3, wa_avg)])
        class_factor = 3 ** (dim / phi.exponent)
        class_check = B_used <= class_factor * b3 * (1.0 + 1e-9)
    else:
        b3, class_factor, class_check = None, None, None

    constants = {
        "a": a, "p": p, "q": q, "alpha": alpha, "det": det,
        "B_used": B_used, "beta": beta, "C_emp": C_emp,
        "bp_total": bp.total, "c_total": c_total,
        "lhs": lhs_total, "rhs_base": rhs_base,
        "theorem_ratio": lhs_total / rhs_base ** (E / p),
        "bound_ratio": c_total + tail_bound / rhs_base ** (E / p),
        "k_low": k_low, "k_max": k_max, "cubes_used": n_used,
        "missing_image_cells": missing_out,
        "bump_on_triples": b3, "bump_class_factor": class_factor,
        "bump_class_consistent": class_check,
    }
    return ChainReport(True, "", steps, constants, frac)
