"""Maximal operator fields on grids.

Every operator here returns a new GridFunction on the same grid whose cell
value is the supremum, over a declared set of grid-aligned cubes containing
that cell, of a cube functional of the input:

* ``hl_maximal``           average over the cube
* ``fractional_maximal``   |Q|^(alpha/n) times the average
* ``dyadic_maximal``       average, cubes restricted to the dyadic splits
* ``orlicz_maximal``       normalized Luxemburg norm over the cube

A cube functional gives its values on a window set: a side length in cells
and one ``slice`` of window starts per axis.  The functionals are
prefix-sum averages (optionally powered, for homogeneous Young functions),
window maxima (the sup-norm Young function) and Luxemburg norms of the
windows gathered as rows (any other Young function).  The window set
picks one of three paths that spread the values to the cells:

* **Lattice sweep** (``_sweep``): a ``CubeFamily`` or the dyadic splits.
  Each lattice tiles its region, so its values are repeated over their
  windows and the cell keeps the largest.
* **Nested recursion** (``_nested_max``): ``family=None``, every position
  of each side selected by ``lengths``.  With D_L the largest value over
  the listed windows of side L or more that contain the window of side L,
  and L < L' consecutive listed sides, D_L is the larger of that side's
  own values and the trailing maximum of width L' - L + 1 of D_L' along
  every axis.  The sides run from the largest down; with every length the
  width is 2, so a level costs a few shifted maxima, and other widths
  double shifted maxima up to the width.  A level holds only the starts of
  the windows that meet the bounding box of the nonzero cells (the others
  sum zeros and hold +0.0).  A start that a widening carries out of that
  region is written into the field once, in a strip widened at once by
  the width that the later levels would add, so the cost follows the box.
  With side n listed, the whole box's value F0 lies under every cell, so
  a window that cannot exceed it changes nothing: the averages bound, for
  each dyadic range of sides, the cells that could lift a window above
  F0, rounding included, and the recursion runs once per range on the
  bounding box of those cells (the whole-box floor).
* **Quadrant maximum** (``_quadrant_max``): every length on a 1D grid,
  where the recursion is the quadrant maximum field[i] = max of V[a, b]
  over a <= i < b of the window values V.  It takes a stack of grids of
  one cell count, a single grid being a stack of one (``hl_maximals``
  sweeps many at once), and runs in blocks of a fixed number of rows a,
  with maxima along b and along a.  The values come from one stack of the
  grids' prefix sums, divided by sides read, like the scale factors, from
  one matrix of window lengths, so no window is gathered.  A chunk of one
  grid bounds the windows past each block by tiles and computes only the
  tiles whose bound reaches a real window's value at some cell they cover.

All three read the same window values and max is exact, so each field
equals the per-length spread of every window bit for bit.  One exception:
a 2D prefix difference over a window of zeros can leave a cancellation
residue, which the spread carries and the nested recursion, never
evaluating that window, does not.  A listed whole-box window outweighs
any residue, so this shows only for explicit ``lengths`` without n.

With ``family=None`` and all lengths the supremum dominates any family on
the same grid.  Cells without a defined value (mask False) contribute
their stored value 0, so all fields are lower bounds for the operators
applied to any nonnegative extension of the data.

``matrix_compose`` evaluates a field at A^(-1) x, which turns a plain
maximal field into the matrix-composed variant.  Which input cell an
output cell reads is decided in one place, ``preimage_cells``, in any
dimension; ``czlab`` transports level sets and the chain's grids with it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .funcspace import (
    CubeFamily,
    GridFunction,
    SquareMatrix,
    _cumsum_prefix,
    _normalize_box,
    resolve_matrix,
    span_rows,
)
from .young import YoungFn, luxemburg_norms

__all__ = [
    "hl_maximal",
    "hl_maximals",
    "fractional_maximal",
    "dyadic_maximal",
    "orlicz_maximal",
    "matrix_compose",
    "preimage_cells",
    "image_box",
]


# ---------------------------------------------------------------------------
# sliding maxima (exact, O(n log L) per call)
# ---------------------------------------------------------------------------

def _doubling_max(y: np.ndarray, L: int, axis: int) -> np.ndarray:
    """In place along ``axis``: y[i] = max(y[max(0, i-L+1) : i+1]); returns y.

    Shifted maxima at spans 1, 2, 4, ... double the width of every entry's
    range until it reaches L; the last shift is L - span, so the ranges of
    the two halves overlap.  The passes alternate between y and one scratch
    array, copying over the first entries that a pass leaves as they are,
    so no operand of np.maximum overlaps its output and numpy makes no
    hidden copy of it.  An odd number of passes ends in the scratch array,
    which is copied back: returning it and dropping y, the older array,
    raised the peak RSS of the benchmark's chain workload by about 1 MiB.
    Max is exact, so the value is that of any other order.  np.maximum
    keeps its second (earlier) operand on ties, so a tie of -0.0 and +0.0
    gives the leftmost entry's sign.
    """
    head = (slice(None),) * (axis % y.ndim)
    L = min(L, y.shape[axis])
    src, dst = y, None
    span = 1
    while span < L:
        s = min(span, L - span)
        if dst is None:
            dst = np.empty_like(y)
        dst[head + (slice(None, s),)] = src[head + (slice(None, s),)]
        np.maximum(src[head + (slice(s, None),)], src[head + (slice(None, -s),)],
                   out=dst[head + (slice(s, None),)])
        src, dst = dst, src
        span += s
    if src is not y:
        y[...] = src
    return y


def _widen(x: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Along ``axis``, out[a] = max(x[max(0, a-w+1) : a+1]) for a < m + w - 1,
    with m entries in x: each entry reaches the w positions from its own on.
    The last entry, repeated, pads the tail; it already lies in every tail
    position's range.  When m <= w every position in [m - 1, w) reaches all
    of x, the ones before it a running maximum from the first entry and the
    ones after it one from the last, which takes a few passes whatever w.
    A tie of -0.0 and +0.0 gives the leftmost entry's sign, as in
    ``_doubling_max``.  A width of 1 returns x itself."""
    if w == 1:
        return x
    head = (slice(None),) * axis
    m = x.shape[axis]
    shape = list(x.shape)
    shape[axis] += w - 1
    y = np.empty(shape)
    if m <= w:
        front = y[head + (slice(None, m),)]
        np.maximum.accumulate(x, axis=axis, out=front)
        if np.signbit(x).any():
            # the running maximum keeps the later of two tied zeros: a zero
            # maximum takes the sign of the first zero of its row instead
            zero = np.take_along_axis(
                x, np.argmax(x == 0, axis=axis, keepdims=True), axis)
            np.copyto(front, zero, where=front == 0)
        y[head + (slice(m, w),)] = front[head + (slice(m - 1, m),)]
        tail = np.flip(x[head + (slice(1, None),)], axis)
        y[head + (slice(w, None),)] = np.flip(
            np.maximum.accumulate(tail, axis=axis), axis)
        return y
    y[head + (slice(None, m),)] = x
    y[head + (slice(m, None),)] = x[head + (slice(m - 1, m),)]
    return _doubling_max(y, w, axis)


# ---------------------------------------------------------------------------
# window sets and the sweeps
# ---------------------------------------------------------------------------

def _every_length(lengths) -> bool:
    # a str test first: an array of lengths compared to "all" is elementwise
    return isinstance(lengths, str) and lengths == "all"


def _length_list(n: int, lengths) -> list:
    """Window side lengths in cells: "all", "dyadic" (sides n / 2^j plus
    single cells), or an explicit iterable of lengths in 1..n."""
    if _every_length(lengths):
        return list(range(1, n + 1))
    if isinstance(lengths, str):
        if lengths != "dyadic":
            raise ValueError("lengths must be 'all', 'dyadic' or "
                             "an iterable of lengths")
        out = []
        side = n
        while side >= 1:
            out.append(side)
            if side % 2 or side == 1:
                break
            side //= 2
        if out[-1] != 1:
            out.append(1)
        return sorted(set(out))
    out = sorted({int(L) for L in lengths})
    if not out:
        raise ValueError("lengths must list at least one window length")
    if not 1 <= out[0] <= out[-1] <= n:
        raise ValueError(f"window lengths must lie in 1..{n}")
    return out


def _square_cells(f: GridFunction) -> int:
    """Cells per axis; the windows are cubes, so a 2D grid must be square."""
    if f.dim == 2 and f.shape[0] != f.shape[1]:
        raise ValueError("maximal sweeps need a square grid")
    return f.shape[0]


def _lattices(f: GridFunction, family) -> list:
    """(side, starts) window sets, one lattice per level and offset of the
    family."""
    n = f.shape[0]
    if not isinstance(family, CubeFamily):
        raise TypeError("family must be a CubeFamily or None")
    if abs(family.box_side - (f.hi[0] - f.lo[0])) > 1e-9 * family.box_side \
            or any(abs(a - b) > 1e-9 for a, b in zip(family.lo, f.lo)):
        raise ValueError("family box must match the grid box")
    return [(side, (slice(off, starts[-1] + 1, side),) * f.dim)
            for _, off, side, starts in family.cell_spans(n)]


def _scale(side: int, h: float, alpha: float) -> float:
    """The factor (side * h)^alpha = |Q|^(alpha/n) of a cube of ``side``
    cells, as a Python float."""
    return (side * h) ** alpha


def _sweep(f: GridFunction, windows, cube_values,
           alpha: float = 0.0) -> GridFunction:
    """Field whose cell value is the largest side^alpha * cube_values(side,
    starts) entry over the windows containing the cell, for lattice window
    sets (step = side): each tiles its region, so its values are repeated
    over their windows.  alpha = 0 skips the scale factor, so every operator
    at alpha = 0 is bitwise ``hl_maximal`` whenever its cube values are."""
    _square_cells(f)
    h = f.h[0]
    out = np.full(f.shape, -np.inf)
    for side, starts in windows:
        vals = cube_values(side, starts)
        if alpha != 0.0:
            vals = vals * _scale(side, h, alpha)
        for axis in range(vals.ndim):
            vals = np.repeat(vals, side, axis=axis)
        region = out[tuple(slice(s.start, s.start + m)
                           for s, m in zip(starts, vals.shape))]
        np.maximum(region, vals, out=region)
    if np.isneginf(out).any():
        raise ValueError("the cubes do not cover the grid "
                         "(a family needs its level-0 lattice)")
    return GridFunction((f.lo, f.hi), out)


def _support_box(f: GridFunction):
    """[s_k, e_k) per axis, the bounding box of f's nonzero cells; None when
    every cell is zero."""
    nonzero = f.values != 0
    box = []
    for axis in range(f.dim):
        others = tuple(a for a in range(f.dim) if a != axis)
        hits = np.flatnonzero(nonzero.any(axis=others) if others else nonzero)
        if not hits.size:
            return None
        box.append((int(hits[0]), int(hits[-1]) + 1))
    return box


def _nested_max(f: GridFunction, lengths, cube_values,
                alpha: float = 0.0) -> GridFunction:
    """Field whose cell value is the largest side^alpha * cube value over
    the windows, at every position of each side in ``lengths``, that
    contain the cell.

    D_L[a] is the largest scaled value over the listed windows of side L or
    more that contain the window of side L at start a.  For consecutive
    listed sides L < L', such a window of side L' or more contains a window
    of side L' whose start lies in [a + L - L', a] on every axis, so D_L is
    the larger of U_L, the scaled values of side L, and the widening of
    width w = L' - L + 1 of D_L' along every axis (``_widen``).  The sides
    run in descending order, and a widening of the smallest side, ``last``,
    spreads its level onto the cells.  With consecutive sides w is 2, and
    the widening is the shifted copies of D_L' maxed together; in 2D along
    the second axis once, into a buffer, and then along the first.

    A run of the recursion holds, at side L, only its box region: the
    starts [max(0, s-L+1), min(m, e)) on each axis, m = n - L + 1, of the
    windows that meet a box [s, e).  It computes the field of the windows
    that meet the box, every other window read as +0.0; the argument below
    uses only the box's geometry.  A start in the region of side L reads
    only starts in the region of side L', so the recursion closes on the
    regions.  The widening of a region also reaches starts outside the next
    one; each of them is retired, written into the field once, in one of
    the strips that frame the next region, peeled off one axis at a time:

    * Along the axis d where a retired start a leaves the region, the
      recursion over whole levels passes its value through every later
      level unchanged, as D does not decrease up to the region and does not
      increase after it.  Before the region the start a is kept, after it
      the end a + L, so the value lands on the cells [a, a + last) or
      [a + L - last, a + L).
    * Along every other axis the later widenings and the spread compose to
      one widening of width L, as widenings of widths w and w' compose to
      one of width w + w' - 1.  The axes before d are already widened by
      w, so they take L more; the axes after d are not yet, so they take
      L' at once.

    In 1D the strips before the region, in order, the last region and the
    strips after it, reversed, tile one run of the last level's starts,
    which is spread once.  So every value reaches only cells of a listed
    window that holds it, and at least the cells that the recursion over
    whole levels reaches from it.

    Without side n listed, or for a functional without a ``floor_box``,
    one run covers every side with the support box of f's nonzero cells:
    every window outside it sums zeros and holds +0.0.  With side n, the
    whole-box window's value F0, taken from the first level, holds on
    every cell, so a window whose value cannot exceed F0 changes no cell.
    The functional's ``floor_box`` bounds, per group of sides, the cells
    that could lift a window above F0; the groups are the dyadic ranges
    (n/2^(j+1), n/2^j], and each runs the recursion with its own box.
    Neighbouring groups with equal boxes run as one, a group whose box is
    empty is skipped, and the group of side n always runs, at least on the
    support box, so its spread writes F0 onto every cell.  Every window
    left out holds a value in [+0.0, F0], max is exact and every value is
    at least +0.0, so the field equals the per-length spread of every
    window bit for bit.  With full support and no box smaller than the
    grid, nothing retires, and the spread of the last level is the field.
    """
    n = _square_cells(f)
    h = f.h[0]
    sides = _length_list(n, lengths)[::-1]
    support = _support_box(f)
    if support is None:
        return GridFunction((f.lo, f.hi), np.zeros(f.shape))
    field = None

    def scaled(L, starts):
        U = cube_values(L, tuple(slice(lo, hi) for lo, hi in starts))
        if alpha != 0.0:
            U *= _scale(L, h, alpha)
        return U

    def retire(X, firsts, widths):
        # X, widened by widths[k] along each axis k, lands on the cells from
        # firsts[k] on
        nonlocal field
        for axis, width in enumerate(widths):
            X = _widen(X, width, axis)
        if field is None:
            field = np.zeros(f.shape)
        cells = field[tuple(slice(c, c + k) for c, k in zip(firsts, X.shape))]
        np.maximum(cells, X, out=cells)

    def run(sides, box, D=None):
        # the recursion over ``sides`` on the regions of ``box``, from the
        # first level's values D, into the field
        nonlocal field
        last = sides[-1]
        lefts, rights = [], []      # 1D: strips before and after the regions

        def region(L):
            return [(max(0, s - L + 1), min(n - L + 1, e)) for s, e in box]

        old = region(sides[0])
        if D is None:
            D = scaled(sides[0], old)
        for prev, L in zip(sides, sides[1:]):
            w = prev - L + 1
            new = region(L)
            U = scaled(L, new)
            if w == 2:
                # the whole widening at once, over the starts [lo, hi + 1)
                # per axis: in place in U when U spans them, else in zeros
                W = U if new == [(lo, hi + 1) for lo, hi in old] else \
                    np.zeros(tuple(hi - lo + 1 for lo, hi in old))
                if f.dim == 2:
                    B = np.empty((D.shape[0], D.shape[1] + 1))
                    B[:, :1], B[:, -1:] = D[:, :1], D[:, -1:]
                    np.maximum(D[:, 1:], D[:, :-1], out=B[:, 1:-1])
                    D = B
                for cells in (slice(None, -1), slice(1, None)):
                    part = W[cells]
                    np.maximum(part, D, out=part)
            else:
                W = D       # widened one axis at a time, as the strips peel
            if W is not U:
                for d, ((lo, hi), (nlo, nhi)) in enumerate(zip(old, new)):
                    if w > 2:
                        W = _widen(W, w, d)
                    head = (slice(None),) * d
                    for a, b, first, strips in (
                            (lo, nlo, lo, lefts),
                            (nhi, hi + w - 1, nhi + L - last, rights)):
                        if a >= b:
                            continue
                        strip = W[head + (slice(a - lo, b - lo),)]
                        if f.dim == 1:
                            strips.append(strip)
                            continue
                        retire(strip, [c for c, _ in new[:d]] + [first]
                               + [c for c, _ in old[d + 1:]],
                               [L] * d + [last]
                               + [L if w == 2 else prev] * (f.dim - d - 1))
                    W = W[head + (slice(nlo - lo, nhi - lo),)]
                np.maximum(U, W, out=U)
            D, old = U, new
        firsts = [lo for lo, _ in old]
        if lefts or rights:
            # in 1D the strips and the last region tile one run of the last
            # level's starts from the first region's start on
            D = np.concatenate(lefts + [D] + rights[::-1])
            firsts = [region(sides[0])[0][0]]
        for axis in range(f.dim):
            D = _widen(D, last, axis)
        if field is None and D.shape == f.shape:
            # the run's levels were whole, or in 1D its run covers the grid
            field = D
        else:
            retire(D, firsts, [1] * f.dim)

    floor_box = getattr(cube_values, "floor_box", None)
    if sides[0] < n or floor_box is None:
        run(sides, support)
    else:
        top = scaled(n, [(0, 1)] * f.dim)
        F0 = float(top.flat[0])
        groups = itertools.groupby(sides, key=lambda L: (n // L).bit_length())
        runs, before = [], None
        for _, group in groups:
            group = list(group)
            box = floor_box(F0, group, [_scale(L, h, alpha) if alpha != 0.0
                                        else 1.0 for L in group])
            if not runs:
                box = box or support
            if box is not None and box == before:
                runs[-1][0].extend(group)
            elif box is not None:
                runs.append((group, box))
            before = box
        for group, box in runs:
            run(group, box, top if group[0] == n else None)
    return GridFunction((f.lo, f.hi), field)


_BLOCK_ROWS = 16            # rows a of one block in _quadrant_max
_BLOCK_CAP = 1 << 16        # at most this many cells in a chunk's arrays


def _quadrant_max(fs, r: float | None = None, c: float = 1.0,
                  alpha: float = 0.0) -> np.ndarray:
    """The ``_sweep`` fields of a stack of 1D grids of one cell count n for
    the window set of every length, as a (len(fs), n) array, for the
    functional of ``_averages(f, r, c)``; alpha > 0 takes the cell width of
    fs[0].  A single grid is a stack of one.

    With V[a, b] the scaled value of the window [a, b), that field is the
    quadrant maximum field[i] = max of V[a, b] over a <= i < b.  The values
    come from one (len(fs), n + 1) stack of prefix sums, each grid's own
    support-box prefix (``_box_prefix``).  Rows a run in blocks [a0, a1) of
    _BLOCK_ROWS rows, fewer where n * rows would pass _BLOCK_CAP, and the
    grids in chunks of as many as keep every array of a chunk within
    _BLOCK_CAP cells (512 KiB).  The windows of a cell i split by where they
    end:

    * the heads, a0 < b <= a1, are the windows inside i's block.  Those of
      every block of a chunk are one (rows, rows, grids, blocks) array H[a,
      b]; a running max down the rows a, then the max over the columns
      b > i of row i, gives each cell's head maximum.  That read sees only
      b > i >= a, so the entries with b <= a, which hold no window, never
      reach it.  A short last block is a chunk's second, one-block array;
    * the tails, b > a1, hold windows of every row of a block; they run a
      group of consecutive blocks at a time over the chunk
      (``_tail_groups``), with the columns b ascending so that every read
      of the prefixes is contiguous.  Their maximum along each row, run
      along a, serves the block's own cells.  Their maximum over the rows
      goes into W[b], the largest tail value ending at b of the groups so
      far, which serves each later group's cells i: the max of W[b] over b
      > i, a running max inside that group and one reduction after it.
      Inside a group of G > 1 blocks those maxima, each block's earlier
      blocks shifted to its own ends and maxed with its own, serve the
      next block's cells the same way, and the last block's go into W.

    Almost all of the windows are tails, whose two maxima are reductions,
    and a group pays some twenty numpy calls for all its blocks and all the
    grids of its chunk.
    On a shared 2-core x86-64 VM (minimum of 15 interleaved runs in one
    process, ms; median in brackets), at 8, 16, 24, 32 and 64 rows: 50
    grids of 512 cells took 25.9, 25.9 (26.9), 26.8, 27.1 and 33.1; one
    grid of 4096 uniform cells, where no tile is pruned, 25.8, 22.2
    (24.4), 22.1, 22.3 and 22.6; 4096 cells shaped like the ``fields``
    benchmark's 7.9, 6.5 (7.2), 6.5, 6.6 and 6.6, against 11.5, 8.6 (9.6),
    8.9, 8.7 and 8.8 with one request a block, interleaved with them.

    The window [a0 + i, a0 + 1 + j) has the side max(j + 1 - i, 1) whatever
    a0 (1 where it holds no window), so one (rows, n) length matrix gives
    the sides of every head and tail, and for alpha > 0 their scale
    factors, as views.  Each window value comes from the same float
    operations as in ``_sweep`` (``_window_means``), every value is +0.0 or
    more, and max is exact, so both give the same field bit for bit.  The
    heads clamp their sums, as their entries with b <= a hold negative
    differences, which a power 1/r would turn into NaN.  The tails need no
    clamp: a tail window ends past its start, b > a, and each grid's
    prefix starts at +0.0 and never decreases (``_box_prefix``: the
    support box starts at a positive cell, whose power is +0.0 or more,
    and x + y >= x for y >= 0 or -0.0 in round to nearest), so P[b] - P[a]
    is +0.0 or more, and +0.0 where they are equal.

    A chunk of one grid computes only the tail tiles, a block's rows times
    _TILE_ENDS consecutive ends, that can raise a cell (``_tail_spans``).
    A tile whose upper bound lies below a lower bound of every cell its
    windows cover holds no cell's maximum, and max is exact, so the field
    keeps its bits.  Each block keeps the ends from its first kept one to
    its last, the band [lo - a1, hi - a1] relative to its end a1, and
    consecutive blocks join into one request over the union of their bands
    (``_tail_groups``): the length matrix gives every block of a group the
    same sides and scale factors, and the ends are one view of the prefix
    with block stride ``rows``.  Every window of a band is real, a < b <=
    n, and its value reaches only the cells it holds, so the windows a
    request adds to the kept ones change no bit either.  On the fields
    corpus at 4096 cells the tails of the 255 blocks take 26 requests, for
    14.7% of the whole tails' windows (12.5% kept).  Stacks of several
    grids keep whole tails, one block a group.
    """
    n = fs[0].shape[0]
    P = np.stack([_box_prefix(f, r)[2] for f in fs])
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_CAP // n, n))
    sides = np.maximum(np.arange(1.0, n + 1.0) - np.arange(rows)[:, None],
                       1.0)
    table = scales = None
    if alpha != 0.0:
        table = np.array([_scale(L, fs[0].h[0], alpha)
                          for L in range(1, n + 1)])
        scales = table[sides.astype(int) - 1]

    def values(S, cells, clamp=True):
        # the scaled values of the windows with sums S, whose sides are the
        # length matrix's entries ``cells``
        V = _window_means(S, sides[cells], r, c, clamp)
        if scales is not None:
            V *= scales[cells]
        return V

    def heads(Q, a0, blocks, m):
        # the head maxima of ``blocks`` blocks of m rows from a0 on, with
        # the rows i and columns j of a block leading: H[i, j, grid, block]
        starts, ends = (Q[:, a:a + blocks * m].reshape(-1, blocks, m)
                        .transpose(2, 0, 1) for a in (a0, a0 + 1))
        # the ends repeated and the starts taken in place subtract faster
        # than one broadcast
        S = np.repeat(ends[None], m, axis=0)
        S -= starts[:, None]
        H = values(S, (slice(m), slice(m), None, None))
        best = np.empty((m,) + H.shape[2:])
        for i in range(m):
            if i:
                np.maximum(H[i], H[i - 1], out=H[i])    # max over rows <= i
            H[i, i:].max(axis=0, out=best[i])           # over columns >= i
        return best.transpose(1, 2, 0).reshape(-1, blocks * m)

    out = np.empty((len(fs), n))
    full = n // rows * rows
    step = max(1, _BLOCK_CAP // (rows * n))     # grids in a chunk
    for g0 in range(0, len(fs), step):
        Q, field = P[g0:g0 + step], out[g0:g0 + step]
        field[:, :full] = heads(Q, 0, n // rows, rows)
        if full < n:
            field[:, full:] = heads(Q, full, 1, n - full)
        # the ends [lo, hi] of each block's tail: all of them, or for one
        # grid those of the tiles that can raise a cell
        spans = None
        if len(Q) == 1 and n > rows:
            spans = _tail_spans(Q[0], field[0], rows, r, c, table)
        # W[b]: the largest tail value ending at b of the groups done so
        # far, at the ends past their cells
        W = np.full((len(Q), n + 1), -np.inf)
        for a0, a1, d0, d1 in _tail_groups(spans, rows, n):
            cells = field[:, a0:a1]
            # windows of earlier groups' tails that hold a cell i: ends
            # b > i, inside the group or after it
            inside = np.maximum.accumulate(W[:, a1:a0:-1], axis=1)[:, ::-1]
            if a1 < n:
                np.maximum(inside, W[:, a1 + 1:].max(axis=1, keepdims=True),
                           out=inside)
            np.maximum(cells, inside, out=cells)
            if d0 > d1:
                continue
            # the windows [a, b) of the group's G blocks, b - a1_k in [d0,
            # d1] past each block's end a1_k: one band of ends, a view of
            # the prefix with block stride ``rows``.  b > a and the prefix
            # never decreases from +0.0, so every sum is +0.0 or more and
            # needs no clamp
            G = (a1 - a0) // rows
            lo, hi = a0 + rows + d0, a1 + d1 + 1
            if G == 1:
                ends, starts = Q[:, None, lo:hi], Q[:, a0:a1, None]
            else:
                ends = sliding_window_view(Q[0, lo:hi], d1 - d0 + 1)[::rows]
                ends, starts = ends[:, None], Q[0, a0:a1].reshape(G, rows, 1)
            T = values(ends - starts,
                       (slice(None), slice(rows + d0 - 1, rows + d1)), False)
            own = np.maximum.accumulate(T.max(axis=2), axis=1)
            np.maximum(cells, own.reshape(cells.shape), out=cells)
            tops = T.max(axis=1)
            del T               # the next group's values take its place
            if G > 1:
                # R[k, t]: block k's maxima over its rows at the end a1_k +
                # 1 + t, -inf before d0 - 1; V[k, t]: the largest of them
                # over the blocks up to k, block k - j's at R[k - j, j rows
                # + t], where a block more than (d1 - 1) // rows before has
                # none.  Block k + 1 reads V[k] from the end after each of
                # its cells on, and W takes V[G - 1], past a1: the group's
                # ends before it hold no later group's cell
                R = np.full((G, d1), -np.inf)
                R[:, d0 - 1:] = tops
                V = R.copy()
                for j in range(1, min((d1 - 1) // rows, G - 1) + 1):
                    part = V[j:, :d1 - j * rows]
                    np.maximum(part, R[:-j, j * rows:], out=part)
                m = min(rows, d1)
                reads = np.maximum.accumulate(V[:-1, m - 1::-1], axis=1)
                if d1 > rows:
                    np.maximum(reads, V[:-1, rows:].max(axis=1, keepdims=True),
                               out=reads)
                later = field[0, a0 + rows:a1].reshape(G - 1, rows)[:, :m]
                np.maximum(later, reads[:, ::-1], out=later)
                tops, lo = V[-1:], a1 + 1
            part = W[:, lo:hi]
            np.maximum(part, tops, out=part)
    return out


_TILE_ENDS = 64             # consecutive tail ends of one bound tile


def _tail_groups(spans, rows: int, n: int) -> list:
    """(a0, a1, d0, d1) per group of consecutive blocks of rows in
    ``_quadrant_max``: the cells [a0, a1) and the band of tail ends a1_k +
    d0 .. a1_k + d1 past each block's end a1_k, empty (d0 > d1) for the
    last group, whose blocks have no tail.

    With spans=None (a stack) each block is a group with all its ends, a1_k
    + 1 to n.  Else each block keeps the ends [lo, hi] of ``spans``
    (``_tail_spans``), and consecutive blocks join while the union of their
    bands holds only real windows, b <= n, and the group's values and its
    blocks' maxima by end stay within _BLOCK_CAP cells.  A block that keeps
    no end adds no end to the band, but it is held to the same rules: it
    joins only while the group's band, taken past its own end, still ends
    at n or before and the group still fits the cap."""
    count = (n - 1) // rows                     # blocks with a tail
    last = (count * rows, n, n, 0)
    if spans is None:
        return [(a0, a0 + rows, 1, n - a0 - rows)
                for a0 in range(0, count * rows, rows)] + [last]
    groups = []
    k0, d0, d1 = 0, n, 0
    for k, (lo, hi) in enumerate(spans.tolist()):
        a1 = (k + 1) * rows
        band = (n, 0) if lo > hi else (lo - a1, hi - a1)
        u0, u1 = min(d0, band[0]), max(d1, band[1])
        G = k + 1 - k0
        if G > 1 and (a1 + u1 > n or G * rows * (u1 - u0 + 1) > _BLOCK_CAP
                      or G * u1 > _BLOCK_CAP):
            groups.append((k0 * rows, a1 - rows, d0, d1))
            k0, (d0, d1) = k, band
        else:
            d0, d1 = u0, u1
    if count:
        groups.append((k0 * rows, count * rows, d0, d1))
    return groups + [last]


def _tail_spans(p, head, rows: int, r, c: float, table) -> np.ndarray:
    """For one grid's prefix p and head maxima ``head`` in ``_quadrant_max``:
    per tail block [a0, a1), the ends [lo, hi] of its tiles that can raise
    a cell, lo > hi where none can.

    Prefix sums never decrease and rounding is monotone, so a tile's window
    sums are at most p[e1] - p[a0], over at least e0 - a1 + 1 cells, with
    at most the scale of e1 - a0 cells; valued by ``_window_means`` and
    raised by the slack 2^-36 (``_FLOOR_SLACK``) against the rounding of
    the power and the scale, they bound the tile.  LB(i), the largest of
    i's head maximum and, for each dyadic side L = n, n/2, ..., 1, that
    side's best window joined with i, is a real window's value, so at most
    field(i).  A tile whose bound lies below LB over the cells [a0, e1)
    that its windows cover cannot set a cell, nor a later block's cell
    through W.  A bound below 2^-1000 (``_FLOOR_TINY``) never prunes."""
    n = head.size

    def value(S, side, scale):
        # the scaled values of sums S over ``side`` cells by the window
        # values' own operations, the scale factor table[scale]
        V = _window_means(S, side, r, c)
        if table is not None:
            V *= table[scale]
        return V

    # LB: the value of a real window holding each cell, at most its field
    lb = head.copy()
    L = n
    while L:
        V = value(p[L:] - p[:n + 1 - L], L, L - 1)
        s = int(np.argmax(V))
        e = s + L
        np.maximum(lb[s:e], V[s], out=lb[s:e])
        del V
        # cells i < s take the window [i, e), cells i >= e [s, i + 1)
        left = value(p[e] - p[:s], np.arange(e, L, -1),
                     slice(e - 1, L - 1, -1))
        np.maximum(lb[:s], left, out=lb[:s])
        right = value(p[e + 1:] - p[s], np.arange(L + 1, n - s + 1),
                      slice(L, n - s))
        np.maximum(lb[e:], right, out=lb[e:])
        del left, right
        L //= 2
    # the cells in runs of T = _TILE_ENDS: suffix[i], the least LB from i
    # to the end of its run, and low[k], that of the whole run k
    runs = np.full((-(-n // _TILE_ENDS), _TILE_ENDS), np.inf)
    runs.ravel()[:n] = lb
    del lb
    np.minimum.accumulate(runs[:, ::-1], axis=1, out=runs[:, ::-1])
    suffix, low = runs.ravel(), runs[:, 0]
    K = low.size
    # tile k takes the ends (k T, (k + 1) T]: its first and last end
    first = np.arange(1, n + 1, _TILE_ENDS)
    e1 = np.minimum(first + _TILE_ENDS - 1, n)
    count = (n - 1) // rows                     # blocks with a tail
    spans = np.empty((count, 2), dtype=np.int32)
    chunk = max(1, _BLOCK_CAP // (16 * K))
    for b0 in range(0, count, chunk):
        a0 = np.arange(b0, min(count, b0 + chunk))[:, None] * rows
        a1 = a0 + rows
        e0 = np.maximum(first, a1 + 1)          # the block's first end
        # the bound of the windows [a, b), a in [a0, a1) and b in [e0, e1];
        # a tile with e0 > e1 holds none, its scale index is only clamped
        ub = value(p[e1] - p[a0], e0 - a1 + 1, np.maximum(e1 - a0 - 1, 0))
        ub *= 1.0 + _FLOOR_SLACK
        # the least LB over the cells [a0, e1) that they cover
        at = a0 // _TILE_ENDS
        cover = np.where(np.arange(K) > at, low, np.inf)
        np.put_along_axis(cover, at, suffix[a0], axis=1)
        np.minimum.accumulate(cover, axis=1, out=cover)
        keep = ~((ub < cover) & (ub >= _FLOOR_TINY)) & (e0 <= e1)
        del ub, cover
        some = keep.any(axis=1)
        k0 = np.argmax(keep, axis=1)
        k1 = K - 1 - np.argmax(keep[:, ::-1], axis=1)
        blocks = spans[b0:b0 + len(a0)]
        blocks[:, 0] = np.where(some, e0[np.arange(len(a0)), k0], n + 1)
        blocks[:, 1] = np.where(some, e1[k1], n)
    return spans


_FLOOR_SLACK = 2.0 ** -36    # relative slack of a floor bound t_L
_FLOOR_TINY = 2.0 ** -1000    # below it, rounding is not relative


def _box_prefix(f: GridFunction, r: float | None = None):
    """(box, y, P): the support box [s, e) per axis of f's nonzero cells,
    the box's cells y of f (of f^r), and the float prefix sums P of f (of
    f^r) for the whole grid, summed over y only: a window end i reads
    the box prefix at clamp(i - s, 0, e - s) on each axis, gathered once
    for every i.

    That is the whole grid's prefix bit for bit up to the signs of zeros:
    numpy's cumsum adds in order, and a zero of either sign added to x != 0
    gives x, so along each axis the whole grid's running sums are zeros
    before the box, the box's own sums in it, and its last sum after it.
    The window differences then agree up to the signs of zeros too, and
    the clamp of ``_window_means`` makes every zero +0.0.  With full
    support the box is the grid and the prefix is the grid's own, without
    a copy.  Raises ValueError where a sum overflows."""
    box = _support_box(f) or [(0, 0)] * f.dim   # all zero: an empty box
    cells = f.values[tuple(slice(s, e) for s, e in box)]
    with np.errstate(over="ignore"):    # the prefix check reports it
        y = cells if r is None else cells ** r
        P = _cumsum_prefix(y)
    for axis, ((s, e), m) in enumerate(zip(box, f.shape)):
        if (s, e) != (0, m):
            P = P.take(np.clip(np.arange(-s, m + 1 - s), 0, e - s), axis=axis)
    return box, y, P


def _window_means(S, side, r: float | None, c: float, clamp: bool = True):
    """The values (c * S / side)^(1/r) of windows with sums S (plain S /
    side for r=None), in place in S, a new array.  Without the clamp, every
    sum must be +0.0 or more."""
    # clamp: cancellation in the prefix sums can leave tiny negatives over
    # all-zero stretches, which fractional powers would turn into NaN
    vals = np.maximum(S, 0.0, out=S) if clamp else S
    vals /= side
    if r is not None:
        vals *= c
        vals **= 1.0 / r
    return vals


def _averages(f: GridFunction, r: float | None = None, c: float = 1.0):
    """Cube functional (c * avg f^r)^(1/r) from one prefix (``_box_prefix``);
    r=None is the plain average.  The side is an int and the starts one
    slice per axis.

    ``values.floor_box(F0, sides, scales)`` serves the floor of
    ``_nested_max``: the bounding box of the cells whose summed value y
    (f, or f^r) exceeds t, the least over the sides L of t_L, where a
    window of side L whose cells all hold y <= t_L gets a value, times
    its scale factor, of at most F0.  Each prefix entry is a float sum of
    at most N = s_1 + ... + s_dim nonnegative terms, s_k the box extents,
    so it lies within gamma_N T of its exact sum, T the exact total and
    gamma_N <= N 2^-52 (``czlab._sum_bounds``); a window sum adds 2^dim
    entries in 2^dim - 1 more roundings of values below 2 T, so it exceeds
    the exact sum of its cells, at most L^dim t_L, by at most err =
    (N + 2) 2^(dim-51) P_total.  The clamp keeps that bound; the
    division, c *, the power 1/r and the scale factor each add a few
    units of the last place, and pow's exponent 1.0/r, off 1/r by one
    rounding, moves x^(1/r) by at most 745 units of 2^-53.  So t_L =
    (F0 / scale (1 - 2^-36))^r / c (1 - 2^-36) - err / L^dim leaves the
    window at most F0: the first slack outweighs every rounding after the
    power, the second those of t_L's own evaluation.  Where t is negative,
    or a term leaves the normal range, the bound does not apply and the
    support box comes back; None means no cell exceeds t.
    """
    box, y, P = _box_prefix(f, r)
    dim = f.dim
    err = (sum(y.shape) + 2) * 2.0 ** (dim - 51) * float(P.flat[-1])

    def values(side, starts):
        ends = tuple(slice(s.start + side, s.stop + side, s.step)
                     for s in starts)
        if dim == 1:
            S = P[ends] - P[starts]
        else:
            # ((a - b) - c) + d in one output array, in the order of the
            # expression
            S = np.subtract(P[ends], P[starts[0], ends[1]])
            S -= P[ends[0], starts[1]]
            S += P[starts]
        return _window_means(S, side ** dim, r, c)

    e, cr = (1.0, 1.0) if r is None else (r, c)
    edges = []          # per axis, the largest y over the other axes

    def floor_box(F0, sides, scales):
        t = math.inf
        for L, scale in zip(sides, scales):
            try:
                b = F0 / scale * (1.0 - _FLOOR_SLACK)
                top = b ** e / cr * (1.0 - _FLOOR_SLACK)
            except ArithmeticError:
                return box
            if not (_FLOOR_TINY <= min(F0, b, top) and top < math.inf):
                return box
            t = min(t, top - err / L ** dim)
        if t < 0.0:
            return box
        if not edges:
            edges.extend(y.max(axis=tuple(a for a in range(dim) if a != k))
                         for k in range(dim))
        hot = []
        for (s, _), edge in zip(box, edges):
            hits = np.flatnonzero(edge > t)
            if not hits.size:
                return None
            hot.append((s + int(hits[0]), s + int(hits[-1]) + 1))
        return hot

    values.floor_box = floor_box
    return values


def _window_maxima(f: GridFunction):
    """Cube functional max of f (the sup-norm Young function).  It reads only
    the cells [start, stop + side - 1) per axis that the requested windows
    cover and widens them one axis at a time (``_widen``), keeping the
    positions [side - 1, m) of m cells: position a holds the window that
    ends there."""
    def values(side, starts):
        bounds = [s.indices(m - side + 1) for s, m in zip(starts, f.shape)]
        vals = f.values[tuple(slice(lo, hi + side - 1)
                              for lo, hi, _ in bounds)]
        for axis in range(f.dim):
            m = vals.shape[axis]
            vals = _widen(vals, side, axis)[
                (slice(None),) * axis + (slice(side - 1, m),)]
        vals = vals[tuple(slice(None, None, step) for _, _, step in bounds)]
        # f >= 0, so this only turns -0.0 into +0.0: as for the averages, a
        # zero window gives +0.0, whatever order the maxima ran in.  At side
        # 1 vals is a view of f, so the clamp makes a new array
        return np.maximum(vals, 0.0)
    return values


def _luxemburg_norms(f: GridFunction, phi: YoungFn):
    """Cube functional ||f||_{phi,Q}: the windows gathered as the rows of
    ``span_rows`` and normed at once (``young.luxemburg_norms``)."""
    def values(side, starts):
        rows = span_rows(f.values, starts, (side,) * f.dim)
        shape = [len(range(n - side + 1)[s]) for s, n in zip(starts, f.shape)]
        return np.reshape(luxemburg_norms(rows, phi), shape)
    return values


def _average_field(f: GridFunction, family, lengths, alpha: float = 0.0,
                   r: float | None = None, c: float = 1.0) -> GridFunction:
    """Field of the prefix-average functional ``_averages(f, r, c)``: the
    window set picks the path, the lattice sweep for a family, the quadrant
    maximum of a stack of one for every 1D length, else the nested
    recursion."""
    if family is not None:
        return _sweep(f, _lattices(f, family), _averages(f, r, c), alpha)
    if f.dim == 1 and _every_length(lengths):
        return GridFunction((f.lo, f.hi), _quadrant_max([f], r, c, alpha)[0])
    return _nested_max(f, lengths, _averages(f, r, c), alpha)


def hl_maximal(f: GridFunction, family: CubeFamily | None = None,
               lengths="all") -> GridFunction:
    """Hardy-Littlewood maximal field: sup of cube averages."""
    return _average_field(f, family, lengths)


def hl_maximals(fs) -> list:
    """``[hl_maximal(f) for f in fs]`` bit for bit, every length: the 1D
    grids of one cell count share one stacked quadrant maximum."""
    fs = list(fs)
    out = [None] * len(fs)
    stacks = {}
    for k, f in enumerate(fs):
        if f.dim == 1:
            stacks.setdefault(f.shape[0], []).append(k)
        else:
            out[k] = hl_maximal(f)
    for ks in stacks.values():
        fields = _quadrant_max([fs[k] for k in ks])
        for k, values in zip(ks, fields):
            out[k] = GridFunction((fs[k].lo, fs[k].hi), values)
    return out


def check_alpha(alpha: float, dim: int) -> None:
    """Raises unless the fractional order alpha lies in [0, dim); a NaN
    fails too."""
    if not 0.0 <= alpha < dim:
        raise ValueError("alpha must lie in [0, dim)")


def fractional_maximal(f: GridFunction, alpha: float,
                       family: CubeFamily | None = None,
                       lengths="all") -> GridFunction:
    """Fractional maximal field: sup of |Q|^(alpha/n) * avg_Q f.

    alpha ranges over [0, n); alpha = 0 reproduces ``hl_maximal`` bit for
    bit because the sweep is shared and the scale factor is skipped.
    """
    check_alpha(alpha, f.dim)
    return _average_field(f, family, lengths, float(alpha))


def dyadic_maximal(f: GridFunction) -> GridFunction:
    """Dyadic maximal field: sup over the dyadic splits of the grid box.

    Levels run from the whole box down to single cells, as far as the cell
    count divides evenly.  On a cell count that is not a power of two the
    splits stop at the first odd side, and the field is the supremum over
    exactly the splits used; ``cz_decompose``, whose stopping
    cubes must be able to shrink to single cells, rejects such grids.
    """
    n = f.shape[0]
    windows = []
    side = n
    while True:
        windows.append((side, (slice(0, n, side),) * f.dim))
        if side % 2:
            break
        side //= 2
    return _sweep(f, windows, _averages(f))


def orlicz_maximal(f: GridFunction, phi: YoungFn,
                   family: CubeFamily | None = None,
                   alpha: float = 0.0, lengths="all") -> GridFunction:
    """Orlicz maximal field: sup of |Q|^(alpha/n) * ||f||_{phi,Q}.

    Homogeneous phi (identity, powers) rides the shared prefix sweep, so
    phi(t) = t agrees with ``hl_maximal`` exactly.  The sup kind without a
    family reads the largest listed side only: every listed window holding
    a cell lies in a window of that side holding it, with a larger maximum
    and, as alpha >= 0, a larger scale.  Other kinds solve a Luxemburg
    bisection per cube and therefore need a finite family.
    """
    check_alpha(alpha, f.dim)
    if phi.kind == "identity":
        return _average_field(f, family, lengths, alpha)
    if phi.is_homogeneous:
        return _average_field(f, family, lengths, alpha, phi.r, phi.c)
    if phi.kind == "sup":
        cube_values = _window_maxima(f)
        if family is None:
            side = _length_list(_square_cells(f), lengths)[-1]
            return _nested_max(f, [side], cube_values, alpha)
    elif family is None:
        raise ValueError(f"{phi.describe()} needs a finite cube family")
    else:
        cube_values = _luxemburg_norms(f, phi)
    return _sweep(f, _lattices(f, family), cube_values, alpha)


# ---------------------------------------------------------------------------
# matrix composition of fields
# ---------------------------------------------------------------------------

def image_box(f: GridFunction, A: SquareMatrix):
    """(lo, hi) of the smallest box holding A applied to f's box."""
    pts = np.asarray([A.apply(c) for c in itertools.product(*zip(f.lo, f.hi))])
    return (tuple(float(v) for v in pts.min(axis=0)),
            tuple(float(v) for v in pts.max(axis=0)))


def preimage_cells(f: GridFunction, A: SquareMatrix, box, shape):
    """Cell transport: which cell of f each cell of a grid reads under A^(-1).

    The grid has ``shape`` cells on ``box``.  Returns, per grid cell in
    row-major order, the flat (row-major) index of the cell of f that
    contains A^(-1) of its center (the half-open floor rule of
    ``cell_of_point``), or -1 where that preimage leaves f's grid.
    """
    lo, hi = box
    inv = A.inv
    # one center coordinate array per axis; the sum broadcasts them.  A
    # term with a zero coefficient is left out: it adds +-0.0, which moves
    # no floor, so a monomial matrix's coordinates stay one axis long until
    # the flat index takes them
    X = np.meshgrid(*(a + (np.arange(m) + 0.5) * ((b - a) / m)
                      for a, b, m in zip(lo, hi, shape)),
                    indexing="ij", sparse=True)
    flat = np.zeros(tuple(shape), dtype=np.int64)
    inside = np.ones(tuple(shape), dtype=bool)
    for d in range(f.dim):
        terms = [inv[d, e] * X[e] for e in range(f.dim) if inv[d, e] != 0.0]
        U = sum(terms[1:], terms[0])
        U -= f.lo[d]
        U /= f.h[d]
        i = np.floor(U, out=U).astype(np.int64)
        inside &= (i >= 0) & (i < f.shape[d])
        flat *= f.shape[d]
        flat += i
    flat[~inside] = -1
    return flat.ravel()


def matrix_compose(f: GridFunction, A, out_box=None, n_out=None) -> GridFunction:
    """Field x -> f(A^(-1) x) on a new grid.

    Each output cell reads the input cell containing A^(-1)(cell center)
    (``preimage_cells``).  The grid defaults to the image box of f's box
    in cells of f's size: an axis whose extent is not a whole number of
    them (a rotation or a shear, say) widens its upper end to the next
    whole cell.  Output cells whose preimage leaves the input domain get
    value 0 and mask False.
    """
    A = resolve_matrix(A, f.dim)
    lo, hi, shape = _output_geometry(f, A, out_box, n_out)
    back = preimage_cells(f, A, (lo, hi), shape)
    # a -1 reads f's last cell, which the mask then drops
    msk = (back >= 0) & f.mask.ravel()[back]
    vals = np.where(msk, f.values.ravel()[back], 0.0)
    return GridFunction((lo, hi), vals.reshape(shape),
                        mask=msk.reshape(shape))


def _output_geometry(f: GridFunction, A: SquareMatrix, out_box, n_out):
    if out_box is None:
        lo, hi = image_box(f, A)
    else:
        lo, hi = _normalize_box(out_box)
    if n_out is None:
        # f's cell size on every axis: a box that is a whole number of f's
        # cells (the 1e-9 absorbs its rounding) keeps lo and hi, any other
        # one widens hi to the next whole cell
        h = f.h[0]
        shape = tuple(math.ceil((b - a) / h - 1e-9) for a, b in zip(lo, hi))
        if min(shape) < 1:
            raise ValueError("the output box holds no cell")
        hi = tuple(b if (b - a) / h >= m - 1e-9 else a + m * h
                   for a, b, m in zip(lo, hi, shape))
    elif np.isscalar(n_out):
        shape = (int(n_out),) * f.dim
    else:
        shape = tuple(int(m) for m in n_out)
    return lo, hi, shape
