"""Reference oracles shared by the tests.

They are deliberately slow and stay independent of the code under test.
The exact sums and the stopping-cube checks use only Fraction or integer
arithmetic, apart from the exact-sum machinery.  The Luxemburg norm oracle
is a scipy brentq root of the mean functional.  The maximal-field
references either enumerate every window of each cell or spread one window
length at a time from functionals over the whole grid, apart from the
nested sweeps and their box-local prefix sums.  The per-lattice class
products share the per-cube formulas with the code under test and hold
only the whole family's batched terms to the terms of one lattice.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import brentq

from weightlab.funcspace import SegmentWeight1D, _cumsum_prefix
from weightlab.maximal import _length_list, _scale
from weightlab.weightclass import _analytic_terms, _cube_products


def slices(span) -> tuple:
    """Index slices of a span ((i0, i1),) or ((i0, i1), (j0, j1))."""
    return tuple(slice(i0, i1) for i0, i1 in span)


def exact_cells(values, span):
    """The cells of a 1D or 2D array over a span, in row-major order."""
    return values[slices(span)].ravel()


def exact_sum(cells) -> Fraction:
    """The exact sum of float cells."""
    return sum((Fraction(float(v)) for v in cells), Fraction(0))


def exact_span_sum(values, span) -> float:
    """The exact sum over the span, correctly rounded."""
    return float(exact_sum(exact_cells(values, span)))


def exact_avg(values, span) -> Fraction:
    """The exact average over the span."""
    cells = exact_cells(values, span)
    return exact_sum(cells) / len(cells)


# ---------------------------------------------------------------------------
# segment masses
# ---------------------------------------------------------------------------

def _antideriv_0d(seg, x):
    """A segment's antiderivative at one point, on numpy 0-d values."""
    if seg.form == "power":
        u = np.asarray(x, dtype=float) - seg.a
        if seg.gamma == -1.0:
            return seg.c * np.sign(u) * np.log(np.abs(u))
        return seg.c * np.sign(u) * np.abs(u) ** (seg.gamma + 1.0) / (seg.gamma + 1.0)
    if seg.s == 0.0:
        return seg.c * np.asarray(x, dtype=float)
    return (seg.c / seg.s) * np.exp(seg.s * np.asarray(x, dtype=float))


def segment_masses(w, a, b, measure):
    """The masses of the intervals [a_k, b_k] by the scalar path: per
    interval and per segment that meets it, a difference of numpy 0-d
    antiderivatives (Lebesgue; inf through a non-integrable singular
    point) or the mass of the one-piece weight (e^|x|), added in segment
    order.  Returns (masses, {k: message}) as ``SegmentWeight1D.masses``
    does, nan where the first overflowing segment of an interval names it."""
    out, overflow = [], {}
    for k, (x, y) in enumerate(zip(a, b)):
        parts = []
        for seg in w.segments:
            lo, hi = max(x, seg.lo), min(y, seg.hi)
            if hi <= lo:
                continue
            if measure.kind != "lebesgue":
                try:
                    parts.append(SegmentWeight1D([seg]).mass(lo, hi, measure))
                except ValueError as err:
                    overflow[k] = str(err)
                    break
            elif seg.form == "power" and seg.gamma <= -1.0 and lo <= seg.a <= hi:
                parts.append(math.inf)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    m = float(_antideriv_0d(seg, hi) - _antideriv_0d(seg, lo))
                if not math.isfinite(m):
                    overflow[k] = (f"the mass over [{lo}, {hi}] overflows the "
                                   "float range")
                    break
                parts.append(m)
        out.append(math.nan if k in overflow else float(sum(parts)))
    return out, overflow


# ---------------------------------------------------------------------------
# cell transport
# ---------------------------------------------------------------------------

def preimage_cells_every_term(f, A, box, shape):
    """``maximal.preimage_cells`` as it was before zero matrix coefficients
    were left out: every coordinate sums all dim terms, zero or not."""
    lo, hi = box
    inv = A.inv
    X = np.meshgrid(*(a + (np.arange(m) + 0.5) * ((b - a) / m)
                      for a, b, m in zip(lo, hi, shape)),
                    indexing="ij", sparse=True)
    flat = np.zeros(tuple(shape), dtype=np.int64)
    inside = np.ones(tuple(shape), dtype=bool)
    for d in range(f.dim):
        U = sum((inv[d, e] * X[e] for e in range(1, f.dim)), inv[d, 0] * X[0])
        U -= f.lo[d]
        U /= f.h[d]
        i = np.floor(U, out=U).astype(np.int64)
        inside &= (i >= 0) & (i < f.shape[d])
        flat *= f.shape[d]
        flat += i
    flat[~inside] = -1
    return flat.ravel()


# ---------------------------------------------------------------------------
# stopping cubes
# ---------------------------------------------------------------------------

def check_sandwich_exact(dec):
    """a^k/4^n < avg <= a^k/2^n for every cube, in rational arithmetic."""
    vals = dec.grid.values
    dim = dec.grid.dim
    a = Fraction(dec.a)
    for k in dec.ks:
        low = a ** k / 4 ** dim
        high = a ** k / 2 ** dim
        for qc in dec.cubes[k]:
            avg = exact_avg(vals, qc.span)
            assert low < avg <= high, (k, qc.span, float(avg))


def brute_select(vals, a, k, alpha, h):
    """Maximal dyadic cubes passing the selection test, from Fraction
    averages over every dyadic cube, with no pruning.  At alpha > 0 the test
    is the float one: side^alpha times the correctly rounded average."""
    dim, n = vals.ndim, vals.shape[0]
    thr = Fraction(a) ** k / 4 ** dim
    out = []

    def visit(span):
        side = span[0][1] - span[0][0]
        avg = exact_avg(vals, span)
        if alpha == 0.0:
            selected = avg > thr
        else:
            selected = (side * h) ** alpha * float(avg) > float(thr)
        if selected:
            out.append(span)
        elif side > 1:
            half = side // 2
            for child in itertools.product(*[((i0, i0 + half), (i0 + half, i1))
                                             for i0, i1 in span]):
                visit(child)

    visit(tuple((0, n) for _ in range(dim)))
    return sorted(out)


def check_maximality_exact(dec):
    """The dyadic parent of every selected cube sits at or below threshold."""
    vals = dec.grid.values
    dim = dec.grid.dim
    a = Fraction(dec.a)
    n = dec.grid.shape[0]
    for k in dec.ks:
        thr = a ** k / 4 ** dim
        for qc in dec.cubes[k]:
            side = qc.span[0][1] - qc.span[0][0]
            if side == n:
                continue              # the root has no parent
            parent = tuple(((i0 // (2 * side)) * 2 * side,
                            (i0 // (2 * side)) * 2 * side + 2 * side)
                           for i0, _ in qc.span)
            assert exact_avg(vals, parent) <= thr


# ---------------------------------------------------------------------------
# Luxemburg norms
# ---------------------------------------------------------------------------

def oracle_norm(values, phi, total_cells=None):
    """Root of avg phi(v/lam) = 1 by brentq; independent of the library."""
    vals = np.asarray(values, float).ravel()
    count = len(vals) if total_cells is None else total_cells
    vmax = vals.max()
    if vmax == 0.0:
        return 0.0

    def excess(lam):
        with np.errstate(over="ignore"):
            mean = float(np.sum(phi(vals / lam))) / count
        return min(mean, 1e12) - 1.0

    lo = vmax * 1e-9
    while excess(lo) <= 0:
        lo /= 2.0
        if lo < 1e-250:
            return 0.0
    hi = vmax * 4.0
    while excess(hi) > 0:
        hi *= 2.0
    return brentq(excess, lo, hi, xtol=1e-300, rtol=1e-13)


# ---------------------------------------------------------------------------
# maximal fields
# ---------------------------------------------------------------------------

def brute_field_1d(vals, h, alpha=0.0, r=None, lengths=None, sup=False):
    """max over windows containing each cell of side^alpha * mean-type value."""
    n = len(vals)
    Ls = list(lengths) if lengths is not None else list(range(1, n + 1))
    out = np.zeros(n)
    for i in range(n):
        best = -math.inf
        for L in Ls:
            for s in range(max(0, i - L + 1), min(i, n - L) + 1):
                win = vals[s:s + L]
                if sup:
                    m = win.max()
                elif r is None:
                    m = win.mean()
                else:
                    m = np.mean(win ** r) ** (1.0 / r)
                best = max(best, m * (L * h) ** alpha)
        out[i] = best
    return out


def brute_field_2d(vals, h, alpha=0.0, lengths=None):
    n = vals.shape[0]
    Ls = list(lengths) if lengths is not None else list(range(1, n + 1))
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            best = -math.inf
            for L in Ls:
                for s in range(max(0, i - L + 1), min(i, n - L) + 1):
                    for t in range(max(0, j - L + 1), min(j, n - L) + 1):
                        m = vals[s:s + L, t:t + L].mean()
                        best = max(best, m * (L * h) ** alpha)
            out[i, j] = best
    return out


def brute_family_field(g, family, cube_value):
    """max of cube_value(cell values, side) over the family's cubes that
    contain each cell, enumerated by family.cubes()."""
    out = np.full(g.shape, -np.inf)
    for cube in family.cubes():
        cells = tuple(slice(a, b) for a, b in g.span_of_cube(cube))
        region = out[cells]
        np.maximum(region, cube_value(g.values[cells], cube.side), out=region)
    return out


def brute_dyadic_1d(vals):
    n = len(vals)
    out = np.zeros(n)
    side = n
    while side >= 1:
        for s in range(0, n, side):
            m = vals[s:s + side].mean()
            np.maximum(out[s:s + side], m, out=out[s:s + side])
        if side % 2 or side == 1:
            break
        side //= 2
    return out


def brute_trailing_max(x, L):
    """The leftmost largest entry of each clipped window x[..., max(0,
    i-L+1) : i+1] along the last axis, from numpy's sliding windows behind
    a -inf head.  Only a tie of -0.0 and +0.0 makes "leftmost" matter; it
    then keeps the sign of the window's first zero."""
    head = np.full(x.shape[:-1] + (L - 1,), -np.inf)
    windows = sliding_window_view(np.concatenate((head, x), axis=-1), L,
                                  axis=-1)
    out = windows.max(axis=-1)
    if not np.signbit(x[x == 0]).any():
        return out
    first = np.argmax(windows == out[..., None], axis=-1)
    return np.take_along_axis(windows, first[..., None], axis=-1)[..., 0]


def prefix_averages(g, r=None, c=1.0):
    """The cube functional (c * avg g^r)^(1/r) (r=None: the plain average)
    from the float prefix sums of the whole grid: four-corner differences,
    every result that is not positive read as +0.0.  A 1D side may be an
    int array broadcasting against index-array starts, the oracle of the
    quadrant path's block form."""
    with np.errstate(over="ignore"):
        P = _cumsum_prefix(g.values if r is None else g.values ** r)

    def values(side, starts):
        ends = tuple(s + side if not isinstance(s, slice) else
                     slice(s.start + side, s.stop + side, s.step)
                     for s in starts)
        if g.dim == 1:
            S = P[ends] - P[starts]
        else:
            S = (P[ends] - P[starts[0], ends[1]]
                 - P[ends[0], starts[1]] + P[starts])
        vals = np.where(S > 0.0, S, 0.0) / side ** g.dim
        return vals if r is None else (c * vals) ** (1.0 / r)
    return values


def window_maxima(g):
    """The cube functional max of g over each window, from numpy's sliding
    windows; a zero maximum reads +0.0."""
    def values(side, starts):
        windows = sliding_window_view(g.values, (side,) * g.dim)[starts]
        top = windows.max(axis=tuple(range(-g.dim, 0)))
        return np.where(top > 0.0, top, 0.0)
    return values


def per_length_sweep(g, lengths, cube_values, alpha=0.0):
    """The field of every position of each length, one length at a time:
    the scaled window values are written into a -inf grid at their starts
    and take the trailing maximum of the side along every axis."""
    n = g.shape[0]
    out = np.full(g.shape, -np.inf)
    for L in _length_list(n, lengths):
        starts = (slice(0, n - L + 1),) * g.dim
        vals = cube_values(L, starts)
        if alpha != 0.0:
            vals = vals * _scale(L, g.h[0], alpha)
        block = np.full(g.shape, -np.inf)
        block[starts] = vals
        for _ in range(g.dim):
            block = brute_trailing_max(block, L).T
        np.maximum(out, block, out=out)
    return out


def per_lattice_products(w, spec, family):
    """(corner, side, product, witness) per cube of the family for an
    analytic weight, with the terms of one lattice at a time: the
    evaluation of ``weightclass._products`` before it took the terms of
    the whole family at once."""
    terms = _analytic_terms(w, spec)
    for side, (starts,) in family.lattices():
        a = np.array(starts)
        yield from _cube_products(spec, terms(a, a + side),
                                  [(s,) for s in starts], [side] * len(starts))
