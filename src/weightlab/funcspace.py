"""Exact weight representations, grids, cubes and matrices.

The ground rule of this module: nothing that can blow up is ever point
sampled.  Weights are unions of closed-form pieces (power singularities
``c |x-a|^gamma`` and exponentials ``c e^{s x}``) and every interval mass is
an antiderivative difference, so masses next to a singular point are exact to
rounding; ``SegmentWeight1D.masses`` evaluates every mass, under either
measure.  Grid data stores per-cell averages; a cube sum is the correctly
rounded ``math.fsum`` of its cells.  Large or many sums at once go through
one vectorized kernel (``exact_totals``), whose exact totals, rounded once,
have the same bits as ``math.fsum``; it runs over chunks of 2^14 cells,
adds a chunk of one (label, exponent bin) key with ``np.sum`` and any other
chunk in 8 interleaved lanes per key, all exactly, and rejects labels that
are not integers in [0, n_labels).  ``total_exceeds`` compares a total's
average with a rational threshold exactly, as integers.  ``span_rows``
gathers a batch of equal cubes of a grid as C-contiguous rows, and
``span_totals`` sums them exactly in one labelled pass.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


class DomainError(ValueError):
    """Raised when a request leaves the explicitly covered domain."""


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------

# the forms of a segment's antiderivative, in the order
# ``SegmentWeight1D.masses`` evaluates them
_FORMS = ("power", "log", "exp", "linear")


def _antideriv(form: str, x, c, a, gamma, s, power=operator.pow):
    """The antiderivative of a piece of the given form at the points x,
    from its parameters (floats, or arrays like x): c sign(u) |u|^(gamma+1)
    / (gamma+1) with u = x - a ("power"; F(a) = 0, continuous across an
    integrable singularity, while a non-integrable piece only integrates
    away from a), c sign(u) log|u| ("log", gamma = -1), (c / s) e^(s x)
    ("exp") and c x ("linear", an exp piece with s = 0).  power(|u|,
    gamma + 1) is numpy's array power for ``cell_averages``, libm pow per
    point (``_libm_pow``) for ``SegmentWeight1D.masses``."""
    if form == "exp":
        return (c / s) * np.exp(s * x)
    if form == "linear":
        return c * x
    u = x - a
    if form == "log":
        return c * np.sign(u) * np.log(np.abs(u))
    return c * np.sign(u) * power(np.abs(u), gamma + 1.0) / (gamma + 1.0)


@dataclass(frozen=True)
class Segment:
    """One closed-form piece of a weight on the interval [lo, hi).

    form="power": c * |x - a|**gamma.  A weight's own pieces have gamma > -1
    (an integrable singularity; ``power_weight`` and the JSON reader check
    it), but a power of a weight may have gamma <= -1: such a piece is
    integrable only away from a, and its mass over an interval that meets a
    is inf (``singular_in``).
    form="exp":   c * exp(s * x).
    """

    lo: float
    hi: float
    form: str
    c: float = 1.0
    a: float = 0.0
    gamma: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty segment [{self.lo}, {self.hi})")
        if self.form not in ("power", "exp"):
            raise ValueError(f"unknown segment form {self.form!r}")
        if not self.c > 0:
            raise ValueError("segment coefficient must be positive")

    @property
    def _form(self) -> str:
        """The form of the antiderivative (``_FORMS``)."""
        if self.form == "power":
            return "log" if self.gamma == -1.0 else "power"
        return "exp" if self.s else "linear"

    def singular_in(self, a, b):
        """Where [a, b] (floats or arrays) meets the piece in an interval
        that holds its singular point a while gamma <= -1: the mass there is
        infinite."""
        lo, hi = np.maximum(a, self.lo), np.minimum(b, self.hi)
        return ((self.form == "power" and self.gamma <= -1.0)
                & (lo < hi) & (lo <= self.a) & (self.a <= hi))

    def value(self, x, power=operator.pow):
        """The piece at the points x; power as in ``_antideriv``."""
        x = np.asarray(x, dtype=float)
        if self.form == "power":
            with np.errstate(divide="ignore"):
                return self.c * power(np.abs(x - self.a), self.gamma)
        return self.c * np.exp(self.s * x)

    def scaled(self, lam: float) -> "Segment":
        """The piece of x -> value(lam * x), living on [lo, hi) / lam."""
        lo, hi = self.lo / lam, self.hi / lam
        if lam < 0:
            lo, hi = hi, lo
        if self.form == "power":
            return Segment(lo, hi, "power", c=self.c * abs(lam) ** self.gamma,
                           a=self.a / lam, gamma=self.gamma)
        return Segment(lo, hi, "exp", c=self.c, s=self.s * lam)

    def powered(self, e: float) -> "Segment":
        """The piece of value(x)**e (possibly not integrable at a)."""
        if self.form == "power":
            return Segment(self.lo, self.hi, "power", c=self.c ** e,
                           a=self.a, gamma=self.gamma * e)
        return Segment(self.lo, self.hi, "exp", c=self.c ** e, s=self.s * e)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class Measure:
    """Lebesgue measure or the density e^{|x|} dx (the only two supported).

    Frozen, hence hashable: ``LEBESGUE`` is shared as a dataclass default.
    """

    kind: str = "lebesgue"

    def __post_init__(self):
        if self.kind not in ("lebesgue", "exp_abs"):
            raise ValueError(f"unsupported measure {self.kind!r}")

    def __repr__(self):
        return f"Measure({self.kind!r})"


def _overflow(what: str, a: float, b: float) -> str:
    return f"the {what} over [{a}, {b}] overflows the float range"


def _exp_abs_mass(seg: Segment, a: float, b: float) -> float:
    """The integral of the piece against e^{|x|} over [a, b] within it, for
    ``SegmentWeight1D.masses``: inf through a non-integrable singular
    point, and inf or nan where the float evaluation of a mass that is
    finite in exact arithmetic overflows."""
    if seg.singular_in(a, b):
        return math.inf
    total = 0.0
    try:
        if seg.form == "exp":
            # e^{|x|} merges with the exponential: split at the origin, and
            # evaluate numpy's exp one endpoint at a time
            for lo, hi, s in ((a, min(b, 0.0), seg.s - 1.0),
                              (max(a, 0.0), b, seg.s + 1.0)):
                if hi > lo:
                    form = "exp" if s else "linear"
                    F_lo, F_hi = (_antideriv(form, np.asarray(x, dtype=float),
                                             seg.c, 0.0, 0.0, s)
                                  for x in (lo, hi))
                    total += float(F_hi - F_lo)
        elif seg.gamma == 0.0:
            # a constant piece: c e^{far end} (1 - e^{-length}) on each side
            # of the origin, with no cancellation for a short interval
            if a < 0.0:
                total += seg.c * math.exp(-a) * -math.expm1(a - min(b, 0.0))
            if b > 0.0:
                total += seg.c * math.exp(b) * -math.expm1(max(a, 0.0) - b)
        else:
            # power piece against e^{|x|}: no elementary antiderivative, use
            # singularity-aware adaptive quadrature (only exercised in cross
            # checks; scipy is imported here, on first use)
            from scipy import integrate
            pts = [p for p in (seg.a, 0.0) if a < p < b]
            total, _ = integrate.quad(
                lambda x: seg.value(x) * math.exp(abs(x)), a, b,
                points=pts or None, limit=400, epsabs=1e-13, epsrel=1e-11)
    except OverflowError:       # math.exp
        return math.inf
    return float(total)


def _libm_pow(x: np.ndarray, y) -> np.ndarray:
    """x ** y per element by libm pow (``math.pow``, as the power of a
    numpy float scalar); y is a float or an array like x.  numpy's array
    power has its own SIMD loops (and sqrt or square for y = 0.5 or 2),
    whose last bits can differ from libm's."""
    xs = x.tolist()
    ys = y.tolist() if isinstance(y, np.ndarray) else [y] * len(xs)
    try:
        return np.fromiter(map(math.pow, xs, ys), float, len(xs))
    except (OverflowError, ValueError):
        # math.pow raises where libm overflows, underflows with ERANGE or
        # divides by zero; the numpy scalar returns libm's value
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.array([float(np.float64(v) ** e) for v, e in zip(xs, ys)],
                            dtype=float)


LEBESGUE = Measure("lebesgue")
EXP_ABS = Measure("exp_abs")


# ---------------------------------------------------------------------------
# 1D weights
# ---------------------------------------------------------------------------

class SegmentWeight1D:
    """A nonnegative weight given by disjoint closed-form segments, zero tail.

    Segments are kept sorted; overlaps are rejected.  All masses are exact
    antiderivative differences (relative error at rounding level), including
    across interior singular points.
    """

    def __init__(self, segments):
        segs = sorted(segments, key=lambda s: s.lo)
        for s0, s1 in zip(segs, segs[1:]):
            if s1.lo < s0.hi - 1e-15 * max(1.0, abs(s0.hi)):
                raise ValueError(f"segments overlap near x={s1.lo}")
        if not segs:
            raise ValueError("weight needs at least one segment")
        self.segments = tuple(segs)

    @property
    def support(self):
        return (self.segments[0].lo, self.segments[-1].hi)

    @functools.cached_property
    def _pieces(self):
        """Per segment, for ``masses``: lo, hi, c, a, gamma and s as the
        rows of an array; the antiderivative forms present (``_FORMS``
        order), with each segment's form when there are several; and which
        pieces have a non-integrable singular point, if any do."""
        segs = self.segments
        cols = np.array([(g.lo, g.hi, g.c, g.a, g.gamma, g.s) for g in segs]).T
        forms = [g._form for g in segs]
        present = [f for f in _FORMS if f in forms]
        singular = [g.form == "power" and g.gamma <= -1.0 for g in segs]
        return (cols, present, np.array(forms) if len(present) > 1 else None,
                np.array(singular) if any(singular) else None)

    @functools.cached_property
    def _reach(self):
        """For ``covers``: the running maximum of the segment ends, and per
        segment i where coverage that starts in i runs to, along the chain
        i -> the first later segment that ends past the current end, up to
        a gap."""
        segs = self.segments
        reach = [g.hi for g in segs]
        for i in reversed(range(len(segs))):
            end = segs[i].hi
            for j in range(i + 1, len(segs)):
                if segs[j].hi > end:
                    if segs[j].lo <= end + 1e-12 * max(1.0, abs(end)):
                        reach[i] = reach[j]
                    break
        return (np.maximum.accumulate([g.hi for g in segs]),
                np.array([g.lo for g in segs]), np.array(reach))

    def covers(self, a, b):
        """Where [a, b] (floats or arrays) is covered by segments with no
        gaps: within the support, the first segment that ends past a starts
        by a (to 1e-12, relative), and its reach gets to b."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        ends, starts, reach = self._reach
        lo, hi = self.support
        first = np.searchsorted(ends, a, side="right")
        j = np.minimum(first, len(ends) - 1)
        chained = ((starts[j] <= a + 1e-12 * np.maximum(1.0, np.abs(a)))
                   & (reach[j] >= b))
        return (~((a < lo - 1e-12) | (b > hi + 1e-12))
                & np.where(first < len(ends), chained, a >= b))

    def mass(self, a: float, b: float, measure: Measure = LEBESGUE) -> float:
        """The mass of [a, b]: the one-interval case of ``masses``, raising
        ValueError where it overflows."""
        if b < a:
            raise ValueError("reversed interval")
        total, overflow = self.masses([a], [b], measure)
        if overflow:
            raise ValueError(overflow[0])
        return float(total[0])

    def masses(self, a, b, measure: Measure = LEBESGUE):
        """The masses of the intervals [a_k, b_k] (arrays, a_k <= b_k) at
        once.

        Returns (masses, overflow): a float array, and {k: message} for each
        interval whose mass is finite in exact arithmetic but leaves the
        float range; its entry is nan, and ``mass`` raises ValueError with
        the message.  A mass is inf where its interval meets a non-integrable
        piece at its singular point.

        The endpoints clip to each segment they meet.  Under Lebesgue
        measure the antiderivatives are one array expression per form over
        all the clipped endpoints, a power piece's |u|^(gamma + 1) by libm
        pow (``_libm_pow``).  The segments that meet an interval add in
        segment order (the others would add exact zeros), so every mass has
        the bits of the one-interval evaluation.  Under e^{|x|} each clipped
        interval takes one scalar evaluation (``_exp_abs_mass``)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        cols, _, _, singular = self._pieces
        # numpy's maximum and minimum return the second argument on ties,
        # as max(a, lo) and min(b, hi) return their first
        lo = np.maximum(cols[0][:, None], a)
        hi = np.minimum(cols[1][:, None], b)
        seg, k = np.nonzero(hi > lo)        # meeting pairs, segment-major
        lo, hi = lo[seg, k], hi[seg, k]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if measure.kind == "lebesgue":
                F = self._antiderivs(np.concatenate((seg, seg)),
                                     np.concatenate((lo, hi)))
                part = F[seg.size:] - F[:seg.size]
            else:
                part = np.array([_exp_abs_mass(self.segments[i], x, y)
                                 for i, x, y in zip(seg.tolist(), lo.tolist(),
                                                    hi.tolist())], dtype=float)
        if singular is not None:
            at = cols[3][seg]
            infinite = singular[seg] & (lo <= at) & (at <= hi)
            part[infinite] = math.inf
        overflow = {}
        if not np.isfinite(part).all():
            bad = ~np.isfinite(part)
            if singular is not None:
                bad &= ~infinite
            what = "mass" if measure.kind == "lebesgue" else "e^|x| mass"
            for j in np.flatnonzero(bad).tolist():
                overflow.setdefault(int(k[j]), _overflow(what, float(lo[j]),
                                                         float(hi[j])))
        # bincount adds each interval's parts in pair order: segment order
        total = np.bincount(k, part, a.size).astype(float, copy=False)
        if overflow:
            total[list(overflow)] = math.nan
        return total, overflow

    def _antiderivs(self, owner, x):
        """The antiderivative of segment owner_i at x_i, with libm pow, as
        one array expression per form."""
        cols, present, forms, _ = self._pieces
        # c, a, gamma, s per point: floats for a one-piece weight
        params = cols[2:, 0].tolist() if cols.shape[1] == 1 else cols[2:, owner]
        if forms is None:
            return _antideriv(present[0], x, *params, _libm_pow)
        forms = forms[owner]
        F = np.empty(x.size)
        for form in present:
            i = np.flatnonzero(forms == form)
            F[i] = _antideriv(form, x[i], *(p[i] for p in params), _libm_pow)
        return F

    def value(self, x):
        """Pointwise values (for quadrature oracles); inf at singular points."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for seg in self.segments:
            m = (x >= seg.lo) & (x < seg.hi)
            if m.any():
                out[m] = seg.value(x[m])
        return out if out.shape else float(out)

    def powered(self, e: float) -> "SegmentWeight1D":
        w, singular = self.powered_pieces(e)
        if singular:
            bad = singular[0]
            raise DomainError(
                f"w**{e} is not integrable on segment [{bad.lo}, {bad.hi}) "
                f"(gamma*e = {bad.gamma})")
        return w

    def powered_pieces(self, e: float):
        """(w**e with every piece powered, the powered pieces that are not
        integrable at their singular point).  A mass of w**e is finite
        unless its interval meets one of those at its singular point."""
        out = SegmentWeight1D([seg.powered(e) for seg in self.segments])
        return out, [seg for seg in out.segments
                     if seg.form == "power" and seg.gamma <= -1.0]

    def scaled_argument(self, lam: float) -> "SegmentWeight1D":
        if lam == 0:
            raise ValueError("lam must be nonzero")
        return SegmentWeight1D([seg.scaled(lam) for seg in self.segments])

    def cell_averages(self, lo: float, hi: float, n: int) -> np.ndarray:
        """Exact per-cell averages over n >= 1 equal cells of [lo, hi]."""
        if n < 1:
            raise ValueError(f"need at least one cell, got {n}")
        edges = np.linspace(lo, hi, n + 1)
        masses = np.zeros(n)
        for seg in self.segments:
            F = _antideriv(seg._form, np.clip(edges, seg.lo, seg.hi), seg.c,
                           seg.a, seg.gamma, seg.s)
            masses += np.diff(F)
        return masses / ((hi - lo) / n)

    def to_json_dict(self) -> dict:
        segs = []
        for s in self.segments:
            d = {"lo": s.lo, "hi": s.hi, "form": s.form, "c": s.c}
            if s.form == "power":
                d["a"] = s.a
                d["gamma"] = s.gamma
            else:
                d["s"] = s.s
            segs.append(d)
        return {"dim": 1, "segments": segs, "tail": "zero"}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SegmentWeight1D":
        if d.get("dim", 1) != 1:
            raise ValueError("only dim=1 weights are supported")
        if d.get("tail", "zero") != "zero":
            raise ValueError("only tail='zero' is supported")
        segs = []
        for sd in d["segments"]:
            segs.append(_integrable(Segment(
                sd["lo"], sd["hi"], sd["form"], c=sd.get("c", 1.0),
                a=sd.get("a", 0.0), gamma=sd.get("gamma", 0.0),
                s=sd.get("s", 0.0))))
        return cls(segs)


def constant_weight(value: float, lo: float, hi: float) -> SegmentWeight1D:
    return SegmentWeight1D([Segment(lo, hi, "power", c=value, a=lo - 1.0, gamma=0.0)])


def power_weight(gamma: float, lo: float, hi: float, a: float = 0.0,
                 c: float = 1.0) -> SegmentWeight1D:
    """c |x - a|^gamma on [lo, hi)."""
    return SegmentWeight1D([_integrable(
        Segment(lo, hi, "power", c=c, a=a, gamma=gamma))])


def _integrable(seg: Segment) -> Segment:
    """The segment, if it can be a piece of a weight (gamma > -1)."""
    if seg.form == "power" and seg.gamma <= -1.0:
        raise ValueError(f"gamma={seg.gamma} is not integrable")
    return seg


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class SquareMatrix:
    """Invertible real matrix with cached inverse and finite-order detection."""

    def __init__(self, entries):
        arr = np.atleast_2d(np.asarray(entries, dtype=float))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        self.entries = arr
        self.dim = arr.shape[0]
        self.det = float(np.linalg.det(arr))
        if abs(self.det) < 1e-14:
            raise ValueError("matrix is singular")
        self.inv = np.linalg.inv(arr)

    @classmethod
    def scalar(cls, lam: float, dim: int = 1) -> "SquareMatrix":
        return cls(np.eye(dim) * lam)

    def __repr__(self):
        return f"SquareMatrix({self.entries.tolist()})"

    def apply(self, x):
        return self.entries @ np.asarray(x, dtype=float)

    def inverse(self) -> "SquareMatrix":
        return SquareMatrix(self.inv)

    def order(self, bound: int = 24, tol: float = 1e-10):
        """Smallest k <= bound with A^k = I (within tol), else None."""
        P = np.eye(self.dim)
        for k in range(1, bound + 1):
            P = P @ self.entries
            if np.max(np.abs(P - np.eye(self.dim))) <= tol:
                return k
        return None

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "entries": [float(v) for v in self.entries.ravel()]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SquareMatrix":
        """Flat entries with "dim", or nested rows (dim from the rows)."""
        entries = np.asarray(d["entries"], dtype=float)
        if "dim" in d:
            n = int(d["dim"])
            entries = entries.reshape(n, n)
        return cls(entries)


def resolve_matrix(A, dim: int) -> SquareMatrix:
    """A as a dim x dim SquareMatrix; a scalar is that multiple of the
    identity."""
    if not isinstance(A, SquareMatrix):
        A = SquareMatrix.scalar(float(A), dim) if np.isscalar(A) \
            else SquareMatrix(A)
    if A.dim != dim:
        raise ValueError(f"a {A.dim}x{A.dim} matrix does not act "
                         f"in dimension {dim}")
    return A


def compose_matrix(w, A):
    """The weight x -> w(Ax) in closed form.

    w is a SegmentWeight1D or a product weight w_1(x_1)...w_n(x_n), a tuple
    of n of them; a 1D weight is the one-factor case.  A must be monomial
    (one nonzero entry per row and column): the product composed with A is
    again a product, whose axis d carries w_i(A[i, d] x_d), with i the row
    of column d's entry."""
    factors = (w,) if isinstance(w, SegmentWeight1D) else tuple(w)
    A = resolve_matrix(A, len(factors))
    e = A.entries
    cols = list(range(A.dim))
    for rows in itertools.permutations(cols):
        off = e.copy()
        off[list(rows), cols] = 0.0
        if (np.abs(off) < 1e-15).all():
            out = tuple(factors[i].scaled_argument(float(e[i, d]))
                        for d, i in enumerate(rows))
            return out[0] if isinstance(w, SegmentWeight1D) else out
    raise DomainError("2D weights support diagonal or antidiagonal matrices")


# ---------------------------------------------------------------------------
# cubes and cube families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cube:
    """Axis-parallel cube: corner (lower-left) plus side length."""

    corner: tuple
    side: float

    def __post_init__(self):
        if not self.side > 0:
            raise ValueError("cube side must be positive")
        object.__setattr__(self, "corner", tuple(float(c) for c in self.corner))

    @property
    def dim(self):
        return len(self.corner)

    @property
    def volume(self):
        return self.side ** self.dim

    def bounds(self):
        return [(c, c + self.side) for c in self.corner]


class CubeFamily:
    """Deterministic finite family: dyadic levels of a box plus shifted lattices.

    Level j slices the box into 2^j pieces per axis; each level carries
    `shifts` translated lattices (offsets r/shifts of the side, r = 0..shifts-1,
    truncated so every cube stays inside the box).  Suprema over the family are
    lower bounds for the corresponding suprema over all cubes.
    """

    def __init__(self, box, levels=(0, 4), shifts: int = 1):
        lo, hi = _normalize_box(box)
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError("family box must be finite")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError("degenerate box")
        sides = [h - l for l, h in zip(lo, hi)]
        if not all(map(math.isfinite, sides)):
            raise ValueError("family box side overflows the float range")
        if max(sides) - min(sides) > 1e-12 * max(sides):
            raise ValueError("box must be a cube (equal side lengths)")
        j0, j1 = (_whole(j, "levels") for j in levels)
        if j0 < 0 or j1 < j0:
            raise ValueError("levels must satisfy 0 <= j_min <= j_max")
        shifts = _whole(shifts, "shifts")
        if shifts < 1:
            raise ValueError("shifts must be >= 1")
        self.lo, self.hi = lo, hi
        self.dim = len(lo)
        self.levels = (j0, j1)
        self.shifts = shifts
        # repeated additions of the finest side must move every corner
        far = max(map(abs, lo + hi))
        if math.ldexp(self.box_side, -j1) < math.ulp(far):
            raise ValueError(f"family level {j1} is too fine for the box: "
                             f"its side is below the float spacing at {far:g}")

    @property
    def box_side(self):
        return self.hi[0] - self.lo[0]

    def lattices(self):
        """(side, starts) per level, then offset, in ``cubes()`` order:
        starts holds each axis's corner coordinates (repeated additions of
        the side), and the lattice's cubes are their product.  A shifted
        lattice that misses the box is left out."""
        L = self.box_side
        for j in range(self.levels[0], self.levels[1] + 1):
            side = L / (1 << j)
            offsets = sorted({r * side / self.shifts for r in range(self.shifts)})
            for off in offsets:
                starts = []
                for d in range(self.dim):
                    axis = []
                    s = self.lo[d] + off
                    while s + side <= self.hi[d] + 1e-9 * L:
                        axis.append(s)
                        s += side
                    starts.append(axis)
                if all(starts):
                    yield side, starts

    def cubes(self):
        """Deterministic enumeration (level, then offset, then lattice position)."""
        return [Cube(corner, side) for side, starts in self.lattices()
                for corner in itertools.product(*starts)]

    def cell_spans(self, n_cells: int):
        """Grid-aligned spans for an n_cells-per-side grid on the same box.

        Yields (level, start_indices, side_in_cells); offsets snap to whole
        cells (floor) so every cube is a union of cells inside the box.
        """
        n = int(n_cells)
        spans = []
        for j in range(self.levels[0], self.levels[1] + 1):
            if n % (1 << j) != 0:
                raise ValueError(f"grid with {n} cells does not align with level {j}")
            side = n // (1 << j)
            offsets = sorted({(r * side) // self.shifts for r in range(self.shifts)})
            offsets = [o for o in offsets if o < side]
            for off in offsets:
                starts = list(range(off, n - side + 1, side))
                if starts:        # a shifted lattice can miss the box entirely
                    spans.append((j, off, side, starts))
        return spans

    def count(self) -> int:
        return sum(math.prod(map(len, starts)) for _, starts in self.lattices())

    def to_json_dict(self) -> dict:
        return {"levels": [self.levels[0], self.levels[1]], "shifts": self.shifts,
                "box": [float(x) for x in self.lo + self.hi]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CubeFamily":
        box = d["box"]
        k = len(box) // 2
        lo, hi = box[:k], box[k:]
        return cls((tuple(lo), tuple(hi)), levels=tuple(d["levels"]),
                   shifts=d.get("shifts", 1))


def _whole(x, what: str) -> int:
    """x as an int, when it is a whole number; else ValueError naming the
    family field."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) \
            or isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValueError(f"family {what} must be whole numbers, got {x!r}")


def _normalize_box(box):
    """Accept (lo, hi) scalars for 1D or ((lo...), (hi...)) for nD."""
    if len(box) != 2:
        raise ValueError(f"a box is a pair (lo, hi), got {box!r}")
    a, b = box
    if np.isscalar(a):
        return (float(a),), (float(b),)
    return tuple(float(x) for x in a), tuple(float(x) for x in b)


# ---------------------------------------------------------------------------
# grid functions with exact cube sums
# ---------------------------------------------------------------------------

def _cumsum_prefix(values: np.ndarray) -> np.ndarray:
    """Float prefix sums with a leading zero per axis (1D or 2D):
    P[i] = sum(values[:i]), P[i, j] = sum(values[:i, :j]).

    Raises ValueError when a sum overflows: an inf or NaN stays in every
    later running sum, so the last entry shows it."""
    with np.errstate(over="ignore", invalid="ignore"):
        if values.ndim == 1:
            p = np.zeros(values.shape[0] + 1)
            np.cumsum(values, out=p[1:])
        else:
            p = np.zeros((values.shape[0] + 1, values.shape[1] + 1))
            p[1:, 1:] = values.cumsum(axis=0).cumsum(axis=1)
    if not math.isfinite(p.flat[-1]):
        raise ValueError("the prefix sums of the grid values overflow "
                         "the float range")
    return p


# exact sums of many nonnegative floats by exponent binning (Demmel and Hida,
# "Accurate and efficient floating point summation", SIAM J. Sci. Comput.
# 25(4), 2003)
_SUM_CHUNK = 1 << 14        # cells per pass; a bin stays exact up to 2^16
_LANES = 8                  # interleaved partial sums per (label, bin) key
# each cell's lane, as uint8: an intp array of a chunk's length would add
# 128 KiB to the resident memory of every process that imports the module
_LANE = np.resize(np.arange(_LANES, dtype=np.uint8), _SUM_CHUNK)
_BIN_WIDTH = 22             # binades per bin
_SPLIT = 37                 # a cell splits at U 2^37, U its bin's unit
_UNIT = 1075                # totals count units of 2^-1075


def exact_totals(values, labels=None, n_labels: int = 1) -> list:
    """Exact sums of nonnegative floats, one per label.

    ``labels``, when given, holds an integer in [0, n_labels) per cell;
    without it every cell has label 0.  Returns, per label, the exact sum
    of its cells as an int count of 2^-1075 (the exact sum is n 2^-1075),
    or a float inf or nan when one of its cells is inf or nan.
    ``round_total`` rounds an entry; an empty label totals 0.  Raises
    ValueError for a negative cell, and for labels that are not integers,
    lie outside [0, n_labels) or are not one per cell.

    A cell with exponent field e lies in bin b = e // 22, whose unit
    U = 2^(22 b - 1075) divides every float of the bin, and is below
    U 2^(d + 53) with d = max(e, 1) - 22 b <= 21.  Scaled by 2^-37 / U
    (exactly, a power of two), it splits into an integer high part below
    2^37 and a low part, a multiple of 2^-37 below 1.  The passes run over
    chunks of 2^14 cells, whose temporaries (128 KiB each) stay small
    enough to reuse freed memory rather than fault in fresh pages.  A
    chunk adds at most 2^14 cells per (label, bin) key in float64, so
    every partial sum is a multiple of 2^-37 below 2^14 (low) or an integer
    below 2^51 (high): all exact, in any order.  A chunk whose cells share
    one key scales them by one float power of two (outside bin 0) and adds
    each part with ``np.sum``.  Any other chunk counts into 8
    interleaved lanes per key with ``np.bincount`` and then adds the lanes:
    bincount adds its cells one after another into their key's slot, so
    when most cells share a key every add waits for the one before, and
    the lanes split that chain into 8 independent ones.  The bins then add
    as Python ints.  Zero cells (either sign) add nothing and are dropped
    before binning, so a mostly zero chunk bins only its nonzero cells."""
    vals = np.ascontiguousarray(values, dtype=np.float64).ravel()
    labs = None if labels is None else np.asarray(labels).ravel()
    if labs is not None:
        if labs.size != vals.size:
            raise ValueError(f"{labs.size} labels for {vals.size} cells")
        if labs.size and labs.dtype.kind not in "iu":
            raise ValueError("exact sums need integer labels")
    totals = np.zeros(n_labels, dtype=object)
    special = {}                # label -> its inf or nan
    for start in range(0, vals.size, _SUM_CHUNK):
        v = vals[start:start + _SUM_CHUNK]
        lab, l0, l1 = None, 0, 0
        if labs is not None:
            lab = labs[start:start + _SUM_CHUNK].astype(np.intp, copy=False)
            l0, l1 = int(lab.min()), int(lab.max())
            if l0 < 0 or l1 >= n_labels:
                raise ValueError(f"exact sums need labels in [0, {n_labels})")
        nonzero = v != 0.0
        if not nonzero.all():
            v = v[nonzero]
            if not v.size:
                continue
            if lab is not None:
                lab = lab[nonzero]
                l0, l1 = int(lab.min()), int(lab.max())
        e = (v.view(np.uint64) >> np.uint64(52)).view(np.intp)
        if e.max() >= 2047:     # inf, nan, or a sign bit
            v, e = _finite_cells(v, e, lab, special)
        b0, b1 = int(e.min()) // _BIN_WIDTH, int(e.max()) // _BIN_WIDTH
        width = b1 - b0 + 1
        one_key = width == 1 and l0 == l1
        if one_key and b0:
            # one scale for the chunk, a float power of two (bin 0's 2^1038
            # is none)
            q = v * 2.0 ** (_UNIT - _SPLIT - _BIN_WIDTH * b0)
        else:
            b = e // _BIN_WIDTH
            q = np.ldexp(v, (_UNIT - _SPLIT - _BIN_WIDTH * b).astype(np.intc))
        high = np.floor(q)
        low = np.subtract(q, high, out=q)
        codes = None
        if one_key:
            # one (label, bin) key: (high, low)
            sums = np.array([high.sum(), np.ldexp(low.sum(), _SPLIT)])
        else:
            key = b - b0
            if lab is not None:
                key += (lab - l0) * width
            bins = int(key.max()) + 1
            if bins > 4 * v.size:   # few of many (label, bin) pairs: renumber
                codes, key = np.unique(key, return_inverse=True)
                bins = codes.size
            key *= _LANES
            key += _LANE[:key.size]

            def lane_sums(part):
                return np.bincount(key, part, bins * _LANES).reshape(
                    bins, _LANES).sum(axis=1)
            # (bin, high or low) in label-major order
            sums = np.stack([lane_sums(high),
                             np.ldexp(lane_sums(low), _SPLIT)], 1).ravel()
        at = np.flatnonzero(sums)
        code = at // 2 if codes is None else codes[at // 2]
        shift = _BIN_WIDTH * (code % width + b0) + _SPLIT * (1 - at % 2)
        parts = sums[at].astype(np.int64).astype(object) << shift.astype(object)
        label = code // width + l0
        first = np.flatnonzero(np.diff(label, prepend=-1))
        totals[label[first]] += np.add.reduceat(parts, first)
    totals = totals.tolist()
    for i, x in special.items():
        totals[i] = x
    return totals


def _finite_cells(v, e, lab, special):
    """(v, e) with every inf and nan cell set to 0.0, recording
    the inf and nan ones per label in ``special`` (a nan stays); raises on
    a negative cell."""
    odd = np.flatnonzero(e >= 2047)
    cells = v[odd]
    if (cells < 0).any():
        raise ValueError("exact sums need nonnegative values")
    where = [0] * odd.size if lab is None else lab[odd].tolist()
    for i, x in zip(where, cells.tolist()):
        if x != 0.0 and not math.isnan(special.get(i, 0.0)):
            special[i] = x
    v = v.copy()
    v[odd] = 0.0
    e = e.copy()
    e[odd] = 0
    return v, e


def round_total(total, count: int = 1) -> float:
    """An ``exact_totals`` entry divided by count, correctly rounded (one
    int/int true division; raises OverflowError when the quotient exceeds
    the float range, as ``math.fsum`` does for a sum)."""
    if isinstance(total, float):
        return total
    return total / (count << _UNIT)


def total_exceeds(total, count: int, thr: Fraction) -> bool:
    """Exactly whether an ``exact_totals`` entry divided by count exceeds
    the rational thr: one integer comparison, with no rounding."""
    return total * thr.denominator > thr.numerator * (count << _UNIT)


def add_totals(totals):
    """The exact sum of ``exact_totals`` entries; a nan entry, else an
    inf one, decides it."""
    special = [t for t in totals if isinstance(t, float)]
    return math.fsum(special) if special else sum(totals)


def exact_sums(values, labels=None, n_labels: int = 1) -> list:
    """Per label, the correctly rounded exact sum of nonnegative floats:
    bit for bit ``math.fsum`` of the label's cells, which is correctly
    rounded too (inf for an inf cell, OverflowError when a finite sum
    leaves the float range).  See ``exact_totals``."""
    return [round_total(t) for t in exact_totals(values, labels, n_labels)]


def span_rows(values: np.ndarray, starts, shape) -> np.ndarray:
    """The cells of equally shaped spans of values, one row per span, cells
    in row-major order.

    starts gives the spans' first cells per axis: index arrays, broadcast
    together as in numpy indexing, or slices, a lattice of starts; the rows
    follow the broadcast or lattice positions in row-major order.  Each
    row is C-contiguous, so a row sum adds its cells in the order
    ``np.sum`` uses on the span alone, and per-cube masses and Luxemburg
    norms of a batch have the bits of each cube's own."""
    # the read-only window view of ``sliding_window_view``, without its
    # argument checks (about 15 us a call)
    values = np.ascontiguousarray(values)
    windows = np.ndarray(
        tuple(n - s + 1 for n, s in zip(values.shape, shape)) + tuple(shape),
        values.dtype, values, 0, values.strides * 2)
    windows.flags.writeable = False
    return windows[tuple(starts)].reshape(-1, math.prod(shape))


def span_totals(values: np.ndarray, starts, shape) -> list:
    """Exact totals (``exact_totals`` entries) of nonnegative values over
    equally shaped spans, in ``span_rows`` order, from one labelled pass
    over their gathered cells; a span of the whole grid, the only one of
    its shape, needs no gather."""
    if tuple(shape) == values.shape:
        return exact_totals(values)
    rows = span_rows(values, starts, shape)
    label = np.arange(len(rows), dtype=np.min_scalar_type(len(rows) - 1))
    return exact_totals(rows, np.repeat(label, rows.shape[1]), len(rows))


class GridFunction:
    """Nonnegative function stored as exact per-cell averages on a box grid.

    Supports dim 1 and 2; the box needs hi > lo and the values are finite,
    with at least one cell.  `cube_sum` over any grid-aligned span is the
    correctly rounded true sum of the covered cells (``math.fsum``).
    `mask` marks cells carrying a defined value; matrix pullbacks may leave
    out-of-domain cells, which are excluded from norms and level sets.
    """

    def __init__(self, box, values, mask=None):
        self.lo, self.hi = _normalize_box(box)
        self.dim = len(self.lo)
        if any(not h > l for l, h in zip(self.lo, self.hi)):
            raise ValueError("grid box needs hi > lo on every axis")
        vals = np.asarray(values, dtype=float)
        if vals.ndim != self.dim:
            raise ValueError("value array rank must match box dimension")
        if vals.size == 0:
            raise ValueError("grid needs at least one cell")
        if not np.isfinite(vals).all():
            raise ValueError("grid values must be finite")
        if np.any(vals < 0):
            raise ValueError("grid values must be nonnegative")
        self.values = vals
        self.shape = vals.shape
        self.h = tuple((h - l) / n for l, h, n in zip(self.lo, self.hi, self.shape))
        if self.dim == 2 and abs(self.h[0] - self.h[1]) > 1e-12 * abs(self.h[0]):
            raise ValueError("cells must be square")
        self.cell_volume = float(np.prod(self.h))
        if mask is None:
            self.mask = np.ones(self.shape, dtype=bool)
        else:
            self.mask = np.asarray(mask, dtype=bool)
            if self.mask.shape != self.shape:
                raise ValueError("mask shape mismatch")

    # -- exact engine -------------------------------------------------------

    def cube_sum(self, span) -> float:
        """Sum of cell values over the span (start, stop) per axis, correctly
        rounded (``math.fsum``)."""
        slc = tuple(slice(i0, i1) for i0, i1 in _normalize_span(span, self.dim))
        return math.fsum(self.values[slc].ravel().tolist())

    def cube_average(self, span) -> float:
        count = 1
        for (a, b) in _normalize_span(span, self.dim):
            count *= (b - a)
        if count <= 0:
            raise ValueError("empty span")
        return self.cube_sum(span) / count

    # -- geometry helpers ----------------------------------------------------

    def cell_centers(self, axis: int = 0) -> np.ndarray:
        n = self.shape[axis]
        return self.lo[axis] + (np.arange(n) + 0.5) * self.h[axis]

    def cell_of_point(self, x):
        """Cell index containing x (clipped half-open cells), or None outside."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = []
        for d in range(self.dim):
            t = (x[d] - self.lo[d]) / self.h[d]
            i = int(math.floor(t))
            if i == self.shape[d] and abs(x[d] - self.hi[d]) <= 1e-12 * max(1.0, abs(self.hi[d])):
                i -= 1
            if i < 0 or i >= self.shape[d]:
                return None
            idx.append(i)
        return tuple(idx)

    def span_of_cube(self, cube: Cube, clip: bool = False):
        """Grid span covered by the cube; must be grid aligned to rounding."""
        spans = []
        for d, (a, b) in enumerate(cube.bounds()):
            t0 = (a - self.lo[d]) / self.h[d]
            t1 = (b - self.lo[d]) / self.h[d]
            i0, i1 = round(t0), round(t1)
            if abs(t0 - i0) > 1e-9 or abs(t1 - i1) > 1e-9:
                raise ValueError(f"cube {cube} is not grid aligned")
            if clip:
                i0, i1 = max(i0, 0), min(i1, self.shape[d])
            if i0 < 0 or i1 > self.shape[d] or i1 <= i0:
                raise DomainError(f"cube {cube} leaves the grid box")
            spans.append((int(i0), int(i1)))
        return tuple(spans)


def _normalize_span(span, dim):
    if dim == 1:
        if isinstance(span[0], (tuple, list)):
            return (tuple(span[0]),)
        return ((int(span[0]), int(span[1])),)
    return tuple((int(a), int(b)) for a, b in span)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def product_averages(factors, lo, hi, n: int) -> np.ndarray:
    """Exact cell averages of the product weight w_1(x_1)...w_d(x_d) on n
    cells per axis of the box [lo, hi], one factor per axis.

    Returns a bare array: the image box of an anisotropic matrix can have
    rectangular cells, which GridFunction refuses."""
    return functools.reduce(np.multiply.outer, [
        w.cell_averages(a, b, n) for w, a, b in zip(factors, lo, hi)])


def sample_to_grid(w, box, n: int) -> GridFunction:
    """Exact cell averages of an analytic weight on n cells per axis of box:
    w is a SegmentWeight1D or a product weight w_1(x_1)...w_d(x_d), a tuple
    of them, one factor per axis, as ``compose_matrix`` takes it."""
    factors = (w,) if isinstance(w, SegmentWeight1D) else tuple(w)
    lo, hi = _normalize_box(box)
    if len(factors) != len(lo):
        raise ValueError(f"a {len(lo)}D box needs one weight factor per "
                         f"axis, got {len(factors)}")
    return GridFunction(box, product_averages(factors, lo, hi, int(n)))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def load_grid(path_or_dict) -> GridFunction:
    """A grid function from {"box": [lo, hi] or [[lo..], [hi..]],
    "values": [...]}, with an optional boolean "mask" of the same shape."""
    return _load(lambda d: GridFunction(d["box"], d["values"], d.get("mask")),
                 path_or_dict)


def load_weight(path_or_dict) -> SegmentWeight1D:
    return _load(SegmentWeight1D.from_json_dict, path_or_dict)


def load_matrix(path_or_dict) -> SquareMatrix:
    return _load(SquareMatrix.from_json_dict, path_or_dict)


def load_family(path_or_dict) -> CubeFamily:
    return _load(CubeFamily.from_json_dict, path_or_dict)


def _load(build, path_or_dict):
    """build(the JSON object at path_or_dict).  A TypeError or IndexError
    raised while building comes from a value of the wrong type or shape,
    and raises ValueError naming the file."""
    d = _as_dict(path_or_dict)
    try:
        return build(d)
    except (TypeError, IndexError) as err:
        where = "JSON object" if d is path_or_dict else path_or_dict
        raise ValueError(f"{where}: a value of the wrong type or shape "
                         f"({err})") from None


def _as_dict(path_or_dict) -> dict:
    """The dict itself, or the JSON object stored at a path (the one JSON
    reader of weightlab's inputs); a top level that is not an object
    raises ValueError."""
    if isinstance(path_or_dict, dict):
        return path_or_dict
    with open(path_or_dict, "r") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"{path_or_dict}: expected a JSON object, "
                         f"got {type(d).__name__}")
    return d
