"""Weight-class constants over finite cube families.

Every constant is the max of a per-cube product over a declared CubeFamily
and is therefore a lower bound of the corresponding supremum over all cubes.
Analytic 1D weights use exact segment masses; grid weights are treated as
piecewise-constant, so all their cube averages are exact as well.

Per-cube products, with avg the (mu-)average over Q and w_A(x) = w(Ax):

  Ap        (avg w) (avg w^{-1/(p-1)})^{p-1}
  Ap_mu     the same with mu-averages
  AAp       (avg w_A) (avg w^{-1/(p-1)})^{p-1}
  AA1       max over cells of M(w_A)/w  (field based, not per-cube)
  bump      (avg w_A)^{1/p} * ||w^{-1/p}||_{phi,Q}
  frac      (avg w_A^q)^{1/q} * (avg w^{-p'})^{1/p'}
  frac_bump (avg w_A^q)^{1/q} * ||w^{-1}||_{phi,Q}
  RH        (avg w^s)^{1/s} / (avg w)

The fractional products put the exponent q inside the first average and use
the plain dual weight w^{-1} in the norm factor; with that normalization the
per-cube identity frac(w, p, p, Q) = AAp(w^p, p, Q)^{1/p} is exact.

Each product is written once, in ``_product``, as one numpy formula over
columns of two terms, an average of a power of w or w_A and a Luxemburg
norm of a power of w, each built once over the whole family (analytic
weights) or a lattice (grid weights); every row has the bits of its cube
alone.  A term carries its rows' witnesses and errors, read in the order
of a sweep cube by cube.  The bump kinds' Luxemburg norms and the AA1
field are Lebesgue quantities, so those kinds take no other measure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .funcspace import (
    LEBESGUE,
    Cube,
    CubeFamily,
    GridFunction,
    Measure,
    Segment,
    SegmentWeight1D,
    SquareMatrix,
    _libm_pow,
    compose_matrix,
    resolve_matrix,
    round_total,
    sample_to_grid,
    span_rows,
    span_totals,
)
from .maximal import hl_maximal, matrix_compose
from .young import YoungFn, _analytic_norm, luxemburg_norms

__all__ = [
    "ClassSpec",
    "ConstantReport",
    "ap_product",
    "aap_product",
    "rh_ratio",
    "interval_products",
    "class_constant",
    "finite_order_reduction",
    "subset_mass_ratio_check",
    "rh_inclusion_check",
]

_KINDS = ("Ap", "AAp", "AA1", "bump", "frac", "frac_bump", "RH", "Ap_mu")


@dataclass(frozen=True)
class ClassSpec:
    """Which weight-class constant to estimate, with its parameters."""

    kind: str
    p: float = 2.0
    q: float | None = None
    s: float | None = None
    A: SquareMatrix | float | None = None   # or what resolve_matrix takes
    phi: YoungFn | None = None
    measure: Measure = LEBESGUE

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.kind == "AA1":
            if self.A is None:
                raise ValueError("AA1 needs a matrix")
        elif self.kind == "RH":
            if self.s is None or not (math.isfinite(self.s) and self.s > 1.0):
                raise ValueError(f"RH needs a finite s > 1, got s = {self.s}")
        elif not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"{self.kind} needs a finite p > 1, got p = {self.p}")
        if self.kind in ("AAp", "bump", "frac", "frac_bump") and self.A is None:
            raise ValueError(f"{self.kind} needs a matrix")
        if self.kind in ("bump", "frac_bump") and self.phi is None:
            raise ValueError(f"{self.kind} needs a Young function")
        # the bump norms and the AA1 field are Lebesgue quantities
        if self.kind in ("AA1", "bump", "frac_bump") \
                and self.measure != LEBESGUE:
            raise ValueError(f"{self.kind} supports the Lebesgue measure only")
        if self.kind in ("frac", "frac_bump"):
            if self.q is None or not (math.isfinite(self.q) and self.q >= self.p):
                raise ValueError("fractional kinds need a finite q >= p, "
                                 f"got q = {self.q}")

    def describe(self) -> str:
        bits = [self.kind, f"p={self.p:g}"]
        if self.q is not None:
            bits.append(f"q={self.q:g}")
        if self.s is not None:
            bits.append(f"s={self.s:g}")
        if self.A is not None:
            bits.append(f"A={np.asarray(getattr(self.A, 'entries', self.A))}")
        if self.phi is not None:
            bits.append(f"phi={self.phi.describe()}")
        if self.measure != LEBESGUE:
            bits.append(f"measure={self.measure.kind}")
        return " ".join(bits)


@dataclass
class ConstantReport:
    """Max of per-cube products over the family, with the cube attaining it."""

    value: float
    kind: str
    argmax: Cube | None
    family: dict
    witness: str | None = None
    trace: list | None = None
    extras: dict = field(default_factory=dict)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)

    def to_json_dict(self) -> dict:
        out = {
            "value": self.value,
            "kind": self.kind,
            "family": self.family,
            "finite": self.finite,
        }
        if self.argmax is not None:
            out["argmax"] = {"corner": list(self.argmax.corner),
                             "side": self.argmax.side}
        if self.witness:
            out["witness"] = self.witness
        if self.trace is not None:
            out["trace"] = [
                {"corner": list(c.corner), "side": c.side, "value": v}
                for c, v in self.trace
            ]
        if self.extras:
            out["extras"] = self.extras
        return out


# ---------------------------------------------------------------------------
# per-cube products
# ---------------------------------------------------------------------------

def _term(values, why=None, errors=None, ends=None) -> tuple:
    """A term over a block of cubes: (its column, {k: witness}, {k: error
    reading row k raises}, where it ends a product: at the rows ends lists,
    by default its infinite rows).  A row with a witness reads inf."""
    values = np.array(values, dtype=float)
    why = why or {}
    values[list(why)] = math.inf
    errors = {k: err if isinstance(err, Exception) else ValueError(err)
              for k, err in (errors or {}).items() if k not in why}
    return values, why, errors, (np.isinf(values) if ends is None else
                                 np.isin(np.arange(values.size), list(ends)))


def _product(spec: ClassSpec, terms, corners, sides):
    """(corners, sides, products, {k: witness}, (k, error) of the first
    cube that raises or None) for a block of cubes, from its terms (fail,
    mean, norm): {k: error}, mean(g, e) the ``_term`` of averages of g^e
    (g is "w" or "wA") and norm(e) that of Luxemburg norms of w^e.

    numpy's * and / round as Python's do and ``_libm_pow`` is Python's **,
    so each product has the bits of its cube's scalar formula.  A term is
    read, and built, only where that formula reads it: not past the first
    cube that raises, nor where an infinite term ended the product (inf,
    with its witness).  So the first error is a sweep's: a failing cube,
    term row or column, or a product not finite while its terms are (an
    overflow).  Other infinite products take their terms' first witness."""
    fail, mean, norm = terms
    n = len(sides)
    error = [min(fail, default=n), fail.get(min(fail, default=n))]
    live = np.arange(n) < error[0]      # neither ended nor past an error
    why, reads = {}, []

    def read(column, *args, at=True, ends=False):
        at = live & at
        term = _term(np.full(n, math.nan))
        try:
            term = column(*args) if at.any() else term
        except (ValueError, ArithmeticError) as err:
            # a column that cannot be built fails where it is first read
            error[:] = int(np.argmax(at)), err
        values, witness, errors, ending = term
        for k in sorted(k for k in errors if at[k])[:1]:
            error[:] = k, errors[k]
        live[error[0]:] = False
        ended = np.flatnonzero(at & ending).tolist() if ends else []
        live[ended] = False
        why.update((k, witness[k]) for k in ended if k in witness)
        reads.append((values, witness, at))
        return values

    p = spec.p
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.kind == "RH":
            avg = read(mean, "w", 1.0)
            high = read(mean, "w", spec.s, at=avg != 0.0, ends=True)
            value = np.where(avg != 0.0, _libm_pow(high, 1.0 / spec.s) / avg,
                             0.0)
        elif spec.kind == "bump":
            lead = _libm_pow(read(mean, "wA", 1.0), 1.0 / p)
            value = lead * read(norm, -1.0 / p, ends=True)
        elif spec.kind in ("frac", "frac_bump"):
            lead = _libm_pow(read(mean, "wA", spec.q, ends=True), 1.0 / spec.q)
            if spec.kind == "frac_bump":
                value = lead * read(norm, -1.0, ends=True)
            else:
                pp = p / (p - 1.0)
                value = lead * _libm_pow(read(mean, "w", -pp, ends=True),
                                         1.0 / pp)
        else:
            # Ap and Ap_mu (the measure lives in the terms), AAp
            dual = read(mean, "w", -1.0 / (p - 1.0), ends=True)
            lead = read(mean, "wA" if spec.kind == "AAp" else "w", 1.0)
            value = lead * _libm_pow(dual, p - 1.0)
    value[~live] = math.inf             # the ended rows, and undefined ones
    finite = np.logical_and.reduce([~at | np.isfinite(values)
                                    for values, _, at in reads])
    for k in np.flatnonzero(live & finite & ~np.isfinite(value))[:1].tolist():
        cube = Cube(tuple(corners[k].tolist()), float(sides[k]))
        error[:] = k, ValueError(f"the {spec.kind} product over {cube} "
                                 "overflows the float range")
        live[k:] = False
    for _, witness, at in reads:
        why.update((k, wit) for k, wit in witness.items() if k not in why
                   and live[k] and at[k] and value[k] == math.inf)
    return corners, sides, value, why, tuple(error) if error[0] < n else None


def _interval(Q):
    if isinstance(Q, Cube):
        if Q.dim != 1:
            raise ValueError("analytic products are one dimensional")
        return Q.corner[0], Q.corner[0] + Q.side
    a, b = float(Q[0]), float(Q[1])
    if not b > a:
        raise ValueError("empty interval")
    return a, b


def _lengths(measure: Measure, a: np.ndarray, b: np.ndarray):
    """(the measure of each interval [a_k, b_k], {k: its overflow})."""
    if measure.kind == "lebesgue":
        return b - a, {}
    unit = SegmentWeight1D([Segment(float(a.min()), float(b.max()), "power")])
    return unit.masses(a, b, measure)


def _analytic_terms(w: SegmentWeight1D, spec: ClassSpec):
    """(a, b) -> the (fail, mean, norm) terms of ``_product`` over the
    intervals [a_k, b_k] for an analytic weight, from exact segment masses
    under spec.measure, each powered weight built once."""
    weights = {("w", 1.0): (w, [])}
    norm_of = {}

    def powered(g, e):
        # (g^e, its pieces that are not integrable at their singular point)
        if (g, e) not in weights:
            weights[g, e] = (powered(g, 1.0)[0].powered_pieces(e) if e != 1.0
                             else (compose_matrix(w, spec.A), []))
        return weights[g, e]

    def terms(a, b):
        lengths, fail = _lengths(spec.measure, a, b)
        lo, hi = a.tolist(), b.tolist()
        covered = {}

        def singular(why, pieces, e):
            # witnesses where pieces of w^e are not integrable, as defaults
            for bad in pieces:
                for k in np.flatnonzero(bad.singular_in(a, b)).tolist():
                    why.setdefault(k, f"w^{e:g} non-integrable near x={bad.a:g}")
            return why

        def infinite(g, e):
            # k -> the witness of cube k's infinite term g^e
            why = {}
            if e < 0.0:
                if g not in covered:
                    covered[g] = powered(g, 1.0)[0].covers(a, b)
                for k in np.flatnonzero(~covered[g]).tolist():
                    why[k] = (f"w vanishes on part of [{lo[k]:g}, {hi[k]:g}] "
                              f"and e={e:g} < 0")
            return singular(why, powered(g, e)[1], e)

        @functools.cache
        def mean(g, e):
            masses, overflow = powered(g, e)[0].masses(a, b, spec.measure)
            return _term(masses / lengths, infinite(g, e), overflow)

        @functools.cache
        def norm(e):
            if e not in norm_of:
                norm_of[e] = _analytic_norm(powered("w", e)[0], spec.phi)
            norms, bad = norm_of[e]
            ends = infinite("w", e)
            # a power phi norms (w^e)^r, which may not be integrable where
            # w^e is: that infinite norm then multiplies the product
            values, errors = norms(a, b)
            return _term(values, singular(dict(ends), bad, e * spec.phi.r),
                         errors, ends)

        return {k: ValueError(m) for k, m in fail.items()}, mean, norm

    return terms


def _grid_terms(w: GridFunction, spec: ClassSpec):
    """(side, corners) -> the (fail, mean, norm) terms of ``_product`` over a
    lattice's cubes for a grid weight: exact averages of powered grids, each
    built once, by one ``span_totals`` pass, and one ``luxemburg_norms``
    call over the cubes' ``span_rows``."""
    if spec.measure != LEBESGUE:
        raise ValueError("grid weights support the Lebesgue measure only")
    if not w.mask.all():
        raise ValueError("grid weight must be fully defined")
    zeros = np.nonzero(w.values <= 0)   # only w takes negative exponents
    zero_witness = (f"w vanishes at cell {tuple(int(i[0]) for i in zeros)}"
                    if zeros[0].size else None)
    grids = {("w", 1.0): w}

    def powered(g, e):
        if (g, e) not in grids:
            if e == 1.0:
                grids[g, e] = _composed_grid(w, spec.A)
            else:
                with np.errstate(over="ignore"):
                    values = powered(g, 1.0).values ** e
                if not np.isfinite(values).all():
                    raise ValueError(f"the grid weight {g}^{e} overflows the "
                                     "float range")
                grids[g, e] = GridFunction((w.lo, w.hi), values)
        return grids[g, e]

    def terms(side, corners):
        good, first, shape, fail = _lattice_cells(w, side, corners)
        n = len(corners)
        vanishing = _term(np.full(n, math.inf),
                          dict.fromkeys(range(n), zero_witness))

        @functools.cache
        def mean(g, e):
            if e < 0.0 and zero_witness:
                return vanishing
            # exact sums, each rounded and then divided by the cell count:
            # bit for bit ``GridFunction.cube_average``
            totals = span_totals(powered(g, e).values, first, shape)
            values, errors = np.full(n, math.nan), {}
            for k, total in zip(good, totals):
                try:
                    values[k] = round_total(total) / math.prod(shape)
                except OverflowError as err:
                    errors[k] = err
            return _term(values, errors=errors)

        @functools.cache
        def norm(e):
            if e < 0.0 and zero_witness:
                return vanishing
            values = np.full(n, math.nan)
            values[good] = luxemburg_norms(
                span_rows(powered("w", e).values, first, shape), spec.phi)
            return _term(values)

        return fail, mean, norm

    return terms


def _lattice_cells(w: GridFunction, side: float, corners: np.ndarray):
    """(good, first, shape, fail) for cubes of one side on w's grid, their
    corners as rows, with the arithmetic of ``span_of_cube``: the
    positions of the cubes that lie grid-aligned inside the grid, in
    order; their first cells, one index array per axis (``span_rows``);
    their cells per axis; and {k: the error ``span_of_cube`` raises for
    cube k} for the others."""
    lo, h = np.array(w.lo), np.array(w.h)
    t0, t1 = (corners - lo) / h, (corners + side - lo) / h
    i0, i1 = np.rint(t0), np.rint(t1)
    good = np.flatnonzero(((np.abs(t0 - i0) <= 1e-9) & (np.abs(t1 - i1) <= 1e-9)
                           & (i0 >= 0) & (i1 <= w.shape) & (i1 > i0)).all(axis=1))
    # aligned cubes of one side span one whole number of cells
    shape = (i1 - i0)[good[0]] if good.size else np.zeros(w.dim)
    fail = {}
    for k in np.setdiff1d(np.arange(len(corners)), good).tolist():
        try:
            w.span_of_cube(Cube(tuple(corners[k].tolist()), side))
        except ValueError as err:
            fail[k] = err
    return (good.tolist(), tuple(i0[good].astype(int).T),
            tuple(shape.astype(int).tolist()), fail)


def ap_product(w: SegmentWeight1D, Q, p: float,
               measure: Measure = LEBESGUE) -> float:
    """(avg_Q w)(avg_Q w^{-1/(p-1)})^{p-1} with exact masses."""
    return interval_products(w, ClassSpec("Ap", p=p, measure=measure), [Q])[0]


def aap_product(w: SegmentWeight1D, A, Q, p: float,
                measure: Measure = LEBESGUE) -> float:
    """(avg_Q w(A.))(avg_Q w^{-1/(p-1)})^{p-1} with exact masses."""
    return interval_products(
        w, ClassSpec("AAp", p=p, A=A, measure=measure), [Q])[0]


def rh_ratio(w: SegmentWeight1D, Q, s: float,
             measure: Measure = LEBESGUE) -> float:
    """(avg_Q w^s)^{1/s} / (avg_Q w): the reverse Holder ratio at exponent s."""
    return interval_products(w, ClassSpec("RH", s=s, measure=measure), [Q])[0]


def interval_products(w: SegmentWeight1D, spec: ClassSpec, intervals) -> list:
    """The spec's product over each interval, an (a, b) pair or a 1D Cube,
    in order: one ``_analytic_terms`` call for all of them, so the weight
    is composed and powered once, and each product has the bits of its
    interval alone.  The first interval whose evaluation raises, past any
    infinite product, raises."""
    ends = [_interval(Q) for Q in intervals]
    a = np.array([lo for lo, _ in ends])
    b = np.array([hi for _, hi in ends])
    *_, values, _, error = _product(spec, _analytic_terms(w, spec)(a, b),
                                    a[:, None], b - a)
    if error:
        raise error[1]
    return values.tolist()


# ---------------------------------------------------------------------------
# family sweeps
# ---------------------------------------------------------------------------

def class_constant(w, spec: ClassSpec, family: CubeFamily,
                   n_cells: int = 1024, trace: bool = False) -> ConstantReport:
    """Max of the spec's per-cube product over the family.

    w is a SegmentWeight1D (exact masses) or a GridFunction (exact averages
    of the stored piecewise-constant weight).  AA1 is field-based: the
    analytic weight is sampled to ``n_cells`` exact cell averages first.
    Any infinite per-cube value short-circuits with a witness.
    """
    if spec.kind == "AA1":
        return _aa1_constant(w, spec, family, n_cells)
    return _report(spec.kind, family, _products(w, spec, family), trace)


def _products(w, spec: ClassSpec, family: CubeFamily):
    """The family's ``_product`` blocks in ``family.cubes()`` order: one
    with the terms of the whole family at once (one ``masses`` pass per
    term) for an analytic weight, one per lattice for a grid weight."""
    if isinstance(w, SegmentWeight1D):
        if family.dim != 1:
            raise ValueError("analytic products are one dimensional")
        lattices = list(family.lattices())
        a = np.array([s for _, (starts,) in lattices for s in starts])
        sides = np.array([side for side, (starts,) in lattices for _ in starts])
        yield _product(spec, _analytic_terms(w, spec)(a, a + sides),
                       a[:, None], sides)
    elif isinstance(w, GridFunction):
        terms = _grid_terms(w, spec)
        for side, starts in family.lattices():
            corners = np.stack(np.meshgrid(*starts, indexing="ij"), axis=-1)
            corners = corners.reshape(-1, len(starts))
            yield _product(spec, terms(side, corners), corners,
                           np.full(len(corners), side))
    else:
        raise TypeError("w must be a SegmentWeight1D or GridFunction")


def _report(kind: str, family: CubeFamily, blocks,
            trace: bool = False) -> ConstantReport:
    """The max of the products of ``_product`` blocks, the smallest (corner,
    side) of equal ones, or their first infinite or NaN product (0 * inf
    is undefined, not a value a max may skip) with its witness; a cube
    that raises before either raises.  Cubes are built only for kept rows."""
    best, best_at = -math.inf, None
    rows = [] if trace else None
    for corners, sides, values, why, error in blocks:
        def at(k):
            return tuple(corners[k].tolist()), float(sides[k])
        end = len(values) if error is None else error[0]
        stop = np.flatnonzero(~np.isfinite(values[:end]))[:1].tolist()
        if rows is not None:
            rows += [(Cube(*at(k)), v) for k, v in
                     enumerate(values[:stop[0] + 1 if stop else end].tolist())]
        for k in stop:
            what = "infinite" if math.isinf(values[k]) else "undefined (NaN)"
            witness = why.get(k) or f"{what} per-cube product"
            return ConstantReport(float(values[k]), kind, Cube(*at(k)),
                                  family.to_json_dict(), witness, trace=rows)
        if error is not None:
            raise error[1]
        if end:
            k = min(np.flatnonzero(values == values.max()).tolist(), key=at)
            if values[k] > best or (values[k] == best and at(k) < best_at):
                best, best_at = float(values[k]), at(k)
    return ConstantReport(best, kind, best_at and Cube(*best_at),
                          family.to_json_dict(), trace=rows)


def _composed_grid(w: GridFunction, A) -> GridFunction:
    """The grid weight x -> w(Ax) on w's own grid, 0 where Ax leaves it;
    A is a matrix or anything ``resolve_matrix`` takes."""
    A = resolve_matrix(A, w.dim)
    g = matrix_compose(w, A.inverse(), out_box=(w.lo, w.hi), n_out=w.shape)
    return GridFunction((w.lo, w.hi), g.values)


def _weight_grids(w, A, family: CubeFamily, n_cells: int):
    """(w, w(A.)) as grid functions: exact cell averages of an analytic
    weight on ``n_cells`` cells of the family box, or a grid weight and
    its composition on its own grid."""
    if isinstance(w, SegmentWeight1D):
        box = (family.lo, family.hi)
        return (sample_to_grid(w, box, n_cells),
                sample_to_grid(compose_matrix(w, A), box, n_cells))
    return w, _composed_grid(w, A)


def _aa1_constant(w, spec: ClassSpec, family: CubeFamily,
                  n_cells: int) -> ConstantReport:
    """max over cells of M(w_A)/w, both sides as exact cell averages."""
    if isinstance(w, SegmentWeight1D) and family.dim != 1:
        raise ValueError("analytic AA1 is one dimensional")
    w_grid, wA_grid = _weight_grids(w, spec.A, family, n_cells)
    M = hl_maximal(wA_grid, family)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(w_grid.values > 0, M.values / w_grid.values,
                         np.where(M.values > 0, np.inf, 0.0))
    flat = int(np.argmax(ratio))
    idx = np.unravel_index(flat, ratio.shape)
    value = float(ratio[idx])
    center = tuple(w_grid.lo[d] + (idx[d] + 0.5) * w_grid.h[d]
                   for d in range(w_grid.dim))
    report = ConstantReport(value, "AA1", None, family.to_json_dict(),
                            extras={"argmax_cell_center": list(center)})
    if math.isinf(value):
        report.witness = f"w vanishes at cell centered {center}"
    return report


# ---------------------------------------------------------------------------
# membership and inclusion probes
# ---------------------------------------------------------------------------

def finite_order_reduction(w, A, p: float, family: CubeFamily,
                           n_cells: int = 1024) -> dict:
    """For A with A^k = I: [w]_{A_{A,p}}, [w]_{A_p} and sup_cells w(Ax)/w(x).

    When [w]_{A_{A,p}} is finite on the family, membership in the plain class
    plus the pointwise comparability of w(Ax) with w(x) should come along;
    the report carries all three numbers plus a consistency verdict instead
    of assuming it.  A without finite order yields applicable=False.
    """
    A = resolve_matrix(A, family.dim)
    k = A.order()
    out = {"order": k, "applicable": k is not None}
    if k is None:
        return out
    aap = class_constant(w, ClassSpec("AAp", p=p, A=A), family)
    ap = class_constant(w, ClassSpec("Ap", p=p), family)
    w_grid, wA_grid = _weight_grids(w, A, family, n_cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(w_grid.values > 0, wA_grid.values / w_grid.values,
                         np.where(wA_grid.values > 0, np.inf, 1.0))
    ratio_bound = float(np.max(ratio))
    out.update({
        "aap_value": aap.value,
        "ap_value": ap.value,
        "ratio_bound": ratio_bound,
        "aap_report": aap,
        "ap_report": ap,
    })
    out["consistent"] = (not math.isfinite(aap.value)) or (
        math.isfinite(ap.value) and math.isfinite(ratio_bound))
    return out


def subset_mass_ratio_check(w, A, p: float, pairs, family: CubeFamily,
                            constant: float | None = None) -> dict:
    """Max over (S, Q) pairs of |S|/|Q| - [w]^{1/p} (w(S)/w_A(Q))^{1/p}.

    [w] is the A-composed class constant on the ambient family; the defect
    should never exceed rounding when Q belongs to the family and [w] is
    finite there.  Pairs are (S, Q) cubes with S inside Q.
    """
    A = resolve_matrix(A, 1)
    if constant is None:
        constant = class_constant(w, ClassSpec("AAp", p=p, A=A), family).value
    if not math.isfinite(constant):
        return {"constant": constant, "max_defect": math.nan, "defects": []}
    wA = compose_matrix(w, A)
    defects = []
    for S, Q in pairs:
        a, b = _interval(S)
        qa, qb = _interval(Q)
        if a < qa - 1e-12 or b > qb + 1e-12:
            raise ValueError("S must sit inside Q")
        ratio = (b - a) / (qb - qa)
        wS = w.mass(a, b)
        wAQ = wA.mass(qa, qb)
        if wAQ <= 0.0:
            raise ValueError("w_A has no mass on Q")
        defects.append(ratio - constant ** (1.0 / p) * (wS / wAQ) ** (1.0 / p))
    return {"constant": constant, "max_defect": max(defects), "defects": defects}


def rh_inclusion_check(w, A, p: float, eps: float, family: CubeFamily) -> dict:
    """Open-property bookkeeping: a reverse Holder bound on the dual weight
    lowers the exponent of the composed class.

    With s = (p-1)/(p-eps-1) and sigma = w^{-1/(p-1)}, each cube satisfies
    the exact identity

        aap(w, p-eps, Q) = rh(sigma, s, Q)^{p-1} * aap(w, p, Q),

    so the family constants obey [w]_{p-eps} <= [sigma]_{RH(s)}^{p-1} [w]_p.
    The report carries the three constants, the family-level slack and the
    worst per-cube identity defect (relative).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not p > 1.0 + eps:
        raise ValueError("need p > 1 + eps so the lowered exponent stays > 1")
    A = resolve_matrix(A, 1)
    s = (p - 1.0) / (p - eps - 1.0)
    sigma, bad = w.powered_pieces(-1.0 / (p - 1.0))
    if bad:
        return {"applicable": False,
                "reason": f"dual weight non-integrable near x={bad[0].a:g}"}
    specs = (ClassSpec("RH", s=s), ClassSpec("AAp", p=p, A=A),
             ClassSpec("AAp", p=p - eps, A=A))
    # one block each (analytic weights); any failing cube raises
    blocks = [next(_products(g, spec, family))
              for g, spec in zip((sigma, w, w), specs)]
    for *_, error in blocks:
        if error:
            raise error[1]
    rh_report, base, lowered = (_report(spec.kind, family, [block])
                                for spec, block in zip(specs, blocks))
    rh, aap, lhs = (block[2] for block in blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = _libm_pow(rh, p - 1.0) * aap
        defect = np.abs(lhs - rhs) / np.maximum(
            np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    infinite = np.isinf(lhs) | np.isinf(rhs)
    # an infinite side must be matched; a NaN defect never raises the worst
    worst = (math.inf if (infinite & (lhs != rhs)).any() else
             float(np.fmax.reduce(defect[~infinite], initial=0.0)))
    slack = rh_report.value ** (p - 1.0) * base.value - lowered.value
    return {
        "applicable": True,
        "s": s,
        "rh_constant": rh_report.value,
        "aap_p": base.value,
        "aap_lowered": lowered.value,
        "family_slack": slack,
        "max_percube_defect": worst,
        "cubes_checked": family.count(),
    }
