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

Each product is written once, in ``_product``, over two per-cube terms: the
average of a power of w or w_A, and the Luxemburg norm of a power of w.
Analytic and grid weights supply the terms, building each power once: each
term is one column, built on its first read, over the whole family's
intervals for an analytic weight (one ``SegmentWeight1D.masses`` or
``_analytic_norm`` call) and over a lattice of ``CubeFamily.lattices()`` at
a time for a grid weight (one ``funcspace.span_totals`` pass or one
``luxemburg_norms`` call over the rows of ``funcspace.span_rows``).  Its rows
have the bits of the cube alone.  That holds for every Young function: one
that bisects does so row by row, each cube on its own cells.  A row whose
evaluation failed, such as an overflow, holds its exception, raised only
when a product reads it, so the first infinite product of a sweep keeps its
witness.  ``ap_product``, ``aap_product`` and ``rh_ratio`` are one-cube
families.  The bump kinds' Luxemburg norms and the AA1 field are Lebesgue
quantities, so those kinds take no other measure.
"""

from __future__ import annotations

import functools
import itertools
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

def _product(spec: ClassSpec, mean, norm):
    """The spec's per-cube product as (value, witness), from two terms.

    mean(g, e) is the cube average of g^e, g being "w" or "wA", and norm(e)
    the Luxemburg norm of w^e under spec.phi.  Both return (value, witness),
    inf with a witness when the term is infinite; that term's witness then
    comes with the infinite product."""
    p = spec.p
    if spec.kind == "RH":
        avg = mean("w", 1.0)[0]
        if avg == 0.0:
            return 0.0, None
        high, why = mean("w", spec.s)
        if math.isinf(high):
            return math.inf, why
        return high ** (1.0 / spec.s) / avg, None
    if spec.kind == "bump":
        lead = mean("wA", 1.0)[0] ** (1.0 / p)
        nrm, why = norm(-1.0 / p)
        return (math.inf, why) if why else (lead * nrm, None)
    if spec.kind in ("frac", "frac_bump"):
        lead, why = mean("wA", spec.q)
        if math.isinf(lead):
            return math.inf, why
        lead = lead ** (1.0 / spec.q)
        if spec.kind == "frac_bump":
            nrm, why = norm(-1.0)
            return (math.inf, why) if why else (lead * nrm, None)
        pp = p / (p - 1.0)
        dual, why = mean("w", -pp)
        if math.isinf(dual):
            return math.inf, why
        return lead * dual ** (1.0 / pp), None
    # Ap and Ap_mu (the measure lives in the terms), AAp
    dual, why = mean("w", -1.0 / (p - 1.0))
    if math.isinf(dual):
        return math.inf, why
    lead = mean("wA" if spec.kind == "AAp" else "w", 1.0)[0]
    return lead * dual ** (p - 1.0), None


def _interval(Q):
    if isinstance(Q, Cube):
        if Q.dim != 1:
            raise ValueError("analytic products are one dimensional")
        return Q.corner[0], Q.corner[0] + Q.side
    a, b = float(Q[0]), float(Q[1])
    if not b > a:
        raise ValueError("empty interval")
    return a, b


def _rows(values, why, errors):
    """Cube k's term (value, witness) at index k: (inf, why[k]) where the
    term is infinite, and where its evaluation failed the exception it
    raised (a ValueError of the message, for a message)."""
    rows = [(v, None) for v in values]
    for k, error in errors.items():
        rows[k] = error if isinstance(error, Exception) else ValueError(error)
    for k, witness in why.items():
        rows[k] = (math.inf, witness)
    return rows


def _read(row):
    """A row's (value, witness); a failed row raises its exception."""
    if isinstance(row, Exception):
        raise row
    return row


def _lengths(measure: Measure, a: np.ndarray, b: np.ndarray):
    """(the measure of each interval [a_k, b_k], {k: its overflow})."""
    if measure.kind == "lebesgue":
        return b - a, {}
    unit = SegmentWeight1D([Segment(float(a.min()), float(b.max()), "power")])
    return unit.masses(a, b, measure)


def _analytic_terms(w: SegmentWeight1D, spec: ClassSpec):
    """(a, b) -> (fail, mean, norm) over the intervals [a_k, b_k] for an
    analytic weight: exact segment masses under spec.measure, each term
    the rows of one column over all the intervals, built on its first
    read, with each powered weight built once.  fail maps an interval to
    the error its measure raises."""
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

        def infinite(g, e):
            # k -> the witness of cube k's infinite term g^e
            why = {}
            if e < 0.0:
                if g not in covered:
                    covered[g] = powered(g, 1.0)[0].covers(a, b)
                for k in np.flatnonzero(~covered[g]).tolist():
                    why[k] = (f"w vanishes on part of [{lo[k]:g}, {hi[k]:g}] "
                              f"and e={e:g} < 0")
            for bad in powered(g, e)[1]:
                for k in np.flatnonzero(bad.singular_in(a, b)).tolist():
                    why.setdefault(k, f"w^{e:g} non-integrable near x={bad.a:g}")
            return why

        @functools.cache
        def mean(g, e):
            masses, overflow = powered(g, e)[0].masses(a, b, spec.measure)
            return _rows((masses / lengths).tolist(), infinite(g, e), overflow)

        @functools.cache
        def norm(e):
            if e not in norm_of:
                norm_of[e] = _analytic_norm(powered("w", e)[0], spec.phi)
            values, errors = norm_of[e](a, b)
            return _rows(values, infinite("w", e), errors)

        return {k: ValueError(m) for k, m in fail.items()}, mean, norm

    return terms


def _grid_terms(w: GridFunction, spec: ClassSpec):
    """(side, starts) -> (fail, mean, norm) over a lattice's cubes for a
    grid weight: exact cube averages of powered grids, each built once, by
    one ``span_totals`` pass per term over the cubes' cells, and their
    Luxemburg norms as the ``span_rows`` rows of one ``luxemburg_norms``
    call.  fail maps a cube to the error its grid span raises."""
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

    def terms(side, starts):
        good, first, shape, fail = _lattice_cells(w, side, starts)
        n = math.prod(map(len, starts))
        vanishing = [(math.inf, zero_witness)] * n

        def spread(values):
            out = [math.nan] * n
            for k, v in zip(good, values):
                out[k] = v
            return out

        @functools.cache
        def mean(g, e):
            if e < 0.0 and zero_witness:
                return vanishing
            # exact sums, each rounded and then divided by the cell count:
            # bit for bit ``GridFunction.cube_average``
            totals = span_totals(powered(g, e).values, first, shape)
            values, errors = [], {}
            for k, total in zip(good, totals):
                try:
                    values.append(round_total(total) / math.prod(shape))
                except OverflowError as err:
                    values.append(math.nan)
                    errors[k] = err
            return _rows(spread(values), {}, errors)

        @functools.cache
        def norm(e):
            if e < 0.0 and zero_witness:
                return vanishing
            rows = span_rows(powered("w", e).values, first, shape)
            return _rows(spread(luxemburg_norms(rows, spec.phi)), {}, {})

        return fail, mean, norm

    return terms


def _lattice_cells(w: GridFunction, side: float, starts):
    """(good, first, shape, fail) for a lattice on w's grid, with the
    arithmetic of ``span_of_cube``: the lattice positions of the cubes that
    lie grid-aligned inside the grid, in order; their first cells, one
    index array per axis broadcast over the lattice (``span_rows``); their
    cells per axis; and {k: the error ``span_of_cube`` raises for cube k}
    for the others."""
    at, first, shape = [], [], []
    for d, axis in enumerate(starts):
        a = np.array(axis)
        t0 = (a - w.lo[d]) / w.h[d]
        t1 = (a + side - w.lo[d]) / w.h[d]
        i0, i1 = np.rint(t0), np.rint(t1)
        good = np.flatnonzero((np.abs(t0 - i0) <= 1e-9) & (np.abs(t1 - i1) <= 1e-9)
                              & (i0 >= 0) & (i1 <= w.shape[d]) & (i1 > i0))
        # aligned cubes of one side span one whole number of cells
        shape.append(int(i1[good[0]] - i0[good[0]]) if good.size else 0)
        first.append(i0[good].astype(int))
        at.append(good)
    good = np.ravel_multi_index(np.meshgrid(*at, indexing="ij"),
                                [len(axis) for axis in starts]).ravel().tolist()
    fail = {}
    if len(good) < math.prod(map(len, starts)):
        kept = set(good)
        for k, corner in enumerate(itertools.product(*starts)):
            if k not in kept:
                try:
                    w.span_of_cube(Cube(corner, side))
                except ValueError as err:
                    fail[k] = err
    return good, np.ix_(*first), tuple(shape), fail


def ap_product(w: SegmentWeight1D, Q, p: float,
               measure: Measure = LEBESGUE) -> float:
    """(avg_Q w)(avg_Q w^{-1/(p-1)})^{p-1} with exact masses."""
    return _one_product(w, ClassSpec("Ap", p=p, measure=measure), Q)


def aap_product(w: SegmentWeight1D, A, Q, p: float,
                measure: Measure = LEBESGUE) -> float:
    """(avg_Q w(A.))(avg_Q w^{-1/(p-1)})^{p-1} with exact masses."""
    return _one_product(w, ClassSpec("AAp", p=p, A=A, measure=measure), Q)


def rh_ratio(w: SegmentWeight1D, Q, s: float,
             measure: Measure = LEBESGUE) -> float:
    """(avg_Q w^s)^{1/s} / (avg_Q w): the reverse Holder ratio at exponent s."""
    return _one_product(w, ClassSpec("RH", s=s, measure=measure), Q)


def _one_product(w: SegmentWeight1D, spec: ClassSpec, Q) -> float:
    """The spec's product over one interval: a family of one cube."""
    a, b = _interval(Q)
    terms = _analytic_terms(w, spec)(np.array([a]), np.array([b]))
    return next(_cube_products(spec, terms, [(a,)], [b - a]))[2]


def _cube_products(spec: ClassSpec, terms, corners, sides):
    """(corner, side, product, witness) per cube, from the (fail, mean,
    norm) terms of the cubes with these corners and sides."""
    fail, mean, norm = terms
    for k, (corner, side) in enumerate(zip(corners, sides)):
        if k in fail:
            raise fail[k]
        yield (corner, side, *_product(spec, lambda g, e: _read(mean(g, e)[k]),
                                       lambda e: _read(norm(e)[k])))


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
    """(corner, side, product, witness) for every cube of the family, in
    ``family.cubes()`` order: for an analytic weight with the terms of the
    whole family at once, its intervals in that order, and for a grid
    weight a lattice at a time.

    Each term of an analytic weight is then one ``masses`` pass over the
    family, not one per lattice: ``weightlab verify all`` makes 181 calls,
    not 429.  On a shared 2-core x86-64 VM (minimum of 25 interleaved runs
    in one process, ms, a lattice at a time -> the family at once):
    ``suite_prop41`` 9.1 -> 6.7, ``suite_prop43`` 10.0 -> 7.5, the
    theorems suite's ``rh_inclusion_check`` 9.1 -> 5.4 and its two
    ``finite_order_reduction`` calls 3.6 -> 1.8 and 4.3 -> 2.2."""
    if isinstance(w, SegmentWeight1D):
        if family.dim != 1:
            raise ValueError("analytic products are one dimensional")
        lattices = list(family.lattices())
        a = np.array([s for _, (starts,) in lattices for s in starts])
        sides = [side for side, (starts,) in lattices for _ in starts]
        yield from _cube_products(
            spec, _analytic_terms(w, spec)(a, a + np.array(sides)),
            [(s,) for s in a.tolist()], sides)
    elif isinstance(w, GridFunction):
        terms = _grid_terms(w, spec)
        for side, starts in family.lattices():
            cubes = itertools.product(*starts)
            yield from _cube_products(spec, terms(side, starts), cubes,
                                      itertools.repeat(side))
    else:
        raise TypeError("w must be a SegmentWeight1D or GridFunction")


def _report(kind: str, family: CubeFamily, products,
            trace: bool = False) -> ConstantReport:
    """The max of a (corner, side, product, witness) stream, or its first
    infinite or NaN product with the witness.  A NaN product (such as
    0 * inf) makes the constant NaN: it is undefined, not a value that a
    max may skip.  A Cube is built only for a row the report keeps."""
    best, best_at = -math.inf, None
    rows = [] if trace else None
    for corner, side, val, witness in products:
        if rows is not None:
            rows.append((Cube(corner, side), val))
        if math.isinf(val) or math.isnan(val):
            default = ("infinite per-cube product" if math.isinf(val)
                       else "undefined (NaN) per-cube product")
            return ConstantReport(val, kind, Cube(corner, side),
                                  family.to_json_dict(),
                                  witness=witness or default, trace=rows)
        if val > best or (val == best and best_at is not None
                          and (corner, side) < best_at):
            best, best_at = val, (corner, side)
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
    columns = [list(_products(g, spec, family))
               for g, spec in zip((sigma, w, w), specs)]
    rh_report, base, lowered = (_report(spec.kind, family, column)
                                for spec, column in zip(specs, columns))
    worst = 0.0
    for (_, _, rh, _), (_, _, aap, _), (_, _, lhs, _) in zip(*columns):
        rhs = rh ** (p - 1.0) * aap
        if math.isinf(lhs) or math.isinf(rhs):
            if lhs != rhs:
                worst = math.inf
            continue
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
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
