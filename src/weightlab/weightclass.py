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
Analytic and grid weights supply the terms, building each power once.
"""

from __future__ import annotations

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
    sample_to_grid,
)
from .maximal import hl_maximal, matrix_compose
from .young import YoungFn, _analytic_norm, luxemburg_norm_of_values

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
    A: SquareMatrix | None = None
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
            bits.append(f"A={self.A.entries}")
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


def _measure_length(measure: Measure, a: float, b: float) -> float:
    if measure.kind == "lebesgue":
        return b - a
    return measure.segment_mass(Segment(a, b, "power", c=1.0, gamma=0.0), a, b)


def _analytic_terms(w: SegmentWeight1D, spec: ClassSpec):
    """Q -> (mean, norm) for an analytic weight: exact segment masses under
    spec.measure, with each powered weight built once."""
    weights = {("w", 1.0): (w, [])}
    norms = {}

    def powered(g, e):
        # (g^e, its pieces that are not integrable at their singular point)
        if (g, e) not in weights:
            weights[g, e] = (powered(g, 1.0)[0].powered_pieces(e) if e != 1.0
                             else (compose_matrix(w, spec.A), []))
        return weights[g, e]

    def norm_fn(e, we):
        # Q -> the Luxemburg norm of we = w^e; a power phi powers we once
        if e not in norms:
            norms[e] = _analytic_norm(we, spec.phi)
        return norms[e]

    def terms(Q):
        a, b = _interval(Q)
        length = _measure_length(spec.measure, a, b)

        def term(g, e, value):
            if e < 0.0 and not powered(g, 1.0)[0].covers(a, b):
                return math.inf, f"w vanishes on part of [{a:g}, {b:g}] and e={e:g} < 0"
            ge, singular = powered(g, e)
            for bad in singular:
                if bad.singular_in(a, b):
                    return math.inf, f"w^{e:g} non-integrable near x={bad.a:g}"
            return value(ge), None

        def mean(g, e):
            return term(g, e, lambda ge: ge.mass(a, b, spec.measure) / length)

        def norm(e):
            return term("w", e, lambda ge: norm_fn(e, ge)((a, b)))

        return mean, norm

    return terms


def _grid_terms(w: GridFunction, spec: ClassSpec):
    """Q -> (mean, norm) for a grid weight: exact cube averages of powered
    grids, each built once, and norms of the span's cell values."""
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
            grids[g, e] = (GridFunction((w.lo, w.hi), powered(g, 1.0).values ** e)
                           if e != 1.0 else _composed_grid(w, spec.A))
        return grids[g, e]

    def terms(Q):
        span = w.span_of_cube(Q)

        def mean(g, e):
            if e < 0.0 and zero_witness:
                return math.inf, zero_witness
            return powered(g, e).cube_average(span), None

        def norm(e):
            if e < 0.0 and zero_witness:
                return math.inf, zero_witness
            vals = powered("w", e).values[tuple(slice(*s) for s in span)]
            return luxemburg_norm_of_values(vals, spec.phi), None

        return mean, norm

    return terms


def ap_product(w: SegmentWeight1D, Q, p: float,
               measure: Measure = LEBESGUE) -> float:
    """(avg_Q w)(avg_Q w^{-1/(p-1)})^{p-1} with exact masses."""
    spec = ClassSpec("Ap", p=p, measure=measure)
    return _product(spec, *_analytic_terms(w, spec)(Q))[0]


def aap_product(w: SegmentWeight1D, A, Q, p: float,
                measure: Measure = LEBESGUE) -> float:
    """(avg_Q w(A.))(avg_Q w^{-1/(p-1)})^{p-1} with exact masses."""
    spec = ClassSpec("AAp", p=p, A=A, measure=measure)
    return _product(spec, *_analytic_terms(w, spec)(Q))[0]


def rh_ratio(w: SegmentWeight1D, Q, s: float,
             measure: Measure = LEBESGUE) -> float:
    """(avg_Q w^s)^{1/s} / (avg_Q w): the reverse Holder ratio at exponent s."""
    spec = ClassSpec("RH", s=s, measure=measure)
    return _product(spec, *_analytic_terms(w, spec)(Q))[0]


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
    """(cube, product, witness) for every cube of the family."""
    if isinstance(w, SegmentWeight1D):
        terms = _analytic_terms(w, spec)
    elif isinstance(w, GridFunction):
        terms = _grid_terms(w, spec)
    else:
        raise TypeError("w must be a SegmentWeight1D or GridFunction")
    for Q in family.cubes():
        yield (Q, *_product(spec, *terms(Q)))


def _report(kind: str, family: CubeFamily, products,
            trace: bool = False) -> ConstantReport:
    """The max of a (cube, product, witness) stream, or its first infinite
    or NaN product with the witness.  A NaN product (such as 0 * inf) makes
    the constant NaN: it is undefined, not a value that a max may skip."""
    best, best_cube = -math.inf, None
    rows = [] if trace else None
    for Q, val, witness in products:
        if rows is not None:
            rows.append((Q, val))
        if math.isinf(val) or math.isnan(val):
            default = ("infinite per-cube product" if math.isinf(val)
                       else "undefined (NaN) per-cube product")
            return ConstantReport(val, kind, Q, family.to_json_dict(),
                                  witness=witness or default, trace=rows)
        if val > best or (val == best and best_cube is not None
                          and (Q.corner, Q.side) < (best_cube.corner, best_cube.side)):
            best, best_cube = val, Q
    return ConstantReport(best, kind, best_cube, family.to_json_dict(),
                          trace=rows)


def _composed_grid(w: GridFunction, A: SquareMatrix) -> GridFunction:
    """The grid weight x -> w(Ax) on w's own grid, 0 where Ax leaves it."""
    g = matrix_compose(w, A.inverse(), out_box=(w.lo, w.hi), n_out=w.shape)
    return GridFunction((w.lo, w.hi), g.values)


def _weight_grids(w, A: SquareMatrix, family: CubeFamily, n_cells: int):
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
    sigma, bad = w.try_powered(-1.0 / (p - 1.0))
    if sigma is None:
        return {"applicable": False,
                "reason": f"dual weight non-integrable near x={bad.a:g}"}
    specs = (ClassSpec("RH", s=s), ClassSpec("AAp", p=p, A=A),
             ClassSpec("AAp", p=p - eps, A=A))
    columns = [list(_products(g, spec, family))
               for g, spec in zip((sigma, w, w), specs)]
    rh_report, base, lowered = (_report(spec.kind, family, column)
                                for spec, column in zip(specs, columns))
    worst = 0.0
    for (_, rh, _), (_, aap, _), (_, lhs, _) in zip(*columns):
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
