"""Young functions, Luxemburg norms, B_p integrals, Holder defects.

A Young function here is continuous, convex, nondecreasing on [0, inf) with
phi(0) = 0 and phi(t) -> inf.  Norms are normalized by |Q| (averages), so
``luxemburg_norm`` of f over Q with phi(t) = t is the plain average and with
phi(t) = t^r the normalized L^r norm.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .funcspace import Cube, GridFunction, SegmentWeight1D, _libm_pow

_REL_TOL = 1e-11          # bisection relative width target
_CERT_TOL = 1e-8          # certificate: avg phi(f/lam) within this of 1


@dataclass(frozen=True)
class YoungFn:
    """One of a small closed set of Young functions.

    kinds: identity, power (c*t^r, r>1, c>0), power_log (t^r log(e+t)^beta,
    r>=1, beta>0), exp_minus_one (e^t - 1), sup (the {0, inf} complement of
    identity, whose Luxemburg norm is the sup norm), legendre_of (numeric
    complement of a base function).  ``bump_exponent(p, eps)`` is the power
    t^{p/(p+eps-1)}.  The constructors take finite numbers only.
    """

    kind: str
    r: float = 0.0
    c: float = 1.0
    beta: float = 0.0
    base: "YoungFn | None" = None

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def power(cls, r: float, c: float = 1.0):
        r, c = _finite("power", r=r, c=c)
        if not (r > 1.0 and c > 0.0):
            raise ValueError(f"power kind needs r > 1, c > 0, got r = {r}, "
                             f"c = {c}")
        return cls("power", r=r, c=c)

    @classmethod
    def power_log(cls, r: float, beta: float):
        r, beta = _finite("power_log", r=r, beta=beta)
        if not (r >= 1.0 and beta > 0.0):
            raise ValueError(f"power_log needs r >= 1, beta > 0, got r = {r}, "
                             f"beta = {beta}")
        return cls("power_log", r=r, beta=beta)

    @classmethod
    def exp_minus_one(cls):
        return cls("exp_minus_one")

    @classmethod
    def bump_exponent(cls, p: float, eps: float):
        """The power t^rho, rho = p/(p+eps-1)."""
        p, eps = _finite("bump", p=p, eps=eps)
        gap = p + eps - 1.0
        rho = p / gap if gap else math.inf
        if not (math.isfinite(rho) and rho > 1.0):
            raise ValueError(f"bump exponent p/(p+eps-1) = {rho} must be a "
                             "finite number above 1")
        return cls.power(rho)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "identity":
            out = t.copy()
        elif self.kind == "power":
            out = self.c * t ** self.r
        elif self.kind == "power_log":
            out = t ** self.r * np.log(np.e + t) ** self.beta
        elif self.kind == "exp_minus_one":
            # large arguments overflow to inf, which is the correct value
            with np.errstate(over="ignore"):
                out = np.expm1(t)
        elif self.kind == "sup":
            out = np.where(t <= 1.0, 0.0, np.inf)
        elif self.kind == "legendre_of":
            out = _legendre_values(self.base, t)
        else:
            raise ValueError(f"unknown kind {self.kind}")
        return out if out.shape else float(out)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "identity":
            out = np.ones_like(t)
        elif self.kind == "power":
            out = self.c * self.r * t ** (self.r - 1.0)
        elif self.kind == "power_log":
            lg = np.log(np.e + t)
            out = t ** (self.r - 1.0) * lg ** (self.beta - 1.0) * (
                self.r * lg + self.beta * t / (np.e + t))
        elif self.kind == "exp_minus_one":
            out = np.exp(t)
        else:
            raise ValueError(f"no derivative for kind {self.kind}")
        return out if out.shape else float(out)

    @property
    def is_homogeneous(self) -> bool:
        """True when phi(s t) = s^r phi(t): norm has a closed form."""
        return self.kind in ("identity", "power")

    @property
    def exponent(self):
        """Power-type growth exponent, or None when not power-type."""
        if self.kind == "identity":
            return 1.0
        if self.kind in ("power", "power_log"):
            return self.r
        return None

    def describe(self) -> str:
        if self.kind == "identity":
            return "t"
        if self.kind == "power":
            return f"{self.c:g}*t^{self.r:g}" if self.c != 1.0 else f"t^{self.r:g}"
        if self.kind == "power_log":
            return f"t^{self.r:g}*log(e+t)^{self.beta:g}"
        if self.kind == "exp_minus_one":
            return "exp(t)-1"
        if self.kind == "sup":
            return "sup-restriction"
        return f"legendre({self.base.describe()})"

    @classmethod
    def from_json_dict(cls, d: dict) -> "YoungFn":
        kind = d["kind"]
        if kind in ("identity", "exp_minus_one", "sup"):
            return cls(kind)
        if kind == "power":
            return cls.power(d["r"], d.get("c", 1.0))
        if kind == "power_log":
            return cls.power_log(d["r"], d["beta"])
        if kind == "bump":
            return cls.bump_exponent(d["p"], d["eps"])
        raise ValueError(f"unknown young function kind {kind!r}")


def _finite(kind: str, **params) -> list:
    """The values of params as floats, each a finite real number (a bool
    or a string is not), else a ValueError naming the first bad one."""
    for name, x in params.items():
        if (isinstance(x, bool) or not isinstance(x, numbers.Real)
                or not math.isfinite(x)):
            raise ValueError(f"{kind} needs a finite number {name}, got {x!r}")
    return [float(x) for x in params.values()]


def complementary(phi: YoungFn) -> YoungFn:
    """The complementary Young function (Legendre transform normalization).

    Power pairs are returned in closed form: the complement of c t^r is
    c(r-1)(cr)^{-r'} s^{r'} with r' = r/(r-1), so Young's inequality
    s t <= phi(t) + comp(s) is tight along s = phi'(t).  The complement of
    the identity is the {0, inf} restriction whose Luxemburg norm is the
    sup norm.  Everything else goes through a numeric Legendre transform.
    """
    if phi.kind == "identity":
        return YoungFn("sup")
    if phi.kind == "sup":
        return YoungFn.identity()
    if phi.kind == "power":
        r, c = phi.r, phi.c
        rp = r / (r - 1.0)
        coeff = c * (r - 1.0) * (c * r) ** (-rp)
        return YoungFn("power", r=rp, c=coeff)
    if phi.kind == "legendre_of":
        return phi.base
    return YoungFn("legendre_of", base=phi)


def _legendre_scalar(base: YoungFn, s: float) -> float:
    """sup_{t>=0} s t - base(t) by ternary search on the concave objective."""
    if s <= 0.0:
        return 0.0
    # bracket: grow until the derivative of the objective goes negative
    hi = 1.0
    for _ in range(400):
        if s - float(base.derivative(hi)) < 0.0:
            break
        hi *= 2.0
    else:
        return math.inf
    lo = 0.0
    for _ in range(200):
        if (hi - lo) <= 1e-13 * max(1.0, hi):
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = s * m1 - float(base(m1))
        f2 = s * m2 - float(base(m2))
        if f1 < f2:
            lo = m1
        else:
            hi = m2
    t = 0.5 * (lo + hi)
    return max(0.0, s * t - float(base(t)))


def _legendre_values(base: YoungFn, t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.array([_legendre_scalar(base, float(x)) for x in t])
    return out if out.shape != (1,) else out.reshape(())


# ---------------------------------------------------------------------------
# Luxemburg norms
# ---------------------------------------------------------------------------

def luxemburg_norm(f, Q, phi: YoungFn) -> float:
    """Normalized Luxemburg norm inf{lam > 0 : avg_Q phi(|f|/lam) <= 1}.

    f is a GridFunction (Q grid-aligned, cells outside the grid count as 0
    when Q pokes out of the box; the norm is ``luxemburg_norm_of_values`` of
    the covered cells) or a SegmentWeight1D (Q must be covered by its
    segments).  Homogeneous phi has a closed form, the rest is bisection.
    """
    if isinstance(f, GridFunction):
        cube = _as_cube(Q, f.dim)
        cells = tuple(slice(*s) for s in f.span_of_cube(cube, clip=True))
        if not f.mask[cells].all():
            raise ValueError("Luxemburg norm over cells without defined values")
        total_cells = cube.volume / f.cell_volume
        if abs(total_cells - round(total_cells)) > 1e-6:
            raise ValueError("cube volume is not a whole number of cells")
        # cells of Q beyond the grid count as zeros: phi(0) = 0 adds nothing
        return luxemburg_norm_of_values(f.values[cells], phi,
                                        round(total_cells))
    if not isinstance(f, SegmentWeight1D):
        raise TypeError("f must be a GridFunction or SegmentWeight1D")
    cube = _as_cube(Q, 1)
    a = cube.corner[0]
    norms, errors = _analytic_norm(f, phi)(np.array([a]), np.array([a + cube.side]))
    if errors:
        raise ValueError(errors[0])
    return norms[0]


def _analytic_norm(w: SegmentWeight1D, phi: YoungFn):
    """(a, b) -> the normalized Luxemburg norms of an analytic weight over
    the intervals [a_k, b_k] (arrays), as (norms, {k: message}), the
    message of the ValueError each failing interval raises: one that w
    does not cover, or whose mass overflows.

    Homogeneous phi has the closed form (c avg w^r)^(1/r) from exact
    powered-segment masses, over all intervals at once, with one powered
    weight built for every call; the norm is infinite only where an
    interval meets a non-integrable powered piece at its singular point.
    Other phi bisect per interval on integrals over Gauss panels
    geometrically refined toward singular points (8 nodes per panel).
    """
    power = phi.is_homogeneous and phi.kind != "identity"
    powered, singular = w.powered_pieces(phi.r) if power else (w, [])

    def norms(a, b):
        lo, hi = a.tolist(), b.tolist()
        errors = {k: f"weight does not cover [{lo[k]}, {hi[k]}]"
                  for k in np.flatnonzero(~w.covers(a, b)).tolist()}
        infinite = np.zeros(a.shape, dtype=bool)
        for seg in singular:
            infinite |= seg.singular_in(a, b)
        vmax = _analytic_sup(w, a, b).tolist()
        masses, overflow = powered.masses(a, b)
        mean = masses / (b - a)
        if power:
            mean = _libm_pow(mean * phi.c, 1.0 / phi.r)
        mean = mean.tolist()
        out = [math.inf] * a.size
        for k in range(a.size):
            if k in errors or infinite[k]:
                continue
            if vmax[k] == 0.0:
                out[k] = 0.0
            elif phi.kind == "sup":
                out[k] = vmax[k]
            elif phi.kind == "exp_minus_one" and math.isinf(vmax[k]):
                # w is unbounded only at a power singularity |x - a|^gamma,
                # gamma < 0, and exp(|x - a|^gamma / lam) is integrable
                # near a for no lam
                pass
            elif k in overflow:
                errors[k] = overflow[k]
            elif phi.is_homogeneous or math.isinf(mean[k]):
                # a Young function grows at least linearly, so a weight that
                # is not integrable over Q has an infinite norm there
                out[k] = mean[k]
            else:
                out[k] = _bisected_norm(w, phi, lo[k], hi[k], vmax[k], mean[k])
        return out, errors
    return norms


def _bisected_norm(w: SegmentWeight1D, phi: YoungFn, a: float, b: float,
                   vmax: float, mean: float) -> float:
    nodes, weights = _panelize(w, a, b)

    def G(lam: float) -> float:
        vals = phi(w.value(nodes) / lam)
        return float(np.dot(weights, vals)) / (b - a)

    # a non-integrable power of the weight inside Q
    if math.isinf(vmax) and math.isinf(G(1.0)) and math.isinf(G(2.0 ** 64)):
        return math.inf
    return _bisect_norm(G, max(mean, 1e-300))


def luxemburg_norm_of_values(values, phi: YoungFn, total_cells: int | None = None) -> float:
    """Luxemburg norm of a finite list of equally weighted cell values.

    total_cells pads the average with that many cells in all (extra cells
    count as zeros); default is len(values).  The one-row case of
    ``luxemburg_norms``.
    """
    vals = np.asarray(values, dtype=float).reshape(1, -1)
    return luxemburg_norms(vals, phi, total_cells)[0]


def luxemburg_norms(rows: np.ndarray, phi: YoungFn,
                    total_cells: int | None = None) -> list:
    """Luxemburg norms of the rows of a (cubes, cells) array, one per row.

    Each row's cells are equally weighted; total_cells pads every average
    with that many cells in all (default: the row length).  A homogeneous
    phi reduces all rows at once: on a C-contiguous array the row sums add
    in the order ``np.sum`` uses on each row alone, so every norm has the
    bits of its row's own.  Other phi bisect row by row.
    """
    m, cells = rows.shape
    if not m:
        return []
    count = cells if total_cells is None else int(total_cells)
    if count <= 0:
        raise ValueError("need at least one cell")
    if cells == 0:
        return [0.0] * m
    vmax = rows.max(axis=1)
    if phi.kind == "sup":
        return [v if v != 0.0 else 0.0 for v in vmax.tolist()]
    if phi.is_homogeneous:
        r = 1.0 if phi.kind == "identity" else phi.r
        c = 1.0 if phi.kind == "identity" else phi.c
        moments = (c * (rows ** r).sum(axis=1) / count).tolist()
        if phi.kind != "identity":
            moments = [mo ** (1.0 / r) for mo in moments]
        return [0.0 if v == 0.0 else mo
                for v, mo in zip(vmax.tolist(), moments)]
    out = []
    for vals, v in zip(rows, vmax.tolist()):
        if v == 0.0:
            out.append(0.0)
            continue

        def G(lam: float, vals=vals) -> float:
            return float(np.sum(phi(vals / lam))) / count

        vbar = float(np.sum(vals)) / count
        out.append(_bisect_norm(G, max(vbar, v * 1e-12)))
    return out


def _bisect_norm(G, vbar: float) -> float:
    lam_hi = max(vbar, 1e-300)
    for _ in range(2200):
        g = G(lam_hi)
        if g <= 1.0:
            break
        lam_hi *= 2.0
    else:
        return math.inf
    lam_lo = lam_hi
    for _ in range(2200):
        trial = lam_lo / 2.0
        if trial <= 0.0:
            break
        if G(trial) > 1.0:
            lam_lo = trial
            break
        lam_lo = trial
        if lam_lo < 1e-300:
            return 0.0
    while G(lam_lo) <= 1.0 and lam_lo > 1e-300:
        lam_lo /= 2.0
    # invariant: G(lam_lo) > 1 >= G(lam_hi)
    for _ in range(200):
        if lam_hi - lam_lo <= _REL_TOL * lam_hi:
            break
        mid = 0.5 * (lam_lo + lam_hi)
        if G(mid) > 1.0:
            lam_lo = mid
        else:
            lam_hi = mid
    return 0.5 * (lam_lo + lam_hi)


_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _panelize(w: SegmentWeight1D, a: float, b: float, geometric: int = 14):
    """Gauss panels on [a,b] refined toward singular points of w."""
    cuts = {a, b}
    sing = []
    for seg in w.segments:
        for x in (seg.lo, seg.hi):
            if a < x < b:
                cuts.add(x)
        if seg.form == "power" and seg.gamma != 0 and a - 1e-12 <= seg.a <= b + 1e-12:
            sing.append(min(max(seg.a, a), b))
            if a < seg.a < b:
                cuts.add(seg.a)
    cuts = sorted(cuts)
    nodes, weights = [], []
    for u, v in zip(cuts, cuts[1:]):
        sub = [u, v]
        for sp in sing:
            if abs(sp - u) < 1e-14 * max(1, abs(u)):
                sub = _geometric_marks(u, v, True, geometric)
                break
            if abs(sp - v) < 1e-14 * max(1, abs(v)):
                sub = _geometric_marks(u, v, False, geometric)
                break
        else:
            sub = np.linspace(u, v, 9).tolist()
        for s0, s1 in zip(sub, sub[1:]):
            mid, half = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
            nodes.append(mid + half * _PANEL_NODES)
            weights.append(half * _PANEL_WEIGHTS)
    return np.concatenate(nodes), np.concatenate(weights)


def _geometric_marks(u, v, toward_left, k):
    length = v - u
    marks = [0.0] + [2.0 ** (-i) for i in range(k, -1, -1)]
    marks = np.asarray(marks) * length
    if toward_left:
        return (u + marks).tolist()
    return (v - marks[::-1]).tolist()


def _analytic_sup(w: SegmentWeight1D, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sup of w over each interval [a_k, b_k]: the largest piece value
    at a clipped endpoint (libm pow per point, as for one interval), inf
    where the interval holds a negative power's singular point or where an
    exp piece's value there leaves the float range."""
    sup = np.zeros(a.shape)
    for seg in w.segments:
        lo, hi = np.maximum(a, seg.lo), np.minimum(b, seg.hi)
        k = np.flatnonzero(hi > lo)
        if not k.size:
            continue
        lo, hi = lo[k], hi[k]
        if seg.form == "power" and seg.gamma == 0:
            top = np.full(k.size, seg.c)
        else:
            with np.errstate(over="ignore"):
                top = np.maximum(seg.value(lo, _libm_pow),
                                 seg.value(hi, _libm_pow))
            if seg.form == "power" and seg.gamma < 0:
                top[(lo <= seg.a) & (seg.a <= hi)] = math.inf
        sup[k] = np.maximum(sup[k], top)
    return sup


def _as_cube(Q, dim: int) -> Cube:
    if isinstance(Q, Cube):
        return Q
    if dim == 1 and isinstance(Q, (tuple, list)) and len(Q) == 2 \
            and np.isscalar(Q[0]):
        return Cube((float(Q[0]),), float(Q[1]) - float(Q[0]))
    raise TypeError("Q must be a Cube (or an (a, b) interval in 1D)")


# ---------------------------------------------------------------------------
# B_p integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BpReport:
    value: float           # integral of phi(t)/t^{p+1} over [1, T]
    tail: float | None     # closed-form tail beyond T when available
    converges: bool | None # symbolic verdict for built-in kinds
    T: float

    @property
    def total(self):
        return self.value + (self.tail or 0.0)


_BP_NODES, _BP_WEIGHTS = np.polynomial.legendre.leggauss(16)


def bp_integral(phi: YoungFn, p: float, T: float = 2.0 ** 30) -> BpReport:
    """Numeric B_p integral with symbolic convergence classification.

    Composite 16-node Gauss on dyadic panels [2^i, 2^{i+1}] up to T; the
    integrand phi(t) t^{-p-1} is smooth there.  Power-type kinds get a
    closed-form tail; the convergence flag compares growth exponents.
    """
    if p <= 1.0:
        raise ValueError("B_p needs p > 1")
    total = 0.0
    lo = 1.0
    while lo < T:
        hi = min(lo * 2.0, T)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid + half * _BP_NODES
        total += half * float(np.dot(_BP_WEIGHTS, phi(t) * t ** (-p - 1.0)))
        lo = hi

    tail = None
    converges = None
    if phi.kind in ("identity", "power"):
        r = phi.exponent
        c = phi.c if phi.kind != "identity" else 1.0
        converges = r < p
        if converges:
            tail = c * T ** (r - p) / (p - r)
    elif phi.kind == "power_log":
        converges = phi.r < p if phi.r != p else False
    elif phi.kind == "exp_minus_one":
        converges = False
    elif phi.kind == "legendre_of":
        base = phi.base
        if base.kind == "exp_minus_one":
            converges = True          # t log t growth, p > 1 integrates it
        elif base.exponent is not None and base.exponent > 1.0:
            rp = base.exponent / (base.exponent - 1.0)
            converges = rp < p if rp != p else None
    return BpReport(value=total, tail=tail, converges=converges, T=T)


# ---------------------------------------------------------------------------
# generalized Holder defect
# ---------------------------------------------------------------------------

def holder_defect(f, g, Q, phi: YoungFn) -> float:
    """2 ||f||_phi ||g||_comp(phi) - avg_Q(f g); nonnegative up to rounding."""
    if not (isinstance(f, GridFunction) and isinstance(g, GridFunction)):
        raise TypeError("holder_defect expects grid functions")
    if f.shape != g.shape or f.lo != g.lo or f.hi != g.hi:
        raise ValueError("f and g must share a grid")
    cube = _as_cube(Q, f.dim)
    span = f.span_of_cube(cube)
    prod = GridFunction((f.lo, f.hi), f.values * g.values)
    avg_fg = prod.cube_average(span)
    nf = luxemburg_norm(f, cube, phi)
    ng = luxemburg_norm(g, cube, complementary(phi))
    bound = 2.0 * nf * ng
    if math.isinf(bound):
        return math.inf
    return bound - avg_fg
