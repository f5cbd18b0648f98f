"""Reproduction suites: divergence of matrix-composed weight constants and
boundedness probes for the composed maximal operator.

Each suite builds its weights from exact segment closed forms, evaluates the
relevant per-cube products, and emits named checks.  A check records what was
computed, the relation it is held to, the inputs, and the basis of the
expected value: "closed-form" for numbers pinned by an exact formula,
"derived" for values obtained from an independent numeric derivation (slope
fits, grid corpora), "trivial" for bookkeeping identities.

Suite ids (prop41/prop42/prop43/theorems) are the stable CLI tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .funcspace import (
    CubeFamily,
    GridFunction,
    SegmentWeight1D,
    Segment,
    SquareMatrix,
    EXP_ABS,
    compose_matrix,
    constant_weight,
    power_weight,
    sample_to_grid,
)
from .maximal import hl_maximals
from .weightclass import (
    ClassSpec,
    ap_product,
    class_constant,
    finite_order_reduction,
    interval_products,
    rh_inclusion_check,
)
from .czlab import theorem_chain_checks
from .young import YoungFn

__all__ = [
    "Check",
    "SuiteResult",
    "suite_prop41",
    "suite_prop42",
    "suite_prop43",
    "suite_theorems",
    "run_suites",
    "growth_weight",
    "exp_growth_weight",
    "reflection_weight",
    "probe_interval",
    "reflection_interval",
    "j_h",
    "ap_mu_closed_form",
]


@dataclass
class Check:
    name: str
    description: str
    computed: object
    relation: str
    passed: bool
    basis: str                   # closed-form | derived | trivial
    inputs: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "computed": self.computed,
            "relation": self.relation,
            "passed": self.passed,
            "basis": self.basis,
            "inputs": self.inputs,
        }


@dataclass
class SuiteResult:
    suite: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list:
        return [c.name for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: {c.description}")
            lines.append(f"         computed={c.computed!r} expected {c.relation}")
        return "\n".join(lines)


def _fit_slope(xs, ys) -> float:
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


# ---------------------------------------------------------------------------
# weights with diverging composed constants
# ---------------------------------------------------------------------------

def _c_k(k: int) -> float:
    return float(2 ** (2 * k - 1))


def _a_k(k: int) -> float:
    return 3.0 * 2 ** (2 * k - 1)


def growth_weight(k_max: int = 8) -> SegmentWeight1D:
    """Inverse-square-root singularities at c_k = 2^(2k-1), piece k living on
    (a_{k-1}, a_k] with a_k = 3 * 2^(2k-1); the composed A_2 constant with
    the doubling map diverges like 2^k along the adapted intervals."""
    segs = [Segment(0.0, _a_k(1), "power", a=_c_k(1), gamma=-0.5)]
    for k in range(2, k_max + 1):
        segs.append(Segment(_a_k(k - 1), _a_k(k), "power", a=_c_k(k), gamma=-0.5))
    return SegmentWeight1D(segs)


def probe_interval(k: int):
    """T_k = (2 c_k, 2 c_k + 1/4), sitting inside (a_{k-1}, a_k)."""
    return (2.0 * _c_k(k), 2.0 * _c_k(k) + 0.25)


def exp_growth_weight(p: float, span: float = 60.0) -> SegmentWeight1D:
    """w(x) = exp((p-1)|x|), the weight whose composed constant under the
    halving map stays bounded in the exponential measure while the plain
    constant diverges."""
    return SegmentWeight1D([
        Segment(-span, 0.0, "exp", s=-(p - 1.0)),
        Segment(0.0, span, "exp", s=p - 1.0),
    ])


def reflection_weight(k_max: int = 11, left: float = -12.0) -> SegmentWeight1D:
    """|x|^(-1/2) left of 1/2 and |x-k|^(-1/2) on [k-1/2, k+1/2); in the
    plain A_2 class, but composition with x -> -x breaks it."""
    segs = [Segment(left, 0.5, "power", a=0.0, gamma=-0.5)]
    for k in range(1, k_max + 1):
        segs.append(Segment(k - 0.5, k + 0.5, "power", a=float(k), gamma=-0.5))
    return SegmentWeight1D(segs)


def reflection_interval(k: int):
    """J_k = (-k - 1/4, -k)."""
    return (-k - 0.25, float(-k))


def j_h(p: float, h: float) -> float:
    """Closed form of the composed-constant product on (0, h) in the
    exponential measure for w = exp((p-1)|x|) and the halving map."""
    return (2.0 / (p + 1.0)) * (-math.expm1(-(p + 1.0) * h / 2.0)) \
        / (-math.expm1(-h)) \
        * (math.exp(-h / 2.0) * h / (-math.expm1(-h))) ** (p - 1.0)


def ap_mu_closed_form(p: float, h: float) -> float:
    """Closed form of the plain product on (a, a+h) in the exponential
    measure (independent of a)."""
    return (1.0 / p) * (-math.expm1(-p * h)) * (-math.expm1(-h)) ** (-p) \
        * h ** (p - 1.0)


# ---------------------------------------------------------------------------
# suite: diverging composed constant under the doubling map
# ---------------------------------------------------------------------------

def suite_prop41() -> SuiteResult:
    w = growth_weight()
    ks = list(range(1, 7))
    checks = []

    inside = all(_a_k(k - 1) < probe_interval(k)[0]
                 and probe_interval(k)[1] < _a_k(k) for k in ks)
    checks.append(Check(
        "interval-nesting",
        "T_k = (2c_k, 2c_k + 1/4) sits inside (a_{k-1}, a_k) for k = 1..6",
        inside, "all inclusions strict", inside, "trivial",
        {"k": ks}))

    w2 = compose_matrix(w, 2.0)
    masses = [w2.mass(*probe_interval(k)) for k in ks]
    target = 2.0 ** -0.5
    err = max(abs(m - target) for m in masses)
    checks.append(Check(
        "composed-mass",
        "integral of w(2x) over T_k equals 2^(-1/2) for k = 1..6",
        {"masses": masses, "max_abs_error": err},
        f"= {target!r} within 1e-10", err <= 1e-10, "closed-form",
        {"k": ks, "matrix": 2.0}))

    w_inv = w.powered(-1.0)
    inv_masses = [w_inv.mass(*probe_interval(k)) for k in ks]
    bounds = [0.25 * _c_k(k) ** 0.5 for k in ks]
    ok = all(m >= b for m, b in zip(inv_masses, bounds))
    checks.append(Check(
        "dual-mass-lower-bound",
        "integral of 1/w over T_k is at least |T_k| sqrt(c_k)",
        {"masses": inv_masses, "bounds": bounds},
        ">= |T_k| c_k^(1/2) for every k", ok, "closed-form",
        {"k": ks}))

    probes = [probe_interval(k) for k in ks]
    products = interval_products(w, ClassSpec("AAp", p=2.0, A=2.0), probes)
    slope = _fit_slope(ks, [math.log2(v) for v in products])
    controls = interval_products(w, ClassSpec("Ap", p=2.0), probes)
    control_slope = _fit_slope(ks, [math.log2(v) for v in controls])
    ok = abs(slope - 1.0) <= 0.1 and abs(control_slope) < 0.5
    checks.append(Check(
        "product-growth",
        "composed A_2 product on T_k doubles with k (log2 slope 1 +- 0.1); "
        "the identity-map control shows no such growth",
        {"products": products, "slope": slope,
         "identity_control_products": controls,
         "identity_control_slope": control_slope},
        "slope in [0.9, 1.1] and |control slope| < 0.5", ok, "derived",
        {"k": ks, "matrix": 2.0, "p": 2.0}))

    family = CubeFamily((0.0, _a_k(6)), levels=(0, 7), shifts=3)
    rep = class_constant(w, ClassSpec("Ap", p=2.0), family)
    checks.append(Check(
        "plain-class-finite",
        "plain A_2 constant stays finite on the cube family",
        {"value": rep.value, "cubes": family.count()},
        "finite (family max reported)", math.isfinite(rep.value), "derived",
        {"family_box": [0.0, _a_k(6)], "levels": [0, 7], "shifts": 3}))

    return SuiteResult("prop41", checks)


# ---------------------------------------------------------------------------
# suite: exponential measure, bounded composed constant
# ---------------------------------------------------------------------------

def suite_prop42(p: float = 2.0) -> SuiteResult:
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError("need a finite p > 1")
    w = exp_growth_weight(p)
    checks = []

    pairs = [(0.0, 1.0), (0.0, 5.0), (0.0, 25.0), (2.0, 1.0), (5.0, 0.5)]
    mu_errs, dual_errs = [], []
    one = constant_weight(1.0, -60.0, 60.0)
    dual = w.powered(-1.0 / (p - 1.0))
    for a, h in pairs:
        mu = one.mass(a, a + h, EXP_ABS)
        mu_ref = math.exp(a + h) * (-math.expm1(-h))
        mu_errs.append(abs(mu - mu_ref) / mu_ref)
        dm = dual.mass(a, a + h, EXP_ABS)
        dual_errs.append(abs(dm - h) / h)
    ok = max(mu_errs) <= 1e-10 and max(dual_errs) <= 1e-10
    checks.append(Check(
        "interval-masses",
        "measure of (a, a+h) equals e^(a+h)(1-e^(-h)) and the dual-weight "
        "mass equals h, both in the exponential measure",
        {"mu_rel_errors": mu_errs, "dual_rel_errors": dual_errs},
        "relative error <= 1e-10", ok, "closed-form",
        {"pairs": [list(t) for t in pairs], "p": p}))

    hs = [0.01, 0.1, 1.0, 5.0, 20.0]
    composed = ClassSpec("AAp", p=p, A=0.5, measure=EXP_ABS)
    prod_errs = []
    for h, prod in zip(hs, interval_products(w, composed,
                                             [(0.0, h) for h in hs])):
        ref = j_h(p, h)
        prod_errs.append(abs(prod - ref) / ref)
    ok = max(prod_errs) <= 1e-8
    checks.append(Check(
        "composed-product-closed-form",
        "composed product at a = 0 matches the J_h closed form",
        {"h": hs, "rel_errors": prod_errs},
        "relative error <= 1e-8", ok, "closed-form",
        {"p": p, "matrix": 0.5}))

    j_small = j_h(p, 0.001)
    j_large = j_h(p, 50.0)
    ok = 0.98 <= j_small <= 1.02 and j_large < 1e-3
    checks.append(Check(
        "limits",
        "J_h tends to 1 as h -> 0 and to 0 as h -> infinity",
        {"J(0.001)": j_small, "J(50)": j_large},
        "J(0.001) in [0.98, 1.02] and J(50) < 1e-3", ok, "closed-form",
        {"p": p}))

    mono_ok = True
    mono = []
    shifts = [(a, h) for h in (0.1, 1.0, 5.0) for a in (0.5, 2.0, 5.0)]
    for (a, h), prod in zip(shifts, interval_products(
            w, composed, [(a, a + h) for a, h in shifts])):
        mono.append({"a": a, "h": h, "product": prod, "J_h": j_h(p, h)})
        mono_ok = mono_ok and prod <= j_h(p, h) * (1.0 + 1e-8)
    checks.append(Check(
        "translation-monotonicity",
        "composed product at a > 0 never exceeds its a = 0 value",
        mono, "product(a) <= J_h (1 + 1e-8)", mono_ok, "derived",
        {"p": p}))

    plain_errs = []
    plain = ClassSpec("Ap", p=p, measure=EXP_ABS)
    *prods, shift = interval_products(
        w, plain, [(0.0, 1.0), (0.0, 10.0), (0.0, 25.0), (3.0, 3.0 + 10.0)])
    for h, prod in zip((1.0, 10.0, 25.0), prods):
        ref = ap_mu_closed_form(p, h)
        plain_errs.append(abs(prod - ref) / ref)
    shift_err = abs(shift - ap_mu_closed_form(p, 10.0)) / ap_mu_closed_form(p, 10.0)
    # divergence witness at the reference exponent 2: the plain product
    # crosses 10 by h = 25 while J_h has already collapsed
    w2 = exp_growth_weight(2.0)
    witness = ap_product(w2, (0.0, 25.0), 2.0, measure=EXP_ABS)
    ok = max(plain_errs) <= 1e-8 and shift_err <= 1e-8 and witness > 10.0
    checks.append(Check(
        "plain-product-diverges",
        "plain product matches its closed form, is translation invariant, "
        "and at exponent 2 exceeds 10 by h = 25 (J_h is below 1e-3 there)",
        {"rel_errors": plain_errs, "shift_rel_error": shift_err,
         "witness_p2_h25": witness},
        "errors <= 1e-8 and witness > 10", ok, "closed-form",
        {"p": p}))

    return SuiteResult("prop42", checks)


# ---------------------------------------------------------------------------
# suite: reflection breaks the plain class
# ---------------------------------------------------------------------------

def suite_prop43() -> SuiteResult:
    w = reflection_weight()
    wr = compose_matrix(w, -1.0)
    ks = list(range(1, 9))
    checks = []

    masses = [wr.mass(*reflection_interval(k)) for k in ks]
    err = max(abs(m - 1.0) for m in masses)
    checks.append(Check(
        "reflected-mass",
        "integral of w(-x) over J_k = (-k - 1/4, -k) equals 1 for k = 1..8",
        {"masses": masses, "max_abs_error": err},
        "= 1 within 1e-10", err <= 1e-10, "closed-form",
        {"k": ks}))

    w_inv = w.powered(-1.0)
    inv_masses = [w_inv.mass(*reflection_interval(k)) for k in ks]
    bounds = [0.25 * k ** 0.5 for k in ks]
    ok = all(m >= b for m, b in zip(inv_masses, bounds))
    checks.append(Check(
        "dual-mass-lower-bound",
        "integral of 1/w over J_k is at least sqrt(k) |J_k|",
        {"masses": inv_masses, "bounds": bounds},
        ">= k^(1/2) |J_k|", ok, "closed-form", {"k": ks}))

    probes = [reflection_interval(k) for k in ks]
    products = interval_products(w, ClassSpec("AAp", p=2.0, A=-1.0), probes)
    slope = _fit_slope([math.log(k) for k in ks],
                       [math.log(v) for v in products])
    controls = interval_products(w, ClassSpec("Ap", p=2.0), probes)
    control_slope = _fit_slope([math.log(k) for k in ks],
                               [math.log(v) for v in controls])
    ok = abs(slope - 0.5) <= 0.15 and abs(control_slope) < 0.15
    checks.append(Check(
        "product-growth",
        "reflected A_2 product on J_k grows like sqrt(k) (log-log slope "
        "0.5 +- 0.15); the identity-map control stays flat",
        {"products": products, "slope": slope,
         "identity_control_products": controls,
         "identity_control_slope": control_slope},
        "slope in [0.35, 0.65] and |control slope| < 0.15", ok, "derived",
        {"k": ks, "matrix": -1.0, "p": 2.0}))

    family = CubeFamily((-9.0, 9.0), levels=(0, 7), shifts=3)
    rep = class_constant(w, ClassSpec("Ap", p=2.0), family)
    checks.append(Check(
        "plain-class-finite",
        "plain A_2 constant stays finite on the cube family",
        {"value": rep.value, "cubes": family.count()},
        "finite (family max reported)", math.isfinite(rep.value), "derived",
        {"family_box": [-9.0, 9.0], "levels": [0, 7], "shifts": 3}))

    return SuiteResult("prop43", checks)


# ---------------------------------------------------------------------------
# suite: theorem probes
# ---------------------------------------------------------------------------

def _test_functions(n: int, count: int, seed: int = 2026) -> list:
    rng = np.random.default_rng(seed)
    xs = (np.arange(n) + 0.5) / n * 4.0 - 2.0
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            a, b = sorted(rng.uniform(-2.0, 2.0, size=2))
            vals = ((xs >= a) & (xs < b)).astype(float)
            if not vals.any():
                vals[n // 2] = 1.0
        elif kind == 1:
            c = rng.uniform(-1.5, 1.5)
            s = rng.uniform(0.05, 0.8)
            vals = np.exp(-((xs - c) / s) ** 2)
        elif kind == 2:
            vals = rng.random(n) ** 2
        else:
            vals = rng.random(n) * 0.1
            j = rng.integers(0, n - 8)
            vals[j:j + 8] = rng.uniform(5.0, 50.0)
        out.append(GridFunction((-2.0, 2.0), vals))
    return out


_CHAIN_WEIGHTS = {
    "constant": lambda: constant_weight(1.0, -40.0, 40.0),
    "sqrt-growth": lambda: power_weight(0.5, -40.0, 40.0),
    "quarter-root-decay": lambda: power_weight(-0.25, -40.0, 40.0),
}


def _chain_corpus_function(n: int = 256) -> GridFunction:
    rng = np.random.default_rng(11)
    vals = rng.random(n) ** 2 * 3.0
    vals[n // 6: n // 6 + max(4, n // 24)] = 40.0
    return GridFunction((-1.0, 1.0), vals)


def suite_theorems() -> SuiteResult:
    checks = []
    phi = YoungFn.power(3.0)
    f = _chain_corpus_function()
    lams = (0.5, -0.5, 2.0, -2.0)

    # one batch per chain: every case shares f, so the f-only half of the
    # chain is built once per batch
    weights = {wname: mk() for wname, mk in _CHAIN_WEIGHTS.items()}
    cases = [(wname, lam, p) for wname in weights for lam in lams
             for p in (1.5, 2.0)]
    reports = theorem_chain_checks(
        f, [(weights[wname], lam, p) for wname, lam, p in cases], phi)
    worst = math.inf
    details = []
    for (wname, lam, p), rep in zip(cases, reports):
        if not rep.applicable:
            details.append({"weight": wname, "matrix": lam, "p": p,
                            "status": "not-applicable",
                            "reason": rep.reason})
            worst = -math.inf
            continue
        worst = min(worst, rep.min_rel_slack)
    runs = len(reports)
    checks.append(Check(
        "chain-slacks",
        "every step of the proof chain holds on the in-class corpus "
        "(weights x scalings x exponents)",
        {"runs": runs, "worst_rel_slack": worst, "not_applicable": details},
        "worst relative slack >= -1e-6", worst >= -1e-6, "derived",
        {"weights": list(_CHAIN_WEIGHTS), "matrices": list(lams),
         "p": [1.5, 2.0], "n": f.shape[0]}))

    reports = theorem_chain_checks(
        f, [(w, lam, 2.0) for w in weights.values() for lam in lams], phi,
        alpha=0.25)
    worst_f = min([math.inf] + [rep.min_rel_slack if rep.applicable
                                else -math.inf for rep in reports])
    runs_f = len(reports)
    checks.append(Check(
        "chain-slacks-fractional",
        "the fractional chain (p, q) = (2, 4), alpha = 1/4 holds on the "
        "same corpus",
        {"runs": runs_f, "worst_rel_slack": worst_f},
        "worst relative slack >= -1e-6", worst_f >= -1e-6, "derived",
        {"alpha": 0.25, "p": 2.0, "q": 4.0}))

    fam = CubeFamily((-8.0, 8.0), levels=(0, 7), shifts=2)
    rh = rh_inclusion_check(power_weight(0.5, -40.0, 40.0), 2.0, 2.0, 0.25, fam)
    ok = rh["applicable"] and rh["max_percube_defect"] <= 1e-9 \
        and rh["family_slack"] >= -1e-12
    checks.append(Check(
        "self-improvement-identity",
        "lowering the exponent by eps matches the reverse-Holder factor of "
        "the dual weight on every cube",
        {"cubes": rh["cubes_checked"], "max_percube_defect":
         rh["max_percube_defect"], "family_slack": rh["family_slack"],
         "s": rh["s"]},
        "per-cube defect <= 1e-9 on >= 200 cubes", ok and
        rh["cubes_checked"] >= 200, "derived",
        {"weight": "sqrt-growth", "matrix": 2.0, "p": 2.0, "eps": 0.25}))

    fam2 = CubeFamily((-8.0, 8.0), levels=(0, 5), shifts=2)
    even = finite_order_reduction(power_weight(0.5, -40.0, 40.0),
                                  SquareMatrix.scalar(-1.0), 2.0, fam2)
    no_order = finite_order_reduction(power_weight(0.5, -40.0, 40.0),
                                      SquareMatrix.scalar(2.0), 2.0, fam2)
    ok = even["applicable"] and even["consistent"] \
        and abs(even["aap_value"] - even["ap_value"]) <= 1e-9 * even["ap_value"] \
        and not no_order["applicable"]
    checks.append(Check(
        "finite-order-reduction",
        "for the order-2 reflection on an even weight the composed and plain "
        "constants agree; the doubling map has no finite order and is "
        "reported not applicable",
        {"reflection": {"aap": even["aap_value"], "ap": even["ap_value"],
                        "ratio_bound": even["ratio_bound"],
                        "consistent": even["consistent"]},
         "doubling": {"applicable": no_order["applicable"],
                      "order": no_order["order"]}},
        "constants equal and inapplicability reported", ok, "derived",
        {"p": 2.0}))

    wref = reflection_weight()
    famneg = CubeFamily((-8.5, -0.5), levels=(0, 5), shifts=2)
    sep = finite_order_reduction(wref, SquareMatrix.scalar(-1.0), 2.0, famneg)
    ok = sep["applicable"] and sep["consistent"] \
        and sep["aap_value"] >= 2.0 * sep["ap_value"]
    checks.append(Check(
        "reflection-separation",
        "on the integer-singularity weight the reflected constant exceeds "
        "the plain constant by a factor >= 2 on the family",
        {"aap": sep["aap_value"], "ap": sep["ap_value"],
         "ratio_bound": sep["ratio_bound"]},
        "composed >= 2 x plain", ok, "derived",
        {"family_box": [-8.5, -0.5], "p": 2.0}))

    # ||Mf(. / mu)||_{L^p(w)} / ||f||_{L^p(w)}, mu = 1 / lam, via the
    # substitution x = mu y, so both integrals live on the input grid: w
    # and w(mu .) sampled there weight the stacks of f^p and (M f)^p, one
    # C-contiguous row per probe function, whose row sums add as each row
    # alone
    fs = _test_functions(512, 50)
    Ms = hl_maximals(fs)       # one stacked every-length sweep
    box, n = (fs[0].lo[0], fs[0].hi[0]), fs[0].shape[0]   # shared by all
    p = 2.0
    f_p = np.stack([g.values for g in fs]) ** p
    M_p = np.stack([M.values for M in Ms]) ** p
    max_ratio = 0.0
    for mk in _CHAIN_WEIGHTS.values():
        w = mk()
        dens = (f_p * sample_to_grid(w, box, n).values).sum(axis=1).tolist()
        for lam in (2.0, -0.5):
            mu = 1.0 / lam
            wa = sample_to_grid(w.scaled_argument(mu), box, n).values
            nums = (M_p * wa).sum(axis=1).tolist()
            for num, den in zip(nums, dens):
                max_ratio = max(max_ratio, (abs(mu) * num / den) ** (1.0 / p))
    checks.append(Check(
        "norm-ratio-bounded",
        "weighted norm ratio of the composed maximal operator stays under "
        "the empirical cap on the in-class corpus",
        {"max_ratio": max_ratio, "functions": len(fs)},
        "max ratio <= 64", max_ratio <= 64.0, "derived",
        {"weights": list(_CHAIN_WEIGHTS), "p": 2.0,
         "inverse_scalings": [2.0, -0.5]}))

    wg = growth_weight()
    wg_inv = wg.powered(-1.0)
    qs = []
    ks = list(range(1, 7))
    for k in ks:
        m_k = wg_inv.mass(*probe_interval(k))
        lam_k = 4.0 * m_k * (1.0 - 1e-9)
        lo, hi = probe_interval(k)
        mass_image = wg.mass(2.0 * lo, 2.0 * hi)
        qs.append(lam_k ** 2 * mass_image / m_k)
    slope = _fit_slope(ks, [math.log(q) for q in qs]) / math.log(2.0)
    ok = 0.8 <= slope <= 1.2
    checks.append(Check(
        "weak-type-divergence",
        "lower bounds for the weak-type quotient along the adapted test "
        "functions 1/w on T_k grow geometrically (empirical probe: the "
        "level lambda_k is the known extremal choice, not a full supremum)",
        {"lower_bounds": qs, "slope_over_log2": slope},
        "slope/log(2) in [0.8, 1.2]", ok, "derived",
        {"k": ks, "matrix": 2.0, "p": 2.0}))

    checks.append(Check(
        "self-improvement-exp-measure",
        "the exponent-lowering identity is only defined for the length "
        "measure; requesting it in the exponential measure is reported "
        "here instead of silently skipped",
        "not-applicable", "explicit not-applicable entry", True,
        "trivial", {"measure": "exp"}))

    return SuiteResult("theorems", checks)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

_SUITES = {
    "prop41": suite_prop41,
    "prop42": suite_prop42,
    "prop43": suite_prop43,
    "theorems": suite_theorems,
}


def run_suites(names, p: float = 2.0) -> list:
    """Run the named suites in order and return their SuiteResults."""
    names = list(names)
    for nm in names:
        if nm not in _SUITES:
            raise ValueError(f"unknown suite {nm!r}")
    return [suite_prop42(p) if nm == "prop42" else _SUITES[nm]()
            for nm in names]
