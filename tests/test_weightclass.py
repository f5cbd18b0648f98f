"""Weight-class constants: per-cube products, family sweeps, probes.

Numeric oracles: scipy quadrature for analytic averages, plain numpy means
for the grid evaluator, and algebraic identities (duality, the q = p bridge)
that hold exactly per cube.
"""

import hashlib
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from weightlab.funcspace import (
    Cube,
    CubeFamily,
    DomainError,
    EXP_ABS,
    GridFunction,
    LEBESGUE,
    SegmentWeight1D,
    Segment,
    SquareMatrix,
    constant_weight,
    power_weight,
    sample_to_grid,
)
from weightlab.weightclass import (
    ClassSpec,
    ap_product,
    aap_product,
    class_constant,
    finite_order_reduction,
    interval_products,
    rh_inclusion_check,
    rh_ratio,
    subset_mass_ratio_check,
)
from weightlab.young import YoungFn, luxemburg_norm_of_values

# three reports of this corpus (Ap_mu at p = 1.5, frac and frac_bump of
# 3|x|^(1/2) on the family (0.5, 8.5)) are finite: their dual powers are
# not integrable at 0 only, outside every cube of the family; see
# test_off_singularity_family_constants_closed_form
FROZEN_ROWS_SHA = (
    "d201c70762360a8fa6bb7ecb2d695761d101e740f5d4f393a3372446df1c3a46")
POWER_PHI_BUMP_SHA = (
    "551370872036edaec2b8fe50b65b6d0642bcf4dd623c1348b98c29e4c6be7fe6")


# ---------------------------------------------------------------------------
# per-cube products
# ---------------------------------------------------------------------------

def test_ap_product_sqrt_weight_frozen():
    w = power_weight(0.5, -4.0, 4.0)
    # avg of x^{1/2} on (0,1) is 2/3, avg of x^{-1/2} is 2: product 4/3
    assert ap_product(w, (0.0, 1.0), 2.0) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_ap_product_vs_quadrature():
    w = power_weight(-0.25, -8.0, 8.0, a=1.0, c=2.0)
    p = 2.5
    a, b = 2.0, 5.0
    m1, _ = quad(lambda x: 2.0 * abs(x - 1.0) ** -0.25, a, b)
    m2, _ = quad(lambda x: (2.0 * abs(x - 1.0) ** -0.25) ** (-1.0 / (p - 1.0)),
                 a, b)
    ref = (m1 / (b - a)) * (m2 / (b - a)) ** (p - 1.0)
    assert ap_product(w, (a, b), p) == pytest.approx(ref, rel=1e-9)


def test_ap_product_constant_weight_is_one():
    w = constant_weight(3.0, -2.0, 2.0)
    for p in (1.5, 2.0, 4.0):
        assert ap_product(w, (-1.0, 1.0), p) == pytest.approx(1.0, rel=1e-14)


def test_ap_product_infinite_with_nonintegrable_dual():
    w = power_weight(1.0, -2.0, 2.0)      # |x|: dual |x|^{-1} at p = 2
    assert ap_product(w, (-1.0, 1.0), 2.0) == math.inf


@pytest.mark.parametrize("gamma, p, a, b, want", [
    # |x| at p = 2: dual |x|^-1, (a+b)/2 * ln(b/a)/(b-a)
    (1.0, 2.0, 1.0, 2.0, 1.5 * math.log(2.0)),
    (1.0, 2.0, -3.0, -1.0, 2.0 * math.log(3.0) / 2.0),
    # |x| at p = 1.5: dual |x|^-2, (a+b)/2 * (1/(a b))^(1/2)
    (1.0, 1.5, 1.0, 2.0, 1.5 * math.sqrt(0.5)),
    # |x|^2 at p = 2: dual |x|^-2, (a^2+ab+b^2)/3 / (a b)
    (2.0, 2.0, 2.0, 5.0, (4.0 + 10.0 + 25.0) / 3.0 / 10.0),
])
def test_ap_product_off_the_singularity_closed_form(gamma, p, a, b, want):
    """A cube away from the singular point of a non-integrable dual power
    has a finite product, in closed form; one that meets it is infinite."""
    w = power_weight(gamma, -16.0, 16.0)
    assert ap_product(w, (a, b), p) == pytest.approx(want, rel=1e-13)
    assert ap_product(w, (0.0, 1.0), p) == math.inf
    assert ap_product(w, (-1.0, 3.0), p) == math.inf


def test_class_constant_off_the_singularity_closed_form():
    """Ap at p = 2 of |x| on the family (0.5, 8.5), which stays off 0: the
    max of (a+b)/2 ln(b/a)/(b-a), at the widest cube, [0.5, 8.5]."""
    fam = CubeFamily((0.5, 8.5), levels=(0, 3), shifts=2)
    rep = class_constant(power_weight(1.0, -16.0, 16.0), ClassSpec("Ap", p=2.0),
                         fam)
    closed = {(Q.corner[0], Q.side): (2 * Q.corner[0] + Q.side) / 2.0
              * math.log((Q.corner[0] + Q.side) / Q.corner[0]) / Q.side
              for Q in fam.cubes()}
    assert rep.finite and rep.argmax == Cube((0.5,), 8.0)
    assert rep.value == pytest.approx(max(closed.values()), rel=1e-13)
    assert rep.value == pytest.approx(4.5 * math.log(17.0) / 8.0, rel=1e-13)


def test_off_singularity_family_constants_closed_form():
    """3|x|^(1/2) on the family (0.5, 8.5): the dual powers |x|^-1 are not
    integrable at 0 only, so Ap_mu at p = 1.5 and frac / frac_bump at
    p = 2, q = 4, A = 2 are finite maxima of their closed forms."""
    fam = CubeFamily((0.5, 8.5), levels=(0, 3), shifts=2)
    w = power_weight(0.5, -16.0, 16.0, c=3.0)
    A = SquareMatrix.scalar(2.0)

    def dual(a, b):         # (avg of w^-2 = |x|^-1 / 9)^(1/2)
        return math.sqrt(math.log(b / a) / 9.0 / (b - a))

    def ap_mu(a, b):        # avg w times dual
        return 2.0 * (b ** 1.5 - a ** 1.5) / (b - a) * dual(a, b)

    def frac(a, b):         # (avg w(2x)^4)^(1/4), w(2x) = 0 past x = 8
        lead = 324.0 * (min(b, 8.0) ** 3 - a ** 3) / 3.0 / (b - a)
        return lead ** 0.25 * dual(a, b)

    cubes = [(Q.corner[0], Q.corner[0] + Q.side) for Q in fam.cubes()]
    for spec, closed in ((ClassSpec("Ap_mu", p=1.5), ap_mu),
                         (ClassSpec("frac", p=2.0, q=4.0, A=A), frac),
                         (ClassSpec("frac_bump", p=2.0, q=4.0, A=A,
                                    phi=YoungFn.power(2.0)), frac)):
        rep = class_constant(w, spec, fam)
        assert rep.finite, spec.kind
        assert rep.value == pytest.approx(
            max(closed(a, b) for a, b in cubes), rel=1e-12), spec.kind


def test_aap_product_identity_matrix_reduces_to_ap():
    w = power_weight(0.5, -8.0, 8.0)
    for Q in ((0.0, 1.0), (1.0, 3.0), (-2.0, 2.0)):
        assert aap_product(w, 1.0, Q, 2.0) == pytest.approx(
            ap_product(w, Q, 2.0), rel=1e-14)


def test_aap_product_vs_quadrature_with_scaling():
    w = power_weight(0.5, -16.0, 16.0)
    lam, p = 2.0, 2.0
    a, b = 1.0, 3.0
    m1, _ = quad(lambda x: abs(lam * x) ** 0.5, a, b)
    m2, _ = quad(lambda x: abs(x) ** -0.5, a, b)
    ref = (m1 / (b - a)) * (m2 / (b - a)) ** (p - 1.0)
    assert aap_product(w, lam, (a, b), p) == pytest.approx(ref, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.floats(-0.45, 0.45), st.floats(1.3, 4.0),
       st.floats(0.25, 2.0), st.floats(0.5, 3.0))
def test_duality_identity_power_weights(gamma, p, qa, qlen):
    """The dual weight's constant at the conjugate exponent per cube:
    ap(sigma, p', Q) = ap(w, p, Q)^{p'-1} with sigma = w^{-1/(p-1)}."""
    assume(abs(gamma) / (p - 1.0) < 0.95)   # keep the dual integrable
    w = power_weight(gamma, -16.0, 16.0)
    pp = p / (p - 1.0)
    sigma = w.powered(-1.0 / (p - 1.0))
    Q = (qa, qa + qlen)
    lhs = ap_product(sigma, Q, pp)
    rhs = ap_product(w, Q, p) ** (pp - 1.0)
    if math.isfinite(lhs) and math.isfinite(rhs):
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_fractional_equal_exponents_bridge():
    """frac with q = p matches the composed product of w^p, taken to 1/p."""
    w = power_weight(0.25, -16.0, 16.0)
    A = SquareMatrix.scalar(2.0)
    p = 2.0
    spec_frac = ClassSpec("frac", p=p, q=p, A=A)
    fam = CubeFamily((0.5, 8.5), levels=(0, 3), shifts=2)
    wp = w.powered(p)
    for Q in fam.cubes():
        frac_eval = class_constant(w, spec_frac, CubeFamily(
            (Q.corner[0], Q.corner[0] + Q.side), levels=(0, 0))).value
        aap_val = aap_product(wp, A, Q, p)
        assert frac_eval == pytest.approx(aap_val ** (1.0 / p), rel=1e-9)


def test_rh_ratio_constant_weight_is_one():
    w = constant_weight(5.0, 0.0, 4.0)
    assert rh_ratio(w, (1.0, 2.0), 2.0) == pytest.approx(1.0, rel=1e-14)


def test_rh_ratio_at_least_one():
    # power-mean inequality: the s-mean dominates the 1-mean
    w = power_weight(0.5, -4.0, 4.0)
    for s in (1.5, 2.0, 3.0):
        for Q in ((0.0, 1.0), (0.5, 2.5)):
            assert rh_ratio(w, Q, s) >= 1.0 - 1e-12


def test_exp_measure_product_closed_form():
    # w = e^{(p-1)|x|} under d(mu) = e^{|x|}dx on (0,h): both averages are
    # ratios of exponential masses; cross-check against quadrature
    p, h = 2.0, 3.0
    w = SegmentWeight1D([Segment(-40.0, 0.0, "exp", s=-(p - 1.0)),
                         Segment(0.0, 40.0, "exp", s=p - 1.0)])
    got = ap_product(w, (0.0, h), p, EXP_ABS)
    num1, _ = quad(lambda x: math.exp((p - 1.0) * x) * math.exp(x), 0.0, h)
    num2, _ = quad(lambda x: math.exp(-x) * math.exp(x), 0.0, h)
    den, _ = quad(lambda x: math.exp(x), 0.0, h)
    ref = (num1 / den) * (num2 / den) ** (p - 1.0)
    assert got == pytest.approx(ref, rel=1e-10)


def test_interval_products_are_the_one_interval_products(monkeypatch):
    """A list of intervals takes one ``_analytic_terms`` call, so the weight
    is composed once, and each product has the bits of its interval alone:
    the probe lists of the suites, Cube intervals and an infinite product
    among finite ones."""
    import weightlab.weightclass as wc
    from weightlab.suites import (exp_growth_weight, growth_weight,
                                  probe_interval, reflection_interval,
                                  reflection_weight)
    shifts = [(a, a + h) for h in (0.1, 1.0, 5.0) for a in (0.5, 2.0, 5.0)]
    cases = [
        (growth_weight(), [probe_interval(k) for k in range(1, 7)],
         [ClassSpec("AAp", p=2.0, A=2.0), ClassSpec("Ap", p=2.0)]),
        (reflection_weight(), [reflection_interval(k) for k in range(1, 9)],
         [ClassSpec("AAp", p=2.0, A=-1.0), ClassSpec("Ap", p=2.0)]),
        (exp_growth_weight(2.0), [(0.0, 0.01), (0.0, 20.0)] + shifts,
         [ClassSpec("AAp", p=2.0, A=0.5, measure=EXP_ABS),
          ClassSpec("Ap", p=2.0, measure=EXP_ABS),
          ClassSpec("RH", s=3.0, measure=EXP_ABS)]),
        (power_weight(1.5, -4.0, 4.0),
         [(0.5, 2.0), (-1.0, 1.0), Cube((1.0,), 0.5)],
         [ClassSpec("Ap", p=2.0), ClassSpec("AAp", p=2.0, A=-2.0),
          ClassSpec("RH", s=2.0)]),
    ]
    calls = []
    real = wc._analytic_terms

    def counted(w, spec):
        calls.append(spec.kind)
        return real(w, spec)

    for w, intervals, specs in cases:
        for spec in specs:
            one = [interval_products(w, spec, [Q]) for Q in intervals]
            monkeypatch.setattr(wc, "_analytic_terms", counted)
            got = interval_products(w, spec, intervals)
            monkeypatch.setattr(wc, "_analytic_terms", real)
            assert calls == [spec.kind]
            calls.clear()
            assert [v.hex() for v in got] == [v.hex() for [v] in one], spec
    assert math.isinf(interval_products(
        power_weight(1.5, -4.0, 4.0), ClassSpec("Ap", p=2.0),
        [(0.5, 2.0), (-1.0, 1.0)])[1])
    assert interval_products(growth_weight(), ClassSpec("Ap", p=2.0),
                             []) == []


def test_interval_products_raise_the_first_failing_interval():
    # e^x on [0, 1000]: the first interval whose mass overflows raises the
    # error of its one-interval product
    w = SegmentWeight1D([Segment(0.0, 1000.0, "exp", s=1.0)])
    with pytest.raises(ValueError, match=r"^the mass over \[600.0, 800.0\]"):
        interval_products(w, ClassSpec("Ap", p=2.0),
                          [(0.0, 1.0), (600.0, 800.0), (700.0, 900.0)])
    with pytest.raises(ValueError, match=r"^the mass over \[600.0, 800.0\]"):
        ap_product(w, (600.0, 800.0), 2.0)


# ---------------------------------------------------------------------------
# ClassSpec validation
# ---------------------------------------------------------------------------

def test_spec_validation_errors():
    assert ClassSpec("Ap").measure == LEBESGUE
    with pytest.raises(ValueError):
        ClassSpec("nope")
    with pytest.raises(ValueError):
        ClassSpec("AA1")                      # needs a matrix
    with pytest.raises(ValueError):
        ClassSpec("RH", s=1.0)
    with pytest.raises(ValueError):
        ClassSpec("Ap", p=1.0)
    with pytest.raises(ValueError):
        ClassSpec("frac", p=2.0, q=1.5, A=SquareMatrix.scalar(2.0))
    with pytest.raises(ValueError):
        ClassSpec("bump", p=2.0, A=SquareMatrix.scalar(2.0))  # needs phi


@pytest.mark.parametrize("kind, params", [
    ("bump", dict(p=2.0, phi=YoungFn.power(3.0))),
    ("frac_bump", dict(p=2.0, q=3.0, phi=YoungFn.power(3.0))),
    ("AA1", dict()),
])
def test_spec_rejects_a_measure_its_kind_ignores(kind, params):
    # the bump norms and the AA1 field are Lebesgue quantities: under
    # e^|x| they would mix a mu-average with a Lebesgue norm, or ignore mu
    A = SquareMatrix.scalar(-1.0)
    assert ClassSpec(kind, A=A, **params).measure == LEBESGUE
    with pytest.raises(ValueError,
                       match=f"^{kind} supports the Lebesgue measure only$"):
        ClassSpec(kind, A=A, measure=EXP_ABS, **params)


def test_fractional_spec_q_from_alpha():
    # 1/q = 1/p - alpha/n: p = 2 and alpha = 1/4 in 1D give q = 4; alpha =
    # 0.6 gives 1/q < 0, and the spec refuses the negative q
    A = SquareMatrix.scalar(2.0)
    assert ClassSpec("frac", p=2.0, q=1.0 / (1.0 / 2.0 - 0.25), A=A).q == 4.0
    with pytest.raises(ValueError, match="q >= p"):
        ClassSpec("frac", p=2.0, q=1.0 / (1.0 / 2.0 - 0.6), A=A)


# ---------------------------------------------------------------------------
# family sweeps
# ---------------------------------------------------------------------------

def test_class_constant_picks_argmax():
    w = power_weight(0.5, -8.0, 8.0)
    fam = CubeFamily((0.0, 8.0), levels=(0, 3), shifts=1)
    rep = class_constant(w, ClassSpec("Ap", p=2.0), fam)
    assert rep.finite
    vals = [ap_product(w, Q, 2.0) for Q in fam.cubes()]
    assert rep.value == pytest.approx(max(vals), rel=1e-14)
    assert rep.argmax is not None
    # cubes nearest the degeneracy of the weight carry the largest product
    assert rep.argmax.corner[0] == 0.0


def test_class_constant_monotone_in_family():
    w = power_weight(-0.25, -16.0, 16.0)
    small = CubeFamily((0.0, 8.0), levels=(0, 2), shifts=1)
    large = CubeFamily((0.0, 8.0), levels=(0, 4), shifts=2)
    spec = ClassSpec("Ap", p=2.0)
    assert class_constant(w, spec, small).value <= \
        class_constant(w, spec, large).value + 1e-12


def test_class_constant_infinite_carries_witness():
    w = power_weight(1.0, -8.0, 8.0)
    fam = CubeFamily((-4.0, 4.0), levels=(0, 2), shifts=1)
    rep = class_constant(w, ClassSpec("Ap", p=2.0), fam)
    assert rep.value == math.inf and not rep.finite
    assert rep.witness and "non-integrable" in rep.witness


def test_class_constant_trace_rows():
    w = power_weight(0.5, -8.0, 8.0)
    fam = CubeFamily((1.0, 5.0), levels=(0, 1), shifts=1)
    rep = class_constant(w, ClassSpec("Ap", p=2.0), fam, trace=True)
    assert len(rep.trace) == fam.count()
    d = rep.to_json_dict()
    assert d["kind"] == "Ap" and len(d["trace"]) == fam.count()


def test_grid_evaluator_matches_numpy_brute():
    rng = np.random.default_rng(23)
    vals = rng.random(16) + 0.25
    g = GridFunction((-1.0, 1.0), vals)
    fam = CubeFamily((-1.0, 1.0), levels=(0, 2), shifts=1)
    p = 2.0
    A = SquareMatrix.scalar(-1.0)

    def spans():
        for side in (16, 8, 4):
            for s in range(0, 16, side):
                yield slice(s, s + side)

    # Ap
    rep = class_constant(g, ClassSpec("Ap", p=p), fam)
    ref = max(np.mean(vals[sl]) * np.mean(vals[sl] ** (-1.0)) for sl in spans())
    assert rep.value == pytest.approx(ref, rel=1e-13)
    # AAp with reflection: centers map cell i to cell n-1-i exactly
    rep = class_constant(g, ClassSpec("AAp", p=p, A=A), fam)
    rev = vals[::-1]
    ref = max(np.mean(rev[sl]) * np.mean(vals[sl] ** (-1.0)) for sl in spans())
    assert rep.value == pytest.approx(ref, rel=1e-13)
    # RH
    rep = class_constant(g, ClassSpec("RH", s=2.0), fam)
    ref = max(np.sqrt(np.mean(vals[sl] ** 2)) / np.mean(vals[sl])
              for sl in spans())
    assert rep.value == pytest.approx(ref, rel=1e-13)
    # bump with a power Young function
    phi = YoungFn.power(2.0)
    rep = class_constant(g, ClassSpec("bump", p=p, A=A, phi=phi), fam)
    ref = max(np.mean(rev[sl]) ** (1.0 / p)
              * np.sqrt(np.mean(vals[sl] ** (-2.0 / p))) for sl in spans())
    assert rep.value == pytest.approx(ref, rel=1e-13)


_KIND_SPECS = {
    "Ap": dict(p=2.0), "Ap_mu": dict(p=1.5), "AAp": dict(p=2.0),
    "RH": dict(s=3.0), "bump": dict(p=2.0, phi=YoungFn.power(2.0)),
    "frac": dict(p=2.0, q=4.0),
    "frac_bump": dict(p=2.0, q=4.0, phi=YoungFn.power_log(1.5, 1.0))}


def _one_cube(Q, dim):
    """The one-cube family {Q}; Q's corner and side are dyadic, so the
    family's cube is Q itself."""
    lo = Q.corner
    hi = tuple(c + Q.side for c in lo)
    assert all(h - c == Q.side for c, h in zip(lo, hi))
    return CubeFamily((lo, hi) if dim > 1 else (lo[0], hi[0]), levels=(0, 0))


@pytest.mark.parametrize("kind", list(_KIND_SPECS))
@pytest.mark.parametrize("weight", ["analytic", "grid", "grid-2d"])
def test_trace_rows_are_the_one_cube_products(kind, weight):
    """A lattice at a time, every trace row has the bits of the product of
    its cube alone."""
    if weight == "analytic":
        w = power_weight(0.5, -16.0, 16.0, c=3.0)
        fam, dim = CubeFamily((0.5, 8.5), levels=(0, 3), shifts=2), 1
    elif weight == "grid":
        rng = np.random.default_rng(41)
        w = GridFunction((-1.0, 1.0), rng.random(16) + 0.25)
        fam, dim = CubeFamily((-1.0, 1.0), levels=(0, 2), shifts=2), 1
    else:
        rng = np.random.default_rng(43)
        w = GridFunction(((-1.0, -1.0), (1.0, 1.0)), rng.random((8, 8)) + 0.25)
        fam = CubeFamily(((-1.0, -1.0), (1.0, 1.0)), levels=(0, 2), shifts=2)
        dim = 2
    A = SquareMatrix.scalar(-1.0 if weight != "analytic" else 2.0, dim)
    spec = ClassSpec(kind, A=A if kind not in ("Ap", "Ap_mu", "RH") else None,
                     **_KIND_SPECS[kind])
    rep = class_constant(w, spec, fam, trace=True)
    assert rep.finite and len(rep.trace) == fam.count()
    for Q, value in rep.trace:
        one = class_constant(w, spec, _one_cube(Q, dim)).value
        assert value.hex() == one.hex(), (kind, Q)
        if weight == "analytic" and kind in ("Ap", "AAp", "RH"):
            a, b = Q.corner[0], Q.corner[0] + Q.side
            direct = {"Ap": lambda: ap_product(w, (a, b), 2.0),
                      "AAp": lambda: aap_product(w, A, (a, b), 2.0),
                      "RH": lambda: rh_ratio(w, (a, b), 3.0)}[kind]()
            assert value.hex() == direct.hex()


def test_grid_2d_products_match_the_per_cube_sums():
    """On a 2D grid each cube's terms are fsum averages and row norms of
    its own cells, bit for bit."""
    rng = np.random.default_rng(47)
    w = GridFunction(((-1.0, -1.0), (1.0, 1.0)), rng.random((8, 8)) + 0.25)
    fam = CubeFamily(((-1.0, -1.0), (1.0, 1.0)), levels=(0, 2), shifts=2)
    phi = YoungFn.power(2.0)
    ap = class_constant(w, ClassSpec("Ap", p=2.0), fam, trace=True)
    R = SquareMatrix.scalar(-1.0, 2)
    bump = class_constant(w, ClassSpec("bump", p=2.0, A=R, phi=phi), fam,
                          trace=True)
    flipped = w.values[::-1, ::-1]
    inverse = GridFunction((w.lo, w.hi), w.values ** -1.0)
    for (Q, ap_value), (_, bump_value) in zip(ap.trace, bump.trace):
        span = w.span_of_cube(Q)
        cells = tuple(slice(*s) for s in span)
        want = w.cube_average(span) * inverse.cube_average(span) ** 1.0
        assert ap_value.hex() == want.hex(), Q
        lead = GridFunction((w.lo, w.hi), flipped).cube_average(span)
        norm = luxemburg_norm_of_values(w.values[cells] ** -0.5, phi)
        assert bump_value.hex() == (lead ** 0.5 * norm).hex(), Q


def test_first_infinite_row_keeps_its_witness_past_a_later_overflow():
    # one lattice: [-1000, 0] is not covered, an infinite dual average,
    # and the mass of e^x over [0, 1000] leaves the float range; the
    # report stops at the first cube, as a cube-by-cube sweep does
    w = SegmentWeight1D([Segment(0.0, 1000.0, "exp", s=1.0)])
    fam = CubeFamily((-1000.0, 1000.0), levels=(1, 1))
    rep = class_constant(w, ClassSpec("Ap", p=2.0), fam, trace=True)
    assert rep.value == math.inf and rep.argmax == Cube((-1000.0,), 1000.0)
    assert rep.witness == "w vanishes on part of [-1000, 0] and e=-1 < 0"
    assert len(rep.trace) == 1
    # a grid: w vanishes, so the norm factor is infinite in the first
    # cube, and the second cube's sum of w(-x) leaves the float range
    g = GridFunction((-2.0, 2.0), [1e308, 1e308, 0.0, 1.0])
    spec = ClassSpec("bump", p=2.0, A=SquareMatrix.scalar(-1.0),
                     phi=YoungFn.power(2.0))
    rep = class_constant(g, spec, CubeFamily((-2.0, 2.0), levels=(1, 1)))
    assert rep.value == math.inf and rep.argmax == Cube((-2.0,), 2.0)
    assert rep.witness == "w vanishes at cell (2,)"
    # a Young function that bisects: the analytic norm column of the
    # lattice holds the first cube's witness ahead of the second cube's
    # overflowing norm mass, and the grid one the vanishing witness ahead
    # of the overflowing lead average
    w, spec = _overflowing_dual_norm()
    rep = class_constant(w, spec, CubeFamily((-1e12, 1e12), levels=(1, 1)),
                         trace=True)
    assert rep.value == math.inf and rep.argmax == Cube((-1e12,), 1e12)
    assert rep.witness == ("w vanishes on part of [-1e+12, 0] and "
                           "e=-0.990099 < 0")
    assert len(rep.trace) == 1
    spec = ClassSpec("bump", p=2.0, A=SquareMatrix.scalar(-1.0),
                     phi=YoungFn.power_log(1.5, 1.0))
    rep = class_constant(g, spec, CubeFamily((-2.0, 2.0), levels=(1, 1)))
    assert rep.value == math.inf and rep.argmax == Cube((-2.0,), 2.0)
    assert rep.witness == "w vanishes at cell (2,)"


_FAMILY_KINDS = {
    "Ap": dict(p=2.0), "Ap_mu": dict(p=1.5), "AAp": dict(p=2.0, A=2.0),
    "RH": dict(s=3.0), "frac": dict(p=2.0, q=3.0, A=-1.0),
    "bump": dict(p=2.0, A=2.0, phi=YoungFn.power(2.0)),
    "frac_bump": dict(p=2.0, q=3.0, A=0.5, phi=YoungFn.power_log(1.5, 1.0)),
}


def _product_rows(products):
    """The (corner, side, product as hex, witness) rows of a scalar
    product stream up to an error, and that error's type and message."""
    rows = []
    try:
        for corner, side, value, witness in products:
            rows.append((corner, side, value.hex(), witness))
    except (ValueError, OverflowError) as err:
        return rows, (type(err), str(err))
    return rows, None


def _column_rows(blocks):
    """The rows of ``_product_rows`` from the column path's blocks."""
    rows = []
    for corners, sides, values, why, error in blocks:
        end = len(values) if error is None else error[0]
        rows += [(tuple(c), s, v.hex(), why.get(k)) for k, (c, s, v) in
                 enumerate(zip(corners[:end].tolist(), sides[:end].tolist(),
                               values[:end].tolist()))]
        if error is not None:
            return rows, (type(error[1]), str(error[1]))
    return rows, None


@pytest.mark.parametrize("kind, measure", [
    *((kind, "lebesgue") for kind in _FAMILY_KINDS),
    *((kind, "exp_abs") for kind in _FAMILY_KINDS
      if kind not in ("bump", "frac_bump"))])
def test_family_terms_are_the_per_lattice_rows(kind, measure):
    """The column path, with the terms of the whole family at once, gives
    every cube's row, with its witness, and the first error, as each
    cube's scalar formula in Python floats does on the terms of one
    lattice at a time, bit for bit.  The weights: a power whose dual
    powers are not integrable at 0 (infinite rows with witnesses), one
    with a gap, the reflection weight, an e^{|x|} growth and a 1D and a 2D
    grid weight, under Lebesgue measure; the exp and constant pieces whose
    e^{|x|} masses are closed forms under the exponential measure, where
    the bump kinds take no measure; and an exp piece whose masses
    overflow past infinite rows."""
    from reference import per_lattice_products
    from weightlab.suites import exp_growth_weight, reflection_weight
    from weightlab.weightclass import _products
    gap = SegmentWeight1D([Segment(-8.0, -1.0, "power", c=2.0),
                           Segment(0.5, 8.0, "exp", s=0.25)])
    # e^{100 x} off [-8, -7): cubes near -8 are infinite, and the masses of
    # cubes that reach past 7.1 leave the float range
    blowup = SegmentWeight1D([Segment(-7.0, 8.0, "exp", s=100.0)])
    weights = [gap, exp_growth_weight(2.0, span=8.0), blowup]
    # cells of 1/3 or 2/3: every shifted lattice of the family is aligned
    rng = np.random.default_rng(61)
    grids = [GridFunction((-8.0, 8.0), rng.random(48) ** 4 + 1e-3),
             GridFunction(((-8.0, -8.0), (8.0, 8.0)),
                          rng.random((24, 24)) + 0.25)]
    if measure == "lebesgue":
        weights += [power_weight(0.5, -40.0, 40.0, c=3.0), reflection_weight(),
                    *grids]
    spec = ClassSpec(kind, measure=LEBESGUE if measure == "lebesgue"
                     else EXP_ABS, **_FAMILY_KINDS[kind])
    for w in weights:
        box = (w.lo, w.hi) if getattr(w, "dim", 1) == 2 else (-8.0, 8.0)
        fam = CubeFamily(box, levels=(0, 4 if w is not grids[1] else 3),
                         shifts=3)
        got = _column_rows(_products(w, spec, fam))
        want = _product_rows(per_lattice_products(w, spec, fam))
        assert got == want, (kind, measure)
        assert (got[1] is None) is (w is not blowup)
        assert len(got[0]) == fam.count() or w is blowup


def test_family_terms_keep_an_infinite_witness_past_later_overflows():
    # the terms of every lattice at once: [-1000, 0] is not covered, an
    # infinite dual average, and the masses of e^x over [0, 1000] and over
    # the level-2 interval [500, 1000] leave the float range, in the first
    # lattice and in a later one; the report still stops at the first cube
    w = SegmentWeight1D([Segment(0.0, 1000.0, "exp", s=1.0)])
    fam = CubeFamily((-1000.0, 1000.0), levels=(1, 2))
    rep = class_constant(w, ClassSpec("Ap", p=2.0), fam, trace=True)
    assert rep.value == math.inf and rep.argmax == Cube((-1000.0,), 1000.0)
    assert rep.witness == "w vanishes on part of [-1000, 0] and e=-1 < 0"
    assert len(rep.trace) == 1


def _overflowing_dual_norm():
    """(w, spec): a bump spec with a Young function that bisects, and a
    weight whose w^{-1/p} is 1 on [0, 5e11] and 1e297 on [5e11, 1e12]:
    finite values, whose mass over [5e11, 1e12] leaves the float range.
    The lead factor w(-x) vanishes on [0, 1e12]."""
    w = SegmentWeight1D([Segment(0.0, 5e11, "power"),
                         Segment(5e11, 1e12, "power", c=1e-300)])
    return w, ClassSpec("bump", p=1.01, A=SquareMatrix.scalar(-1.0),
                        phi=YoungFn.power_log(1.5, 1.0))


def test_a_reached_overflow_still_raises():
    w = SegmentWeight1D([Segment(0.0, 1000.0, "exp", s=1.0)])
    fam = CubeFamily((0.0, 1000.0), levels=(1, 1))
    with pytest.raises(ValueError, match=r"^the mass over \[500.0, 1000.0\] "
                                         "overflows the float range$"):
        class_constant(w, ClassSpec("Ap", p=2.0), fam)
    g = GridFunction((0.0, 4.0), [1.0, 1.0, 1e308, 1e308])
    with pytest.raises(OverflowError):
        class_constant(g, ClassSpec("Ap", p=2.0),
                       CubeFamily((0.0, 4.0), levels=(1, 1)))
    # a Young function that bisects: the first cube's norm is bisected and
    # finite, the second cube's norm mass (analytic) or lead average
    # (grid) overflows
    w, spec = _overflowing_dual_norm()
    with pytest.raises(ValueError, match=r"^the mass over \[500000000000.0, "
                                         r"1000000000000.0\] overflows the "
                                         "float range$"):
        class_constant(w, spec, CubeFamily((0.0, 1e12), levels=(1, 1)))
    spec = ClassSpec("bump", p=2.0, A=SquareMatrix.scalar(1.0),
                     phi=YoungFn.power_log(1.5, 1.0))
    with pytest.raises(OverflowError):
        class_constant(g, spec, CubeFamily((0.0, 4.0), levels=(1, 1)))


@pytest.mark.parametrize("kind", ["AAp", "bump", "frac", "frac_bump", "AA1"])
@pytest.mark.parametrize("dim", [1, 2])
def test_grid_scalar_matrix_is_the_multiple_of_the_identity(kind, dim):
    """A scalar A on a grid weight is that multiple of the identity, bit
    for bit, as on an analytic weight."""
    rng = np.random.default_rng(59)
    shape = (16,) if dim == 1 else (8, 8)
    box = (-1.0, 1.0) if dim == 1 else ((-1.0, -1.0), (1.0, 1.0))
    w = GridFunction(box, rng.random(shape) + 0.25)
    fam = CubeFamily(box, levels=(0, 2), shifts=2)
    params = _KIND_SPECS.get(kind, {})
    scalar = ClassSpec(kind, A=-1.0, **params)
    matrix = ClassSpec(kind, A=SquareMatrix.scalar(-1.0, dim), **params)
    reps = [class_constant(w, spec, fam, trace=kind != "AA1")
            for spec in (scalar, matrix)]
    assert _report_bits(reps[0]) == _report_bits(reps[1])
    assert reps[0].extras == reps[1].extras
    assert " A=-1.0" in scalar.describe()


def test_overflowing_grid_power_raises_one_error_naming_it():
    # 1e200 squared leaves the float range: one ValueError naming the
    # power, with no numpy overflow warning before it (pytest's filter
    # turns a RuntimeWarning into an error of its own)
    g = GridFunction((0.0, 4.0), [1.0, 1e200, 2.0, 3.0])
    fam = CubeFamily((0.0, 4.0), levels=(1, 1))
    with pytest.raises(ValueError, match=r"^the grid weight w\^2.0 overflows "
                                         "the float range$"):
        class_constant(g, ClassSpec("RH", s=2.0), fam)
    tiny = GridFunction((0.0, 4.0), [1.0, 1e-310, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"^the grid weight w\^-1.0 "
                                         "overflows the float range$"):
        class_constant(tiny, ClassSpec("Ap", p=2.0), fam)


def test_grid_cube_outside_the_grid_raises_when_reached():
    # the family's first lattice runs past the grid box: its first cube is
    # inside, the second leaves it
    g = GridFunction((0.0, 2.0), [1.0, 2.0])
    fam = CubeFamily((0.0, 4.0), levels=(1, 1))
    with pytest.raises(DomainError, match="leaves the grid box"):
        class_constant(g, ClassSpec("Ap", p=2.0), fam)
    holed = GridFunction((0.0, 2.0), [0.0, 2.0])
    rep = class_constant(holed, ClassSpec("Ap", p=2.0), fam)
    assert rep.value == math.inf and rep.argmax == Cube((0.0,), 2.0)
    assert rep.witness == "w vanishes at cell (0,)"


def test_grid_and_analytic_evaluators_agree_when_smooth():
    w = power_weight(0.5, -16.0, 16.0, a=-2.0)   # smooth on (1, 9)
    fam = CubeFamily((1.0, 9.0), levels=(0, 3), shifts=2)
    spec = ClassSpec("Ap", p=2.0)
    exact = class_constant(w, spec, fam).value
    g = sample_to_grid(w, (1.0, 9.0), 4096)
    approx = class_constant(g, spec, fam).value
    assert approx == pytest.approx(exact, rel=2e-4)


def test_aa1_constant_unit_weight():
    w = constant_weight(1.0, -8.0, 8.0)
    fam = CubeFamily((0.0, 4.0), levels=(0, 3), shifts=1)
    rep = class_constant(w, ClassSpec("AA1", A=SquareMatrix.scalar(2.0)), fam,
                         n_cells=256)
    assert rep.value == pytest.approx(1.0, rel=1e-12)


def test_aa1_constant_growth_lower_bound():
    w = power_weight(0.5, -64.0, 64.0)
    fam = CubeFamily((0.5, 8.5), levels=(0, 4), shifts=1)
    rep = class_constant(w, ClassSpec("AA1", A=SquareMatrix.scalar(2.0)), fam,
                         n_cells=512)
    # M(w(2.)) >= w(2x) pointwise and w(2x)/w(x) = sqrt(2)
    assert rep.value >= math.sqrt(2.0) - 1e-9
    assert "argmax_cell_center" in rep.extras


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def test_finite_order_reduction_reflection():
    w = power_weight(0.5, -8.0, 8.0)      # even weight: w(-x) = w(x)
    fam = CubeFamily((-4.0, 4.0), levels=(0, 3), shifts=2)
    out = finite_order_reduction(w, -1.0, 2.0, fam, n_cells=512)
    assert out["applicable"] and out["order"] == 2
    assert out["aap_value"] == pytest.approx(out["ap_value"], rel=1e-12)
    assert out["ratio_bound"] == pytest.approx(1.0, rel=1e-12)
    assert out["consistent"]


def test_finite_order_reduction_scaling_not_applicable():
    w = power_weight(0.5, -8.0, 8.0)
    fam = CubeFamily((-4.0, 4.0), levels=(0, 2), shifts=1)
    out = finite_order_reduction(w, 2.0, 2.0, fam)
    assert out == {"order": None, "applicable": False}


def test_subset_mass_ratio_within_class():
    w = power_weight(0.5, -64.0, 64.0)
    A = SquareMatrix.scalar(2.0)
    fam = CubeFamily((0.0, 8.0), levels=(0, 3), shifts=1)
    pairs = []
    for Q in ((0.0, 4.0), (4.0, 8.0), (2.0, 4.0)):
        pairs.append(((Q[0] + 0.25 * (Q[1] - Q[0]), Q[0] + 0.5 * (Q[1] - Q[0])),
                      Q))
    out = subset_mass_ratio_check(w, A, 2.0, pairs, fam)
    assert math.isfinite(out["constant"])
    assert out["max_defect"] <= 1e-9
    with pytest.raises(ValueError):
        subset_mass_ratio_check(w, A, 2.0, [((0.0, 9.0), (0.0, 4.0))], fam)


def test_rh_inclusion_identity_small_family():
    w = power_weight(0.5, -64.0, 64.0)
    fam = CubeFamily((0.5, 8.5), levels=(0, 3), shifts=2)
    out = rh_inclusion_check(w, 2.0, p=2.0, eps=0.25, family=fam)
    assert out["applicable"]
    assert out["max_percube_defect"] <= 1e-9
    assert out["family_slack"] >= -1e-9
    assert out["s"] == pytest.approx((2.0 - 1.0) / (2.0 - 0.25 - 1.0), rel=1e-15)


def test_rh_inclusion_guards():
    w = power_weight(0.5, -8.0, 8.0)
    fam = CubeFamily((0.0, 4.0), levels=(0, 1), shifts=1)
    with pytest.raises(ValueError):
        rh_inclusion_check(w, 2.0, p=1.2, eps=0.25, family=fam)
    with pytest.raises(ValueError):
        rh_inclusion_check(w, 2.0, p=2.0, eps=1.5, family=fam)
    bad = power_weight(1.0, -8.0, 8.0)    # dual |x|^{-1} non-integrable
    out = rh_inclusion_check(bad, 2.0, p=2.0, eps=0.25,
                             family=CubeFamily((-4.0, 4.0), levels=(0, 1)))
    assert out["applicable"] is False and "non-integrable" in out["reason"]


# ---------------------------------------------------------------------------
# one product per kind: frozen bits, witnesses, work done
# ---------------------------------------------------------------------------

def _frozen_reports():
    """class_constant over every kind on analytic and grid weights."""
    A = SquareMatrix.scalar(2.0)
    phi = YoungFn.power(2.0)
    analytic_specs = [
        ClassSpec("Ap", p=2.0), ClassSpec("Ap_mu", p=1.5),
        ClassSpec("AAp", p=2.0, A=A), ClassSpec("RH", s=2.0),
        ClassSpec("bump", p=2.0, A=A, phi=phi),
        ClassSpec("bump", p=3.0, A=A, phi=YoungFn.power_log(1.5, 1.0)),
        ClassSpec("frac", p=2.0, q=4.0, A=A),
        ClassSpec("frac_bump", p=2.0, q=4.0, A=A, phi=phi),
        ClassSpec("AA1", A=A)]
    # the second weight's dual powers are not integrable at 0, inside the
    # second family
    for w, fam in ((power_weight(0.5, -16.0, 16.0, c=3.0),
                    CubeFamily((0.5, 8.5), levels=(0, 3), shifts=2)),
                   (power_weight(1.0, -16.0, 16.0),
                    CubeFamily((-4.0, 4.0), levels=(0, 3), shifts=2))):
        for spec in analytic_specs:
            yield class_constant(w, spec, fam, n_cells=256, trace=True)
    exp_w = SegmentWeight1D([Segment(-40.0, 0.0, "exp", s=-1.0),
                             Segment(0.0, 40.0, "exp", s=1.0)])
    exp_fam = CubeFamily((0.0, 8.0), levels=(0, 2), shifts=2)
    for spec in (ClassSpec("Ap", p=2.0, measure=EXP_ABS),
                 ClassSpec("Ap_mu", p=1.5, measure=EXP_ABS),
                 ClassSpec("AAp", p=2.0, A=SquareMatrix.scalar(0.5),
                           measure=EXP_ABS)):
        yield class_constant(exp_w, spec, exp_fam, trace=True)
    rng = np.random.default_rng(29)
    vals = rng.random(16) + 0.25
    holed = vals.copy()
    holed[5] = 0.0
    R = SquareMatrix.scalar(-1.0)
    gfam = CubeFamily((-1.0, 1.0), levels=(0, 2), shifts=2)
    for values in (vals, holed):
        g = GridFunction((-1.0, 1.0), values)
        for spec in (ClassSpec("Ap", p=2.0), ClassSpec("AAp", p=2.0, A=R),
                     ClassSpec("RH", s=3.0),
                     ClassSpec("bump", p=2.0, A=R, phi=phi),
                     ClassSpec("frac", p=2.0, q=4.0, A=R),
                     ClassSpec("frac_bump", p=2.0, q=4.0, A=R, phi=phi),
                     ClassSpec("AA1", A=R)):
            yield class_constant(g, spec, gfam, trace=True)


def _report_bits(rep):
    """A report's kind, value, argmax and trace rows as one line of hex."""
    bits = [rep.kind, rep.value.hex()]
    if rep.argmax is not None:
        bits += [c.hex() for c in rep.argmax.corner] + [rep.argmax.side.hex()]
    for Q, v in rep.trace or ():
        bits += [c.hex() for c in Q.corner] + [Q.side.hex(), v.hex()]
    return " ".join(bits).encode() + b"\n"


def _frozen_rows_sha():
    h = hashlib.sha256()
    for rep in _frozen_reports():
        h.update(_report_bits(rep))
    return h.hexdigest()


def test_class_constant_rows_frozen():
    """Values, argmaxes and trace rows of every kind, bit for bit."""
    assert _frozen_rows_sha() == FROZEN_ROWS_SHA


def test_grid_ap_mu_is_grid_ap():
    rng = np.random.default_rng(31)
    g = GridFunction((-1.0, 1.0), rng.random(16) + 0.25)
    fam = CubeFamily((-1.0, 1.0), levels=(0, 2), shifts=2)
    ap = class_constant(g, ClassSpec("Ap", p=2.0), fam, trace=True)
    mu = class_constant(g, ClassSpec("Ap_mu", p=2.0), fam, trace=True)
    assert mu.kind == "Ap_mu"
    assert (mu.value, mu.argmax, mu.trace) == (ap.value, ap.argmax, ap.trace)
    with pytest.raises(ValueError, match="Lebesgue measure only"):
        class_constant(g, ClassSpec("Ap_mu", p=2.0, measure=EXP_ABS), fam)


def test_rh_infinite_witness_names_the_power():
    w = power_weight(-0.5, -8.0, 8.0)     # w^2 = |x|^{-1}
    fam = CubeFamily((-4.0, 4.0), levels=(0, 1), shifts=1)
    rep = class_constant(w, ClassSpec("RH", s=2.0), fam)
    assert rep.value == math.inf
    assert rep.witness == "w^2 non-integrable near x=0"


def test_bump_infinite_witness_names_the_power_or_the_gap():
    A = SquareMatrix.scalar(2.0)
    spec = ClassSpec("bump", p=2.0, A=A, phi=YoungFn.power(2.0))
    fam = CubeFamily((-4.0, 4.0), levels=(0, 1), shifts=1)
    rep = class_constant(power_weight(2.0, -8.0, 8.0), spec, fam)
    assert rep.value == math.inf
    assert rep.witness == "w^-0.5 non-integrable near x=0"
    short = power_weight(0.5, -2.0, 2.0)  # leaves the family box uncovered
    rep = class_constant(short, spec, fam)
    assert rep.value == math.inf
    assert rep.witness == "w vanishes on part of [-4, 4] and e=-0.5 < 0"


def test_nan_product_makes_the_constant_nan():
    # w = |x - 3| on [2, 4): on [2.5, 3.5] the lead avg w(2x) is 0 (w(2x)
    # lives on [1, 2)) and the norm of w^-1/2 under t^2, the root of the
    # mean of |x - 3|^-1, is inf: the product 0 * inf is NaN, which a max
    # over the family would skip
    spec = ClassSpec("bump", p=2.0, A=SquareMatrix.scalar(2.0),
                     phi=YoungFn.power(2.0))
    fam = CubeFamily((2.5, 3.5), levels=(0, 0))
    w = power_weight(1.0, 2.0, 4.0, a=3.0)
    rep = class_constant(w, spec, fam, trace=True)
    assert math.isnan(rep.value) and not rep.finite
    assert rep.argmax == Cube((2.5,), 1.0)
    assert rep.witness == "undefined (NaN) per-cube product"
    assert rep.to_json_dict()["argmax"] == {"corner": [2.5], "side": 1.0}


def test_frac_bump_infinite_witness_names_the_power():
    spec = ClassSpec("frac_bump", p=2.0, q=4.0, A=SquareMatrix.scalar(2.0),
                     phi=YoungFn.power(2.0))
    fam = CubeFamily((-4.0, 4.0), levels=(0, 1), shifts=1)
    rep = class_constant(power_weight(1.0, -8.0, 8.0), spec, fam)
    assert rep.value == math.inf
    assert rep.witness == "w^-1 non-integrable near x=0"


def test_power_phi_bump_infinite_witness_names_the_normed_power():
    # w = |x|: w^{-1/2} is integrable at 0, but the norm under t^2 is that
    # of (w^{-1/2})^2 = w^{-1}, which is not
    spec = ClassSpec("bump", p=2.0, A=2.0, phi=YoungFn.power(2.0))
    fam = CubeFamily((-4.0, 4.0), levels=(0, 3), shifts=2)
    rep = class_constant(power_weight(1.0, -16.0, 16.0), spec, fam)
    assert rep.value == math.inf and rep.argmax == Cube((-4.0,), 8.0)
    assert rep.witness == "w^-1 non-integrable near x=0"


# ---------------------------------------------------------------------------
# the column report: overflows, ties, zeros, NaN, errors past infinite rows
# ---------------------------------------------------------------------------

def _tiny_linear():
    """w = 1e-306 x on [0, 1], and nothing on [-1, 0).  At p = 3 the dual
    average of w^{-1/2} over [0, h] is 2e153 h^{-1/2}: its square leaves
    the float range from h = 2^-6 down, though each product is about 2."""
    return SegmentWeight1D([Segment(0.0, 1.0, "power", c=1e-306, gamma=1.0)])


def test_overflowing_product_of_finite_terms_raises_naming_the_cube():
    w = _tiny_linear()
    message = (r"^the Ap product over Cube\(corner=\(0\.0,\), "
               r"side=0\.015625\) overflows the float range$")
    with pytest.raises(ValueError, match=message):
        class_constant(w, ClassSpec("Ap", p=3.0), CubeFamily((0.0, 1.0),
                                                              levels=(0, 12)))
    with pytest.raises(ValueError, match=message):
        ap_product(w, (0.0, 2.0 ** -6), 3.0)
    assert ap_product(w, (0.0, 2.0 ** -5), 3.0) == pytest.approx(2.0, rel=0.1)
    # an earlier infinite row wins: w vanishes on part of [-1, 1]
    fam = CubeFamily((-1.0, 1.0), levels=(0, 13))
    rep = class_constant(w, ClassSpec("Ap", p=3.0), fam)
    assert rep.value == math.inf and rep.argmax == Cube((-1.0,), 2.0)
    assert rep.witness == "w vanishes on part of [-1, 1] and e=-0.5 < 0"


def test_equal_products_report_the_smallest_corner_then_side():
    """Every product of a constant weight is 1.0: the report names the
    smallest (corner, side), not the first cube of the sweep."""
    w = constant_weight(1.0, -8.0, 8.0)
    fam = CubeFamily((0.0, 8.0), levels=(0, 3), shifts=2)
    rep = class_constant(w, ClassSpec("Ap", p=2.0), fam, trace=True)
    assert {v.hex() for _, v in rep.trace} == {(1.0).hex()}
    assert rep.value == 1.0 and rep.argmax == Cube((0.0,), 1.0)
    box = ((-1.0, -1.0), (1.0, 1.0))
    g = GridFunction(box, np.ones((8, 8)))
    fam = CubeFamily(box, levels=(0, 2), shifts=2)
    rep = class_constant(g, ClassSpec("AAp", p=2.0, A=-1.0), fam, trace=True)
    assert {v.hex() for _, v in rep.trace} == {(1.0).hex()}
    assert rep.value == 1.0 and rep.argmax == Cube((-1.0, -1.0), 0.5)
    assert rep.argmax == min(fam.cubes(), key=lambda Q: (Q.corner, Q.side))


def test_signed_zero_ties_keep_the_winning_rows_bits():
    """No weight gives a -0.0 product (its terms are nonnegative means and
    norms, and a zero average reads +0.0), so the report takes blocks
    (corners, sides, products, witnesses, error) directly: of 0.0 and -0.0
    the smaller corner wins, with its sign, in one block or across two."""
    from weightlab.weightclass import _report
    fam = CubeFamily((0.0, 4.0), levels=(1, 1))
    corners, sides = np.array([[0.0], [2.0]]), np.array([2.0, 2.0])
    for values in ([0.0, -0.0], [-0.0, 0.0]):
        rep = _report("Ap", fam, [(corners, sides, np.array(values), {}, None)])
        assert rep.value.hex() == values[0].hex()
        assert rep.argmax == Cube((0.0,), 2.0)
        later = [(corners[1:], sides[1:], np.array(values[1:]), {}, None),
                 (corners[:1], sides[:1], np.array(values[:1]), {}, None)]
        assert _report("Ap", fam, later).value.hex() == values[0].hex()


def test_nan_product_is_the_scalar_nan_row():
    # the 0 * inf of test_nan_product_makes_the_constant_nan: NaN in the
    # column path as in the scalar one, with no witness, and in the list
    # of interval products
    from reference import per_lattice_products
    from weightlab.weightclass import _products
    spec = ClassSpec("bump", p=2.0, A=2.0, phi=YoungFn.power(2.0))
    fam = CubeFamily((2.5, 3.5), levels=(0, 0))
    w = power_weight(1.0, 2.0, 4.0, a=3.0)
    assert _column_rows(_products(w, spec, fam)) == _product_rows(
        per_lattice_products(w, spec, fam)) == (
        [((2.5,), 1.0, math.nan.hex(), None)], None)
    assert math.isnan(interval_products(w, spec, [(2.5, 3.5)])[0])


def test_failing_row_after_an_infinite_one():
    """class_constant stops at the infinite row; interval_products raises
    the later failing row; a term an infinite row ended is not read."""
    w = SegmentWeight1D([Segment(0.0, 1000.0, "exp", s=1.0)])
    spec = ClassSpec("Ap", p=2.0)
    rep = class_constant(w, spec, CubeFamily((-1000.0, 1000.0), levels=(1, 1)))
    assert rep.value == math.inf and rep.argmax == Cube((-1000.0,), 1000.0)
    with pytest.raises(ValueError, match=r"^the mass over \[0.0, 1000.0\] "
                                         "overflows the float range$"):
        interval_products(w, spec, [(-1000.0, 0.0), (0.0, 1000.0)])
    # the dual average over [-1000, 1000] is infinite, so its overflowing
    # mean of w is never read
    assert interval_products(w, spec, [(-1000.0, 1000.0)]) == [math.inf]


def test_column_arithmetic_warns_nothing():
    """inf and NaN products, a zero RH average, an overflowing product and
    the rh_inclusion identity, with every numpy warning an error."""
    phi = YoungFn.power(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        class_constant(power_weight(1.0, 2.0, 4.0, a=3.0),
                       ClassSpec("bump", p=2.0, A=2.0, phi=phi),
                       CubeFamily((2.5, 3.5), levels=(0, 0)))
        class_constant(power_weight(1.0, -8.0, 8.0), ClassSpec("Ap", p=2.0),
                       CubeFamily((-4.0, 4.0), levels=(0, 2), shifts=2))
        gap = SegmentWeight1D([Segment(0.0, 1.0, "power")])
        assert interval_products(gap, ClassSpec("RH", s=2.0),
                                 [(2.0, 3.0), (0.0, 1.0)]) == [0.0, 1.0]
        with pytest.raises(ValueError, match="overflows the float range"):
            ap_product(_tiny_linear(), (0.0, 2.0 ** -7), 3.0)
        holed = GridFunction((0.0, 4.0), [1.0, 0.0, 2.0, 3.0])
        class_constant(holed, ClassSpec("bump", p=2.0, A=-1.0, phi=phi),
                       CubeFamily((0.0, 4.0), levels=(0, 2)))
        rh_inclusion_check(power_weight(0.5, -64.0, 64.0), 2.0, p=2.0,
                           eps=0.25, family=CubeFamily((0.5, 8.5),
                                                       levels=(0, 3)))


def test_class_constant_powers_each_weight_once(monkeypatch):
    """A family sweep builds each powered weight once, not once per cube."""
    calls = Counter()
    powered_pieces = SegmentWeight1D.powered_pieces

    def counted(self, e):
        calls[id(self), e] += 1
        return powered_pieces(self, e)

    monkeypatch.setattr(SegmentWeight1D, "powered_pieces", counted)
    A = SquareMatrix.scalar(2.0)
    # the identity phi's norm is a plain mean, which powers nothing itself
    phi = YoungFn.identity()
    w = power_weight(0.5, -16.0, 16.0)
    fam = CubeFamily((0.5, 8.5), levels=(0, 3), shifts=2)
    for spec in (ClassSpec("Ap", p=2.0), ClassSpec("Ap_mu", p=2.0,
                                                   measure=EXP_ABS),
                 ClassSpec("AAp", p=2.0, A=A), ClassSpec("RH", s=2.0),
                 ClassSpec("bump", p=2.0, A=A, phi=phi),
                 ClassSpec("frac", p=2.0, q=4.0, A=A),
                 ClassSpec("frac_bump", p=2.0, q=4.0, A=A, phi=phi)):
        calls.clear()
        class_constant(w, spec, fam)
        assert calls and max(calls.values()) == 1, (spec.kind, calls)


def test_power_phi_norm_powers_each_weight_once(monkeypatch):
    """A power phi's analytic norms of w^e power w^e once per sweep, not
    once per cube, and the report keeps its bits."""
    calls = Counter()
    powered_pieces = SegmentWeight1D.powered_pieces

    def counted(self, e):
        calls[e] += 1
        return powered_pieces(self, e)

    monkeypatch.setattr(SegmentWeight1D, "powered_pieces", counted)
    spec = ClassSpec("bump", p=2.0, A=SquareMatrix.scalar(2.0),
                     phi=YoungFn.power(2.0))
    fam = CubeFamily((-2.0, 2.0), levels=(0, 3), shifts=2)
    rep = class_constant(power_weight(0.5, -4.0, 4.0), spec, fam, trace=True)
    assert calls == {-0.5: 1, 2.0: 1}
    assert len(rep.trace) == fam.count() == 26
    assert hashlib.sha256(_report_bits(rep)).hexdigest() == POWER_PHI_BUMP_SHA


def test_rh_inclusion_check_evaluates_each_product_once(monkeypatch):
    """Three products per cube (RH, AAp at p and at p - eps), two exact
    mass columns each, one over the whole family: the family constants and
    the identity share them."""
    sizes = []
    masses = SegmentWeight1D.masses

    def counted(self, a, b, measure=LEBESGUE):
        sizes.append(len(a))
        return masses(self, a, b, measure)

    monkeypatch.setattr(SegmentWeight1D, "masses", counted)
    fam = CubeFamily((0.5, 8.5), levels=(0, 3), shifts=2)
    out = rh_inclusion_check(power_weight(0.5, -64.0, 64.0), 2.0, p=2.0,
                             eps=0.25, family=fam)
    assert out["applicable"] and out["cubes_checked"] == fam.count()
    assert len(sizes) == 3 * 2
    assert sum(sizes) == 6 * fam.count()
