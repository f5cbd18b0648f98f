"""End-to-end acceptance runs, one test per shipped guarantee.

Each test prints a single summary line; the stated tolerances and runtime
budgets are asserted, so a red line here means the guarantee is broken.
"""

import math
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest
from scipy.integrate import quad

from weightlab.czlab import cz_decompose, theorem_chain_check
from weightlab.funcspace import (
    EXP_ABS,
    Cube,
    CubeFamily,
    GridFunction,
    Segment,
    SegmentWeight1D,
    SquareMatrix,
    compose_matrix,
    constant_weight,
    power_weight,
    sample_to_grid,
)
from weightlab.maximal import fractional_maximal, hl_maximal, matrix_compose
from weightlab.suites import (
    ap_mu_closed_form,
    exp_growth_weight,
    growth_weight,
    j_h,
    probe_interval,
    reflection_interval,
    reflection_weight,
)
from weightlab.weightclass import (
    ClassSpec,
    aap_product,
    ap_product,
    class_constant,
    finite_order_reduction,
    rh_inclusion_check,
)
from weightlab.young import YoungFn, luxemburg_norm_of_values

PHI = YoungFn.power(3.0)


def _slope(xs, ys):
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


def _chain_corpus_1d(n):
    rng = np.random.default_rng(11)
    vals = rng.random(n) ** 2 * 3.0
    vals[n // 6: n // 6 + max(4, n // 24)] = 40.0
    return GridFunction((-1.0, 1.0), vals)


def _chain_corpus_2d(n):
    rng = np.random.default_rng(33)
    vals = rng.random((n, n)) * 2.0
    vals[n // 12: n // 6, n // 2: n // 2 + max(2, n // 12)] = 30.0
    return GridFunction(((-1.0, -1.0), (1.0, 1.0)), vals)


def test_acceptance_1_doubling_growth_reproduction():
    t0 = perf_counter()
    w = growth_weight()
    w2 = compose_matrix(w, 2.0)
    target = 2.0 ** -0.5
    for k in range(1, 7):
        lo, hi = probe_interval(k)
        mass = w2.mass(lo, hi)
        assert abs(mass - target) <= 1e-10, (k, mass)
        oracle = quad(w2.value, lo, hi, limit=300)[0]
        assert abs(oracle - target) <= 1e-6, (k, oracle)
    ks = list(range(1, 7))
    products = [aap_product(w, 2.0, probe_interval(k), 2.0) for k in ks]
    slope = _slope(ks, [math.log2(v) for v in products])
    assert abs(slope - 1.0) <= 0.1, slope
    dt = perf_counter() - t0
    assert dt < 5.0
    print(f"ACCEPTANCE 1 PASS: composed masses = 2^-1/2 (closed form 1e-10, "
          f"quadrature 1e-6), log2 slope {slope:.3f}, {dt:.2f}s")


def test_acceptance_2_exponential_measure_reproduction():
    t0 = perf_counter()
    for p in (1.5, 2.0, 3.0):
        w = exp_growth_weight(p)
        for h in (0.01, 0.1, 1.0, 5.0, 20.0):
            prod = aap_product(w, 0.5, (0.0, h), p, measure=EXP_ABS)
            ref = j_h(p, h)
            assert abs(prod - ref) <= 1e-8 * ref, (p, h, prod, ref)
        assert abs(j_h(p, 0.001) - 1.0) <= 0.02
        assert j_h(p, 50.0) < 1e-3
    ref = ap_mu_closed_form(2.0, 25.0)
    prod = ap_product(exp_growth_weight(2.0), (0.0, 25.0), 2.0,
                      measure=EXP_ABS)
    assert abs(prod - ref) <= 1e-6 * ref
    # independent cross-check of the closed form by direct quadrature
    mu = quad(math.exp, 0.0, 25.0)[0]
    num = quad(lambda x: math.exp(2.0 * x), 0.0, 25.0)[0] / mu
    dual = 25.0 / mu
    assert abs(num * dual - ref) <= 1e-6 * ref
    assert 12.4 < ref < 12.6
    dt = perf_counter() - t0
    assert dt < 5.0
    print(f"ACCEPTANCE 2 PASS: composed products match J_h at 1e-8 for "
          f"15 (p, h) pairs, plain product at (2, 25) = {prod:.6f}, {dt:.2f}s")


def test_acceptance_3_reflection_growth_reproduction():
    t0 = perf_counter()
    w = reflection_weight()
    wr = compose_matrix(w, -1.0)
    for k in range(1, 9):
        mass = wr.mass(*reflection_interval(k))
        assert abs(mass - 1.0) <= 1e-10, (k, mass)
    ks = list(range(1, 9))
    products = [aap_product(w, -1.0, reflection_interval(k), 2.0) for k in ks]
    slope = _slope([math.log(k) for k in ks],
                   [math.log(v) for v in products])
    assert abs(slope - 0.5) <= 0.15, slope
    controls = [ap_product(w, reflection_interval(k), 2.0) for k in ks]
    control_slope = _slope([math.log(k) for k in ks],
                           [math.log(v) for v in controls])
    assert abs(control_slope) < 0.15, control_slope
    dt = perf_counter() - t0
    assert dt < 5.0
    print(f"ACCEPTANCE 3 PASS: reflected masses = 1 at 1e-10 for k = 1..8, "
          f"slope {slope:.3f}, identity control {control_slope:.3f}, {dt:.2f}s")


def _random_weight(rng, kind):
    if kind == 0:
        return power_weight(float(rng.uniform(-0.45, 0.8)), -10.0, 10.0)
    if kind == 1:
        return constant_weight(float(rng.uniform(0.2, 3.0)), -10.0, 10.0)
    if kind == 2:
        s = float(rng.uniform(-0.8, 0.8))
        return SegmentWeight1D([Segment(-10.0, 0.0, "exp", s=-s),
                                Segment(0.0, 10.0, "exp", s=s)])
    return power_weight(float(rng.uniform(-0.4, 0.6)), -10.0, 10.0,
                        a=float(rng.choice([-3.0, 3.0])))


def test_acceptance_4_identity_suite():
    rng = np.random.default_rng(2024)
    box = (-2.0, 2.0)
    N = 64
    lams = [0.5, -0.5, 1.0, -1.0, 2.0, -2.0]
    for trial in range(20):
        lam = lams[trial % len(lams)]
        w = _random_weight(rng, trial % 4)
        B = SquareMatrix.scalar(lam)
        lhs = hl_maximal(sample_to_grid(compose_matrix(w, B), box, N)).values
        image_box = (min(-2.0 * lam, 2.0 * lam), max(-2.0 * lam, 2.0 * lam))
        inner = hl_maximal(sample_to_grid(w, image_box, N))
        rhs = matrix_compose(inner, B.inverse(), out_box=box, n_out=N).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=0.0,
                                   err_msg=f"trial {trial}, lam {lam}")

    for trial in range(5):
        vals = rng.random(32) * 4.0
        assert luxemburg_norm_of_values(vals, YoungFn.identity()) \
            == pytest.approx(float(np.mean(vals)), rel=1e-8)
        for r, c in ((1.5, 1.0), (2.0, 1.0), (3.0, 2.0)):
            closed = (c * float(np.mean(vals ** r))) ** (1.0 / r)
            assert luxemburg_norm_of_values(vals, YoungFn.power(r, c)) \
                == pytest.approx(closed, rel=1e-8)

    def exact_avg(arr, span):
        slc = tuple(slice(i0, i1) for i0, i1 in span)
        cells = arr[slc].ravel()
        return sum(Fraction(float(v)) for v in cells) / len(cells)

    checked = 0
    for trial in range(30):
        if trial % 5 == 4:
            vals = rng.integers(0, 32, size=(16, 16)).astype(float) / 4.0
            f = GridFunction(((0.0, 0.0), (2.0, 2.0)), vals)
        else:
            vals = rng.integers(0, 64, size=64).astype(float) / 8.0
            vals[rng.integers(0, 64)] = 8.0
            f = GridFunction((0.0, 4.0), vals)
        root = sum(Fraction(float(v)) for v in vals.ravel()) / vals.size
        ks = [k for k in range(0, 8)
              if Fraction(8) ** k >= 2 ** f.dim * root]
        dec = cz_decompose(f, 8.0, ks)
        a_frac = Fraction(8)
        for k in dec.ks:
            low = a_frac ** k / 4 ** f.dim
            high = a_frac ** k / 2 ** f.dim
            for qc in dec.cubes[k]:
                avg = exact_avg(vals, qc.span)
                assert low < avg <= high, (trial, k, qc.span)
                checked += 1
    assert checked > 30

    g1 = GridFunction((-1.0, 3.0), rng.integers(0, 1024, size=256) / 32.0)
    g2 = GridFunction(((0.0, 0.0), (1.0, 1.0)),
                      rng.integers(0, 1024, size=(32, 32)) / 32.0)
    for trial in range(50):
        i0, i1 = sorted(rng.integers(0, 257, size=2))
        if i0 == i1:
            i1 += 1 if i1 < 256 else -1
            i0, i1 = min(i0, i1), max(i0, i1)
        cube = Cube((-1.0 + i0 * g1.h[0],), float((i1 - i0) * g1.h[0]))
        span = g1.span_of_cube(cube)
        brute = math.fsum(g1.values[i0:i1]) / (i1 - i0)
        assert g1.cube_average(span) == brute
    for trial in range(50):
        i0 = int(rng.integers(0, 31))
        j0 = int(rng.integers(0, 31))
        side = int(rng.integers(1, 32 - max(i0, j0) + 1))
        span = ((i0, i0 + side), (j0, j0 + side))
        brute = math.fsum(g2.values[i0:i0 + side, j0:j0 + side].ravel()) \
            / side ** 2
        assert g2.cube_average(span) == brute

    print("ACCEPTANCE 4 PASS: composition identity at 1e-9 on 20 pairs, "
          "Luxemburg closed forms at 1e-8, sandwich exact on 30 functions "
          f"({checked} cubes), 100 prefix averages equal brute force")


def test_acceptance_5_theorem_probes():
    t0 = perf_counter()
    f = _chain_corpus_1d(2 ** 14)
    weights = {
        "constant": constant_weight(1.0, -40.0, 40.0),
        "sqrt-growth": power_weight(0.5, -40.0, 40.0),
        "quarter-root-decay": power_weight(-0.25, -40.0, 40.0),
    }
    worst = math.inf
    runs = 0
    for wname, w in weights.items():
        for lam in (0.5, -0.5, 2.0, -2.0):
            for p in (1.5, 2.0):
                rep = theorem_chain_check(f, w, lam, p, PHI)
                assert rep.applicable, (wname, lam, p, rep.reason)
                worst = min(worst, rep.min_rel_slack)
                runs += 1
    assert worst >= -1e-6, worst

    f2 = _chain_corpus_2d(2 ** 9)
    pair = (power_weight(0.5, -40.0, 40.0), constant_weight(1.0, -40.0, 40.0))
    rep2 = theorem_chain_check(f2, pair, SquareMatrix.scalar(-0.5, 2),
                               2.0, PHI)
    assert rep2.applicable and rep2.min_rel_slack >= -1e-6

    fam = CubeFamily((-8.0, 8.0), levels=(0, 7), shifts=2)
    rh = rh_inclusion_check(power_weight(0.5, -40.0, 40.0), 2.0, 2.0,
                            0.25, fam)
    assert rh["applicable"] and rh["cubes_checked"] >= 200
    assert rh["max_percube_defect"] <= 1e-9
    assert rh["family_slack"] >= -1e-12

    fam2 = CubeFamily((-8.0, 8.0), levels=(0, 5), shifts=2)
    even = finite_order_reduction(power_weight(0.5, -40.0, 40.0),
                                  SquareMatrix.scalar(-1.0), 2.0, fam2)
    assert even["applicable"] and even["consistent"]
    assert abs(even["aap_value"] - even["ap_value"]) \
        <= 1e-9 * even["ap_value"]
    assert math.isfinite(even["aap_value"])
    sep = finite_order_reduction(reflection_weight(),
                                 SquareMatrix.scalar(-1.0), 2.0,
                                 CubeFamily((-8.5, -0.5), levels=(0, 5),
                                            shifts=2))
    assert sep["applicable"] and sep["aap_value"] >= 2.0 * sep["ap_value"]

    dt = perf_counter() - t0
    assert dt < 60.0
    print(f"ACCEPTANCE 5 PASS: {runs} chain runs at 2^14 cells plus one "
          f"2D run at 2^9 per axis (worst slack {worst:.2e}), "
          f"{rh['cubes_checked']} exponent-lowering cubes, finite-order "
          f"checks, {dt:.1f}s")


def test_acceptance_6_fractional_suite():
    rng = np.random.default_rng(77)
    for shape in (16, 37, 64, (8, 8)):
        vals = rng.random(shape) * 5.0
        box = (0.0, 1.0) if isinstance(shape, int) \
            else ((0.0, 0.0), (1.0, 1.0))
        f = GridFunction(box, vals)
        assert np.array_equal(fractional_maximal(f, 0.0).values,
                              hl_maximal(f).values)
        assert np.array_equal(
            fractional_maximal(f, 0.0, lengths="dyadic").values,
            hl_maximal(f, lengths="dyadic").values)

    fam = CubeFamily((-6.0, 6.0), levels=(0, 3), shifts=2)
    # exponents with both sides finite: |x|^gamma needs gamma p' < 1 for the
    # dual average and gamma q > -1 for the composed one
    for p in (1.5, 2.0):
        for w in (power_weight(0.3, -40.0, 40.0),
                  power_weight(-0.25, -40.0, 40.0)):
            A = SquareMatrix.scalar(-2.0)
            frac = class_constant(w, ClassSpec("frac", p=p, q=p, A=A),
                                  fam, trace=True)
            bridge = class_constant(w.powered(p), ClassSpec("AAp", p=p, A=A),
                                    fam, trace=True)
            assert len(frac.trace) == len(bridge.trace) == fam.count()
            for (q1, v1), (q2, v2) in zip(frac.trace, bridge.trace):
                assert q1 == q2
                assert v1 == pytest.approx(v2 ** (1.0 / p), rel=1e-9)

    f = _chain_corpus_1d(1024)
    worst = math.inf
    for w in (constant_weight(1.0, -40.0, 40.0),
              power_weight(0.5, -40.0, 40.0),
              power_weight(-0.25, -40.0, 40.0)):
        for lam in (0.5, -0.5, 2.0, -2.0):
            rep = theorem_chain_check(f, w, lam, 2.0, PHI, alpha=0.25)
            assert rep.applicable and rep.fractional
            assert rep.constants["q"] == pytest.approx(4.0, rel=1e-13)
            worst = min(worst, rep.min_rel_slack)
    f2 = _chain_corpus_2d(2 ** 7)
    pair = (power_weight(0.5, -40.0, 40.0), constant_weight(1.0, -40.0, 40.0))
    rep2 = theorem_chain_check(f2, pair, SquareMatrix.scalar(2.0, 2),
                               2.0, PHI, alpha=0.5)
    assert rep2.applicable and rep2.fractional
    assert rep2.constants["q"] == pytest.approx(4.0, rel=1e-13)
    worst = min(worst, rep2.min_rel_slack)
    assert worst >= -1e-6, worst
    print(f"ACCEPTANCE 6 PASS: alpha = 0 reduces bitwise to the plain "
          f"field, q = p bridge identity at 1e-9 on {fam.count()} cubes, "
          f"fractional chains (p, q) = (2, 4) worst slack {worst:.2e}")
