"""Exact integration, grids, and geometry primitives.

Oracles: scipy adaptive quadrature for segment masses, Fraction arithmetic
for cube sums and threshold tests, and hand-derived closed forms frozen as literals.
"""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.integrate import quad

from weightlab.funcspace import (
    Cube,
    CubeFamily,
    DomainError,
    EXP_ABS,
    GridFunction,
    LEBESGUE,
    Measure,
    Segment,
    SegmentWeight1D,
    SquareMatrix,
    compose_matrix,
    constant_weight,
    exact_sums,
    exact_totals,
    power_weight,
    round_total,
    sample_to_grid,
    span_rows,
    span_totals,
    total_exceeds,
)
from reference import (exact_cells, exact_span_sum, exact_sum, segment_masses,
                       slices)


# ---------------------------------------------------------------------------
# segments and weights
# ---------------------------------------------------------------------------

def test_power_segment_mass_closed_form():
    seg = Segment(0.0, 2.0, "power", a=0.0, gamma=-0.5)
    # integral of x^(-1/2) over (0, 2) = 2 sqrt(2)
    assert SegmentWeight1D([seg]).mass(0.0, 2.0) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-14)
    # symmetric piece through the singularity
    seg2 = Segment(-1.0, 1.0, "power", a=0.0, gamma=-0.5)
    assert SegmentWeight1D([seg2]).mass(-1.0, 1.0) == pytest.approx(
        4.0, abs=1e-14)


def test_power_segment_mass_vs_quadrature():
    seg = Segment(1.0, 3.0, "power", a=1.5, gamma=-0.25, c=2.0)
    ref, _ = quad(lambda x: 2.0 * abs(x - 1.5) ** -0.25, 1.0, 3.0,
                  points=[1.5], limit=200)
    assert SegmentWeight1D([seg]).mass(1.0, 3.0) == pytest.approx(
        ref, rel=1e-9)


def test_exp_segment_mass():
    seg = Segment(-1.0, 2.0, "exp", c=3.0, s=0.5)
    ref = 3.0 / 0.5 * (math.exp(1.0) - math.exp(-0.5))
    assert SegmentWeight1D([seg]).mass(-1.0, 2.0) == pytest.approx(
        ref, rel=1e-14)


def test_segment_scaled_matches_substitution():
    seg = Segment(1.0, 4.0, "power", a=2.0, gamma=0.5)
    for lam in (2.0, -0.5):
        sc = seg.scaled(lam)
        for x in np.linspace(min(1 / lam, 4 / lam) + 0.01,
                             max(1 / lam, 4 / lam) - 0.01, 7):
            assert sc.value(x) == pytest.approx(seg.value(lam * x), rel=1e-12)


def test_weight_powered_and_scaled():
    w = power_weight(0.5, -4.0, 4.0)
    w_inv = w.powered(-1.0)
    assert w_inv.mass(1.0, 2.0) == pytest.approx(
        2.0 * (math.sqrt(2.0) - 1.0), rel=1e-13)
    w2 = w.scaled_argument(2.0)          # |2x|^{1/2}
    assert w2.value(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert w2.mass(0.0, 1.0) == pytest.approx(
        math.sqrt(2.0) * 2.0 / 3.0, rel=1e-13)


def test_powered_pieces_integrate_away_from_the_singular_point():
    # |x|^-1 and |x|^-2 pieces: finite closed forms off 0, inf through it;
    # a weight's own pieces still need gamma > -1
    w = power_weight(1.0, -4.0, 4.0)
    inv, singular = w.powered_pieces(-1.0)
    assert [s.gamma for s in singular] == [-1.0]
    assert inv.mass(1.0, 3.0) == pytest.approx(math.log(3.0), rel=1e-14)
    assert inv.mass(-3.0, -1.0) == pytest.approx(math.log(3.0), rel=1e-14)
    assert inv.mass(-1.0, 1.0) == math.inf and inv.mass(0.0, 1.0) == math.inf
    inv2, _ = w.powered_pieces(-2.0)
    assert inv2.mass(1.0, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert inv2.mass(1.0, 2.0, EXP_ABS) == pytest.approx(
        quad(lambda x: math.exp(x) / x ** 2, 1.0, 2.0)[0], rel=1e-9)
    assert inv2.mass(-1.0, 0.0, EXP_ABS) == math.inf
    assert w.powered_pieces(0.5)[1] == []
    with pytest.raises(ValueError, match="not integrable"):
        power_weight(-1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="not integrable"):
        SegmentWeight1D.from_json_dict({"segments": [
            {"lo": -1.0, "hi": 1.0, "form": "power", "gamma": -1.5}]})


def test_powered_pieces_report_witness():
    w = power_weight(1.0, -2.0, 2.0)     # |x|, inverse is non-integrable
    _, singular = w.powered_pieces(-1.0)
    assert [(s.a, s.gamma) for s in singular] == [(0.0, -1.0)]
    powered, singular = w.powered_pieces(-0.5)
    assert singular == [] and powered.segments[0].gamma == -0.5


def test_exp_measure_of_intervals():
    one = constant_weight(1.0, -10.0, 10.0)
    # straddling the origin: e^{|x|} integrates to (e^b - 1) + (e^a... ) parts
    val = one.mass(-1.0, 2.0, EXP_ABS)
    ref = (math.e - 1.0) + (math.exp(2.0) - 1.0)
    assert val == pytest.approx(ref, rel=1e-13)
    val = one.mass(2.0, 5.0, EXP_ABS)
    assert val == pytest.approx(math.exp(5.0) - math.exp(2.0), rel=1e-13)


@pytest.mark.parametrize("a, b", [(-3.0, -1.0), (-1.0, 2.0),
                                  (0.5, 0.5 + 1e-8), (0.0, 25.0)])
def test_exp_measure_of_constant_piece_is_closed_form(a, b):
    seg = constant_weight(2.5, -30.0, 30.0).segments[0]
    ref = quad(lambda x: 2.5 * math.exp(abs(x)), a, b,
               points=[0.0] if a < 0.0 < b else None,
               epsabs=0.0, epsrel=1e-13)[0]
    assert SegmentWeight1D([seg]).mass(a, b, EXP_ABS) == pytest.approx(
        ref, rel=1e-13)


def test_exp_measure_of_power_piece_keeps_its_quadrature_bits():
    # gamma != 0 has no closed form against e^|x|: adaptive quadrature,
    # with scipy imported on first use
    w = power_weight(0.5, -4.0, 4.0, c=3.0)
    assert w.mass(-1.0, 2.0, EXP_ABS).hex() == "0x1.9159ff50e678fp+4"
    assert w.mass(0.25, 3.0, EXP_ABS).hex() == "0x1.488c783f41cf9p+6"
    assert power_weight(-0.5, -4.0, 4.0).mass(-2.0, 1.0, EXP_ABS).hex() == \
        "0x1.339d9b24d646fp+3"


def test_exp_weight_in_exp_measure_closed_form():
    w = SegmentWeight1D([Segment(-30.0, 0.0, "exp", s=-1.0),
                         Segment(0.0, 30.0, "exp", s=1.0)])
    # integral of e^{|x|} e^{|x|} over (0, h) = (e^{2h} - 1)/2
    val = w.mass(0.0, 3.0, EXP_ABS)
    assert val == pytest.approx((math.exp(6.0) - 1.0) / 2.0, rel=1e-13)


@pytest.mark.parametrize("weight, bits", [
    (constant_weight(1.0, 0.0, 1000.0), "0x1.0c3d3920862c9p+36"),
    (SegmentWeight1D([Segment(0.0, 1000.0, "exp", s=1.0)]),
     "0x1.19103e4080b45p+71"),
    (power_weight(0.5, 0.0, 1000.0), "0x1.4873297c6c5efp+38"),
], ids=["constant", "exp", "power-quadrature"])
def test_exp_measure_overflow_names_the_interval(weight, bits):
    # over [0, 25] the mass keeps its bits; over [600, 1000] it leaves the
    # float range in every piece form (math.exp raises for a constant
    # piece and in the quadrature's integrand, np.exp gives inf - inf for
    # an exp piece), and each says where
    assert weight.mass(0.0, 25.0, EXP_ABS).hex() == bits
    with pytest.raises(ValueError,
                       match=r"mass over \[600.0, 1000.0\] overflows"):
        weight.mass(600.0, 1000.0, EXP_ABS)


@pytest.mark.parametrize("weight, bits", [
    (SegmentWeight1D([Segment(0.0, 1000.0, "exp", s=1.0)]),
     "0x1.0c3d3920862c8p+36"),
    (power_weight(0.5, 0.0, 1000.0, c=1e306), "0x1.daaeb3488f90bp+1022"),
], ids=["exp", "power"])
def test_lebesgue_overflow_names_the_interval(weight, bits):
    # over [0, 25] the mass keeps its bits; over [600, 1000] the
    # antiderivative leaves the float range (inf - finite for the exp
    # piece, inf - inf for the power piece), which raises with no numpy
    # warning instead of returning inf or nan
    assert weight.mass(0.0, 25.0).hex() == bits
    with pytest.raises(ValueError,
                       match=r"^the mass over \[600.0, 1000.0\] overflows"):
        weight.mass(600.0, 1000.0)


# pieces with gaps and touching bounds, and, within the overlap slack the
# constructor allows (1e-15 relative), a two-float piece that ends before
# the piece it starts in
_PIECES = [Segment(-9.0, -4.0, "exp", c=2.0, s=0.5),
           Segment(-4.0, -1.5, "power", c=1.5, a=-1.0, gamma=0.0),
           Segment(-1.0, 2.0, "exp", c=0.5, s=-1.25),
           Segment(2.0 - 4 * 2.0 ** -52, 2.0 - 2 * 2.0 ** -52, "power",
                   c=1.0, a=-1.0, gamma=0.0),
           Segment(2.0, 3.0, "power", c=1.0, a=-1.0, gamma=0.0),
           Segment(4.0, 7.5, "exp", c=3.0, s=0.25)]


@pytest.mark.parametrize("measure", [LEBESGUE, EXP_ABS],
                         ids=["lebesgue", "exp-abs"])
def test_weight_mass_visits_only_the_meeting_segments(measure):
    # bit for bit the sum over every segment, whose misses add exact zeros
    w = SegmentWeight1D(_PIECES)
    bounds = sorted({x for seg in _PIECES for x in (seg.lo, seg.hi)})
    rng = np.random.default_rng(7)
    points = [-12.0, 0.0, 10.0] + bounds + rng.uniform(-11.0, 9.0, 60).tolist()
    pairs = [sorted(rng.choice(points, 2)) for _ in range(400)]
    pairs += [(x, x) for x in bounds] + [(lo, hi) for lo in bounds
                                         for hi in bounds if lo <= hi]
    for a, b in pairs:
        every = float(sum(SegmentWeight1D([seg]).mass(a, b, measure)
                          for seg in w.segments))
        assert w.mass(a, b, measure).hex() == every.hex(), (a, b)


@st.composite
def _pieces_and_intervals(draw, quad_free=False):
    """A weight of 1 to 4 pieces with gaps between them, and intervals from
    a pool of its piece ends, its singular points, points in its gaps and
    points outside its support.  quad_free keeps to pieces and intervals
    whose e^|x| mass needs no quadrature: constant and exp pieces, and
    singular pieces (gamma in [-2.5, -1]) with their singular point in the
    piece, met only by intervals through that point, whose mass is inf.
    Where no drawn interval qualifies, the whole pool's span stands in."""
    n = draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.floats(-6.0, 6.0), min_size=2 * n,
                                max_size=2 * n, unique=True)))
    pieces = []
    for lo, hi in zip(cuts[0::2], cuts[1::2]):
        c = draw(st.floats(0.1, 4.0))
        kind = draw(st.sampled_from(
            ["constant", "exp", "singular"] if quad_free
            else ["power", "exp", "singular", "log"]))
        if kind == "exp":
            pieces.append(Segment(lo, hi, "exp", c=c,
                                  s=draw(st.sampled_from([0.0, 0.5, -1.25, 3.0]))))
            continue
        a = draw(st.sampled_from([lo, hi, 0.5 * (lo + hi)] if quad_free
                                 else [lo, hi, 0.5 * (lo + hi), lo - 1.0]))
        gamma = {"constant": 0.0, "log": -1.0,
                 "power": draw(st.floats(-0.99, 2.99)),
                 "singular": draw(st.floats(-2.5, -1.0))}[kind]
        pieces.append(Segment(lo, hi, "power", c=c, a=a, gamma=gamma))
    pool = cuts + [p.a for p in pieces] + [0.5 * (x + y) for x, y in
                                          zip(cuts, cuts[1:])]
    pool += [cuts[0] - 2.0, cuts[-1] + 2.0]
    pairs = [tuple(sorted(p)) for p in draw(st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
        min_size=1, max_size=12))]
    if quad_free:
        singular = [p for p in pieces if p.form == "power" and p.gamma != 0.0]
        pairs = [(x, y) for x, y in pairs
                 if all(min(y, p.hi) <= max(x, p.lo) or p.singular_in(x, y)
                        for p in singular)] or [(pool[-2], pool[-1])]
    a, b = zip(*pairs)
    return SegmentWeight1D(pieces), list(a), list(b)


def _same_masses(w, a, b, measure):
    want, want_overflow = segment_masses(w, a, b, measure)
    got, overflow = w.masses(np.array(a), np.array(b), measure)
    assert overflow == want_overflow
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


@settings(max_examples=300, deadline=None)
@given(_pieces_and_intervals())
def test_masses_match_the_scalar_path_bit_for_bit(case):
    """Every interval's mass has the bits of the one-interval scalar path:
    power pieces (gamma in (-1, 3)), exp pieces, and powered pieces with
    gamma <= -1, which give inf through their singular point."""
    _same_masses(*case, LEBESGUE)


@settings(max_examples=100, deadline=None)
@given(_pieces_and_intervals(quad_free=True))
def test_exp_measure_masses_match_the_scalar_path(case):
    """Under e^|x| every mass, inf through a singular point included, has
    the bits of the one-interval scalar path, and none takes quadrature."""
    with mock.patch.object(integrate, "quad", wraps=integrate.quad) as spy:
        _same_masses(*case, EXP_ABS)
    assert not spy.called


def test_masses_of_a_lattice_mark_each_overflow():
    # e^x on [0, 1000]: the lattice's last interval overflows, the others
    # keep their one-interval bits, and only mass raises
    w = SegmentWeight1D([Segment(0.0, 1000.0, "exp", s=1.0)])
    a = np.array([0.0, 200.0, 400.0, 600.0])
    masses, overflow = w.masses(a, a + 200.0)
    assert overflow == {
        3: "the mass over [600.0, 800.0] overflows the float range"}
    assert math.isnan(masses[3])
    assert [m.hex() for m in masses[:3].tolist()] == \
        [w.mass(x, x + 200.0).hex() for x in a[:3].tolist()]
    with pytest.raises(ValueError, match=r"^the mass over \[600.0, 800.0\]"):
        w.mass(600.0, 800.0)


def test_measure_is_frozen_and_hashable():
    # A dataclass default must be hashable on Python >= 3.11; ClassSpec
    # shares LEBESGUE as one, so it must also be immutable.
    assert hash(Measure("lebesgue")) == hash(LEBESGUE)
    assert len({LEBESGUE, Measure("lebesgue"), EXP_ABS}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        LEBESGUE.kind = "exp_abs"
    with pytest.raises(ValueError):
        Measure("gaussian")


def test_package_imports_in_fresh_interpreter(tmp_path):
    # In-process imports can succeed on modules that an earlier failed
    # package import left in sys.modules, so import in a new interpreter.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", "import weightlab, weightlab.cli"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_weight_json_roundtrip():
    w = power_weight(-0.25, -8.0, 8.0, a=1.0, c=2.0)
    w2 = SegmentWeight1D.from_json_dict(w.to_json_dict())
    assert w2.mass(-3.0, 5.0) == pytest.approx(
        w.mass(-3.0, 5.0), rel=1e-15)


def test_compose_matrix_scalar_and_matrix():
    w = power_weight(0.5, -8.0, 8.0)
    for lam in (2.0, -1.0, 0.5):
        wa = compose_matrix(w, lam)
        for x in (-1.5, 0.3, 2.0):
            assert wa.value(x) == pytest.approx(w.value(lam * x), rel=1e-13)
    wa = compose_matrix(w, SquareMatrix.scalar(2.0))
    assert wa.value(1.0) == pytest.approx(w.value(2.0), rel=1e-13)


WX = power_weight(0.5, -4.0, 4.0)
WY = SegmentWeight1D([Segment(-4.0, 0.0, "exp", c=2.0, s=0.7),
                      Segment(0.0, 4.0, "power", c=1.5, a=1.0, gamma=-0.4)])


@pytest.mark.parametrize("A, want", [
    # w(Ax) = WX((Ax)_0) WY((Ax)_1), written out per axis
    ([[0.0, 1.0], [1.0, 0.0]], (WY.scaled_argument(1.0),
                                WX.scaled_argument(1.0))),
    ([[2.0, 0.0], [0.0, 0.5]], (WX.scaled_argument(2.0),
                                WY.scaled_argument(0.5))),
    ([[0.0, -1.0], [1.0, 0.0]], (WY.scaled_argument(1.0),
                                 WX.scaled_argument(-1.0))),
], ids=["swap", "diag", "quarter-turn"])
def test_compose_matrix_product_weight(A, want):
    got = compose_matrix((WX, WY), A)
    assert [w.segments for w in got] == [w.segments for w in want]
    A = np.asarray(A)
    for x in ((0.3, -1.2), (-0.7, 1.9), (1.1, 0.45)):
        y = A @ x
        assert got[0].value(x[0]) * got[1].value(x[1]) == pytest.approx(
            WX.value(y[0]) * WY.value(y[1]), rel=1e-13)


def test_compose_matrix_rejects_shear_and_wrong_dimension():
    with pytest.raises(DomainError, match="diagonal or antidiagonal"):
        compose_matrix((WX, WY), [[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="dimension 1"):
        compose_matrix(WX, [[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="dimension 2"):
        compose_matrix((WX, WY), SquareMatrix.scalar(2.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_square_matrix_rejects_non_finite_entries(value):
    with pytest.raises(ValueError, match="finite"):
        SquareMatrix([[1.0, 0.0], [value, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        SquareMatrix.scalar(value)


@pytest.mark.parametrize("n", [0, -3])
def test_cell_averages_need_a_cell(n):
    with pytest.raises(ValueError, match="at least one cell"):
        WX.cell_averages(0.0, 1.0, n)


# ---------------------------------------------------------------------------
# matrices, cubes, families
# ---------------------------------------------------------------------------

def test_matrix_inverse_and_det():
    A = SquareMatrix([[0.0, -2.0], [0.5, 0.0]])
    assert A.det == pytest.approx(1.0)
    x = (1.0, 2.0)
    y = A.apply(x)
    back = A.inverse().apply(y)
    assert back[0] == pytest.approx(x[0]) and back[1] == pytest.approx(x[1])


def test_matrix_json_forms():
    nested = SquareMatrix.from_json_dict({"entries": [[0.0, -2.0], [0.5, 0.0]]})
    flat = SquareMatrix.from_json_dict({"dim": 2, "entries": [0.0, -2.0, 0.5, 0.0]})
    assert nested.dim == 2
    np.testing.assert_array_equal(nested.entries, flat.entries)
    with pytest.raises(ValueError):
        SquareMatrix.from_json_dict({"entries": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]})


def test_matrix_order():
    assert SquareMatrix.scalar(-1.0).order() == 2
    assert SquareMatrix([[0.0, -1.0], [1.0, 0.0]]).order() == 4
    assert SquareMatrix.scalar(2.0).order() is None


def test_cube_bounds():
    q = Cube((1.0, 1.0), 2.0)
    assert q.bounds() == [(1.0, 3.0), (1.0, 3.0)]
    assert q.volume == 4.0


def test_family_cell_spans_alignment():
    fam = CubeFamily((0.0, 8.0), levels=(0, 3), shifts=2)
    n = 32
    total = 0
    for level, off, side, starts in fam.cell_spans(n):
        assert side in (32, 16, 8, 4)
        for s in starts:
            assert 0 <= s and s + side <= n
        total += len(starts)
    assert total == fam.count()


def test_family_count_and_enumeration_match():
    fam = CubeFamily((-4.0, 4.0), levels=(0, 4), shifts=3)
    assert fam.count() == len(list(fam.cubes()))


def test_family_json_roundtrip():
    fam = CubeFamily((-4.0, 4.0), levels=(1, 3), shifts=2)
    fam2 = CubeFamily.from_json_dict(fam.to_json_dict())
    assert fam2.count() == fam.count()


# ---------------------------------------------------------------------------
# grid functions: exact cube sums
# ---------------------------------------------------------------------------

def test_cube_sum_exact_100_random_cubes_1d():
    rng = np.random.default_rng(5)
    vals = rng.random(256)
    g = GridFunction((0.0, 1.0), vals)
    for _ in range(100):
        i0, i1 = sorted(rng.integers(0, 257, size=2))
        if i0 == i1:
            i1 += 1
            if i1 > 256:
                i0, i1 = 0, 1
        assert g.cube_sum(((i0, i1),)) == exact_span_sum(vals, ((i0, i1),))


def test_cube_sum_exact_random_cubes_2d():
    rng = np.random.default_rng(6)
    vals = rng.random((64, 64))
    g = GridFunction(((0.0, 0.0), (1.0, 1.0)), vals)
    for _ in range(100):
        i0, i1 = sorted(rng.integers(0, 65, size=2))
        j0, j1 = sorted(rng.integers(0, 65, size=2))
        i1 += i0 == i1
        j1 += j0 == j1
        if i1 > 64 or j1 > 64:
            continue
        span = ((i0, i1), (j0, j1))
        assert g.cube_sum(span) == exact_span_sum(vals, span)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2 ** 40), min_size=4, max_size=64),
       st.data())
def test_cube_sum_exact_property(ints, data):
    vals = np.asarray(ints, float) / 2.0 ** 20
    g = GridFunction((0.0, 1.0), vals)
    n = len(ints)
    i0 = data.draw(st.integers(0, n - 1))
    i1 = data.draw(st.integers(i0 + 1, n))
    assert g.cube_sum(((i0, i1),)) == exact_span_sum(vals, ((i0, i1),))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, sys.float_info.max), min_size=1, max_size=16),
       st.integers(-4, 4), st.sampled_from([40, 52, 53, 54, 60, 1100]))
def test_total_exceeds_matches_fraction_oracle(vals, step, shift):
    # thresholds at, and a few units of 2^-shift around, the exact average:
    # subnormal cells, sums past the float range and exact ties included
    total = sum(Fraction(v) for v in vals)
    avg = total / len(vals)
    thr = avg * (1 + Fraction(step, 2 ** shift)) + Fraction(step, 2 ** 1100)
    t = exact_totals(vals)[0]
    assert t == total * 2 ** 1075
    assert total_exceeds(t, len(vals), thr) == (avg > thr)
    assert total_exceeds(t, len(vals), avg) is False


# ---------------------------------------------------------------------------
# the labelled exact-sum kernel
# ---------------------------------------------------------------------------

# nonnegative floats across the whole range: subnormals, values near 1e300
# and the largest float, each side of 1
_WIDE_FLOATS = st.one_of(
    st.floats(0.0, 2.0 ** -1022),
    st.floats(2.0 ** -1022, 1e-300),
    st.floats(0.0, 4.0),
    st.floats(1e290, sys.float_info.max),
    st.sampled_from([0.0, -0.0, 1.0, 2.0 ** -53, 2.0 ** -106, 5e-324,
                     sys.float_info.max]))


def _fsum_or_overflow(cells):
    try:
        return math.fsum(cells)
    except OverflowError:
        return "overflow"


def _kernel_or_overflow(values, labels, n_labels):
    out = []
    for t in exact_totals(values, labels, n_labels):
        try:
            out.append(round_total(t))
        except OverflowError:
            out.append("overflow")
    return out


# mostly zeros of either sign, as in the proof chain's whole-grid passes,
# whose zero cells the kernel drops before binning
_ZERO_HEAVY = st.one_of(*[st.sampled_from([0.0, -0.0])] * 4, _WIDE_FLOATS)

# labels 0-2 mix zeros of both signs with a few nonzero cells; label 3
# holds only -0.0 and 0.0
_ZERO_HEAVY_CASE = ([(0.0, i % 3) for i in range(150)]
                    + [(-0.0, 3), (0.0, 3)] * 10
                    + [(-0.0, i % 3) for i in range(30)]
                    + [(1e-300, 0), (2.5, 1), (5e-324, 2), (1e300, 0),
                       (2.0 ** -53, 1)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.tuples(_WIDE_FLOATS, st.integers(0, 3)), max_size=60),
    st.lists(st.tuples(_ZERO_HEAVY, st.integers(0, 3)), max_size=60)))
@example(_ZERO_HEAVY_CASE)
def test_exact_sums_match_fsum_and_fraction_oracle(cells):
    values = np.array([v for v, _ in cells], dtype=float)
    labels = np.array([i for _, i in cells], dtype=int)
    got = _kernel_or_overflow(values, labels, 4)
    totals = exact_totals(values, labels, 4)
    for i in range(4):
        mine = values[labels == i].tolist()
        want = _fsum_or_overflow(mine)
        assert got[i] == want, (i, mine)
        exact = exact_sum(mine)
        assert totals[i] == exact * 2 ** 1075
        if want != "overflow":
            assert want == float(exact)
            assert math.copysign(1.0, got[i]) == math.copysign(1.0, want)


@pytest.mark.parametrize("cells, want", [
    ([1.0, 2.0 ** -53], 1.0),                       # tie: to even, down
    ([1.0, 2.0 ** -53, 2.0 ** -106], 1.0 + 2.0 ** -52),
    ([1.0 + 2.0 ** -52, 2.0 ** -53], 1.0 + 2.0 ** -51),   # tie: to even, up
    ([2.0 ** -1074] * 3, 3 * 2.0 ** -1074),         # subnormals add exactly
    ([1e300, 5e-324, 1e300], 2e300),
    ([-0.0, -0.0], 0.0),
    ([], 0.0),
])
def test_exact_sums_ties_and_edges(cells, want):
    got = exact_sums(np.array(cells, dtype=float))[0]
    assert got == want == math.fsum(cells)
    assert math.copysign(1.0, got) == math.copysign(1.0, math.fsum(cells))


def test_exact_sums_labels_edge_cases():
    # a label whose cells are all -0.0, an empty label, and one label on
    # both sides of the chunk boundary at 2^16 cells
    n = (1 << 16) + 40
    rng = np.random.default_rng(17)
    values = rng.random(n) ** 8 * 1e3
    labels = np.zeros(n, dtype=int)
    labels[(1 << 16) - 30:(1 << 16) + 30] = 1
    values[:5] = -0.0
    labels[:5] = 3
    got = exact_sums(values, labels, 4)
    assert got == [math.fsum(values[labels == i].tolist()) for i in range(4)]
    assert got[2] == 0.0 and got[3] == 0.0
    assert math.copysign(1.0, got[3]) == math.copysign(
        1.0, math.fsum(values[:5].tolist()))
    assert exact_sums(values)[0] == math.fsum(values.tolist())
    # first 2^16 cells, whole chunks, of zeros of either sign only, which
    # add nothing
    values[:1 << 16] = np.where(rng.random(1 << 16) < 0.5, 0.0, -0.0)
    got = exact_sums(values, labels, 4)
    assert got == [math.fsum(values[labels == i].tolist()) for i in range(4)]
    assert got[3] == 0.0 and exact_sums(values[:1 << 16])[0] == 0.0


@pytest.mark.parametrize("n, lo, hi", [((1 << 16) + 7, -30, 31),
                                       ((1 << 18) + 7, -11, -10)])
def test_exact_sums_full_chunks_of_full_precision_cells(n, lo, hi):
    # 53-bit values over 60 binades, then 2^18 of them in the lowest binade
    # of one bin: the bins hold thousands of cells whose halves fill their
    # bits, so a wider bin, a later split or a chunk longer than 2^16 cells
    # would round a bin sum
    rng = np.random.default_rng(23)
    values = np.ldexp(1.0 + rng.random(n), rng.integers(lo, hi, n))
    labels = rng.integers(0, 3, n)
    assert exact_totals(values)[0] == exact_sum(values) * 2 ** 1075
    assert exact_sums(values)[0] == math.fsum(values.tolist())
    assert exact_sums(values, labels, 3) == [
        math.fsum(values[labels == i].tolist()) for i in range(3)]


def test_exact_sums_many_labels_over_the_whole_range():
    # one cell per label, spread over every binade: the (label, bin)
    # pairs are renumbered, and each sum is its cell
    rng = np.random.default_rng(3)
    values = np.ldexp(rng.random(5000) + 0.5, rng.integers(-1074, 1023, 5000))
    assert exact_sums(values, np.arange(5000), 5000) == values.tolist()


def test_exact_sums_inf_nan_and_overflow():
    big = sys.float_info.max
    assert exact_sums([1.0, np.inf, 2.0]) == [math.fsum([1.0, np.inf, 2.0])]
    assert math.isnan(exact_sums([np.nan, np.inf])[0])
    assert exact_sums([np.inf, 1.0, 3.0], [0, 1, 1], 2) == [np.inf, 4.0]
    for cells in ([big, big], [big, 2.0 ** 970]):
        with pytest.raises(OverflowError):
            math.fsum(cells)
        with pytest.raises(OverflowError):
            exact_sums(cells)
    assert exact_sums([big, 2.0 ** 969]) == [math.fsum([big, 2.0 ** 969])]
    with pytest.raises(ValueError, match="nonnegative"):
        exact_sums([1.0, -2.0])


def _assert_label_sums(values, labels, n_labels):
    # each label's kernel total against the Fraction oracle, and rounded
    # against math.fsum; inf and nan labels against fsum's inf or nan
    totals = exact_totals(values, labels, n_labels)
    for i, total in enumerate(totals):
        cells = values[labels == i].tolist()
        want = math.fsum(cells)
        if not math.isfinite(want):
            assert isinstance(total, float), i
            assert total == want or math.isnan(total) and math.isnan(want), i
            continue
        assert total == exact_sum(cells) * 2 ** 1075, i
        assert round_total(total) == want, i
        assert math.copysign(1.0, round_total(total)) == \
            math.copysign(1.0, want), i


@pytest.mark.parametrize("n", [(1 << 14) - 1, 1 << 14, (1 << 14) + 1,
                               (1 << 16) + 1])
def test_exact_totals_at_chunk_seams(n):
    # 53-bit cells over 80 binades (every chunk spans several bins), with
    # label 1 on both sides of the seams at 2^14 and 2^16 cells as far as
    # the cells reach, and label 2 on the last cell alone
    rng = np.random.default_rng(n)
    values = np.ldexp(1.0 + rng.random(n), rng.integers(-40, 40, n))
    labels = np.zeros(n, dtype=np.intp)
    for seam in (1 << 14, 1 << 16):
        labels[seam - 20:seam + 20] = 1
    labels[-1] = 2
    _assert_label_sums(values, labels, 3)
    assert exact_totals(values)[0] == exact_sum(values) * 2 ** 1075


def test_exact_totals_one_key_chunks():
    # full chunks of 53-bit cells in the top binade of one bin, whose high
    # parts come near 2^37 each, one label per chunk: every chunk has one
    # (label, bin) key.  Then zero cells of another label: a chunk whose
    # nonzero cells share one key.  Then two bins in one label, and two
    # labels in one bin: two keys each
    rng = np.random.default_rng(29)
    chunk = 1 << 14
    values = np.ldexp(1.0 + rng.random(5 * chunk), 10)
    labels = np.repeat(np.array([0, 2, 1, 3, 3]), chunk)
    values[chunk:chunk + 300] = np.where(rng.random(300) < 0.5, 0.0, -0.0)
    labels[chunk:chunk + 300] = 4
    values[3 * chunk:4 * chunk:7] *= 2.0 ** 20     # the next bin up
    labels[4 * chunk::5] = 1
    _assert_label_sums(values, labels, 5)
    assert exact_totals(values[:chunk])[0] == \
        exact_sum(values[:chunk]) * 2 ** 1075


def test_exact_totals_renumbered_keys():
    # few cells whose (label, bin) keys spread far: the kernel renumbers
    # them, in one chunk and across a seam
    rng = np.random.default_rng(31)
    n = (1 << 14) + 6
    values = np.zeros(n)
    labels = np.zeros(n, dtype=np.intp)
    at = np.array([0, 1, 2, (1 << 14) - 1, 1 << 14, n - 1])
    values[at] = [1e-300, 1.0, 1e300, 5e-324, 2.0 ** 1000, 3.0]
    labels[at] = [0, 500, 999, 999, 0, 500]
    _assert_label_sums(values, labels, 1000)
    labels = rng.integers(0, 1000, n)
    values = np.ldexp(rng.random(n) + 0.5, rng.integers(-1074, 1023, n))
    _assert_label_sums(values, labels, 1000)


def test_exact_totals_signed_zero_subnormal_inf_and_nan_cells():
    # across a seam: -0.0 and subnormal cells, an inf in the second chunk,
    # a nan in the first, and a label with both
    rng = np.random.default_rng(37)
    n = (1 << 14) + 50
    values = rng.random(n)
    labels = rng.integers(0, 6, n)
    values[::3] = -0.0
    values[1::5] = 5e-324 * rng.integers(1, 1 << 20, values[1::5].size)
    values[labels == 5] = -0.0
    values[(1 << 14) + 3], labels[(1 << 14) + 3] = np.inf, 1
    values[100], labels[100] = np.nan, 2
    values[7], labels[7] = np.inf, 3
    values[(1 << 14) + 9], labels[(1 << 14) + 9] = np.nan, 3
    _assert_label_sums(values, labels, 6)
    totals = exact_totals(values, labels, 6)
    assert totals[1] == np.inf and math.isnan(totals[2])
    assert math.isnan(totals[3]) and totals[5] == 0
    assert math.copysign(1.0, round_total(totals[5])) == 1.0


# cells of four (label-free) bins: subnormals in bin 0, values near 1 in
# bin 46, near 2^20 in bin 47 and near 1e300 in bin 91
_KEY_BINS = (
    lambda rng, m: 5e-324 * rng.integers(1, 1 << 30, m),
    lambda rng, m: np.ldexp(1.0 + rng.random(m), rng.integers(-11, 10, m)),
    lambda rng, m: np.ldexp(1.0 + rng.random(m), rng.integers(11, 32, m)),
    lambda rng, m: np.ldexp(1.0 + rng.random(m), rng.integers(980, 1000, m)),
)


def _few_key_cells(rng):
    """A small chunk whose nonzero finite cells hold 1 to 3 (label, bin)
    keys, among zeros of either sign and at times an inf or a nan, with
    up to two labels left empty."""
    n_labels = int(rng.integers(1, 6))
    keys = int(rng.integers(1, 4))
    parts = []
    for _ in range(keys):
        m = int(rng.integers(1, 30))
        cells = _KEY_BINS[rng.integers(0, len(_KEY_BINS))](rng, m)
        parts.append((cells, np.full(m, rng.integers(0, n_labels))))
    m = int(rng.integers(0, 20))
    parts.append((np.where(rng.random(m) < 0.5, -0.0, 0.0),
                  rng.integers(0, n_labels, m)))
    odd = rng.random()
    if odd < 0.2:
        parts.append((np.array([np.inf if odd < 0.1 else np.nan]),
                      rng.integers(0, n_labels, 1)))
    values, labels = (np.concatenate(x) for x in zip(*parts))
    order = rng.permutation(values.size)
    return values[order], labels[order], n_labels


def _same_totals(a, b):
    return len(a) == len(b) and all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for x, y in zip(a, b))


def test_exact_totals_few_keys_add_as_the_lane_sums(monkeypatch):
    # a chunk of at most _FEW_KEYS (label, bin) keys adds them as Python
    # ints; on 400 small chunks of 1 to 3 keys, with subnormal, -0.0, inf
    # and nan cells and empty labels, its totals are those of the lane
    # sums' vectorized path (_FEW_KEYS = 0), the Fraction oracle's and,
    # rounded, math.fsum's per label.  Chunks whose keys span more than
    # _FEW_KEYS bins take the vectorized path anyway, so a spy counts the
    # chunks that added several keys as Python ints
    import weightlab.funcspace as funcspace
    rng = np.random.default_rng(43)
    keys = []                   # the keys each call adds as Python ints
    key_total = funcspace._key_total
    monkeypatch.setattr(funcspace, "_key_total",
                        lambda *a: keys.append(a) or key_total(*a))
    several = 0
    for _ in range(400):
        values, labels, n_labels = _few_key_cells(rng)
        keys.clear()
        few = exact_totals(values, labels, n_labels)
        several += len(keys) > 1
        with monkeypatch.context() as m:
            m.setattr(funcspace, "_FEW_KEYS", 0)
            lanes = exact_totals(values, labels, n_labels)
        assert _same_totals(few, lanes), (values, labels)
        _assert_label_sums(values, labels, n_labels)
        if n_labels == 1:
            assert _same_totals(exact_totals(values), few)
    assert several >= 100, several      # 126 chunks of 400


@pytest.mark.parametrize("labels, n_labels", [
    ([0, -1, 1], 2),                        # a negative label
    ([0, 2, 1], 2),                         # a label past n_labels
    (np.array([0.7, 1.2, 0.0]), 2),         # float labels
    ([0, 1], 2),                            # fewer labels than cells
])
def test_exact_totals_rejects_bad_labels(labels, n_labels):
    # before, a negative label's cells vanished, float labels truncated and
    # a label past n_labels raised a bare IndexError
    with pytest.raises(ValueError, match="labels"):
        exact_totals([1.0, 2.0, 4.0], labels, n_labels)
    with pytest.raises(ValueError, match="labels"):
        exact_sums([1.0, 2.0, 4.0], labels, n_labels)


def test_exact_totals_bad_label_on_a_zero_cell():
    # a zero cell adds nothing, but its label is still checked, past a seam
    values = np.ones((1 << 14) + 2)
    values[-1] = 0.0
    labels = np.zeros(values.size, dtype=np.intp)
    labels[-1] = 7
    with pytest.raises(ValueError, match="labels"):
        exact_totals(values, labels, 2)


def test_exact_totals_transient_memory_in_grids():
    # one labelled pass over a 512^2 grid of layers, as the proof chain's
    # whole-grid passes make: the kernel's temporaries live one chunk at a
    # time, about 0.51 grid at the peak (2.28 grids with chunks of 2^16
    # cells)
    rng = np.random.default_rng(41)
    values = rng.random((512, 512)) * 2.0
    values[40:90, 200:260] = 30.0
    labels = np.searchsorted([0.5, 1.0, 1.5, 20.0], values).astype(np.uint16)
    want = exact_totals(values, labels, 5)      # imports and caches stay out
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = exact_totals(values, labels, 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == want
    grids = peak / values.nbytes
    assert grids <= 0.75, grids


def test_round_total_divides_the_exact_total_once():
    big = sys.float_info.max
    # an overflowing sum with a finite average, and a subnormal average
    for cells, count in (([big] * 4, 4), ([3 * 2.0 ** -1074, 0.0], 4),
                         ([2.0 ** -1022, 2.0 ** -1074], 8)):
        total = exact_totals(np.array(cells))[0]
        assert round_total(total, count) == float(exact_sum(cells) / count)


@pytest.mark.parametrize("shape, side, starts", [
    ((32,), 4, (np.array([0, 5, 28, 5]),)),
    ((32,), 4, (slice(2, 29, 4),)),
    ((32,), 32, (slice(0, 1, 32),)),
    ((16, 16), 3, (np.array([0, 13, 7]), np.array([2, 0, 13]))),
    ((16, 16), 3, np.ix_(np.array([1, 9]), np.array([0, 4, 13]))),
    ((16, 16), 4, (slice(0, 13, 4), slice(1, 13, 4))),
    ((16, 16), 16, (np.array([0]), np.array([0]))),
], ids=["1d-index", "1d-lattice", "1d-whole", "2d-index", "2d-broadcast",
        "2d-lattice", "2d-whole"])
def test_span_rows_and_totals_gather_each_span(shape, side, starts):
    # one row per span in index or lattice order, each the span's cells in
    # row-major order, C-contiguous, with the row sum of the span alone;
    # each total is the span's exact sum
    rng = np.random.default_rng(41)
    values = np.ldexp(rng.random(shape), rng.integers(-60, 60, shape))
    if isinstance(starts[0], slice):
        firsts = itertools.product(*(range(n - side + 1)[s]
                                     for s, n in zip(starts, shape)))
    else:
        firsts = zip(*(a.ravel().tolist()
                       for a in np.broadcast_arrays(*starts)))
    spans = [tuple((i, i + side) for i in first) for first in firsts]
    rows = span_rows(values, starts, (side,) * len(shape))
    totals = span_totals(values, starts, (side,) * len(shape))
    assert rows.shape == (len(spans), side ** len(shape))
    assert len(totals) == len(spans)
    sums = rows.sum(axis=1).tolist()
    for row, row_sum, total, span in zip(rows, sums, totals, spans):
        cells = exact_cells(values, span)
        assert row.flags.c_contiguous and row.tolist() == cells.tolist()
        assert row_sum.hex() == float(np.sum(values[slices(span)])).hex()
        assert total == exact_sum(cells) * 2 ** 1075


def test_grid_rejects_negative_and_rectangular():
    with pytest.raises(ValueError):
        GridFunction((0.0, 1.0), np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        GridFunction(((0.0, 0.0), (2.0, 1.0)), np.ones((4, 4)))


def test_span_of_cube_alignment_and_clip():
    g = GridFunction((0.0, 2.0), np.ones(16))
    assert g.span_of_cube(Cube((0.5,), 0.5)) == ((4, 8),)
    with pytest.raises(ValueError):
        g.span_of_cube(Cube((0.3,), 0.5))
    with pytest.raises(DomainError):
        g.span_of_cube(Cube((1.5,), 1.0))
    assert g.span_of_cube(Cube((1.5,), 1.0), clip=True) == ((12, 16),)


def test_sample_to_grid_is_exact_cell_average():
    w = power_weight(0.5, -4.0, 4.0)
    g = sample_to_grid(w, (0.0, 2.0), 8)
    h = 0.25
    for i in range(8):
        ref = w.mass(i * h, (i + 1) * h) / h
        assert g.values[i] == pytest.approx(ref, rel=1e-14)


def test_sample_product_grid():
    wx = power_weight(0.5, -4.0, 4.0)
    wy = constant_weight(2.0, -4.0, 4.0)
    g = sample_to_grid((wx, wy), ((0.0, 0.0), (2.0, 2.0)), 8)
    assert g.values[3, 5] == pytest.approx(
        (wx.mass(0.75, 1.0) / 0.25) * 2.0, rel=1e-13)


@pytest.mark.parametrize("w, box", [
    ((power_weight(0.5, -4.0, 4.0), constant_weight(2.0, -4.0, 4.0)),
     (0.0, 2.0)),
    (power_weight(0.5, -4.0, 4.0), ((0.0, 0.0), (2.0, 2.0))),
], ids=["1D-box-two-factors", "2D-box-one-factor"])
def test_sample_to_grid_needs_one_factor_per_axis(w, box):
    got = len(w) if isinstance(w, tuple) else 1
    with pytest.raises(ValueError, match=f"needs one weight factor per "
                                         f"axis, got {got}"):
        sample_to_grid(w, box, 8)


def test_cell_of_point_and_centers():
    g = GridFunction((0.0, 2.0), np.ones(8))
    assert g.cell_of_point(0.3) == (1,)
    assert g.cell_of_point(2.0) == (7,)      # right edge folds into last cell
    assert g.cell_of_point(2.5) is None
    assert g.cell_centers(0)[0] == pytest.approx(0.125)
