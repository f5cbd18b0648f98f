"""Young functions, Luxemburg norms, growth integrals.

The independent oracle for every norm claim is a from-scratch bisection on
the mean functional in ``reference.py`` (scipy brentq on G(lam) - 1), so
the library's closed forms and its own bisection are both checked against
arithmetic that shares no code with them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from weightlab.funcspace import Cube, GridFunction, power_weight, sample_to_grid
from weightlab.young import (
    BpReport,
    YoungFn,
    bp_integral,
    complementary,
    holder_defect,
    luxemburg_norm,
    luxemburg_norm_of_values,
)
from reference import oracle_norm


# ---------------------------------------------------------------------------
# complements
# ---------------------------------------------------------------------------

def test_complement_of_square_closed_form():
    phi = YoungFn.power(2.0)
    bar = complementary(phi)
    # derived by hand: complement of t^2 is s^2/4
    for s in (0.5, 1.0, 3.0):
        assert bar(s) == pytest.approx(s * s / 4.0, rel=1e-14)


def test_complement_closed_form_matches_legendre_numeric():
    phi = YoungFn.power(1.75, c=2.0)
    bar_closed = complementary(phi)
    bar_numeric = YoungFn("legendre_of", base=phi)
    for s in (0.3, 1.0, 4.0, 20.0):
        assert bar_numeric(s) == pytest.approx(bar_closed(s), rel=1e-6)


def test_complement_involution_and_identity_pair():
    phi = YoungFn.power(3.0)
    assert complementary(complementary(phi))(2.0) == pytest.approx(
        phi(2.0), rel=1e-12)
    assert complementary(YoungFn.identity()).kind == "sup"
    assert complementary(YoungFn("sup")).kind == "identity"


@settings(max_examples=30, deadline=None)
@given(st.floats(1.1, 6.0), st.floats(0.01, 50.0), st.floats(0.01, 50.0))
def test_youngs_inequality_power_pairs(r, a, b):
    phi = YoungFn.power(r)
    bar = complementary(phi)
    assert a * b <= phi(a) + bar(b) + 1e-9 * (1 + phi(a) + bar(b))


def test_youngs_inequality_exp_kind():
    phi = YoungFn.exp_minus_one()
    bar = complementary(phi)
    for a in (0.2, 1.0, 3.0):
        for b in (0.5, 2.0, 10.0):
            assert a * b <= phi(a) + bar(b) + 1e-6 * (1 + phi(a) + bar(b))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.0, 1.0))
def test_convexity_of_kinds(x, y, theta):
    for phi in (YoungFn.power(2.5), YoungFn.power_log(1.5, 1.0),
                YoungFn.exp_minus_one()):
        mid = phi(theta * x + (1 - theta) * y)
        chord = theta * phi(x) + (1 - theta) * phi(y)
        assert mid <= chord + 1e-9 * (1.0 + abs(chord))


def test_bump_exponent_value():
    phi = YoungFn.bump_exponent(p=2.0, eps=0.5)
    # p/(p+eps-1) = 2/1.5 = 4/3
    assert phi.r == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert phi == YoungFn.power(4.0 / 3.0)
    with pytest.raises(ValueError):
        YoungFn.bump_exponent(p=2.0, eps=2.0)


# ---------------------------------------------------------------------------
# Luxemburg norms
# ---------------------------------------------------------------------------

def test_norm_identity_is_mean():
    vals = np.array([0.5, 2.0, 0.0, 1.0])
    assert luxemburg_norm_of_values(vals, YoungFn.identity()) == pytest.approx(
        0.875, rel=1e-15)


def test_norm_power_closed_form_vs_oracle():
    rng = np.random.default_rng(3)
    for r in (1.5, 2.0, 3.0):
        phi = YoungFn.power(r)
        vals = rng.random(40) * 3.0
        got = luxemburg_norm_of_values(vals, phi)
        ref = (np.mean(vals ** r)) ** (1.0 / r)
        assert got == pytest.approx(ref, rel=1e-14)
        assert got == pytest.approx(oracle_norm(vals, phi), rel=1e-10)


def test_norm_sup_kind():
    vals = np.array([0.25, 3.5, 1.0])
    assert luxemburg_norm_of_values(vals, YoungFn("sup")) == 3.5


def test_norm_bisection_path_vs_oracle():
    rng = np.random.default_rng(4)
    vals = rng.random(30) * 2.0 + 0.1
    for phi in (YoungFn.power_log(1.5, 1.0), YoungFn.exp_minus_one(),
                complementary(YoungFn.exp_minus_one())):
        got = luxemburg_norm_of_values(vals, phi)
        assert got == pytest.approx(oracle_norm(vals, phi), rel=1e-8)


def test_norm_total_cells_padding():
    vals = np.array([2.0, 2.0])
    phi = YoungFn.power(2.0)
    got = luxemburg_norm_of_values(vals, phi, total_cells=8)
    ref = (4.0 * 2 / 8) ** 0.5
    assert got == pytest.approx(ref, rel=1e-14)
    assert got == pytest.approx(oracle_norm(vals, phi, total_cells=8), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20),
       st.floats(0.25, 8.0))
def test_norm_positive_homogeneity(vals, c):
    vals = np.asarray(vals)
    for phi in (YoungFn.power(2.0), YoungFn.exp_minus_one()):
        n1 = luxemburg_norm_of_values(vals * c, phi)
        n0 = luxemburg_norm_of_values(vals, phi)
        if math.isfinite(n0) and n0 > 0:
            assert n1 == pytest.approx(c * n0, rel=1e-6)


def test_grid_norm_matches_values_norm():
    rng = np.random.default_rng(5)
    vals = rng.random(64)
    g = GridFunction((0.0, 4.0), vals)
    for phi in (YoungFn.identity(), YoungFn.power(2.0),
                YoungFn.power(3.0, c=3.0), YoungFn.power_log(1.5, 1.0),
                YoungFn("sup")):
        for i, n in ((16, 16), (20, 8)):
            got = luxemburg_norm(g, Cube((i / 16,), n / 16), phi)
            assert got == luxemburg_norm_of_values(vals[i:i + n], phi), phi


def test_young_fn_from_json_reads_every_builtin_kind():
    assert YoungFn.from_json_dict({"kind": "sup"}) == YoungFn("sup")
    assert YoungFn.from_json_dict({"kind": "identity"}) == YoungFn.identity()
    assert YoungFn.from_json_dict({"kind": "exp_minus_one"}) == \
        YoungFn.exp_minus_one()
    with pytest.raises(ValueError, match="unknown young function kind"):
        YoungFn.from_json_dict({"kind": "legendre_of"})


IDENTITY_POINTS = [-0.0, 5e-324, 1e300, math.inf]


def test_identity_is_the_power_t_to_the_one():
    phi = YoungFn.identity()
    assert (phi.r, phi.c) == (1.0, 1.0) and phi.is_homogeneous
    assert phi.exponent == 1.0
    # bit for bit t, the sign of -0.0 and a subnormal included, one point
    # at a time and as one array
    for t in IDENTITY_POINTS:
        assert phi(t).hex() == t.hex()
        assert phi.derivative(t) == 1.0
    ts = np.array(IDENTITY_POINTS)
    assert phi(ts).view(np.int64).tolist() == ts.view(np.int64).tolist()
    assert phi.derivative(ts).tolist() == [1.0] * len(IDENTITY_POINTS)


def test_grid_norm_cube_beyond_box_pads_zeros():
    vals = np.ones(8)
    g = GridFunction((0.0, 2.0), vals)
    phi = YoungFn.power(2.0)
    # [1, 3) has half its cells beyond the grid, counted as zeros
    got = luxemburg_norm(g, Cube((1.0,), 2.0), phi)
    assert got == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_analytic_norm_power_phi_exact():
    w = power_weight(0.5, -4.0, 4.0)
    phi = YoungFn.power(2.0)
    # avg over (0,2) of w^2 = avg of x = 1, norm = 1
    got = luxemburg_norm(w, Cube((0.0,), 2.0), phi)
    assert got == pytest.approx(1.0, rel=1e-13)


def test_analytic_norm_nonhomogeneous_vs_fine_grid():
    w = power_weight(-0.25, -4.0, 4.0)
    phi = YoungFn.power_log(1.5, 1.0)
    got = luxemburg_norm(w, Cube((0.5,), 1.0), phi)
    g = sample_to_grid(w, (0.5, 1.5), 4096)
    ref = luxemburg_norm_of_values(g.values, phi)
    assert got == pytest.approx(ref, rel=1e-5)


def test_analytic_norm_sup_phi_is_the_largest_value():
    # sqrt(x) on [1, 4] peaks at 2, exactly
    w = power_weight(0.5, -4.0, 4.0)
    assert luxemburg_norm(w, (1.0, 4.0), YoungFn("sup")) == 2.0


def test_analytic_norm_nonintegrable_power_is_inf():
    w = power_weight(-0.75, -4.0, 4.0)
    phi = YoungFn.power(2.0)   # w^2 = |x|^{-1.5} not integrable through 0
    assert luxemburg_norm(w, Cube((-1.0,), 2.0), phi) == math.inf


@pytest.mark.parametrize("phi", [YoungFn.exp_minus_one(),
                                 YoungFn.power_log(1.5, 1.0)],
                         ids=["exp", "power-log"])
def test_analytic_norm_nonintegrable_weight_nonhomogeneous_phi_is_inf(phi):
    # |x|^{-1.5} has infinite mass through 0, and every Young function
    # grows at least linearly, so the norm is inf (the bisection would
    # start from an infinite average and never close)
    w = power_weight(0.5, -4.0, 4.0).powered_pieces(-3.0)[0]
    assert luxemburg_norm(w, Cube((-1.0,), 1.5), phi) == math.inf


def test_analytic_norm_exp_of_unbounded_weight_is_inf():
    # |x|^(-1/2) is integrable, but exp(|x|^(-1/2) / lam) is not at 0 for
    # any lam; away from 0 the bisection's value keeps its bits
    w = power_weight(-0.5, -4.0, 4.0)
    phi = YoungFn.exp_minus_one()
    assert luxemburg_norm(w, (-1.0, 1.0), phi) == math.inf
    assert luxemburg_norm(w, (0.0, 1.0), phi) == math.inf
    assert luxemburg_norm(w, (0.5, 1.0), phi).hex() == "0x1.b2339b4f9c8eap+0"


def test_analytic_norm_off_the_singularity_closed_form():
    # w^2 = |x|^{-1.5} is integrable on [1, 3], away from 0: the norm is
    # (avg x^-1.5)^(1/2) = (1 - 3^(-1/2))^(1/2); a cube ending at 0 is inf
    w = power_weight(-0.75, -4.0, 4.0)
    phi = YoungFn.power(2.0)
    got = luxemburg_norm(w, Cube((1.0,), 2.0), phi)
    assert got == pytest.approx(math.sqrt(1.0 - 3.0 ** -0.5), rel=1e-13)
    assert luxemburg_norm(w, Cube((-2.0,), 2.0), phi) == math.inf


# ---------------------------------------------------------------------------
# B_p integrals
# ---------------------------------------------------------------------------

def test_bp_power_closed_form():
    # integral of t^r / t^{p+1} from 1 to inf = 1/(p-r)
    rep = bp_integral(YoungFn.power(1.5), 2.0)
    assert rep.converges is True
    assert rep.total == pytest.approx(2.0, rel=1e-10)


def test_bp_vs_quadrature_power_log():
    phi = YoungFn.power_log(1.5, 1.0)
    p = 2.5
    rep = bp_integral(phi, p, T=2.0 ** 24)
    # substitute t = e^u so the oracle integrand decays on a short interval
    ref, _ = quad(lambda u: phi(math.exp(u)) * math.exp(-p * u),
                  0.0, 24.0 * math.log(2.0), limit=400)
    assert rep.value == pytest.approx(ref, rel=1e-8)
    assert rep.converges is True


def test_bp_identity_frozen():
    """The identity's B_2 integral and tail, frozen as hex."""
    rep = bp_integral(YoungFn.identity(), 2.0)
    assert rep.value.hex() == "0x1.fffffff7fffffp-1"
    assert rep.tail.hex() == "0x1.0000000000000p-30"
    assert rep.converges is True


def test_bp_divergent_kinds():
    assert bp_integral(YoungFn.power(3.0), 2.0).converges is False
    assert bp_integral(YoungFn.exp_minus_one(), 5.0).converges is False
    with pytest.raises(ValueError):
        bp_integral(YoungFn.power(2.0), 1.0)


def test_bp_complement_of_exp_converges():
    rep = bp_integral(complementary(YoungFn.exp_minus_one()), 1.5)
    assert rep.converges is True
    assert math.isfinite(rep.value)


# ---------------------------------------------------------------------------
# generalized Holder
# ---------------------------------------------------------------------------

def test_holder_defect_nonnegative_random():
    rng = np.random.default_rng(6)
    for phi in (YoungFn.power(2.0), YoungFn.power(1.5),
                YoungFn.exp_minus_one()):
        for _ in range(5):
            f = GridFunction((0.0, 1.0), rng.random(32))
            g = GridFunction((0.0, 1.0), rng.random(32))
            d = holder_defect(f, g, Cube((0.0,), 1.0), phi)
            assert d >= -1e-9


def test_holder_defect_near_tight_for_conjugate_powers():
    # f = g^{1/(r-1)} makes plain Holder tight; the factor 2 leaves slack < 2x
    n = 64
    x = (np.arange(n) + 0.5) / n
    phi = YoungFn.power(2.0)
    f = GridFunction((0.0, 1.0), x)
    g = GridFunction((0.0, 1.0), x)
    d = holder_defect(f, g, Cube((0.0,), 1.0), phi)
    avg_fg = np.mean(x * x)
    # the pair is exactly extremal, so the defect sits at rounding level
    assert -1e-12 <= d <= 2.0 * avg_fg * 2.0


def test_holder_defect_shape_mismatch():
    f = GridFunction((0.0, 1.0), np.ones(8))
    g = GridFunction((0.0, 1.0), np.ones(16))
    with pytest.raises(ValueError):
        holder_defect(f, g, Cube((0.0,), 1.0), YoungFn.power(2.0))
