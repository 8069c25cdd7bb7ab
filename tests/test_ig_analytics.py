import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import erf

from goupsim import ig_analytics
from goupsim.ig_analytics import (
    DensityCurve,
    basepoint_cdf,
    basepoint_density,
    bridge_density,
    default_z_grid,
    _g_tail,
    hit_under_density,
    ig_marginal_density,
    running_max_density,
    triple_density,
    write_cdf_csv,
    write_density_csv,
)
from quadrature import (
    QuadratureSpec,
    integrate_adaptive,
    integrate_semi_infinite,
    integrate_sqrt_endpoint,
)
from conftest import hit_under_negative_level, hit_under_y_mass

SPEC = QuadratureSpec()


# ---------------------------------------------------------------------------
# marginal density


def test_ig_marginal_point_value():
    expected = 1.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5)
    assert abs(expected - 0.241971) < 1e-6
    assert abs(ig_marginal_density(1.0, 1.0) - expected) <= 1e-15


def test_ig_marginal_supports():
    assert ig_marginal_density(1.0, -2.0) == 0.0
    assert ig_marginal_density(1.0, 0.0) == 0.0
    assert ig_marginal_density(-1.0, 2.0) == 0.0
    # negative times mirror
    assert ig_marginal_density(-1.5, -2.0) == ig_marginal_density(1.5, 2.0)
    with pytest.raises(ValueError):
        ig_marginal_density(0.0, 1.0)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_ig_marginal_normalization(t):
    body = integrate_adaptive(lambda v: ig_marginal_density(t, v), t * t / 1400.0, 10.0, SPEC)
    tail = integrate_semi_infinite(lambda v: ig_marginal_density(t, v), 10.0, SPEC)
    assert abs(body.value + tail.value - 1.0) <= 1e-6


def test_ig_marginal_against_first_passage_sampling():
    # 1/Z^2 for standard normal Z is exactly the t=1 law; histogram check
    rng = np.random.default_rng(42)
    z = rng.standard_normal(10**5)
    draws = 1.0 / (z * z)
    edges = np.array([0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0])
    counts, _ = np.histogram(draws, edges)
    # a correct draw fails at least one of the 7 per-bin 3-sigma bounds 1.8%
    # of the time (multinomial simulation over the exact masses, 2*10^5 draws)
    for i in range(edges.size - 1):
        mass = integrate_adaptive(
            lambda v: ig_marginal_density(1.0, v), edges[i], edges[i + 1], SPEC
        ).value
        se = math.sqrt(draws.size * mass * (1.0 - mass))
        assert abs(counts[i] - draws.size * mass) <= 3.0 * se


# ---------------------------------------------------------------------------
# triple density


def test_triple_density_supports_and_value():
    assert triple_density(1.0, 1.0, 1.5, 2.0) == 0.0  # undershoot above level
    assert triple_density(1.0, 0.0, 0.5, 2.0) == 0.0  # vanishing factor s
    assert triple_density(1.0, -1.0, 0.5, 2.0) == 0.0
    assert triple_density(1.0, 1.0, 0.5, 0.8) == 0.0  # overshoot below level
    expected = 1.0 / (2.0 * math.pi * math.sqrt(0.5**3 * 1.5**3)) * math.exp(-1.0)
    assert abs(expected - 0.0901) < 1e-4
    assert abs(triple_density(1.0, 1.0, 0.5, 2.0) - expected) <= 1e-15
    with pytest.raises(ValueError):
        triple_density(-1.0, 1.0, 0.5, 2.0)


def test_triple_reduces_to_hit_under():
    # integrating out the overshoot recovers the joint hitting/undershoot law
    for x in (0.5, 1.0, 4.0):
        for s in (0.3, 1.0):
            for y in (0.2 * x, 0.5 * x, 0.9 * x):
                got = integrate_semi_infinite(
                    lambda b: triple_density(x, s, y, b), x, SPEC
                ).value
                want = hit_under_density(x, s, y)
                assert abs(got - want) <= 1e-6 * max(1.0, want)


# ---------------------------------------------------------------------------
# hitting time and undershoot


def test_hit_under_point_value():
    expected = 1.0 / (math.pi * math.sqrt(0.5**3 * 0.5)) * math.exp(-1.0)
    assert abs(expected - 0.46839865219455334) < 1e-15
    assert abs(hit_under_density(1.0, 1.0, 0.5) - expected) <= 1e-15


def test_hit_under_supports():
    assert hit_under_density(1.0, 1.0, 1.5) == 0.0
    assert hit_under_density(1.0, 1.0, -0.25) == 0.0
    assert hit_under_density(1.0, -1.0, 0.5) == 0.0
    assert hit_under_density(0.0, 1.0, 0.5) == 0.0
    assert hit_under_density(1.0, 1.0, 1.0) == np.inf  # integrable boundary
    assert hit_under_density(-1.0, -1.0, -0.5) == 0.0  # undershoot above level


def test_hit_under_marginalizes_to_running_max():
    got = hit_under_y_mass(1.0, 1.0, SPEC)
    want = math.sqrt(2.0 / math.pi) * math.exp(-0.5)
    assert abs(want - 0.48394) < 1e-5
    assert abs(got - want) <= 1e-9


def test_hit_under_marginal_grid():
    for x in np.linspace(0.5, 8.0, 6):
        for s in np.sqrt(x) * np.array([0.01, 0.3, 1.0, 2.0, 3.3]):
            got = hit_under_y_mass(x, float(s), SPEC)
            want = running_max_density(x, float(s))
            assert abs(got - want) <= 1e-7


def test_hit_under_negative_level_matches_mirrored_overshoot():
    # the undershoot below a negative level is the mirrored overshoot above
    # the positive level: f(s, y; x) = int_0^{-x} triple(-x; -s, a, -y) da
    x, s, y = -1.0, -1.2, -1.5
    got = hit_under_density(x, s, y)
    want = integrate_adaptive(
        lambda a: triple_density(-x, -s, a, -y), 1e-8, -x - 1e-12, SPEC
    ).value
    assert got > 0.0
    # measured 3.6e-12: the default tolerances of the oracle pass
    assert abs(got - want) <= 1e-11 * want


def test_hit_under_negative_level_supports():
    assert hit_under_density(-1.0, 1.0, -1.5) == 0.0  # positive hitting time
    assert hit_under_density(-1.0, -1.0, -0.5) == 0.0  # y must be <= x
    assert hit_under_density(-1.0, -1.0, -1.0) == np.inf  # integrable boundary


def _w(x, s, y):
    """The argument ``w = |s| sqrt((Y - X) / (2 X Y))`` of the closed form."""
    return -s * math.sqrt((x - y) / (2.0 * x * y))


# (x, s, y) at which the adaptive quadrature formerly behind x < 0 was 99.8%,
# 79% and 1.5% off, and points just below and above the switch to the
# asymptotic series at w = 8 (s solved for w at y = 1001 x)
_NEGATIVE_LEVEL_CASES = [
    (-100.0, -1e-3, -1e5),
    (-1.0, -10.0, -1.0001),
    (-100.0, -1.0, -1e5),
    *[(-1.0, -w / math.sqrt(1000.0 / 2002.0), -1001.0) for w in (7.9, 8.0, 8.1, 12.0)],
    *[
        (-X, s, -X * (1.0 + r))
        for X in (1e-3, 0.5, 1.0, 100.0)
        for s in (-1e-3, -0.03, -1.0, -3.0, -10.0, -30.0)
        for r in (1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3)
    ],
]


def test_hit_under_negative_level_closed_form_matches_quadrature():
    # worst measured disagreement 1.3e-14, the rounding of exp(-s^2/(2X))
    # at s^2/(2X) in the hundreds; the oracle agrees with a 60-digit
    # evaluation to the same 1.3e-14
    got = np.array([hit_under_density(*c) for c in _NEGATIVE_LEVEL_CASES])
    want = np.array([hit_under_negative_level(*c) for c in _NEGATIVE_LEVEL_CASES])
    w = np.array([_w(*c) for c in _NEGATIVE_LEVEL_CASES])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # exp(-s^2/(2X)) underflows only where s^2/(2X) > 745
    live = np.array([c[1] ** 2 / (-2.0 * c[0]) < 700.0 for c in _NEGATIVE_LEVEL_CASES])
    assert np.all(got[live] > 0.0) and np.all(got[~live] == 0.0)
    # both branches of the undershoot term g(w) are exercised with live values
    assert np.any(live & (w > 8.0)) and np.any(live & (w < 8.0) & (w > 7.0))


def _hit_under_negative_level_mp(x, s, y):
    """``hit_under_density`` at a level ``x < 0`` by ``mpmath.quad`` of the
    mirrored triple density over the undershoot ``b`` in ``(0, X)``, taken
    in ``log b`` from where ``exp(-s^2/(2b))`` is below ``e^-999`` of its
    value at ``m = min(s^2/2, X)``, with a break at ``m``."""
    mpmath = pytest.importorskip("mpmath")
    X, Y, s = mpmath.mpf(-x), mpmath.mpf(-y), mpmath.mpf(s)

    def f(u):
        b = mpmath.exp(u)
        return -s * b * (b * (Y - b)) ** -1.5 * mpmath.exp(-s * s / (2 * b)) / (2 * mpmath.pi)

    m = min(s * s / 2, X)
    return float(mpmath.quad(f, [mpmath.log(m / 1000), mpmath.log(m), mpmath.log(X)]))


@pytest.mark.parametrize(
    "x, s, y",
    [
        (-1.0, -1.2, -1.5),
        (-1e-250, -1e-100, -2e-250),  # raised OverflowError from Y**-1.5
        (-1e-300, -1e-200, -1e300),  # NaN from inf * 0, with a RuntimeWarning
        (-1e-250, -1e-125, -2e-250),  # beyond the double range
        (-1e-300, -1e300, -2e-300),  # w = 5e449 is beyond the double range
    ],
)
def test_hit_under_negative_level_at_extreme_parameters(x, s, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hit_under_density(x, s, y)
    want = _hit_under_negative_level_mp(x, s, y)
    if np.finfo(float).tiny <= want < np.inf:
        assert abs(got - want) <= 1e-14 * want
    else:
        assert got == want


@pytest.mark.parametrize(
    "x, s",
    [
        (x, s)
        for x in (-1e-3, -0.5, -1.0, -100.0)
        for s in (-1e-3, -0.3, -1.0, -3.0, -10.0)
        if s * s / (-2.0 * x) < 700.0  # else the half-normal density underflows
    ],
)
def test_hit_under_negative_level_marginal_is_mirrored_half_normal(x, s):
    # int_{-inf}^x f(s, y) dy is the half-normal density of the hitting time
    # of -x, mirrored.  Near the level, f = A / sqrt(x - y) + O(1) with
    # A = |s| X^(-3/2) exp(-s^2/(2X)) / pi, the (Y - b)^(-3/2) factor of the
    # defining integral at b -> X; y = x - u^2 removes that singularity, and
    # the Jacobian 2 sqrt(x - y) is taken at the rounded y, whose gap to x is
    # exact.  Where y rounds to x, the integrand is its limit 2A.
    X = -x
    want = math.sqrt(2.0 / (math.pi * X)) * math.exp(-s * s / (2.0 * X))
    A = -s * X**-1.5 * math.exp(-s * s / (2.0 * X)) / math.pi

    def near(u):
        y = x - u * u
        gap = x - y
        return np.array(
            [
                2.0 * math.sqrt(g) * hit_under_density(x, s, v) if g > 0.0 else 2.0 * A
                for g, v in zip(gap, y)
            ]
        )

    def far(y_abs):
        return np.array([hit_under_density(x, s, -v) for v in y_abs])

    spec = QuadratureSpec(1e-300, 1e-13, 5000)
    got = integrate_adaptive(near, 0.0, math.sqrt(X), spec).value
    got += integrate_semi_infinite(far, 2.0 * X, spec).value
    # worst measured 2.0e-14
    assert abs(got - want) <= 1e-12 * want


def test_hit_under_negative_level_finite_over_wide_ranges():
    vals = np.geomspace(1e-100, 1e100, 21)
    for X, a, d in itertools.product(vals, vals, vals):
        x, y = -X, -(X + d)
        if y == x:
            continue  # the gap is below an ulp of X: the boundary y == x
        v = hit_under_density(x, -a, y)
        assert np.isfinite(v) and v >= 0.0, (X, a, d, v)


@pytest.mark.parametrize(
    "w", [0.1, 1.0, 5.0, 7.99, 8.0, np.nextafter(8.0, 9.0), 8.01, 12.0, 30.0, 1e3, 1e6]
)
def test_g_tail_matches_quadrature_on_both_sides_of_the_switch(w):
    # g(w) = 1 - sqrt(pi) w erfcx(w) = int_0^inf e^(-v) (1 - exp(-v^2/(4 w^2))) dv,
    # from erfcx(w) = 2/sqrt(pi) int_0^inf exp(-t^2 - 2wt) dt with v = 2wt;
    # the integrand has no cancellation for any w.  Worst measured 1.0e-14,
    # the direct form's cancellation at w = 5; without the series it would
    # be 2e-10 off at w = 1e3
    spec = QuadratureSpec(1e-300, 1e-15, 2000)

    def f(v):
        return np.exp(-v) * -np.expm1(-v * v / (4.0 * w * w))

    want = integrate_adaptive(f, 0.0, 1.0, spec).value + integrate_semi_infinite(f, 1.0, spec).value
    assert abs(_g_tail(w) - want) <= 1e-13 * want


# ---------------------------------------------------------------------------
# bridge


def test_bridge_supports_and_errors():
    assert bridge_density(0.5, 1.0, 2.0, -0.1) == 0.0
    assert bridge_density(0.5, 1.0, 2.0, 2.0) == 0.0
    assert bridge_density(0.5, 1.0, 2.0, 2.5) == 0.0
    with pytest.raises(ValueError):
        bridge_density(1.0, 0.5, 2.0, 0.1)  # r >= s
    with pytest.raises(ValueError):
        bridge_density(0.5, 1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        bridge_density(0.5, 1.0, 1e-9, 5e-10)  # conditioning mass underflows


@pytest.mark.parametrize("r,s,y", [(0.5, 1.0, 2.0), (1.0, 2.0, 1.0), (0.25, 1.0, 0.5)])
def test_bridge_normalization(r, s, y):
    res = integrate_adaptive(lambda z: bridge_density(r, s, y, z), 0.0, y, SPEC)
    assert abs(res.value - 1.0) <= 1e-5


def test_bridge_symmetry_at_half_time():
    s, y = 1.6, 2.3
    zs = np.linspace(0.05, y - 0.05, 41)
    left = bridge_density(0.5 * s, s, y, zs)
    right = bridge_density(0.5 * s, s, y, y - zs)
    assert np.max(np.abs(left - right)) <= 1e-10


# ---------------------------------------------------------------------------
# base-point density


def _factorized_positive_density(x, t, z):
    # independent route for z > 0: after exact cancellation of the bridge
    # denominator against the undershoot density, the double integral
    # factorizes into 1/sqrt(2 pi z) times a single undershoot integral
    def g(y):
        return ig_marginal_density(t, y - z) / np.sqrt(x - y)

    res = integrate_sqrt_endpoint(g, z, x, "right", QuadratureSpec(1e-12, 1e-10, 2000))
    return res.value * math.sqrt(2.0 / math.pi) / math.sqrt(2.0 * math.pi * z)


def test_basepoint_positive_side_matches_factorized_form():
    x, t = 8.0, 1.0
    for z in (1e-3, 0.05, 0.5, 1.0, 3.0, 6.5, 7.9):
        got = basepoint_density(x, t, np.array([z, z + 1e-4])).f[0]
        want = _factorized_positive_density(x, t, z)
        assert abs(got - want) <= 1e-9 * max(want, 1e-3)


def _negative_side_mixture(x, t, a):
    # independent route for z = -a < 0: the backward independent copy
    # f_I(t-s)(a) mixed over the half-normal running maximum s, split where
    # the copy's kernel turns on at t - s ~ sqrt(a)
    def g(s):
        tau = t - s  # abscissas lie strictly inside (0, t)
        kernel = tau / math.sqrt(2.0 * math.pi) * a**-1.5 * np.exp(-tau * tau / (2.0 * a))
        return kernel * running_max_density(x, s)

    spec = QuadratureSpec(1e-300, 1e-12, 2000)
    cuts = [t - c * math.sqrt(a) for c in (30.0, 10.0, 3.0, 1.0, 0.3, 0.1)]
    points = [0.0] + [c for c in cuts if 0.0 < c < t] + [t]
    return sum(integrate_adaptive(g, lo, hi, spec).value for lo, hi in zip(points[:-1], points[1:]))


@pytest.mark.parametrize("x", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("t", [1e-3, 0.2, 1.0, 3.0])
def test_basepoint_negative_side_matches_mixture_quadrature(x, t):
    z = -np.unique(np.append(np.geomspace(1e-5 * x, 1e6, 12), x))[::-1]
    got = basepoint_density(x, t, z).f
    want = np.array([_negative_side_mixture(x, t, -float(v)) for v in z])
    assert np.all(want > 0.0)
    assert np.max(np.abs(got - want) / want) <= 1e-8


@pytest.mark.parametrize("x, t", [(0.5, 30.0), (2.0, 60.0), (1.0, 40.0), (0.01, 4.0)])
def test_basepoint_negative_side_far_apart_exponents(x, t):
    # t^2/(2x) >= 800: exp(-t^2/(2x)) underflows while the ratio of the two
    # exponentials in D overflows; the density must stay finite on the whole
    # default grid and match the mixture wherever it is a normal float
    grid = default_z_grid(x)
    curve = basepoint_density(x, t, grid)
    assert np.all(np.isfinite(curve.f)) and np.all(curve.f >= 0.0)
    assert np.isfinite(curve.mass)
    z = -np.unique(np.append(np.geomspace(1e-5 * x, 1e6, 12), x))[::-1]
    got = basepoint_density(x, t, z).f
    want = np.array([_negative_side_mixture(x, t, -float(v)) for v in z])
    normal = want >= 1e-300
    assert normal.sum() >= 6
    assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) <= 1e-8
    assert np.all(got[~normal] <= 1e-300)


def _negative_side_closed_form(x, t, a):
    """``f(-a)`` by the module docstring's closed form in ``mpmath``, with
    ``D`` as the difference of its two exponentials and ``t - mu`` as
    ``t x / (a + x)``.  ``D`` cancels ``-log10|e|`` digits, for the
    exponent difference ``e = t^2 (a - x) / (2 a x)``, so 40 digits more
    are kept; an ``expm1`` difference would cancel where the exponents
    themselves are large."""
    mpmath = pytest.importorskip("mpmath")
    x, t, a = mpmath.mpf(x), mpmath.mpf(t), mpmath.mpf(a)
    e = t * t * (a - x) / (2 * a * x)
    digits = 40 + max(0, int(-mpmath.log10(abs(e)))) if e else 40
    with mpmath.workdps(digits):
        s = a + x
        sigma = mpmath.sqrt(a * x / s)
        mu = a * t / s
        d = mpmath.exp(-t * t / (2 * x)) - mpmath.exp(-t * t / (2 * a))
        erfs = mpmath.erf(t * x / s / (sigma * mpmath.sqrt(2))) + mpmath.erf(
            mu / (sigma * mpmath.sqrt(2))
        )
        g = mpmath.exp(-t * t / (2 * s))
        bracket = sigma**2 * d + mu * sigma * mpmath.sqrt(mpmath.pi / 2) * g * erfs
        return float(bracket / (a * mpmath.sqrt(a) * mpmath.pi * mpmath.sqrt(x)))


def test_basepoint_negative_side_where_t_squared_underflows():
    # at t = 1e-300, t t underflows; both terms of the density are of order
    # t t, and a product formed before the last division by sqrt(x + a)
    # underflowed: 98 of these 230 rows read 0, 31 of them wrongly, and
    # f(-3.3e-126) at x = 2.3e-303 read 0
    x = t = 1e-300
    z = default_z_grid(x)
    neg = z < 0.0
    got = basepoint_density(x, t, z).f[neg]
    want = np.array([_negative_side_closed_form(x, t, -v) for v in z[neg]])
    normal = want >= np.finfo(float).tiny
    assert normal.sum() >= 150
    assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) <= 1e-14
    # a subnormal value keeps what its spacing allows
    assert np.max(np.abs(got[~normal] - want[~normal])) <= 2 * 2.0**-1074
    got = basepoint_density(2.3e-303, t, np.array([-3.3e-126, 0.0])).f[0]
    want = _negative_side_closed_form(2.3e-303, t, 3.3e-126)
    assert abs(got - want) <= 1e-14 * want and want > 5e-262


@pytest.mark.parametrize("x, t", [(1e-300, 1e-300), (2.3e-303, 1e-300)])
def test_basepoint_negative_side_where_a_over_x_overflows(x, t):
    # the erf argument t sqrt(0.5 (a/x) / (x + a)) overflowed in a/x at a
    # tiny level, and erf(inf) = 1 replaced a small erf: far out on the
    # negative side f read up to 1e138 times the closed form
    a = np.geomspace(1e-320, 1e300, 60)
    z = np.append(-a[::-1], 0.0)
    got = basepoint_density(x, t, z).f[:-1][::-1]
    want = np.array([_negative_side_closed_form(x, t, v) for v in a])
    normal = want >= np.finfo(float).tiny
    assert normal.sum() >= 15 and a[-1] > x * np.finfo(float).max
    assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) <= 1e-14
    assert np.max(np.abs(got[~normal] - want[~normal])) <= 2 * 2.0**-1074


def test_basepoint_negative_side_at_a_subnormal_level():
    # a / x = 1e310 overflows: f(-1e-10) read 2.74e-146
    got = basepoint_density(1e-320, 1e-160, np.array([-1e-10, 0.0])).f[0]
    want = _negative_side_closed_form(1e-320, 1e-160, 1e-10)
    assert abs(got - want) <= 1e-14 * want


def _extreme_parameter_points():
    """546 points ``(x, t, a)`` of the negative side: 6 log-uniform ``a`` in
    ``[1e-323, 1e308]`` for each of 10 levels from 1e-303 to 1.6e308 and 9
    times from 1e-300 to 1e300, and six points once read wrong."""
    rng = np.random.default_rng(0)
    points = [
        (x, t, a)
        for x in np.geomspace(1e-303, 1.6e308, 10)
        for t in np.geomspace(1e-300, 1e300, 9)
        for a in np.exp(rng.uniform(math.log(1e-323), math.log(1e308), 6))
    ]
    return points + [
        (1.0, 1e-165, 5.4e-263),  # read 4.3e-200 for 4.0e62
        (1e-3, 1e-300, 8.5e-253),  # read 0 for 6.4e-222
        (1e-10, 1e-165, 2.0e-237),  # read 1.7793865e29 for 1.7794064e29
        (8.0, 1e-165, 1.73e-26),  # read 1.07e-319 for 2.47e-293
        (1e-200, 1e-100, 7.32e131),  # read 4.35e-299 for 2.35e-299
        (1e-320, 1e-160, 6.8e89),  # read 4.86e-296 for 2.62e-296
    ]


def test_basepoint_negative_side_at_extreme_parameters():
    # every factor of the law formed in doubles over- or underflowed
    # somewhere in this sweep: 24 of these points were wrong, by up to
    # 262 orders of magnitude
    got, want = [], []
    for x, t, a in _extreme_parameter_points():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got.append(basepoint_density(x, t, np.array([-a, 0.0])).f[0])
        want.append(_negative_side_closed_form(x, t, a))
    got, want = np.array(got), np.array(want)
    normal = want >= np.finfo(float).tiny
    assert normal.sum() >= 150 and np.all(want < np.inf)
    assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) <= 1e-14
    # a subnormal value keeps what its spacing allows
    assert np.max(np.abs(got[~normal] - want[~normal])) <= 2 * 2.0**-1074


def test_law_refuses_where_the_extended_type_is_a_double(monkeypatch):
    # where numpy's longdouble is a double (MSVC, macOS on arm64) the law's
    # intermediates over- and underflow: refuse rather than fall back
    monkeypatch.setattr(ig_analytics, "_EXT", np.float64)
    match = "needs numpy's longdouble with maxexp 16384"
    with pytest.raises(RuntimeError, match=match):
        basepoint_density(8.0, 1.0, default_z_grid(8.0, n=64))
    with pytest.raises(RuntimeError, match=match):
        basepoint_cdf(8.0, 1.0, np.array([-1.0, 1.0]))
    with pytest.raises(RuntimeError, match=match):
        hit_under_density(-1.0, -1.2, -1.5)


def test_basepoint_finite_over_wide_ranges():
    v = np.geomspace(1e-100, 1e100, 21)
    z = np.concatenate([-v[::-1], [0.0], v])
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        for x in v:
            for t in v:
                assert np.all(np.isfinite(basepoint_density(x, t, z).f)), (x, t)


def test_basepoint_zero_beyond_level():
    x, t = 8.0, 1.0
    curve = basepoint_density(x, t, np.array([8.0, 8.5, 9.0, 12.0]))
    assert np.array_equal(curve.f, np.zeros(4))


def test_basepoint_concentration_near_zero():
    x, t = 8.0, 1.0
    zs = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])
    curve = basepoint_density(x, t, zs)
    assert np.all(np.diff(curve.f) < 0.0)  # spike toward the origin
    # integrable |z|^(-1/2) spike: z f(z)^2 roughly constant near 0
    ratio = curve.f[0] / curve.f[1]
    assert 2.0 < ratio < 5.0


def test_basepoint_mass_close_to_one():
    x, t = 8.0, 1.0
    grid = default_z_grid(x, n=192)
    curve = basepoint_density(x, t, grid)
    assert curve.f.min() >= 0.0
    assert 0.98 <= curve.mass <= 1.02


def test_basepoint_at_zero_level():
    zs = np.array([-2.0, -0.5, 0.5])
    curve = basepoint_density(0.0, 1.0, zs)
    want = np.array([ig_marginal_density(1.0, 2.0), ig_marginal_density(1.0, 0.5), 0.0])
    assert np.allclose(curve.f, want, rtol=0.0, atol=1e-15)


def test_basepoint_negative_level_smoke():
    # no correct law is implemented below the origin: refuse, do not guess
    with pytest.raises(ValueError, match="x >= 0"):
        basepoint_density(-1.0, 1.0, np.array([-3.0, -1.5]))
    with pytest.raises(ValueError, match="x >= 0"):
        basepoint_density(float("nan"), 1.0, np.array([-3.0, -1.5]))


def test_basepoint_per_point_failure_markers():
    # the closed form stays finite with a zero error estimate at the extreme
    # and boundary points of the support, and vanishes at the level
    x = 8.0
    zs = np.array([-1e6, -1e-12, 1e-12, x - 1e-12, x])
    curve = basepoint_density(x, 1.0, zs)
    assert np.all(np.isfinite(curve.f))
    assert np.all(curve.err == 0.0)
    assert np.all(curve.f[zs >= x] == 0.0)
    assert np.all(curve.f[zs < x] >= 0.0)


def test_query_validation():
    with pytest.raises(ValueError):
        basepoint_density(8.0, 0.0, np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        basepoint_density(8.0, 1.0, np.array([0.2, 0.1]))


def test_basepoint_cdf_properties():
    x, t = 8.0, 1.0
    grid = default_z_grid(x, n=160)
    curve = basepoint_density(x, t, grid)
    F = basepoint_cdf(x, t, grid)
    assert np.all(np.diff(F) >= 0.0)
    assert np.all((F >= 0.0) & (F <= 1.0))
    # the curve's mass is the exact probability of the grid's span
    assert curve.mass == F[-1] - F[0]
    # flat above the level
    assert np.all(F[grid >= x] == 1.0)


def _density_at(x, t):
    # basepoint_density at arbitrary abscissas (the query grid must increase)
    def f(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        order = np.argsort(z)
        out = np.empty_like(z)
        out[order] = basepoint_density(x, t, z[order]).f
        return out

    return f


@pytest.mark.parametrize("x", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("t", [1e-3, 0.2, 1.0, 3.0])
def test_basepoint_cdf_matches_density_quadrature(x, t):
    # F(z2) - F(z1) against a 1-d adaptive quadrature of the closed-form
    # density, on each side of the spike at 0, up to the level and past it
    neg = -np.geomspace(1e5 * x, 1e-6 * x, 12)
    pos = np.append(np.geomspace(1e-6 * x, x, 9), 2.0 * x)
    f = _density_at(x, t)
    spec = QuadratureSpec(1e-15, 1e-13, 5000)
    for side in (neg, pos):
        F = basepoint_cdf(x, t, side)
        for z1, z2, dF in zip(side[:-1], side[1:], np.diff(F)):
            want = integrate_adaptive(f, z1, z2, spec).value
            assert abs(dF - want) <= 1e-12, (z1, z2, dF, want)


@pytest.mark.parametrize("x", [0.5, 8.0])
@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.02, 0.05, 1.0, 3.0])
def test_basepoint_cdf_negative_side_relative_accuracy(x, t):
    # F(-a) = int_0^t sqrt(2/(pi x)) exp(-s^2/(2x)) erf((t-s)/sqrt(2a)) ds,
    # the half-normal running maximum mixed with P(I(t-s) > a); relative
    # accuracy in the heavy tail and where the triangle's legs are tiny
    def oracle(a):
        def g(s):
            return running_max_density(x, s) * erf((t - s) / math.sqrt(2.0 * a))

        spec = QuadratureSpec(1e-300, 1e-14, 2000)
        cuts = [t - c * math.sqrt(a) for c in (30.0, 10.0, 3.0, 1.0, 0.3, 0.1)]
        points = [0.0] + [c for c in cuts if 0.0 < c < t] + [t]
        return sum(integrate_adaptive(g, lo, hi, spec).value for lo, hi in zip(points[:-1], points[1:]))

    a = np.geomspace(1e-6 * x, 1e12, 15)
    got = basepoint_cdf(x, t, -a)
    want = np.array([oracle(v) for v in a])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-11


@pytest.mark.parametrize("x, t", [(8.0, 1.0), (0.5, 1e-3), (2.0, 3.0), (0.01, 4.0), (1.0, 40.0)])
def test_basepoint_cdf_limits(x, t):
    f0 = erf(t / math.sqrt(2.0 * x))
    F = basepoint_cdf(x, t, np.array([-1e300, -1e-300, 0.0, x, 2.0 * x]))
    assert 0.0 <= F[0] <= 1e-140  # F(-a) ~ a^(-1/2) in the heavy tail
    assert F[2] == f0
    assert abs(F[1] - f0) <= 1e-15
    assert F[3] == 1.0 and F[4] == 1.0
    # at x = 0 hitting is immediate: P(Z < z) = P(I(t) > -z)
    z = -np.geomspace(1e-6, 1e6, 25)
    want = erf(t / np.sqrt(-2.0 * z))
    got = basepoint_cdf(0.0, t, z)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.array_equal(basepoint_cdf(0.0, t, np.array([0.0, 1.0])), np.ones(2))


def test_basepoint_cdf_monotone_and_finite_over_wide_ranges():
    v = np.geomspace(1e-100, 1e100, 21)
    z = np.concatenate([-v[::-1], [0.0], v])
    with np.errstate(over="ignore", under="ignore"):
        for x in v:
            for t in v:
                F = basepoint_cdf(x, t, z)
                assert np.all(np.isfinite(F)), (x, t)
                assert np.all((F >= 0.0) & (F <= 1.0)), (x, t)
                assert np.all(np.diff(F) >= 0.0), (x, t)


@pytest.mark.parametrize("x", [0.0, 8.0])
def test_basepoint_cdf_is_zero_at_minus_infinity(x):
    # F(-inf) used to be NaN, with a RuntimeWarning from inf / inf, and so
    # was f(-inf) at x > 0
    z = np.array([-np.inf, -1e300, -1.0, 0.0, 4.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        F = basepoint_cdf(x, 1.0, z)
        f = basepoint_density(x, 1.0, z).f
    assert F[0] == 0.0 and f[0] == 0.0
    assert np.all(np.diff(F) >= 0.0) and F[-1] == 1.0


def test_basepoint_cdf_refuses_bad_inputs():
    with pytest.raises(ValueError, match="x >= 0"):
        basepoint_cdf(-1.0, 1.0, np.array([-2.0]))
    with pytest.raises(ValueError, match="t must be positive"):
        basepoint_cdf(1.0, 0.0, np.array([-2.0]))
    # basepoint_density(8, inf, grid) returned a table of mass 0
    for t in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"t must be positive and finite, got {t}"):
            basepoint_cdf(8.0, t, np.array([-2.0]))
        with pytest.raises(ValueError, match=f"t must be positive and finite, got {t}"):
            basepoint_density(8.0, t, default_z_grid(8.0))


@pytest.mark.parametrize("x", [np.inf, np.nan])
def test_basepoint_cdf_refuses_a_non_finite_level(x):
    # x = inf warned and read [0, nan, 0] at z = [1, -1, 0]
    with pytest.raises(ValueError, match=f"finite levels x >= 0 only, got x={x}"):
        basepoint_cdf(x, 1.0, np.array([1.0, -1.0, 0.0]))


def test_basepoint_cdf_is_nan_at_nan():
    # a NaN point read 1.0, so a NaN sample scored as a KS distance
    # (0.4918 for [1, nan, 2] at x = 8, t = 1) instead of failing
    from goupsim.montecarlo_validation import ks_distance

    z = np.array([np.nan, -1.0, 1.0, 9.0])
    F = basepoint_cdf(8.0, 1.0, z)
    assert np.isnan(F[0]) and np.array_equal(F[1:], basepoint_cdf(8.0, 1.0, z[1:]))
    assert np.isnan(basepoint_cdf(0.0, 1.0, np.nan))
    assert math.isnan(ks_distance([1.0, np.nan, 2.0], lambda v: basepoint_cdf(8.0, 1.0, v)))


@pytest.mark.parametrize(
    "x, s_edges, y_edges, message",
    [
        (0.0, [0.0, 1.0], [0.0, 0.5], "x must be positive and finite, got 0.0"),
        (-1.0, [0.0, 1.0], [0.0, 0.5], "x must be positive and finite, got -1.0"),
        (np.nan, [0.0, 1.0], [0.0, 0.5], "x must be positive and finite, got nan"),
        # these read the masses -0.158 and 1.365
        (1.0, [0.0, 1.0], [0.5, 0.2, 0.9], "y_edges must be strictly increasing"),
        (1.0, [-1.0, 1.0], [0.0, 0.5], "s_edges must be strictly increasing from 0 or above"),
        (1.0, [0.0, 1.0], [-0.5, 0.5], "y_edges must be strictly increasing from 0 or above"),
        (1.0, [0.0, 2.0, 1.0], [0.0, 0.5], "s_edges must be strictly increasing"),
        (1.0, [0.0, np.nan], [0.0, 0.5], "s_edges must be strictly increasing"),
        (1.0, [0.0, np.inf, np.inf], [0.0, 0.5], "s_edges must be strictly increasing"),
        (1.0, [0.0], [0.0, 0.5], "from 0 or above, with >= 2 entries"),
        (1.0, [0.0, 1.0], [0.0, 0.0], "y_edges must be strictly increasing"),
        (1.0, [0.0, 1.0], [0.0, 1.5], r"undershoot bins must lie inside \[0, x\]"),
    ],
)
def test_hit_under_bin_masses_refuses_edges_that_make_no_bins(x, s_edges, y_edges, message):
    with pytest.raises(ValueError, match=message):
        ig_analytics.hit_under_bin_masses(x, s_edges, y_edges)


def test_hit_under_bin_masses_takes_an_infinite_last_hitting_edge():
    masses = ig_analytics.hit_under_bin_masses(1.0, [0.0, 1.0, np.inf], [0.0, 0.5, 1.0])
    assert masses.shape == (2, 2) and abs(masses.sum() - 1.0) <= 1e-14


def test_default_z_grid_shape():
    grid = default_z_grid(8.0, n=256)
    assert np.all(np.diff(grid) > 0.0)
    assert grid[0] <= -1e5 and grid[-1] >= 8.5
    assert np.any(grid == 0.0)
    with pytest.raises(ValueError):
        default_z_grid(-2.0)


@pytest.mark.parametrize("x", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 8.0, 1e3, 1e6])
def test_default_z_grid_band_straddles_the_level(x):
    # the linear band resolves the density cutoff at z = x on any scale; an
    # absolute offset once put every band point above x for x below 1e-8
    grid = default_z_grid(x)
    assert np.all(np.diff(grid) > 0.0)
    assert np.count_nonzero((grid > 0.9 * x) & (grid < x)) >= 30
    assert np.count_nonzero((grid > x) & (grid <= 1.1 * x)) >= 30


@pytest.mark.parametrize("end", ["low", "high"])
def test_default_z_grid_refuses_a_level_its_grid_cannot_hold(end):
    # below the low end 1e-5 x is subnormal or 0 (numpy refused a geometric
    # sequence through 0); above the high end the band end 1.1 x is inf (the
    # grid was not increasing).  Each end is admitted, the next double refused
    lo, hi = np.finfo(float).tiny / 1e-5, np.finfo(float).max / 1.1
    edge, beyond = (lo, np.nextafter(lo, 0.0)) if end == "low" else (hi, np.nextafter(hi, np.inf))
    grid = default_z_grid(edge, z_neg_far=-edge)
    assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)
    assert grid[grid > 0.0][0] >= np.finfo(float).tiny and grid[-1] == 1.1 * edge
    with pytest.raises(ValueError, match=r"^x must lie in \[2\.22507e-303, 1\.63427e\+308\]"):
        default_z_grid(beyond, z_neg_far=-edge)


def test_basepoint_density_is_finite_at_tiny_levels_and_huge_times():
    # inf * 0 in the negative side wrote NaN densities (226 rows of density.csv
    # at x = 1e-10, t = 1e308), after overflow warnings; above x = max/2 the
    # exponents' 2 (x - z) overflowed (421 NaN rows at x = 1.6e308, t = 1e308)
    # and F(0) = erf(t / sqrt(2 x)) read 0
    levels = [1e-300, 1e-10, 8.0, 1.6e308]
    for x, t in itertools.product(levels, [1e-300, 1e-10, 1.0, 1e154, 1e308]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = basepoint_density(x, t, default_z_grid(x, z_neg_far=min(-1e6, -x / 1e3)))
        assert np.all(np.isfinite(curve.f)) and np.all(curve.f >= 0.0), (x, t)
        assert np.all(np.diff(curve.F) >= 0.0), (x, t)
        assert 0.0 <= curve.F[0] and curve.F[-1] <= 1.0, (x, t)
        f0 = erf(t / math.sqrt(2.0) / math.sqrt(x))
        assert np.isclose(curve.F[curve.z == 0.0][0], f0, rtol=1e-15, atol=0.0), (x, t)


def test_basepoint_law_at_huge_levels_is_the_scaled_law():
    # the law scales as (x, t, z) -> (c^2 x, c t, c^2 z); with c = 1e150 a
    # level above max/2, where 2 x and 2 (x - z) overflow, maps to a moderate one;
    # at the far end -1.5e308 also x - z overflows, where F read 0 up to -8e307
    c = 1e150
    # the density at the far end is subnormal: a few of its last units
    atol = 4 * np.finfo(float).smallest_subnormal
    for x, t in itertools.product([1e308, 1.6e308], [1.0, 1e154, 1.5e154]):
        for far in (-x / 1e3, -1.5e308):
            z = default_z_grid(x, z_neg_far=far)
            curve = basepoint_density(x, t, z)
            scaled = basepoint_density(x / c**2, t / c, z / c**2)
            assert np.allclose(curve.F, scaled.F, rtol=0.0, atol=2e-15), (x, t, far)
            assert np.all(np.diff(curve.F) >= 0.0), (x, t, far)
            neg = z < 0.0
            f_scaled = scaled.f[neg] / c**2
            assert np.allclose(curve.f[neg], f_scaled, rtol=1e-14, atol=atol), (x, t, far)


def test_basepoint_law_at_tiny_times_is_the_scaled_law():
    # at t = 1e-300, t t underflows: the negative side's exponent difference
    # read 0, which dropped the D term and doubled f (density --x 1e-300
    # --t 1e-300 wrote 163 such rows); the twin scaled by c = 1e147 keeps
    # t t a normal double
    c = 1e147
    z = -np.geomspace(1e-296, 1e-300, 50)
    curve = basepoint_density(1e-300, 1e-300, z)
    twin = basepoint_density(1e-300 * c * c, 1e-300 * c, z * c * c)
    assert np.allclose(curve.f, twin.f * c * c, rtol=1e-14, atol=0.0)
    assert np.allclose(curve.F, twin.F, rtol=0.0, atol=1e-15)


def test_export_files(tmp_path):
    zs = np.array([0.5, 1.0, 2.0])
    curve = basepoint_density(8.0, 1.0, zs)
    f1 = tmp_path / "density.csv"
    write_density_csv(curve, f1)
    lines = f1.read_text().splitlines()
    assert lines[0] == "z,f,err" and len(lines) == 4

    f2 = tmp_path / "cdf.csv"
    write_cdf_csv(curve, f2)
    lines = f2.read_text().splitlines()
    assert lines[0] == "z,F" and len(lines) == 4
