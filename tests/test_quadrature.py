import math

import numpy as np
import pytest
import scipy.integrate

from quadrature import (
    QuadratureError,
    QuadratureResult,
    QuadratureSpec,
    integrate_adaptive,
    integrate_semi_infinite,
    integrate_sqrt_endpoint,
)

SPEC = QuadratureSpec()


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0, SPEC)


def test_polynomial_exact():
    r = integrate_adaptive(lambda x: x, 0.0, 1.0, SPEC)
    assert abs(r.value - 0.5) <= 1e-14
    assert r.error_estimate >= abs(r.value - 0.5)


def test_arctan_integrand():
    # int_0^1 4/(1+x^2) dx = pi; reference is the math library constant
    r = integrate_adaptive(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0, SPEC)
    assert abs(r.value - math.pi) <= 1e-12
    assert r.error_estimate >= abs(r.value - math.pi)


def test_zero_integrand():
    r = integrate_adaptive(lambda x: 0.0, 0.0, 1.0, SPEC)
    assert r.value == 0.0
    assert r.error_estimate == 0.0
    assert r.subdivisions_used == 0


def test_scalar_returning_integrand_promoted():
    r = integrate_adaptive(lambda x: 3.0, -2.0, 5.0, SPEC)
    assert abs(r.value - 21.0) <= 1e-12


@pytest.mark.parametrize(
    "f,a,b,end,expected",
    [
        (lambda y: 1.0 / np.sqrt(1.0 - y), 0.0, 1.0, "right", 2.0),
        (lambda y: y / np.sqrt(1.0 - y), 0.0, 1.0, "right", 4.0 / 3.0),
        (lambda y: 1.0 / np.sqrt(y), 0.0, 1.0, "left", 2.0),
    ],
)
def test_sqrt_endpoint(f, a, b, end, expected):
    r = integrate_sqrt_endpoint(f, a, b, end, SPEC)
    assert abs(r.value - expected) <= 1e-11
    assert max(r.error_estimate, 1e-13) >= abs(r.value - expected)


def test_sqrt_endpoint_bad_end():
    with pytest.raises(ValueError):
        integrate_sqrt_endpoint(lambda y: y, 0.0, 1.0, "top", SPEC)


@pytest.mark.parametrize(
    "f,a,expected",
    [
        (lambda x: np.exp(-x), 0.0, 1.0),
        (lambda x: x ** (-1.5), 1.0, 2.0),
        (lambda x: np.exp(-x * x), 0.0, math.sqrt(math.pi) / 2.0),
    ],
)
def test_semi_infinite(f, a, expected):
    r = integrate_semi_infinite(f, a, SPEC)
    assert abs(r.value - expected) <= 1e-9
    assert r.error_estimate >= abs(r.value - expected) or abs(r.value - expected) < 1e-13


def test_against_scipy_quad():
    # independent engine cross-check on a bumpy but smooth integrand
    f = lambda x: np.sin(7.0 * x) * np.exp(-x) + 1.0 / (1.0 + 50.0 * (x - 0.3) ** 2)
    ref, _ = scipy.integrate.quad(lambda x: float(f(np.array([x]))[0]), 0.0, 2.0, epsabs=1e-13)
    r = integrate_adaptive(f, 0.0, 2.0, SPEC)
    assert abs(r.value - ref) <= 1e-10


def test_linearity():
    rng = np.random.default_rng(1234)
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    g = lambda x: 1.0 / (1.0 + x * x)
    rf = integrate_adaptive(f, 0.0, 4.0, SPEC)
    rg = integrate_adaptive(g, 0.0, 4.0, SPEC)
    for _ in range(8):
        alpha, beta = rng.normal(size=2) * 3.0
        rc = integrate_adaptive(lambda x: alpha * f(x) + beta * g(x), 0.0, 4.0, SPEC)
        combined_tol = (abs(alpha) + abs(beta) + 1.0) * (
            rf.error_estimate + rg.error_estimate + SPEC.abs_tol
        )
        assert abs(rc.value - (alpha * rf.value + beta * rg.value)) <= combined_tol


def test_error_estimate_bounds_true_error_on_suite():
    cases = [
        (integrate_adaptive(lambda x: x * x * np.exp(x), 0.0, 1.0, SPEC), math.e - 2.0),
        (integrate_adaptive(lambda x: np.cos(x), 0.0, 2.0, SPEC), math.sin(2.0)),
        (integrate_sqrt_endpoint(lambda y: y / np.sqrt(1.0 - y), 0.0, 1.0, "right", SPEC), 4.0 / 3.0),
        (integrate_semi_infinite(lambda x: np.exp(-x), 0.0, SPEC), 1.0),
    ]
    for result, exact in cases:
        true_err = abs(result.value - exact)
        assert true_err <= max(result.error_estimate, 1e-13)


def test_substitution_matches_truncated_plus_tail():
    # int_0^1 (1-y)^(-1/2) dy  =  int_0^{1-eps} ... + 2 sqrt(eps)
    eps = 1e-6
    full = integrate_sqrt_endpoint(lambda y: 1.0 / np.sqrt(1.0 - y), 0.0, 1.0, "right", SPEC)
    truncated = integrate_adaptive(lambda y: 1.0 / np.sqrt(1.0 - y), 0.0, 1.0 - eps, SPEC)
    tail = 2.0 * math.sqrt(eps)
    assert abs(full.value - (truncated.value + tail)) <= 10.0 * SPEC.abs_tol


def test_nonconvergence_carries_best_estimate():
    tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=3)
    with pytest.raises(QuadratureError) as exc:
        integrate_adaptive(lambda x: np.sin(40.0 * x) ** 2 / (1e-3 + x), 0.0, 1.0, tight)
    best = exc.value.best
    assert isinstance(best, QuadratureResult)
    assert best.subdivisions_used == 3
    assert best.error_estimate > 0.0


def test_nan_identifies_abscissa():
    def f(x):
        y = np.ones_like(x)
        y[x > 0.5] = np.nan
        return y

    with pytest.raises(QuadratureError) as exc:
        integrate_adaptive(f, 0.0, 1.0, SPEC)
    assert exc.value.abscissa is not None
    assert exc.value.abscissa > 0.5


def test_subdivision_count_within_budget():
    r = integrate_adaptive(lambda x: np.exp(-x * x), -6.0, 6.0, SPEC)
    assert r.subdivisions_used <= SPEC.max_subdivisions
    assert abs(r.value - math.sqrt(math.pi)) <= 1e-10
