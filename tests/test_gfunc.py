"""Tests for the thermal entropy function g and the gap function delta."""

from decimal import Decimal, localcontext
import math

import numpy as np
import pytest

from thermalcap import gfunc

LN2 = math.log(2.0)

# High-precision reference values (50-digit evaluation of the defining
# formulas, rounded to double).
G_REFERENCE = {
    1e-12: 2.8631021115929048e-11,
    0.2: 0.54067345063956563,
    0.25: 0.62550302942273485,
    0.5: 0.95477125244221923,
    1.0: 1.3862943611198906,
    2.0: 1.9095425048844385,
    5.5: 2.7905996425490055,
    10.0: 3.3509970708416191,
    1e12: 28.631021115929048,
}
DELTA_1_1 = 0.43152310867767139
DELTA_PRIME_1_1 = 0.14384103622589046


def test_g_reference_values():
    for x, expected in G_REFERENCE.items():
        assert abs(gfunc.g(x) - expected) <= 1e-13 * expected


def test_g_closed_form_points():
    assert gfunc.g(0.0) == 0.0
    assert abs(gfunc.g(1.0) - 2.0 * LN2) < 1e-15


def test_g_increasing_and_positive():
    grid = np.geomspace(1e-9, 1e9, 181)
    values = np.array([gfunc.g(x) for x in grid])
    assert np.all(values > 0.0)
    assert np.all(np.diff(values) > 0.0)


def test_g_concave_on_sampled_pairs():
    rng = np.random.default_rng(11)
    xs = rng.uniform(1e-3, 1e3, size=200)
    ys = rng.uniform(1e-3, 1e3, size=200)
    for x, y in zip(xs, ys):
        mid = gfunc.g((x + y) / 2.0)
        assert mid >= (gfunc.g(x) + gfunc.g(y)) / 2.0 - 1e-12


def test_g_prime_closed_form_points():
    assert abs(gfunc.g_prime(1.0) - LN2) < 1e-15
    assert abs(gfunc.g_prime(0.5) - math.log(3.0)) < 1e-15
    assert abs(gfunc.g_prime(2.0) - math.log(1.5)) < 1e-15


def test_g_prime_decreasing_to_zero():
    grid = np.geomspace(1e-3, 1e9, 121)
    values = np.array([gfunc.g_prime(x) for x in grid])
    assert np.all(values > 0.0)
    assert np.all(np.diff(values) < 0.0)
    assert gfunc.g_prime(1e12) < 2e-12


def test_g_second_closed_form_points():
    assert abs(gfunc.g_second(1.0) + 0.5) < 1e-15
    assert abs(gfunc.g_second(0.5) + 4.0 / 3.0) < 1e-15
    assert abs(gfunc.g_second(10.0) + 1.0 / 110.0) < 1e-17


def test_g_second_always_negative():
    for x in np.geomspace(1e-6, 1e6, 61):
        assert gfunc.g_second(x) < 0.0


def _centered(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_g_prime_matches_finite_difference():
    for x in np.geomspace(0.01, 100.0, 41):
        h = 1e-5 * max(1.0, x)
        fd = _centered(gfunc.g, x, h)
        assert abs(fd - gfunc.g_prime(x)) <= 1e-6


def test_g_second_matches_finite_difference():
    # The truncation term of the centered difference of g_prime scales
    # with g'''' and exceeds 1e-6 absolutely below x ~ 0.03, so the
    # comparison is relative to max(1, |g''|).
    for x in np.geomspace(0.01, 100.0, 41):
        h = 1e-5 * max(1.0, x)
        fd = _centered(gfunc.g_prime, x, h)
        exact = gfunc.g_second(x)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_delta_prime_matches_finite_difference():
    for y in (0.1, 1.0, 10.0):
        for x in np.geomspace(0.01, 100.0, 41):
            h = 1e-5 * max(1.0, x)
            fd = (gfunc.delta(y, x + h) - gfunc.delta(y, x - h)) / (2.0 * h)
            assert abs(fd - gfunc.delta_prime(y, x)) <= 1e-6


def test_delta_reference_values():
    assert gfunc.delta(1.0, 0.0) == 0.0
    assert abs(gfunc.delta(1.0, 1.0) - DELTA_1_1) <= 1e-13 * DELTA_1_1
    assert abs(gfunc.delta(1.0, 1e9) - LN2) <= 1e-8


def test_delta_keeps_its_digits_when_x_is_far_below_y():
    # At lam 0.339, N_E 6.4e5, N 1.6e-6, h(Y) - h(X+Y) cancels when formed
    # as a plain difference (relative error 1.1e-6).  Reference: the
    # defining formula in 60-digit decimal arithmetic on the same doubles.
    y, x = (1.0 - 0.339) * 6.4e5, 0.339 * 1.6e-6
    with localcontext() as ctx:
        ctx.prec = 60

        def g(u):
            return (u + 1) * (u + 1).ln() - u * u.ln()

        yd, xd = Decimal(y), Decimal(x)
        exact = float(g(xd / (yd + 1)) - g(xd + yd) + g(yd))
    assert abs(gfunc.delta(y, x) - exact) <= 1e-13 * exact


def test_delta_composition_identity():
    # delta(Y, X) = g(X/(Y+1)) - g(X+Y) + g(Y) on an irregular sample.
    rng = np.random.default_rng(5)
    for _ in range(100):
        y = float(rng.uniform(0.05, 20.0))
        x = float(rng.uniform(0.01, 50.0))
        direct = gfunc.g(x / (y + 1.0)) - gfunc.g(x + y) + gfunc.g(y)
        assert abs(gfunc.delta(y, x) - direct) < 1e-13


def test_delta_prime_reference_values():
    assert abs(gfunc.delta_prime(1.0, 1.0) - DELTA_PRIME_1_1) <= 1e-13
    for y in (0.1, 1.0, 10.0):
        for x in (0.1, 1.0, 10.0, 100.0):
            assert gfunc.delta_prime(y, x) > 0.0
    assert gfunc.delta_prime(1.0, 1e9) < 1e-8


def test_delta_second_reference_values():
    assert abs(gfunc.delta_second(1.0, 1.0) + 1.0 / 6.0) < 1e-15
    assert abs(gfunc.delta_second(2.0, 1.0) + 1.0 / 6.0) < 1e-15
    for y in (0.1, 1.0, 10.0):
        for x in (0.1, 1.0, 10.0, 100.0):
            assert gfunc.delta_second(y, x) < 0.0


def test_delta_limit_values():
    assert abs(gfunc.delta_limit(1.0) - LN2) < 1e-15
    assert abs(gfunc.delta_limit(0.5) - 0.5 * math.log(3.0)) < 1e-15


def test_delta_limit_below_one_and_increasing():
    grid = np.geomspace(1e-6, 1e9, 121)
    values = np.array([gfunc.delta_limit(y) for y in grid])
    assert np.all(values > 0.0)
    assert np.all(values < 1.0)
    assert np.all(np.diff(values) > 0.0)


def test_delta_bounded_by_its_limit():
    for y in np.geomspace(1e-3, 1e3, 25):
        limit = gfunc.delta_limit(y)
        assert limit < 1.0
        for x in np.geomspace(1e-3, 1e6, 37):
            d = gfunc.delta(y, x)
            assert 0.0 <= d < limit


def test_delta_strictly_increasing_in_x():
    xs = np.geomspace(1e-3, 1e6, 200)
    for y in (0.01, 0.1, 1.0, 10.0, 100.0):
        values = np.array([gfunc.delta(y, x) for x in xs])
        assert np.all(np.diff(values) > 0.0)


def test_delta_prime_strictly_decreasing_in_x():
    xs = np.geomspace(1e-3, 1e6, 200)
    for y in (0.01, 0.1, 1.0, 10.0, 100.0):
        values = np.array([gfunc.delta_prime(y, x) for x in xs])
        assert np.all(np.diff(values) < 0.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        gfunc.g(-0.1)
    with pytest.raises(ValueError):
        gfunc.g(float("nan"))
    with pytest.raises(ValueError):
        gfunc.g(float("inf"))
    with pytest.raises(ValueError):
        gfunc.g_prime(0.0)
    with pytest.raises(ValueError):
        gfunc.g_second(-1.0)
    with pytest.raises(ValueError):
        gfunc.delta(0.0, 1.0)
    with pytest.raises(ValueError):
        gfunc.delta(1.0, -1.0)
    with pytest.raises(ValueError):
        gfunc.delta_prime(1.0, 0.0)
    with pytest.raises(ValueError):
        gfunc.delta_second(1.0, 0.0)
    with pytest.raises(ValueError):
        gfunc.delta_limit(0.0)
