"""Tests for the capacity bound formulas and the gap certificate."""

import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from thermalcap import gfunc
from thermalcap.bounds import (
    CERTIFICATION_TOL,
    LN2,
    MAX_ENV_PHOTONS,
    MAX_SIGNAL_PHOTONS,
    UNIVERSAL_GAP_BITS,
    additive_extension_upper,
    gap,
    holevo_lower,
    pure_loss_capacity,
    refined_gap_bound,
    report,
)
from thermalcap.gaussian_core import ChannelParams


def params(lam, n_env):
    return ChannelParams(transmissivity=lam, environment_photons=n_env)


# High-precision reference values (50-digit evaluation, rounded to double).
LOWER_REFERENCE = {
    (0.5, 1.0, 10.0): 2.6485405143302299,
    (0.5, 0.0, 4.0): 2.7548875021634687,
    (0.6, 0.0, 1.0): 1.5270944046799439,
    (0.6, 0.5, 2.0): 1.5716581099847417,
    (0.9, 5.0, 100.0): 6.5730386708780655,
    (0.3, 0.05, 1.0): 0.86438761125974527,
    (0.75, 2.0, 0.5): 0.49154055888383438,
}
UPPER_REFERENCE = {
    (0.5, 1.0, 10.0): 3.3771826282657020,
    (0.5, 0.0, 4.0): 2.7548875021634687,
    (0.6, 0.0, 1.0): 1.5270944046799439,
    (0.9, 5.0, 100.0): 7.3615418548249511,
    (0.3, 0.05, 1.0): 0.99150037595026795,
    (0.75, 2.0, 0.5): 0.90241011860920293,
}


def test_holevo_lower_reference_values():
    for (lam, n_env, n), expected in LOWER_REFERENCE.items():
        value = holevo_lower(params(lam, n_env), n)
        assert abs(value - expected) <= 1e-13 * expected


def test_additive_extension_upper_reference_values():
    for (lam, n_env, n), expected in UPPER_REFERENCE.items():
        value = additive_extension_upper(params(lam, n_env), n)
        assert abs(value - expected) <= 1e-13 * expected


def test_upper_bound_exact_closed_form_point():
    # lam*N/((1-lam)*N_E + 1) = 1 here, so the upper bound is g(1)/ln 2 = 2.
    assert additive_extension_upper(params(0.6, 0.5), 2.0) == 2.0


def test_zero_signal_gives_zero():
    for lam, n_env in ((0.5, 0.0), (0.5, 1.0), (0.9, 5.0)):
        assert holevo_lower(params(lam, n_env), 0.0) == 0.0
        assert additive_extension_upper(params(lam, n_env), 0.0) == 0.0
    assert pure_loss_capacity(0.7, 0.0) == 0.0


def test_pure_loss_capacity_examples():
    assert abs(pure_loss_capacity(1.0, 1.0) - 2.0) < 1e-15
    assert abs(pure_loss_capacity(0.25, 4.0) - 2.0) < 1e-15


def test_lower_strictly_increasing_in_n():
    p = params(0.7, 1.5)
    values = [holevo_lower(p, n) for n in np.linspace(0.1, 50.0, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_gap_reference_value_and_route_consistency():
    p = params(0.5, 1.0)
    g = gap(p, 10.0)
    assert abs(g - 0.72864211393547216) <= 1e-13
    # The gap is the delta route (X = lam*N, Y = (1-lam)*N_E); the
    # difference of the bounds must give the same number.
    assert g == gfunc.delta(0.5, 5.0) / LN2
    by_subtraction = additive_extension_upper(p, 10.0) - holevo_lower(p, 10.0)
    assert abs(g - by_subtraction) <= 1e-10


def test_refined_gap_bound_values():
    assert refined_gap_bound(params(0.5, 2.0)) == 1.0  # Y = 1 gives ln 2 nats
    assert abs(refined_gap_bound(params(0.5, 1.0)) - 0.79248125036057809) <= 1e-13
    assert refined_gap_bound(params(0.5, 0.0)) == 0.0


def test_refined_gap_bound_approaches_universal():
    p = params(0.5, 1e6)
    value = refined_gap_bound(p)
    assert value < UNIVERSAL_GAP_BITS
    assert UNIVERSAL_GAP_BITS - value < 2e-6


def test_interval_order_on_random_triples():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        lam = float(rng.uniform(0.01, 0.999))
        n_env = float(rng.uniform(1e-3, 50.0))
        n = float(rng.uniform(1e-3, 100.0))
        p = params(lam, n_env)
        lower = holevo_lower(p, n)
        upper = additive_extension_upper(p, n)
        refined = refined_gap_bound(p)
        assert upper - lower >= -1e-10
        assert refined - (upper - lower) >= -1e-10
        assert UNIVERSAL_GAP_BITS - refined >= -1e-10


def test_route_consistency_on_random_triples():
    rng = np.random.default_rng(99)
    for _ in range(2000):
        lam = float(rng.uniform(0.01, 0.999))
        n_env = float(rng.uniform(1e-3, 50.0))
        n = float(rng.uniform(1e-3, 100.0))
        p = params(lam, n_env)
        via_delta = gfunc.delta((1.0 - lam) * n_env, lam * n) / LN2
        by_subtraction = additive_extension_upper(p, n) - holevo_lower(p, n)
        assert abs(by_subtraction - via_delta) <= 1e-10


def test_gap_strictly_increasing_in_n():
    p = params(0.6, 2.0)
    values = [gap(p, n) for n in np.geomspace(0.01, 1e4, 60)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_gap_reaches_limit_at_large_n():
    # At N = 1e8 the gap has converged to its large-signal limit.
    for lam in (0.3, 0.5, 0.7, 0.9):
        for n_env in (0.1, 0.5, 1.0, 2.0, 5.0):
            p = params(lam, n_env)
            gap_nats = gap(p, 1e8) * LN2
            limit_nats = gfunc.delta_limit((1.0 - lam) * n_env)
            assert abs(gap_nats - limit_nats) <= 1e-6


def test_zero_temperature_collapse_is_exact():
    rng = np.random.default_rng(17)
    for _ in range(200):
        lam = float(rng.uniform(0.01, 1.0))
        n = float(rng.uniform(0.0, 100.0))
        p = params(lam, 0.0)
        analytic = pure_loss_capacity(lam, n)
        assert holevo_lower(p, n) == analytic
        assert additive_extension_upper(p, n) == analytic
        assert gap(p, n) == 0.0


def test_report_assembles_certified_interval():
    r = report(params(0.5, 1.0), 10.0)
    assert abs(r.lower_bits - 2.6485405143302299) < 1e-12
    assert abs(r.upper_bits - 3.3771826282657020) < 1e-12
    assert abs(r.gap_bits - (r.upper_bits - r.lower_bits)) <= CERTIFICATION_TOL
    assert r.gap_bits <= r.refined_gap_bound_bits + CERTIFICATION_TOL
    assert r.refined_gap_bound_bits <= r.universal_gap_bound_bits + CERTIFICATION_TOL
    assert r.universal_gap_bound_bits == UNIVERSAL_GAP_BITS
    assert r.certified


def test_report_zero_temperature():
    r = report(params(0.7, 0.0), 5.0)
    assert r.lower_bits == r.upper_bits
    assert r.gap_bits == 0.0
    assert r.certified


def test_report_large_parameters_certified():
    r = report(params(0.9, 10.0), 100.0)
    assert r.gap_bits < UNIVERSAL_GAP_BITS
    assert r.certified


def test_universal_gap_constant():
    assert abs(UNIVERSAL_GAP_BITS - 1.0 / math.log(2.0)) < 1e-15


def test_domain_errors():
    with pytest.raises(ValueError):
        holevo_lower(params(0.5, 1.0), -1.0)
    with pytest.raises(ValueError):
        holevo_lower(params(0.5, 1.0), 2e9)  # above validated signal range
    with pytest.raises(ValueError):
        additive_extension_upper(params(0.5, 1.0), float("nan"))
    with pytest.raises(ValueError):
        holevo_lower(params(0.5, 2e6), 1.0)  # above validated environment range
    with pytest.raises(ValueError):
        pure_loss_capacity(0.0, 1.0)
    with pytest.raises(ValueError):
        pure_loss_capacity(0.5, -1.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    lam=st.floats(1e-300, 1.0),
    n_env=st.one_of(st.just(0.0), st.floats(1e-300, 1e6)),
    n=st.one_of(st.just(0.0), st.floats(1e-30, 1e9)),
)
def test_report_certifies_across_the_whole_domain(lam, n_env, n):
    # Edges of every range: transmissivity down to 1e-300, the largest
    # environment and signal the layer accepts, and the zero-temperature
    # and zero-signal points that take the exact pure-loss route.  The
    # gap comes from the delta route, which does not cancel near lam = 1,
    # so it meets the refined bound with no tolerance; the other
    # inequalities hold to CERTIFICATION_TOL.
    r = report(params(lam, n_env), n)
    tol = CERTIFICATION_TOL
    assert r.certified
    assert r.lower_bits <= r.upper_bits + tol
    assert r.gap_bits <= r.refined_gap_bound_bits
    assert r.refined_gap_bound_bits <= 1.0 / math.log(2.0) + tol


def test_gap_next_to_lam_one_is_accurate():
    # At lam = 1 - 2^-53 the bounds differ in their last bits: their
    # difference reads 5.995e-15 bits, above the refined bound.  The delta
    # route gives the 60-digit value 5.8223087507790443e-15 to 1e-13.
    r = report(params(1.0 - 2.0**-53, 1.0), 1.0)
    assert abs(r.gap_bits - 5.8223087507790443e-15) <= 1e-13 * 5.8223087507790443e-15
    assert r.gap_bits < r.refined_gap_bound_bits
    assert r.certified


def _closed_forms(lam, n_env, n):
    """The interval written out formula by formula, as the bound functions
    computed it each on its own: (lower, upper, gap, refined, certified)."""
    ln2 = math.log(2.0)
    y = (1.0 - lam) * n_env
    if y == 0.0:
        lower = gfunc.g(lam * n) / ln2
        upper = gfunc.g(lam * n) / ln2
        gap_bits = 0.0
        refined = 0.0
    else:
        lower = (gfunc.g(lam * n + y) - gfunc.g(y)) / ln2
        upper = gfunc.g(lam * n / (y + 1.0)) / ln2
        gap_bits = gfunc.delta(y, lam * n) / ln2
        refined = gfunc.delta_limit(y) / ln2
    tol = CERTIFICATION_TOL
    certified = (
        lower <= upper + tol
        and -tol <= gap_bits
        and gap_bits <= refined + tol
        and refined <= 1.0 / ln2 + tol
        and abs((upper - lower) - gap_bits) <= tol
    )
    return lower, upper, gap_bits, refined, certified


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    lam=st.one_of(st.just(1.0), st.floats(1e-300, 1.0)),
    n_env=st.one_of(st.sampled_from([0.0, 1e6]), st.floats(0.0, 1e6)),
    n=st.one_of(st.sampled_from([0.0, 1e9]), st.floats(0.0, 1e9)),
)
@example(lam=1.0, n_env=3.0, n=2.0)  # Y = 0 at lambda = 1
@example(lam=0.4, n_env=0.0, n=2.0)  # Y = 0 at N_E = 0
@example(lam=0.4, n_env=3.0, n=0.0)
@example(lam=0.4, n_env=1e6, n=1e9)
@example(lam=1.0 - 2.0**-53, n_env=1.0, n=1.0)
def test_bound_functions_equal_their_closed_forms_bit_for_bit(lam, n_env, n):
    # Every bound function and every `report` field reads one interval
    # computation; each must still equal its own formula to the last bit.
    lower, upper, gap_bits, refined, certified = _closed_forms(lam, n_env, n)
    p = params(lam, n_env)
    r = report(p, n)
    got = {
        "holevo_lower": (holevo_lower(p, n), lower),
        "additive_extension_upper": (additive_extension_upper(p, n), upper),
        "gap": (gap(p, n), gap_bits),
        "refined_gap_bound": (refined_gap_bound(p), refined),
        "lower_bits": (r.lower_bits, lower),
        "upper_bits": (r.upper_bits, upper),
        "gap_bits": (r.gap_bits, gap_bits),
        "refined_gap_bound_bits": (r.refined_gap_bound_bits, refined),
        "universal_gap_bound_bits": (r.universal_gap_bound_bits, 1.0 / math.log(2.0)),
    }
    if n_env == 0.0:
        got["pure_loss_capacity"] = (pure_loss_capacity(lam, n), lower)
    for name, (value, want) in got.items():
        assert value.hex() == want.hex(), (name, value, want)
    assert r.certified is certified


_SIGNAL_ERROR = f"signal photon number must be in [0, {MAX_SIGNAL_PHOTONS:g}], got {{}}"
_ENV_ERROR = f"environment photon number must be <= {MAX_ENV_PHOTONS:g}, got {{}}"


@pytest.mark.parametrize(
    "n_env, n, message",
    [
        (1.0, -1.0, _SIGNAL_ERROR.format(-1.0)),
        (1.0, 2e9, _SIGNAL_ERROR.format(2e9)),
        (1.0, float("nan"), _SIGNAL_ERROR.format(float("nan"))),
        (1.0, float("inf"), _SIGNAL_ERROR.format(float("inf"))),
        (2e6, 1.0, _ENV_ERROR.format(2e6)),
        (2e6, -1.0, _SIGNAL_ERROR.format(-1.0)),  # the signal is checked first
    ],
)
def test_bound_functions_raise_their_domain_messages(n_env, n, message):
    p = params(0.5, n_env)
    for bound in (holevo_lower, additive_extension_upper, gap, report):
        with pytest.raises(ValueError) as raised:
            bound(p, n)
        assert str(raised.value) == message, bound.__name__
    if n_env > MAX_ENV_PHOTONS:
        with pytest.raises(ValueError) as raised:
            refined_gap_bound(p)
        assert str(raised.value) == _ENV_ERROR.format(n_env)
    if n_env == 1.0:
        with pytest.raises(ValueError) as raised:
            pure_loss_capacity(0.5, n)
        assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        pure_loss_capacity(1.5, 1.0)
    assert str(raised.value) == "transmissivity must be in (0, 1], got 1.5"
