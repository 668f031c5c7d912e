"""Thermal entropy function g and the bounded gap function built from it.

g(x) = (x+1)ln(x+1) - x ln x is the von Neumann entropy, in nats, of a
bosonic thermal state with mean photon number x.  The gap function

    delta(Y, X) = g(X/(Y+1)) - g(X+Y) + g(Y)

measures the difference between the pipelined upper bound and the
coherent-state lower bound on thermal-channel capacity; it is strictly
increasing in X, bounded by delta_limit(Y) = Y ln(1 + 1/Y) < 1.

Everything here is in nats; conversion to bits happens once, in the
reporting layer.  Domain violations raise ValueError, never clamp.
"""

from __future__ import annotations

import math

__all__ = [
    "g",
    "g_prime",
    "g_second",
    "delta",
    "delta_prime",
    "delta_second",
    "delta_limit",
]

# Below this, x*log1p(1/x) underflows structure; g(x) < 7e-298.
_TINY = 1e-300


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _require_nonnegative(value: float, name: str) -> float:
    value = _require_finite(value, name)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _require_positive(value: float, name: str) -> float:
    value = _require_finite(value, name)
    if value <= 0.0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def _xlog1p_inv(u: float) -> float:
    """u * log(1 + 1/u) for u >= 0, continuous at 0."""
    if u < _TINY:
        return 0.0
    return u * math.log1p(1.0 / u)


def g(x: float) -> float:
    """Thermal-state entropy (x+1)ln(x+1) - x ln x in nats.

    Evaluated as x*log1p(1/x) + log1p(x), which keeps full relative
    precision for x from 1e-12 to 1e12; the naive difference form loses
    everything at both ends.  g(0) = 0 by continuous extension.
    """
    x = _require_nonnegative(x, "x")
    if x < _TINY:
        return 0.0
    return _xlog1p_inv(x) + math.log1p(x)


def g_prime(x: float) -> float:
    """First derivative of g: ln(1 + 1/x), strictly decreasing on x > 0."""
    x = _require_positive(x, "x")
    return math.log1p(1.0 / x)


def g_second(x: float) -> float:
    """Second derivative of g: -1/(x(x+1)), negative everywhere on x > 0."""
    x = _require_positive(x, "x")
    return -1.0 / (x * (x + 1.0))


def delta(y: float, x: float) -> float:
    """Gap function delta_Y(X) = g(X/(Y+1)) - g(X+Y) + g(Y), in nats.

    With h(u) = u*log1p(1/u) = g(u) - ln(u+1), a = X/(Y+1) and b = X+Y,
    delta = h(Y) - (h(b) - h(a)).  For Y < X the rise h(b) - h(a) is
    formed from the exact difference b - a = Y(1+a), as
    Y(1+a)*log1p(1/b) + a*log1p(-Y/b), so it does not cancel when a and
    b nearly meet (lam -> 1).  For X <= Y, h(Y) - h(b) is formed exactly
    as Y*log1p(X / (Y (Y+1) (1+a))) - X*log1p(1/b), so it does not cancel
    as X -> 0 either; the divisions go one at a time, so large Y cannot
    overflow.  Rounding can dip below 0 as X -> 0, so the result is
    clamped at 0.
    """
    y = _require_positive(y, "Y")
    x = _require_nonnegative(x, "X")
    if x == 0.0 or y < _TINY:
        return 0.0  # 0 <= delta <= h(Y), and h vanishes below _TINY
    a, b = x / (y + 1.0), x + y
    t = y / b
    if t < 0.5:
        rise = y * (1.0 + a) * math.log1p(1.0 / b) + a * math.log1p(-t)
        return max(_xlog1p_inv(y) - rise, 0.0)
    fall = y * math.log1p(x / y / (y + 1.0) / (1.0 + a)) - x * math.log1p(1.0 / b)
    return max(_xlog1p_inv(a) + fall, 0.0)


def delta_prime(y: float, x: float) -> float:
    """d/dX of delta: ln(1+(Y+1)/X)/(Y+1) - ln(1+1/(X+Y)); positive for X > 0."""
    y = _require_positive(y, "Y")
    x = _require_positive(x, "X")
    return math.log1p((y + 1.0) / x) / (y + 1.0) - math.log1p(1.0 / (x + y))


def delta_second(y: float, x: float) -> float:
    """d^2/dX^2 of delta: (1/(X+Y+1))(1/(X+Y) - 1/X); negative for X > 0."""
    y = _require_positive(y, "Y")
    x = _require_positive(x, "X")
    return (1.0 / (x + y + 1.0)) * (1.0 / (x + y) - 1.0 / x)


def delta_limit(y: float) -> float:
    """Large-X limit of delta_Y: Y ln(1 + 1/Y), strictly below 1 for all Y > 0."""
    y = _require_positive(y, "Y")
    return _xlog1p_inv(y)
