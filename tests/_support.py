"""Shared fixtures-in-spirit: curve builders and hypothesis strategies."""

import math

import numpy as np
from hypothesis import strategies as st

from curvecross.curves import TrigCurve

coeffs = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def trig_curves(draw, min_degree=0, max_degree=4):
    n = draw(st.integers(min_degree, max_degree))
    def arr(size):
        return draw(st.lists(coeffs, min_size=size, max_size=size))
    return TrigCurve(n, arr(n + 1), arr(n), arr(n + 1), arr(n))


def unit_circle() -> TrigCurve:
    return TrigCurve(1, [0.0, 1.0], [0.0], [0.0, 0.0], [1.0])


def circle_at(cx: float, cy: float, radius: float = 1.0) -> TrigCurve:
    return TrigCurve(1, [cx, radius], [0.0], [cy, 0.0], [radius])


def curve_axpy(alpha: float, c1: TrigCurve, c2: TrigCurve) -> TrigCurve:
    """alpha * c1 + c2, coefficientwise."""
    return TrigCurve(
        c1.degree,
        alpha * c1.xa + c2.xa,
        alpha * c1.xb + c2.xb,
        alpha * c1.ya + c2.ya,
        alpha * c1.yb + c2.yb,
    )


def rotate_curve(c: TrigCurve, theta: float) -> TrigCurve:
    """Apply a common plane rotation to the curve's image."""
    ct, stn = math.cos(theta), math.sin(theta)
    return TrigCurve(
        c.degree,
        ct * c.xa - stn * c.ya,
        ct * c.xb - stn * c.yb,
        stn * c.xa + ct * c.ya,
        stn * c.xb + ct * c.yb,
    )


def iso_coordinates(c: TrigCurve) -> np.ndarray:
    """Isometric coordinates of an r=0 curve (inverse of the sampler map)."""
    n = c.degree
    u = np.empty(4 * n + 2)
    u[0] = c.xa[0] * math.sqrt(2.0)
    u[1] = c.ya[0] * math.sqrt(2.0)
    for j in range(1, n + 1):
        base = 2 + 4 * (j - 1)
        u[base] = c.xa[j]
        u[base + 1] = c.xb[j - 1]
        u[base + 2] = c.ya[j]
        u[base + 3] = c.yb[j - 1]
    return u


def scalar_coordinate(a, b, phi: float) -> float:
    """a[0] + sum_j a[j] cos(j*phi) + b[j-1] sin(j*phi), term by term with
    math.cos/math.sin and summed by math.fsum: a reference independent of
    the array kernel."""
    a, b = list(map(float, a)), list(map(float, b))
    return math.fsum([a[0]] + [a[j] * math.cos(j * phi) + b[j - 1] * math.sin(j * phi)
                               for j in range(1, len(a))])
