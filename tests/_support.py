"""Shared fixtures-in-spirit: curve builders and hypothesis strategies."""

import math

import numpy as np
from hypothesis import strategies as st

from curvecross.curves import CurveRows, TrigCurve
from curvecross.intersect import _closed_polylines, _cross_tests

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


def all_pairs_cross_count(f: TrigCurve, g: TrigCurve, m: int) -> int:
    """Strict crossing count of the two closed m-vertex polylines, testing
    every pair of overlapping segment boxes (no sweep), in row blocks.

    The oracle's all-pairs filter as it stood before the two-level box
    filter, kept as the reference that its candidate set is the same."""
    fx, fy = _closed_polylines(CurveRows.stack([f]).arrays, np.array([m]))
    gx, gy = _closed_polylines(CurveRows.stack([g]).arrays, np.array([m]))
    fx0, fx1 = np.minimum(fx[:-1], fx[1:]), np.maximum(fx[:-1], fx[1:])
    fy0, fy1 = np.minimum(fy[:-1], fy[1:]), np.maximum(fy[:-1], fy[1:])
    gx0, gx1 = np.minimum(gx[:-1], gx[1:]), np.maximum(gx[:-1], gx[1:])
    gy0, gy1 = np.minimum(gy[:-1], gy[1:]), np.maximum(gy[:-1], gy[1:])
    total = 0
    for lo in range(0, m, 2048):
        hi = lo + 2048
        overlap = ((fx0[lo:hi, None] <= gx1) & (fx1[lo:hi, None] >= gx0)
                   & (fy0[lo:hi, None] <= gy1) & (fy1[lo:hi, None] >= gy0))
        i, j = np.nonzero(overlap)
        i = i + lo
        proper = _cross_tests(
            fx[i], fy[i], fx[i + 1], fy[i + 1], gx[j], gy[j], gx[j + 1], gy[j + 1])[4]
        total += int(np.count_nonzero(proper))
    return total


def all_pairs_oracle(f: TrigCurve, g: TrigCurve, M: int) -> tuple[int, bool]:
    """brute_force_count's (count, stable) from all_pairs_cross_count, each
    resolution's polylines evaluated on their own."""
    counts = [all_pairs_cross_count(f, g, m) for m in (M, 2 * M, 4 * M)]
    return counts[2], counts[0] == counts[1] == counts[2]
