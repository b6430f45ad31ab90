"""Shared fixtures-in-spirit: curve builders and hypothesis strategies."""

import math
from functools import lru_cache

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


# The slice sampler as it stood before the reduced draws of
# chain.slice_attempts: a Gram-Schmidt frame of the slice and a full
# (8N+2)-dimensional Gaussian per attempt. Kept as the reference for the
# reduced draws' law.

@lru_cache(maxsize=None)
def fiber_frame(N: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the slice {f(0) = g(0)} inside the
    isometric pair coordinates, built by Gram-Schmidt: the two constraint
    normals first, then completed from the standard basis.
    """
    half = 4 * N + 2
    dim = 2 * half
    n1 = np.zeros(dim)
    n2 = np.zeros(dim)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    n1[0] = inv_sqrt2
    n2[1] = inv_sqrt2
    n1[half] = -inv_sqrt2
    n2[half + 1] = -inv_sqrt2
    for j in range(1, N + 1):
        base = 2 + 4 * (j - 1)
        n1[base] = 1.0  # x cosine coefficients enter f(0).x with weight 1 at r=0
        n2[base + 2] = 1.0
        n1[half + base] = -1.0
        n2[half + base + 2] = -1.0
    vecs = [n1 / np.linalg.norm(n1), n2 / np.linalg.norm(n2)]
    for i in range(dim):
        w = np.zeros(dim)
        w[i] = 1.0
        for _ in range(2):  # re-orthogonalize for clean residuals
            for v in vecs:
                w = w - np.dot(w, v) * v
        nw = float(np.linalg.norm(w))
        if nw > 1e-10:
            vecs.append(w / nw)
        if len(vecs) == dim:
            break
    assert len(vecs) == dim
    return np.column_stack(vecs[2:])


def fiber_candidates(N: int, rng: np.random.Generator,
                     count: int) -> tuple[np.ndarray, np.ndarray]:
    """count uniform points in the radius-sqrt(2) ball of the slice, as rows z
    of isometric pair coordinates (f block then g block), and the mask inside
    of the rows whose f and g both lie in the unit ball (r=0). The accepted
    rows z[inside] are uniform on the slice within the product of unit balls.
    """
    if N < 1:
        raise ValueError("the slice construction needs N >= 1")
    half = 4 * N + 2
    frame = fiber_frame(N)
    d = frame.shape[1]
    w = rng.standard_normal((count, d))
    radii = math.sqrt(2.0) * rng.random(count) ** (1.0 / d)
    norms = np.linalg.norm(w, axis=1)
    norms[norms == 0.0] = 1.0
    z = (w * (radii / norms)[:, None]) @ frame.T
    nf = np.einsum("ij,ij->i", z[:, :half], z[:, :half])
    ng = np.einsum("ij,ij->i", z[:, half:], z[:, half:])
    return z, (nf <= 1.0) & (ng <= 1.0)


def fiber_speed_dets(N: int, z: np.ndarray) -> np.ndarray:
    """|det(f'(0), g'(0))| for rows of isometric pair coordinates (r=0)."""
    half = 4 * N + 2
    j = np.arange(1, N + 1, dtype=float)
    xb = 2 + 4 * (np.arange(N)) + 1
    yb = xb + 2
    fx = z[:, xb] @ j
    fy = z[:, yb] @ j
    gx = z[:, half + xb] @ j
    gy = z[:, half + yb] @ j
    return np.abs(fx * gy - fy * gx)
