"""Reproducible random curve generation.

Every draw is addressed by a (master_seed, stream_index) pair; the generator
state is derived by hashing the pair (numpy SeedSequence), never by sharing a
sequential stream, so results are independent of worker scheduling.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import TrigCurve, norm
from .exact import check_degree, check_order, tau

_U64 = 1 << 64
_SQRT2 = math.sqrt(2.0)

__all__ = [
    "SeedSpec",
    "CurvePair",
    "sample_unit_ball_curve",
    "sample_pair",
    "sample_max_norm_weighted_pair",
    "fiber_candidates",
    "fiber_speed_dets",
]


@dataclass(frozen=True)
class SeedSpec:
    """Name of one reproducible randomness stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = operator.index(getattr(self, name))
            if not 0 <= v < _U64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer")
            object.__setattr__(self, name, v)

    def sequence(self, *extra: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, *extra)
        )

    def rng(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng(self.sequence(*extra))


@dataclass(frozen=True)
class CurvePair:
    f: TrigCurve
    g: TrigCurve

    def __post_init__(self):
        if self.f.degree != self.g.degree:
            raise ValueError("pair components must have equal degrees")


@lru_cache(maxsize=None)
def _iso_layout(N: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and divisor that take isometric coordinates u to the
    coefficients (xa, xb, ya, yb), concatenated: coefficient k is
    u[index[k]] / weight[k].

    Layout of u: u[0] -> a0*sqrt(2), u[1] -> ya0*sqrt(2), then for each
    frequency j the block (a_j, b_j, ya_j, yb_j) scaled by sqrt(tau(j, r)).
    """
    base = 2 + 4 * np.arange(N)
    w = np.array([math.sqrt(float(tau(j, r))) for j in range(1, N + 1)])
    index = np.concatenate(([0], base, base + 1, [1], base + 2, base + 3))
    weight = np.concatenate(([_SQRT2], w, w, [_SQRT2], w, w))
    index.setflags(write=False)  # shared by every caller through the cache
    weight.setflags(write=False)
    return index, weight


def _iso_to_curve(N: int, r: int, u: np.ndarray) -> TrigCurve:
    """Map isometric coordinates (where the metric is the plain Euclidean one)
    to curve coefficients; see _iso_layout."""
    index, weight = _iso_layout(N, r)
    coeffs = u[index] / weight
    return TrigCurve(N, coeffs[:N + 1], coeffs[N + 1:2 * N + 1],
                     coeffs[2 * N + 1:3 * N + 2], coeffs[3 * N + 2:])


def _ball_point(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform point in the dim-ball: Gaussian direction, U^(1/dim) radius."""
    z = rng.standard_normal(dim)
    u = rng.random()
    nz = float(np.linalg.norm(z))
    while nz == 0.0:
        z = rng.standard_normal(dim)
        nz = float(np.linalg.norm(z))
    return z * (radius * u ** (1.0 / dim) / nz)


def _ball_curve(N: int, r: int, rng: np.random.Generator) -> TrigCurve:
    return _iso_to_curve(N, r, _ball_point(4 * N + 2, 1.0, rng))


def sample_unit_ball_curve(N: int, r: int, seed: SeedSpec) -> TrigCurve:
    """One curve uniform in the unit ball of the order-r metric."""
    N = check_degree(N)
    r = check_order(r)
    return _ball_curve(N, r, seed.rng())


def sample_pair(N: int, r: int, seed: SeedSpec) -> CurvePair:
    """Two independent uniform unit-ball curves from derived sub-streams."""
    N = check_degree(N)
    r = check_order(r)
    return CurvePair(_ball_curve(N, r, seed.rng(0, 0)), _ball_curve(N, r, seed.rng(0, 1)))


def sample_max_norm_weighted_pair(N: int, r: int, k: float, seed: SeedSpec) -> CurvePair:
    """Pair with density proportional to max(|f|, |g|)^k on the product ball.

    Rejection from uniform pairs; attempt 0 replays sample_pair(seed) exactly,
    so k=0 reduces to the uniform sampler draw for draw.
    """
    if not (k >= 0 and math.isfinite(k)):
        raise ValueError("weight exponent must be finite and >= 0")
    N = check_degree(N)
    r = check_order(r)
    attempt = 0
    while True:
        pair = CurvePair(
            _ball_curve(N, r, seed.rng(attempt, 0)),
            _ball_curve(N, r, seed.rng(attempt, 1)),
        )
        p = max(norm(pair.f, r), norm(pair.g, r)) ** k
        if p >= 1.0 or seed.rng(attempt, 2).random() < p:
            return pair
        attempt += 1


# ---------------------------------------------------------------------------
# The point-coincidence slice {f(0) = g(0)} of pair space (plain L2 metric).

@lru_cache(maxsize=None)
def _fiber_frame(N: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the slice {f(0) = g(0)} inside the
    isometric pair coordinates, built by Gram-Schmidt: the two constraint
    normals first, then completed from the standard basis.
    """
    half = 4 * N + 2
    dim = 2 * half
    n1 = np.zeros(dim)
    n2 = np.zeros(dim)
    inv_sqrt2 = 1.0 / _SQRT2
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
    N = check_degree(N)
    if N < 1:
        raise ValueError("the slice construction needs N >= 1")
    half = 4 * N + 2
    frame = _fiber_frame(N)
    d = frame.shape[1]
    w = rng.standard_normal((count, d))
    radii = _SQRT2 * rng.random(count) ** (1.0 / d)
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
