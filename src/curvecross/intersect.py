"""Counting the crossings of two closed trigonometric plane curves.

Pipeline, as numpy array passes over one pair: adaptive closed polylines ->
candidate segment pairs from a sort and sweep over the segment boxes ->
strict segment-crossing tests -> one batched 2-D Newton refinement of every
seed on the parameter torus -> dedup over the pairwise torus gaps. Anything
that looks non-transversal (refinement failure, near-singular Jacobian, odd
total, overlapping polyline geometry) raises the ``degenerate`` flag instead
of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import TrigCurve, evaluate_many, lipschitz_bound, point_radius_bound

TWO_PI = 2.0 * math.pi

_MIN_VERTICES = 64
_SEG_TARGET_FACTOR = 0.02

__all__ = [
    "CountingConfig",
    "IntersectionResult",
    "segment_proper_cross",
    "newton_refine",
    "count_intersections",
    "brute_force_count",
]


@dataclass(frozen=True)
class CountingConfig:
    """Tunables for the crossing counter.

    seg_target is the polyline chord-length target; None resolves to 2% of
    the value-disc radius for the curves' degree. newton_tol is a step size
    in parameter space; dedupe_radius a torus distance.
    """

    seg_target: float | None = None
    newton_tol: float = 1e-12
    dedupe_radius: float = 1e-6
    max_newton_iters: int = 50
    degeneracy_threshold: float = 1e-8

    def __post_init__(self):
        if self.seg_target is not None and not self.seg_target > 0:
            raise ValueError("seg_target must be positive")
        for name in ("newton_tol", "dedupe_radius", "degeneracy_threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be >= 1")

    def resolved_seg_target(self, degree: int) -> float:
        if self.seg_target is not None:
            return self.seg_target
        return _SEG_TARGET_FACTOR * point_radius_bound(degree, 0)


@dataclass
class IntersectionResult:
    """Solution pairs (phi, psi) of f(phi) = g(psi) plus quality diagnostics.

    count == len(solutions); min_abs_det is the smallest |det(f', -g')| over
    the refined roots (inf when there are none).
    """

    count: int
    solutions: list[tuple[float, float]]
    min_abs_det: float
    degenerate: bool


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _cross_tests(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
    """Orientation tests of segment p1p2 against q1q2, on floats or arrays.

    Returns (d1, d2, d3, d4, proper); proper marks a transversal crossing of
    the open segments. A zero d without one is an endpoint touch or a
    collinear overlap.
    """
    d1 = _orient(p1x, p1y, p2x, p2y, q1x, q1y)
    d2 = _orient(p1x, p1y, p2x, p2y, q2x, q2y)
    d3 = _orient(q1x, q1y, q2x, q2y, p1x, p1y)
    d4 = _orient(q1x, q1y, q2x, q2y, p2x, p2y)
    return d1, d2, d3, d4, (d1 * d2 < 0.0) & (d3 * d4 < 0.0)


def segment_proper_cross(p1, p2, q1, q2) -> bool:
    """True iff the open segments p1p2 and q1q2 cross transversally.

    Endpoint touches and collinear overlaps are not proper crossings; a
    zero-length segment is an error.
    """
    p1x, p1y = float(p1[0]), float(p1[1])
    p2x, p2y = float(p2[0]), float(p2[1])
    q1x, q1y = float(q1[0]), float(q1[1])
    q2x, q2y = float(q2[0]), float(q2[1])
    if (p1x == p2x and p1y == p2y) or (q1x == q2x and q1y == q2y):
        raise ValueError("zero-length segment")
    return bool(_cross_tests(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y)[4])


def _pair_matrix(f: TrigCurve, g: TrigCurve):
    """Frequencies of f and g, and the rows and offset of the linear map from
    the feature row [cos j*phi, cos k*psi, sin j*phi, sin k*psi]
    (j = 1..deg f, k = 1..deg g) to (rx, ry, f'x, f'y, g'x, g'y), where
    (rx, ry) = f(phi) - g(psi)."""
    jf = np.arange(1.0, f.degree + 1)
    jg = np.arange(1.0, g.degree + 1)
    zf = np.zeros(f.degree)
    zg = np.zeros(g.degree)
    rows = np.array([
        np.concatenate((f.xa[1:], -g.xa[1:], f.xb, -g.xb)),
        np.concatenate((f.ya[1:], -g.ya[1:], f.yb, -g.yb)),
        np.concatenate((jf * f.xb, zg, -jf * f.xa[1:], zg)),
        np.concatenate((jf * f.yb, zg, -jf * f.ya[1:], zg)),
        np.concatenate((zf, jg * g.xb, zf, -jg * g.xa[1:])),
        np.concatenate((zf, jg * g.yb, zf, -jg * g.ya[1:])),
    ]).T
    offset = np.array([f.xa[0] - g.xa[0], f.ya[0] - g.ya[0], 0.0, 0.0, 0.0, 0.0])
    return jf, jg, rows, offset


def _newton_batch(f: TrigCurve, g: TrigCurve, phi, psi, res_tol: float, cfg: CountingConfig):
    """Newton on F(phi, psi) = f(phi) - g(psi) from every seed at once.

    Each pass tests the Jacobian first, then the residual, then steps; a seed
    that turned near-singular or converged is frozen, and so stays so on the
    next pass. Returns (phi, psi, det, ok): the seeds wrapped to the torus,
    det(f', -g') at each, and ok where the seed converged.
    """
    jf, jg, rows, offset = _pair_matrix(f, g)
    phi = np.array(phi, dtype=float)
    psi = np.array(psi, dtype=float)
    for _ in range(cfg.max_newton_iters + 1):
        angles = np.concatenate((np.multiply.outer(phi, jf), np.multiply.outer(psi, jg)), axis=1)
        values = np.concatenate((np.cos(angles), np.sin(angles)), axis=1) @ rows + offset
        rx, ry, dfx, dfy, dgx, dgy = values.T
        det = dgx * dfy - dfx * dgy
        singular = np.abs(det) < cfg.degeneracy_threshold
        ok = ~singular & (np.hypot(rx, ry) <= res_tol)
        step = ~(singular | ok)
        if not step.any():
            break
        safe = np.where(step, det, 1.0)  # no division by a singular det
        phi = np.where(step, phi + (rx * dgy - ry * dgx) / safe, phi)
        psi = np.where(step, psi + (rx * dfy - ry * dfx) / safe, psi)
    return np.mod(phi, TWO_PI), np.mod(psi, TWO_PI), det, ok


def newton_refine(f: TrigCurve, g: TrigCurve, phi0: float, psi0: float,
                  cfg: CountingConfig | None = None):
    """Refine a crossing seed; returns (phi, psi, det_J) wrapped to the torus,
    or None when iterations run out or the Jacobian turns near-singular."""
    cfg = cfg or CountingConfig()
    res_tol = 10.0 * cfg.newton_tol * point_radius_bound(max(f.degree, g.degree), 0)
    phi, psi, det, ok = _newton_batch(f, g, [float(phi0)], [float(psi0)], res_tol, cfg)
    return (float(phi[0]), float(psi[0]), float(det[0])) if ok[0] else None


def _closed_polyline(c: TrigCurve, m: int):
    phis = np.arange(m + 1, dtype=float) * (TWO_PI / m)
    phis[m] = 0.0  # exact closure
    return evaluate_many(c, phis)


def _live_segments(xs: np.ndarray, ys: np.ndarray):
    """Indices and bounding boxes (x0, x1, y0, y1) of the non-zero-length
    segments of a polyline."""
    x1, x2, y1, y2 = xs[:-1], xs[1:], ys[:-1], ys[1:]
    idx = np.flatnonzero((x1 != x2) | (y1 != y2))
    x1, x2, y1, y2 = x1[idx], x2[idx], y1[idx], y2[idx]
    return idx, np.minimum(x1, x2), np.maximum(x1, x2), np.minimum(y1, y2), np.maximum(y1, y2)


def _polyline_crossings(fx, fy, gx, gy):
    """Proper crossings of two polylines, from a sort and sweep over their
    segment boxes.

    Returns (i, j, t, s, touch): the f and g segment of each crossing, the
    fractions t and s of the way along them, and whether any pair of
    overlapping boxes held a touch or a collinear overlap.
    """
    fi, fx0, fx1, fy0, fy1 = _live_segments(fx, fy)
    gj, gx0, gx1, gy0, gy1 = _live_segments(gx, gy)
    order = np.argsort(fx0, kind="stable")
    fi, fx0, fx1, fy0, fy1 = fi[order], fx0[order], fx1[order], fy0[order], fy1[order]
    # with f's boxes in x-min order, the boxes that can meet g box b run from
    # the first whose running x-max reaches b's x-min to the last whose x-min
    # is at most b's x-max
    lo = np.searchsorted(np.maximum.accumulate(fx1), gx0, "left")
    width = np.maximum(np.searchsorted(fx0, gx1, "right") - lo, 0)
    a = np.arange(width.sum()) + np.repeat(lo - (np.cumsum(width) - width), width)
    hit = ((fx1[a] >= np.repeat(gx0, width)) & (fy0[a] <= np.repeat(gy1, width))
           & (fy1[a] >= np.repeat(gy0, width)))
    # seeds in g-segment order, then f-segment order, whatever the sweep order
    i = fi[a[hit]]
    j = np.repeat(gj, width)[hit]
    order = np.lexsort((i, j))
    i, j = i[order], j[order]
    d1, d2, d3, d4, proper = _cross_tests(
        fx[i], fy[i], fx[i + 1], fy[i + 1], gx[j], gy[j], gx[j + 1], gy[j + 1])
    touch = bool(np.any(~proper & ((d1 == 0.0) | (d2 == 0.0) | (d3 == 0.0) | (d4 == 0.0))))
    d1, d2, d3, d4 = d1[proper], d2[proper], d3[proper], d4[proper]
    return i[proper], j[proper], d3 / (d3 - d4), d1 / (d1 - d2), touch


def _first_of_clusters(phi: np.ndarray, psi: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the roots kept when each root, in order, is dropped if a root
    already kept lies within radius in both torus coordinates; the angles are
    wrapped to [0, 2*pi]. Rows are taken 256 at a time to bound the gap
    matrices, and only rows with an earlier close root are decided one by one."""
    keep = np.ones(phi.size, dtype=bool)
    for lo in range(0, phi.size, 256):
        hi = min(lo + 256, phi.size)
        near = np.ones((hi - lo, hi), dtype=bool)
        for x in (phi, psi):
            d = np.abs(x[lo:hi, None] - x[:hi])
            near &= np.minimum(d, TWO_PI - d) <= radius
        near = np.tril(near, lo - 1)
        for k in np.flatnonzero(near.any(axis=1)):
            # near[k] marks earlier roots only, whose keep is already final
            keep[lo + k] = not (keep[:hi] & near[k]).any()
    return keep


def count_intersections(f: TrigCurve, g: TrigCurve,
                        cfg: CountingConfig | None = None) -> IntersectionResult:
    """Count the solutions of f(phi) = g(psi) on the parameter torus."""
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    cfg = cfg or CountingConfig()
    seg_target = cfg.resolved_seg_target(f.degree)

    lf = lipschitz_bound(f)
    lg = lipschitz_bound(g)
    if lf == 0.0 and lg == 0.0:
        # two constant maps: distinct points never meet, coincident ones overlap
        coincident = f.xa[0] == g.xa[0] and f.ya[0] == g.ya[0]
        return IntersectionResult(0, [], math.inf, coincident)
    if lf == 0.0 or lg == 0.0:
        # point versus curve: meets only on a measure-zero set; report no
        # crossings (a transversal crossing needs two moving branches)
        return IntersectionResult(0, [], math.inf, False)

    mf = max(_MIN_VERTICES, math.ceil(TWO_PI * lf / seg_target))
    mg = max(_MIN_VERTICES, math.ceil(TWO_PI * lg / seg_target))
    fx, fy = _closed_polyline(f, mf)
    gx, gy = _closed_polyline(g, mg)
    i, j, t, s, touch = _polyline_crossings(fx, fy, gx, gy)

    res_tol = 10.0 * cfg.newton_tol * point_radius_bound(f.degree, 0)
    phi, psi, det, ok = _newton_batch(f, g, (i + t) * (TWO_PI / mf), (j + s) * (TWO_PI / mg),
                                      res_tol, cfg)
    failed = not ok.all()
    phi, psi, det = phi[ok], psi[ok], det[ok]
    keep = _first_of_clusters(phi, psi, cfg.dedupe_radius)
    phi, psi, det = phi[keep], psi[keep], det[keep]
    order = np.lexsort((psi, phi))
    solutions = list(zip(phi[order].tolist(), psi[order].tolist()))
    min_abs_det = float(np.min(np.abs(det), initial=math.inf))
    count = len(solutions)
    degenerate = (
        touch
        or failed
        or count % 2 == 1
        or min_abs_det < cfg.degeneracy_threshold
    )
    return IntersectionResult(count, solutions, min_abs_det, degenerate)


def _polyline_cross_count(f: TrigCurve, g: TrigCurve, m: int) -> int:
    """Strict crossing count of the two closed m-vertex polylines, testing
    every pair of overlapping segment boxes (no sweep), in row blocks."""
    fx, fy = _closed_polyline(f, m)
    gx, gy = _closed_polyline(g, m)
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


def brute_force_count(f: TrigCurve, g: TrigCurve, M: int = 256) -> tuple[int, bool]:
    """Resolution-doubling crossing oracle.

    Counts strict polyline crossings at M, 2M and 4M vertices; stable means
    all three agree (the agreed count is returned, else the finest one).
    """
    if M < 256:
        raise ValueError("oracle resolution must be at least 256 vertices")
    counts = [_polyline_cross_count(f, g, m) for m in (M, 2 * M, 4 * M)]
    stable = counts[0] == counts[1] == counts[2]
    return counts[2], stable
