"""Counting the crossings of two closed trigonometric plane curves.

Pipeline, as numpy array passes over a block of equal-degree pairs: adaptive
closed polylines of every curve from one evaluation -> candidate segment
pairs from one sort and sweep over the segment boxes of all pairs, each
pair's boxes shifted into an x band of its own -> strict segment-crossing
tests -> one batched 2-D Newton refinement of every seed on the parameter
torus -> dedup over the pairwise torus gaps within each pair. Anything that
looks non-transversal (refinement failure, near-singular Jacobian, odd
total, overlapping polyline geometry) raises the ``degenerate`` flag instead
of guessing.

Every stage treats each pair apart from the others: candidates are tested
on the unshifted boxes together with a same-pair test, each seed's Newton
sums run in an order fixed by the degree, and dedup compares roots of one
pair only. A pair's result is therefore bit-identical whether it is counted
alone (``count_intersections``) or in any block
(``count_intersections_many``). A block holds at most ``_BLOCK_VERTICES``
polyline vertices, which bounds its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import TrigCurve, evaluate_rows, lipschitz_bound, point_radius_bound

TWO_PI = 2.0 * math.pi

_MIN_VERTICES = 64
_SEG_TARGET_FACTOR = 0.02
# polyline vertices per block of pairs counted together: bounds the block's
# arrays whatever the number of pairs in one call
_BLOCK_VERTICES = 1 << 13

__all__ = [
    "CountingConfig",
    "IntersectionResult",
    "segment_proper_cross",
    "newton_refine",
    "count_intersections",
    "count_intersections_many",
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


def _stack(curves) -> tuple[np.ndarray, ...]:
    """Coefficient arrays (xa, xb, ya, yb) of equal-degree curves, one row each."""
    return tuple(np.array([getattr(c, name) for c in curves]) for name in ("xa", "xb", "ya", "yb"))


def _pair_matrix(f, g):
    """Rows and offset of the linear map from the feature row
    [cos j*phi, cos j*psi, sin j*phi, sin j*psi] (j = 1..N) to
    (rx, ry, f'x, f'y, g'x, g'y), where (rx, ry) = f(phi) - g(psi), for each
    pair p of the stacked coefficient arrays f and g (see _stack): rows[p]
    has shape (4N, 6) and offset[p] shape (6,)."""
    fxa, fxb, fya, fyb = f
    gxa, gxb, gya, gyb = g
    j = np.arange(1.0, fxb.shape[1] + 1)
    z = np.zeros_like(fxb)
    rows = np.stack([
        np.concatenate((fxa[:, 1:], -gxa[:, 1:], fxb, -gxb), axis=1),
        np.concatenate((fya[:, 1:], -gya[:, 1:], fyb, -gyb), axis=1),
        np.concatenate((j * fxb, z, -j * fxa[:, 1:], z), axis=1),
        np.concatenate((j * fyb, z, -j * fya[:, 1:], z), axis=1),
        np.concatenate((z, j * gxb, z, -j * gxa[:, 1:]), axis=1),
        np.concatenate((z, j * gyb, z, -j * gya[:, 1:]), axis=1),
    ], axis=2)
    offset = np.zeros((fxa.shape[0], 6))
    offset[:, 0] = fxa[:, 0] - gxa[:, 0]
    offset[:, 1] = fya[:, 0] - gya[:, 0]
    return rows, offset


def _fold_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 1 by folding halves together, an order fixed by that
    axis' length alone, where a matrix product's order may follow the batch
    shape."""
    while terms.shape[1] > 1:
        half = terms.shape[1] // 2
        folded = terms[:, :half] + terms[:, half:2 * half]
        terms = np.concatenate((folded, terms[:, 2 * half:]), axis=1) if terms.shape[1] % 2 else folded
    return terms.sum(axis=1)  # one term, or none at degree 0: exact


def _newton_batch(rows, offset, phi, psi, res_tol: float, cfg: CountingConfig):
    """Newton on F(phi, psi) = f(phi) - g(psi) from every seed at once; seed
    k uses the map rows[k], offset[k] of its pair (see _pair_matrix).

    Each pass tests the Jacobian first, then the residual, then steps; a seed
    that turned near-singular or converged is frozen and leaves the batch, so
    a seed's path does not depend on the other seeds. Returns
    (phi, psi, det, ok): the seeds wrapped to the torus, det(f', -g') at
    each, and ok where the seed converged.
    """
    j = np.arange(1.0, rows.shape[1] // 4 + 1)
    phi = np.array(phi, dtype=float)
    psi = np.array(psi, dtype=float)
    det = np.zeros(phi.size)
    ok = np.zeros(phi.size, dtype=bool)
    live = np.arange(phi.size)
    for _ in range(cfg.max_newton_iters + 1):
        p, q = phi[live], psi[live]
        angles = np.concatenate((np.multiply.outer(p, j), np.multiply.outer(q, j)), axis=1)
        features = np.concatenate((np.cos(angles), np.sin(angles)), axis=1)
        values = _fold_sum(features[:, :, None] * rows[live]) + offset[live]
        rx, ry, dfx, dfy, dgx, dgy = values.T
        d = dgx * dfy - dfx * dgy
        singular = np.abs(d) < cfg.degeneracy_threshold
        done = ~singular & (np.hypot(rx, ry) <= res_tol)
        det[live] = d
        ok[live] = done
        step = ~(singular | done)
        live = live[step]
        if not live.size:
            break
        rx, ry, dfx, dfy, dgx, dgy = values[step].T
        d = d[step]
        phi[live] = p[step] + (rx * dgy - ry * dgx) / d
        psi[live] = q[step] + (rx * dfy - ry * dfx) / d
    return np.mod(phi, TWO_PI), np.mod(psi, TWO_PI), det, ok


def _res_tol(degree: int, cfg: CountingConfig) -> float:
    return 10.0 * cfg.newton_tol * point_radius_bound(degree, 0)


def newton_refine(f: TrigCurve, g: TrigCurve, phi0: float, psi0: float,
                  cfg: CountingConfig | None = None):
    """Refine a crossing seed; returns (phi, psi, det_J) wrapped to the torus,
    or None when iterations run out or the Jacobian turns near-singular."""
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    cfg = cfg or CountingConfig()
    rows, offset = _pair_matrix(_stack([f]), _stack([g]))
    phi, psi, det, ok = _newton_batch(rows, offset, [float(phi0)], [float(psi0)],
                                      _res_tol(f.degree, cfg), cfg)
    return (float(phi[0]), float(psi[0]), float(det[0])) if ok[0] else None


def _closed_polylines(stack, m: np.ndarray):
    """Closed polylines of stacked curves (see _stack), concatenated: curve k
    gets m[k] + 1 vertices at the angles 2*pi*i/m[k], the last an exact copy
    of the first."""
    ends = np.cumsum(m + 1)
    i = np.arange(ends[-1]) - np.repeat(ends - (m + 1), m + 1)
    phis = i * np.repeat(TWO_PI / m, m + 1)
    phis[ends - 1] = 0.0  # exact closure
    return evaluate_rows(*stack, phis, m + 1)


def _live_segments(xs: np.ndarray, ys: np.ndarray, m: np.ndarray):
    """Polyline, start vertex and bounding box (x0, x1, y0, y1) of each
    non-zero-length segment of closed polylines concatenated as
    _closed_polylines makes them."""
    ends = np.cumsum(m + 1)
    x1, x2, y1, y2 = xs[:-1], xs[1:], ys[:-1], ys[1:]
    live = (x1 != x2) | (y1 != y2)
    live[ends[:-1] - 1] = False  # a polyline's last vertex starts no segment
    idx = np.flatnonzero(live)
    line = np.repeat(np.arange(m.size), m + 1)[idx]
    x1, x2, y1, y2 = x1[idx], x2[idx], y1[idx], y2[idx]
    return line, idx, np.minimum(x1, x2), np.maximum(x1, x2), np.minimum(y1, y2), np.maximum(y1, y2)


def _polyline_crossings(xs, ys, m):
    """Proper crossings of the f and g polylines of each pair of a block, from
    one sort and sweep over all their segment boxes.

    xs, ys hold closed polylines concatenated, polyline k with m[k] + 1
    vertices: the n = m.size // 2 pairs' f polylines, then their g polylines
    in the same pair order. Returns (p, i, j, t, s, touch): the pair, f
    segment and g segment of each crossing in (pair, g segment, f segment)
    order, the fractions t and s of the way along the two segments, and a
    mask of the pairs in which some pair of overlapping boxes held a touch or
    a collinear overlap.
    """
    n = m.size // 2
    line, v, x0, x1, y0, y1 = _live_segments(xs, ys, m)
    cut = np.searchsorted(line, n)
    fp, fi, fx0, fx1, fy0, fy1 = line[:cut], v[:cut], x0[:cut], x1[:cut], y0[:cut], y1[:cut]
    gp, gj, gx0, gx1, gy0, gy1 = line[cut:] - n, v[cut:], x0[cut:], x1[cut:], y0[cut:], y1[cut:]
    # each pair's boxes are moved along x into a band of their own, so one
    # sweep serves all pairs; rounding in the move can only widen a window,
    # and the exact test below on the unmoved boxes drops what it adds
    first = np.cumsum(m + 1) - (m + 1)
    lo = np.minimum.reduceat(xs, first)
    hi = np.maximum.reduceat(xs, first)
    width = np.maximum(hi[:n], hi[n:]) - np.minimum(lo[:n], lo[n:]) + 1.0
    shift = np.cumsum(width) - width - np.minimum(lo[:n], lo[n:])
    fk0 = fx0 + shift[fp]
    order = np.argsort(fk0, kind="stable")
    fp, fi, fx0, fx1, fy0, fy1 = fp[order], fi[order], fx0[order], fx1[order], fy0[order], fy1[order]
    gshift = shift[gp]
    # with f's boxes in shifted x-min order, the boxes that can meet g box b
    # run from the first whose running x-max reaches b's x-min to the last
    # whose x-min is at most b's x-max
    start = np.searchsorted(np.maximum.accumulate(fx1 + shift[fp]), gx0 + gshift, "left")
    width = np.maximum(np.searchsorted(fk0[order], gx1 + gshift, "right") - start, 0)
    ends = np.cumsum(width)
    a = np.arange(ends[-1] if ends.size else 0) + np.repeat(start - (ends - width), width)
    # the y test first, as it drops most of the window; then the exact x test
    # and the pair test on what is left
    k = np.flatnonzero((fy0[a] <= np.repeat(gy1, width)) & (fy1[a] >= np.repeat(gy0, width)))
    a = a[k]
    b = np.searchsorted(ends, k, "right")
    hit = (fp[a] == gp[b]) & (fx1[a] >= gx0[b]) & (fx0[a] <= gx1[b])
    # seeds in pair, g-segment, then f-segment order, whatever the sweep order
    i = fi[a[hit]]
    j = gj[b[hit]]
    order = np.lexsort((i, j))
    i, j = i[order], j[order]
    d1, d2, d3, d4, proper = _cross_tests(
        xs[i], ys[i], xs[i + 1], ys[i + 1], xs[j], ys[j], xs[j + 1], ys[j + 1])
    p = gp[b[hit]][order]
    touch = np.zeros(n, dtype=bool)
    touch[p[~proper & ((d1 == 0.0) | (d2 == 0.0) | (d3 == 0.0) | (d4 == 0.0))]] = True
    d1, d2, d3, d4, p = d1[proper], d2[proper], d3[proper], d4[proper], p[proper]
    return (p, i[proper] - first[p], j[proper] - first[n + p],
            d3 / (d3 - d4), d1 / (d1 - d2), touch)


def _first_of_clusters(phi: np.ndarray, psi: np.ndarray, group: np.ndarray,
                       radius: float) -> np.ndarray:
    """Mask of the roots kept when each root, in order, is dropped if a root
    of its group already kept lies within radius in both torus coordinates;
    the angles are wrapped to [0, 2*pi] and group is non-decreasing. Rows are
    taken 256 at a time, against the earlier roots of their groups, to bound
    the gap matrices, and only rows with an earlier close root are decided
    one by one."""
    keep = np.ones(phi.size, dtype=bool)
    first = np.searchsorted(group, group, "left")
    for lo in range(0, phi.size, 256):
        hi = min(lo + 256, phi.size)
        c0 = first[lo]
        near = group[lo:hi, None] == group[c0:hi]
        for x in (phi, psi):
            d = np.abs(x[lo:hi, None] - x[c0:hi])
            near &= np.minimum(d, TWO_PI - d) <= radius
        near = np.tril(near, lo - c0 - 1)
        for k in np.flatnonzero(near.any(axis=1)):
            # near[k] marks earlier roots only, whose keep is already final
            keep[lo + k] = not (keep[c0:hi] & near[k]).any()
    return keep


def _count_block(fs, gs, mf, mg, cfg: CountingConfig) -> list[IntersectionResult]:
    """Results for the pairs (fs[p], gs[p]) of one block, none of them with a
    constant curve, counted on polylines of mf[p] and mg[p] segments."""
    n = len(fs)
    stack = _stack(fs + gs)
    f = tuple(a[:n] for a in stack)
    g = tuple(a[n:] for a in stack)
    m = np.array(mf + mg)
    xs, ys = _closed_polylines(stack, m)
    p, i, j, t, s, touch = _polyline_crossings(xs, ys, m)

    rows, offset = _pair_matrix(f, g)
    step = TWO_PI / m
    phi, psi, det, ok = _newton_batch(rows[p], offset[p], (i + t) * step[p], (j + s) * step[n + p],
                                      _res_tol(fs[0].degree, cfg), cfg)
    failed = np.bincount(p[~ok], minlength=n) > 0
    kept = np.flatnonzero(ok)
    kept = kept[_first_of_clusters(phi[kept], psi[kept], p[kept], cfg.dedupe_radius)]
    kept = kept[np.lexsort((psi[kept], phi[kept], p[kept]))]
    solutions = list(zip(phi[kept].tolist(), psi[kept].tolist()))
    count = np.bincount(p[kept], minlength=n)
    ends = np.cumsum(count)
    min_abs_det = np.full(n, math.inf)
    found = count > 0
    min_abs_det[found] = np.minimum.reduceat(np.abs(det[kept]), (ends - count)[found])
    degenerate = touch | failed | (count % 2 == 1) | (min_abs_det < cfg.degeneracy_threshold)
    return [IntersectionResult(c, solutions[e - c:e], d, bad)
            for c, e, d, bad in zip(count.tolist(), ends.tolist(), min_abs_det.tolist(),
                                    degenerate.tolist())]


def count_intersections_many(pairs, cfg: CountingConfig | None = None) -> list[IntersectionResult]:
    """Count the solutions of f(phi) = g(psi) on the parameter torus for each
    pair (f, g); all pairs must share one degree.

    Pairs are counted in blocks of at most _BLOCK_VERTICES polyline vertices
    (a larger pair makes a block alone), each stage running once per block,
    and each pair's result is bit-identical to counting it alone.
    """
    cfg = cfg or CountingConfig()
    pairs = list(pairs)
    for f, g in pairs:
        if f.degree != g.degree:
            raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    degrees = sorted({f.degree for f, _ in pairs})
    if len(degrees) > 1:
        raise ValueError(f"pairs of different degrees in one call: {degrees}")
    results: list = [None] * len(pairs)
    if not pairs:
        return results
    seg_target = cfg.resolved_seg_target(degrees[0])
    live = []
    for k, (f, g) in enumerate(pairs):
        lf = lipschitz_bound(f)
        lg = lipschitz_bound(g)
        if lf == 0.0 and lg == 0.0:
            # two constant maps: distinct points never meet, coincident ones overlap
            coincident = f.xa[0] == g.xa[0] and f.ya[0] == g.ya[0]
            results[k] = IntersectionResult(0, [], math.inf, bool(coincident))
        elif lf == 0.0 or lg == 0.0:
            # point versus curve: meets only on a measure-zero set; report no
            # crossings (a transversal crossing needs two moving branches)
            results[k] = IntersectionResult(0, [], math.inf, False)
        else:
            live.append((k, f, g, max(_MIN_VERTICES, math.ceil(TWO_PI * lf / seg_target)),
                         max(_MIN_VERTICES, math.ceil(TWO_PI * lg / seg_target))))
    for block in _blocks(live):
        ks, fs, gs, mf, mg = zip(*block)
        for k, res in zip(ks, _count_block(fs, gs, mf, mg, cfg)):
            results[k] = res
    return results


def _blocks(live):
    """Runs of consecutive (k, f, g, mf, mg) entries with at most
    _BLOCK_VERTICES polyline vertices each; a larger pair makes a run alone."""
    block: list = []
    vertices = 0
    for entry in live:
        size = entry[3] + entry[4] + 2
        if block and vertices + size > _BLOCK_VERTICES:
            yield block
            block, vertices = [], 0
        block.append(entry)
        vertices += size
    if block:
        yield block


def count_intersections(f: TrigCurve, g: TrigCurve,
                        cfg: CountingConfig | None = None) -> IntersectionResult:
    """Count the solutions of f(phi) = g(psi) on the parameter torus."""
    return count_intersections_many([(f, g)], cfg)[0]


def _polyline_cross_count(f: TrigCurve, g: TrigCurve, m: int) -> int:
    """Strict crossing count of the two closed m-vertex polylines, testing
    every pair of overlapping segment boxes (no sweep), in row blocks."""
    fx, fy = _closed_polylines(_stack([f]), np.array([m]))
    gx, gy = _closed_polylines(_stack([g]), np.array([m]))
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
