"""Counting the crossings of two closed trigonometric plane curves.

Degree one: every curve is an ellipse c + A (cos, sin), so the crossings of
a pair are the unit-circle roots of one quartic (``_count_degree_one``).
Each pair is normalized to a common centre and scale, the quartics of a
block are solved by one batch of 4x4 companion eigenvalues, and the roots
on the unit circle seed the Newton polish below; a near-double root is a
touch and raises the flag. No polyline is drawn, so ``seg_target`` has no
effect there.

Higher degrees, as numpy array passes over a block of equal-degree pairs:
adaptive closed polylines of every curve from one evaluation -> candidate
segment pairs from one sort and sweep over the segment boxes of all pairs,
each pair's boxes shifted into an x band of its own -> strict
segment-crossing tests -> one batched 2-D Newton refinement of every seed
on the parameter torus -> dedup over the pairwise torus gaps within each
pair. Anything that looks non-transversal (refinement failure,
near-singular Jacobian, odd total, overlapping polyline geometry) raises
the ``degenerate`` flag instead of guessing.

Polylines and Newton share one kernel, ``curves.horner``: a coordinate is
its constant term plus Re of a Horner sum of the coefficients a_j - i*b_j
in e^{i*theta}, and a velocity is -Im of the sum with coefficients
j*(a_j - i*b_j).

The pairs come as two ``curves.CurveRows`` blocks, row k of f against row k
of g (``count_intersections_many``); ``count_intersections`` is its one-pair
call, on the one-row blocks that two curves view. Every stage treats each
pair apart from the others: candidates are tested on the unshifted boxes
together with a same-pair test, each value's Horner sum runs element by
element in an order fixed by the degree, each quartic has its own
eigenvalue call, and dedup compares roots of one pair only. A pair's result
is therefore bit-identical whether it is counted alone or in any block. A
block holds at most ``_BLOCK_VERTICES`` polyline vertices, or
``_DEGREE_ONE_PAIRS`` degree-one pairs, which bounds its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (CurveRows, TrigCurve, evaluate_rows, horner, lipschitz_bounds,
                     point_radius_bound)

TWO_PI = 2.0 * math.pi

_MIN_VERTICES = 64
_SEG_TARGET_FACTOR = 0.02
# polyline vertices per block of pairs counted together: bounds the block's
# arrays whatever the number of pairs in one call
_BLOCK_VERTICES = 1 << 13
# the oracle's first-level boxes each cover this many consecutive segments
# (16 measured 5.6 ms per N=8 oracle call against 1.8 ms), and its candidate
# expansion takes this many overlapping chunk pairs at once
_ORACLE_CHUNK = 8
_ORACLE_BATCH = 1024
# degree-one pairs solved together, which bounds their arrays
_DEGREE_ONE_PAIRS = 1024
# a quartic root this close to the unit circle seeds Newton
_CIRCLE_TOL = 1e-7
# |det A| / |A|_F^2 of both matrices at most this: no inverse to trust
_SINGULAR = 1e-6
# p at most this times the size of its terms: the two images coincide
_FLAT = 1e-12
# e^{i theta} at the eight angles 2*pi*k/8 where p is sampled
_SAMPLE_Z = np.exp(2j * np.pi * np.arange(8) / 8)

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
    the value-disc radius for the curves' degree. It has no effect at degree
    one, where no polylines are drawn. newton_tol is a step size in
    parameter space; dedupe_radius a torus distance.
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


def _pair_matrix(f, g):
    """Horner rows and constant offsets of each pair p of the coefficient
    arrays f and g (CurveRows.arrays): rows[p] has shape (8, N), the
    coefficients a_j - i*b_j (j = 1..N) of f's x and y, then of g's, then the
    four again times j; offset[p] is (f's x, y constant terms) minus g's."""
    fxa, fxb, fya, fyb = f
    gxa, gxb, gya, gyb = g
    n, N = fxb.shape
    cosines = np.concatenate((fxa[:, 1:], fya[:, 1:], gxa[:, 1:], gya[:, 1:]), axis=1)
    plain = (cosines - 1j * np.concatenate((fxb, fyb, gxb, gyb), axis=1)).reshape(n, 4, N)
    rows = np.concatenate((plain, plain * np.arange(1.0, N + 1)), axis=1)
    return rows, np.stack((fxa[:, 0] - gxa[:, 0], fya[:, 0] - gya[:, 0]), axis=1)


def _newton_batch(rows, offset, phi, psi, res_tol: float, cfg: CountingConfig):
    """Newton on F(phi, psi) = f(phi) - g(psi) from every seed at once; seed
    k uses the Horner rows[k] and offset[k] of its pair (see _pair_matrix).

    Each pass evaluates the eight horner sums of every live seed, f's at
    e^{i*phi} and g's at e^{i*psi}: the residual is Re of the plain sums plus
    the offset, added last, and f', g' are -Im of the j-weighted sums. It
    tests the Jacobian first, then the residual, then steps; a seed that
    turned near-singular or converged is frozen and leaves the batch, so a
    seed's path does not depend on the other seeds. Returns
    (phi, psi, det, ok): the seeds wrapped to the torus, det(f', -g') at
    each, and ok where the seed converged.
    """
    coef = np.moveaxis(rows, 2, 0)  # coef[j - 1]: the (seed, sum) coefficients of z**j
    phi = np.array(phi, dtype=float)
    psi = np.array(psi, dtype=float)
    det = np.zeros(phi.size)
    ok = np.zeros(phi.size, dtype=bool)
    live = np.arange(phi.size)
    for _ in range(cfg.max_newton_iters + 1):
        p, q = phi[live], psi[live]
        e = np.exp(1j * np.array((p, q)))  # f's sums take e[0], g's e[1]
        sums = horner(coef[:, live], e[[0, 0, 1, 1, 0, 0, 1, 1]].T)
        r = (sums[:, :2].real - sums[:, 2:4].real) + offset[live]
        v = -sums[:, 4:].imag
        dfx, dfy, dgx, dgy = v.T
        d = dgx * dfy - dfx * dgy
        singular = np.abs(d) < cfg.degeneracy_threshold
        done = ~singular & (np.hypot(r[:, 0], r[:, 1]) <= res_tol)
        det[live] = d
        ok[live] = done
        step = ~(singular | done)
        live = live[step]
        if not live.size:
            break
        (rx, ry), (dfx, dfy, dgx, dgy), d = r[step].T, v[step].T, d[step]
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
    rows, offset = _pair_matrix(f.rows.arrays, g.rows.arrays)
    phi, psi, det, ok = _newton_batch(rows, offset, [float(phi0)], [float(psi0)],
                                      _res_tol(f.degree, cfg), cfg)
    return (float(phi[0]), float(psi[0]), float(det[0])) if ok[0] else None


def _closed_polylines(stack, m: np.ndarray):
    """Closed polylines of the curves with coefficient arrays stack (as
    CurveRows.arrays), concatenated: curve k gets m[k] + 1 vertices at the
    angles 2*pi*i/m[k], the last an exact copy of the first."""
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


def _count_block(f: CurveRows, g: CurveRows, ks: np.ndarray, mf, mg,
                 cfg: CountingConfig) -> list[IntersectionResult]:
    """Results for the pairs (f[k], g[k]), k in ks, of one block, none of
    them with a constant curve, counted on polylines of mf and mg segments."""
    n = ks.size
    take = slice(None) if n == len(f) else ks  # ks is increasing: all rows, in order
    stack = tuple(np.concatenate((a[take], b[take])) for a, b in zip(f.arrays, g.arrays))
    m = np.array(mf + mg)
    xs, ys = _closed_polylines(stack, m)
    p, i, j, t, s, touch = _polyline_crossings(xs, ys, m)

    rows, offset = _pair_matrix(tuple(a[:n] for a in stack), tuple(a[n:] for a in stack))
    step = TWO_PI / m
    phi, psi, det, ok = _newton_batch(rows[p], offset[p], (i + t) * step[p], (j + s) * step[n + p],
                                      _res_tol(f.degree, cfg), cfg)
    return _results(n, p, phi, psi, det, ok, touch, 1.0, cfg)


def _results(n: int, p, phi, psi, det, ok, flagged, det_scale, cfg: CountingConfig):
    """The results of n pairs from their Newton runs: seed k of pair p[k]
    ended at (phi[k], psi[k]) with det[k], converged where ok. A pair is
    degenerate where flagged, where a seed failed, where its total is odd or
    where its smallest |det| is below the threshold; det_scale (a scalar or
    one value per pair) takes that |det| into the caller's units."""
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
    degenerate = flagged | failed | (count % 2 == 1) | (min_abs_det < cfg.degeneracy_threshold)
    return [IntersectionResult(c, solutions[e - c:e], d, bad)
            for c, e, d, bad in zip(count.tolist(), ends.tolist(),
                                    (min_abs_det * det_scale).tolist(), degenerate.tolist())]


def _count_degree_one(f: CurveRows, g: CurveRows, ks: np.ndarray,
                      cfg: CountingConfig) -> list[IntersectionResult]:
    """Results for the degree-one pairs (f[k], g[k]), k in ks, none of them
    with a constant curve, from the roots of one quartic per pair.

    Each pair is first moved to a common centre and divided by a common
    scale, so its count and flag do not depend on a common rotation,
    translation or scaling. A curve is then c + A (cos, sin). With the
    better-conditioned matrix, say A_g, inverted, B = A_g^-1 A_f and
    d = A_g^-1 (c_f - c_g), the crossings are the zeros of
    p(phi) = |d + B (cos phi, sin phi)|^2 - 1
           = c0 + c1 cos phi + s1 sin phi + c2 cos 2phi + s2 sin 2phi,
    and each phi fixes psi as the angle of d + B (cos phi, sin phi).

    The roots are those of z^2 p, a quartic in z = e^{i phi}, taken in the
    variable t of z = e^{i phi0} (1 + i t) / (1 - i t). In t it is the real
    quartic (1 + t^2)^2 p(phi0 + 2 atan t), whose leading coefficient is
    p(phi0 + pi). phi0 + pi is the angle of largest |p| among eight equally
    spaced ones, so that coefficient is never small against the others
    (p's coefficients are fixed averages of those eight samples), and one
    batch of 4x4 companion eigenvalues serves every pair, a circle
    pair's quadratic (B a similarity, c2 = s2 = 0) included: its quartic in t
    has the extra factor 1 + t^2. The roots within _CIRCLE_TOL of the unit
    circle in z seed the Newton polish on the torus; a seed root with
    another root within dedupe_radius is a touch, flagged and not counted.
    A pair is also flagged where p vanishes against its scale (coincident
    images) or where both matrices are near-singular.
    """
    n = ks.size
    # columns: x constant, x cos, x sin, y constant, y cos, y sin
    fb, gb = (np.concatenate([a[ks] for a in rows.arrays], axis=1) for rows in (f, g))
    fsq, gsq = (np.square(b[:, [1, 2, 4, 5]]).sum(axis=1) for b in (fb, gb))
    # |det A| / |A|_F^2, at most 1/2: a scale-free conditioning of each matrix
    fcond, gcond = (np.abs(b[:, 1] * b[:, 5] - b[:, 2] * b[:, 4]) / sq
                    for b, sq in ((fb, fsq), (gb, gsq)))
    scale = np.sqrt((fsq + gsq) / 2.0)
    centre = (fb[:, [0, 3]] + gb[:, [0, 3]]) / 2.0
    for b in (fb, gb):
        b[:, [0, 3]] -= centre
        b /= scale[:, None]
    singular = np.maximum(fcond, gcond) <= _SINGULAR
    # the moving curve P and the inverted one Q: Q is g unless f's matrix is
    # strictly better conditioned, so a swapped pair inverts the same matrix
    swap = fcond > gcond
    pb, qb = np.where(swap[:, None], gb, fb), np.where(swap[:, None], fb, gb)
    p00, p01, p10, p11 = pb[:, [1, 2, 4, 5]].T
    q00, q01, q10, q11 = qb[:, [1, 2, 4, 5]].T
    qdet = np.where(singular, 1.0, q00 * q11 - q01 * q10)  # singular pairs are not solved
    b00, b01 = (q11 * p00 - q01 * p10) / qdet, (q11 * p01 - q01 * p11) / qdet
    b10, b11 = (q00 * p10 - q10 * p00) / qdet, (q00 * p11 - q10 * p01) / qdet
    dx, dy = pb[:, 0] - qb[:, 0], pb[:, 3] - qb[:, 3]
    d0, d1 = (q11 * dx - q01 * dy) / qdet, (q00 * dy - q10 * dx) / qdet
    m00, m11, m01 = b00 * b00 + b10 * b10, b01 * b01 + b11 * b11, b00 * b01 + b10 * b11
    c0 = (d0 * d0 + d1 * d1) + (m00 + m11) / 2.0 - 1.0
    lin = 2.0 * (b00 * d0 + b10 * d1) - 2j * (b01 * d0 + b11 * d1)  # c1 - i s1
    quad = (m00 - m11) / 2.0 - 1j * m01  # c2 - i s2
    samples = c0[:, None] + (lin[:, None] * _SAMPLE_Z).real + (quad[:, None] * _SAMPLE_Z ** 2).real
    top = np.argmax(np.abs(samples), axis=1)
    peak = np.abs(samples[np.arange(n), top])
    flat = ~singular & (peak <= _FLAT * (1.0 + d0 * d0 + d1 * d1 + m00 + m11))
    solve = np.flatnonzero(~(singular | flat))

    # p(phi0 + theta) = c0 + Re(w1 e^{i theta}) + Re(w2 e^{2i theta}), where
    # e^{i phi0} = rot puts the largest sample at theta = pi; then the
    # coefficients of (1 + t^2)^2 p in t = tan(theta / 2), highest first
    rot = -_SAMPLE_Z[top[solve]]
    w1, w2 = lin[solve] * rot, quad[solve] * rot * rot
    a0, c1, s1, c2, s2 = c0[solve], w1.real, -w1.imag, w2.real, -w2.imag
    lead = a0 - c1 + c2
    companion = np.zeros((solve.size, 4, 4))
    companion[:, 0] = -np.stack((2.0 * s1 - 4.0 * s2, 2.0 * a0 - 6.0 * c2, 2.0 * s1 + 4.0 * s2,
                                 a0 + c1 + c2), axis=1) / lead[:, None]
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    t = np.linalg.eigvals(companion)
    up, down = 1.0 + 1j * t, 1.0 - 1j * t  # z = rot * up / down
    near = np.abs(np.abs(up) - np.abs(down)) <= _CIRCLE_TOL * np.abs(down)
    # |z_a - z_b| = 2 |t_a - t_b| / (|down_a| |down_b|); the diagonal is close
    close = (2.0 * np.abs(t[:, :, None] - t[:, None, :])
             <= cfg.dedupe_radius * np.abs(down)[:, :, None] * np.abs(down)[:, None, :])
    touch = near & (close.sum(axis=2) > 1)
    flagged = singular | flat
    flagged[solve] = touch.any(axis=1)
    r, col = np.nonzero(near & ~touch)
    p = solve[r]
    theta = np.angle(rot[r] * up[r, col] * np.conj(down[r, col]))
    cos, sin = np.cos(theta), np.sin(theta)
    other = np.arctan2(d1[p] + b10[p] * cos + b11[p] * sin, d0[p] + b00[p] * cos + b01[p] * sin)
    rows, offset = _pair_matrix(*((b[:, 0:2], b[:, 2:3], b[:, 3:5], b[:, 5:6]) for b in (fb, gb)))
    phi, psi, det, ok = _newton_batch(rows[p], offset[p], np.where(swap[p], other, theta),
                                      np.where(swap[p], theta, other), _res_tol(1, cfg), cfg)
    return _results(n, p, phi, psi, det, ok, flagged, scale * scale, cfg)


def count_intersections_many(f: CurveRows, g: CurveRows,
                             cfg: CountingConfig | None = None) -> list[IntersectionResult]:
    """Count the solutions of f(phi) = g(psi) on the parameter torus for each
    pair of rows (f[k], g[k]).

    Degree-one pairs are solved from a quartic per pair (_count_degree_one),
    up to _DEGREE_ONE_PAIRS at a time. Pairs of higher degree are counted on
    polylines in blocks of at most _BLOCK_VERTICES vertices (a larger pair
    makes a block alone), each stage running once per block. Either way each
    pair's result is bit-identical to counting it alone.
    """
    cfg = cfg or CountingConfig()
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    if len(f) != len(g):
        raise ValueError(f"row count mismatch: {len(f)} f rows vs {len(g)} g rows")
    results: list = [None] * len(f)
    if not results:
        return results
    fmoves, gmoves = _moving(f), _moving(g)
    for k in np.flatnonzero(~(fmoves & gmoves)).tolist():
        if not (fmoves[k] or gmoves[k]):
            # two constant maps: distinct points never meet, coincident ones overlap
            coincident = f.xa[k, 0] == g.xa[k, 0] and f.ya[k, 0] == g.ya[k, 0]
            results[k] = IntersectionResult(0, [], math.inf, bool(coincident))
        else:
            # point versus curve: meets only on a measure-zero set; report no
            # crossings (a transversal crossing needs two moving branches)
            results[k] = IntersectionResult(0, [], math.inf, False)
    live = np.flatnonzero(fmoves & gmoves)
    blocks = _degree_one_blocks if f.degree == 1 else _polyline_blocks
    for ks, block in blocks(f, g, live, cfg):
        for k, res in zip(ks, block):
            results[k] = res
    return results


def _moving(rows: CurveRows) -> np.ndarray:
    """Whether each row has a non-zero harmonic coefficient: False marks a
    constant map."""
    xa, xb, ya, yb = rows.arrays
    return np.concatenate((xa[:, 1:], xb, ya[:, 1:], yb), axis=1).any(axis=1)


def _degree_one_blocks(f: CurveRows, g: CurveRows, live: np.ndarray, cfg: CountingConfig):
    """(ks, results) of the pairs live of degree one, solved
    _DEGREE_ONE_PAIRS at a time."""
    for lo in range(0, live.size, _DEGREE_ONE_PAIRS):
        ks = live[lo:lo + _DEGREE_ONE_PAIRS]
        yield ks, _count_degree_one(f, g, ks, cfg)


def _polyline_blocks(f: CurveRows, g: CurveRows, live: np.ndarray, cfg: CountingConfig):
    """(ks, results) of the pairs live, counted block by block on polylines
    whose chords are at most seg_target: a curve with speed bound L gets
    2*pi*L / seg_target segments, and at least _MIN_VERTICES."""
    seg_target = cfg.resolved_seg_target(f.degree)
    lf, lg = lipschitz_bounds(f), lipschitz_bounds(g)
    sized = [(k, max(_MIN_VERTICES, math.ceil(TWO_PI * lf[k] / seg_target)),
              max(_MIN_VERTICES, math.ceil(TWO_PI * lg[k] / seg_target))) for k in live.tolist()]
    for block in _blocks(sized):
        ks, mf, mg = zip(*block)
        yield ks, _count_block(f, g, np.array(ks), mf, mg, cfg)


def _blocks(live):
    """Runs of consecutive (k, mf, mg) entries with at most _BLOCK_VERTICES
    polyline vertices each; a larger pair makes a run alone."""
    block: list = []
    vertices = 0
    for entry in live:
        size = entry[1] + entry[2] + 2
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
    return count_intersections_many(f.rows, g.rows, cfg)[0]


def _segment_boxes(xs: np.ndarray, ys: np.ndarray):
    """Bounding box (x0, x1, y0, y1) of each segment of a polyline."""
    return (np.minimum(xs[:-1], xs[1:]), np.maximum(xs[:-1], xs[1:]),
            np.minimum(ys[:-1], ys[1:]), np.maximum(ys[:-1], ys[1:]))


def _chunk_boxes(boxes):
    """Bounding box of each run of _ORACLE_CHUNK consecutive segment boxes."""
    starts = np.arange(0, boxes[0].size, _ORACLE_CHUNK)
    x0, x1, y0, y1 = boxes
    return (np.minimum.reduceat(x0, starts), np.maximum.reduceat(x1, starts),
            np.minimum.reduceat(y0, starts), np.maximum.reduceat(y1, starts))


def _overlap(a, b):
    """Whether box a meets box b, broadcast over their arrays."""
    ax0, ax1, ay0, ay1 = a
    bx0, bx1, by0, by1 = b
    return (ax0 <= bx1) & (ax1 >= bx0) & (ay0 <= by1) & (ay1 >= by0)


def _polyline_cross_count(fx, fy, gx, gy) -> int:
    """Strict crossing count of the closed polylines (fx, fy) and (gx, gy),
    tested on every pair of segments whose boxes overlap (no sweep).

    Two levels of boxes find those pairs. Each run of _ORACLE_CHUNK
    consecutive segments gets the box of its segments' boxes, f's chunk boxes
    are tested against g's in blocks of rows, and only the overlapping chunk
    pairs are expanded into their segment pairs, in batches, for the segment
    box test and the orientation tests. A chunk box contains its segments'
    boxes, so the candidates are exactly the overlapping segment-box pairs.
    """
    f, g = _segment_boxes(fx, fy), _segment_boxes(gx, gy)
    mf, mg = f[0].size, g[0].size
    fc, gc = _chunk_boxes(f), _chunk_boxes(g)
    offset = np.arange(_ORACLE_CHUNK)
    total = 0
    rows = 2048 // _ORACLE_CHUNK  # chunk rows per block: 2,048 segments of f
    for lo in range(0, fc[0].size, rows):
        ci, cj = np.nonzero(_overlap(tuple(b[lo:lo + rows, None] for b in fc), gc))
        ci += lo
        for k in range(0, ci.size, _ORACLE_BATCH):
            # every segment pair (i, j) of a batch of overlapping chunk pairs
            i, j = np.broadcast_arrays(
                (ci[k:k + _ORACLE_BATCH] * _ORACLE_CHUNK)[:, None, None] + offset[:, None],
                (cj[k:k + _ORACLE_BATCH] * _ORACLE_CHUNK)[:, None, None] + offset)
            keep = (i < mf) & (j < mg)
            i, j = i[keep], j[keep]
            keep = _overlap(tuple(b[i] for b in f), tuple(b[j] for b in g))
            i, j = i[keep], j[keep]
            proper = _cross_tests(
                fx[i], fy[i], fx[i + 1], fy[i + 1], gx[j], gy[j], gx[j + 1], gy[j + 1])[4]
            total += int(np.count_nonzero(proper))
    return total


def brute_force_count(f: TrigCurve, g: TrigCurve, M: int = 256) -> tuple[int, bool]:
    """Resolution-doubling crossing oracle.

    Counts strict polyline crossings at M, 2M and 4M vertices; stable means
    all three agree (the agreed count is returned, else the finest one).
    Each curve is evaluated once, at 4M vertices, and the M and 2M polylines
    are its every fourth and every second vertex: vertex 4i sits at angle
    (4i) * (2*pi / 4M), which in floating point equals i * (2*pi / M).
    """
    if M < 256:
        raise ValueError("oracle resolution must be at least 256 vertices")
    fx, fy = _closed_polylines(f.rows.arrays, np.array([4 * M]))
    gx, gy = _closed_polylines(g.rows.arrays, np.array([4 * M]))
    counts = [_polyline_cross_count(fx[::s], fy[::s], gx[::s], gy[::s]) for s in (4, 2, 1)]
    stable = counts[0] == counts[1] == counts[2]
    return counts[2], stable
