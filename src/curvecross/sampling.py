"""Reproducible random curve generation.

Every draw is addressed by a (master_seed, stream_index) pair, never by a
shared sequential stream, so results are independent of worker scheduling.
Stream (index, *extra) is numpy's PCG64 seeded by
SeedSequence(entropy=master_seed, spawn_key=(index, *extra)), which
SeedSpec.rng builds with numpy's own classes. The samplers draw blocks of
streams: they derive the PCG64 states of the whole block in one array pass
that repeats SeedSequence's uint32 hashing (the part fixed by master_seed
alone is cached), and draw every stream of a call from one generator. That
relies on numpy's stream-compatibility guarantee for SeedSequence and
PCG64; tests/test_sampling.py compares the derived states with numpy's.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import CurveRows, TrigCurve
from .exact import check_degree, check_order, tau

_U64 = 1 << 64
_SQRT2 = math.sqrt(2.0)

__all__ = [
    "SeedSpec",
    "CurvePair",
    "sample_unit_ball_curve",
    "sample_pair",
    "sample_pairs",
    "sample_max_norm_weighted_pair",
    "sample_max_norm_weighted_pairs",
    "fiber_candidates",
    "fiber_speed_dets",
]


def _check_u64(name: str, value) -> int:
    v = operator.index(value)
    if not 0 <= v < _U64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer")
    return v


@dataclass(frozen=True)
class SeedSpec:
    """Name of one reproducible randomness stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            object.__setattr__(self, name, _check_u64(name, getattr(self, name)))

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


# ---------------------------------------------------------------------------
# PCG64 states of SeedSequence streams, a block at a time. The constants and
# the order of operations are those of numpy.random.SeedSequence (a pool of
# four uint32 words) and of PCG64's seeding from it.

_U32 = np.uint32
_POOL = 4
_MULT_A = 0x931E8875
_MULT_B = 0x58F38DED
_MIX_L = _U32(0xCA01F9DD)
_MIX_R = _U32(0x4973F715)
_SHIFT = _U32(16)
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_U128 = (1 << 128) - 1


def _powers(first: int, mult: int, count: int) -> np.ndarray:
    out = [first]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# hash constants of the successive hashmix calls (enough for spawn keys of
# up to 11 words), and of the words of generate_state
_HASH_A = _powers(0x43B0D7E5, _MULT_A, 64)
_HASH_B = _powers(0x8B51F9DD, _MULT_B, 2 * _POOL + 1)
_DST = np.arange(_POOL)


def _hashmix(value, const, next_const):
    """SeedSequence's hashmix of value with the hash constant const."""
    value = (value ^ const) * next_const
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _SHIFT)


@lru_cache(maxsize=64)
def _master_pool(master_seed: int) -> np.ndarray:
    """The pool after mixing in master_seed alone: its uint32 words, zero
    padded to the pool size as numpy does when a spawn key follows, then
    every pool word into every other."""
    words = [master_seed & 0xFFFFFFFF, master_seed >> 32] + [0] * (_POOL - 2)
    # one-element arrays, so that the uint32 products wrap without warnings
    pool = list(_hashmix(np.array(words, dtype=_U32), _HASH_A[:_POOL], _HASH_A[1:_POOL + 1])[:, None])
    call = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A[call], _HASH_A[call + 1]))
                call += 1
    pool = np.concatenate(pool)
    pool.setflags(write=False)  # shared by every caller through the cache
    return pool


def _stream_states(master_seed: int, keys: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence(entropy=master_seed,
    spawn_key=keys[k])) for each row k of the uint64 array keys.

    A key component is one uint32 word below 2**32 and two words above, so
    rows may mix word counts; a word's hash constants follow its position.
    """
    low = keys.astype(_U32)  # wraps to the low word
    high = (keys >> np.uint64(32)).astype(_U32)
    two_words = (high != 0).any(axis=0)
    pool = _master_pool(master_seed)  # broadcast against the rows by the first mix
    # hashmix calls made so far: one count for all rows until a row has a
    # second word, then one per row
    calls = _POOL * _POOL
    for c in range(keys.shape[1]):
        parts = [(low[:, c], None)]
        if two_words[c]:
            parts.append((high[:, c], high[:, c] != 0))
        for word, present in parts:
            if isinstance(calls, int):
                const = _HASH_A[calls:calls + _POOL + 1]
                mixed = _mix(pool, _hashmix(word[:, None], const[:-1], const[1:]))
            else:
                index = calls[:, None] + _DST
                mixed = _mix(pool, _hashmix(word[:, None], _HASH_A[index], _HASH_A[index + 1]))
            if present is None:
                pool = mixed
                calls = calls + _POOL
            else:
                pool = np.where(present[:, None], mixed, pool)
                calls = calls + _POOL * present
    # generate_state(4, uint64): 8 words cycling through the pool
    words = (np.concatenate((pool, pool), axis=1) ^ _HASH_B[:-1]) * _HASH_B[1:]
    words = (words ^ (words >> _SHIFT)).astype(np.uint64)
    seeds = (words[:, 0::2] | (words[:, 1::2] << np.uint64(32))).tolist()
    states = []
    for s0, s1, i0, i1 in seeds:
        # pcg64_set_seed: inc = (initseq << 1) | 1, then step, add, step
        inc = ((i0 << 65) | (i1 << 1) | 1) & _U128
        states.append((((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _U128, inc))
    return states


# The process's one sampler generator, pointed at each stream in turn by
# _set_stream, which resets its whole state before every stream's draws; its
# own seed is never drawn from. Sampler calls made at the same time from
# several threads would share it.
_GENERATOR = np.random.Generator(np.random.PCG64(0))


def _set_stream(gen: np.random.Generator, state: tuple[int, int]) -> None:
    """Point gen at the start of the stream with PCG64 (state, inc)."""
    gen.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state[0], "inc": state[1]},
                               "has_uint32": 0, "uinteger": 0}


def _ball_points(gen: np.random.Generator, dim: int, states) -> np.ndarray:
    """Rows uniform in the unit dim-ball, row k drawn by gen from the stream
    with PCG64 state states[k]: a Gaussian direction, then a U^(1/dim)
    radius.

    Each stream's draws, its BLAS norm and the scalar power are those of
    one stream drawn alone, so each row is bit-identical to it.
    """
    z = np.empty((len(states), dim))
    scale = []
    root = 1.0 / dim
    for row, state in zip(z, states):
        _set_stream(gen, state)
        gen.standard_normal(out=row)
        u = gen.random()
        nz = math.sqrt(row.dot(row))
        while nz == 0.0:
            gen.standard_normal(out=row)
            nz = math.sqrt(row.dot(row))
        scale.append(u ** root / nz)
    return z * np.array(scale)[:, None]


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


def _iso_rows(N: int, r: int, u: np.ndarray) -> CurveRows:
    """Map rows of isometric coordinates (where the metric is the plain
    Euclidean one) to curve coefficient rows; see _iso_layout."""
    index, weight = _iso_layout(N, r)
    c = u[:, index] / weight
    return CurveRows(N, c[:, :N + 1], c[:, N + 1:2 * N + 1], c[:, 2 * N + 1:3 * N + 2],
                     c[:, 3 * N + 2:])


def sample_unit_ball_curve(N: int, r: int, seed: SeedSpec) -> TrigCurve:
    """One curve uniform in the unit ball of the order-r metric, from stream
    (stream_index,)."""
    N = check_degree(N)
    r = check_order(r)
    states = _stream_states(seed.master_seed, np.array([[seed.stream_index]], dtype=np.uint64))
    return _iso_rows(N, r, _ball_points(_GENERATOR, 4 * N + 2, states)).curve(0)


def sample_max_norm_weighted_pairs(N: int, r: int, k: float, master_seed: int,
                                   indices) -> tuple[CurveRows, CurveRows]:
    """Pairs with density proportional to max(|f|, |g|)^k on the product ball,
    one per sample index, as rows (f, g) in the order of indices.

    Rejection from uniform pairs: attempt a of index i draws f and g from the
    streams (i, a, 0) and (i, a, 1) and, when the weight p is below 1,
    accepts with the uniform of stream (i, a, 2); the indices still open
    retry with attempt a + 1. Attempt 0 is sample_pairs, so k=0 reduces to
    the uniform sampler draw for draw.
    """
    if not (k >= 0 and math.isfinite(k)):
        raise ValueError("weight exponent must be finite and >= 0")
    N = check_degree(N)
    r = check_order(r)
    master_seed = _check_u64("master_seed", master_seed)
    index = np.array([_check_u64("stream_index", i) for i in indices], dtype=np.uint64)
    dim = 4 * N + 2
    sides = 2 if k == 0 else 3  # x ** 0.0 is 1: no acceptance draw
    gen = _GENERATOR
    u = np.empty((2 * index.size, dim))
    open_ = np.arange(index.size)
    attempt = 0
    while open_.size:
        keys = np.empty((open_.size, sides, 3), dtype=np.uint64)
        keys[:, :, 0] = index[open_, None]
        keys[:, :, 1] = attempt
        keys[:, :, 2] = np.arange(sides)
        states = _stream_states(master_seed, keys.reshape(-1, 3))
        drawn = _ball_points(gen, dim, [s for j, s in enumerate(states) if j % sides < 2])
        accept = np.ones(open_.size, dtype=bool)
        if k:
            norms = _iso_rows(N, r, drawn).norms(r).tolist()
            for j, (nf, ng) in enumerate(zip(norms[0::2], norms[1::2])):
                p = max(nf, ng) ** k  # Python's pow, as per index: np.power can differ
                if p < 1.0:
                    _set_stream(gen, states[3 * j + 2])
                    accept[j] = gen.random() < p
        done = open_[accept]
        u[2 * done] = drawn[0::2][accept]
        u[2 * done + 1] = drawn[1::2][accept]
        open_ = open_[~accept]
        attempt += 1
    return _iso_rows(N, r, u[0::2]), _iso_rows(N, r, u[1::2])


def sample_pairs(N: int, r: int, master_seed: int, indices) -> tuple[CurveRows, CurveRows]:
    """Two independent uniform unit-ball curves per sample index, as rows
    (f, g) in the order of indices; index i draws f from stream (i, 0, 0)
    and g from stream (i, 0, 1)."""
    return sample_max_norm_weighted_pairs(N, r, 0.0, master_seed, indices)


def sample_pair(N: int, r: int, seed: SeedSpec) -> CurvePair:
    """The pair of sample_pairs for one SeedSpec."""
    f, g = sample_pairs(N, r, seed.master_seed, [seed.stream_index])
    return CurvePair(f.curve(0), g.curve(0))


def sample_max_norm_weighted_pair(N: int, r: int, k: float, seed: SeedSpec) -> CurvePair:
    """The pair of sample_max_norm_weighted_pairs for one SeedSpec."""
    f, g = sample_max_norm_weighted_pairs(N, r, k, seed.master_seed, [seed.stream_index])
    return CurvePair(f.curve(0), g.curve(0))


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
