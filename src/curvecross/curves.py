"""Degree-N trigonometric plane curves and their coefficient-space geometry.

A curve is the map phi -> (x(phi), y(phi)) where each coordinate is a real
trigonometric polynomial of degree <= N. The coefficient space carries a
family of Euclidean structures indexed by a smoothness order r >= 0: the
constant terms get weight 2 and the frequency-j terms get weight tau(j, r).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exact import check_degree, check_order, mu, tau

TWO_PI = 2.0 * math.pi

__all__ = [
    "PlanePoint",
    "TrigCurve",
    "SchemaError",
    "evaluate",
    "evaluate_many",
    "derivative",
    "inner_product",
    "norm",
    "lipschitz_bound",
    "point_radius_bound",
    "curve_to_json",
    "curve_from_json",
    "save_curve",
    "load_curve",
]


class PlanePoint(NamedTuple):
    x: float
    y: float


class SchemaError(ValueError):
    """A curve JSON document does not match the expected schema."""


def _as_coeffs(values, length: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have exactly {length} entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TrigCurve:
    """Coefficients of one curve: xa/ya are the cosine coefficient arrays
    (constant term first, length N+1), xb/yb the sine arrays (length N)."""

    degree: int
    xa: np.ndarray
    xb: np.ndarray
    ya: np.ndarray
    yb: np.ndarray

    def __post_init__(self):
        n = check_degree(self.degree)
        object.__setattr__(self, "degree", n)
        object.__setattr__(self, "xa", _as_coeffs(self.xa, n + 1, "xa"))
        object.__setattr__(self, "xb", _as_coeffs(self.xb, n, "xb"))
        object.__setattr__(self, "ya", _as_coeffs(self.ya, n + 1, "ya"))
        object.__setattr__(self, "yb", _as_coeffs(self.yb, n, "yb"))

    def __eq__(self, other):
        if not isinstance(other, TrigCurve):
            return NotImplemented
        return self.degree == other.degree and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("xa", "xb", "ya", "yb")
        )

    @classmethod
    def zero(cls, degree: int) -> "TrigCurve":
        n = check_degree(degree)
        return cls(n, np.zeros(n + 1), np.zeros(n), np.zeros(n + 1), np.zeros(n))

    def is_constant(self) -> bool:
        return not (self.xa[1:].any() or self.xb.any() or self.ya[1:].any() or self.yb.any())


def evaluate_many(c: TrigCurve, phis) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized evaluation at an array of angles; returns (xs, ys)."""
    t = np.asarray(phis, dtype=float) % TWO_PI
    xs = np.full_like(t, c.xa[0])
    ys = np.full_like(t, c.ya[0])
    for j in range(1, c.degree + 1):
        cj = np.cos(j * t)
        sj = np.sin(j * t)
        xs += c.xa[j] * cj + c.xb[j - 1] * sj
        ys += c.ya[j] * cj + c.yb[j - 1] * sj
    return xs, ys


def evaluate(c: TrigCurve, phi: float) -> PlanePoint:
    """Point (x(phi), y(phi)); the angle is reduced mod 2*pi."""
    xs, ys = evaluate_many(c, float(phi))
    return PlanePoint(float(xs), float(ys))


def derivative(c: TrigCurve, phi: float) -> PlanePoint:
    """Velocity (dx/dphi, dy/dphi) at the given angle: the curve with cosine
    coefficients j*b_j, sine coefficients -j*a_j and no constant terms."""
    j = np.arange(1.0, c.degree + 1)
    velocity = TrigCurve(
        c.degree,
        np.concatenate(([0.0], j * c.xb)),
        -j * c.xa[1:],
        np.concatenate(([0.0], j * c.yb)),
        -j * c.ya[1:],
    )
    return evaluate(velocity, phi)


def inner_product(c1: TrigCurve, c2: TrigCurve, r: int = 0) -> float:
    """Coefficient-space dot product of two equal-degree curves under the
    order-r metric: weight 2 on constant terms, tau(j, r) on frequency j."""
    if c1.degree != c2.degree:
        raise ValueError(f"degree mismatch: {c1.degree} vs {c2.degree}")
    r = check_order(r)
    total = 2.0 * (c1.xa[0] * c2.xa[0] + c1.ya[0] * c2.ya[0])
    for j in range(1, c1.degree + 1):
        w = float(tau(j, r))
        total += w * (
            c1.xa[j] * c2.xa[j]
            + c1.xb[j - 1] * c2.xb[j - 1]
            + c1.ya[j] * c2.ya[j]
            + c1.yb[j - 1] * c2.yb[j - 1]
        )
    return float(total)


def norm(c: TrigCurve, r: int = 0) -> float:
    return math.sqrt(max(0.0, inner_product(c, c, r)))


def lipschitz_bound(c: TrigCurve) -> float:
    """A speed bound: |f(a) - f(b)| <= L |a - b| with
    L = sum_j j * (hypot(xa_j, xb_j) + hypot(ya_j, yb_j))."""
    total = 0.0
    for j in range(1, c.degree + 1):
        total += j * (
            math.hypot(c.xa[j], c.xb[j - 1]) + math.hypot(c.ya[j], c.yb[j - 1])
        )
    return total


@lru_cache(maxsize=None)
def point_radius_bound(N: int, r: int = 0) -> float:
    """Radius sqrt(mu(N, r)/2) of the disc swept by values of unit-ball curves."""
    return math.sqrt(float(mu(N, r)) / 2.0)


# ---------------------------------------------------------------------------
# Curve file format: numbers are written with 17 significant digits so a
# saved curve reloads bit-for-bit.

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _num_list(arr) -> str:
    return "[" + ", ".join(_fmt(v) for v in arr) + "]"


def curve_to_json(c: TrigCurve, r: int = 0) -> str:
    r = check_order(r)
    return (
        '{"degree": %d, "r": %d, '
        '"x": {"a": %s, "b": %s}, '
        '"y": {"a": %s, "b": %s}}'
        % (c.degree, r, _num_list(c.xa), _num_list(c.xb), _num_list(c.ya), _num_list(c.yb))
    )


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def _number_list(doc: dict, key: str, length: int, where: str) -> list[float]:
    values = _require(doc, key, list, where)
    if len(values) != length:
        raise SchemaError(f"{where}: {key!r} must have {length} entries, got {len(values)}")
    for i, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SchemaError(f"{where}: {key}[{i}] is not a number")
    return [float(v) for v in values]


def curve_from_json(text: str) -> tuple[TrigCurve, int]:
    """Parse a curve document; returns (curve, r)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected a JSON object")
    degree = _require(doc, "degree", int, "top level")
    if isinstance(degree, bool) or degree < 0:
        raise SchemaError("top level: 'degree' must be a non-negative integer")
    r = _require(doc, "r", int, "top level")
    if isinstance(r, bool) or r < 0:
        raise SchemaError("top level: 'r' must be a non-negative integer")
    x = _require(doc, "x", dict, "top level")
    y = _require(doc, "y", dict, "top level")
    curve = TrigCurve(
        degree,
        _number_list(x, "a", degree + 1, '"x"'),
        _number_list(x, "b", degree, '"x"'),
        _number_list(y, "a", degree + 1, '"y"'),
        _number_list(y, "b", degree, '"y"'),
    )
    return curve, r


def save_curve(path, c: TrigCurve, r: int = 0) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(curve_to_json(c, r))
        fh.write("\n")


def load_curve(path) -> tuple[TrigCurve, int]:
    with open(path, "r", encoding="utf-8") as fh:
        return curve_from_json(fh.read())
