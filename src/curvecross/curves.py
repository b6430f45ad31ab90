"""Degree-N trigonometric plane curves and their coefficient-space geometry.

A curve is the map phi -> (x(phi), y(phi)) where each coordinate is a real
trigonometric polynomial of degree <= N. The coefficient space carries a
family of Euclidean structures indexed by a smoothness order r >= 0: the
constant terms get weight 2 and the frequency-j terms get weight tau(j, r).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exact import check_degree, check_order, mu, tau

__all__ = [
    "PlanePoint",
    "TrigCurve",
    "CurveRows",
    "SchemaError",
    "evaluate",
    "evaluate_many",
    "evaluate_rows",
    "horner",
    "derivative",
    "inner_product",
    "norm",
    "lipschitz_bound",
    "lipschitz_bounds",
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


_FIELDS = ("xa", "xb", "ya", "yb")


@dataclass(frozen=True, eq=False, slots=True, init=False)
class TrigCurve:
    """One curve, as a one-row view of a CurveRows block that holds it: xa/ya
    are the cosine coefficient arrays (constant term first, length N+1),
    xb/yb the sine arrays (length N), each a read-only view into the block.
    The constructor validates the four arrays through CurveRows."""

    rows: CurveRows

    def __init__(self, degree: int, xa, xb, ya, yb):
        arrays = (np.asarray(a, dtype=float)[None] for a in (xa, xb, ya, yb))
        object.__setattr__(self, "rows", CurveRows(degree, *arrays))

    degree = property(lambda self: self.rows.degree)
    xa = property(lambda self: self.rows.xa[0])
    xb = property(lambda self: self.rows.xb[0])
    ya = property(lambda self: self.rows.ya[0])
    yb = property(lambda self: self.rows.yb[0])

    def __eq__(self, other):
        if not isinstance(other, TrigCurve):
            return NotImplemented
        return np.array_equal(self.rows.block, other.rows.block)  # shapes differ across degrees

    @classmethod
    def zero(cls, degree: int) -> "TrigCurve":
        n = check_degree(degree)
        return cls(n, np.zeros(n + 1), np.zeros(n), np.zeros(n + 1), np.zeros(n))


@dataclass(frozen=True, eq=False, slots=True)
class CurveRows:
    """K curves of one degree as stacked coefficient rows: row k of the
    cosine arrays xa, ya (shape (K, N+1), constant term first) and of the
    sine arrays xb, yb (shape (K, N)) is curve k. The rows are validated
    once, as a whole, into one private read-only array (block, shape
    (K, 4N+2), the four arrays side by side); the four fields are views into
    it."""

    degree: int
    xa: np.ndarray
    xb: np.ndarray
    ya: np.ndarray
    yb: np.ndarray
    block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = check_degree(self.degree)
        arrays = [np.asarray(getattr(self, name), dtype=float) for name in _FIELDS]
        rows = arrays[0].shape[0] if arrays[0].ndim == 2 else -1
        for name, arr, length in zip(_FIELDS, arrays, (n + 1, n, n + 1, n)):
            if arr.shape != (rows, length):
                raise ValueError(f"{name} must have shape (K, {length}) with one K for all "
                                 f"four arrays, got shape {arr.shape}")
        block = np.concatenate(arrays, axis=1)
        if not np.isfinite(block).all():
            bad = next(name for name, arr in zip(_FIELDS, arrays) if not np.isfinite(arr).all())
            raise ValueError(f"{bad} contains non-finite entries")
        _bind(self, n, block)

    @classmethod
    def stack(cls, curves) -> "CurveRows":
        """The rows of a non-empty sequence of equal-degree curves: one
        concatenation of their one-row blocks, which were validated when
        each curve was made and are not validated again."""
        degrees = {c.degree for c in curves}
        if len(degrees) != 1:
            raise ValueError(f"curves of different degrees in one stack: {sorted(degrees)}")
        return _bind(object.__new__(cls), degrees.pop(),
                     np.concatenate([c.rows.block for c in curves]))

    def __len__(self) -> int:
        return self.xa.shape[0]

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(xa, xb, ya, yb)."""
        return self.xa, self.xb, self.ya, self.yb

    def curve(self, k: int) -> TrigCurve:
        """Row k as a TrigCurve that views this block: no copy and no second
        validation."""
        c = object.__new__(TrigCurve)
        object.__setattr__(c, "rows", _bind(object.__new__(CurveRows), self.degree,
                                            self.block[k, None]))
        return c

    def __reduce__(self):
        # a copy is rebuilt through the check, as read-only views of one block
        return CurveRows, (self.degree, *self.arrays)

    def norms(self, r: int = 0) -> np.ndarray:
        """Order-r norm of each row."""
        return np.sqrt(np.maximum(0.0, _inner_rows(self.arrays, self.arrays, check_order(r))))


def _bind(rows: CurveRows, degree: int, block: np.ndarray) -> CurveRows:
    """Point rows (a CurveRows) at a validated (K, 4N+2) block: the degree,
    the block made read-only, and the four coefficient fields as views into
    it. Returns rows."""
    block.setflags(write=False)
    n, put = degree, object.__setattr__
    put(rows, "degree", n)
    put(rows, "block", block)
    put(rows, "xa", block[:, :n + 1])
    put(rows, "xb", block[:, n + 1:2 * n + 1])
    put(rows, "ya", block[:, 2 * n + 1:3 * n + 2])
    put(rows, "yb", block[:, 3 * n + 2:])
    return rows


def horner(coefs, z) -> np.ndarray:
    """sum_{j=1..n} coefs[j-1] * z**j by Horner's rule from a zero
    accumulator, element by element: each coefs[j-1] is a scalar or an array
    broadcast to z's shape. With z = e^{i*theta} and coefs[j-1] = a_j - i*b_j,
    the real part is sum_j a_j cos(j*theta) + b_j sin(j*theta), and -Im of
    the sum with coefs j*(a_j - i*b_j) is its derivative in theta.

    The products are not taken in place: numpy rounds an in-place complex
    product of one element differently (it takes it for a reduction), which
    would make a value depend on how many angles share the call."""
    acc = np.zeros(np.shape(z), dtype=complex)
    for c in reversed(coefs):
        acc = (acc + c) * z
    return acc


def evaluate_rows(xa, xb, ya, yb, phis, counts) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized evaluation of stacked curves; returns (xs, ys) shaped like phis.

    Row k of the cosine coefficient arrays xa, ya (shape (K, N+1), constant
    term first) and of the sine arrays xb, yb (shape (K, N)) is one curve.
    The angles, in flat order, run through the rows: the first counts[0] are
    evaluated on row 0, the next counts[1] on row 1, and so on. Each
    coordinate is its constant term plus Re of a horner sum in e^{i*phi},
    the constant added last; every value is computed by the same operations
    whatever the other rows hold.
    """
    t = np.asarray(phis, dtype=float)
    z = np.exp(1j * t)

    def per_angle(c):
        # column j of c as one value per angle; one row broadcasts as scalars
        if c.shape[0] == 1:
            return c[0]
        return np.repeat(c.T, counts, axis=1).reshape(c.shape[1:] + t.shape)

    x0, y0 = per_angle(xa[:, :1])[0], per_angle(ya[:, :1])[0]
    xs = x0 + horner(per_angle(xa[:, 1:] - 1j * xb), z).real
    ys = y0 + horner(per_angle(ya[:, 1:] - 1j * yb), z).real
    return xs, ys


def evaluate_many(c: TrigCurve, phis) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized evaluation at an array of angles; returns (xs, ys)."""
    return evaluate_rows(*c.rows.arrays, phis, np.size(phis))


def evaluate(c: TrigCurve, phi: float) -> PlanePoint:
    """Point (x(phi), y(phi)), from e^{i*phi}: any real angle, no reduction
    step."""
    xs, ys = evaluate_many(c, float(phi))
    return PlanePoint(float(xs), float(ys))


def derivative(c: TrigCurve, phi: float) -> PlanePoint:
    """Velocity (dx/dphi, dy/dphi) at the given angle: -Im of the horner sum
    with coefficients j*(a_j - i*b_j) at e^{i*phi}, as Newton takes it."""
    j = np.arange(1.0, c.degree + 1)
    z = np.exp(1j * float(phi))
    dx, dy = (-horner(j * (a[1:] - 1j * b), z).imag for a, b in ((c.xa, c.xb), (c.ya, c.yb)))
    return PlanePoint(float(dx), float(dy))


def _inner_rows(a, b, r: int) -> np.ndarray:
    """Order-r dot products of the rows of two stacks of coefficient arrays
    (xa, xb, ya, yb), term by term in the same order for every row count."""
    axa, axb, aya, ayb = a
    bxa, bxb, bya, byb = b
    total = 2.0 * (axa[:, 0] * bxa[:, 0] + aya[:, 0] * bya[:, 0])
    for j in range(1, axa.shape[1]):
        w = float(tau(j, r))
        total += w * (
            axa[:, j] * bxa[:, j]
            + axb[:, j - 1] * bxb[:, j - 1]
            + aya[:, j] * bya[:, j]
            + ayb[:, j - 1] * byb[:, j - 1]
        )
    return total


def inner_product(c1: TrigCurve, c2: TrigCurve, r: int = 0) -> float:
    """Coefficient-space dot product of two equal-degree curves under the
    order-r metric: weight 2 on constant terms, tau(j, r) on frequency j."""
    if c1.degree != c2.degree:
        raise ValueError(f"degree mismatch: {c1.degree} vs {c2.degree}")
    return float(_inner_rows(c1.rows.arrays, c2.rows.arrays, check_order(r))[0])


def norm(c: TrigCurve, r: int = 0) -> float:
    return float(c.rows.norms(r)[0])


def lipschitz_bounds(rows: CurveRows) -> list[float]:
    """A speed bound of each row: |f(a) - f(b)| <= L |a - b| with
    L = sum_j j * (hypot(xa_j, xb_j) + hypot(ya_j, yb_j)), in scalar
    arithmetic, so a row's bound does not depend on the other rows."""
    bounds = []
    for xa, xb, ya, yb in zip(*(a.tolist() for a in rows.arrays)):
        total = 0.0
        for j in range(1, len(xa)):
            total += j * (math.hypot(xa[j], xb[j - 1]) + math.hypot(ya[j], yb[j - 1]))
        bounds.append(total)
    return bounds


def lipschitz_bound(c: TrigCurve) -> float:
    """lipschitz_bounds of the curve's one row."""
    return lipschitz_bounds(c.rows)[0]


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
        # nan, inf, and the integers that float() rounds past the largest float
        if not abs(v) < 2 ** 1024 - 2 ** 970:
            raise SchemaError(f"{where}: {key}[{i}] is not finite as a float")
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
