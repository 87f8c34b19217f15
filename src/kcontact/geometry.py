"""Canonical Darboux chart on the dissipative phase space.

The phase space is the direct sum of k copies of T*Q augmented by k extra
scalar coordinates, with chart coordinates (q^i, p_i^a, z^a).  Momenta are
stored row-major as ``p[a][i]``: row ``a`` selects the copy of T*Q, column
``i`` the base coordinate.  That convention is used everywhere in the
package.

The structure one-forms in this chart are

    eta^a  = dz^a - sum_i p_i^a dq^i,
    d eta^a = sum_i dq^i ^ dp_i^a,

with distinguished vertical fields d/dz^a (one per component).  The linear
map ``chi`` pairs a k-tangent with (d eta, eta); its kernel is the gauge
freedom of the field equations and has dimension (n+1)(k^2-1).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .errors import ContractError, ShapeError

__all__ = [
    "ChartSpec",
    "DarbouxPoint",
    "Covector",
    "Tangent",
    "KTangent",
    "eval_eta",
    "reeb_fields",
    "chi",
    "pair",
    "deta_pair",
    "chi_matrix",
    "kernel_deficiency",
]

RANK_RTOL = 1e-9  # relative singular-value threshold for numeric ranks
_ENTRIES = (float, int, dm.Dual, dm._Lanes, numbers.Real)  # in a pass's flat point (the ABC is slowest)


@dataclass(frozen=True)
class ChartSpec:
    """Chart dimensions: n = dim Q, k = number of independent variables."""

    n: int
    k: int

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) for v in (self.n, self.k)):
            raise ShapeError(f"chart needs integer n and k, got n={self.n!r}, k={self.k!r}")
        if self.n < 1 or self.k < 1:
            raise ShapeError(f"chart needs n >= 1 and k >= 1, got n={self.n}, k={self.k}")

    @property
    def dim(self) -> int:
        """Total phase-space dimension n + n*k + k."""
        return self.n + self.n * self.k + self.k

    @property
    def ktangent_dim(self) -> int:
        """Dimension of the space of k-tangents at a point."""
        return self.k * self.dim

    def split(self, x):
        """The q, p and z blocks of flat points (q, then p row by row, then z) along the
        last axis of the array ``x``: shapes ``(..., n)``, ``(..., k, n)`` and ``(..., k)``."""
        n, k = self.n, self.k
        return x[..., :n], x[..., n:n + n * k].reshape(x.shape[:-1] + (k, n)), x[..., n + n * k:]

    def check_point(self, pt: "DarbouxPoint") -> None:
        if pt.q.shape != (self.n,) or pt.p.shape != (self.k, self.n) or pt.z.shape != (self.k,):
            raise ShapeError(
                f"point shapes {pt.q.shape}/{pt.p.shape}/{pt.z.shape} do not fit chart n={self.n}, k={self.k}"
            )


def _floats(x, error, message, *args, objects=False):
    """A caller's array ``x`` as a fresh float array; with ``objects``, an array numpy builds of
    duals or other objects is returned as it is.  Anything else (text, also text that reads as a
    number, ragged rows, an integer beyond the float range) raises ``error(message.format(*args))``,
    formatted only then."""
    try:
        arr = np.asarray(x)
        if objects and arr.dtype == object:
            return arr
        if arr.dtype.kind in "UST" or (arr.dtype == object
                                       and any(isinstance(v, (str, bytes)) for v in arr.flat)):
            raise TypeError("text is not a number")
        return np.array(arr, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(message.format(*args)) from None


def _check_tol(name: str, tol) -> None:
    """Refuse a tolerance that is not a real number >= 0 (inf switches its check off)."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol >= 0:
        raise ContractError(f"tolerance {name} must be a real number >= 0, got {tol!r}")


def _whole(x, least: int) -> bool:
    """Whether ``x`` is an integer >= ``least``; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


def _as_array(x, name):
    """A caller's block ``x``: kept as it is when it holds a dual or lane value (lanes in a list go
    through :func:`kcontact.dual._object_array`), else read by :func:`_floats` as real numbers that
    must be finite, or ShapeError names it; a block numpy keeps as objects (an int beyond int64)
    stays one."""
    try:
        arr = _floats(x, ShapeError, "{} is not an array of numbers", name, objects=True)
    except dm._Unbatchable:  # lane values inside a list (see kcontact.dual)
        return dm._object_array(x)
    vals = arr
    if arr.dtype == object:
        if any(isinstance(v, (dm.Dual, dm._Lanes)) for v in arr.flat):
            return arr
        if not all(isinstance(v, numbers.Real) for v in arr.flat):  # such as None, which numpy reads as NaN
            raise ShapeError(f"{name} is not an array of numbers")
        vals = _floats(arr, ShapeError, "{} is not an array of numbers", name)  # such as an int beyond floats
    if not np.all(np.isfinite(vals)):
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


class _Blocks:
    """A record of the chart's three blocks, q-, p- and z-shaped in its dataclass fields' order: each
    field a caller passes is read by :func:`_as_array` under its own name."""

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, _as_array(getattr(self, name), name))

    def flat(self) -> np.ndarray:
        return np.concatenate([getattr(self, name).reshape(-1) for name in self.__dataclass_fields__])


@dataclass(frozen=True)
class DarbouxPoint(_Blocks):
    """A point (q, p, z) of the chart.  ``p[a, i]`` is the momentum p_i^a.

    A caller's block must be finite real numbers, unless it holds a dual or lane value (see
    :func:`_as_array`).  A pass builds its points with :meth:`from_flat` only.
    """

    q: np.ndarray
    p: np.ndarray
    z: np.ndarray

    @staticmethod
    def from_flat(chart: ChartSpec, x) -> "DarbouxPoint":
        """A pass's point at the flat ``x`` (q, then p row by row, then z): from plain numbers, float
        blocks checked as a caller's are; else object blocks of the entries as they are, unread, where
        an entry that is not a real number, a dual or a lane raises ShapeError naming its block."""
        x = list(x)
        if len(x) != chart.dim:
            raise ShapeError(f"flat point has length {len(x)}, chart needs {chart.dim}")
        if all(isinstance(v, (int, float, np.floating, np.integer)) for v in x):
            return DarbouxPoint(*chart.split(_floats(x, ShapeError, "flat point is not an array of numbers")))
        pt = object.__new__(DarbouxPoint)  # the one point built without __init__
        for name, block in zip("qpz", chart.split(np.fromiter(x, dtype=object, count=len(x)))):
            if not all(isinstance(v, _ENTRIES) for v in block.flat):
                raise ShapeError(f"{name} is not an array of numbers")
            object.__setattr__(pt, name, block)
        return pt


@dataclass(frozen=True)
class Covector(_Blocks):
    """Components of a one-form at a point, in the (dq, dp, dz) blocks."""

    dq: np.ndarray
    dp: np.ndarray
    dz: np.ndarray

    def norm(self) -> float:
        return float(np.max(np.abs(self.flat()))) if self.flat().size else 0.0


@dataclass(frozen=True)
class Tangent(_Blocks):
    """One tangent vector, blocks (q: n, p: k x n, z: k).  ``p[b, i]`` multiplies d/dp_i^b."""

    q: np.ndarray
    p: np.ndarray
    z: np.ndarray

    @staticmethod
    def zero(chart: ChartSpec) -> "Tangent":
        return Tangent(np.zeros(chart.n), np.zeros((chart.k, chart.n)), np.zeros(chart.k))

    def __add__(self, other: "Tangent") -> "Tangent":
        return Tangent(self.q + other.q, self.p + other.p, self.z + other.z)

    def __sub__(self, other: "Tangent") -> "Tangent":
        return Tangent(self.q - other.q, self.p - other.p, self.z - other.z)

    def scale(self, c: float) -> "Tangent":
        return Tangent(c * self.q, c * self.p, c * self.z)


@dataclass(frozen=True)
class KTangent:
    """A k-tuple of tangent vectors at one point."""

    comp: tuple

    def __init__(self, comp):
        object.__setattr__(self, "comp", tuple(comp))

    @property
    def k(self) -> int:
        return len(self.comp)

    @staticmethod
    def zero(chart: ChartSpec) -> "KTangent":
        return KTangent([Tangent.zero(chart) for _ in range(chart.k)])

    def flat(self) -> np.ndarray:
        return np.concatenate([t.flat() for t in self.comp])

    @staticmethod
    def from_flat(chart: ChartSpec, x) -> "KTangent":
        x = _floats(x, ShapeError, "flat k-tangent is not an array of numbers, got {!r}", x)
        if x.shape != (chart.ktangent_dim,):
            raise ShapeError(f"flat k-tangent has shape {x.shape}, chart needs ({chart.ktangent_dim},)")
        return KTangent([Tangent(*chart.split(row)) for row in x.reshape(chart.k, chart.dim)])

    def __add__(self, other: "KTangent") -> "KTangent":
        return KTangent([u + v for u, v in zip(self.comp, other.comp)])

    def __sub__(self, other: "KTangent") -> "KTangent":
        return KTangent([u - v for u, v in zip(self.comp, other.comp)])

    def scale(self, c: float) -> "KTangent":
        return KTangent([t.scale(c) for t in self.comp])


def eval_eta(chart: ChartSpec, pt: DarbouxPoint) -> list[Covector]:
    """The k structure one-forms at ``pt``: component a is dz^a - sum_i p_i^a dq^i."""
    chart.check_point(pt)
    return [Covector(-pt.p[a].astype(float), np.zeros((chart.k, chart.n)), dz)
            for a, dz in enumerate(np.eye(chart.k))]


def reeb_fields(chart: ChartSpec) -> list[Tangent]:
    """The k distinguished vertical fields d/dz^a (constant in this chart)."""
    return [Tangent(np.zeros(chart.n), np.zeros((chart.k, chart.n)), z) for z in np.eye(chart.k)]


def pair(cov: Covector, tan: Tangent) -> float:
    """Natural pairing of a covector with a tangent vector."""
    return float(
        np.dot(cov.dq, tan.q) + np.sum(cov.dp * tan.p) + np.dot(cov.dz, tan.z)
    )


def deta_pair(chart: ChartSpec, u: Tangent, v: Tangent) -> np.ndarray:
    """Values (one per component a) of d eta^a on the pair (u, v)."""
    return np.array([
        float(np.dot(u.q, v.p[a]) - np.dot(v.q, u.p[a])) for a in range(chart.k)
    ])


def chi(chart: ChartSpec, pt: DarbouxPoint, kv: KTangent) -> tuple[Covector, float]:
    """Contraction of a k-tangent with (d eta, eta) at ``pt``.

    Returns the one-form sum_a iota_{Z_a} d eta^a and the scalar
    sum_a eta^a(Z_a).  Vanishing of both characterises gauge directions.
    """
    chart.check_point(pt)
    if kv.k != chart.k:
        raise ShapeError(f"k-tangent has {kv.k} components, chart needs {chart.k}")
    n, k = chart.n, chart.k
    dq = np.zeros(n)
    dp = np.zeros((k, n))
    scalar = 0.0
    for a, t in enumerate(kv.comp):
        if t.q.shape != (n,) or t.p.shape != (k, n) or t.z.shape != (k,):
            raise ShapeError("k-tangent component blocks do not fit the chart")
        dp[a] += t.q
        dq -= t.p[a]
        scalar += t.z[a] - np.dot(pt.p[a], t.q)
    return Covector(dq, dp, np.zeros(k)), float(scalar)


def chi_matrix(chart: ChartSpec, pt: DarbouxPoint) -> np.ndarray:
    """Matrix of ``chi`` at ``pt`` acting on flattened k-tangents.

    Shape is (dim + 1, k * dim): covector components stacked over the
    scalar row.
    """
    m = chart.ktangent_dim
    cols = np.empty((chart.dim + 1, m))
    basis = np.eye(m)
    for j in range(m):
        cov, s = chi(chart, pt, KTangent.from_flat(chart, basis[j]))
        cols[:-1, j] = cov.flat()
        cols[-1, j] = s
    return cols


def kernel_deficiency(chart: ChartSpec, pt: DarbouxPoint) -> int:
    """Numeric nullity of ``chi`` at ``pt`` (singular values below RANK_RTOL * max)."""
    mat = chi_matrix(chart, pt)
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0
    return chart.ktangent_dim - rank
