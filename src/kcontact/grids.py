"""Grids over the independent variables and sampled solution maps.

Finite differences on grids use second-order central stencils in the
interior and second-order one-sided stencils on the boundary, so every
derivative array covers all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dual as dm
from .errors import ShapeError
from .geometry import ChartSpec, DarbouxPoint

__all__ = [
    "GridSpec",
    "BaseField",
    "BaseMap",
    "SolutionMap",
    "grid_derivative",
    "grid_second_derivative",
]


@dataclass(frozen=True)
class GridSpec:
    """A regular k-dimensional grid: origin, per-direction spacing and node counts."""

    origin: np.ndarray
    spacing: np.ndarray
    counts: tuple

    def __init__(self, origin, spacing, counts):
        origin = np.atleast_1d(np.asarray(origin, dtype=float))
        spacing = np.atleast_1d(np.asarray(spacing, dtype=float))
        counts = tuple(int(c) for c in np.atleast_1d(counts))
        if not (origin.shape == spacing.shape == (len(counts),)):
            raise ShapeError("grid origin/spacing/counts have inconsistent lengths")
        if np.any(spacing <= 0.0):
            raise ShapeError("grid spacing must be positive")
        if any(c < 3 for c in counts):
            raise ShapeError("grids need at least 3 nodes per direction")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple:
        return self.counts

    def t(self, idx) -> np.ndarray:
        """Coordinates of the node with integer index ``idx``."""
        return self.origin + self.spacing * np.asarray(idx, dtype=float)

    def axis(self, d: int) -> np.ndarray:
        return self.origin[d] + self.spacing[d] * np.arange(self.counts[d])

    def indices(self):
        return np.ndindex(*self.counts)


def grid_derivative(values: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """d(values)/dt^axis over the whole grid (second-order stencils)."""
    h = grid.spacing[axis]
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v, dtype=float)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def grid_second_derivative(values: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """d^2(values)/d(t^axis)^2 with uniform second-order accuracy.

    Composing two first-derivative passes loses an order at the boundary;
    this direct stencil does not (the 4-point one-sided form needs at
    least 4 nodes, below which the boundary entries drop to first order).
    """
    h2 = grid.spacing[axis] ** 2
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v, dtype=float)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    if v.shape[0] >= 4:
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    else:
        out[0] = (v[0] - 2.0 * v[1] + v[2]) / h2
        out[-1] = (v[-1] - 2.0 * v[-2] + v[-3]) / h2
    return np.moveaxis(out, 0, axis)


@dataclass
class BaseField:
    """k component vector fields on a base manifold of dimension ``dim``.

    Each component maps a point (a sequence of ``dim`` numbers, possibly
    dual) to the ``dim`` components of one direction field.
    """

    dim: int
    comps: list

    @property
    def k(self) -> int:
        return len(self.comps)

    def eval(self, a: int, x) -> np.ndarray:
        """Component ``a`` at ``x`` as floats; a list of lanes at a point of lanes (see
        :mod:`kcontact.dual`)."""
        out = [dm._cmp_value(v) for v in self.comps[a](list(x))]
        return out if any(isinstance(v, dm._Lanes) for v in out) else np.asarray(out, dtype=float)


@dataclass
class BaseMap:
    """A sampled map from a grid into a base manifold of dimension ``d``.

    ``values`` has shape ``grid.shape + (d,)``.  ``closed_form`` and
    ``closed_derivative`` (t -> value / t -> (k, d) array of direction
    derivatives) are optional exact descriptions.
    """

    grid: GridSpec
    values: np.ndarray
    closed_form: callable = None
    closed_derivative: callable = None
    notes: list = field(default_factory=list)

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    @staticmethod
    def from_function(grid: GridSpec, f, df=None, d=None) -> "BaseMap":
        probe = np.atleast_1d(np.asarray(f(grid.t(tuple(0 for _ in grid.counts))), dtype=float))
        d = probe.size if d is None else d
        vals = np.empty(grid.shape + (d,))
        for idx in grid.indices():
            vals[idx] = np.atleast_1d(np.asarray(f(grid.t(idx)), dtype=float))
        return BaseMap(grid, vals, closed_form=f, closed_derivative=df)


@dataclass
class SolutionMap:
    """A sampled candidate solution: grid -> phase-space points.

    ``q``/``p``/``z`` have shapes ``grid.shape + (n,)``, ``+ (k, n)`` and
    ``+ (k,)``.  When a closed form is available, ``closed_derivative(t)``
    must return ``(dq, dp, dz)`` with shapes ``(k, n)``, ``(k, k, n)`` and
    ``(k, k)``, the leading index being the differentiation direction.
    """

    chart: ChartSpec
    grid: GridSpec
    q: np.ndarray
    p: np.ndarray
    z: np.ndarray
    closed_form: callable = None
    closed_derivative: callable = None
    notes: list = field(default_factory=list)

    def point(self, idx) -> DarbouxPoint:
        return DarbouxPoint(self.q[idx], self.p[idx], self.z[idx])

    @staticmethod
    def from_function(chart: ChartSpec, grid: GridSpec, f, df=None) -> "SolutionMap":
        if grid.k != chart.k:
            raise ShapeError(f"grid has {grid.k} directions, chart has k={chart.k}")
        q = np.empty(grid.shape + (chart.n,))
        p = np.empty(grid.shape + (chart.k, chart.n))
        z = np.empty(grid.shape + (chart.k,))
        for idx in grid.indices():
            pt = f(grid.t(idx))
            q[idx], p[idx], z[idx] = pt.q, pt.p, pt.z
        return SolutionMap(chart, grid, q, p, z, closed_form=f, closed_derivative=df)

    def derivatives(self):
        """Direction derivatives of (q, p, z) on every node.

        Returns arrays of shapes ``grid.shape + (k, n)``, ``+ (k, k, n)``
        and ``+ (k, k)`` (leading extra index = direction), from the closed
        form when available and grid differences otherwise.  A closed form
        made by :func:`kcontact.integrate.lift` gives them as whole-grid tables.
        """
        n, k = self.chart.n, self.chart.k
        dq = np.empty(self.grid.shape + (k, n))
        dp = np.empty(self.grid.shape + (k, k, n))
        dz = np.empty(self.grid.shape + (k, k))
        if self.closed_derivative is not None:
            table = getattr(self.closed_derivative, "_nodes", lambda g: None)(self.grid)
            if table is not None:
                dq[...], dp[...], dz[...] = table
            else:
                for idx in self.grid.indices():
                    dq[idx], dp[idx], dz[idx] = self.closed_derivative(self.grid.t(idx))
            return dq, dp, dz
        for beta in range(k):
            dq[..., beta, :] = grid_derivative(self.q, self.grid, beta)
            dp[..., beta, :, :] = grid_derivative(self.p, self.grid, beta)
            dz[..., beta, :] = grid_derivative(self.z, self.grid, beta)
        return dq, dp, dz
