"""Grids over the independent variables and sampled solution maps.

Finite differences on grids use second-order central stencils in the
interior and second-order one-sided stencils on the boundary, so every
derivative array covers all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dual as dm
from .errors import ContractError, ShapeError
from .geometry import ChartSpec, DarbouxPoint, _floats

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
        origin, spacing = (np.atleast_1d(_floats(v, ShapeError, "grid {} must be numbers, got {!r}", name, v))
                           for name, v in (("origin", origin), ("spacing", spacing)))
        counts = np.atleast_1d(np.asarray(counts, dtype=object))
        if counts.ndim != 1 or not len(counts):
            raise ShapeError(f"grids need one node count per direction, at least one, got {counts.tolist()}")
        if not all(isinstance(c, (int, float, np.integer, np.floating)) and float(c).is_integer()
                   for c in counts):
            raise ShapeError(f"grid node counts must be whole numbers, got {counts.tolist()}")
        counts = tuple(int(c) for c in counts)
        if not (origin.shape == spacing.shape == (len(counts),)):
            raise ShapeError("grid origin/spacing/counts have inconsistent lengths")
        if not (np.all(np.isfinite(origin)) and np.all(np.isfinite(spacing))):
            raise ContractError("grid origin and spacing must be finite")
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
        out = [dm._cmp_value(v) for v in self._at(a, list(x))]
        return out if any(isinstance(v, dm._Lanes) for v in out) else np.asarray(out, dtype=float)

    def _at(self, a: int, x):
        """Component ``a`` at ``x`` as it returns it, refused by :class:`ShapeError` unless
        it is a sequence of ``dim`` entries (read by type and length: ``np.shape`` would turn
        lanes into an array)."""
        out = self.comps[a](x)
        if not (isinstance(out, (list, tuple)) or isinstance(out, np.ndarray) and out.ndim == 1):
            raise ShapeError(f"component {a} of the base field returns a value of type {type(out).__name__}, "
                             f"not a sequence of dim = {self.dim} entries")
        if len(out) != self.dim:
            raise ShapeError(f"component {a} of the base field has {len(out)} entries, dim = {self.dim}")
        return out


def _nodes(grid: GridSpec) -> np.ndarray:
    """The coordinates of every node, one row each in node order, with the bits of :meth:`GridSpec.t`."""
    return grid.origin + grid.spacing * np.indices(grid.shape, dtype=float).reshape(grid.k, -1).T


def _node(grid: GridSpec, m: int) -> tuple:
    return tuple(map(int, np.unravel_index(m, grid.shape)))


def _sample(grid: GridSpec, fn, shapes, index=None) -> list:
    """``fn(t)`` at every node ``t`` of ``grid``, in node order: one array of shape
    ``grid.shape + s`` per entry of ``fn(t)`` and of ``shapes``, where an entry ``None`` takes
    its shape from the first node; a node whose entry has another shape raises
    :class:`ShapeError`.  ``fn`` runs in two lane passes, ``t`` an object array of lane values
    (:mod:`kcontact.dual`): on the first two nodes, then on the others.  When a pass raises,
    gives an entry of another shape or a value that is not finite, ``fn`` runs on each node's
    float coordinates through :func:`kcontact.dual._scalar_rows`, where a floating-point error
    raises :class:`ShapeError` naming the node, and the results are converted after the last node.
    With ``index`` (flat node numbers in ``grid``), ``fn`` runs on those nodes only and the
    arrays have shape ``(len(index),) + s``."""
    T, lead = (_nodes(grid), grid.shape) if index is None else (_nodes(grid)[index], (len(index),))
    index = range(len(T)) if index is None else index
    got = []  # the entry shapes of each lane pass

    def lanes(t):  # fn on k lane values: its entries flattened and joined, as lane values
        out = fn(np.fromiter(t, dtype=object, count=grid.k))
        out = [dm._lane_array(out[j], len(t[0].v)) for j in range(len(shapes))]
        got.append([a.shape[1:] for a in out])
        return dm._lanes_of(np.concatenate([a.reshape(len(a), -1) for a in out], axis=1))

    head = dm._lane_rows(lanes, T[:2])  # a closure that refuses lanes pays a pass of two nodes
    rest = None if head is None else dm._lane_rows(lanes, T[2:])
    if rest is not None and all(g == got[0] for g in got) and all(
            s is None or tuple(s) == g for s, g in zip(shapes, got[0])):
        X, cuts = np.concatenate([head, rest]), np.cumsum([int(np.prod(s)) for s in got[0]])[:-1]
        return [np.ascontiguousarray(a).reshape(lead + s) for a, s in zip(np.split(X, cuts, axis=1), got[0])]
    nodes = dm._scalar_rows(fn, T, lambda m: f"grid node {_node(grid, index[m])}")
    out = []
    for j, s in enumerate(shapes):
        vs = [v[j] for v in nodes]
        s = np.shape(vs[0]) if s is None else tuple(s)
        try:  # one conversion; a ValueError is entries of several shapes or not numbers
            a = np.array(vs, dtype=float)
            if a.shape[1:] == s:
                out.append(a.reshape(lead + s))
                continue
        except ValueError:
            if all(np.shape(v) == s for v in vs):
                raise
        m = next(m for m, v in enumerate(vs) if np.shape(v) != s)
        raise ShapeError(f"sampled entry {j} has shape {np.shape(vs[m])} at grid node "
                         f"{_node(grid, index[m])}, expected {s}")
    return out


@dataclass
class BaseMap:
    """A sampled map from a grid into a base manifold of dimension ``d``.

    ``values`` has shape ``grid.shape + (d,)``.  ``closed_form`` and
    ``closed_derivative`` (t -> value / t -> (k, d) array of direction
    derivatives) are optional exact descriptions.  Integrated maps are node
    data: no closed form, and a node table (``_table``, the direction derivatives on every
    node) that the stage making the map computes with it; a map rebuilt from its parts has none.
    """

    grid: GridSpec
    values: np.ndarray
    closed_form: callable = None
    closed_derivative: callable = None
    notes: list = field(default_factory=list)
    _table: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    @staticmethod
    def from_function(grid: GridSpec, f, df=None) -> "BaseMap":
        values, = _sample(grid, lambda t: [f(t)], [None])
        values = values[..., None] if values.ndim == grid.k else values  # a scalar closed form
        return BaseMap(grid, values, closed_form=f, closed_derivative=df)

    def derivatives(self) -> np.ndarray:
        """Direction derivatives on every node, shape ``grid.shape + (k, d)``: the node table
        when the map has one (:func:`kcontact.integrate.integral_section`), else the closed
        derivative at every node, else grid differences."""
        if self._table is not None:
            return self._table.copy()
        if self.closed_derivative is not None:
            return _sample(self.grid, lambda t: [self.closed_derivative(t)], [(self.grid.k, self.d)])[0]
        return np.stack([grid_derivative(self.values, self.grid, b) for b in range(self.grid.k)], axis=-2)


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
    _table: tuple = field(default=None, init=False, repr=False, compare=False)  # as for BaseMap

    def point(self, idx) -> DarbouxPoint:
        return DarbouxPoint(self.q[idx], self.p[idx], self.z[idx])

    @staticmethod
    def from_function(chart: ChartSpec, grid: GridSpec, f, df=None) -> "SolutionMap":
        if grid.k != chart.k:
            raise ShapeError(f"grid has {grid.k} directions, chart has k={chart.k}")
        n, k = chart.n, chart.k

        def blocks(t):
            pt = f(t)
            return pt.q, pt.p, pt.z

        q, p, z = _sample(grid, blocks, [(n,), (k, n), (k,)])
        return SolutionMap(chart, grid, q, p, z, closed_form=f, closed_derivative=df)

    def derivatives(self):
        """Direction derivatives of (q, p, z) on every node.

        Returns arrays of shapes ``grid.shape + (k, n)``, ``+ (k, k, n)``
        and ``+ (k, k)`` (leading extra index = direction): the node table
        when the map has one (:func:`kcontact.integrate.lift`), else the
        closed derivative at every node, else grid differences.
        """
        n, k = self.chart.n, self.chart.k
        if self._table is not None:
            return tuple(a.copy() for a in self._table)
        if self.closed_derivative is not None:
            return tuple(_sample(self.grid, self.closed_derivative, [(k, n), (k, k, n), (k, k)]))
        return tuple(np.stack([grid_derivative(a, self.grid, b) for b in range(k)], axis=k)
                     for a in (self.q, self.p, self.z))
