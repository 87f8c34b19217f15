"""Canonical field-equation k-vector fields, gauge freedom, and residuals.

The pointwise field equations fix, for a scalar Hamiltonian h,

  * every q-block:        (X_b)^i        = dh/dp_i^b,
  * the momentum traces:  sum_a (X_a)_i^a = -(dh/dq^i + sum_a p_i^a dh/dz^a),
  * the z trace:          sum_a (X_a)^a   = sum p dh/dp - h      (standard)
                                            sum p dh/dp          (evolution).

All remaining components are free; the canonical representative built here
splits each trace equally over the diagonal (1/k each) and zeroes every
off-diagonal block.  The free directions form the gauge kernel, spanned by
:func:`gauge_basis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, RegularityError, ShapeError
from .fields import ScalarField, _block, _newton, _newton_passes, _node_gradients, check_regularity, grad
from .geometry import ChartSpec, DarbouxPoint, KTangent, Tangent, _check_tol
from .grids import BaseMap, GridSpec, SolutionMap, _node, _sample, grid_derivative
from .sections import default_box, sample_box

__all__ = [
    "KVectorField",
    "GaugeElement",
    "ResidualGrid",
    "canonical_kvf",
    "kvf_residual",
    "gauge_basis",
    "random_gauge",
    "add_gauge",
    "map_residual",
    "evolution_lift",
    "second_order_residual",
]

MODES = ("standard", "evolution")
_AFFINE_SAMPLES = 50  # random points of the affinity check
_AFFINE_TOL = 1e-10  # largest spread of the z-gradient it accepts


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ContractError(f"unknown mode {mode!r}")


@dataclass
class KVectorField:
    """A field of k-tangents over the chart.

    ``kind`` records how it was built; for the two canonical kinds the
    residual of the defining equations vanishes identically by
    construction, which the test suite asserts.
    """

    chart: ChartSpec
    at: callable
    kind: str = "custom"
    hamiltonian: ScalarField = None


@dataclass(frozen=True)
class GaugeElement:
    """A k-tangent in the kernel of the structure contraction.

    Components are vertical (zero q-blocks) with traceless diagonal
    momentum and z entries, so adding one to any solution of the field
    equations yields another solution for the same Hamiltonian.
    """

    chart: ChartSpec
    coeffs: KTangent

    def __post_init__(self):
        if self.coeffs.k != self.chart.k:
            raise ShapeError("gauge element has wrong number of components")
        q, p, z = _blocks(self.coeffs)
        if np.max(np.abs(q)) > 0.0:
            raise ContractError("gauge elements must have zero q-blocks")
        if np.max(np.abs(np.diagonal(p).sum(axis=-1))) > 1e-12 or abs(np.trace(z)) > 1e-12:
            raise ContractError("gauge element diagonal traces must vanish")


def canonical_kvf(h: ScalarField, mode: str = "standard") -> KVectorField:
    """Equal-split canonical solution of the pointwise field equations."""
    _check_mode(mode)
    chart = h.chart
    n, k = chart.n, chart.k

    def at(pt: DarbouxPoint) -> KTangent:
        g = grad(h, pt)
        trace_p = -(g.d_q + np.einsum("ai,a->i", pt.p, g.d_z))
        sum_pdp = float(np.sum(pt.p * g.d_p))
        trace_z = sum_pdp - (h(pt) if mode == "standard" else 0.0)
        comps = []
        for a in range(k):
            P = np.zeros((k, n))
            P[a] = trace_p / k
            Z = np.zeros(k)
            Z[a] = trace_z / k
            comps.append(Tangent(g.d_p[a], P, Z))
        return KTangent(comps)

    return KVectorField(chart, at, kind=mode, hamiltonian=h)


def kvf_residual(kvf: KVectorField, h: ScalarField, mode: str, pt: DarbouxPoint):
    """Residual triple (r_q, r_p, r_z) of the pointwise field equations."""
    _check_mode(mode)
    h.chart.check_point(pt)
    X = kvf.at(pt)
    g = grad(h, pt)
    hval = h(pt) if mode == "standard" else 0.0
    return tuple(float(r) for r in _node_max(*_residuals(*_blocks(X), pt.p, g.d_q, g.d_p, g.d_z, hval)))


def _blocks(kt: KTangent) -> list:
    """The q, p and z blocks of the components of a k-tangent, stacked component first."""
    return [np.array([getattr(t, b) for t in kt.comp], dtype=float) for b in "qpz"]


def _residuals(dq, dp, dz, p, d_q, d_p, d_z, hval):
    """The signed q-, p- and z-equations, shapes (..., k, n), (..., n) and (...), for derivatives (dq, dp, dz)
    (of a map, or a k-tangent's blocks) at momenta p where h has gradient (d_q, d_p, d_z) and value ``hval``
    (0 in evolution mode).  Leading node axes broadcast; each sum runs as on one node, in row-major order."""
    bal = np.diagonal(dp, axis1=-3, axis2=-2).sum(axis=-1)  # sum_a d p_i^a / d t^a
    rhs = np.sum((p * d_p).reshape(p.shape[:-2] + (-1,)), axis=-1) - hval
    return dq - d_p, bal + d_q + np.einsum("...ai,...a->...i", p, d_z), np.trace(dz, axis1=-2, axis2=-1) - rhs


def _node_max(r_q, r_p, r_z):
    """The per-node residual triple: the max |.| of each signed equation of :func:`_residuals`."""
    return np.max(np.abs(r_q), axis=(-2, -1)), np.max(np.abs(r_p), axis=-1), np.abs(r_z)


def gauge_basis(chart: ChartSpec, pt: DarbouxPoint = None) -> list:
    """A basis of the gauge kernel at a point ((n+1)(k^2-1) elements).

    In these coordinates the kernel does not depend on the point, so ``pt``
    is accepted only for signature symmetry with :func:`~kcontact.geometry.chi`.
    Construction: one unit insertion per off-diagonal momentum and z slot,
    plus trace-balanced pairs of consecutive diagonal slots.
    """
    n, k = chart.n, chart.k

    def element(*entries):
        """The element with the given (component, block, slot, value) entries."""
        kt = KTangent.zero(chart)
        for a, block, slot, v in entries:
            getattr(kt.comp[a], block)[slot] = v
        return GaugeElement(chart, kt)

    out = []
    for a, b in ((a, b) for a in range(k) for b in range(k) if a != b):
        out += [element((a, "p", (b, i), 1.0)) for i in range(n)] + [element((a, "z", b, 1.0))]
    for a in range(k - 1):
        out += [element((a, "p", (a, i), 1.0), (a + 1, "p", (a + 1, i), -1.0)) for i in range(n)]
        out.append(element((a, "z", a, 1.0), (a + 1, "z", a + 1, -1.0)))
    assert len(out) == (n + 1) * (k * k - 1)
    return out


def random_gauge(chart: ChartSpec, rng, scale: float = 1.0) -> GaugeElement:
    """A random combination of the basis gauge elements."""
    basis = gauge_basis(chart)
    kt = KTangent.zero(chart)
    for g in basis:
        kt = kt + g.coeffs.scale(scale * (2.0 * rng.random() - 1.0))
    return GaugeElement(chart, kt)


def add_gauge(kvf: KVectorField, gauge: GaugeElement) -> KVectorField:
    """The field shifted by a constant gauge element (still a solution)."""
    def at(pt):
        return kvf.at(pt) + gauge.coeffs

    return KVectorField(kvf.chart, at, kind="custom", hamiltonian=kvf.hamiltonian)


@dataclass
class ResidualGrid:
    """Per-node residual triple of the field equations for a candidate map.

    :meth:`max` and :meth:`interior_max` are NaN if an entry they cover is NaN."""

    r_q: np.ndarray
    r_p: np.ndarray
    r_z: np.ndarray

    def max(self) -> float:
        return float(np.max([np.max(self.r_q), np.max(self.r_p), np.max(self.r_z)]))

    def interior_max(self) -> float:
        sl = tuple(slice(1, -1) for _ in self.r_q.shape)
        return float(np.max([np.max(self.r_q[sl]), np.max(self.r_p[sl]), np.max(self.r_z[sl])]))

    def summary(self) -> dict:
        return {"max_r_q": float(np.max(self.r_q)), "max_r_p": float(np.max(self.r_p)),
                "max_r_z": float(np.max(self.r_z))}


def map_residual(psi: SolutionMap, h: ScalarField, mode: str = "standard") -> ResidualGrid:
    """Field-equation residuals of a candidate map: the max |.| of each signed equation per node.

    Direction derivatives come from :meth:`SolutionMap.derivatives`.  h and
    its gradient on all nodes come from one batched pass
    (:func:`kcontact.fields._node_gradients`).
    """
    _check_mode(mode)
    chart = h.chart
    if psi.chart != chart:
        raise ShapeError("solution map chart does not match the Hamiltonian chart")
    dq, dp, dz = psi.derivatives()
    chart.check_point(psi.point((0,) * chart.k))
    standard = mode == "standard"
    g_q, g_p, g_z, hval = _node_gradients(h, psi.q, psi.p, psi.z, standard)
    return ResidualGrid(*_node_max(*_residuals(dq, dp, dz, psi.p, g_q, g_p, g_z, hval if standard else 0.0)))


def evolution_lift(H: ScalarField, X: KVectorField, check_tol: float = 1e-10) -> KVectorField:
    """Canonical lift of a conservative-phase-space field to the full chart.

    ``H`` must not depend on the extra coordinates and ``X`` must solve the
    momentum-sector equations for ``H`` (both verified at every evaluated
    point).  Component a of the lift copies X_a and adds the single z-entry
    sum_i p_i^a (X_a)^i, which kills the a-th structure-form contraction;
    the result solves the evolution field equations for H.
    """
    _check_tol("check_tol", check_tol)
    chart = H.chart
    k = chart.k

    def at(pt: DarbouxPoint) -> KTangent:
        g = grad(H, pt)
        xt = X.at(pt)
        if np.max(np.abs(g.d_z)) > check_tol:
            raise ContractError("lift input Hamiltonian depends on the extra coordinates")
        r_q, r_p, _ = _node_max(*_residuals(*_blocks(xt), pt.p, g.d_q, g.d_p, np.zeros(k), 0.0))
        defect = float(np.max([r_q, r_p]))
        if not defect <= check_tol:
            raise ContractError(
                f"input field does not solve the momentum-sector equations (defect {defect:.3e})"
            )
        comps = []
        for a in range(k):
            Z = np.zeros(k)
            Z[a] = float(np.dot(pt.p[a], xt.comp[a].q))
            comps.append(Tangent(xt.comp[a].q.copy(), xt.comp[a].p.copy(), Z))
        return KTangent(comps)

    return KVectorField(chart, at, kind="evolution", hamiltonian=H)


def _affine_z_coefficients(h: ScalarField, rng):
    """The constant z-gradient of an affine-in-z Hamiltonian (probabilistic check)."""
    chart = h.chart
    X = sample_box(default_box(chart.dim), _AFFINE_SAMPLES, rng)
    if h.domain is not None:  # admitted one by one only where there is a domain, as hj._sweep does
        X = np.array([x for x in X if h.in_domain(DarbouxPoint.from_flat(chart, x))]).reshape(-1, chart.dim)
    if not len(X):
        raise ContractError("no admissible sample points for the affinity check")
    d_z = _node_gradients(h, *chart.split(X), False)[2]
    if not np.all(np.max(np.abs(d_z - d_z[0]), axis=-1) <= _AFFINE_TOL):  # per sample; NaN fails
        raise ContractError("Hamiltonian is not affine in the extra coordinates")
    return d_z[0]


def _fibre_momenta(h: ScalarField, values, v, start) -> np.ndarray:
    """Momenta inverting the fibre derivative (d h / d p = v at z = 0) on the nodes of a grid.

    The first node starts from ``start``; then, axis by axis, each step along
    the axis is one batched Newton over the lines of the face swept so far
    (later indices 0), each node started from its predecessor on its line.
    """
    n, k = h.chart.n, h.chart.k
    shape, nodes = values.shape[:-1], np.arange(values[..., 0].size).reshape(values.shape[:-1])
    Q, V, P = values.reshape(-1, n), v.reshape(-1, k * n), np.empty((nodes.size, k * n))
    passes = _newton_passes(h, np.concatenate([Q[0], np.zeros(k), start.reshape(-1)]))  # the first row

    def solve(rows, starts):
        P[rows] = _newton(h, Q[rows], np.zeros((len(rows), k)), V[rows], starts, where=lambda i: (
            f" at work-grid node {tuple(int(c) for c in np.unravel_index(rows[i], shape))}"), passes=passes)

    solve(nodes[(0,) * k].reshape(1), start.reshape(1, -1))
    for axis in range(k):
        face = nodes[(slice(None),) * (axis + 1) + (0,) * (k - axis - 1)]
        for j in range(1, shape[axis]):
            solve(face[..., j].reshape(-1), P[face[..., j - 1].reshape(-1)])
    return P.reshape(shape + (k, n))


def second_order_residual(
    h: ScalarField,
    qmap: BaseMap,
    mode: str = "standard",
    rng=None,
    p_init=None,
) -> np.ndarray:
    """Residual of the induced second-order system on a sampled base map.

    Requires ``h`` affine in the extra coordinates (checked on random
    points) and regular.  Momenta are reconstructed from the node derivatives
    (:meth:`BaseMap.derivatives`, padded if the map has a closed form) by
    fibre-derivative inversion; the result has shape ``grid.shape + (n,)``.
    ``mode`` is validated and does not change the result for an affine
    coupling: the balance term is the momentum trace of the canonical field,
    which the two modes share.  A grid node where the
    gradient of h is not finite raises :class:`ShapeError` naming the node.
    """
    _check_mode(mode)
    chart = h.chart
    n, k = chart.n, chart.k
    grid = qmap.grid
    if grid.k != k:
        raise ShapeError(f"base grid has {grid.k} directions, chart has k={k}")
    if qmap.d != n:
        raise ShapeError(f"base map has dimension {qmap.d}, chart has n={n}")
    rng = np.random.default_rng(0) if rng is None else rng
    _affine_z_coefficients(h, rng)

    # A closed-form base map lets us pad the grid by two rings, so every
    # difference stencil below is central on the reported nodes; otherwise
    # the one-sided seams cost an order of accuracy near the boundary.  The closed forms
    # run on the rings only: the map's nodes keep its values (and derivatives, if closed).
    # Node data (integrated flows) is not padded, and a closed form that fails on
    # the rings (say a square root below the first node) uses the bare grid.
    pad = 2 if qmap.closed_form is not None else 0
    work, values = grid, qmap.values
    if pad:
        work = GridSpec(grid.origin - pad * grid.spacing, grid.spacing, np.add(grid.counts, 2 * pad))
        ring = np.pad(np.zeros(grid.shape, dtype=bool), pad, constant_values=True)

        def padded(inside, fn, shape):  # ``inside`` on the map's nodes, ``fn`` on the rings
            out = np.zeros(work.shape + inside.shape[k:])
            out[~ring] = inside.reshape(-1, *inside.shape[k:])
            rows = _sample(work, lambda t: [fn(t)], [shape], np.flatnonzero(ring))[0]
            out[ring] = rows.reshape(-1, *inside.shape[k:])
            return out

        try:
            values = padded(values, qmap.closed_form, None)
        except (ContractError, ShapeError, ValueError, ArithmeticError):
            pad, work = 0, grid
    v = (BaseMap(work, values).derivatives() if pad and qmap.closed_derivative is None
         else padded(qmap.derivatives(), qmap.closed_derivative, (k, n)) if pad else qmap.derivatives())

    prev = np.zeros((k, n)) if p_init is None else _block("p_init", p_init, k, n)
    ok, smin = check_regularity(h, DarbouxPoint(values[(0,) * k], prev, np.zeros(k)))
    if not ok:
        raise RegularityError(
            f"fibre Hessian is singular near the reconstruction start (min singular value {smin:.3e})"
        )
    P = _fibre_momenta(h, values, v, prev)

    div_P = np.zeros(work.shape + (n,))
    for a in range(k):
        div_P += grid_derivative(P[..., a, :], work, a)

    # the balance term sum_a (X_a)_i^a of the canonical field: k shares trace_p / k, summed from 0
    inner = tuple(slice(pad, pad + c) for c in grid.counts)
    values, P = values[inner], P[inner]
    g_q, _, g_z, _ = _node_gradients(h, values, P, np.zeros(grid.shape + (k,)), False,
                                     lambda i: f" at grid node {_node(grid, i)}")
    trace_p = -(g_q + np.einsum("...ai,...a->...i", P, g_z))
    return div_P[inner] - sum(trace_p / k for _ in range(k))
