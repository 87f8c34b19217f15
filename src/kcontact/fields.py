"""Differentiable scalar fields on the phase space.

A :class:`ScalarField` wraps a plain Python callable on
:class:`~kcontact.geometry.DarbouxPoint`.  Derivatives are exact (forward
dual numbers threaded through the callable); a central-difference oracle
is provided for cross-checking in tests.  Fibre-derivative inversion is a
damped Newton iteration on the momentum block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dual as dm
from .errors import ContractError, DomainError, RegularityError, SolverError
from .geometry import ChartSpec, DarbouxPoint

__all__ = [
    "ScalarField",
    "Gradient",
    "grad",
    "fd_grad",
    "p_hessian",
    "check_regularity",
    "invert_fibre_derivative",
]


@dataclass(frozen=True)
class Gradient:
    """First derivatives of a scalar field, split into the chart blocks."""

    d_q: np.ndarray
    d_p: np.ndarray
    d_z: np.ndarray

    def flat(self) -> np.ndarray:
        return np.concatenate([self.d_q.reshape(-1), self.d_p.reshape(-1), self.d_z.reshape(-1)])


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of a Darboux point.

    ``fn`` must be deterministic, side-effect free, and written with plain
    scalar arithmetic (plus the ``kcontact.dual`` math helpers) so dual
    numbers can flow through it.  ``domain``, when given, is a predicate
    evaluated before ``fn``; it may compare coordinate values directly.
    """

    chart: ChartSpec
    fn: callable
    params: dict = field(default_factory=dict)
    domain: callable = None
    name: str = ""

    def __call__(self, pt: DarbouxPoint):
        if self.domain is not None and not self.domain(pt):
            raise DomainError(f"point outside declared domain of field {self.name or self.fn!r}")
        return self.fn(pt)

    def in_domain(self, pt: DarbouxPoint) -> bool:
        return self.domain is None or bool(self.domain(pt))


def _point_from_coords(chart: ChartSpec, coords) -> DarbouxPoint:
    n, k = chart.n, chart.k
    # element by element, so lane values are stored as they are (see kcontact.dual)
    flat = np.fromiter(coords, dtype=object, count=len(coords))
    return DarbouxPoint(flat[:n], flat[n:n + n * k].reshape(k, n), flat[n + n * k:])


def grad(h: ScalarField, pt: DarbouxPoint) -> Gradient:
    """Exact first derivatives of ``h`` at ``pt`` via forward duals."""
    chart = h.chart
    chart.check_point(pt)
    if not h.in_domain(pt):
        raise DomainError(f"point outside declared domain of field {h.name}")
    coords = [float(v) for v in pt.flat()]
    _, g = dm.derive1(lambda xs: h.fn(_point_from_coords(chart, xs)), coords)
    n, k = chart.n, chart.k
    g = np.asarray(g, dtype=float)
    return Gradient(g[:n], g[n:n + n * k].reshape(k, n), g[n + n * k:])


def fd_grad(h: ScalarField, pt: DarbouxPoint, step: float = 1e-5) -> Gradient:
    """Central-difference gradient; the independent oracle used in tests."""
    if not step > 0.0:
        raise ContractError(f"fd step must be positive, got {step}")
    chart = h.chart
    chart.check_point(pt)
    x0 = np.asarray(pt.flat(), dtype=float)
    g = np.zeros_like(x0)
    for j in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += step
        xm[j] -= step
        pp = DarbouxPoint.from_flat(chart, xp)
        pm = DarbouxPoint.from_flat(chart, xm)
        if not (h.in_domain(pp) and h.in_domain(pm)):
            raise DomainError("finite-difference stencil leaves the declared domain")
        g[j] = (h.fn(pp) - h.fn(pm)) / (2.0 * step)
    n, k = chart.n, chart.k
    return Gradient(g[:n], g[n:n + n * k].reshape(k, n), g[n + n * k:])


def _h_of_p(h: ScalarField, q, z):
    """h as a function of the flat (row-major) momentum block at fixed (q, z)."""
    chart, q, z = h.chart, list(q), list(z)
    return lambda ps: h.fn(_point_from_coords(chart, q + list(ps) + z))


def _p_grad(h: ScalarField, q, z, p_flat) -> list:
    """Gradient of h in the flat momentum block at fixed (q, z), in one dual pass.

    Entries stay dual-capable when (q, p, z) carry duals of an enclosing pass.
    """
    return dm.derive1(_h_of_p(h, q, z), list(p_flat))[1]


def _p_hess(h: ScalarField, q, z, p_flat) -> np.ndarray:
    """Hessian of h in the flat momentum block at fixed (q, z)."""
    f = _h_of_p(h, [float(v) for v in q], [float(v) for v in z])
    return np.asarray(dm.derive2(f, [float(v) for v in p_flat])[2], dtype=float)


def p_hessian(h: ScalarField, pt: DarbouxPoint) -> np.ndarray:
    """The (nk x nk) matrix of second momentum derivatives at ``pt``."""
    return _p_hess(h, pt.q, pt.z, np.asarray(pt.p, dtype=float).reshape(-1))


def check_regularity(h: ScalarField, pt: DarbouxPoint, rtol: float = 1e-9):
    """Whether the fibre Hessian is numerically non-singular at ``pt``.

    Returns ``(is_regular, min_abs_eigenvalue)``; regular means the
    smallest singular value exceeds ``rtol`` times the largest.
    """
    H = p_hessian(h, pt)
    sv = np.linalg.svd(H, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    smin = float(sv[-1]) if sv.size else 0.0
    return (smax > 0.0 and smin > rtol * smax), smin


def invert_fibre_derivative(
    h: ScalarField,
    q,
    z,
    v,
    p_init,
    tol: float = 1e-12,
    max_iter: int = 50,
):
    """Solve d h / d p = v for the momentum block at fixed (q, z).

    ``v`` and ``p_init`` are (k x n) arrays (``v[a, i]`` prescribes the
    derivative with respect to ``p_i^a``).  Newton steps are damped by
    halving, up to ten times, whenever the sup-norm residual fails to
    decrease.  Raises :class:`RegularityError` on a singular Hessian and
    :class:`SolverError` (carrying the last residual) on non-convergence.
    """
    k, n = h.chart.k, h.chart.n
    qf = [float(x) for x in q]
    zf = [float(x) for x in z]
    v = np.asarray(v, dtype=float).reshape(k * n)
    p = np.asarray(p_init, dtype=float).reshape(k * n).copy()

    def residual(ps):
        return np.asarray(_p_grad(h, qf, zf, ps), dtype=float) - v

    res = residual(p)
    rnorm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if rnorm < tol:
            return p.reshape(k, n)
        H = _p_hess(h, qf, zf, p)
        sv = np.linalg.svd(H, compute_uv=False)
        if sv[-1] <= 1e-14 * max(sv[0], 1.0):
            raise RegularityError("fibre Hessian is singular during Newton iteration")
        try:
            step = np.linalg.solve(H, res)
        except np.linalg.LinAlgError as exc:
            raise RegularityError("fibre Hessian is singular during Newton iteration") from exc
        trial, tres, tnorm = p, res, rnorm
        scale = 1.0
        for _ in range(10):
            trial = p - scale * step
            tres = residual(trial)
            tnorm = float(np.max(np.abs(tres)))
            if tnorm < rnorm or tnorm < tol:
                break
            scale *= 0.5
        p, res, rnorm = trial, tres, tnorm
    if rnorm < tol:
        return p.reshape(k, n)
    raise SolverError(
        f"fibre-derivative inversion did not converge (last residual {rnorm:.3e})",
        residual=rnorm,
    )
