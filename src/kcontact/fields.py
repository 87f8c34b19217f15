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
from .errors import ContractError, DomainError, RegularityError, ShapeError, SolverError
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
            raise self._outside()
        return self.fn(pt)

    def in_domain(self, pt: DarbouxPoint) -> bool:
        return self.domain is None or bool(self.domain(pt))

    def _outside(self) -> DomainError:
        return DomainError(f"point outside declared domain of field {self.name or repr(self.fn)}")


def _node_gradients(h: ScalarField, q, p, z, value: bool, where=None):
    """d_q, d_p, d_z of h and (``value``) h at the nodes (q, p, z): ``grad(h, pt)`` and ``h(pt)``
    with their errors, first failing node first, from one :func:`kcontact.dual._rows` pass
    (h from a plain evaluation: the dual one rounds differently).  With ``where``, the first
    node i where one of them is not finite raises ShapeError with the suffix ``where(i)``."""
    chart = h.chart
    n, k = chart.n, chart.k
    X = np.concatenate([a.reshape(-1, d) for a, d in ((q, n), (p, k * n), (z, k))], axis=1)

    def row(x):
        x = list(x)
        pt = DarbouxPoint(x[:n], [x[n + a * n:n + a * n + n] for a in range(k)], x[n + n * k:])
        if not h.in_domain(pt):
            raise h._outside()
        _, g = dm.derive1(lambda xs: h.fn(DarbouxPoint.from_flat(chart, xs)), x)
        return g + [h.fn(pt)] if value else g

    G = dm._rows(row, X, None if where is None else lambda r: np.all(np.isfinite(r), axis=-1))
    if where is not None and not np.all(np.isfinite(G[-1])):
        raise ShapeError(f"gradient of h is not finite{where(len(G) - 1)}")
    G = G.reshape(q.shape[:-1] + (-1,))
    return (*chart.split(G[..., :chart.dim]), G[..., -1] if value else None)


def grad(h: ScalarField, pt: DarbouxPoint) -> Gradient:
    """Exact first derivatives of ``h`` at ``pt`` via forward duals."""
    h.chart.check_point(pt)
    return Gradient(*(g[0] for g in _node_gradients(h, pt.q[None], pt.p[None], pt.z[None], False)[:3]))


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
    return Gradient(*chart.split(g))


def _h_of_p(h: ScalarField, q, z):
    """h as a function of the flat (row-major) momentum block at fixed (q, z)."""
    chart, q, z = h.chart, list(q), list(z)
    return lambda ps: h.fn(DarbouxPoint.from_flat(chart, q + list(ps) + z))


def _p_grad(h: ScalarField, q, z, p_flat) -> list:
    """Gradient of h in the flat momentum block at fixed (q, z), in one dual pass.

    Entries stay dual-capable when (q, p, z) carry duals of an enclosing pass.
    """
    return dm.derive1(_h_of_p(h, q, z), list(p_flat))[1]


def _p_hess(h: ScalarField, q, z, p_flat) -> list:
    """Hessian of h in the flat momentum block at fixed (q, z); lanes where the row has them."""
    return dm.derive2(_h_of_p(h, q, z), p_flat)[2]


def p_hessian(h: ScalarField, pt: DarbouxPoint) -> np.ndarray:
    """The (nk x nk) matrix of second momentum derivatives at ``pt``."""
    return np.asarray(_p_hess(h, pt.q, pt.z, np.asarray(pt.p, dtype=float).reshape(-1)), dtype=float)


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


def _newton_steps(H, R, singular):
    """The Newton steps H_i^-1 r_i of stacked Hessians, each as a one-matrix solve gives it;
    ``singular(i)`` for the first row i whose Hessian fails the SVD test or the solver."""
    try:
        sv = np.linalg.svd(H, compute_uv=False)
        if np.all(sv[:, -1] > 1e-14 * np.maximum(sv[:, 0], 1.0)):
            return np.linalg.solve(H, R[..., None])[..., 0]
    except np.linalg.LinAlgError:  # a non-finite Hessian, or one the solver finds singular
        pass
    steps = []
    for i in range(len(H)):  # the scalar rules, one row at a time
        try:
            sv = np.linalg.svd(H[i], compute_uv=False)
            if sv[-1] <= 1e-14 * max(sv[0], 1.0):
                raise singular(i)
            steps.append(np.linalg.solve(H[i:i + 1], R[i:i + 1, :, None])[..., 0])
        except np.linalg.LinAlgError as exc:
            raise singular(i) from exc
    return np.concatenate(steps)


def _newton_passes(h: ScalarField, x0=None) -> tuple:
    """The residual pass (``_p_grad``) and the flat Hessian pass (``_p_hess``) of
    :func:`_newton` on a row (q, z, p); with a float row ``x0``, each recorded there
    as a :func:`kcontact.dual._program` when it can be."""
    n, k = h.chart.n, h.chart.k
    passes = (lambda x: _p_grad(h, x[:n], x[n:n + k], x[n + k:]),
              lambda x: [v for r in _p_hess(h, x[:n], x[n:n + k], x[n + k:]) for v in r])
    return passes if x0 is None else tuple(dm._program(f, x0) or f for f in passes)


def _newton(h: ScalarField, Q, Z, V, P, tol: float = 1e-12, max_iter: int = 50, where=lambda i: "",
            passes=None):
    """The momenta solving d h / d p = v at fixed (q, z), one node per row of (Q, Z, V), from
    the starts P (momenta and v flattened row-major): damped Newton, with per-row state.

    The rows not yet converged (the active set) share each residual pass and Hessian pass
    (``passes``, default :func:`_newton_passes`) as lanes of
    :func:`kcontact.dual._rows`, so every row takes the iterates of a
    one-row call, which runs as floats.  An error names the first failing
    row of the failing pass with the suffix ``where(row)``.
    """
    n, k = h.chart.n, h.chart.k
    QZ = np.concatenate([np.asarray(Q, dtype=float), np.asarray(Z, dtype=float)], axis=1)
    p, V = np.array(P, dtype=float), np.asarray(V, dtype=float)
    grad_pass, hess_pass = passes or _newton_passes(h)

    def residual(rows, ps):
        R = dm._rows(grad_pass, np.concatenate([QZ[rows], ps], axis=1)) - V[rows]
        return R, np.max(np.abs(R), axis=1)

    res, rnorm = residual(np.arange(len(p)), p)
    for _ in range(max_iter):
        act = np.flatnonzero(~(rnorm < tol))
        if not len(act):
            break
        H = dm._rows(hess_pass, np.concatenate([QZ[act], p[act]], axis=1)).reshape(len(act), k * n, k * n)
        step = _newton_steps(H, res[act], lambda i: RegularityError(
            f"fibre Hessian is singular during Newton iteration{where(act[i])}"))
        trial, tres, tnorm = p[act], res[act], rnorm[act]
        scale, halving = np.ones(len(act)), np.arange(len(act))
        for _ in range(10):  # halve the steps of the rows whose residual did not decrease
            rows = act[halving]
            trial[halving] = p[rows] - scale[halving, None] * step[halving]
            tres[halving], tnorm[halving] = residual(rows, trial[halving])
            halving = halving[~((tnorm[halving] < rnorm[rows]) | (tnorm[halving] < tol))]
            if not len(halving):
                break
            scale[halving] *= 0.5
        p[act], res[act], rnorm[act] = trial, tres, tnorm
    if not np.all(rnorm < tol):
        i = np.flatnonzero(~(rnorm < tol))[0]
        raise SolverError(f"fibre-derivative inversion did not converge (last residual {rnorm[i]:.3e})"
                          f"{where(i)}", residual=float(rnorm[i]))
    return p


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
    row = [[float(x) for x in q]], [[float(x) for x in z]]
    for name, a in (("v", v), ("p_init", p_init)):
        try:
            fits = np.asarray(a, dtype=float).shape == (k, n)
        except (TypeError, ValueError):  # ragged rows, or entries that are not numbers
            fits = False
        if not fits:
            raise ShapeError(f"{name} must be a (k, n) = {(k, n)} array of numbers, got {a!r}")
    return _newton(h, *row, np.reshape(v, (1, k * n)), np.reshape(p_init, (1, k * n)), tol,
                   max_iter)[0].reshape(k, n)
