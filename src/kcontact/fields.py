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
from .geometry import ChartSpec, DarbouxPoint, _check_tol, _floats, _whole

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
    """The (nk x nk) matrix of second momentum derivatives at ``pt``, as a one-row pass: a value
    that is not finite raises ShapeError naming the flat point (see :func:`kcontact.dual._rows`)."""
    n, m = h.chart.n, h.chart.n * h.chart.k  # the flat point is q (n entries), p (m), then z
    return dm._rows(lambda x: _p_hess(h, x[:n], x[n + m:], x[n:n + m]),
                    np.asarray(pt.flat(), dtype=float)[None])[0]


def check_regularity(h: ScalarField, pt: DarbouxPoint, rtol: float = 1e-9):
    """Whether the fibre Hessian is numerically non-singular at ``pt``.

    Returns ``(is_regular, min_abs_eigenvalue)``; regular means the
    smallest singular value exceeds ``rtol`` times the largest.
    """
    _check_tol("rtol", rtol)
    H = p_hessian(h, pt)
    sv = np.linalg.svd(H, compute_uv=False)  # nk >= 1 singular values, largest first
    smax, smin = float(sv[0]), float(sv[-1])
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
    for i in range(len(H)):  # the same rules one row at a time: the first row they refuse
        try:
            sv = np.linalg.svd(H[i], compute_uv=False)
            if not sv[-1] > 1e-14 * max(sv[0], 1.0):  # NaN singular values refuse the row
                break
            np.linalg.solve(H[i], R[i])
        except np.linalg.LinAlgError as exc:
            raise singular(i) from exc
    raise singular(i)  # a stack the rules refuse has a row they refuse, so the loop stops there


def _newton_passes(h: ScalarField, x0=None) -> tuple:
    """The residual pass (``_p_grad``) and the fused pass (``derive2``'s gradient, bit for bit
    ``_p_grad``'s, then its flat Hessian) of :func:`_newton` on a row (q, z, p); with a float
    row ``x0``, each recorded there as a :func:`kcontact.dual._program` when it can be."""
    n, k = h.chart.n, h.chart.k

    def fused(x):
        _, g, H = dm.derive2(_h_of_p(h, x[:n], x[n:n + k]), x[n + k:])
        return g + [v for r in H for v in r]

    passes = (lambda x: _p_grad(h, x[:n], x[n:n + k], x[n + k:]), fused)
    return passes if x0 is None else tuple(dm._program(f, x0) or f for f in passes)


def _newton(h: ScalarField, Q, Z, V, P, tol: float = 1e-12, max_iter: int = 50, where=lambda i: "",
            passes=None):
    """The momenta solving d h / d p = v at fixed (q, z), one node per row of (Q, Z, V), from
    the starts P (momenta and v flattened row-major): damped Newton, with per-row state.

    The rows not yet converged (the active set) share each pass (``passes``, default
    :func:`_newton_passes`) as lanes of :func:`kcontact.dual._rows`, so every row takes the
    iterates of a one-row call, which runs as floats.  The fused pass gives the residuals and
    Hessians at the starts, then the Hessians of the rows that moved; if it raises at the starts,
    the residual pass runs there first.  An error names the first failing row of the failing
    pass with the suffix ``where(row)``.
    """
    n, k = h.chart.n, h.chart.k
    QZ = np.concatenate([np.asarray(Q, dtype=float), np.asarray(Z, dtype=float)], axis=1)
    p, V = np.array(P, dtype=float), np.asarray(V, dtype=float)
    grad_pass, fused_pass = passes or _newton_passes(h)

    def run(fn, rows, ps):  # one pass: the residuals, their sup norms, then the flat Hessians if any
        F = dm._rows(fn, np.concatenate([QZ[rows], ps], axis=1))
        R = F[:, :k * n] - V[rows]
        return R, np.max(np.abs(R), axis=1), F[:, k * n:]

    try:
        res, rnorm, H = run(fused_pass, np.arange(len(p)), p)
    except Exception:  # noqa: BLE001 - residuals first, then Hessians of the active rows only
        res, rnorm, H = *run(grad_pass, np.arange(len(p)), p)[:2], None
    for _ in range(max_iter):
        act = np.flatnonzero(~(rnorm < tol))
        if not len(act):
            break
        H = (run(fused_pass, act, p[act])[2] if H is None else H[act]).reshape(len(act), k * n, k * n)
        step = _newton_steps(H, res[act], lambda i: RegularityError(
            f"fibre Hessian is singular during Newton iteration{where(act[i])}"))
        trial, tres, tnorm = p[act], res[act], rnorm[act]
        scale, halving = np.ones(len(act)), np.arange(len(act))
        for _ in range(10):  # halve the steps of the rows whose residual did not decrease
            rows = act[halving]
            trial[halving] = p[rows] - scale[halving, None] * step[halving]
            tres[halving], tnorm[halving], _ = run(grad_pass, rows, trial[halving])
            halving = halving[~((tnorm[halving] < rnorm[rows]) | (tnorm[halving] < tol))]
            if not len(halving):
                break
            scale[halving] *= 0.5
        p[act], res[act], rnorm[act], H = trial, tres, tnorm, None
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
    derivative with respect to ``p_i^a``).  Newton steps are damped by halving, up to ten
    times, whenever the sup-norm residual fails to decrease.  A non-finite entry of q, z, v
    or p_init raises :class:`ShapeError` naming it, a singular Hessian :class:`RegularityError`
    and non-convergence :class:`SolverError` (carrying the last residual).  ``tol`` must be a
    real number >= 0 and ``max_iter`` an integer >= 0, or :class:`ContractError` names it.
    """
    _check_tol("tol", tol)
    if not _whole(max_iter, 0):
        raise ContractError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    k, n = h.chart.k, h.chart.n
    row = [_floats(a, ShapeError, "{} must be numbers, got {!r}", name, a).reshape(1, -1)
           for name, a in (("q", q), ("z", z))]
    v, p_init = (_block(name, a, k, n).reshape(1, k * n) for name, a in (("v", v), ("p_init", p_init)))
    for name, a in zip(("q", "z", "v", "p_init"), (*row, v, p_init)):
        if not np.all(np.isfinite(a)):
            raise ShapeError(f"{name} contains non-finite entries")
    return _newton(h, *row, v, p_init, tol, max_iter)[0].reshape(k, n)


def _block(name: str, a, k: int, n: int) -> np.ndarray:
    """The caller's (k, n) momentum block ``a`` as floats; anything else raises ShapeError naming ``name``."""
    message = "{} must be a (k, n) = {} array of numbers, got {!r}"
    out = _floats(a, ShapeError, message, name, (k, n), a)
    if out.shape != (k, n):
        raise ShapeError(message.format(name, (k, n), a))
    return out
