"""Sections of the phase-space bundle over Q and over Q x R^k.

Sections are stored as coefficient callables (dual-capable), not sampled
grids, so every Hamilton-Jacobi check below differentiates them exactly.
``gamma_p`` returns the momentum coefficients as a (k, n) nested sequence;
``gamma_z`` the k extra-coordinate values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .errors import DomainError
from .geometry import ChartSpec, DarbouxPoint

__all__ = [
    "SectionZInd",
    "SectionZDep",
    "from_potentials",
    "check_holonomic",
    "check_max_coisotropic",
    "check_isotropic_slices",
    "sample_box",
    "default_box",
]


def sample_box(bounds, count: int, rng) -> np.ndarray:
    """``count`` uniform samples from the product of the given intervals."""
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    return lo + (hi - lo) * rng.random((count, bounds.shape[0]))


def default_box(d: int, half_width: float = 1.0):
    return [(-half_width, half_width)] * d


def _mat(rows, k, n):
    out = [list(r) if hasattr(r, "__len__") else [r] for r in rows]
    if len(out) != k or any(len(r) != n for r in out):
        raise ValueError(f"section coefficients must form a {k} x {n} block")
    return out


@dataclass(frozen=True)
class SectionZInd:
    """A section over Q: q -> (q, gamma_p(q), gamma_z(q))."""

    chart: ChartSpec
    gamma_p: callable
    gamma_z: callable
    domain: callable = None
    name: str = ""

    def in_domain(self, q) -> bool:
        return self.domain is None or bool(self.domain(q))

    def p_at(self, q):
        return _mat(self.gamma_p(q), self.chart.k, self.chart.n)

    def z_at(self, q):
        return list(self.gamma_z(q))

    def at(self, q) -> DarbouxPoint:
        if not self.in_domain(q):
            raise DomainError(f"base point outside domain of section {self.name}")
        q = [float(v) for v in np.atleast_1d(q)]
        return DarbouxPoint(q, np.array(self.p_at(q), dtype=float), np.array(self.z_at(q), dtype=float))


@dataclass(frozen=True)
class SectionZDep:
    """A section over Q x R^k: (q, z) -> (q, gamma_p(q, z), z)."""

    chart: ChartSpec
    gamma_p: callable
    domain: callable = None
    name: str = ""

    def in_domain(self, q, z) -> bool:
        return self.domain is None or bool(self.domain(q, z))

    def p_at(self, q, z):
        return _mat(self.gamma_p(q, z), self.chart.k, self.chart.n)

    def at(self, q, z) -> DarbouxPoint:
        if not self.in_domain(q, z):
            raise DomainError(f"base point outside domain of section {self.name}")
        q = [float(v) for v in np.atleast_1d(q)]
        z = [float(v) for v in np.atleast_1d(z)]
        return DarbouxPoint(q, np.array(self.p_at(q, z), dtype=float), np.array(z, dtype=float))


def from_potentials(chart: ChartSpec, W, domain=None, name: str = "") -> SectionZInd:
    """Section generated by k potentials: coefficients are their exact q-derivatives.

    ``W`` maps a base point to the k potential values; the momentum block
    of the result is the Jacobian of ``W``, so the section is holonomic by
    construction.
    """

    def gamma_p(q):
        _, rows = dm.jacobian(lambda qs: list(W(qs)), list(q))
        return rows

    return SectionZInd(chart, gamma_p=gamma_p, gamma_z=lambda q: list(W(q)), domain=domain, name=name)


def _flat(rows) -> list:
    """Momentum coefficient rows as one flat, row-major list."""
    return [x for row in rows for x in row]


def _coeff_jacobian(gamma, x):
    """Section coefficients and their Jacobian rows in one dual pass.

    For a :class:`SectionZDep` the pass is over ``x`` = (q, z) and the
    outputs are the flat momentum coefficients.  For a
    :class:`SectionZInd` it is over ``x`` = q and the k z-values follow the
    momentum coefficients.  Returns ``(vals, rows)`` as
    :func:`kcontact.dual.jacobian` does; entries stay dual-capable when
    ``x`` carries duals of an enclosing pass.
    """
    if isinstance(gamma, SectionZDep):
        n = gamma.chart.n
        return dm.jacobian(lambda v: _flat(gamma.p_at(v[:n], v[n:])), list(x))
    return dm.jacobian(lambda v: _flat(gamma.p_at(v)) + list(gamma.z_at(v)), list(x))


def check_holonomic(gamma: SectionZInd, samples) -> float:
    """Max defect |gamma_p - d(gamma_z)/dq| over the sample points.

    Zero defect means the momentum coefficients are the derivatives of the
    extra-coordinate functions, i.e. the section is a first-prolongation
    graph; its image is then tangent to the kernel of the structure forms.
    """
    k, n = gamma.chart.k, gamma.chart.n
    worst = 0.0
    for q in np.atleast_2d(np.asarray(samples, dtype=float)):
        if not gamma.in_domain(q):
            continue
        vals, rows = _coeff_jacobian(gamma, q)
        for a in range(k):
            for i in range(n):
                worst = max(worst, abs(float(vals[a * n + i]) - float(rows[k * n + a][i])))
    return worst


def check_max_coisotropic(gamma: SectionZDep, samples) -> float:
    """Max defect of the symmetric compatibility condition over samples.

    The condition compares, for every component a and index pair (i, j),
    the q-derivative of the coefficients corrected by z-derivatives along
    the section; for n = 1 it is vacuous and the defect is identically 0.
    """
    k, n = gamma.chart.k, gamma.chart.n
    if n == 1:
        return 0.0
    worst = 0.0
    for qz in np.atleast_2d(np.asarray(samples, dtype=float)):
        q, z = qz[:n], qz[n:]
        if not gamma.in_domain(q, z):
            continue
        vals, rows = _coeff_jacobian(gamma, list(q) + list(z))
        gp = np.array(vals, dtype=float).reshape(k, n)
        jac = np.array(rows, dtype=float).reshape(k, n, n + k)
        for a in range(k):
            A = jac[a, :, :n].T.copy()  # A[i, j] = d gamma_j^a / d q^i
            for b in range(k):
                A += np.outer(gp[b], jac[a, :, n + b])  # + gamma_i^b * d gamma_j^a / d z^b
            worst = max(worst, float(np.max(np.abs(A - A.T))))
    return worst


def check_isotropic_slices(gamma: SectionZDep, z, samples) -> float:
    """Max antisymmetry defect of the q-derivatives at the fixed slice ``z``."""
    k, n = gamma.chart.k, gamma.chart.n
    if n == 1:
        return 0.0
    worst = 0.0
    z = np.asarray(z, dtype=float)
    for q in np.atleast_2d(np.asarray(samples, dtype=float)):
        if not gamma.in_domain(q, z):
            continue
        _, rows = _coeff_jacobian(gamma, list(q) + list(z))
        jac = np.array(rows, dtype=float).reshape(k, n, n + k)
        for a in range(k):
            A = jac[a, :, :n].T  # A[i, j] = d gamma_j^a / d q^i
            worst = max(worst, float(np.max(np.abs(A - A.T))))
    return worst
