"""Sections of the phase-space bundle over Q and over Q x R^k.

Sections are stored as coefficient callables (dual-capable), not sampled
grids, so every Hamilton-Jacobi check below differentiates them exactly.
``gamma_p`` returns the momentum coefficients as a (k, n) nested sequence;
``gamma_z`` the k extra-coordinate values.
Both kinds take a flat base row x, q then (over Q x R^k) z: ``_inside(x)`` tests
the domain, and the point over x is q, ``_coeffs(x)``, then z (:func:`_lifted`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .errors import ContractError, DomainError, ShapeError
from .geometry import ChartSpec, DarbouxPoint, _floats, _whole

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
    """``count`` uniform samples from the product of the given intervals, which must be finite."""
    if not _whole(count, 0):
        raise ContractError(f"sample count must be an integer >= 0, got {count!r}")
    bounds = _floats(bounds, ContractError, "sampling box must be (d, 2) lo/hi bounds, got {!r}", bounds)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ContractError(f"sampling box must be (d, 2) lo/hi bounds, got shape {bounds.shape}")
    if not np.all(np.isfinite(bounds)):
        raise ContractError(f"sampling box bounds must be finite, got {bounds.tolist()}")
    lo, hi = bounds[:, 0], bounds[:, 1]
    return lo + (hi - lo) * rng.random((count, bounds.shape[0]))


def default_box(d: int, half_width: float = 1.0):
    return [(-half_width, half_width)] * d


def _sample_rows(samples, dim: int) -> np.ndarray:
    """Sample points as an (m, dim) float array: one row or rows of ``dim`` numbers."""
    pts = np.atleast_2d(_floats(samples, ContractError, "samples must be rows of numbers of one width"))
    if pts.ndim != 2:
        raise ContractError(f"samples must be one row or rows of numbers, got shape {pts.shape}")
    if pts.shape[1] != dim:
        raise ContractError(f"sample rows or sampling box intervals number {pts.shape[1]}, "
                            f"the check samples {dim} coordinates")
    return pts


def _sized(x, name: str, dim: str, size: int) -> list:
    """A caller's ``x`` as a list of floats, refused by ``name`` unless it is the chart's ``dim`` numbers."""
    x = _floats(x, ShapeError, name + " must be numbers, got {!r}", x).reshape(-1).tolist()
    if len(x) != size:
        raise ShapeError(f"{name} has {len(x)} entries, the chart needs {dim} = {size}")
    return x


def _mat(rows, k, n):
    out = [list(r) if hasattr(r, "__len__") else [r] for r in rows]
    if len(out) != k or any(len(r) != n for r in out):
        raise ShapeError(f"section coefficients must form a {k} x {n} block")
    return out


@dataclass(frozen=True)
class SectionZInd:
    """A section over Q: q -> (q, gamma_p(q), gamma_z(q))."""

    chart: ChartSpec
    gamma_p: callable
    gamma_z: callable
    domain: callable = None
    name: str = ""

    _base = property(lambda self: ("n", self.chart.n))  # the name and dimension of the base Q

    def in_domain(self, q) -> bool:
        return self.domain is None or bool(self.domain(q))

    _inside = in_domain  # the flat base row is q

    def p_at(self, q):
        return _mat(self.gamma_p(q), self.chart.k, self.chart.n)

    def z_at(self, q):
        return list(self.gamma_z(q))

    def _coeffs(self, x) -> list:  # the flat momentum coefficients, then the z-values
        return _flat(self.p_at(x)) + list(self.z_at(x))

    def at(self, q) -> DarbouxPoint:
        return _point(self, _sized(q, "q", "n", self.chart.n))


@dataclass(frozen=True)
class SectionZDep:
    """A section over Q x R^k: (q, z) -> (q, gamma_p(q, z), z)."""

    chart: ChartSpec
    gamma_p: callable
    domain: callable = None
    name: str = ""

    _base = property(lambda self: ("n+k", self.chart.n + self.chart.k))  # of the base Q x R^k

    def in_domain(self, q, z) -> bool:
        return self.domain is None or bool(self.domain(q, z))

    def _inside(self, x) -> bool:
        return self.in_domain(x[:self.chart.n], x[self.chart.n:])

    def p_at(self, q, z):
        return _mat(self.gamma_p(q, z), self.chart.k, self.chart.n)

    def _coeffs(self, x) -> list:  # the flat momentum coefficients
        return _flat(self.p_at(x[:self.chart.n], x[self.chart.n:]))

    def at(self, q, z) -> DarbouxPoint:
        return _point(self, _sized(q, "q", "n", self.chart.n) + _sized(z, "z", "k", self.chart.k))


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


def _lifted(gamma, x) -> list:
    """The flat point (q, p, z) of ``gamma`` over the flat base row ``x`` (numbers, duals or
    lanes): q, the section's coefficients, then the z of ``x`` (over Q x R^k only)."""
    x, n = list(x), gamma.chart.n
    return x[:n] + gamma._coeffs(x) + x[n:]


def _point(gamma, x) -> DarbouxPoint:
    """The point of ``gamma`` over the flat base row ``x`` (numbers or lanes): the domain test,
    then :func:`_lifted`, whose length :meth:`DarbouxPoint.from_flat` checks against the chart."""
    x = list(x)
    if not gamma._inside(x):
        raise DomainError(f"base point outside domain of section {gamma.name}")
    return DarbouxPoint.from_flat(gamma.chart, _lifted(gamma, x))


def _coeff_jacobian(gamma, x):
    """The section coefficients (``_coeffs``) at the flat base row ``x`` and their Jacobian
    rows in ``x``, in one dual pass.  Returns ``(vals, rows)`` as :func:`kcontact.dual.jacobian`
    does; entries stay dual-capable when ``x`` carries duals of an enclosing pass.
    """
    return dm.jacobian(gamma._coeffs, list(x))


def _domain_rows(gamma, pts: np.ndarray, fn):
    """The sample rows inside the domain of ``gamma`` (all of them, unchecked, when
    it declares none), and ``fn`` on each of them through :func:`kcontact.dual._rows`.

    An error of the domain predicate is raised after the errors of ``fn`` on
    the rows before it, as one loop over the rows would meet them.
    """
    used, late = pts, None
    if gamma.domain is not None:
        keep = []
        for row in pts:
            try:
                if gamma._inside(row):
                    keep.append(row)
            except Exception as exc:  # noqa: BLE001 - raised below, in row order
                late = exc
                break
        used = np.array(keep).reshape(-1, pts.shape[1])
    out = dm._rows(fn, used)
    if late is not None:
        raise late
    return used, out


def _sup_gap(gamma, pts: np.ndarray, row_gaps) -> float:
    """Max |entry| of ``row_gaps(row)`` over the sample rows inside the domain of
    ``gamma`` (NaN if an entry is NaN, 0.0 without a row)."""
    _, gaps = _domain_rows(gamma, pts, row_gaps)
    return float(np.max(np.abs(gaps), initial=0.0))


def _holonomy_gaps(gamma: SectionZInd, q) -> list:
    """gamma_p - d(gamma_z)/dq at one base row (floats or lanes), row-major."""
    k, n = gamma.chart.k, gamma.chart.n
    vals, rows = _coeff_jacobian(gamma, q)
    return [vals[a * n + i] - rows[k * n + a][i] for a in range(k) for i in range(n)]


def _symmetry_gaps(gamma: SectionZDep, qz, corrected: bool) -> list:
    """A - A^T of every component a at one (q, z) row (floats or lanes), where
    A[i][j] = d gamma_j^a / d q^i, plus gamma_i^b * d gamma_j^a / d z^b summed
    over b when ``corrected``."""
    k, n = gamma.chart.k, gamma.chart.n
    vals, rows = _coeff_jacobian(gamma, qz)

    def A(a, i, j):
        acc = rows[a * n + j][i]
        for b in range(k if corrected else 0):
            acc = acc + vals[b * n + i] * rows[a * n + j][n + b]
        return acc

    return [A(a, i, j) - A(a, j, i) for a in range(k) for i in range(n) for j in range(n)]


def check_holonomic(gamma: SectionZInd, samples) -> float:
    """Max defect |gamma_p - d(gamma_z)/dq| over the sample points (NaN if one is NaN).

    Zero defect means the momentum coefficients are the derivatives of the
    extra-coordinate functions, i.e. the section is a first-prolongation
    graph; its image is then tangent to the kernel of the structure forms.
    """
    return _sup_gap(gamma, _sample_rows(samples, gamma.chart.n), lambda q: _holonomy_gaps(gamma, q))


def check_max_coisotropic(gamma: SectionZDep, samples) -> float:
    """Max defect of the symmetric compatibility condition over samples (NaN if one is NaN).

    The condition compares, for every component a and index pair (i, j),
    the q-derivative of the coefficients corrected by z-derivatives along
    the section; for n = 1 it is vacuous and the defect is identically 0.
    """
    pts = _sample_rows(samples, gamma.chart.n + gamma.chart.k)
    if gamma.chart.n == 1:
        return 0.0
    return _sup_gap(gamma, pts, lambda qz: _symmetry_gaps(gamma, qz, corrected=True))


def check_isotropic_slices(gamma: SectionZDep, z, samples) -> float:
    """Max antisymmetry defect of the q-derivatives at the fixed slice ``z`` (NaN if one is NaN)."""
    message = "slice z must be k = {} finite numbers, got {!r}"
    zs = _floats(z, ContractError, message, gamma.chart.k, z)
    if zs.shape != (gamma.chart.k,) or not np.all(np.isfinite(zs)):
        raise ContractError(message.format(gamma.chart.k, z))
    q = _sample_rows(samples, gamma.chart.n)
    if gamma.chart.n == 1:
        return 0.0
    qz = np.hstack([q, np.tile(zs, (len(q), 1))])
    return _sup_gap(gamma, qz, lambda row: _symmetry_gaps(gamma, row, corrected=False))
