"""Hamilton-Jacobi residual checks for sections of the phase-space bundle.

Four checks are provided, one per combination of section kind and mode:

  * sections over Q (holonomic):  sup |h on section|          (standard)
                                  sup |d_q (h on section)|    (evolution)
  * sections over Q x R^k:        the corrected one-form identity with a
                                  k x k gauge matrix whose trace is
                                  -(h on section) (standard) or 0 (evolution).

"Identically zero" is replaced by sup-norms over declared sample boxes
(default [-1, 1]^dim, 500 points); all four checks share one sweep that
admits the samples inside the section domain and reports the sup and the
worst offenders.  The diagonal gauge-matrix solver (n = 1, any k) takes the
minimum-norm diagonal whose sum the trace fixes and whose weighted sum the
uncorrected residual fixes; duals and lanes pass through its plain arithmetic.
Each z-dependent sample evaluates the section and h once (:func:`_zdep_ingredients`).

The sweeps and the section and round-trip checks of :func:`verify_complete`
evaluate all admitted samples together through :func:`kcontact.dual._rows`,
which runs them one by one, with the scalar values or the scalar error and
its offending sample, whenever the lanes cannot take them together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import dual as dm
from .errors import ContractError, DomainError, NoSolutionError
from .fields import ScalarField, _p_grad
from .geometry import _check_tol, _floats, _whole
from .grids import BaseField
from .hdw import _check_mode
from .sections import (
    SectionZDep,
    SectionZInd,
    _coeff_jacobian,
    _domain_rows,
    _flat,
    _lifted,
    _sample_rows,
    _sized,
    check_holonomic,
    check_max_coisotropic,
    default_box,
    sample_box,
)

__all__ = [
    "HJReport",
    "GaugeMatrix",
    "CompleteSolutionFamily",
    "CompleteVerification",
    "project_Q",
    "project_zdep",
    "hj_classical_zind",
    "hj_evolution_zind",
    "gamma_beta",
    "hj_zdep_residual",
    "solve_diagonal_C",
    "diagonal_gauge_matrix",
    "verify_complete",
]

HOLONOMY_TOL = 1e-10
COISO_TOL = 1e-10
TRACE_TOL_STANDARD = 1e-10
TRACE_TOL_EVOLUTION = 1e-12
DEFAULT_SAMPLES = 500
_WORST_KEPT = 3  # worst offenders a report lists


@dataclass
class HJReport:
    """Outcome of one Hamilton-Jacobi residual sweep."""

    mode: str
    sup_residual: float
    sample_count: int
    worst: list = field(default_factory=list)  # (residual, base point) pairs, largest first
    seed: int = None

    def verdict(self, tol: float) -> str:
        _check_tol("tol", tol)
        return "PASS" if self.sup_residual <= tol else "FAIL"

    def summary(self) -> dict:
        return {"samples": self.sample_count, "sup_residual": self.sup_residual,
                "worst": [{"residual": r, "point": list(pt)} for r, pt in self.worst]}


@dataclass(frozen=True)
class GaugeMatrix:
    """A k x k matrix of functions on Q x R^k entering the z-dependent check.

    ``fn(q, z)`` returns the matrix ``C`` with ``C[a][b]`` multiplying the
    z^b-derivative of the a-th momentum coefficient row.  The mode's trace
    constraint is verified by :func:`hj_zdep_residual`, not here.
    """

    fn: callable

    def __call__(self, q, z):
        return self.fn(q, z)


def _resolve_samples(samples, box, dim, count, seed):
    if seed is not None and not _whole(seed, 0):
        raise ContractError(f"sampling seed must be None or an integer >= 0, got {seed!r}")
    if samples is not None:
        return _sample_rows(samples, dim), None
    return _sample_rows(sample_box(box if box is not None else default_box(dim), count,
                                   np.random.default_rng(seed)), dim), seed


def _top_offenders(values, points):
    order = np.argsort(values)[::-1][:_WORST_KEPT]
    return [(float(values[i]), tuple(float(x) for x in points[i])) for i in order]


def _sweep(label, pts, seed, gamma, residual) -> HJReport:
    """One residual per sample row inside the domain of ``gamma``; their sup and worst offenders.

    ``residual`` takes a row of floats or of lanes (see :func:`kcontact.dual._rows`).
    """
    used, vals = _domain_rows(gamma, pts, residual)
    if not len(used):
        raise ContractError("no admissible sample points inside the section domain")
    return HJReport(label, float(np.max(vals)), len(used), _top_offenders(vals, used), seed)


def _holonomic_samples(h: ScalarField, gamma: SectionZInd, samples, box, count, seed):
    """The base samples of a check over Q, once the section is known to be holonomic on them."""
    pts, seed = _resolve_samples(samples, box, h.chart.n, count, seed)
    defect = check_holonomic(gamma, pts)
    if not defect <= HOLONOMY_TOL:
        raise ContractError(f"section is not holonomic (defect {defect:.3e})")
    return pts, seed


def _h_on_section(h: ScalarField, gamma, x):
    """h at the point of ``gamma`` over the flat base row ``x`` (numbers, duals or lanes)."""
    return h._at_flat(_lifted(gamma, x))


def _project(h: ScalarField, gamma, C: GaugeMatrix = None) -> BaseField:
    """The k projected component fields of ``h`` along ``gamma`` on its flat base rows:
    component a is the momentum-gradient row U_a of h on the section, then, with a gauge
    matrix ``C`` (over Q x R^k), the z-blocks ``sum_j p_j^b U_a^j + C_a^b``.  The diagonal
    gauge of this ``h`` and ``gamma`` gives p and U with its entries (:func:`_gauged`)."""
    n, k = gamma.chart.n, gamma.chart.k

    def comp(alpha, x):
        x = list(x)
        if not gamma._inside(x):
            at = [dm.value(v) for v in x]
            raise DomainError("projected field evaluated outside the section domain at "
                              + (f"{at}" if C is None else f"{at[:n]}, {at[n:]}"))
        if C is not None and _solved(h, gamma, C):
            Cm, ing = _gauged(h, gamma, C, x[:n], x[n:])
            p, U = _flat(ing[3]), ing[5][alpha]
        else:
            pt = _lifted(gamma, x)
            p = pt[n:n + k * n]
            U = _p_grad(h, pt[:n], pt[n + k * n:], p)[alpha * n:(alpha + 1) * n]
            if C is None:
                return U
            Cm = C(x[:n], x[n:])
        _gauge_shape(Cm, k)
        zblocks = []
        for b in range(k):
            acc = Cm[alpha][b]
            for j in range(n):
                acc = acc + p[b * n + j] * U[j]
            zblocks.append(acc)
        return list(U) + zblocks

    return BaseField(dim=gamma._base[1], comps=[partial(comp, a) for a in range(k)])


def project_Q(h: ScalarField, gamma: SectionZInd) -> BaseField:
    """The k projected component fields on Q induced by ``h`` along ``gamma``.

    Component a at q is the momentum-gradient row a of ``h`` evaluated on
    the section.  Every solution of the pointwise field equations for
    ``h`` has exactly these q-blocks, so the projection does not depend on
    the representative.
    """
    return _project(h, gamma)


def hj_classical_zind(
    h: ScalarField,
    gamma: SectionZInd,
    samples=None,
    box=None,
    count: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> HJReport:
    """sup |h on section| over the samples (section must be holonomic)."""
    pts, seed = _holonomic_samples(h, gamma, samples, box, count, seed)
    return _sweep("classical-zind", pts, seed, gamma,
                  lambda q: dm._mag(_h_on_section(h, gamma, q)))


def hj_evolution_zind(
    h: ScalarField,
    gamma: SectionZInd,
    samples=None,
    box=None,
    count: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> HJReport:
    """sup-norm of the exact q-gradient of (h on section) over the samples."""
    pts, seed = _holonomic_samples(h, gamma, samples, box, count, seed)

    def residual(q):
        _, g = dm.derive1(lambda qs: _h_on_section(h, gamma, qs), list(q))
        return dm._vmax(*(dm._mag(x) for x in g))

    return _sweep("evolution-zind", pts, seed, gamma, residual)


def gamma_beta(h: ScalarField, gamma: SectionZDep, q, z) -> np.ndarray:
    """Derivative of h along the section images of the z-coordinate fields.

    Component b is (dh/dz^b on the section) plus the momentum gradient of
    h contracted with the z^b-derivatives of the section coefficients.
    """
    gamma.at(q, z)  # the sizes of q and z and the section's domain; h's is tested where h runs
    return np.array([float(x) for x in _zdep_ingredients(h, gamma, q, z)[2]])


def _zdep_ingredients(h: ScalarField, gamma: SectionZDep, q, z):
    """Shared pieces of the z-dependent identity at one base point.

    Returns (h value on section, d_q(h on section), Gamma, section
    coefficients, z-Jacobian of the coefficients, momentum-gradient rows U
    of h on the section); everything is dual-capable in (q, z).  One pass gives the coefficients
    and their Jacobian, one h and its gradient at the section point; the chain rule joins them.
    """
    n, k = gamma.chart.n, gamma.chart.k
    flat, rows = _coeff_jacobian(gamma, list(q) + list(z))
    hval, g = dm.derive1(h._at_flat, list(q) + flat + list(z))
    U = [g[n + a * n:n + (a + 1) * n] for a in range(k)]
    d = []
    for c in range(n + k):  # q^c, then z^(c - n)
        acc = g[c if c < n else n + k * n + (c - n)]  # h's own entry, then through each p_i^a
        for j in range(k * n):  # j = a * n + i
            acc = acc + g[n + j] * rows[j][c]
        d.append(acc)
    p = [flat[a * n:(a + 1) * n] for a in range(k)]
    dz_p = [[[rows[a * n + i][n + b] for b in range(k)] for i in range(n)] for a in range(k)]
    return hval, d[:n], d[n:], p, dz_p, U


def _zdep_residual_at(gamma, C_entries, ing):
    """Max over j of the z-dependent identity residual from one point's ingredients."""
    n, k = gamma.chart.n, gamma.chart.k
    _, dq_h, Gamma, p, dz_p, _ = ing
    worst = 0.0
    for j in range(n):
        acc = dq_h[j]
        for b in range(k):
            acc = acc + Gamma[b] * p[b][j]
        for a in range(k):
            for b in range(k):
                acc = acc + C_entries[a][b] * dz_p[a][j][b]
        worst = dm._vmax(worst, dm._mag(acc))
    return worst


def _gauge_type(C) -> None:
    if not isinstance(C, GaugeMatrix):
        raise ContractError(f"gauge matrix must be a GaugeMatrix, got {type(C).__name__}")


def _gauge_shape(Cm, k: int) -> None:
    """Refuse a gauge matrix of floats, lanes or duals that is not k rows of k entries."""
    try:
        widths = [len(row) for row in Cm]
    except TypeError:  # a number, or numbers in place of rows
        widths = None
    if widths and widths != [k] * k and len(set(widths)) == 1:  # rows of one width
        raise ContractError(f"gauge matrix has shape {(len(widths), widths[0])}, expected {(k, k)}")
    if widths != [k] * k:
        raise ContractError(f"gauge matrix is not a {k} x {k} array of numbers")


def _gauge_floats(Cm, k: int):
    """The gauge matrix as k rows of floats or lane values, checked for shape, and its
    diagonal summed left to right from 0 (a sum numpy takes pairwise from 8 entries on)."""
    _gauge_shape(Cm, k)
    try:
        rows = [[dm._cmp_value(c) for c in row] for row in Cm]
    except (TypeError, ValueError):  # entries that are not numbers
        raise ContractError(f"gauge matrix is not a {k} x {k} array of numbers") from None
    return rows, sum(rows[a][a] for a in range(k))


def _where(row):
    return tuple(round(float(x), 6) for x in row)


def hj_zdep_residual(
    h: ScalarField,
    gamma: SectionZDep,
    C: GaugeMatrix,
    mode: str = "standard",
    samples=None,
    box=None,
    count: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> HJReport:
    """sup residual of the z-dependent identity with the supplied gauge matrix.

    Preconditions: the section satisfies the symmetric compatibility
    condition, and the trace of ``C`` matches the mode (-(h on section)
    for standard, 0 for evolution) at every sample.
    """
    _check_mode(mode)
    _gauge_type(C)
    chart = gamma.chart
    n, k = chart.n, chart.k
    pts, seed = _resolve_samples(samples, box, n + k, count, seed)
    defect = check_max_coisotropic(gamma, pts)
    if not defect <= COISO_TOL:
        raise ContractError(f"section is not maximally coisotropic (defect {defect:.3e})")

    def residual(row):
        Cm, ing = _gauged(h, gamma, C, row[:n], row[n:])
        Cm, tr = _gauge_floats(Cm, k)
        res, hval = _zdep_residual_at(gamma, Cm, ing), dm._cmp_value(ing[0])
        if mode == "standard":
            if not abs(tr + hval) <= TRACE_TOL_STANDARD:
                raise ContractError(
                    f"gauge matrix trace {tr:.6e} != -(h on section) {-hval:.6e} at {_where(row)}"
                )
        else:
            if not abs(tr) <= TRACE_TOL_EVOLUTION:
                raise ContractError(f"gauge matrix trace {tr:.6e} != 0 at {_where(row)}")
        return res

    return _sweep(f"{'classical' if mode == 'standard' else 'evolution'}-zdep", pts, seed, gamma,
                  residual)


def _check(h: ScalarField, gamma, mode: str, C: GaugeMatrix = None, **sampling):
    """The HJ check of ``gamma`` in ``mode`` and the gauge matrix it used (None over Q).

    A z-level section without ``C`` uses the diagonal gauge; a section over
    Q takes none.
    """
    _check_mode(mode)
    if isinstance(gamma, SectionZInd):
        if C is not None:
            raise ContractError("a gauge matrix applies to sections over Q x R^k only, "
                                "this section is over Q")
        check = hj_classical_zind if mode == "standard" else hj_evolution_zind
        return check(h, gamma, **sampling), None
    C = C if C is not None else diagonal_gauge_matrix(h, gamma, mode)
    return hj_zdep_residual(h, gamma, C, mode=mode, **sampling), C


def _diag_C_generic(h: ScalarField, gamma: SectionZDep, mode: str, q, z):
    """Diagonal gauge-matrix entries at one base point of numbers, duals or lanes (n = 1 only):
    the minimum-norm c with sum c_a = s and sum d_a c_a = -xi, c_a = s/k + beta (d_a - dbar) (at
    k = 2 in closed form), and the point's :func:`_zdep_ingredients` they were solved from."""
    n, k = gamma.chart.n, gamma.chart.k
    if n != 1:
        raise ContractError("the diagonal gauge-matrix solver covers the n = 1 regime only")
    ing = _zdep_ingredients(h, gamma, q, z)
    hval, dq_h, Gamma, p, dz_p, _ = ing
    s = -hval if mode == "standard" else 0.0
    xi = dq_h[0]
    for b in range(k):
        xi = xi + Gamma[b] * p[b][0]
    d = [dz_p[a][0][a] for a in range(k)]
    # per lane under lanes; lanes that take different branches fall back
    scale = dm._vmax(1.0, dm._mag(xi), dm._vmax(*(dm._mag(x) for x in d)))
    if all(dm._mag(d[0] - x) <= 1e-12 * scale for x in d[1:]):  # the two rows are parallel
        if k > 1 and not dm._mag(s * d[0] + xi) <= 1e-9 * scale:
            raise NoSolutionError("diagonal gauge-matrix system is singular and inconsistent at this point")
        return [s / k] * k, ing
    if k == 2:
        c0 = (-xi - s * d[1]) / (d[0] - d[1])
        return [c0, s - c0], ing
    dbar = sum(d) / k
    e = [x - dbar for x in d]
    beta = (-xi - s * dbar) / sum(x * x for x in e)
    return [s / k + beta * x for x in e], ing


def solve_diagonal_C(h: ScalarField, gamma: SectionZDep, mode: str, q, z) -> np.ndarray:
    """Diagonal gauge matrix solving the z-dependent identity at one point (n = 1, any k).

    The mode's trace constraint fixes the sum of the k diagonal entries and the
    uncorrected residual their weighted sum; the entries are the minimum-norm solution.
    """
    _check_mode(mode)
    entries, _ = _diag_C_generic(h, gamma, mode, _sized(q, "q", "n", gamma.chart.n),
                                 _sized(z, "z", "k", gamma.chart.k))
    return np.diag([float(c) for c in entries])


def _diag_matrix(entries):
    k = len(entries)
    return [[entries[a] if a == b else 0.0 for b in range(k)] for a in range(k)]


def _diag_rows(h, gamma, mode, q, z):
    return _diag_matrix(_diag_C_generic(h, gamma, mode, q, z)[0])


def diagonal_gauge_matrix(h: ScalarField, gamma: SectionZDep, mode: str) -> GaugeMatrix:
    """Gauge matrix backed by the pointwise diagonal solver (dual-capable, see :func:`_gauged`)."""
    _check_mode(mode)
    return GaugeMatrix(partial(_diag_rows, h, gamma, mode))


def _solved(h: ScalarField, gamma: SectionZDep, C: GaugeMatrix) -> bool:
    """Whether ``C`` is the diagonal gauge of this very ``h`` and ``gamma``."""
    fn = C.fn
    return isinstance(fn, partial) and fn.func is _diag_rows and fn.args[0] is h and fn.args[1] is gamma


def _gauged(h: ScalarField, gamma: SectionZDep, C: GaugeMatrix, q, z):
    """``C(q, z)`` and the point's :func:`_zdep_ingredients`, in that order; the entries of
    the diagonal gauge of ``h`` and ``gamma`` (:func:`_solved`) are solved from those
    ingredients instead, so each point builds them once."""
    if _solved(h, gamma, C):
        entries, ing = _diag_C_generic(h, gamma, C.fn.args[2], q, z)
        return _diag_matrix(entries), ing
    return C(q, z), _zdep_ingredients(h, gamma, q, z)


def project_zdep(h: ScalarField, gamma: SectionZDep, C: GaugeMatrix) -> BaseField:
    """The projected representative on Q x R^k selected by the gauge matrix.

    Component a has q-blocks equal to the momentum-gradient row a of h on
    the section and z-blocks ``sum_j gamma_j^b U_a^j + C_a^b``; integrating
    it and composing with the section reproduces candidate solutions of
    the field equations.
    """
    _gauge_type(C)
    return _project(h, gamma, C)


@dataclass(frozen=True)
class CompleteSolutionFamily:
    """A parameterised family of z-dependent sections forming a bundle chart.

    ``phi(q, lam, z)`` returns the phase-space point; ``phi_inverse``,
    when given, maps a point back to ``(q, lam, z)`` flat coordinates.
    ``param_box`` bounds the admissible parameters (one (lo, hi) pair per
    parameter; the z-dependent definition needs k*n of them).
    """

    chart: object
    phi: callable
    param_box: tuple
    phi_inverse: callable = None
    name: str = ""

    @property
    def param_dim(self) -> int:
        return len(self.param_box)

    def section_of(self, lam) -> SectionZDep:
        """The section at the parameters ``lam``, which must be ``param_dim`` finite real numbers."""
        message = "family {} takes {} finite real parameters, got {!r}"
        vals = _floats(lam, ContractError, message, self.name, self.param_dim, lam)
        if vals.shape != (self.param_dim,) or not np.all(np.isfinite(vals)):
            raise ContractError(message.format(self.name, self.param_dim, lam))
        lam = vals.tolist()

        def gamma_p(q, z):
            return self.phi(q, lam, z).p

        return SectionZDep(self.chart, gamma_p=gamma_p, name=f"{self.name}[{lam}]")


@dataclass
class CompleteVerification:
    """Aggregate of per-parameter Hamilton-Jacobi sweeps plus invertibility."""

    mode: str
    sup_residual: float
    sup_roundtrip: float
    param_count: int
    sample_count: int
    failures: list
    reports: list

    def passed(self, res_tol: float, rt_tol: float = 1e-12) -> bool:
        _check_tol("res_tol", res_tol)
        _check_tol("rt_tol", rt_tol)
        return not self.failures and self.sup_residual <= res_tol and self.sup_roundtrip <= rt_tol

    def summary(self) -> dict:
        return {"samples": self.sample_count, "parameter_count": self.param_count,
                "sup_residual": self.sup_residual, "sup_roundtrip": self.sup_roundtrip,
                "per_parameter": [{"parameters": list(lam), "sup_residual": rep.sup_residual}
                                  for lam, rep in self.reports],
                "failures": [list(map(str, f)) for f in self.failures]}


_SECTION_TOL = 1e-12  # largest |(q, z) of phi(q, lam, z) - (q, z)| of a section


def _roundtrip_errors(family: CompleteSolutionFamily, lam, n: int, row) -> list:
    """Section error of one sample row (floats or lanes), then the entries of its
    inverse round-trip error: zeros without an inverse or off the section, where
    ``phi_inverse`` does not run."""
    q, z, lam = list(row[:n]), list(row[n:]), list(lam)
    pt = family.phi(q, lam, z)
    sect = dm._vmax(*(dm._mag(a - b) for a, b in zip(list(pt.q) + list(pt.z), q + z)))
    ref = q + lam + z
    if family.phi_inverse is None or not sect <= _SECTION_TOL:
        return [sect] + [0.0] * len(ref)
    return [sect] + [a - b for a, b in zip(family.phi_inverse(pt), ref)]


def _roundtrip(family: CompleteSolutionFamily, lam, pts: np.ndarray, n: int):
    """Largest inverse round-trip error over the samples, and the first sample
    that ``phi`` does not send to its own (q, z), where the check stops (or None)."""
    errs = dm._rows(partial(_roundtrip_errors, family, lam, n), pts,
                    ok=lambda e: e[..., 0] <= _SECTION_TOL)
    rt = float(np.max(np.abs(errs[:, 1:]), initial=0.0))
    return rt, (None if errs[-1, 0] <= _SECTION_TOL else pts[len(errs) - 1])


def verify_complete(
    family: CompleteSolutionFamily,
    h: ScalarField,
    mode: str,
    params,
    base_samples=None,
    box=None,
    count: int = DEFAULT_SAMPLES,
    seed: int = 0,
    res_tol: float = 1e-10,
    rt_tol: float = 1e-12,
) -> CompleteVerification:
    """Check every parameter slice of a candidate complete solution.

    Each slice runs the z-dependent residual with the diagonal solver; the
    supplied inverse is round-trip-checked on the same base samples.
    ``params`` is an array of parameter tuples (one row per slice); failures
    and reports are keyed by a slice's parameters as a tuple of floats.  A NaN
    residual, round-trip or section error is a failure of its slice and makes
    the matching sup NaN; a slice that fails before its residual (a non-finite parameter row first)
    makes both sups NaN.  A row that overflows raises ShapeError (:func:`kcontact.dual._rows`), not a failure.
    """
    _check_mode(mode)
    _check_tol("res_tol", res_tol)
    _check_tol("rt_tol", rt_tol)
    chart = family.chart
    n, k = chart.n, chart.k
    if family.param_dim != k * n:
        raise ContractError(
            f"a complete family over the extended base needs k*n = {k * n} parameters, "
            f"this one declares {family.param_dim}"
        )
    params = np.atleast_2d(_floats(params, ContractError, "parameters must be rows of numbers of one width"))
    if params.shape[1] != family.param_dim:
        raise ContractError(
            f"family takes {family.param_dim} parameters, got rows of length {params.shape[1]}"
        )
    if not len(params):
        raise ContractError("no parameter rows to check")
    pts, seed = _resolve_samples(base_samples, box, n + k, count, seed)
    sup_res, sup_rt = 0.0, 0.0
    failures, reports = [], []
    for lam in params:
        key = tuple(float(x) for x in lam)
        try:
            if not np.all(np.isfinite(lam)):  # refused here, or the slice's check blames its gauge
                raise ContractError(f"parameters {key} are not finite")
            rep, _ = _check(h, family.section_of(lam), mode, samples=pts)
        except (ContractError, NoSolutionError) as exc:
            failures.append((key, str(exc)))
            sup_res = sup_rt = np.nan  # a slice without a residual leaves both sups unknown
            continue
        rt, off = _roundtrip(family, lam, pts, n)
        if off is not None:
            failures.append((key, f"family is not a section at {tuple(float(x) for x in off)}"))
        if not rep.sup_residual <= res_tol:
            failures.append((key, f"sup residual {rep.sup_residual:.3e} > {res_tol:.1e}"))
        if not rt <= rt_tol:
            failures.append((key, f"inverse round-trip error {rt:.3e} > {rt_tol:.1e}"))
        reports.append((key, rep))
        sup_res, sup_rt = dm._vmax(sup_res, rep.sup_residual), dm._vmax(sup_rt, rt)
    return CompleteVerification(
        mode=mode,
        sup_residual=sup_res,
        sup_roundtrip=sup_rt,
        param_count=params.shape[0],
        sample_count=len(pts),
        failures=failures,
        reports=reports,
    )
