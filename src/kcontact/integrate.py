"""Integral sections of commuting direction fields and the solution pipeline.

Integral sections are built by composing one-parameter flows direction by
direction (classic fourth-order one-step integration).  When the component
fields commute the result does not depend on the direction order; the far
corner of every sweep is re-integrated with the directions reversed and
the two endpoints must agree, which turns integrability into a runtime
assertion.

The grid lines of one sweep direction are independent, so they advance
together as the lanes of one pass through :func:`kcontact.dual._rows`; the
node table of an integrated map and the points and node table of a lift are
filled the same way, each by the stage that makes the map.  Whenever the lanes
cannot take them together, the rows run one by one, which gives the scalar
values or error.
One RK4 step per direction (:func:`_rk4_step`) is recorded at the start point
and replayed on every line and on the reversed corner path
(:func:`kcontact.dual._program`).  It is recorded from the recording of the
direction's evaluation, replayed at its four stage points, so the field's dual
passes run once, not four times; where a test there answers otherwise, the step
is recorded directly, and without an evaluation program it runs unrecorded.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import dual as dm
from .errors import ContractError, DivergenceError, IntegrabilityError, KContactError
from .fields import ScalarField
from .geometry import _check_tol, _floats, _whole
from .grids import BaseField, BaseMap, GridSpec, SolutionMap
from .hdw import ResidualGrid, map_residual
from .hj import DEFAULT_SAMPLES, GaugeMatrix, _check, project_Q, project_zdep
from .sections import _coeff_jacobian, _point, _sample_rows

__all__ = [
    "commutator_defect",
    "integral_section",
    "lift",
    "end_to_end",
    "EndToEndReport",
    "DEFAULT_TOLERANCES",
]

BLOWUP_GUARD = 1e9
ORDER_TOL = 1e-8
COMMUTATOR_WARN = 1e-6

DEFAULT_TOLERANCES = {
    "hj": 1e-8,
    "residual": 1e-6,
    "order": ORDER_TOL,
}


def commutator_defect(f: BaseField, samples) -> float:
    """Max pairwise Lie-bracket norm of the component fields over samples (NaN if one is NaN).

    Brackets are assembled from exact (dual-number) Jacobians as
    J_b Z_a - J_a Z_b; a zero value on a region is the integrability
    criterion for the flow composition below.
    """
    def jacobian_and_value(a, x):  # the Jacobian rows of component a at x, then its value
        vals, rows = dm.jacobian(lambda y: list(f._at(a, y)), list(x))
        return rows + [vals]

    X = _sample_rows(samples, f.dim)
    if not len(X):
        return 0.0
    JZ = [dm._rows(partial(jacobian_and_value, a), X) for a in range(f.k)]  # one pass each
    worst = 0.0
    for a in range(f.k):
        for b in range(a + 1, f.k):
            bracket = JZ[b][:, :-1] @ JZ[a][:, -1, :, None] - JZ[a][:, :-1] @ JZ[b][:, -1, :, None]
            worst = dm._vmax(worst, float(np.max(np.abs(bracket))))
    return worst


def _rk4_step(f: BaseField, axis: int, dt: float, x) -> list:
    """One RK4 step of component ``axis`` of ``f``: four evaluations, the update and the guard."""
    try:
        k1 = f.eval(axis, x)
        k2 = f.eval(axis, [v + 0.5 * dt * d for v, d in zip(x, k1)])
        k3 = f.eval(axis, [v + 0.5 * dt * d for v, d in zip(x, k2)])
        k4 = f.eval(axis, [v + dt * d for v, d in zip(x, k3)])
        x = [v + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(x, k1, k2, k3, k4)]
    except FloatingPointError:  # a numpy float row overflowed (see kcontact.dual._scalar_rows)
        x = [np.nan]
    if not all(dm._mag(v) <= BLOWUP_GUARD for v in x):  # also when not finite
        raise DivergenceError(f"flow along direction {axis} exceeded the blow-up guard")
    return x


def _integrate_path(f: BaseField, x0, legs, steps_per_cell: int, steps=None) -> np.ndarray:
    x = np.asarray(x0, dtype=float)
    for axis, h, cells in legs:
        step = steps[axis] if steps else partial(_rk4_step, f, axis, h / steps_per_cell)
        for _ in range(cells * steps_per_cell):
            x = step(x)
    return np.asarray(x, dtype=float)


def _sweep(step, values: np.ndarray, axis: int, steps_per_cell: int) -> None:
    """Fill the grid lines of direction ``axis`` from their first nodes by ``step`` (an RK4
    step or its program), all lines in one :func:`kcontact.dual._rows` pass."""
    k, dim = values.ndim - 1, values.shape[-1]
    lead, tail = (slice(None),) * axis, (0,) * (k - axis - 1)
    cells = values.shape[axis] - 1
    starts = values[lead + (0,) + tail]

    def line(x):  # the state after every cell, from one point as floats or many as lanes
        states = []
        for _ in range(cells):
            for _ in range(steps_per_cell):
                x = step(x)
            states.append(x)
        return states

    lines = dm._rows(line, starts.reshape(-1, dim))
    values[lead + (slice(1, None),) + tail] = lines.reshape(starts.shape[:-1] + (cells, dim))


def integral_section(
    f: BaseField,
    start,
    grid: GridSpec,
    steps_per_cell: int = 4,
    order_tol: float = ORDER_TOL,
) -> BaseMap:
    """Integral section of ``f`` over ``grid`` starting from ``start``.

    Directions are swept in index order; the far corner is recomputed with
    the directions reversed and both endpoints must agree within
    ``order_tol`` (:class:`IntegrabilityError` otherwise).  A commutator
    defect above the advisory threshold is recorded in the output notes,
    not fatal; a start point that is not finite, or ``steps_per_cell`` other than
    an integer >= 1, raises :class:`ContractError`.  The result is node data: the
    values, the field on every node as its node table, computed here, and no closed
    form (a map rebuilt from its parts differences its nodes).
    """
    k = grid.k
    if f.k != k:
        raise ContractError(f"field has {f.k} components, grid has {k} directions")
    if not _whole(steps_per_cell, 1):
        raise ContractError(f"steps_per_cell must be an integer >= 1, got {steps_per_cell!r}")
    _check_tol("order_tol", order_tol)
    start = _floats(start, ContractError, "start point must be numbers, got {!r}", start)
    if start.shape != (f.dim,):
        raise ContractError(f"start point has shape {start.shape}, field lives on dimension {f.dim}")
    if not np.all(np.isfinite(start)):
        raise ContractError(f"start point must be finite, got {start.tolist()}")
    if np.max(np.abs(start)) > BLOWUP_GUARD:
        raise ContractError(f"start point {start.tolist()} exceeds the blow-up guard {BLOWUP_GUARD:.0e}")
    defect = commutator_defect(f, [start])
    above = "" if defect <= COMMUTATOR_WARN else f" above {COMMUTATOR_WARN:.1e}"
    notes = [f"commutator defect {defect:.3e}{above} at the start point"]

    # One step per direction, recorded at the start, which begins the first line of every
    # direction, and replayed on every line of the sweeps and of the reversed corner path.
    evals = [dm._program(partial(f.eval, a), start) for a in range(k)]
    steps = [partial(_rk4_step, f, a, grid.spacing[a] / steps_per_cell) for a in range(k)]
    steps = [ev and (dm._program(partial(_rk4_step, BaseField(f.dim, evals), *s.args[1:]), start)
                     or dm._program(s, start)) or s for ev, s in zip(evals, steps)]
    values = np.empty(grid.shape + (f.dim,))
    values[(0,) * k] = start
    for axis in range(k):
        _sweep(steps[axis], values, axis, steps_per_cell)

    # The reversed path's first leg (direction k-1 from the start) is the
    # forward sweep's first line of that direction, so it starts from there.
    legs = [(a, grid.spacing[a], grid.counts[a] - 1) for a in range(k)][::-1][1:]
    corner_fwd = values[tuple(c - 1 for c in grid.counts)]
    corner_rev = _integrate_path(f, values[(0,) * (k - 1) + (-1,)], legs, steps_per_cell, steps)
    gap = float(np.max(np.abs(corner_fwd - corner_rev)))
    if gap > order_tol:
        raise IntegrabilityError(
            f"direction-order check failed: corner endpoints differ by {gap:.3e}"
        )
    notes.append(f"direction-order corner agreement {gap:.3e}")

    # Node values satisfy the flow equations, so the field itself provides
    # the direction derivatives at grid nodes (no difference stencils).
    sigma = BaseMap(grid, values, notes=notes)
    sigma._table = dm._rows(lambda x: [f.eval(a, x) for a in range(k)],
                            values.reshape(-1, f.dim)).reshape(grid.shape + (k, f.dim))
    sigma._commutator = defect  # read by end_to_end, which reports it
    return sigma


def lift(gamma, sigma: BaseMap) -> SolutionMap:
    """Compose a base map with a section to get a phase-space candidate map.

    One rule for sections over Q (base dimension n) and over Q x R^k (n + k): the
    point over a base value x is q, the section coefficients at x, then the z of x, once x
    passes the domain test (:func:`kcontact.sections._point`, as ``.at`` does).  The result
    is node data without a closed form.
    A base map with a node table or a closed derivative gives it a node table, computed
    here from the base derivatives dx and the coefficient Jacobians J at the stored base
    values: the q of dx, J dx, then the z of dx.  All nodes run in batched passes.
    """
    chart, grid = gamma.chart, sigma.grid
    name, d = gamma._base
    if sigma.d != d:
        raise ContractError(f"base map dimension {sigma.d} does not match {name}={d}")

    X = sigma.values.reshape(-1, d)
    q, p, z = chart.split(dm._rows(lambda x: _point(gamma, x).flat(), X).reshape(grid.shape + (chart.dim,)))
    psi = SolutionMap(chart, grid, *map(np.ascontiguousarray, (q, p, z)), notes=list(sigma.notes))
    if sigma._table is not None or sigma.closed_derivative is not None:
        dx, n = sigma.derivatives(), chart.n
        J = dm._rows(lambda x: _coeff_jacobian(gamma, x)[1], X).reshape(grid.shape + (-1, d))
        Jdx = np.einsum("...cj,...bj->...bc", J, dx)
        psi._table = chart.split(np.concatenate([dx[..., :n], Jdx, dx[..., n:]], axis=-1))
    return psi


@dataclass
class EndToEndReport:
    """Consolidated outcome of the check -> project -> integrate -> lift -> residual pipeline."""

    mode: str
    passed: bool
    failed_stage: str = None
    hj_report: object = None
    commutator: float = None
    residuals: ResidualGrid = None
    compare_error: float = None
    solution: SolutionMap = None
    notes: list = field(default_factory=list)

    def summary(self) -> dict:
        out = {
            "mode": self.mode,
            "passed": self.passed,
            "failed_stage": self.failed_stage,
            "commutator_defect": self.commutator,
            "notes": list(self.notes),
        }
        if self.hj_report is not None:
            out["hj_sup_residual"] = self.hj_report.sup_residual
            out["hj_samples"] = self.hj_report.sample_count
        if self.residuals is not None:
            out.update(self.residuals.summary())
        if self.compare_error is not None:
            out["compare_error"] = self.compare_error
        return out


@contextmanager
def _tagged(stage):
    try:
        yield
    except KContactError as exc:
        exc.stage = stage
        exc.args = (f"[stage {stage}] {exc.args[0] if exc.args else ''}",) + exc.args[1:]
        raise


def end_to_end(
    h: ScalarField,
    gamma,
    mode: str,
    grid: GridSpec,
    start,
    C: GaugeMatrix = None,
    hj_samples=None,
    box=None,
    hj_count: int = DEFAULT_SAMPLES,
    reference=None,
    tolerances: dict = None,
    steps_per_cell: int = 4,
    seed: int = 0,
) -> EndToEndReport:
    """Full pipeline for one section: residual check, projection, flow
    integration, lift, and field-equation residuals of the lifted map.

    ``reference``, when given, is a closed-form base map (t -> base point)
    compared against the integrated one in the ``compare`` stage, which refuses one of
    another dimension with :class:`ContractError`.  ``tolerances`` overrides entries
    of :data:`DEFAULT_TOLERANCES`: ``hj`` (sup HJ residual), ``residual``
    (map residual) and ``order`` (direction-order check); any other key
    raises :class:`ContractError`.  Failures of the residual checks
    produce a FAIL report naming the stage; structural errors raise, with
    the stage recorded on the exception.  A NaN residual fails its check,
    and a NaN at any node makes ``compare_error`` NaN.
    """
    unknown = sorted(set(tolerances or {}) - set(DEFAULT_TOLERANCES))
    if unknown:
        raise ContractError(f"unknown tolerance keys {unknown}; known: {sorted(DEFAULT_TOLERANCES)}")
    for name, value in (tolerances or {}).items():
        _check_tol(repr(name), value)
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    report = EndToEndReport(mode=mode, passed=False)

    with _tagged("hj"):
        rep, C = _check(h, gamma, mode, C, samples=hj_samples, box=box, count=hj_count, seed=seed)
    report.hj_report = rep
    if not rep.sup_residual <= tol["hj"]:
        report.failed_stage = "hj"
        report.notes.append(
            f"hj residual {rep.sup_residual:.3e} exceeds tolerance {tol['hj']:.1e}"
        )
        return report

    with _tagged("project"):
        base_field = project_Q(h, gamma) if C is None else project_zdep(h, gamma, C)

    with _tagged("integrate"):
        sigma = integral_section(f=base_field, start=start, grid=grid,
                                 steps_per_cell=steps_per_cell, order_tol=tol["order"])
    report.commutator = sigma._commutator
    report.notes.extend(sigma.notes)

    with _tagged("lift"):
        psi = lift(gamma, sigma)
    report.solution = psi

    with _tagged("residual"):
        res = map_residual(psi, h, mode=mode)
    report.residuals = res
    if not res.max() <= tol["residual"]:
        report.failed_stage = "residual"
        report.notes.append(f"map residual {res.max():.3e} exceeds tolerance {tol['residual']:.1e}")
        return report

    if reference is not None:
        with _tagged("compare"):
            ref = BaseMap.from_function(grid, reference)
            if ref.d != sigma.d:
                raise ContractError(f"reference has dimension {ref.d}, the integrated base map {sigma.d}")
        report.compare_error = float(np.max(np.abs(sigma.values - ref.values)))

    report.passed = True
    return report
