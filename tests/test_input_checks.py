"""Input checks of the grids, integration, lift, residual, section, gauge, point and
complete-family entry points."""

import dataclasses
import re

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus
from kcontact.grids import BaseField, BaseMap, GridSpec, SolutionMap
from kcontact.hj import CompleteVerification, HJReport
from kcontact.sections import sample_box

CH12 = kc.ChartSpec(1, 2)
GRID = GridSpec([0.0, 0.0], [0.1, 0.1], [3, 4])
GRID3 = GridSpec([0.0] * 3, [0.1] * 3, [3] * 3)
FIELD = BaseField(dim=1, comps=[lambda x: [x[0]], lambda x: [0.5 * x[0]]])


def _tel():
    ex = corpus.load("telegrapher")
    return ex.hamiltonian(), ex.sections["classical-zind"].build(dict(ex.sections["classical-zind"].defaults))


def _zdep():
    ex = corpus.load("hunter-saxton")
    entry = ex.sections["zdep-quadratic"]
    return entry.build(dict(entry.defaults))


def _tel_map(grid):
    return corpus.analytic("telegrapher", "exponential", grid=grid)


def _tel_family():
    return corpus.load("telegrapher").families["complete"]({"lambda": 1.0})


def _gauge(block, slot):
    """A gauge element on CH12 with a single unit entry at ``slot`` of ``block`` of component 0."""
    kt = kc.KTangent.zero(CH12)
    getattr(kt.comp[0], block)[slot] = 1.0
    return kc.GaugeElement(CH12, kt)


def _zdep_gauge_shape():
    ex = corpus.load("hunter-saxton")
    return kc.hj_zdep_residual(ex.hamiltonian(), _zdep(), kc.GaugeMatrix(lambda q, z: np.eye(3)),
                               samples=[[0.1, 0.2, 0.3]])


def _ragged_gauge_projection():
    ex = corpus.load("telegrapher")
    entry = ex.sections["zdep-family"]
    C = kc.GaugeMatrix(lambda q, z: [[0.0, 0.0], [0.0]])  # the second row is short
    return kc.project_zdep(ex.hamiltonian(), entry.build(dict(entry.defaults)), C).eval(1, [0.1, 0.2, 0.3])


def _flat_gauge_projection():
    ex = corpus.load("telegrapher")
    entry = ex.sections["zdep-family"]
    C = kc.GaugeMatrix(lambda q, z: [1.0, 0.0])  # numbers in place of rows
    return kc.project_zdep(ex.hamiltonian(), entry.build(dict(entry.defaults)), C).eval(1, [0.1, 0.2, 0.3])


def _cut_zdep(name="cut"):
    """A section over Q x R^2 whose domain holds no point."""
    return kc.SectionZDep(CH12, lambda q, z: [[0.0], [z[0]]], domain=lambda q, z: False, name=name)


def _q0(pt):
    return pt.q[0]


def _cut_h():
    """The telegrapher Hamiltonian on a domain that holds no point."""
    h = _tel()[0]
    return kc.ScalarField(h.chart, h.fn, domain=lambda pt: False, name="cut")


def _membrane_zdep_no_diagonal_solution():
    # momenta constant in z: every diagonal entry d vanishes, while xi = kappa u + lambda p^t = 5
    ch13 = kc.ChartSpec(1, 3)
    gamma = kc.SectionZDep(ch13, lambda q, z: [[1.0], [0.0], [0.0]])
    return kc.solve_diagonal_C(corpus.load("membrane").hamiltonian(), gamma, "evolution", [1.0], [0.0] * 3)


def _hs_log_zind():
    entry = corpus.load("hunter-saxton").sections["log-zind"]
    return entry.build(dict(entry.defaults))


def _hs_noncommuting(tolerances=None):
    """hunter-saxton noncommuting-zind in evolution mode, on its simulate grid and start."""
    ex = corpus.load("hunter-saxton")
    entry = ex.sections["noncommuting-zind"]
    P, sim = dict(entry.defaults), entry.sim
    h = ex.hamiltonian({k: v for k, v in P.items() if k in ex.defaults})
    return kc.end_to_end(h, entry.build(P), "evolution", GridSpec(sim["origin"], sim["spacing"], sim["counts"]),
                         sim["start"], box=entry.box, tolerances=tolerances)


def _tel_zdep_family():
    ex = corpus.load("telegrapher")
    entry = ex.sections["zdep-family"]
    return ex.hamiltonian(), entry.build(dict(entry.defaults))


def _zdep22():
    return kc.SectionZDep(kc.ChartSpec(2, 2), lambda q, z: [[q[0], q[1]], [z[0], q[0] * z[1]]])


def _tel_projection():
    return kc.project_Q(*_tel())


def _tolerance(name, value):
    return kc.ContractError, re.escape(f"tolerance {name} must be a real number >= 0, got {value!r}")


def _sample_rows_error(call, samples, message):
    return lambda: call(samples), kc.ContractError, message


def _fibre(**options):
    return kc.invert_fibre_derivative(_tel()[0], [1.0], [0.0, 0.0], [[0.3], [0.4]], [[0.0], [0.0]], **options)


def _integer(name, value):
    return kc.ContractError, re.escape(f"{name} must be an integer >= 0, got {value!r}")


CASES = {
    "grid lengths": (lambda: GridSpec([0.0, 0.0], [0.1], [3, 3]),
                     kc.ShapeError, "inconsistent lengths"),
    "grid spacing": (lambda: GridSpec([0.0], [0.0], [3]), kc.ShapeError, "spacing must be positive"),
    "grid origin not finite": (lambda: GridSpec([np.nan, 0.0], [0.1, 0.1], [3, 3]),
                               kc.ContractError, "origin and spacing must be finite"),
    "grid spacing not finite": (lambda: GridSpec([0.0, 0.0], [np.inf, 0.1], [3, 3]),
                                kc.ContractError, "origin and spacing must be finite"),
    "grid counts": (lambda: GridSpec([0.0, 0.0], [0.1, 0.1], [2, 50]), kc.ShapeError, "at least 3 nodes"),
    "solution map chart": (lambda: SolutionMap.from_function(CH12, GRID3, None),
                           kc.ShapeError, "grid has 3 directions, chart has k=2"),
    "closed solution map chart": (lambda: corpus.closed_solution_map(CH12, GRID3, None),
                                  kc.ShapeError, "grid has 3 directions, chart has k=2"),
    "section components": (lambda: kc.integral_section(FIELD, [1.0], GRID3),
                           kc.ContractError, "field has 2 components, grid has 3 directions"),
    "section start": (lambda: kc.integral_section(FIELD, [1.0, 2.0], GRID),
                      kc.ContractError, r"start point has shape \(2,\)"),
    "lift over Q": (lambda: kc.lift(_tel()[1], BaseMap(GRID, np.zeros(GRID.shape + (2,)))),
                    kc.ContractError, "base map dimension 2 does not match n=1"),
    "lift over Q x R^k": (lambda: kc.lift(_zdep(), BaseMap(GRID, np.zeros(GRID.shape + (1,)))),
                          kc.ContractError, "base map dimension 1 does not match n\\+k=3"),
    "map residual chart": (lambda: kc.map_residual(_tel_map(GRID), corpus.load("membrane").hamiltonian()),
                           kc.ShapeError, "chart does not match"),
    "second-order grid": (lambda: kc.second_order_residual(_tel()[0], BaseMap(GRID3, np.ones((3, 3, 3, 1)))),
                          kc.ShapeError, "base grid has 3 directions, chart has k=2"),
    "second-order dimension": (lambda: kc.second_order_residual(_tel()[0], BaseMap(GRID, np.ones((3, 4, 2)))),
                               kc.ShapeError, "base map has dimension 2, chart has n=1"),
    "section start not finite": (lambda: kc.integral_section(FIELD, [np.inf], GRID),
                                 kc.ContractError, r"start point must be finite, got \[inf\]"),
    "sampling box not finite": (lambda: sample_box([(np.nan, 1.0)], 3, np.random.default_rng(0)),
                                kc.ContractError, "sampling box bounds must be finite"),
    "section coefficient block": (
        lambda: kc.SectionZInd(CH12, gamma_p=lambda q: [[q[0]]], gamma_z=lambda q: [0.0, 0.0]).p_at([0.5]),
        kc.ShapeError, "section coefficients must form a 2 x 1 block"),
    "gauge matrix shape": (_zdep_gauge_shape, kc.ContractError, r"gauge matrix has shape \(3, 3\)"),
    "ragged gauge matrix in a projection": (_ragged_gauge_projection, kc.ContractError,
                                            "gauge matrix is not a 2 x 2 array of numbers"),
    "gauge numbers in place of rows in a projection": (_flat_gauge_projection, kc.ContractError,
                                                       "gauge matrix is not a 2 x 2 array of numbers"),
    "gauge element components": (lambda: kc.GaugeElement(CH12, kc.KTangent.zero(kc.ChartSpec(1, 3))),
                                 kc.ShapeError, "wrong number of components"),
    "gauge element q-block": (lambda: _gauge("q", 0), kc.ContractError, "zero q-blocks"),
    "gauge element trace": (lambda: _gauge("p", (0, 0)), kc.ContractError, "traces must vanish"),
    "flat point length": (lambda: kc.DarbouxPoint.from_flat(CH12, [0.0] * 3),
                          kc.ShapeError, "flat point has length 3, chart needs 5"),
    "flat k-tangent shape": (lambda: kc.KTangent.from_flat(CH12, np.zeros(3)),
                             kc.ShapeError, r"flat k-tangent has shape \(3,\), chart needs \(10,\)"),
    "chi components": (lambda: kc.chi(CH12, kc.DarbouxPoint.from_flat(CH12, [0.0] * 5),
                                      kc.KTangent.zero(kc.ChartSpec(1, 3))),
                       kc.ShapeError, "k-tangent has 3 components, chart needs 2"),
    "chi blocks": (lambda: kc.chi(CH12, kc.DarbouxPoint.from_flat(CH12, [0.0] * 5),
                                  kc.KTangent([kc.Tangent.zero(kc.ChartSpec(2, 2))] * 2)),
                   kc.ShapeError, "component blocks do not fit the chart"),
    "complete family parameter count": (
        lambda: kc.verify_complete(dataclasses.replace(_tel_family(), param_box=((0.0, 1.0),)),
                                   _tel()[0], "standard", np.zeros((1, 1)), count=5),
        kc.ContractError, "needs k\\*n = 2 parameters, this one declares 1"),
    "complete family row length": (
        lambda: kc.verify_complete(_tel_family(), _tel()[0], "standard", np.zeros((2, 3)), count=5),
        kc.ContractError, "family takes 2 parameters, got rows of length 3"),
    "section start beyond the blow-up guard": (lambda: kc.integral_section(FIELD, [-1e300], GRID),
                                               kc.ContractError, "exceeds the blow-up guard 1e\\+09"),
    "sampling box width": (lambda: kc.hj_classical_zind(*_tel(), box=[(0.5, 1.0), (0.0, 1.0)], count=5),
                           kc.ContractError, "intervals number 2, the check samples 1 coordinates"),
    "sample width": (lambda: kc.hj_zdep_residual(corpus.load("hunter-saxton").hamiltonian(), _zdep(),
                                                 kc.GaugeMatrix(lambda q, z: np.eye(2)), samples=[[0.1, 0.2]]),
                     kc.ContractError, "intervals number 2, the check samples 3 coordinates"),
    "complete family without slices": (
        lambda: kc.verify_complete(_tel_family(), _tel()[0], "standard", np.empty((0, 2)), count=5),
        kc.ContractError, "no parameter rows"),
    "flat sampling box": (lambda: kc.hj_classical_zind(*_tel(), box=[0.5, 2.0], count=5),
                          kc.ContractError, r"sampling box must be \(d, 2\) lo/hi bounds, got shape \(2,\)"),
    "sampling box row without a hi bound": (
        lambda: kc.hj_classical_zind(*_tel(), box=[[0.5]], count=5),
        kc.ContractError, r"sampling box must be \(d, 2\) lo/hi bounds, got shape \(1, 1\)"),
    "ragged sampling box": (lambda: kc.hj_classical_zind(*_tel(), box=[[0.5, 2.0], [1.0]], count=5),
                            kc.ContractError, r"sampling box must be \(d, 2\) lo/hi bounds, got \[\[0.5, 2.0\], \[1.0\]\]"),
    "ragged samples": (lambda: kc.hj_classical_zind(*_tel(), samples=[[0.5], [0.6, 0.7]]),
                       kc.ContractError, "samples must be rows of numbers of one width"),
    "diagonal gauge system without a solution, k = 3": (
        _membrane_zdep_no_diagonal_solution, kc.NoSolutionError,
        "diagonal gauge-matrix system has no solution at this point"),
    "projected field outside the section domain": (
        lambda: kc.project_zdep(corpus.load("hunter-saxton").hamiltonian(), _cut_zdep(),
                                kc.GaugeMatrix(lambda q, z: np.eye(2))).comps[0]([0.5, 0.0, 0.0]),
        kc.DomainError, r"projected field evaluated outside the section domain at \[0.5\], \[0.0, 0.0\]"),
    "projected field outside the section domain at a numpy row": (
        lambda: kc.project_zdep(corpus.load("hunter-saxton").hamiltonian(), _cut_zdep(),
                                kc.GaugeMatrix(lambda q, z: np.eye(2))).comps[0](np.array([0.5, 0.0, 0.0])),
        kc.DomainError, r"projected field evaluated outside the section domain at \[0.5\], \[0.0, 0.0\]$"),
    "z-derivative of h outside the field domain": (
        lambda: kc.gamma_beta(_cut_h(), _zdep(), [0.5], [0.0, 0.0]),
        kc.DomainError, "point outside declared domain of field cut"),
    "z-dependent section point outside its domain": (lambda: _cut_zdep().at([0.5], [0.0, 0.0]),
                                                     kc.DomainError, "base point outside domain of section cut"),
    "field value outside its domain": (lambda: _cut_h()(kc.DarbouxPoint.from_flat(CH12, [0.0] * 5)),
                                       kc.DomainError, "point outside declared domain of field cut"),
    "unnamed field value outside its domain": (
        lambda: kc.ScalarField(CH12, _q0, domain=lambda pt: False)(kc.DarbouxPoint.from_flat(CH12, [0.0] * 5)),
        kc.DomainError, re.escape(f"point outside declared domain of field {_q0!r}")),
    "unknown map residual mode": (lambda: kc.map_residual(_tel_map(GRID), _tel()[0], mode="nope"),
                                  kc.ContractError, "unknown mode 'nope'"),
    "no admissible sample for the affinity check": (
        lambda: kc.second_order_residual(_cut_h(), BaseMap(GRID, np.ones(GRID.shape + (1,)))),
        kc.ContractError, "no admissible sample points for the affinity check"),
    "monotone inversion without a bracket": (lambda: corpus._monotone_invert(lambda r: r, -1.0),
                                             kc.ContractError, "could not bracket the target value"),
    # the domain test runs on the float root, before the zero slope at r -> 0 is divided by
    "logarithmic closed form at the edge of its section domain": (
        lambda: corpus.analytic("hunter-saxton", "logarithmic", {"C": -0.5}),
        kc.DomainError, "base point outside domain of section hs-log-zind"),
    "sample count below zero": (lambda: kc.hj_classical_zind(*_tel(), count=-1),
                                kc.ContractError, "sample count must be an integer >= 0, got -1"),
    "fractional sample count": (lambda: kc.hj_classical_zind(*_tel(), count=2.5),
                                kc.ContractError, "sample count must be an integer >= 0, got 2.5"),
    "no sample points": (lambda: kc.hj_classical_zind(*_tel(), count=0),
                         kc.ContractError, "no admissible sample points inside the section domain"),
    "sampling seed below zero": (lambda: kc.hj_classical_zind(*_tel(), seed=-1),
                                 kc.ContractError, "sampling seed must be None or an integer >= 0, got -1"),
    "samples with three axes": (lambda: kc.hj_classical_zind(*_tel(), samples=np.ones((2, 1, 1))),
                                kc.ContractError, r"samples must be one row or rows of numbers, got shape \(2, 1, 1\)"),
    "complete family sample count below zero": (
        lambda: kc.verify_complete(_tel_family(), _tel()[0], "standard", np.zeros((1, 2)), count=-1),
        kc.ContractError, "sample count must be an integer >= 0, got -1"),
    "end-to-end sample count below zero": (
        lambda: kc.end_to_end(*_tel(), "standard", GRID, [1.0], hj_count=-1),
        kc.ContractError, r"^\[stage hj\] sample count must be an integer >= 0, got -1"),
    "sampling box count below zero": (lambda: sample_box([(0.0, 1.0)], -1, np.random.default_rng(0)),
                                      kc.ContractError, "sample count must be an integer >= 0, got -1"),
    # a bool is an int to Python but no count: each refused by name, not by numpy's TypeError
    "boolean sample count": (lambda: kc.hj_classical_zind(*_tel(), count=True), *_integer("sample count", True)),
    "boolean sampling box count": (lambda: sample_box([(0.0, 1.0)], False, np.random.default_rng(0)),
                                   *_integer("sample count", False)),
    "complete family boolean sample count": (
        lambda: kc.verify_complete(_tel_family(), _tel()[0], "standard", np.zeros((1, 2)), count=True),
        *_integer("sample count", True)),
    "end-to-end boolean sample count": (
        lambda: kc.end_to_end(*_tel(), "standard", GRID, [1.0], hj_count=True),
        kc.ContractError, r"^\[stage hj\] sample count must be an integer >= 0, got True"),
    "boolean sampling seed": (lambda: kc.hj_classical_zind(*_tel(), seed=True),
                              kc.ContractError, "sampling seed must be None or an integer >= 0, got True"),
    "boolean steps per cell": (lambda: kc.integral_section(FIELD, [1.0], GRID, steps_per_cell=True),
                               kc.ContractError, "steps_per_cell must be an integer >= 1, got True"),
    "fractional fibre iteration count": (lambda: _fibre(max_iter=2.5), *_integer("max_iter", 2.5)),
    "boolean fibre iteration count": (lambda: _fibre(max_iter=True), *_integer("max_iter", True)),
    "negative fibre iteration count": (lambda: _fibre(max_iter=-1), *_integer("max_iter", -1)),
    "negative fibre tolerance": (lambda: _fibre(tol=-1), *_tolerance("tol", -1)),
    "NaN fibre tolerance": (lambda: _fibre(tol=np.nan), *_tolerance("tol", np.nan)),
    "negative regularity tolerance": (
        lambda: kc.check_regularity(_tel()[0], kc.DarbouxPoint([0.3], [[0.1], [0.2]], [0.0, 0.0]), rtol=-1),
        *_tolerance("rtol", -1)),
    "evolution lift tolerance as text": (
        lambda: kc.evolution_lift(_tel()[0], kc.canonical_kvf(_tel()[0], "evolution"), check_tol="x"),
        *_tolerance("check_tol", "x")),
    "grid without a direction": (lambda: GridSpec([], [], []), kc.ShapeError,
                                 r"grids need one node count per direction, at least one, got \[\]"),
    "fractional grid counts": (lambda: GridSpec([0.0, 0.0], [0.1, 0.1], [3.5, 4]), kc.ShapeError,
                               r"grid node counts must be whole numbers, got \[3.5, 4\]"),
    "fractional chart size": (lambda: kc.ChartSpec(1.5, 2), kc.ShapeError,
                              "chart needs integer n and k, got n=1.5, k=2"),
    "chart size as text": (lambda: kc.ChartSpec("1", 2), kc.ShapeError,
                           "chart needs integer n and k, got n='1', k=2"),
    "no steps per cell": (lambda: kc.integral_section(FIELD, [1.0], GRID, steps_per_cell=0),
                          kc.ContractError, "steps_per_cell must be an integer >= 1, got 0"),
    "lift with every node outside the section domain": (
        lambda: kc.lift(_hs_log_zind(), BaseMap(GRID, np.full(GRID.shape + (1,), -1.0))),
        kc.DomainError, "base point outside domain of section hs-log-zind"),
    "NaN order tolerance on a direction-order failure": (
        lambda: _hs_noncommuting({"order": float("nan")}), *_tolerance("'order'", float("nan"))),
    "hj tolerance as text": (lambda: kc.end_to_end(*_tel(), "standard", GRID, [1.0], tolerances={"hj": "x"}),
                             *_tolerance("'hj'", "x")),
    "order tolerance None": (lambda: kc.end_to_end(*_tel(), "standard", GRID, [1.0], tolerances={"order": None}),
                             *_tolerance("'order'", None)),
    "negative residual tolerance": (
        lambda: kc.end_to_end(*_tel(), "standard", GRID, [1.0], tolerances={"residual": -1e-6}),
        *_tolerance("'residual'", -1e-6)),
    "boolean hj tolerance": (lambda: kc.end_to_end(*_tel(), "standard", GRID, [1.0], tolerances={"hj": True}),
                             *_tolerance("'hj'", True)),
    "NaN order_tol of an integral section": (lambda: kc.integral_section(FIELD, [1.0], GRID, order_tol=np.nan),
                                             *_tolerance("order_tol", np.nan)),
    "complete family residual tolerance as text": (
        lambda: kc.verify_complete(_tel_family(), _tel()[0], "standard", np.zeros((1, 2)), count=5, res_tol="x"),
        *_tolerance("res_tol", "x")),
    "complete family NaN round-trip tolerance": (
        lambda: kc.verify_complete(_tel_family(), _tel()[0], "standard", np.zeros((1, 2)), count=5,
                                   rt_tol=np.nan),
        *_tolerance("rt_tol", np.nan)),
    "complete family parameters as text": (
        lambda: kc.verify_complete(_tel_family(), _tel()[0], "standard", "abc", count=5),
        kc.ContractError, "parameters must be rows of numbers of one width"),
    "holonomy check without a sample row": _sample_rows_error(
        lambda x: kc.check_holonomic(_tel()[1], x), [], "intervals number 0, the check samples 1 coordinates"),
    "holonomy check on text": _sample_rows_error(
        lambda x: kc.check_holonomic(_tel()[1], x), "abc", "samples must be rows of numbers of one width"),
    "holonomy check on three-axis samples": _sample_rows_error(
        lambda x: kc.check_holonomic(_tel()[1], x), [[[0.5]]],
        r"samples must be one row or rows of numbers, got shape \(1, 1, 1\)"),
    "holonomy check on rows of the wrong width": _sample_rows_error(
        lambda x: kc.check_holonomic(_tel()[1], x), [[0.5, 0.6]],
        "intervals number 2, the check samples 1 coordinates"),
    "coisotropy check on three-axis samples": _sample_rows_error(
        lambda x: kc.check_max_coisotropic(_tel_zdep_family()[1], x), [[[0.5, 0.1, 0.2]]],
        r"samples must be one row or rows of numbers, got shape \(1, 1, 3\)"),
    "isotropy check on ragged samples": _sample_rows_error(
        lambda x: kc.check_isotropic_slices(_tel_zdep_family()[1], [0.0, 0.0], x), [[0.5], [0.6, 0.7]],
        "samples must be rows of numbers of one width"),
    "isotropy check on a slice of one number for k = 2": (
        lambda: kc.check_isotropic_slices(_zdep22(), [0.0], [[0.1, 0.2]]),
        kc.ContractError, re.escape("slice z must be k = 2 finite numbers, got [0.0]")),
    "isotropy check on a text slice": (
        lambda: kc.check_isotropic_slices(_zdep22(), "ab", [[0.1, 0.2]]),
        kc.ContractError, "slice z must be k = 2 finite numbers, got 'ab'"),
    "isotropy check on a slice beyond the float range": (
        lambda: kc.check_isotropic_slices(_zdep22(), [10 ** 400, 0.0], [[0.1, 0.2]]),
        kc.ContractError, "slice z must be k = 2 finite numbers, got"),
    "isotropy check on a NaN slice at n = 1": (  # refused before the n = 1 answer
        lambda: kc.check_isotropic_slices(_tel_zdep_family()[1], [0.0, np.nan], [[0.5]]),
        kc.ContractError, re.escape("slice z must be k = 2 finite numbers, got [0.0, nan]")),
    "HJ verdict with a text tolerance": (lambda: HJReport("standard", 0.0, 1).verdict("1e-9"),
                                         *_tolerance("tol", "1e-9")),
    "HJ verdict with a NaN tolerance": (lambda: HJReport("standard", 0.0, 1).verdict(np.nan),
                                        *_tolerance("tol", np.nan)),
    "complete-family verdict with a text residual tolerance": (
        lambda: CompleteVerification("standard", 0.0, 0.0, 1, 1, [], []).passed("1e-9"),
        *_tolerance("res_tol", "1e-9")),
    "complete-family verdict with a NaN round-trip tolerance": (
        lambda: CompleteVerification("standard", 0.0, 0.0, 1, 1, [], []).passed(1e-9, np.nan),
        *_tolerance("rt_tol", np.nan)),
    "commutator defect without a sample row": _sample_rows_error(
        lambda x: kc.commutator_defect(_tel_projection(), x), [],
        "intervals number 0, the check samples 1 coordinates"),
    "commutator defect on three-axis samples": _sample_rows_error(
        lambda x: kc.commutator_defect(_tel_projection(), x), [[[0.5]]],
        r"samples must be one row or rows of numbers, got shape \(1, 1, 1\)"),
    "commutator defect on text": _sample_rows_error(
        lambda x: kc.commutator_defect(_tel_projection(), x), "abc", "samples must be rows of numbers of one width"),
    "fibre inversion target of the wrong shape": (
        lambda: kc.invert_fibre_derivative(_tel()[0], [1.0], [0.0, 0.0], [0.3, 0.4], [[0.0], [0.0]]),
        kc.ShapeError, re.escape("v must be a (k, n) = (2, 1) array of numbers, got [0.3, 0.4]")),
    "fibre inversion start of the wrong shape": (
        lambda: kc.invert_fibre_derivative(_tel()[0], [1.0], [0.0, 0.0], [[0.3], [0.4]], np.zeros((1, 2))),
        kc.ShapeError, r"p_init must be a \(k, n\) = \(2, 1\) array of numbers"),
    "fibre inversion start that is ragged": (
        lambda: kc.invert_fibre_derivative(_tel()[0], [1.0], [0.0, 0.0], [[0.3], [0.4]], [[0.0], [0.0, 1.0]]),
        kc.ShapeError, r"p_init must be a \(k, n\) = \(2, 1\) array of numbers"),
    "z-dependent check without a gauge": (
        lambda: kc.hj_zdep_residual(*_tel_zdep_family(), None),
        kc.ContractError, "gauge matrix must be a GaugeMatrix, got NoneType"),
    "z-dependent check with a bare function as gauge": (
        lambda: kc.hj_zdep_residual(*_tel_zdep_family(), lambda q, z: [[0.0, 0.0], [0.0, 0.0]]),
        kc.ContractError, "gauge matrix must be a GaugeMatrix, got function"),
    "projection without a gauge": (lambda: kc.project_zdep(*_tel_zdep_family(), None),
                                   kc.ContractError, "gauge matrix must be a GaugeMatrix, got NoneType"),
    "projection with a bare function as gauge": (
        lambda: kc.project_zdep(*_tel_zdep_family(), lambda q, z: [[0.0, 0.0], [0.0, 0.0]]),
        kc.ContractError, "gauge matrix must be a GaugeMatrix, got function"),
}


@pytest.mark.parametrize("case", CASES)
def test_input_check_raises(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()


def test_a_direction_order_failure_raises_under_the_default_order_tolerance():
    # the case a NaN order tolerance used to pass (see CASES): the corpus's exit-5 simulate run
    with pytest.raises(kc.IntegrabilityError, match="direction-order check failed"):
        _hs_noncommuting()
    assert _hs_noncommuting({"order": np.inf}).passed  # inf switches the check off on purpose


@pytest.mark.parametrize("check", ["holonomic", "coisotropic", "isotropic", "commutator"])
def test_zero_sample_rows_of_the_right_width_give_zero(check):
    zdep = kc.SectionZDep(kc.ChartSpec(2, 2), lambda q, z: [[q[0], q[1]], [z[0], q[0] * z[1]]])  # n = 2
    call = {"holonomic": lambda: kc.check_holonomic(_tel()[1], np.empty((0, 1))),
            "coisotropic": lambda: kc.check_max_coisotropic(zdep, np.empty((0, 4))),
            "isotropic": lambda: kc.check_isotropic_slices(zdep, [0.0, 0.0], np.empty((0, 2))),
            "commutator": lambda: kc.commutator_defect(_tel_projection(), np.empty((0, 1)))}[check]
    assert call() == 0.0
