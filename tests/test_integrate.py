"""Flow composition: commutators, integral sections, lifting, and the
end-to-end pipeline."""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcontact as kc
from kcontact import corpus
from kcontact import dual as dm
from kcontact.grids import BaseField, BaseMap, GridSpec
from kcontact.integrate import DEFAULT_TOLERANCES, _integrate_path, _rk4_step

CH12 = kc.ChartSpec(1, 2)


def scalar_field(*fns):
    return BaseField(dim=1, comps=[lambda x, f=f: [f(x[0])] for f in fns])


def _lane_eval(f, a, X):
    """``f.eval(a, x)`` for every row ``x`` of the (m, dim) array ``X``, in one lane pass."""
    return dm._lane_array(f.eval(a, dm._lanes_of(X)), X.shape[0])


# -- commutators ----------------------------------------------------------------

def test_commutator_proportional_slopes_commute(rng):
    c = 2.0
    f = scalar_field(lambda u: c * 0.7 * u, lambda u: -0.7 * u)
    samples = (2.0 * rng.random((20, 1)) - 1.0)
    assert kc.commutator_defect(f, samples) <= 1e-10


def test_commutator_nonconstant_ratio():
    # slopes u and 1 (with unit stiffness): bracket has size one on [0, 1]
    f = scalar_field(lambda u: u, lambda u: -1.0)
    samples = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
    assert kc.commutator_defect(f, samples) == pytest.approx(1.0)


def test_commutator_constant_fields(rng):
    f = BaseField(dim=3, comps=[lambda x: [1.0, 2.0, 3.0], lambda x: [-1.0, 0.5, 0.0]])
    samples = 2.0 * rng.random((10, 3)) - 1.0
    assert kc.commutator_defect(f, samples) == 0.0


# -- integral sections ------------------------------------------------------------

def per_point_commutator_defect(f, samples):
    """Reference: one Jacobian per component per sample, as a loop."""
    worst = 0.0
    for x in np.atleast_2d(np.asarray(samples, dtype=float)):
        vals, jacs = [], []
        for a in range(f.k):
            v, rows = dm.jacobian(lambda y, a=a: list(f.comps[a](y)), list(x))
            vals.append(np.asarray(v, dtype=float))
            jacs.append(np.asarray(rows, dtype=float))
        for a in range(f.k):
            for b in range(a + 1, f.k):
                bracket = jacs[b] @ vals[a] - jacs[a] @ vals[b]
                worst = dm._vmax(worst, float(np.max(np.abs(bracket))))
    return worst


def projected_fields():
    """(label, projected field) of every corpus section, with its gauge or the diagonal one."""
    for name in corpus.EXAMPLE_NAMES:
        ex = corpus.load(name)
        for key, entry in ex.sections.items():
            P = dict(entry.defaults)
            gamma, h = entry.build(P), ex.hamiltonian({k: v for k, v in P.items() if k in ex.defaults})
            if entry.kind == "zind":
                yield f"{name}/{key}", kc.project_Q(h, gamma)
            else:
                C = entry.gauge(P) if entry.gauge else kc.diagonal_gauge_matrix(h, gamma, "standard")
                yield f"{name}/{key}", kc.project_zdep(h, gamma, C)


def test_commutator_defect_matches_the_per_point_loop(rng):
    for label, f in projected_fields():
        X = rng.uniform(-0.5, 0.5, (40, f.dim))
        got, want = commutator_defect_outcome(f, X), per_point_outcome(f, X)
        assert got == want if isinstance(want, tuple) else np.array_equal(got, want, equal_nan=True), label
    # a NaN bracket at one sample is the sup
    f = BaseField(dim=2, comps=[lambda x: [1.0, 0.0], lambda x: [0.0, x[0] * x[1]]])
    X = np.array([[0.5, 1.0], [math.nan, 1.0], [2.0, 1.0]])
    assert math.isnan(kc.commutator_defect(f, X)) and math.isnan(per_point_commutator_defect(f, X))


def commutator_defect_outcome(f, X):
    return outcome(lambda: kc.commutator_defect(f, X))


def per_point_outcome(f, X):
    return outcome(lambda: per_point_commutator_defect(f, X))


def test_integral_section_zero_field():
    f = BaseField(dim=2, comps=[lambda x: [0.0, 0.0], lambda x: [0.0, 0.0]])
    grid = GridSpec([0, 0], [0.1, 0.1], [5, 5])
    sigma = kc.integral_section(f, [0.3, -0.7], grid)
    assert np.max(np.abs(sigma.values - np.array([0.3, -0.7]))) == 0.0


def test_integral_section_telegrapher_exponential():
    a, c, kappa, u0 = -2.0 / 3.0, 2.0, 1.0, 1.0
    f = scalar_field(lambda u: c * a * u, lambda u: -a / kappa * u)
    grid = GridSpec([0.0, 0.0], [0.02, 0.02], [50, 50])
    sigma = kc.integral_section(f, [u0], grid)
    err = 0.0
    for idx in grid.indices():
        t = grid.t(idx)
        err = max(err, abs(sigma.values[idx][0] - u0 * np.exp(a * (c * t[0] - t[1] / kappa))))
    assert err <= 1e-8


def test_integral_section_hs_linear_exact():
    mu, c = 3.0, 0.5
    f = scalar_field(lambda u: -2 * c * mu, lambda u: -2 * mu)
    grid = GridSpec([0.0, 0.0], [0.05, 0.05], [9, 9])
    sigma = kc.integral_section(f, [0.0], grid)
    for idx in grid.indices():
        t = grid.t(idx)
        assert sigma.values[idx][0] == pytest.approx(-2 * mu * (t[1] + c * t[0]), abs=1e-12)


def test_integral_section_records_commutator_note():
    f = scalar_field(lambda u: 1.0 + 0.5 * u * u, lambda u: 1.0)
    grid = GridSpec([0.0, 0.0], [0.01, 0.01], [4, 4])
    with pytest.raises(kc.IntegrabilityError):
        kc.integral_section(f, [0.4], grid)


def test_integral_section_divergence_guard():
    f = BaseField(dim=1, comps=[lambda x: [x[0] ** 2]])
    grid = GridSpec([0.0], [0.5], [7])
    with pytest.raises(kc.DivergenceError):
        kc.integral_section(f, [1.0], grid)


def test_flow_order_independence_k3():
    mats = [np.diag([0.3, -0.2, 0.1]), np.diag([-0.5, 0.4, 0.2]), np.diag([0.1, 0.1, -0.3])]
    f = BaseField(dim=3, comps=[lambda x, M=M: list(M @ np.asarray(x)) for M in mats])
    start = np.array([1.0, -1.0, 0.5])
    legs = [(a, 0.1, 4) for a in range(3)]
    ends = []
    for perm in itertools.permutations(range(3)):
        ends.append(_integrate_path(f, start, [legs[p] for p in perm], steps_per_cell=4))
    for e in ends[1:]:
        assert np.max(np.abs(e - ends[0])) <= 1e-8


def per_line_values(f, start, grid, steps_per_cell=4):
    """Reference: every grid line integrated on its own, one scalar evaluation at a time."""
    k = grid.k
    values = np.empty(grid.shape + (f.dim,))
    values[(0,) * k] = start
    for axis in range(k):
        dt = grid.spacing[axis] / steps_per_cell
        tail = (0,) * (k - axis - 1)
        for pre in np.ndindex(*grid.counts[:axis]):
            x = values[pre + (0,) + tail]
            for cell in range(1, grid.counts[axis]):
                for _ in range(steps_per_cell):
                    k1 = f.eval(axis, x)
                    k2 = f.eval(axis, x + 0.5 * dt * k1)
                    k3 = f.eval(axis, x + 0.5 * dt * k2)
                    k4 = f.eval(axis, x + dt * k3)
                    x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                values[pre + (cell,) + tail] = x
    return values


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the comparison is on type and message
        return type(exc), str(exc)


def counted(f):
    """``f`` with its component calls counted in ``calls[0]``."""
    calls = [0]

    def wrap(c):
        def comp(x):
            calls[0] += 1
            return c(x)

        return comp

    return BaseField(dim=f.dim, comps=[wrap(c) for c in f.comps]), calls


def test_k3_lane_sweep_matches_per_line_loop():
    # nonlinear fields that commute: coordinate j of component a is c_aj g_j(x_j)
    f = BaseField(dim=3, comps=[
        lambda x, c=c: [c[0] * x[0], c[1] * x[1] * x[1], c[2] * dm.cos(x[2])]
        for c in ((0.3, -0.2, 0.1), (-0.5, 0.4, 0.2), (0.1, 0.1, -0.3))
    ])
    grid = GridSpec([0.0, 0.0, 0.0], [0.1, 0.05, 0.2], [4, 5, 3])
    start = [1.0, -0.7, 0.5]
    fc, calls = counted(f)
    sigma = kc.integral_section(fc, start, grid)
    assert np.array_equal(sigma.values, per_line_values(f, start, grid))
    assert sigma.notes[-1].startswith("direction-order corner agreement")
    # one lane pass per stage for each sweep direction after the first
    per_line = sum(int(np.prod(grid.counts[:a])) * (grid.counts[a] - 1) * 16 for a in range(3))
    assert calls[0] < per_line / 3
    for idx in grid.indices():
        x = sigma.values[idx]
        want = np.stack([f.eval(a, x) for a in range(3)])
        assert np.array_equal(sigma.derivatives()[idx], want)


def test_k1_direction_order_corners_coincide():
    f = BaseField(dim=1, comps=[lambda x: [0.3 * x[0] * x[0] + 0.1]])
    sigma = kc.integral_section(f, [0.4], GridSpec([0.0], [0.1], [6]))
    assert sigma.notes[-1] == "direction-order corner agreement 0.000e+00"


def _fallback_case(case):
    """A field whose direction-1 lane pass fails, and the starts of its direction-1 lines."""
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [5, 4])
    axis0 = lambda x: [1.0, 0.0]  # noqa: E731 - moves s, so the lines start at s = 0, 0.1, ...
    starts = per_line_values(BaseField(dim=2, comps=[axis0, lambda x: [0.0, 0.0]]),
                             [0.0, 1.0], grid)[:, 0]
    s1, s2 = starts[1, 0], starts[2, 0]
    e2, cut = math.exp(s2), 0.5 * (s1 + s2)
    axis1 = {
        # the two branches agree in value but the lines take different ones
        "branch": lambda x: [0.0, 0.5 * x[1] if x[0] > cut else x[1] * 0.5],
        # line 2 divides by exactly zero
        "zero-divisor": lambda x: [0.0, 1.0 / (dm.exp(x[0]) - e2)],
        # lines 2.. take the square root of a negative number
        "sqrt-negative": lambda x: [0.0, dm.sqrt(cut - x[0])],
    }[case]
    return BaseField(dim=2, comps=[axis0, axis1]), grid, starts


@pytest.mark.parametrize("case", ["branch", "zero-divisor", "sqrt-negative"])
def test_failed_lane_pass_reproduces_the_scalar_path(case):
    f, grid, starts = _fallback_case(case)
    with pytest.raises(dm._Unbatchable):
        _lane_eval(f, 1, starts)
    got = outcome(lambda: kc.integral_section(f, [0.0, 1.0], grid).values)
    want = outcome(lambda: per_line_values(f, [0.0, 1.0], grid))
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want and want[0] in (ZeroDivisionError, ValueError)


def test_lanes_straddling_the_log_section_domain_fall_back():
    ex = corpus.load("hunter-saxton")
    entry = ex.sections["log-zind"]
    f = kc.project_Q(ex.hamiltonian(), entry.build(dict(entry.defaults)))
    # the lines of direction 1 start at u = 0.5 ... 0.34 and leave the domain
    # u > -1/2 one after another, so the lane pass meets a split domain test
    grid = GridSpec([0.0, 0.0], [0.01, 0.03], [5, 5])
    with pytest.raises(dm._Unbatchable):
        _lane_eval(f, 1, np.array([[-0.45], [-0.55]]))
    got = outcome(lambda: kc.integral_section(f, [0.5], grid))
    want = outcome(lambda: per_line_values(f, [0.5], grid))
    assert got == want and want[0] is kc.DomainError


def test_lift_lane_jacobians_match_scalar_jacobians():
    ex = corpus.load("telegrapher")
    entry = ex.sections["classical-zind"]
    gamma = entry.build(dict(entry.defaults))
    sigma = kc.integral_section(kc.project_Q(ex.hamiltonian(), gamma), [1.0],
                                GridSpec([0.0, 0.0], [0.02, 0.02], [6, 7]))
    lanes_d = kc.lift(gamma, sigma).derivatives()
    with mock.patch.object(dm, "_lanes", lambda fn, X: None):  # the per-node scalar Jacobians
        scalar_d = kc.lift(gamma, sigma).derivatives()
    for a, b in zip(lanes_d, scalar_d):
        assert np.array_equal(a, b)


def test_grid_axis_lists_the_node_coordinates():
    grid = GridSpec([0.0, 1.0], [0.5, 0.25], [3, 4])
    assert grid.axis(0).tolist() == [0.0, 0.5, 1.0]
    assert grid.axis(1).tolist() == [1.0, 1.25, 1.5, 1.75]
    assert all(grid.t(idx)[d] == grid.axis(d)[idx[d]] for idx in grid.indices() for d in range(2))


def test_fourth_order_convergence():
    # the composed RK4 flow is order 4: fitted over steps_per_cell 1, 2, 4 it reads 4.13
    # (the error falls 18x, then 17x per doubling)
    a, c, kappa, u0 = -2.0 / 3.0, 2.0, 1.0, 1.0
    f = scalar_field(lambda u: c * a * u, lambda u: -a / kappa * u)
    grid = GridSpec([0.0, 0.0], [0.2, 0.2], [6, 6])

    def max_err(steps):
        sigma = kc.integral_section(f, [u0], grid, steps_per_cell=steps, order_tol=1e-6)
        err = 0.0
        for idx in grid.indices():
            t = grid.t(idx)
            err = max(err, abs(sigma.values[idx][0] - u0 * np.exp(a * (c * t[0] - t[1] / kappa))))
        return err

    steps = [1, 2, 4]
    order = -np.polyfit(np.log(steps), np.log([max_err(s) for s in steps]), 1)[0]
    assert order == pytest.approx(4.0, abs=0.3)


# -- lift ---------------------------------------------------------------------------

def test_lift_telegrapher_blocks():
    ex = corpus.load("telegrapher")
    entry = ex.sections["classical-zind"]
    P = dict(entry.defaults)
    gamma = entry.build(P)
    a, c, C0, C1 = -2.0 / 3.0, P["c"], P["C0"], P["C1"]
    grid = GridSpec([0.0, 0.0], [0.05, 0.05], [5, 5])
    sigma = BaseMap.from_function(grid, lambda t: [np.exp(a * (c * t[0] - t[1]))])
    psi = kc.lift(gamma, sigma)
    for idx in grid.indices():
        u = sigma.values[idx][0]
        assert psi.p[idx][0, 0] == pytest.approx(c * a * u)
        assert psi.p[idx][1, 0] == pytest.approx(a * u)
        assert psi.z[idx][0] == pytest.approx(0.5 * c * a * u * u + c * C1 + C0)
        assert psi.z[idx][1] == pytest.approx(0.5 * a * u * u + C1)


def test_lift_trivial_section():
    gamma = kc.SectionZInd(CH12, gamma_p=lambda q: [[0.0], [0.0]],
                           gamma_z=lambda q: [0.0, 0.0])
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [4, 4])
    sigma = BaseMap.from_function(grid, lambda t: [t[0] - t[1]])
    psi = kc.lift(gamma, sigma)
    assert np.max(np.abs(psi.p)) == 0.0 and np.max(np.abs(psi.z)) == 0.0
    assert np.array_equal(psi.q[..., 0], sigma.values[..., 0])


def test_lift_hs_evolution_offset():
    mu, c, K, C1 = 3.0, 0.5, 2.0, 0.0
    ex = corpus.load("hunter-saxton")
    entry = ex.sections["evolution-zind-K"]
    gamma = entry.build({"mu": mu, "c": c, "C1": C1, "K": K})
    grid = GridSpec([0.0, 0.0], [0.05, 0.05], [5, 5])
    sigma = BaseMap.from_function(grid, lambda t: [-2 * mu * (t[1] + c * t[0])])
    psi = kc.lift(gamma, sigma)
    for idx in grid.indices():
        u = sigma.values[idx][0]
        assert psi.z[idx][0] == pytest.approx(mu * (u + c) + K / mu)


def test_lift_closed_derivative_chain_rule():
    from kcontact import dual as dm

    ex = corpus.load("telegrapher")
    entry = ex.sections["classical-zind"]
    gamma = entry.build(dict(entry.defaults))
    a, c = -2.0 / 3.0, 2.0
    grid = GridSpec([0.0, 0.0], [0.02, 0.02], [5, 5])
    base = corpus.closed_base_map(grid, lambda t: [dm.exp(a * (c * t[0] - t[1]))])
    psi = kc.lift(gamma, base)
    h = corpus.load("telegrapher").hamiltonian()
    assert kc.map_residual(psi, h, "standard").max() <= 1e-12


# -- end-to-end -----------------------------------------------------------------------

def test_end_to_end_trivial():
    h = kc.ScalarField(CH12, lambda pt: 0.0)
    gamma = kc.SectionZInd(CH12, gamma_p=lambda q: [[0.0], [0.0]],
                           gamma_z=lambda q: [0.0, 0.0])
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [4, 4])
    rep = kc.end_to_end(h, gamma, "standard", grid, start=[0.2],
                        hj_samples=np.linspace(-1, 1, 9).reshape(-1, 1))
    assert rep.passed and rep.residuals.max() <= 1e-14


def test_end_to_end_telegrapher_pass_and_fail():
    ex = corpus.load("telegrapher")
    h = ex.hamiltonian()
    grid = GridSpec([0.0, 0.0], [0.02, 0.02], [50, 50])
    samples = np.linspace(0.5, 2.0, 25).reshape(-1, 1)
    a, c = -2.0 / 3.0, 2.0
    good = ex.sections["classical-zind"].build(dict(ex.sections["classical-zind"].defaults))
    rep = kc.end_to_end(h, good, "standard", grid, start=[1.0], hj_samples=samples,
                        reference=lambda t: [np.exp(a * (c * t[0] - t[1]))])
    assert rep.passed
    assert rep.compare_error <= 1e-8
    assert rep.residuals.max() <= 1e-6

    bad = ex.sections["classical-zind-wrong-root"]
    rep2 = kc.end_to_end(h, bad.build(dict(bad.defaults)), "standard", grid,
                         start=[1.0], hj_samples=samples)
    assert not rep2.passed and rep2.failed_stage == "hj"


def test_end_to_end_evolution_zind():
    # an evolution-only section must lift through the evolution pipeline
    ex = corpus.load("hunter-saxton")
    h = ex.hamiltonian()
    entry = ex.sections["evolution-zind-K"]
    gamma = entry.build(dict(entry.defaults))
    grid = GridSpec([0.0, 0.0], [0.05, 0.05], [9, 9])
    rep = kc.end_to_end(h, gamma, "evolution", grid, start=[0.0],
                        hj_samples=np.linspace(-1, 1, 15).reshape(-1, 1))
    assert rep.passed and rep.residuals.max() <= 1e-6
    rep2 = kc.end_to_end(h, gamma, "standard", grid, start=[0.0],
                         hj_samples=np.linspace(-1, 1, 15).reshape(-1, 1))
    assert not rep2.passed and rep2.failed_stage == "hj"


def test_end_to_end_zdep_quadratic():
    ex = corpus.load("hunter-saxton")
    h = ex.hamiltonian()
    entry = ex.sections["zdep-quadratic"]
    gamma = entry.build(dict(entry.defaults))
    C = entry.gauge(dict(entry.defaults))
    grid = GridSpec([0.0, 0.0], [0.05, 0.05], [9, 9])
    rep = kc.end_to_end(h, gamma, "evolution", grid, start=[0.0, 0.0, 0.0], C=C,
                        hj_count=40, seed=2)
    assert rep.passed and rep.residuals.max() <= 1e-12
    for idx in grid.indices():
        t = grid.t(idx)
        assert rep.solution.q[idx][0] == pytest.approx(t[0] ** 2, abs=1e-12)


def test_end_to_end_stage_tagging():
    ex = corpus.load("hunter-saxton")
    h = ex.hamiltonian()
    entry = ex.sections["noncommuting-zind"]
    gamma = entry.build(dict(entry.defaults))
    grid = GridSpec([0.0, 0.0], [0.01, 0.01], [9, 9])
    with pytest.raises(kc.IntegrabilityError) as err:
        kc.end_to_end(h, gamma, "evolution", grid, start=[1.0],
                      hj_samples=np.linspace(0.8, 1.6, 9).reshape(-1, 1))
    assert getattr(err.value, "stage", None) == "integrate"


@pytest.mark.parametrize("name, key, mode, start, reference, dims", [
    # numpy would broadcast a one-entry reference over the three base coordinates
    ("hunter-saxton", "zdep-quadratic", "evolution", [0.0, 0.0, 0.0], lambda t: [0.0], (1, 3)),
    ("hunter-saxton", "zdep-quadratic", "evolution", [0.0, 0.0, 0.0], lambda t: 0.0, (1, 3)),
    ("hunter-saxton", "zdep-quadratic", "evolution", [0.0, 0.0, 0.0], lambda t: [0.0, 1.0], (2, 3)),
    ("hunter-saxton", "zdep-quadratic", "evolution", [0.0, 0.0, 0.0], lambda t: [0.0] * 4, (4, 3)),
    ("telegrapher", "classical-zind", "standard", [1.0], lambda t: [1.0, 2.0], (2, 1)),
])
def test_end_to_end_refuses_a_reference_of_another_dimension_in_the_compare_stage(
        name, key, mode, start, reference, dims):
    ex = corpus.load(name)
    entry = ex.sections[key]
    P = dict(entry.defaults)
    C = entry.gauge(P) if entry.gauge else None
    grid = GridSpec([0.0, 0.0], [0.05, 0.05], [5, 5])
    match = rf"^\[stage compare\] reference has dimension {dims[0]}, the integrated base map {dims[1]}$"
    with pytest.raises(kc.ContractError, match=match) as err:
        kc.end_to_end(ex.hamiltonian(), entry.build(P), mode, grid, start, C=C, reference=reference,
                      hj_count=20)
    assert err.value.stage == "compare"


def test_an_error_of_the_reference_is_tagged_with_the_compare_stage():
    h, gamma, grid = _telegrapher_zind()

    def reference(t):
        raise kc.DomainError("reference outside its domain")

    with pytest.raises(kc.DomainError, match=r"^\[stage compare\] reference outside its domain$") as err:
        kc.end_to_end(h, gamma, "standard", grid, start=[1.0], reference=reference, hj_count=20)
    assert err.value.stage == "compare"


def test_end_to_end_unknown_mode_fails_in_the_hj_stage():
    # no stage after hj may run with a mode the checks do not know
    ex = corpus.load("hunter-saxton")
    entry = ex.sections["standard-zind"]
    grid = GridSpec([0.0, 0.0], [0.05, 0.05], [3, 3])
    with pytest.raises(kc.ContractError, match="unknown mode 'evolutoin'") as err:
        kc.end_to_end(ex.hamiltonian(), entry.build(dict(entry.defaults)), "evolutoin", grid,
                      start=[0.0], hj_count=5)
    assert err.value.stage == "hj"


def test_end_to_end_rejects_unknown_tolerance_keys():
    h = kc.ScalarField(CH12, lambda pt: 0.0)
    gamma = kc.SectionZInd(CH12, gamma_p=lambda q: [[0.0], [0.0]],
                           gamma_z=lambda q: [0.0, 0.0])
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [3, 3])
    with pytest.raises(kc.ContractError, match="residul") as err:
        kc.end_to_end(h, gamma, "standard", grid, start=[0.2], tolerances={"residul": 1e-30})
    for key in ("'hj'", "'residual'", "'order'"):
        assert key in str(err.value)
    assert sorted(DEFAULT_TOLERANCES) == ["hj", "order", "residual"]


def test_end_to_end_rejects_a_gauge_for_a_section_over_q():
    # a section over Q has no gauge term, so a gauge matrix passed with it is an error
    ex = corpus.load("telegrapher")
    entry = ex.sections["classical-zind"]
    gamma = entry.build(dict(entry.defaults))
    C = kc.GaugeMatrix(lambda q, z: [[0.0]])
    grid = GridSpec([0.0, 0.0], [0.02, 0.02], [3, 3])
    with pytest.raises(kc.ContractError, match="section is over Q") as err:
        kc.end_to_end(ex.hamiltonian(), gamma, "standard", grid, start=[1.0], C=C,
                      hj_samples=np.linspace(0.5, 2.0, 5).reshape(-1, 1))
    assert err.value.stage == "hj"


# -- a NaN is a failure, never a pass ----------------------------------------------------

NAN = float("nan")


def test_a_nan_commutator_defect_is_reported():
    f = scalar_field(lambda u: NAN * u, lambda u: 1.0)
    assert math.isnan(kc.commutator_defect(f, [[0.5], [1.0]]))


def _tel_with_nan_above(cut):
    """Telegrapher h plus a term that is NaN, with a NaN q-derivative, where u > cut."""
    ex = corpus.load("telegrapher")
    h0 = ex.hamiltonian()
    h = kc.ScalarField(CH12, lambda pt: h0.fn(pt) + (
        pt.q[0] * NAN if pt.q[0] > cut else 0.0))
    entry = ex.sections["classical-zind"]
    return h, entry.build(dict(entry.defaults))


def test_end_to_end_fails_a_nan_map_residual():
    # the HJ samples stay below the cut, the lifted nodes cross it
    h, gamma = _tel_with_nan_above(1.2)
    grid = GridSpec([0.0, 0.0], [0.02, 0.02], [5, 30])
    rep = kc.end_to_end(h, gamma, "standard", grid, start=[1.0],
                        hj_samples=np.linspace(0.5, 1.1, 9).reshape(-1, 1))
    assert rep.hj_report.sup_residual <= 1e-8
    assert not rep.passed and rep.failed_stage == "residual"
    assert math.isnan(rep.residuals.max())


def test_end_to_end_reports_a_nan_compare_error():
    h, gamma = _tel_with_nan_above(10.0)
    grid = GridSpec([0.0, 0.0], [0.02, 0.02], [4, 4])
    a, c = -2.0 / 3.0, 2.0

    def reference(t):
        u = np.exp(a * (c * t[0] - t[1]))
        return [NAN if t[1] > 0.03 else u]

    rep = kc.end_to_end(h, gamma, "standard", grid, start=[1.0], reference=reference,
                        hj_samples=np.linspace(0.5, 1.1, 9).reshape(-1, 1))
    assert rep.passed and math.isnan(rep.compare_error)


def test_end_to_end_computes_the_start_commutator_defect_once(monkeypatch):
    from kcontact import integrate

    ex = corpus.load("hunter-saxton")
    h = ex.hamiltonian()
    entry = ex.sections["zdep-quadratic"]
    gamma = entry.build(dict(entry.defaults))
    grid = GridSpec([0.0, 0.0], [0.05, 0.05], [5, 5])

    def run():
        return kc.end_to_end(h, gamma, "evolution", grid, start=[0.0, 0.0, 0.0],
                             C=entry.gauge(dict(entry.defaults)), hj_count=40, seed=2)

    before = run().summary()
    calls = []
    inner = integrate.commutator_defect
    monkeypatch.setattr(integrate, "commutator_defect", lambda *a: calls.append(a) or inner(*a))
    rep = run()
    assert len(calls) == 1 and rep.commutator == inner(*calls[0])
    assert rep.summary() == before and rep.commutator == before["commutator_defect"]


# -- one RK4 step recorded per direction and replayed on every line ------------------

def programs_made(monkeypatch, tried=None):
    """The RK4 step programs ``dual._program`` gives from here on, None where it refuses one.
    The programs of each direction's evaluation, from which its step is recorded, are left
    out; ``tried``, when given, collects the direction of every recording, of either kind."""
    made, record = [], dm._program

    def program(fn, x0):
        step = fn.func is _rk4_step
        if tried is not None:
            tried.append(fn.args[1] if step else fn.args[0])
        prog = record(fn, x0)
        if step:
            made.append(prog)
        return prog

    monkeypatch.setattr(dm, "_program", program)
    return made


def recording_refused():
    return mock.patch.object(dm, "_program", lambda fn, x0: None)


def composing_refused():
    """Each direction's evaluation program refuses to run on recorded values, as where one of
    its tests answers otherwise there, so that every RK4 step is recorded directly."""
    record = dm._program

    def program(fn, x0):
        prog = record(fn, x0)
        if prog is None or fn.func is _rk4_step:
            return prog

        def replay(x):
            if isinstance(x[0], dm._Lanes) and isinstance(x[0].v, dm._Reg):
                raise dm._Unbatchable("refused on recorded values")
            return prog(x)

        return replay

    return mock.patch.object(dm, "_program", program)


def exact_lines(axis0, axis1, counts=(4, 5)):
    """A k = 2 field on a grid whose direction-0 flow at constant speed is exact in RK4."""
    return BaseField(dim=2, comps=[lambda x: axis0, axis1]), GridSpec([0.0, 0.0], [0.5, 0.25], counts)


def test_a_lane_crossing_a_branch_partway_along_its_line_gets_the_scalar_values(monkeypatch):
    # line s = x0 moves at speed 1 + s until x1 = 1.7, then at 0.5: each crosses at its own step
    f, grid = exact_lines([1.0, 0.0], lambda x: [0.0, 1.0 + x[0] if x[1] < 1.7 else 0.5])
    made = programs_made(monkeypatch)
    values = kc.integral_section(f, [0.0, 1.0], grid, order_tol=math.inf).values
    assert len(made) == 2 and None not in made
    want = per_line_values(f, [0.0, 1.0], grid)
    assert np.array_equal(values, want)
    assert np.min(want[:, -1, 1]) > 1.7 > np.max(want[:, 1, 1])  # every line crossed partway


def test_a_division_by_zero_in_an_unused_gradient_entry_still_raises(monkeypatch):
    # x1 falls by exactly 0.5 per direction-0 cell, to 0 on the last line of direction 1,
    # where the unused gradient 0.5 / sqrt(x1) of the second entry divides by zero
    f, grid = exact_lines([0.0, -1.0], lambda x: [0.0, dm.jacobian(
        lambda v: [v[0] * v[0], dm.sqrt(v[1])], x)[1][0][0]], counts=(4, 4))
    made = programs_made(monkeypatch)
    got = outcome(lambda: kc.integral_section(f, [0.0, 1.5], grid))
    assert len(made) == 2 and None not in made
    assert got == outcome(lambda: per_line_values(f, [0.0, 1.5], grid)) and got[0] is ZeroDivisionError


def test_a_non_finite_point_inside_a_replayed_step_raises_the_scalar_shape_error(monkeypatch):
    # the point is built and dropped; on every line but the first its q is inf ** x0 = inf
    def axis1(x):
        kc.DarbouxPoint([math.inf ** dm._cmp_value(x[0])], [[0.0]], [0.0])  # no dual: inf * 0 is NaN
        return [0.0, 1.0]

    f, grid = exact_lines([1.0, 0.0], axis1)
    made = programs_made(monkeypatch)
    got = outcome(lambda: kc.integral_section(f, [0.0, 1.0], grid))
    want = outcome(lambda: per_line_values(f, [0.0, 1.0], grid))
    assert len(made) == 2 and None not in made
    assert got == want and want == (kc.ShapeError, "q contains non-finite entries")


@pytest.mark.parametrize("speed", [
    lambda x: 1.0 + x[0] if float(x[1]) < 1.6 else 0.5,
    lambda x: 1.0 + x[0] if dm._vmax(dm._cmp_value(x[1]), 0.0) < 1.6 else 0.5,
])
def test_a_field_using_float_or_vmax_records_no_program(speed, monkeypatch):
    f, grid = exact_lines([1.0, 0.0], lambda x: [0.0, speed(x)])
    tried = []
    made = programs_made(monkeypatch, tried)
    values = kc.integral_section(f, [0.0, 1.0], grid, order_tol=math.inf).values
    # direction 1's evaluation records no program, and its step is not tried after that
    assert len(made) == 1 and made[0] is not None and tried.count(1) == 1
    assert np.array_equal(values, per_line_values(f, [0.0, 1.0], grid))


def _k3_field():
    return BaseField(dim=3, comps=[
        lambda x, c=c: [c[0] * x[0], c[1] * x[1] * x[1], c[2] * dm.cos(x[2])]
        for c in ((0.3, -0.2, 0.1), (-0.5, 0.4, 0.2), (0.1, 0.1, -0.3))
    ])


@pytest.mark.parametrize("f, start, grid", [
    (_k3_field(), [1.0, -0.7, 0.5], GridSpec([0.0, 0.0, 0.0], [0.1, 0.05, 0.2], [4, 5, 3])),
    (BaseField(dim=1, comps=[lambda x: [0.3 * x[0] * x[0] + 0.1]]), [0.4], GridSpec([0.0], [0.1], [6])),
])
def test_replayed_sweeps_and_corners_are_the_values_without_recording(f, start, grid, monkeypatch):
    made = programs_made(monkeypatch)
    sigma = kc.integral_section(f, start, grid)
    assert len(made) == grid.k and None not in made
    with recording_refused():
        ref = kc.integral_section(f, start, grid)
    assert sigma.values.tobytes() == ref.values.tobytes() and sigma.notes == ref.notes
    assert sigma.derivatives().tobytes() == ref.derivatives().tobytes()


SIMULATED = [(name, key, mode) for name in corpus.EXAMPLE_NAMES
             for key, entry in corpus.load(name).sections.items() if entry.sim is not None
             for mode in ("standard", "evolution")]


def _end_to_end_outcome(run):
    try:
        rep = run()
    except Exception as exc:  # noqa: BLE001 - the comparison is on the error's repr
        return repr(exc)
    psi = rep.solution
    arrays = () if psi is None else (psi.q, psi.p, psi.z) + psi.derivatives()
    return repr(rep.summary()), [a.tobytes() for a in arrays]


@pytest.mark.parametrize("name, key, mode", SIMULATED)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_end_to_end_is_the_same_with_recording_refused(name, key, mode, data):
    ex = corpus.load(name)
    entry = ex.sections[key]
    P = dict(entry.defaults)
    gamma, h = entry.build(P), ex.hamiltonian({k: v for k, v in P.items() if k in ex.defaults})
    sim = entry.sim
    shift = data.draw(st.lists(st.floats(-0.3, 0.3), min_size=len(sim["start"]), max_size=len(sim["start"])))
    counts = data.draw(st.lists(st.integers(3, 9), min_size=2, max_size=2))
    grid = GridSpec(sim["origin"], sim["spacing"], counts)

    def run():  # every HJ residual passes, so both modes integrate
        return kc.end_to_end(h, gamma, mode, grid, start=np.add(sim["start"], shift),
                             C=entry.gauge(P) if entry.gauge else None, hj_count=20,
                             tolerances={"hj": math.inf})

    got = _end_to_end_outcome(run)
    with recording_refused():
        assert _end_to_end_outcome(run) == got


@pytest.mark.parametrize("name, key, mode", SIMULATED)
def test_composed_direct_and_unrecorded_steps_integrate_the_same_bits(name, key, mode, monkeypatch):
    ex = corpus.load(name)
    entry = ex.sections[key]
    P = dict(entry.defaults)
    gamma, h = entry.build(P), ex.hamiltonian({k: v for k, v in P.items() if k in ex.defaults})
    C, sim = entry.gauge(P) if entry.gauge else None, entry.sim
    f = kc.project_Q(h, gamma) if C is None else kc.project_zdep(h, gamma, C)
    grid = GridSpec(sim["origin"], sim["spacing"], sim["counts"])
    made = programs_made(monkeypatch)

    def integrated():
        del made[:]
        sigma = kc.integral_section(f, sim["start"], grid, order_tol=math.inf)
        return sigma.values.tobytes(), sigma.derivatives().tobytes(), sigma.notes

    def pipeline():
        return _end_to_end_outcome(lambda: kc.end_to_end(h, gamma, mode, grid, start=sim["start"], C=C,
                                                         hj_count=20, tolerances={"hj": math.inf}))

    composed = integrated()
    assert len(made) == grid.k and None not in made
    report = pipeline()
    with composing_refused():
        assert integrated() == composed
        assert made[::2] == [None] * grid.k and None not in made[1::2]  # each recorded directly
        assert pipeline() == report
    with recording_refused():
        assert integrated() == composed and pipeline() == report


def test_a_branch_answering_otherwise_at_a_stage_point_records_the_step_directly(monkeypatch):
    # x1 starts below the cut at 1.01, which the k2 point of the first direction-1 step,
    # x1 = 1 + 0.5 * 0.0625 * 1, is past: the evaluation recorded at the start cannot serve there
    f, grid = exact_lines([1.0, 0.0], lambda x: [0.0, 1.0 + x[0] if x[1] < 1.01 else 0.5])
    made = programs_made(monkeypatch)
    sigma = kc.integral_section(f, [0.0, 1.0], grid, order_tol=math.inf)
    assert len(made) == 3 and made[1] is None and None not in made[::2]
    with recording_refused():
        ref = kc.integral_section(f, [0.0, 1.0], grid, order_tol=math.inf)
    assert sigma.values.tobytes() == ref.values.tobytes() and sigma.notes == ref.notes
    assert sigma.derivatives().tobytes() == ref.derivatives().tobytes()
    assert np.array_equal(sigma.values, per_line_values(f, [0.0, 1.0], grid))


@pytest.mark.parametrize("comp", [
    lambda x: [x[0] * x[0] * 1e200],  # recorded, then replayed
    lambda x: [x[0] * x[0] * 1e200 + 0.0 * float(x[0])],  # float() records no program
])
def test_a_flow_that_overflows_on_a_float_row_trips_the_blow_up_guard(comp):
    f = BaseField(dim=1, comps=[comp, lambda x: [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        with pytest.raises(kc.DivergenceError, match="flow along direction 0 exceeded the blow-up guard"):
            kc.integral_section(f, [1.0], GridSpec([0, 0], [0.1, 0.1], [5, 5]))


@pytest.mark.parametrize("comp, message", [
    (lambda x: [1.0], "component 0 of the base field has 1 entries, dim = 2"),
    (lambda x: [1.0, 0.0, 2.0], "component 0 of the base field has 3 entries, dim = 2"),
    (lambda x: 1.0, "component 0 of the base field returns a value of type float, not a sequence of dim = 2"),
    (lambda x: np.ones((2, 1)), "component 0 of the base field returns a value of type ndarray"),
])
def test_a_field_component_of_another_length_than_dim_raises_a_shape_error_naming_it(comp, message):
    f = BaseField(2, [comp, lambda x: [0.0, 1.0]])
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [3, 3])
    for call in (lambda: f.eval(0, [0.0, 0.0]), lambda: kc.commutator_defect(f, [[0.0, 0.0], [1.0, 1.0]]),
                 lambda: kc.integral_section(f, [0.0, 0.0], grid)):
        with pytest.raises(kc.ShapeError, match=message):
            call()


# -- each stage makes its map with its node table, and owns its errors ----------------

def _telegrapher_zind():
    ex = corpus.load("telegrapher")
    entry = ex.sections["classical-zind"]
    return ex.hamiltonian(), entry.build(dict(entry.defaults)), GridSpec([0.0, 0.0], [0.02, 0.02], [6, 7])


@pytest.mark.parametrize("steps", [0, -1, 2.5])
def test_steps_per_cell_below_one_or_fractional_is_refused_before_the_commutator(steps, monkeypatch):
    from kcontact import integrate

    h, gamma, grid = _telegrapher_zind()
    monkeypatch.setattr(integrate, "commutator_defect", mock.Mock(side_effect=AssertionError("ran")))
    message = rf"steps_per_cell must be an integer >= 1, got {steps}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy divide-by-zero warning either
        with pytest.raises(kc.ContractError, match=message):
            kc.integral_section(kc.project_Q(h, gamma), [1.0], grid, steps_per_cell=steps)
        with pytest.raises(kc.ContractError, match=rf"^\[stage integrate\] {message}") as err:
            kc.end_to_end(h, gamma, "standard", grid, start=[1.0], hj_count=20, steps_per_cell=steps)
    assert err.value.stage == "integrate"


def test_integrated_and_lifted_maps_are_made_with_their_node_tables():
    from kcontact import integrate

    h, gamma, grid = _telegrapher_zind()
    sigma = kc.integral_section(kc.project_Q(h, gamma), [1.0], grid)
    psi = kc.lift(gamma, sigma)
    assert isinstance(sigma._table, np.ndarray) and all(isinstance(a, np.ndarray) for a in psi._table)
    want = sigma.derivatives(), psi.derivatives()
    # reading the tables evaluates neither the field nor the section again
    with mock.patch.object(BaseField, "eval", side_effect=AssertionError("field evaluated")), \
            mock.patch.object(integrate, "_coeff_jacobian", side_effect=AssertionError("jacobian")):
        assert sigma.derivatives().tobytes() == want[0].tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(psi.derivatives(), want[1]))


def test_an_error_of_the_lift_jacobian_pass_is_tagged_with_the_lift_stage():
    from kcontact import integrate

    h, gamma, grid = _telegrapher_zind()
    failing = mock.Mock(side_effect=kc.DomainError("section Jacobian failed"))
    with mock.patch.object(integrate, "_coeff_jacobian", failing):
        with pytest.raises(kc.DomainError, match=r"^\[stage lift\] section Jacobian failed") as err:
            kc.end_to_end(h, gamma, "standard", grid, start=[1.0], hj_count=20)
    assert err.value.stage == "lift"
