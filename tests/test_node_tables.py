"""Whole-grid node tables of ``map_residual``, ``lift`` and lifted derivatives, held
byte for byte to the per-node loops they replace (kept below as the reference)."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcontact as kc
from kcontact import corpus
from kcontact import dual as dm
from kcontact.grids import BaseMap, GridSpec, SolutionMap
from kcontact.sections import _coeff_jacobian

NAN = float("nan")


# -- the per-node reference -------------------------------------------------------------

def ref_derivatives(psi):
    """``derivatives()`` one node at a time: ``closed_derivative`` at every node."""
    if psi.closed_derivative is None:
        return psi.derivatives()
    n, k = psi.chart.n, psi.chart.k
    out = [np.empty(psi.grid.shape + s) for s in ((k, n), (k, k, n), (k, k))]
    for idx in psi.grid.indices():
        for o, v in zip(out, psi.closed_derivative(psi.grid.t(idx))):
            o[idx] = v
    return out


def ref_residual(psi, h, mode, derivatives=None):
    """The residual grids one node at a time, from scalar gradients."""
    dq, dp, dz = ref_derivatives(psi) if derivatives is None else derivatives
    r_q, r_p, r_z = (np.zeros(psi.grid.shape) for _ in range(3))
    for idx in psi.grid.indices():
        pt = psi.point(idx)
        g = kc.grad(h, pt)
        r_q[idx] = np.max(np.abs(dq[idx] - g.d_p))
        bal = dp[idx].diagonal(axis1=0, axis2=1).T.sum(axis=0)
        r_p[idx] = np.max(np.abs(bal + g.d_q + np.einsum("ai,a->i", pt.p, g.d_z)))
        rhs = float(np.sum(pt.p * g.d_p)) - (h(pt) if mode == "standard" else 0.0)
        r_z[idx] = abs(float(np.trace(dz[idx])) - rhs)
    return r_q, r_p, r_z


def ref_points(gamma, sigma):
    """The lifted points one node at a time."""
    n, k = gamma.chart.n, gamma.chart.k
    at = gamma.at if isinstance(gamma, kc.SectionZInd) else (lambda x: gamma.at(x[:n], x[n:]))
    q, p, z = (np.empty(sigma.grid.shape + s) for s in ((n,), (k, n), (k,)))
    for idx in sigma.grid.indices():
        pt = at(sigma.values[idx])
        q[idx], p[idx], z[idx] = pt.q, pt.p, pt.z
    return q, p, z


def ref_lift(gamma, sigma):
    """The lifted points, and their chained derivatives one node at a time with scalar
    section Jacobians at the stored base point."""
    n, k = gamma.chart.n, gamma.chart.k
    dq, dp, dz = (np.empty(sigma.grid.shape + s) for s in ((k, n), (k, k, n), (k, k)))
    for idx in sigma.grid.indices():
        x, dx = sigma.values[idx], sigma.derivatives()[idx]
        J = np.asarray(_coeff_jacobian(gamma, x)[1], dtype=float)
        if isinstance(gamma, kc.SectionZInd):
            dq[idx] = dx
            dp[idx] = np.einsum("ci,bi->bc", J[:k * n], dx).reshape(k, k, n)
            dz[idx] = np.einsum("ci,bi->bc", J[k * n:], dx)
        else:
            dq[idx] = dx[:, :n]
            dp[idx] = np.einsum("cj,bj->bc", J, dx).reshape(k, k, n)
            dz[idx] = dx[:, n:]
    return ref_points(gamma, sigma), (dq, dp, dz)


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the comparison is on type and message
        return type(exc), str(exc)


def same(got, want):
    """Equal outcomes: the same error, or arrays with the same bytes."""
    if isinstance(want, tuple) and isinstance(want[0], type):
        return got == want
    return len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def residual_arrays(psi, h, mode):
    res = kc.map_residual(psi, h, mode)
    return res.r_q, res.r_p, res.r_z


def lanes_off():
    """Every lane pass refused, so the node tables fill row by row."""
    return mock.patch.object(dm, "_lanes", lambda fn, X: None)


def assert_residual_matches(psi, h):
    for mode in ("standard", "evolution"):
        want = outcome(lambda: ref_residual(psi, h, mode))
        assert same(outcome(lambda: residual_arrays(psi, h, mode)), want)
        with lanes_off():
            assert same(outcome(lambda: residual_arrays(psi, h, mode)), want)


# -- every corpus section and solution -------------------------------------------------------

SECTIONS = [(name, key) for name in corpus.EXAMPLE_NAMES for key in corpus.load(name).sections]


def _section(name, key):
    ex = corpus.load(name)
    entry = ex.sections[key]
    P = dict(entry.defaults)
    return ex, entry, P, entry.build(P), ex.hamiltonian({k: v for k, v in P.items() if k in ex.defaults})


def _base_maps(entry, P, gamma, h):
    """A closed-form base map inside the section domain, and for sections with a
    simulate plan the integrated map of their projected field on a small grid."""
    n, k = gamma.chart.n, gamma.chart.k
    grid = GridSpec([0.0] * k, [0.05] * k, [4, 5] + [3] * (k - 2))
    if entry.kind == "zind":
        f = lambda t: [0.9 + 0.1 * t[0] - 0.05 * t[1] * t[1]] * n  # noqa: E731
    else:
        f = lambda t: [0.2 + 0.1 * t[0]] * n + [0.1 * t[1], -0.05 * t[0]] + [0.0] * (k - 2)  # noqa: E731
    maps = [corpus.closed_base_map(grid, f)]
    if entry.sim is not None and "noncommuting" not in entry.key:
        field = kc.project_Q(h, gamma) if entry.kind == "zind" else kc.project_zdep(h, gamma, entry.gauge(P))
        sim = entry.sim
        maps.append(kc.integral_section(field, sim["start"],
                                        GridSpec(sim["origin"], sim["spacing"], [5, 6])))
    return maps


@pytest.mark.parametrize("name,key", SECTIONS)
def test_lift_and_residual_tables_match_the_per_node_loops(name, key):
    ex, entry, P, gamma, h = _section(name, key)
    for sigma in _base_maps(entry, P, gamma, h):
        psi = kc.lift(gamma, sigma)
        points, derivatives = ref_lift(gamma, sigma)
        assert same((psi.q, psi.p, psi.z), points)
        assert same(psi.derivatives(), derivatives)
        assert same(psi.derivatives(), ref_derivatives(psi))
        with lanes_off():
            assert same(kc.lift(gamma, sigma).derivatives(), derivatives)
        assert_residual_matches(psi, h)


SOLUTIONS = [(name, key) for name in corpus.EXAMPLE_NAMES for key in corpus.load(name).solutions]


@pytest.mark.parametrize("name,key", SOLUTIONS)
def test_solution_residuals_match_the_per_node_loop(name, key):
    ex = corpus.load(name)
    grid = ex.solutions[key].default_grid
    psi = corpus.analytic(name, key, grid=GridSpec(grid.origin, grid.spacing,
                                                  [min(c, 6) for c in grid.counts]))
    assert same(psi.derivatives(), ref_derivatives(psi))
    assert_residual_matches(psi, ex.hamiltonian())


def _synthetic(n, k, amp):
    """A closed map t -> (q, p, z) on a chart with n, k and a Hamiltonian using every block."""
    chart = kc.ChartSpec(n, k)

    def f(t):
        q = [amp * (i + 1) * dm.sin(t[0] + 0.2 * i) for i in range(n)]
        p = [[dm.cos(0.7 * t[a % k] + i) / (a + 2) for i in range(n)] for a in range(k)]
        return q, p, [amp * t[-1] * (a + 1) for a in range(k)]

    def fn(pt):
        quad = sum(pt.p[a, i] ** 2 * (1.0 + 0.3 * pt.q[i]) for a in range(k) for i in range(n))
        # dividing by a dual rounds a * (1 / b): the value must come from a plain pass
        return quad / (2.0 + pt.q[0] * pt.q[0]) + pt.z[0] * pt.q[0] - dm.exp(0.1 * pt.z[k - 1]) / 7.0

    return chart, f, kc.ScalarField(chart, fn, name="synthetic")


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(1, 3), amp=st.floats(0.05, 2.0))
def test_synthetic_residuals_match_the_per_node_loop(n, k, amp):
    chart, f, h = _synthetic(n, k, amp)
    grid = GridSpec([0.1] * k, [0.07] * k, [3 + (k < 3)] * k)
    psi = corpus.closed_solution_map(chart, grid, f)
    assert_residual_matches(psi, h)
    # the stencil path, without closed derivatives
    assert_residual_matches(SolutionMap(chart, grid, psi.q, psi.p, psi.z), h)


def test_thermo_chart_sums_eight_products_as_one_node_does():
    # n = 4, k = 2: the z balance sums k*n = 8 products, where numpy sums pairwise
    h = corpus.load("thermo-eit").hamiltonian()
    chart, f, _ = _synthetic(4, 2, 0.7)
    psi = corpus.closed_solution_map(chart, GridSpec([0.1, 0.2], [0.07, 0.05], [4, 5]), f)
    assert_residual_matches(psi, h)


# -- fallbacks --------------------------------------------------------------------------------

def _tel_map(counts=(5, 6)):
    grid = GridSpec([0.0, 0.0], [0.02, 0.02], list(counts))
    return corpus.analytic("telegrapher", "exponential", params={"u0": 0.5}, grid=grid)


def test_a_node_outside_the_domain_raises_the_scalar_error_at_the_first_such_node():
    h0 = corpus.load("telegrapher").hamiltonian()
    psi = _tel_map()
    cut = float(np.sort(psi.q[..., 0].reshape(-1))[17])
    seen = []

    def domain(pt):
        seen.append(pt.q)
        return pt.q[0] < cut  # a split domain test: the lanes disagree

    h = kc.ScalarField(h0.chart, h0.fn, domain=domain, name="cut")
    for mode in ("standard", "evolution"):
        seen.clear()
        want = outcome(lambda: ref_residual(psi, h, mode))
        want_last = seen[-1]
        seen.clear()
        got = outcome(lambda: residual_arrays(psi, h, mode))
        assert got == want == (kc.DomainError, "point outside declared domain of field cut")
        assert seen[-1].tobytes() == want_last.tobytes()
        assert not seen[-1][0] < cut


def test_lanes_that_disagree_on_a_branch_give_the_scalar_residuals():
    h0 = corpus.load("telegrapher").hamiltonian()
    psi = _tel_map()
    cut = float(np.median(psi.q[..., 0]))
    lane_calls = []

    def fn(pt):
        lane_calls.append(isinstance(dm._strip(pt.q[0]), dm._Lanes))
        # the same value either way, reached by different operations
        return h0.fn(pt) + (0.5 * pt.q[0] if pt.q[0] > cut else pt.q[0] * 0.5)

    h = kc.ScalarField(h0.chart, fn)
    for mode in ("standard", "evolution"):
        lane_calls.clear()
        assert same(residual_arrays(psi, h, mode), ref_residual(psi, h, mode))
        assert any(lane_calls)  # the lanes were tried, then the rows ran one by one


def test_a_non_finite_gradient_is_kept_where_the_loop_kept_it():
    h0 = corpus.load("telegrapher").hamiltonian()
    psi = _tel_map()
    # a NaN value and q-derivative: the loop stored them and raised nothing
    h = kc.ScalarField(h0.chart, lambda pt: h0.fn(pt) + pt.q[0] * NAN)
    got = residual_arrays(psi, h, "evolution")
    assert np.isnan(got[1]).all() and same(got, ref_residual(psi, h, "evolution"))
    assert np.isnan(kc.map_residual(psi, h, "evolution").max())


CURVED = kc.SectionZInd(kc.ChartSpec(1, 2), gamma_p=lambda q: [[q[0] * q[0]], [dm.sin(q[0])]],
                        gamma_z=lambda q: [q[0] ** 3 / 3.0, -dm.cos(q[0])], name="curved")


def test_a_base_map_whose_closed_form_is_not_its_stored_values():
    base = corpus.closed_base_map(GridSpec([0.0, 0.0], [0.05, 0.05], [4, 5]),
                                  lambda t: [0.9 + 0.1 * t[0] * t[1]])
    moved = BaseMap(base.grid, base.values + 1e-3, closed_form=base.closed_form,
                    closed_derivative=base.closed_derivative)
    psi = kc.lift(CURVED, moved)
    points, derivatives = ref_lift(CURVED, moved)
    # chained through the section Jacobian at the stored point, not the closed-form one
    assert same((psi.q, psi.p, psi.z), points)
    assert same(psi.derivatives(), derivatives)
    assert not same(psi.derivatives(), kc.lift(CURVED, base).derivatives())
    # a closed derivative alone is enough for the exact table
    bare = BaseMap(base.grid, moved.values, closed_derivative=base.closed_derivative)
    assert same(kc.lift(CURVED, bare).derivatives(), derivatives)


def test_a_lifted_derivative_moved_onto_another_grid_is_evaluated_there():
    ex, entry, P, gamma, h = _section("telegrapher", "classical-zind")
    base = corpus.closed_base_map(GridSpec([0.0, 0.0], [0.05, 0.05], [4, 5]),
                                  lambda t: [0.9 + 0.1 * t[0] * t[1]])
    psi = kc.lift(gamma, base)
    other = GridSpec([0.01, 0.0], [0.1, 0.05], [4, 5])
    # node data: the moved map keeps no table and differences its nodes on the new grid
    moved = dataclasses.replace(psi, grid=other)
    want = [np.stack([kc.grid_derivative(a, other, b) for b in range(2)], axis=2)
            for a in (psi.q, psi.p, psi.z)]
    assert same(moved.derivatives(), want)
    assert not same(moved.derivatives(), psi.derivatives())


def test_a_user_solution_map_with_a_per_node_derivative():
    psi0 = _tel_map()
    calls = []

    def df(t):
        calls.append(tuple(t))
        return psi0.closed_derivative(t)

    psi = SolutionMap.from_function(psi0.chart, psi0.grid, psi0.closed_form, df)
    h = corpus.load("telegrapher").hamiltonian()
    assert same(residual_arrays(psi, h, "standard"), ref_residual(psi, h, "standard"))
    assert len(calls) == 2 * psi.q[..., 0].size  # once per node and call


def test_a_section_point_outside_its_domain_raises_at_the_first_such_node():
    ex, entry, P, gamma, h = _section("hunter-saxton", "log-zind")
    values = np.linspace(-0.3, -0.7, 12).reshape(3, 4, 1)  # the domain is u > -1/2
    sigma = BaseMap(GridSpec([0.0, 0.0], [0.1, 0.1], [3, 4]), values)
    want = outcome(lambda: ref_points(gamma, sigma))
    assert want[0] is kc.DomainError
    assert outcome(lambda: kc.lift(gamma, sigma)) == want
    with lanes_off():
        assert outcome(lambda: kc.lift(gamma, sigma)) == want


def test_section_points_on_lanes_that_disagree_on_a_branch():
    chart = kc.ChartSpec(1, 2)
    gamma = kc.SectionZInd(chart, gamma_p=lambda q: [[q[0] * 3.0 if q[0] > 0.5 else 3.0 * q[0]], [0.25]],
                           gamma_z=lambda q: [q[0] * q[0], dm.exp(q[0])])
    sigma = corpus.closed_base_map(GridSpec([0.0, 0.0], [0.1, 0.1], [4, 3]),
                                   lambda t: [0.3 + t[0] + 0.5 * t[1]])
    psi = kc.lift(gamma, sigma)
    points, derivatives = ref_lift(gamma, sigma)
    assert same((psi.q, psi.p, psi.z), points)
    assert same(psi.derivatives(), derivatives)


def test_section_points_outside_a_domain_the_coefficients_ignore():
    # the coefficients evaluate anywhere, so only the domain test can refuse the lanes
    gamma = kc.SectionZInd(kc.ChartSpec(1, 2), gamma_p=lambda q: [[2.0 * q[0]], [q[0]]],
                           gamma_z=lambda q: [q[0] * q[0], 0.5 * q[0] * q[0]],
                           domain=lambda q: q[0] < 0.5, name="half")
    sigma = BaseMap(GridSpec([0.0, 0.0], [0.1, 0.1], [3, 4]),
                    np.linspace(0.0, 0.9, 12).reshape(3, 4, 1))
    want = outcome(lambda: ref_points(gamma, sigma))
    assert want == (kc.DomainError, "base point outside domain of section half")
    assert outcome(lambda: kc.lift(gamma, sigma)) == want
