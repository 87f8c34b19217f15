"""Sampled maps: the node sampler and the one source of node derivatives per map."""

import dataclasses
import warnings

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus
from kcontact import dual as dm
from kcontact.geometry import DarbouxPoint
from kcontact.grids import BaseMap, GridSpec, SolutionMap

GRID = GridSpec([0.1, -0.3], [0.013, 0.07], [4, 3])


def per_node(fn, grid, shape):
    return np.array([fn(grid.t(idx)) for idx in grid.indices()], dtype=float).reshape(grid.shape + shape)


def test_the_sampler_runs_lanes_at_grid_t_else_calls_once_per_node_in_node_order():
    grid = GridSpec([0.1, -0.3, 0.7], [0.013, 0.07, 1e-3], [3, 4, 5])
    nodes = np.array([grid.t(idx) for idx in grid.indices()])
    seen = []
    base = BaseMap.from_function(grid, lambda t: seen.append(t.copy()) or [t[0] * t[2]])
    # two lane passes: the first two nodes, then the others
    assert len(seen) == 2 and all(isinstance(v, dm._Lanes) for t in seen for v in t)
    lanes = np.concatenate([np.stack([v.v for v in t], axis=1) for t in seen])
    assert len(seen[0][0].v) == 2 and lanes.tobytes() == nodes.tobytes()
    assert base.values.tobytes() == per_node(lambda t: [t[0] * t[2]], grid, (1,)).tobytes()
    seen.clear()  # float() refuses lanes: the refused pass of two nodes, then one call per node
    refused = BaseMap.from_function(grid, lambda t: seen.append(t.copy()) or [float(t[0]) * t[2]])
    assert len(seen) == 1 + len(nodes) and len(seen[0][0].v) == 2
    assert [t.tobytes() for t in seen[1:]] == [t.tobytes() for t in nodes]
    assert refused.values.tobytes() == base.values.tobytes()


def test_base_map_derivatives_from_the_closed_derivative_else_from_differences():
    closed = corpus.closed_base_map(GRID, lambda t: [dm.exp(t[0]) * t[1], t[0] - t[1] ** 2])
    assert closed.d == 2
    assert closed.derivatives().tobytes() == per_node(closed.closed_derivative, GRID, (2, 2)).tobytes()
    bare = BaseMap(GRID, closed.values)
    want = np.stack([kc.grid_derivative(bare.values, GRID, b) for b in range(2)], axis=-2)
    assert bare.derivatives().tobytes() == want.tobytes()


def test_solution_map_derivatives_from_the_closed_derivative_else_from_differences():
    psi = corpus.analytic("telegrapher", "exponential", grid=GRID)
    got = psi.derivatives()
    for i, shape in enumerate([(2, 1), (2, 2, 1), (2, 2)]):
        assert got[i].tobytes() == per_node(lambda t: psi.closed_derivative(t)[i], GRID, shape).tobytes()
    bare = SolutionMap(psi.chart, GRID, psi.q, psi.p, psi.z)
    dq, dp, dz = bare.derivatives()
    assert dq[..., 1, :].tobytes() == kc.grid_derivative(psi.q, GRID, 1).tobytes()
    assert dp[..., 0, :, :].tobytes() == kc.grid_derivative(psi.p, GRID, 0).tobytes()
    assert dz[..., 1, :].tobytes() == kc.grid_derivative(psi.z, GRID, 1).tobytes()


def test_a_node_table_is_kept_only_by_the_map_that_was_made_with_it():
    ex = corpus.load("telegrapher")
    entry = ex.sections["classical-zind"]
    gamma = entry.build(dict(entry.defaults))
    f = kc.project_Q(ex.hamiltonian(), gamma)
    sigma = kc.integral_section(f, [1.0], GRID)
    assert sigma.closed_form is None and sigma.closed_derivative is None
    want = np.array([[f.eval(a, sigma.values[idx]) for a in range(2)]
                     for idx in GRID.indices()]).reshape(GRID.shape + (2, 1))
    table = sigma.derivatives()
    assert table.tobytes() == want.tobytes()
    table[...] = 0.0  # a copy: the table itself is unchanged
    assert sigma.derivatives().tobytes() == want.tobytes()
    rebuilt = [dataclasses.replace(sigma), BaseMap(sigma.grid, sigma.values)]
    assert sigma._table is not None and all(m._table is None for m in rebuilt)
    differences = np.stack([kc.grid_derivative(sigma.values, GRID, b) for b in range(2)], axis=-2)
    assert all(m.derivatives().tobytes() == differences.tobytes() for m in rebuilt)

    psi = kc.lift(gamma, sigma)
    copied = dataclasses.replace(psi)
    assert psi._table is not None and copied._table is None and copied.closed_derivative is None
    bare = SolutionMap(psi.chart, GRID, psi.q, psi.p, psi.z)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(copied.derivatives(), bare.derivatives()))


@pytest.mark.parametrize("later,shape", [(3.0, r"\(\)"), ([3.0, 4.0, 5.0], r"\(3,\)")])
def test_a_node_entry_of_another_shape_than_the_first_raises_naming_the_node(later, shape):
    def f(t):
        return [1.0, 2.0] if t[1] == GRID.origin[1] else later

    with pytest.raises(kc.ShapeError, match=rf"entry 0 has shape {shape} at grid node \(0, 1\), "
                                            r"expected \(2,\)"):
        BaseMap.from_function(GRID, f)


def test_a_closed_derivative_of_another_shape_than_declared_raises():
    bare = BaseMap(GRID, np.zeros(GRID.shape + (1,)), closed_derivative=lambda t: [[1.0]])
    with pytest.raises(kc.ShapeError, match=r"has shape \(1, 1\) at grid node \(0, 0\), expected \(2, 1\)"):
        bare.derivatives()


def test_a_closed_form_that_returns_text_raises_the_conversion_error():
    with pytest.raises(ValueError, match="could not convert string to float") as err:
        BaseMap.from_function(GRID, lambda t: ["text"])
    assert type(err.value) is ValueError


@pytest.mark.parametrize("counts", [[4, 3], [3, 5]])
def test_second_differences_are_exact_on_a_quadratic(counts):
    # three nodes along an axis take the 3-point boundary stencil, four or more the 4-point one
    grid = GridSpec([0.2, -0.1], [0.5, 0.25], counts)
    t0, t1 = (grid.origin[a] + grid.spacing[a] * np.indices(grid.shape)[a] for a in range(2))
    values = 3.0 * t0 * t0 - t0 * t1 + 2.0 * t1 * t1
    for axis, want in ((0, 6.0), (1, 4.0)):
        got = kc.grids.grid_second_derivative(values, grid, axis)
        assert got == pytest.approx(np.full(grid.shape, want), rel=1e-12)


@pytest.mark.parametrize("stencil, counts, node, order", [
    # measured: first derivative 2.03 (first node), 2.00 (interior), 1.97 (last node);
    # second derivative 2.05, 2.00, 1.96, and 1.02 and 0.98 on the 3-point boundary
    (kc.grid_derivative, 5, 0, 2.0),
    (kc.grid_derivative, 5, 2, 2.0),
    (kc.grid_derivative, 5, -1, 2.0),
    (kc.grids.grid_second_derivative, 4, 0, 2.0),
    (kc.grids.grid_second_derivative, 5, 2, 2.0),
    (kc.grids.grid_second_derivative, 4, -1, 2.0),
    (kc.grids.grid_second_derivative, 3, 0, 1.0),  # below 4 nodes the boundary is first order
    (kc.grids.grid_second_derivative, 3, 1, 2.0),
    (kc.grids.grid_second_derivative, 3, -1, 1.0),
])
def test_difference_stencils_have_their_documented_order_of_accuracy(stencil, counts, node, order):
    """The slope of log|error| against log h on exp(t), whose derivatives are all exp(t), with
    the node kept at t = 0.3 while the spacing halves from 0.1 to 0.0125."""
    hs = 0.1 / 2.0 ** np.arange(4)
    errors = []
    for h in hs:
        grid = GridSpec([0.3 - (node % counts) * h], [h], [counts])
        errors.append(abs(stencil(np.exp(grid.axis(0)), grid, 0)[node] - np.exp(0.3)))
    assert np.polyfit(np.log(hs), np.log(errors), 1)[0] == pytest.approx(order, abs=0.3)


def test_a_scalar_closed_form_samples_to_one_column():
    base = BaseMap.from_function(GRID, lambda t: t[0] * t[1])
    assert base.values.shape == GRID.shape + (1,)
    assert base.values.tobytes() == per_node(lambda t: [t[0] * t[1]], GRID, (1,)).tobytes()


# -- whole-grid sampling against the per-node path it replaced --------------------------

def per_node_solution_map(chart, grid, f):
    """The sampled solution map one node at a time: a DarbouxPoint per node for the values, one
    jacobian pass per node for (dq, dp, dz)."""
    n, k = chart.n, chart.k

    def flat(t):
        q, p, z = f(list(t))
        return list(q) + [p[a][i] for a in range(k) for i in range(n)] + list(z)

    pts = [DarbouxPoint(*f(list(grid.t(idx)))) for idx in grid.indices()]
    values = [np.array([getattr(pt, b) for pt in pts], dtype=float).reshape(grid.shape + s)
              for b, s in (("q", (n,)), ("p", (k, n)), ("z", (k,)))]
    derivs = []
    for idx in grid.indices():
        J = np.array(dm.jacobian(flat, [float(v) for v in grid.t(idx)])[1], dtype=float)
        derivs.append((J[:n].T, np.transpose(J[n:n + k * n].reshape(k, n, k), (2, 0, 1)), J[n + k * n:].T))
    return values, [np.array(d).reshape(grid.shape + d[0].shape) for d in zip(*derivs)]


def per_node_reference(f, grid, with_z):
    """``reference_base`` one node at a time, as floats."""
    def base(t):
        q, _, z = f(list(t))
        return [float(v) for v in (list(q) + list(z) if with_z else q)]

    return base, per_node(base, grid, (len(base(grid.t((0,) * grid.k))),))


SOLUTIONS = [(name, key) for name in corpus.EXAMPLE_NAMES for key in corpus.load(name).solutions]


def _grids(entry, seed):
    """The default grid and a seeded smaller one inside its extent."""
    g, rng = entry.default_grid, np.random.default_rng(seed)
    return g, GridSpec(g.origin + rng.uniform(0.0, 0.5, g.k) * g.spacing,
                       g.spacing * rng.uniform(0.5, 0.9, g.k), rng.integers(3, 7, g.k))


@pytest.mark.parametrize("name, key", SOLUTIONS)
def test_closed_forms_and_references_sample_bit_for_bit_as_node_by_node(name, key):
    entry = corpus.load(name).solutions[key]
    f = entry.build(dict(entry.defaults))
    for grid in _grids(entry, 11):
        psi = corpus.analytic(name, key, grid=grid)
        values, derivs = per_node_solution_map(psi.chart, grid, f)
        assert [a.tobytes() for a in (psi.q, psi.p, psi.z)] == [a.tobytes() for a in values]
        assert all(a.flags.c_contiguous for a in (psi.q, psi.p, psi.z))
        assert [a.tobytes() for a in psi.derivatives()] == [a.tobytes() for a in derivs]
        for with_z in (False, True):
            refusing, want = per_node_reference(f, grid, with_z)
            lanes = BaseMap.from_function(grid, corpus.reference_base(name, key, with_z=with_z))
            assert lanes.values.tobytes() == want.tobytes()
            # the float() closure refuses lanes and takes the node-by-node path: the same bits
            assert BaseMap.from_function(grid, refusing).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, key, grid", [
    ("telegrapher", "exponential", GridSpec([0.0, 0.0], [1e-3, 1e-3], [12, 10])),
    ("membrane", "separable", GridSpec([0.0, 0.0, 0.0], [5e-4, 5e-4, 5e-4], [5, 4, 5])),
])
def test_second_order_residual_of_a_closed_base_map_as_node_by_node(name, key, grid):
    ex = corpus.load(name)
    entry = ex.solutions[key]
    f = entry.build(dict(entry.defaults))
    closed = corpus.closed_base_map(grid, lambda t: f(t)[0])

    def func(t):  # the per-node closed base map: float values, one jacobian per node
        return np.array([float(v) for v in f(list(t))[0]], dtype=float)

    def derivative(t):
        return np.array(dm.jacobian(lambda ts: list(f(ts)[0]), [float(v) for v in t])[1], dtype=float).T

    values = per_node(func, grid, (closed.d,))
    old = BaseMap(grid, values, closed_form=func, closed_derivative=derivative)
    assert closed.values.tobytes() == values.tobytes()
    assert closed.derivatives().tobytes() == per_node(derivative, grid, (grid.k, closed.d)).tobytes()
    h = ex.hamiltonian()
    for mode in ("standard", "evolution"):
        got = kc.second_order_residual(h, closed, mode)
        assert got.tobytes() == kc.second_order_residual(h, old, mode).tobytes()


@pytest.mark.parametrize("zx", [
    lambda t, u: u * float("inf"),  # on every node: the lane pass gives it, then the nodes refuse it
    lambda t, u: float("inf") if t[0] == GRID.origin[0] and t[1] > GRID.origin[1] else u,  # two nodes
])
def test_a_non_finite_point_is_refused_as_node_by_node(zx):
    def f(t):
        u = 1.0 + t[0] * t[1]
        return [u], [[u], [2.0 * u]], [u, zx(t, u)]

    with pytest.raises(kc.ShapeError) as old:
        per_node_solution_map(kc.ChartSpec(1, 2), GRID, f)
    with pytest.raises(kc.ShapeError) as new:
        corpus.closed_solution_map(kc.ChartSpec(1, 2), GRID, f)
    assert str(new.value) == str(old.value) == "z contains non-finite entries"


def test_a_closed_point_of_another_shape_is_refused_as_node_by_node():
    def f(t):
        u = 1.0 + t[0] * t[1]
        return [u, u] if t[0] > GRID.origin[0] else [u], [[u], [u]], [u, u]

    chart = kc.ChartSpec(1, 2)
    with pytest.raises(kc.ShapeError, match=r"entry 0 has shape \(2,\) at grid node \(1, 0\)"):
        SolutionMap.from_function(chart, GRID, lambda t: DarbouxPoint(*f(list(t))))
    with pytest.raises(kc.ShapeError, match=r"point shapes \(2,\)/\(2, 1\)/\(2,\) do not fit chart n=1, k=2"):
        corpus.closed_solution_map(chart, GRID, f)


def test_a_floating_point_error_on_the_node_by_node_path_names_the_node():
    """numpy scalars overflow under the error state of the lane pass: no warning, one error."""
    grid = GridSpec([0.0, 700.0], [1.0, 5.0], [3, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kc.ShapeError, match=r"not finite at grid node \(0, 2\): overflow"):
            BaseMap.from_function(grid, lambda t: [np.exp(t[1])])
        nan = BaseMap.from_function(grid, lambda t: [float("nan") * t[0]])  # no floating-point error
    assert np.isnan(nan.values).all()
