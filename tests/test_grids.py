"""Sampled maps: the node sampler and the one source of node derivatives per map."""

import dataclasses

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus
from kcontact import dual as dm
from kcontact.grids import BaseMap, GridSpec, SolutionMap

GRID = GridSpec([0.1, -0.3], [0.013, 0.07], [4, 3])


def per_node(fn, grid, shape):
    return np.array([fn(grid.t(idx)) for idx in grid.indices()], dtype=float).reshape(grid.shape + shape)


def test_the_sampler_calls_once_per_node_at_the_coordinates_of_grid_t():
    grid = GridSpec([0.1, -0.3, 0.7], [0.013, 0.07, 1e-3], [3, 4, 5])
    seen = []
    base = BaseMap.from_function(grid, lambda t: seen.append(t.copy()) or [t[0] * t[2]])
    assert [t.tobytes() for t in seen] == [grid.t(idx).tobytes() for idx in grid.indices()]
    assert base.values.tobytes() == per_node(lambda t: [t[0] * t[2]], grid, (1,)).tobytes()


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


def test_a_scalar_closed_form_samples_to_one_column():
    base = BaseMap.from_function(GRID, lambda t: t[0] * t[1])
    assert base.values.shape == GRID.shape + (1,)
    assert base.values.tobytes() == per_node(lambda t: [t[0] * t[1]], GRID, (1,)).tobytes()
