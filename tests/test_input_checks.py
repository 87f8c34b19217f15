"""Input checks of the grids, integration, lift, residual and complete-family entry points."""

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus
from kcontact.grids import BaseField, BaseMap, GridSpec, SolutionMap

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
    "complete family without slices": (
        lambda: kc.verify_complete(corpus.load("telegrapher").families["complete"]({"lambda": 1.0}),
                                   _tel()[0], "standard", np.empty((0, 2)), count=5),
        kc.ContractError, "no parameter rows"),
}


@pytest.mark.parametrize("case", CASES)
def test_input_check_raises(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()
