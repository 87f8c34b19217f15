"""Built-in examples: registry, closed-form self-tests, parameter
identifications, the effective-damping variant, and the balance-law model."""

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus
from kcontact import dual as dm
from kcontact.corpus import ThermoFields, thermo_balance_residual
from kcontact.grids import GridSpec

from conftest import random_point


def test_registry_and_unknown_key():
    assert set(corpus.EXAMPLE_NAMES) == {
        "telegrapher", "telegrapher-quadratic-z", "hunter-saxton",
        "first-order-dissipative", "membrane", "thermo-eit",
    }
    with pytest.raises(kc.ConfigError):
        corpus.load("nope")
    with pytest.raises(kc.ConfigError):
        corpus.analytic("telegrapher", "nope")
    with pytest.raises(kc.ConfigError, match=r"known: \['linear', 'logarithmic', 'quadratic'\]"):
        corpus.solution_modes("hunter-saxton", "nope")
    with pytest.raises(kc.ConfigError, match=r"known: \['exponential'\]"):
        corpus.reference_base("telegrapher", "nope")


def test_displayed_hamiltonian_values():
    pt = kc.DarbouxPoint([1.0], [[2.0], [3.0]], [0.5, -0.5])
    tel = corpus.load("telegrapher").hamiltonian({"kappa": 2.0, "lambda": 1.0, "epsilon": 0.4})
    assert tel(pt) == pytest.approx(0.5 * (4.0 - 9.0 / 2.0) + 0.2 + 0.5)
    hs = corpus.load("hunter-saxton").hamiltonian({"mu": 3.0})
    assert hs(pt) == pytest.approx(-12.0 + 8.0 + 6.0 + 3.0)
    fo = corpus.load("first-order-dissipative").hamiltonian({"lambda": 2.0})
    assert fo(pt) == pytest.approx(0.5 * (1.0 + 9.0) + 1.0)
    mem = corpus.load("membrane")
    assert mem.chart.k == 3 and mem.chart.n == 1
    pt3 = kc.DarbouxPoint([1.0], [[2.0], [3.0], [1.0]], [0.5, 0.0, 0.0])
    hm = mem.hamiltonian({"c": 1.0, "kappa": 1.0, "lambda": 4.0})
    assert hm(pt3) == pytest.approx(0.5 * (4.0 - 9.0 - 1.0) + 0.5 + 2.0)


def test_unknown_parameter_rejected():
    with pytest.raises(kc.ConfigError):
        corpus.load("telegrapher").hamiltonian({"zeta": 1.0})


def test_line_constant_identifications():
    assert corpus.telegrapher_params_from_line(0.0, 2.0, 0.0, 0.5) == pytest.approx((1.0, 0.0, 0.0))
    assert corpus.telegrapher_params_from_line(1.0, 1.0, 0.0, 1.0) == pytest.approx((1.0, 1.0, 0.0))
    assert corpus.telegrapher_params_from_line(1.0, 2.0, 1.0, 0.5) == pytest.approx((1.0, 2.5, 1.0))
    with pytest.raises(kc.ContractError):
        corpus.telegrapher_params_from_line(1.0, 0.0, 0.0, 1.0)


ALL_SOLUTIONS = [
    ("telegrapher", "exponential"),
    ("telegrapher-quadratic-z", "exponential-effective-damping"),
    ("telegrapher-quadratic-z", "exponential-effective-damping-evolution"),
    ("hunter-saxton", "linear"),
    ("hunter-saxton", "quadratic"),
    ("hunter-saxton", "logarithmic"),
    ("first-order-dissipative", "standing-standard"),
    ("first-order-dissipative", "standing-evolution"),
    ("membrane", "separable"),
    ("membrane", "separable-evolution"),
]


@pytest.mark.parametrize("name,key", ALL_SOLUTIONS)
def test_every_solution_passes_its_own_residual(name, key):
    """Build-time self-test gate: each shipped closed form satisfies the
    field equations for its declared modes at its declared tolerance."""
    ex = corpus.load(name)
    psi = corpus.analytic(name, key)
    h = ex.hamiltonian()
    tol = ex.solutions[key].tol
    for mode in corpus.solution_modes(name, key):
        assert kc.map_residual(psi, h, mode=mode).max() <= tol


def test_solution_constraints_name_the_equation():
    with pytest.raises(kc.ContractError, match="lambda c a"):
        corpus.analytic("telegrapher", "exponential", params={"a": 0.1})
    with pytest.raises(kc.ContractError, match="a\\^2 \\+ b\\^2"):
        corpus.analytic("membrane", "separable", params={"lambda": 0.0})
    with pytest.raises(kc.ContractError, match="mu"):
        corpus.analytic("hunter-saxton", "linear", params={"mu": 0.0})


def _build(name, key):
    """A section, or a solution's closed form without its constraint, at overridden defaults."""
    ex = corpus.load(name)
    entry = ex.sections.get(key) or ex.solutions[key]
    return lambda over: entry.build({**entry.defaults, **over})


def _constraint(name, key):
    entry = corpus.load(name).solutions[key]
    return lambda over: entry.constraint({**entry.defaults, **over})


CONSTRAINTS = {
    "negative line resistance": (lambda over: corpus.telegrapher_params_from_line(**over),
                                 {"R": -1.0, "L": 1.0, "G": 0.0, "C_cap": 1.0},
                                 "series resistance and shunt conductance must be non-negative"),
    "degenerate slope quadratic": (_build("telegrapher", "classical-zind"), {"kappa": 0.25},
                                   "degenerates when c\\^2 equals 1/kappa"),
    "slope quadratic without real roots": (_build("telegrapher", "classical-zind"),
                                           {"lambda": 0.0, "epsilon": 1.0}, "has no real roots"),
    "zero exponential slope": (_constraint("telegrapher", "exponential"), {"a": 0.0},
                               "needs a nonzero slope a"),
    "effective damping without damping": (
        _constraint("telegrapher-quadratic-z", "exponential-effective-damping"), {"lambda": 0.0},
        "needs lambda, a, and c nonzero"),
    "effective damping mode": (_constraint("telegrapher-quadratic-z", "exponential-effective-damping"),
                               {"mode": "other"}, "mode parameter must be standard or evolution"),
    "explicit hunter-saxton section at mu = 0": (_build("hunter-saxton", "standard-zind"), {"mu": 0.0},
                                                 "the explicit family needs mu != 0"),
    "square-root section at mu = 0": (_build("hunter-saxton", "log-zind"), {"mu": 0.0},
                                      "the square-root slope family needs mu > 0"),
    "non-commuting section without admixture": (_build("hunter-saxton", "noncommuting-zind"), {"W": 0.0},
                                                "needs mu > 0 and W != 0"),
    "logarithmic closed form at mu = 0": (_build("hunter-saxton", "logarithmic"), {"mu": 0.0},
                                          "the logarithmic branch needs mu > 0"),
    "logarithmic branch selector": (_constraint("hunter-saxton", "logarithmic"), {"delta": 0.5},
                                    "branch selector delta must be \\+1 or -1"),
    "standing wave mode": (_constraint("first-order-dissipative", "standing-standard"), {"mode": "other"},
                           "mode parameter must be standard or evolution"),
    "separable profile without growth": (_build("membrane", "separable-evolution"),
                                         {"kappa": 0.0, "c": 0.0}, "needs 2s \\+ lambda != 0"),
    "separable growth rate off its equation": (_constraint("membrane", "separable"), {"kappa": -1e6},
                                               "violates s\\^2 \\+ lambda s"),
}


@pytest.mark.parametrize("case", CONSTRAINTS)
def test_a_parameter_override_breaking_a_constraint_raises_naming_it(case):
    call, override, message = CONSTRAINTS[case]
    with pytest.raises(kc.ContractError, match=message):
        call(override)


def test_monotone_inversion_refuses_nested_duals_with_a_contract_error():
    sol = corpus.load("hunter-saxton").solutions["logarithmic"]
    base, _ = sol.build(dict(sol.defaults))
    with pytest.raises(kc.ContractError, match="monotone inversion supports one dual level"):
        dm.derive2(lambda t: base(t)[0], [0.1, 0.6])


def test_telegrapher_exponential_mode_gating():
    # the standard check also needs the paired constants, the evolution one does not
    assert corpus.solution_modes("telegrapher", "exponential") == ("standard", "evolution")
    modes = corpus.solution_modes("telegrapher", "exponential", params={"C0": 1.0})
    assert modes == ("evolution",)
    psi = corpus.analytic("telegrapher", "exponential", params={"C0": 1.0})
    h = corpus.load("telegrapher").hamiltonian()
    assert kc.map_residual(psi, h, "evolution").max() <= 1e-10
    assert kc.map_residual(psi, h, "standard").max() == pytest.approx(1.0, abs=1e-10)


def test_quadratic_z_effective_damping_pde(rng):
    """The quadratic coupling turns the damping coefficient into the first
    extra coordinate of the integrated solution."""
    for key, mode in [("exponential-effective-damping", "standard"),
                      ("exponential-effective-damping-evolution", "evolution")]:
        ex = corpus.load("telegrapher-quadratic-z")
        grid = GridSpec([0.0, 0.0], [1e-3, 1e-3], [9, 9])
        psi = corpus.analytic(ex.name, key, params={"u0": 0.25}, grid=grid)
        h = ex.hamiltonian()
        assert kc.map_residual(psi, h, mode=mode).max() <= 1e-10
        P = dict(ex.defaults)
        res = ex.pde_residual({"u": psi.q[..., 0], "zt": psi.z[..., 0]}, grid, P)
        assert np.max(np.abs(res)) <= 1e-6


def test_hs_linear_solves_displayed_pde_exactly():
    ex = corpus.load("hunter-saxton")
    grid = GridSpec([0.0, 0.0], [0.05, 0.05], [9, 9])
    psi = corpus.analytic("hunter-saxton", "linear", grid=grid)
    res = ex.pde_residual({"u": psi.q[..., 0]}, grid, dict(ex.defaults))
    assert np.max(np.abs(res)) <= 1e-10


def test_logarithmic_branches_and_inversion(rng):
    h = corpus.load("hunter-saxton").hamiltonian()
    psi = corpus.analytic("hunter-saxton", "logarithmic")
    assert kc.map_residual(psi, h, "evolution").max() <= 1e-6
    psi2 = corpus.analytic("hunter-saxton", "logarithmic",
                           params={"delta": 1.0, "C": -2.0, "c": -3.0},
                           grid=GridSpec([0.0, 0.5], [0.02, 0.02], [7, 7]))
    assert kc.map_residual(psi2, h, "evolution").max() <= 1e-6
    with pytest.raises(kc.ContractError):
        corpus.analytic("hunter-saxton", "logarithmic", params={"mu": -1.0})


def test_reference_base_is_the_q_and_z_of_the_solution_point_map():
    sol = corpus.load("hunter-saxton").solutions["logarithmic"]
    f = sol._point_map({**sol.defaults, "delta": 1.0})
    q_only = corpus.reference_base("hunter-saxton", "logarithmic", {"delta": 1})
    with_z = corpus.reference_base("hunter-saxton", "logarithmic", {"delta": 1}, with_z=True)
    for t in ([0.0, -2.0], [0.08, -1.9]):
        q, _, z = f(t)
        assert q_only(t) == [float(v) for v in q]
        assert with_z(t) == [float(v) for v in q] + [float(v) for v in z]


def test_expected_cases_reference_real_entries():
    for name in corpus.EXAMPLE_NAMES:
        ex = corpus.load(name)
        for case in ex.expected:
            if case.solution is not None:
                assert case.solution in ex.solutions
            else:
                assert case.section in ex.sections
            assert case.mode in ("standard", "evolution")
            assert case.verdict in ("PASS", "FAIL", "error:3", "error:5")


# -- thermodynamic balance-law model ------------------------------------------------

def _const_fields(grid, k, xi=0.0, N=None):
    shp = grid.shape
    return ThermoFields(
        xi=np.full(shp, xi),
        beta=np.zeros(shp + (k,)),
        V=np.zeros(shp),
        N=np.zeros(shp + (k,)) if N is None else np.broadcast_to(N, shp + (k,)).copy(),
        T=np.zeros(shp + (k, k)),
        P=np.zeros(shp + (k,)),
        S=np.zeros(shp + (k,)),
    )


def test_thermo_pure_balance_constitutive_zero():
    k = 2
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [5, 5])
    fields = _const_fields(grid, k, xi=0.3)
    res = thermo_balance_residual(fields, U=lambda xi, beta, V: 0.0,
                                  Phi=lambda N, T, P: 0.0, grid=grid)
    assert res.max_constitutive() <= 1e-14
    assert res.max_balance() <= 1e-14
    assert np.max(np.abs(res.entropy_standard)) <= 1e-14
    assert np.max(np.abs(res.entropy_evolution)) <= 1e-14


def test_thermo_quadratic_flux_potential_linear_intensive():
    k = 2
    grid = GridSpec([0.0, 0.0], [0.05, 0.05], [5, 5])
    Nconst = np.array([0.7, -0.4])
    fields = _const_fields(grid, k, N=Nconst)
    # the constitutive block wants d xi / dx^mu = N^mu: take xi = N . x
    for idx in grid.indices():
        fields.xi[idx] = float(np.dot(Nconst, grid.t(idx)))

    def Phi(N, T, P):
        return 0.5 * sum(x * x for x in N)

    res = thermo_balance_residual(fields, U=lambda xi, beta, V: 0.0, Phi=Phi, grid=grid)
    assert np.max(np.abs(res.constitutive_xi)) <= 1e-10
    assert res.max_balance() <= 1e-14


def test_thermo_entropy_blocks_differ_by_hamiltonian(rng):
    k = 2
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [4, 4])
    fields = _const_fields(grid, k, xi=0.2, N=np.array([0.3, 0.1]))
    fields.V[...] = 0.5

    def U(xi, beta, V):
        return 0.25 * xi * xi + 0.5 * V

    def Phi(N, T, P):
        return 0.5 * sum(x * x for x in N) + sum(x for x in P)

    res = thermo_balance_residual(fields, U=U, Phi=Phi, grid=grid)
    for idx in grid.indices():
        hval = U(fields.xi[idx], fields.beta[idx], fields.V[idx]) + Phi(
            list(fields.N[idx]), [[0.0] * k] * k, list(fields.P[idx])
        )
        # definitions differ by exactly the Hamiltonian value along the fields
        assert res.entropy_standard[idx] - res.entropy_evolution[idx] == pytest.approx(hval)


def test_thermo_example_hamiltonian_consistency(rng):
    ex = corpus.load("thermo-eit")
    h = ex.hamiltonian()
    # the chart packing stores the stress block with a sign: h only sees squares
    pt = random_point(ex.chart, rng)
    N = pt.p[:, 0]
    T = -pt.p[:, 1:1 + ex.chart.k]
    P = pt.p[:, ex.chart.k + 1]
    expected = 0.5 * float(np.sum(N ** 2) + np.sum(T ** 2) + np.sum(P ** 2))
    assert h(pt) == pytest.approx(expected)
    X = kc.canonical_kvf(h, "standard")
    assert max(kc.kvf_residual(X, h, "standard", pt)) <= 1e-12


def test_thermo_shape_mismatch():
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [4, 4])
    fields = _const_fields(grid, 2)
    bad = ThermoFields(fields.xi[:-1], fields.beta, fields.V, fields.N,
                       fields.T, fields.P, fields.S)
    with pytest.raises(kc.ShapeError):
        thermo_balance_residual(bad, U=lambda *a: 0.0, Phi=lambda *a: 0.0, grid=grid)
