"""Built-in examples: registry, closed-form self-tests, parameter
identifications, the effective-damping variant, and the balance-law model."""

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus
from kcontact import dual as dm
from kcontact.corpus import ThermoFields, thermo_hamiltonian, thermo_map
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
    "separable mode": (_constraint("membrane", "separable"), {"mode": "bogus"},
                       "mode parameter must be standard or evolution"),
}


@pytest.mark.parametrize("case", CONSTRAINTS)
def test_a_parameter_override_breaking_a_constraint_raises_naming_it(case):
    call, override, message = CONSTRAINTS[case]
    with pytest.raises(kc.ContractError, match=message):
        call(override)


def test_monotone_inversion_refuses_nested_duals_with_a_contract_error():
    sol = corpus.load("hunter-saxton").solutions["logarithmic"]
    f = sol.build(dict(sol.defaults))
    with pytest.raises(kc.ContractError, match="monotone inversion supports one dual level"):
        dm.derive2(lambda t: f(t)[0][0], [0.1, 0.6])


@pytest.mark.parametrize("name,key", ALL_SOLUTIONS)
def test_every_solution_builds_a_closed_form_on_its_default_grid(name, key):
    ex = corpus.load(name)
    entry = ex.solutions[key]
    assert isinstance(entry.default_grid, GridSpec)
    f = entry.build(dict(entry.defaults))
    assert callable(f)
    q, p, z = f(list(entry.default_grid.origin))
    n, k = ex.chart.n, ex.chart.k
    assert [np.shape(q), np.shape(p), np.shape(z)] == [(n,), (k, n), (k,)]


def _lifted_logarithmic(P, grid):
    """The logarithmic branch as its base map lifted through ``log-zind``: the reference
    for the closed form that composes the two."""
    mu, c, C, delta = P["mu"], P["c"], P["C"], P["delta"]
    entry = corpus.load("hunter-saxton").sections["log-zind"]
    section = entry.build({key: P[key] for key in entry.defaults})

    def G(r):
        return delta * (-0.5 * r * r / mu + r / (mu * mu) - dm.log(1.0 + mu * r) / mu ** 3)

    def base(t):
        r = corpus._monotone_invert(G, t[1] + c * t[0] + C)
        return [delta * r * r - c]

    return kc.lift(section, corpus.closed_base_map(grid, base)), base, section


@pytest.mark.parametrize("over,grid", [
    ({}, None),
    ({"delta": 1.0}, GridSpec([0.0, -2.0], [0.02, 0.02], [9, 9])),  # the simulate window of test_cli
])
def test_logarithmic_closed_form_matches_its_lifted_base_map(over, grid):
    entry = corpus.load("hunter-saxton").solutions["logarithmic"]
    P = {**entry.defaults, **over}
    grid = grid or entry.default_grid
    psi = corpus.analytic("hunter-saxton", "logarithmic", over, grid=grid)
    want, base, section = _lifted_logarithmic(P, grid)
    for a, b in zip((psi.q, psi.p, psi.z), (want.q, want.p, want.z)):
        assert a.tobytes() == b.tobytes()
    (dq, dp, dz), (wq, wp, wz) = psi.derivatives(), want.derivatives()
    assert dq.tobytes() == wq.tobytes()
    # nested duals through the section replace the product with the section Jacobian
    np.testing.assert_allclose(dp, wp, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(dz, wz, rtol=1e-15, atol=0.0)
    q_only = corpus.reference_base("hunter-saxton", "logarithmic", over)
    with_z = corpus.reference_base("hunter-saxton", "logarithmic", over, with_z=True)
    for idx in grid.indices():
        t = list(grid.t(idx))
        q = [float(v) for v in base(t)]
        assert q_only(t) == q and with_z(t) == q + [float(v) for v in section.z_at(q)]


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
    f = sol.build({**sol.defaults, "delta": 1.0})
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


def _thermo_residual(fields, U, Phi, grid, mode):
    return kc.map_residual(thermo_map(fields, grid), thermo_hamiltonian(grid.k, U, Phi), mode)


@pytest.mark.parametrize("mode", ["standard", "evolution"])
def test_thermo_pure_balance_constitutive_zero(mode):
    k = 2
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [5, 5])
    fields = _const_fields(grid, k, xi=0.3)
    res = _thermo_residual(fields, lambda xi, beta, V: 0.0, lambda N, T, P: 0.0, grid, mode)
    assert res.r_q.max() <= 1e-14
    assert res.r_p.max() <= 1e-14
    assert res.r_z.max() <= 1e-14


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

    res = _thermo_residual(fields, lambda xi, beta, V: 0.0, Phi, grid, "standard")
    assert res.r_q.max() <= 1e-10
    assert res.r_p.max() <= 1e-14


def test_thermo_entropy_blocks_differ_by_hamiltonian(rng):
    k = 2
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [4, 4])
    fields = _const_fields(grid, k, xi=0.2, N=np.array([0.3, 0.1]))
    fields.V[...] = 0.5

    def U(xi, beta, V):
        return 0.25 * xi * xi + 0.5 * V

    def Phi(N, T, P):
        return 0.5 * sum(x * x for x in N) + sum(x for x in P)

    std, ev = (_thermo_residual(fields, U, Phi, grid, mode) for mode in ("standard", "evolution"))
    for idx in grid.indices():
        hval = U(fields.xi[idx], fields.beta[idx], fields.V[idx]) + Phi(
            list(fields.N[idx]), [[0.0] * k] * k, list(fields.P[idx])
        )
        source = float(np.sum(fields.N[idx] ** 2))  # sum p dh/dp: only N . dPhi/dN = |N|^2 is not 0
        # S is constant: the standard residual is |h - source|, the evolution one |source|
        assert std.r_z[idx] == pytest.approx(abs(hval - source), rel=1e-12)
        assert ev.r_z[idx] == pytest.approx(source, rel=1e-12)


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
    with pytest.raises(kc.ShapeError, match="^thermo field arrays do not match the grid$"):
        _thermo_residual(bad, lambda *a: 0.0, lambda *a: 0.0, grid, "standard")


def _ref_thermo_residual(fields, U, Phi, grid):
    """The per-node loop the balance-law residual replaced: two scalar gradient passes per node."""
    from kcontact.grids import grid_derivative

    k, shp = grid.k, grid.shape
    d_xi = np.stack([grid_derivative(fields.xi, grid, m) for m in range(k)], axis=-1)
    d_beta = np.stack([grid_derivative(fields.beta, grid, m) for m in range(k)], axis=-1)
    d_V = np.stack([grid_derivative(fields.V, grid, m) for m in range(k)], axis=-1)
    div_N = sum(grid_derivative(fields.N[..., m], grid, m) for m in range(k))
    div_T = sum(grid_derivative(fields.T[..., :, m], grid, m) for m in range(k))
    div_P = sum(grid_derivative(fields.P[..., m], grid, m) for m in range(k))
    div_S = sum(grid_derivative(fields.S[..., m], grid, m) for m in range(k))
    out = {name: np.empty(shp + tail) for name, tail in (
        ("c_xi", (k,)), ("c_beta", (k, k)), ("c_V", (k,)), ("b_N", ()), ("b_T", (k,)), ("b_P", ()),
        ("e_std", ()), ("e_ev", ()))}
    for idx in grid.indices():
        xi, V = float(fields.xi[idx]), float(fields.V[idx])
        beta = [float(x) for x in fields.beta[idx]]
        N = [float(x) for x in fields.N[idx]]
        T = [[float(x) for x in row] for row in fields.T[idx]]
        Pfl = [float(x) for x in fields.P[idx]]
        uval, du = dm.derive1(lambda v: U(v[0], v[1:1 + k], v[1 + k]), [xi] + beta + [V])

        def phi_flat(v):
            return Phi(v[:k], [[v[k + l * k + m] for m in range(k)] for l in range(k)], v[k + k * k:])

        pval, dphi = dm.derive1(phi_flat, N + [T[l][m] for l in range(k) for m in range(k)] + Pfl)
        dPhi_N, dPhi_P = dphi[:k], dphi[k + k * k:]
        dPhi_T = np.array(dphi[k:k + k * k], dtype=float).reshape(k, k)
        out["c_xi"][idx] = d_xi[idx] - np.array(dPhi_N, dtype=float)
        out["c_beta"][idx] = d_beta[idx] + dPhi_T
        out["c_V"][idx] = d_V[idx] - np.array(dPhi_P, dtype=float)
        out["b_N"][idx] = div_N[idx] + du[0]
        out["b_T"][idx] = div_T[idx] - np.array(du[1:1 + k], dtype=float)
        out["b_P"][idx] = div_P[idx] + du[1 + k]
        source = (sum(N[m] * float(dPhi_N[m]) for m in range(k))
                  + float(np.sum(np.array(T, dtype=float) * dPhi_T))
                  + sum(Pfl[m] * float(dPhi_P[m]) for m in range(k)))
        hval = float(uval) + float(pval)
        out["e_std"][idx] = div_S[idx] - (source - hval)
        out["e_ev"][idx] = div_S[idx] - source
    return out


def _thermo_random_fields(grid, rng):
    k, shp = grid.k, grid.shape
    return ThermoFields(*(0.5 + rng.random(shp + tail) for tail in
                          ((), (k,), (), (k,), (k, k), (k,), (k,))))


def _thermo_U(xi, beta, V):
    return xi * xi / V + dm.exp(0.3 * xi) * sum(b * b / (1.0 + b) for b in beta) + 1.0 / (xi * V)


def _thermo_Phi(N, T, P):
    k = len(N)
    return (sum(N[m] * N[m] / P[m] for m in range(k))
            + sum(T[l][m] * T[l][m] * T[m][l] / (N[l] + P[m]) for l in range(k) for m in range(k))
            + dm.sqrt(sum(x for x in P)) / N[0])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mode", ["standard", "evolution"])
def test_thermo_residual_matches_the_per_node_loop(k, mode):
    grid = GridSpec([0.0] * k, [0.07] * k, [5 - (k == 3)] * k)
    fields = _thermo_random_fields(grid, np.random.default_rng(100 + k))
    res = _thermo_residual(fields, _thermo_U, _thermo_Phi, grid, mode)
    ref = _ref_thermo_residual(fields, _thermo_U, _thermo_Phi, grid)
    # r_q is the largest constitutive block and r_p the largest balance block, as the loop gives them
    for name, got, blocks in (("r_q", res.r_q, (ref["c_xi"], ref["c_beta"], ref["c_V"])),
                              ("r_p", res.r_p, (ref["b_N"][..., None], ref["b_T"], ref["b_P"][..., None]))):
        want = np.max(np.abs(np.concatenate([b.reshape(grid.shape + (-1,)) for b in blocks], axis=-1)), axis=-1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    # the entropy source is summed in the chart's row-major order, where the loop sums it
    # block by block: the two agree to rounding
    want = np.abs(ref["e_std" if mode == "standard" else "e_ev"])
    assert res.r_z.shape == want.shape and np.all(np.abs(res.r_z - want) <= 1e-13 * want)


@pytest.mark.parametrize("mode", ["standard", "evolution"])
def test_thermo_residual_lanes_give_the_node_by_node_values(mode):
    # float() sends the pass node by node: the values are those of the lane pass
    k = 2
    grid = GridSpec([0.0] * k, [0.07] * k, [4, 5])
    fields = _thermo_random_fields(grid, np.random.default_rng(7))

    def U_float(xi, beta, V):
        return _thermo_U(xi, beta, V) + 0.0 * float(xi)

    lanes = _thermo_residual(fields, _thermo_U, _thermo_Phi, grid, mode)
    nodes = _thermo_residual(fields, U_float, _thermo_Phi, grid, mode)
    for a, b in zip(vars(lanes).values(), vars(nodes).values()):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["xi", "beta", "V", "N", "T", "P", "S"])
def test_thermo_non_finite_field_raises_shape_error(name):
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [4, 4])
    fields = _thermo_random_fields(grid, np.random.default_rng(3))
    getattr(fields, name)[(2, 1)] = np.nan
    with pytest.raises(kc.ShapeError, match="non-finite"):
        _thermo_residual(fields, _thermo_U, _thermo_Phi, grid, "standard")


@pytest.mark.parametrize("call, error, message", [
    (lambda: corpus.analytic("telegrapher", "exponential", params={"zeta": 1.0}),
     kc.ConfigError, "unknown parameter 'zeta' for solution exponential; known: \\['C0', "),
    (lambda: corpus.solution_modes("hunter-saxton", "quadratic", params={"zeta": 1.0}),
     kc.ConfigError, "unknown parameter 'zeta' for solution quadratic"),
    (lambda: corpus.load("membrane").hamiltonian({"zeta": 1.0}),
     kc.ConfigError, "unknown parameter 'zeta' for example membrane"),
    (lambda: corpus.analytic("telegrapher", "exponential", params={"kappa": "abc"}),
     kc.ConfigError, "parameter 'kappa' expects a number, got 'abc'"),
    (lambda: corpus.load("telegrapher").hamiltonian({"kappa": [1.0]}),
     kc.ConfigError, "parameter 'kappa' expects a number, got \\[1.0\\]"),
    (lambda: corpus.reference_base("telegrapher", "exponential", params={"zeta": 1.0, "u0": np.inf}),
     kc.ConfigError, "parameter 'u0' must be a finite number, got inf"),
    (lambda: corpus.analytic("telegrapher", "exponential", params={"kappa": 0.0, "a": 1.0}),
     kc.ContractError, "parameter 'kappa' must be nonzero: the exponential profile divides by it"),
    (lambda: corpus.analytic("telegrapher-quadratic-z", "exponential-effective-damping", params={"kappa": 0.0}),
     kc.ContractError, "parameter 'kappa' must be nonzero: the effective-damping profile"),
    (lambda: corpus.load("telegrapher-quadratic-z").hamiltonian({"kappa": 0.0}),
     kc.ContractError, "parameter 'kappa' must be nonzero: the telegrapher Hamiltonian divides by it"),
    (lambda: corpus.analytic("membrane", "separable", params={"c": 0.0}),
     kc.ContractError, "parameter 'c' must be nonzero: the membrane Hamiltonian divides by it"),
    (lambda: corpus.load("membrane").hamiltonian({"c": 0.0}),
     kc.ContractError, "parameter 'c' must be nonzero: the membrane Hamiltonian divides by it"),
])
def test_the_parameter_resolver_refuses_what_the_cli_refuses(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_the_parameter_resolver_keeps_text_modes_and_none_defaults():
    assert corpus.solution_modes("telegrapher", "exponential", {"a": None}) == ("standard", "evolution")
    with pytest.raises(kc.ContractError, match="mode parameter must be standard or evolution"):
        corpus.analytic("first-order-dissipative", "standing-standard", params={"mode": "other"})


@pytest.mark.parametrize("name", corpus.EXAMPLE_NAMES)
def test_every_section_kind_labels_the_class_its_build_returns(name):
    # the CLI reads the base from the built section; ``kind`` only labels ``kcontact list``
    for key, entry in corpus.load(name).sections.items():
        gamma = entry.build(dict(entry.defaults))
        assert type(gamma) is {"zind": kc.SectionZInd, "zdep": kc.SectionZDep}[entry.kind], key
