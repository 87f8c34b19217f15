"""Canonical field construction, gauge freedom, map residuals, the
conservative-sector lift, and the induced second-order system."""

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus, hdw
from kcontact import dual as dm
from kcontact.grids import BaseMap, GridSpec, SolutionMap
from kcontact.geometry import eval_eta, pair

from conftest import corpus_hamiltonians, random_point

CH12 = kc.ChartSpec(1, 2)

NAN = float("nan")


# -- canonical fields --------------------------------------------------------

def test_canonical_zero_hamiltonian():
    h = kc.ScalarField(CH12, lambda pt: 0.0)
    X = kc.canonical_kvf(h, "standard")
    kt = X.at(kc.DarbouxPoint([0.3], [[0.1], [0.2]], [0.4, 0.5]))
    assert np.max(np.abs(kt.flat())) == 0.0


def test_canonical_telegrapher_components(rng):
    P = {"kappa": 1.5, "lambda": 0.7, "epsilon": 0.3}
    h = corpus.load("telegrapher").hamiltonian(P)
    X = kc.canonical_kvf(h, "standard")
    for _ in range(5):
        pt = random_point(CH12, rng)
        kt = X.at(pt)
        assert kt.comp[0].q[0] == pytest.approx(pt.p[0, 0])
        assert kt.comp[1].q[0] == pytest.approx(-pt.p[1, 0] / P["kappa"])
        trace = kt.comp[0].p[0, 0] + kt.comp[1].p[1, 0]
        assert trace == pytest.approx(-(P["epsilon"] * pt.q[0] + P["lambda"] * pt.p[0, 0]))


def test_standard_vs_evolution_z_difference(rng):
    h = corpus.load("hunter-saxton").hamiltonian()
    Xs = kc.canonical_kvf(h, "standard")
    Xe = kc.canonical_kvf(h, "evolution")
    for _ in range(10):
        pt = random_point(CH12, rng)
        ks, ke = Xs.at(pt), Xe.at(pt)
        for a in range(2):
            assert np.max(np.abs(ks.comp[a].q - ke.comp[a].q)) == 0.0
            assert np.max(np.abs(ks.comp[a].p - ke.comp[a].p)) == 0.0
        dz = sum(ke.comp[a].z[a] - ks.comp[a].z[a] for a in range(2))
        assert dz == pytest.approx(h(pt), rel=1e-12)


@pytest.mark.parametrize("name,h", corpus_hamiltonians())
@pytest.mark.parametrize("mode", ["standard", "evolution"])
def test_canonical_residual_zero_everywhere(name, h, mode, rng):
    X = kc.canonical_kvf(h, mode)
    for _ in range(100):
        pt = random_point(h.chart, rng)
        r = kc.kvf_residual(X, h, mode, pt)
        assert max(r) <= 1e-12


def test_residual_detects_perturbation(rng):
    h = corpus.load("telegrapher").hamiltonian()
    X = kc.canonical_kvf(h, "standard")

    def perturbed(pt):
        kt = X.at(pt)
        kt.comp[0].z[0] += 1e-3
        return kt

    Xp = kc.KVectorField(CH12, perturbed)
    pt = random_point(CH12, rng)
    r_q, r_p, r_z = kc.kvf_residual(Xp, h, "standard", pt)
    assert r_q == 0.0 and r_p <= 1e-12
    assert r_z == pytest.approx(1e-3, abs=1e-12)


# -- gauge freedom ------------------------------------------------------------

def test_gauge_basis_counts_and_membership(rng):
    assert kc.gauge_basis(kc.ChartSpec(2, 1)) == []
    basis = kc.gauge_basis(CH12)
    assert len(basis) == 6
    pt = random_point(CH12, rng)
    flats = []
    for g in basis:
        cov, s = kc.chi(CH12, pt, g.coeffs)
        assert cov.norm() <= 1e-12 and abs(s) <= 1e-12
        flats.append(g.coeffs.flat())
    assert np.linalg.matrix_rank(np.array(flats)) == 6


@pytest.mark.parametrize("mode", ["standard", "evolution"])
def test_gauge_shift_preserves_residual_and_projection(mode, rng):
    h = corpus.load("hunter-saxton").hamiltonian()
    X = kc.canonical_kvf(h, mode)
    for _ in range(25):
        g = kc.random_gauge(CH12, rng)
        Xg = kc.add_gauge(X, g)
        pt = random_point(CH12, rng)
        assert max(kc.kvf_residual(Xg, h, mode, pt)) <= 1e-10
        base, shifted = X.at(pt), Xg.at(pt)
        for a in range(2):
            # base projection untouched, bitwise
            assert np.array_equal(base.comp[a].q, shifted.comp[a].q)
        # z-block changes carry zero component trace
        dz = sum(shifted.comp[a].z[a] - base.comp[a].z[a] for a in range(2))
        assert abs(dz) <= 1e-12


def test_two_solutions_differ_by_kernel_direction(rng):
    h = corpus.load("telegrapher").hamiltonian()
    X = kc.add_gauge(kc.canonical_kvf(h, "standard"), kc.random_gauge(CH12, rng))
    Y = kc.add_gauge(kc.canonical_kvf(h, "standard"), kc.random_gauge(CH12, rng))
    for _ in range(10):
        pt = random_point(CH12, rng)
        diff = X.at(pt) - Y.at(pt)
        cov, s = kc.chi(CH12, pt, diff)
        assert cov.norm() <= 1e-10 and abs(s) <= 1e-10


# -- map residuals ------------------------------------------------------------

def test_map_residual_constant_map_zero_hamiltonian():
    h = kc.ScalarField(CH12, lambda pt: 0.0)
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [5, 5])
    psi = SolutionMap.from_function(
        CH12, grid, lambda t: kc.DarbouxPoint([0.4], [[0.1], [0.2]], [0.3, -0.1])
    )
    res = kc.map_residual(psi, h, "standard")
    assert res.max() <= 1e-14  # boundary stencils leave rounding dust on constants


def test_map_residual_telegrapher_fd_vs_closed():
    grid = GridSpec([0.0, 0.0], [1e-3, 1e-3], [9, 9])
    psi = corpus.analytic("telegrapher", "exponential", params={"u0": 0.1}, grid=grid)
    h = corpus.load("telegrapher").hamiltonian()
    closed = kc.map_residual(psi, h, "standard")
    assert closed.max() <= 1e-10
    # strip the exact derivatives: the difference stencils take over
    fd_psi = SolutionMap(psi.chart, psi.grid, psi.q, psi.p, psi.z)
    fd = kc.map_residual(fd_psi, h, "standard")
    assert fd.max() <= 1e-6
    assert fd.max() > closed.max()


def test_map_residual_hs_quadratic_evolution():
    psi = corpus.analytic("hunter-saxton", "quadratic")
    h = corpus.load("hunter-saxton").hamiltonian()
    assert kc.map_residual(psi, h, "evolution").max() <= 1e-10
    # the standard check must reject it: its z-balance differs by h along the map
    assert kc.map_residual(psi, h, "standard").max() > 1e-2


# -- evolution lift -----------------------------------------------------------

def _canonical_conservative(H):
    k = H.chart.k

    def at(pt):
        g = kc.grad(H, pt)
        comps = []
        for a in range(k):
            P = np.zeros((k, H.chart.n))
            P[a] = -g.d_q / k
            comps.append(kc.Tangent(g.d_p[a], P, np.zeros(k)))
        return kc.KTangent(comps)

    return kc.KVectorField(H.chart, at)


def test_evolution_lift_zero():
    H = kc.ScalarField(CH12, lambda pt: 0.0)
    E = kc.evolution_lift(H, _canonical_conservative(H))
    kt = E.at(kc.DarbouxPoint([0.1], [[0.2], [0.3]], [0.0, 0.0]))
    assert np.max(np.abs(kt.flat())) == 0.0


def test_evolution_lift_wave_energy(rng):
    H = kc.ScalarField(CH12, lambda pt: 0.5 * (pt.p[0, 0] ** 2 - pt.p[1, 0] ** 2))
    E = kc.evolution_lift(H, _canonical_conservative(H))
    pt = kc.DarbouxPoint([0.3], [[1.5], [0.7]], [0.1, -0.4])
    kt = E.at(pt)
    assert kt.comp[0].z == pytest.approx([1.5 ** 2, 0.0])
    assert kt.comp[1].z == pytest.approx([0.0, -(0.7 ** 2)])
    for _ in range(100):
        pt = random_point(CH12, rng)
        kt = E.at(pt)
        etas = eval_eta(CH12, pt)
        for a in range(2):
            assert abs(pair(etas[a], kt.comp[a])) <= 1e-12
        assert max(kc.kvf_residual(E, H, "evolution", pt)) <= 1e-10


def test_evolution_lift_rejects_bad_input():
    H = kc.ScalarField(CH12, lambda pt: 0.5 * pt.p[0, 0] ** 2 + pt.z[0])
    with pytest.raises(kc.ContractError):
        kc.evolution_lift(H, _canonical_conservative(H)).at(
            kc.DarbouxPoint([0.0], [[1.0], [0.0]], [0.0, 0.0])
        )
    H2 = kc.ScalarField(CH12, lambda pt: 0.5 * pt.p[0, 0] ** 2)
    wrong = kc.KVectorField(CH12, lambda pt: kc.KTangent.zero(CH12))
    with pytest.raises(kc.ContractError):
        kc.evolution_lift(H2, wrong).at(kc.DarbouxPoint([0.0], [[1.0], [0.0]], [0.0, 0.0]))


# -- second-order system -------------------------------------------------------

def _interior(arr):
    return arr[tuple(slice(1, -1) for _ in range(arr.ndim - 1))]


def test_second_order_telegrapher_exponential():
    P = {"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0, "c": 2.0}
    a = corpus.telegrapher_quadratic_roots(P["kappa"], P["lambda"], P["epsilon"], P["c"])[1]
    h = corpus.load("telegrapher").hamiltonian({k: P[k] for k in ("kappa", "lambda", "epsilon")})
    grid = GridSpec([0.0, 0.0], [1e-3, 1e-3], [9, 9])
    u0, c, kappa = 0.5, P["c"], P["kappa"]
    qmap = BaseMap.from_function(grid, lambda t: [u0 * np.exp(a * (c * t[0] - t[1] / kappa))])
    res = kc.second_order_residual(h, qmap, "standard")
    assert np.max(np.abs(_interior(res))) <= 1e-6


def test_second_order_membrane_dispersion():
    ex = corpus.load("membrane")
    P = dict(ex.solutions["separable"].defaults)
    h = ex.hamiltonian()
    s = (-P["lambda"] + np.sqrt(P["lambda"] ** 2 - 4 * (P["kappa"] + P["c"] ** 2 * (P["a"] ** 2 + P["b"] ** 2)))) / 2
    assert s ** 2 + P["lambda"] * s + P["kappa"] + P["c"] ** 2 * (P["a"] ** 2 + P["b"] ** 2) == pytest.approx(0.0, abs=1e-12)
    grid = GridSpec([0.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3], [7, 7, 7])
    qmap = BaseMap.from_function(
        grid, lambda t: [P["u0"] * np.exp(s * t[0]) * np.cos(P["a"] * t[1]) * np.cos(P["b"] * t[2])]
    )
    res = kc.second_order_residual(h, qmap, "standard")
    assert np.max(np.abs(_interior(res))) <= 1e-6


def test_second_order_zero_map_any_damping():
    for lam, eps in [(0.0, 0.0), (2.0, 5.0), (-1.0, 0.3)]:
        h = corpus.load("telegrapher").hamiltonian({"kappa": 1.0, "lambda": lam, "epsilon": eps})
        grid = GridSpec([0.0, 0.0], [0.01, 0.01], [5, 5])
        qmap = BaseMap.from_function(grid, lambda t: [0.0])
        res = kc.second_order_residual(h, qmap, "standard")
        assert np.max(np.abs(res)) == 0.0


def test_second_order_rejects_non_affine_and_non_regular():
    grid = GridSpec([0.0, 0.0], [0.01, 0.01], [5, 5])
    qmap = BaseMap.from_function(grid, lambda t: [0.1])
    hq = corpus.load("telegrapher-quadratic-z").hamiltonian()
    with pytest.raises(kc.ContractError):
        kc.second_order_residual(hq, qmap)
    fo = corpus.load("first-order-dissipative").hamiltonian()
    with pytest.raises(kc.RegularityError):
        kc.second_order_residual(fo, qmap)


def test_second_order_accepts_integrated_base_map():
    # an integrated map is node data with a node table and no closed form, so
    # the reconstruction runs on the unpadded grid from that table
    ex = corpus.load("telegrapher")
    h = ex.hamiltonian()
    entry = ex.sections["classical-zind"]
    gamma = entry.build(dict(entry.defaults))
    from kcontact.hj import project_Q
    from kcontact.integrate import integral_section

    grid = GridSpec([0.0, 0.0], [1e-3, 1e-3], [7, 7])
    sigma = integral_section(project_Q(h, gamma), [1.0], grid)
    res = kc.second_order_residual(h, sigma, "standard")
    assert np.max(np.abs(_interior(res))) <= 1e-6


def test_second_order_closed_form_failing_on_the_padding_uses_the_bare_grid():
    # the square root has no value two rings below t0 = 0.01, so the padded
    # map cannot be sampled and the residual is that of the bare node values
    h = corpus.load("telegrapher").hamiltonian()
    grid = GridSpec([0.01, 0.0], [0.01, 0.01], [5, 5])
    qmap = BaseMap.from_function(grid, lambda t: [0.5 + 0.2 * dm.sqrt(t[0]) - 0.1 * t[1]])
    with pytest.raises(ValueError):
        qmap.closed_form(grid.origin - 2 * grid.spacing)
    got = kc.second_order_residual(h, qmap, "standard")
    assert got.tobytes() == kc.second_order_residual(h, BaseMap(grid, qmap.values), "standard").tobytes()


def test_second_order_closed_form_of_another_shape_on_the_padding_uses_the_bare_grid():
    # a scalar below t0 = 0, one-entry lists on the grid: the padded map is refused, not broadcast
    h = corpus.load("telegrapher").hamiltonian()
    grid = GridSpec([0.0, 0.0], [0.01, 0.01], [5, 5])

    def f(t):
        q = 0.5 + 0.2 * t[0] - 0.1 * t[1]
        return [q] if t[0] >= 0.0 else q

    qmap = BaseMap.from_function(grid, f)
    with pytest.raises(kc.ShapeError):
        BaseMap.from_function(GridSpec(grid.origin - 2 * grid.spacing, grid.spacing, [9, 9]), f)
    got = kc.second_order_residual(h, qmap, "standard")
    assert got.tobytes() == kc.second_order_residual(h, BaseMap(grid, qmap.values), "standard").tobytes()


def _ring_nodes(grid, pad=2):
    """The coordinates of the nodes of the two padding rings, as nodes of the padded grid."""
    counts, origin = np.add(grid.counts, 2 * pad), grid.origin - pad * grid.spacing
    return {tuple(origin + grid.spacing * np.array(idx)) for idx in np.ndindex(*counts)
            if any(i < pad or i >= c + pad for i, c in zip(idx, grid.counts))}


def _work_map(monkeypatch, h, qmap):
    """The padded values and direction derivatives that second_order_residual inverts."""
    seen = []
    fibre = hdw._fibre_momenta
    monkeypatch.setattr(hdw, "_fibre_momenta", lambda h, values, v, start: seen.append((values, v)) or fibre(
        h, values, v, start))
    kc.second_order_residual(h, qmap)
    return seen[0]


def test_second_order_calls_a_float_closure_once_per_ring_node():
    h = corpus.load("telegrapher").hamiltonian()
    grid = GridSpec([0.01, -0.02], [1e-3, 2e-3], [6, 5])
    calls = []

    def f(t):  # refuses lanes
        calls.append(t)
        return [0.5 + float(t[0]) - 0.25 * float(t[1])]

    qmap = BaseMap.from_function(grid, f)
    calls.clear()
    kc.second_order_residual(h, qmap)
    on_floats = [tuple(float(v) for v in t) for t in calls if all(isinstance(v, float) for v in t)]
    assert len(calls) == len(on_floats) + 1  # one refused lane pass
    assert len(on_floats) == 10 * 9 - 6 * 5 and set(on_floats) == _ring_nodes(grid)


def test_second_order_pads_the_map_values_and_derivatives_with_the_rings(monkeypatch):
    ex = corpus.load("telegrapher")
    entry = ex.solutions["exponential"]
    f = entry.build(dict(entry.defaults))
    grid = GridSpec([0.013, -0.007], [1e-3, 3e-3], [7, 6])
    qmap = corpus.closed_base_map(grid, lambda t: f(t)[0])  # a closed derivative and a node table
    values, v = _work_map(monkeypatch, ex.hamiltonian(), qmap)
    assert values.shape == (11, 10, 1) and v.shape == (11, 10, 2, 1)
    assert values[2:-2, 2:-2].tobytes() == qmap.values.tobytes()
    assert v[2:-2, 2:-2].tobytes() == qmap.derivatives().tobytes()
    for idx in np.ndindex(11, 10):
        if not (2 <= idx[0] < 9 and 2 <= idx[1] < 8):
            t = (grid.origin - 2 * grid.spacing) + grid.spacing * np.array(idx)
            assert values[idx].tolist() == [float(x) for x in qmap.closed_form(t)]
            assert v[idx].tolist() == np.array(qmap.closed_derivative(t), dtype=float).tolist()


def test_second_order_takes_a_map_values_where_they_differ_from_its_closed_form(monkeypatch):
    # the nodes of the map keep its own values, and the closed form fills the rings only
    h = corpus.load("telegrapher").hamiltonian()
    grid = GridSpec([0.0, 0.0], [1e-2, 1e-2], [5, 5])
    closed = BaseMap.from_function(grid, lambda t: [0.5 + 0.2 * t[0] - 0.1 * t[1]])
    bumped = BaseMap(grid, closed.values + 1e-3, closed_form=closed.closed_form)
    values, _ = _work_map(monkeypatch, h, bumped)
    assert values[2:-2, 2:-2].tobytes() == bumped.values.tobytes()
    assert values[0, 0].tolist() == [float(x) for x in closed.closed_form(grid.origin - 2 * grid.spacing)]
    assert not np.array_equal(kc.second_order_residual(h, bumped), kc.second_order_residual(h, closed))


def test_second_order_reads_map_values_of_any_layout_and_dtype_as_floats():
    # Fortran-ordered or integer values pad as their C-ordered float64 copy does
    h = corpus.load("telegrapher").hamiltonian()
    grid = GridSpec([0.0, 0.0], [1.0, 1.0], [5, 4])
    f = BaseMap.from_function(grid, lambda t: [2.0 + t[0] - t[1]]).closed_form
    ints = np.array([[[2 + i - j] for j in range(4)] for i in range(5)])
    want = kc.second_order_residual(h, BaseMap(grid, ints.astype(float), closed_form=f))
    for values in (np.asfortranarray(ints.astype(float)), ints):
        assert kc.second_order_residual(h, BaseMap(grid, values, closed_form=f)).tobytes() == want.tobytes()


def test_second_order_names_the_work_grid_node_where_a_ring_derivative_overflows():
    # the closed derivative overflows numpy floats at t^0 = 4 only, on the outer ring: node (6, 0)
    # of the work grid, the first in node order; the grid itself runs over t^0 in [0, 2]
    h = corpus.load("telegrapher").hamiltonian()
    grid = GridSpec([0.0, 0.0], [1.0, 1.0], [3, 3])

    def derivative(t):
        return [[np.float64(1e80) ** float(t[0]) * 1e-300], [0.0]]

    qmap = BaseMap.from_function(grid, lambda t: [0.5], df=derivative)
    with pytest.raises(kc.ShapeError, match=r"not finite at grid node \(6, 0\): overflow"):
        kc.second_order_residual(h, qmap)


def test_affine_examples_standard_equals_evolution_blocks(rng):
    for name in ["telegrapher", "membrane", "hunter-saxton", "first-order-dissipative"]:
        h = corpus.load(name).hamiltonian()
        Xs = kc.canonical_kvf(h, "standard")
        Xe = kc.canonical_kvf(h, "evolution")
        for _ in range(10):
            pt = random_point(h.chart, rng)
            ks, ke = Xs.at(pt), Xe.at(pt)
            for a in range(h.chart.k):
                assert np.max(np.abs(ks.comp[a].q - ke.comp[a].q)) <= 1e-12
                assert np.max(np.abs(ks.comp[a].p - ke.comp[a].p)) <= 1e-12


def test_residual_grid_interior_max_skips_the_boundary_ring():
    r_q = np.zeros((4, 5))
    r_q[0, 2] = 5.0  # boundary
    r_q[2, 3] = 0.25  # interior
    r_p, r_z = np.zeros((4, 5)), np.full((4, 5), 0.125)
    res = kc.ResidualGrid(r_q, r_p, r_z)
    assert res.max() == 5.0
    assert res.interior_max() == 0.25


def test_residual_grid_maxima_are_nan_when_an_entry_is_nan():
    r_q, r_z = np.zeros((4, 5)), np.full((4, 5), 0.125)
    res = kc.ResidualGrid(r_q, np.full((4, 5), np.nan), r_z)
    assert np.isnan(res.max()) and np.isnan(res.interior_max())
    r_p = np.zeros((4, 5))
    r_p[2, 2] = np.nan
    assert np.isnan(kc.ResidualGrid(r_q, r_p, r_z).interior_max())


def test_evolution_lift_rejects_a_nan_defect():
    H0 = kc.ScalarField(CH12, lambda pt: 0.5 * (pt.p[0, 0] ** 2 - pt.p[1, 0] ** 2))
    H = kc.ScalarField(CH12, lambda pt: H0.fn(pt) + pt.q[0] * NAN)
    with pytest.raises(kc.ContractError, match="defect nan"):
        kc.evolution_lift(H, _canonical_conservative(H0)).at(
            kc.DarbouxPoint([0.3], [[1.5], [0.7]], [0.1, -0.4]))


@pytest.mark.parametrize("mode", ["standard", "evolution"])
def test_second_order_raises_where_the_canonical_field_has_a_non_finite_entry(mode):
    # the added term leaves the momentum derivatives at fixed q finite, so the momenta
    # are reconstructed; its gradient is NaN from the node u > cut on, where the
    # canonical field cannot be built (only at z = 0, as on the nodes: the affinity
    # check's samples, at random z, keep a finite z-derivative)
    P = {"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0}
    h0 = corpus.load("telegrapher").hamiltonian(P)
    grid = GridSpec([0.0, 0.0], [1e-3, 1e-3], [6, 6])
    qmap = BaseMap.from_function(grid, lambda t: [0.5 + 10.0 * t[0] + t[1]])
    cut = float(np.sort(qmap.values.reshape(-1))[20])
    h = kc.ScalarField(CH12, lambda pt: h0.fn(pt) + (
        pt.q[0] * NAN if pt.q[0] > cut and pt.z[0] == 0.0 else 0.0))
    with pytest.raises(kc.ShapeError, match=r"gradient of h is not finite at grid node \(3, 3\)$"):
        kc.second_order_residual(h, qmap, mode)
    assert np.isfinite(kc.second_order_residual(h0, qmap, mode)).all()


def test_the_affinity_check_fails_a_nan_z_derivative():
    h = kc.ScalarField(CH12, lambda pt: 0.5 * (pt.p[0, 0] ** 2 - pt.p[1, 0] ** 2)
                       + pt.z[0] * (1.0 if pt.q[0] > 0 else NAN))
    qmap = BaseMap.from_function(GridSpec([0.0, 0.0], [0.01, 0.01], [5, 5]), lambda t: [0.1])
    with pytest.raises(kc.ContractError, match="not affine"):
        kc.second_order_residual(h, qmap)


@pytest.mark.parametrize("offset", [0.0, 1e-16])
def test_second_order_names_the_node_with_a_singular_fibre_hessian(offset):
    # d^2 h / d(p_0)^2 = q - 2 + offset is at most 1e-16 only at the node (2, 2), where
    # q = 0.25 i + 0.75 j = 2: singular to the solver, or only to the SVD test
    h = kc.ScalarField(CH12, lambda pt: 0.5 * ((pt.q[0] - 2.0 + offset) * pt.p[0, 0] ** 2
                                               - pt.p[1, 0] ** 2) + pt.z[0])
    grid = GridSpec([0.0, 0.0], [0.25, 0.25], [4, 5])
    values = np.array([[[0.25 * i + 0.75 * j] for j in range(5)] for i in range(4)])
    with pytest.raises(kc.RegularityError, match=r"singular during Newton iteration at work-grid node \(2, 2\)$"):
        kc.second_order_residual(h, BaseMap(grid, values))


def test_second_order_names_the_node_where_the_inversion_fails():
    # a NaN direction derivative at grid node (1, 2): node (3, 4) of the grid padded by two rings
    h = corpus.load("telegrapher").hamiltonian()
    grid = GridSpec([0.0, 0.0], [1e-3, 1e-3], [4, 4])

    def derivative(t):
        bad = abs(t[0] - 1e-3) < 1e-9 and abs(t[1] - 2e-3) < 1e-9
        return [[NAN if bad else 0.5], [-0.25]]

    qmap = BaseMap.from_function(grid, lambda t: [0.5 * t[0] - 0.25 * t[1]], df=derivative)
    with pytest.raises(kc.SolverError, match=r"\(last residual nan\) at work-grid node \(3, 4\)$"):
        kc.second_order_residual(h, qmap)
    assert np.isfinite(kc.second_order_residual(h, BaseMap.from_function(
        grid, qmap.closed_form, df=lambda t: [[0.5], [-0.25]]))).all()


@pytest.mark.parametrize("shape", [(6,), (4, 5), (3, 4, 3)])
def test_second_order_momenta_follow_the_lines_of_the_last_axis(shape):
    # each node is warm-started from its predecessor on its line along the last axis, and
    # the face at last index 0 the same way one dimension lower: the one-node inversions
    # chained in that order give the momenta bit for bit
    k = len(shape)
    chart = kc.ChartSpec(1, k)
    h = kc.ScalarField(chart, lambda pt: sum(dm.sqrt(1.0 + (a + 1.0 + pt.q[0] ** 2) * pt.p[a, 0] ** 2)
                                             for a in range(k)) + pt.z[0])
    rng = np.random.default_rng(7)
    values, v = rng.random(shape + (1,)), 0.9 * (2.0 * rng.random(shape + (k, 1)) - 1.0)
    P = hdw._fibre_momenta(h, values, v, np.zeros((k, 1)))
    ref = np.empty_like(P)
    for idx in np.ndindex(*shape):
        last = max((a for a in range(k) if idx[a]), default=None)
        prev = np.zeros((k, 1)) if last is None else ref[idx[:last] + (idx[last] - 1,) + idx[last + 1:]]
        ref[idx] = kc.invert_fibre_derivative(h, values[idx], np.zeros(k), v[idx], prev)
    assert P.tobytes() == ref.tobytes()


def test_a_map_residual_node_that_overflows_raises_a_shape_error_naming_it():
    grid = GridSpec([0.0, 0.0], [0.1, 0.1], [3, 3])
    q = np.full(grid.shape + (1,), 0.5)
    q[1, 2, 0] = 1e10
    psi = SolutionMap(CH12, grid, q, np.zeros(grid.shape + (2, 1)), np.zeros(grid.shape + (2,)))
    h = kc.ScalarField(CH12, lambda pt: pt.q[0] * 1e300 + pt.p[0, 0])
    node = r"\(10000000000\.0, 0\.0, 0\.0, 0\.0, 0\.0\)"  # its q, p and z
    with pytest.raises(kc.ShapeError, match=rf"^a value is not finite at {node}: overflow"):
        kc.map_residual(psi, h)
