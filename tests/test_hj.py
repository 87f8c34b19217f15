"""Hamilton-Jacobi checks: projections, all four residuals, the diagonal
gauge-matrix solver, and complete-solution verification."""

import contextlib
import dataclasses
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcontact as kc
from kcontact import corpus, hj
from kcontact import dual as dm
from kcontact.fields import _p_grad, _point_from_coords
from kcontact.sections import _coeff_jacobian, _flat

CH12 = kc.ChartSpec(1, 2)
U_SAMPLES = np.linspace(0.5, 2.0, 25).reshape(-1, 1)


def tel(params=None):
    ex = corpus.load("telegrapher")
    return ex, ex.hamiltonian(params)


def hs(params=None):
    ex = corpus.load("hunter-saxton")
    return ex, ex.hamiltonian(params)


# -- projections ---------------------------------------------------------------

def test_project_q_telegrapher_components():
    ex, h = tel({"kappa": 2.0, "lambda": 1.0, "epsilon": 0.0})
    entry = ex.sections["classical-zind"]
    gamma = entry.build({**entry.defaults, "kappa": 2.0})
    f = kc.project_Q(h, gamma)
    for u in (0.5, 1.0, 1.7):
        gut = gamma.p_at([u])[0][0]
        gux = gamma.p_at([u])[1][0]
        assert f.eval(0, [u])[0] == pytest.approx(gut)
        assert f.eval(1, [u])[0] == pytest.approx(-gux / 2.0)


def test_project_q_ignores_momentum_free_hamiltonian():
    h = kc.ScalarField(CH12, lambda pt: pt.q[0] ** 2 + pt.z[0])
    gamma = kc.from_potentials(CH12, lambda q: [q[0], q[0] ** 2])
    f = kc.project_Q(h, gamma)
    assert f.eval(0, [0.7])[0] == 0.0
    assert f.eval(1, [0.7])[0] == 0.0


def test_project_q_hs_components():
    ex, h = hs()
    mu = 3.0
    gamma = kc.from_potentials(CH12, lambda q: [q[0] ** 2, q[0] ** 3])
    f = kc.project_Q(h, gamma)
    u = 0.6
    gut, gux = 2 * u, 3 * u * u
    assert f.eval(0, [u])[0] == pytest.approx(-2 * gux + 4 * u * gut + mu)
    assert f.eval(1, [u])[0] == pytest.approx(-2 * gut)


def _counting(h):
    """``h`` with its evaluations counted in ``calls[0]``."""
    calls = [0]

    def fn(pt):
        calls[0] += 1
        return h.fn(pt)

    return dataclasses.replace(h, fn=fn), calls


def test_project_zdep_explicit_gauge_one_h_pass_per_component():
    ex = corpus.load("hunter-saxton")
    entry = ex.sections["zdep-quadratic"]
    P = dict(entry.defaults)
    h, calls = _counting(ex.hamiltonian())
    f = kc.project_zdep(h, entry.build(P), entry.gauge(P))
    points = ([0.1, 0.2, -0.3], [0.5, -0.4, 0.25], [-0.7, 0.0, 0.9])
    for x in points:
        for a in range(2):
            f.eval(a, x)
    assert calls[0] == 2 * len(points)


@pytest.mark.parametrize("name", ["telegrapher", "hunter-saxton", "first-order-dissipative"])
def test_project_zdep_diagonal_gauge_one_ingredient_build_per_component(name):
    ex = corpus.load(name)
    entry = ex.sections["zdep-family"]
    h, calls = _counting(ex.hamiltonian())
    gamma = entry.build(dict(entry.defaults))
    C = kc.diagonal_gauge_matrix(h, gamma, "standard")
    f = kc.project_zdep(h, gamma, C)
    # the same gauge entries through the generic path: C(q, z) plus its own momentum gradient
    generic = kc.project_zdep(h, gamma, kc.GaugeMatrix(C.fn))
    for x in ([0.1, 0.2, -0.3], [0.5, -0.4, 0.25], [-0.7, 0.0, 0.9]):
        for a in range(2):
            before = calls[0]
            got = f.eval(a, x)
            assert calls[0] - before == 2
            before = calls[0]
            assert np.array_equal(got, generic.eval(a, x))
            assert calls[0] - before == 3


def test_a_diagonal_gauge_used_with_another_section_takes_the_plain_path():
    ex = corpus.load("telegrapher")
    entry = ex.sections["zdep-family"]
    h = ex.hamiltonian()
    own, other = (entry.build({**entry.defaults, "mu": mu}) for mu in (0.0, 0.3))
    C = kc.diagonal_gauge_matrix(h, own, "standard")
    f, plain = (kc.project_zdep(h, other, G) for G in (C, kc.GaugeMatrix(C.fn)))
    for x in ([0.1, 0.2, -0.3], [0.5, -0.4, 0.25]):
        for a in range(2):
            assert np.array_equal(f.eval(a, x), plain.eval(a, x))


def test_project_q_is_representative_independent(rng):
    ex, h = tel()
    entry = ex.sections["classical-zind"]
    gamma = entry.build(dict(entry.defaults))
    f = kc.project_Q(h, gamma)
    # whichever residual-zero representative produced it, the projection
    # reads only the momentum gradient on the section
    X = kc.canonical_kvf(h, "standard")
    Xg = kc.add_gauge(X, kc.random_gauge(CH12, rng))
    for u in (0.6, 1.1):
        pt = gamma.at([u])
        for a in range(2):
            assert f.eval(a, [u])[0] == Xg.at(pt).comp[a].q[0]


# -- z-independent checks --------------------------------------------------------

def test_classical_zind_root_pass_and_fail():
    ex, h = tel()
    good = ex.sections["classical-zind"]
    rep = kc.hj_classical_zind(h, good.build(dict(good.defaults)), samples=U_SAMPLES)
    assert rep.sup_residual <= 1e-10
    assert rep.verdict(1e-10) == "PASS"
    bad = ex.sections["classical-zind-wrong-root"]
    rep2 = kc.hj_classical_zind(h, bad.build(dict(bad.defaults)), samples=U_SAMPLES)
    assert rep2.sup_residual > 0.1


def test_quadratic_root_oracle_vs_check():
    # oracle: the closed-form roots of the slope quadratic
    roots = corpus.telegrapher_quadratic_roots(1.0, 1.0, 0.0, 2.0)
    assert sorted(roots) == pytest.approx([-2.0 / 3.0, 0.0])
    ex, h = tel()
    entry = ex.sections["classical-zind"]
    rep = kc.hj_classical_zind(h, entry.build({**entry.defaults, "a": -2.0 / 3.0}),
                               samples=U_SAMPLES)
    assert rep.sup_residual <= 1e-10


def test_zero_hamiltonian_any_holonomic_section(rng):
    h = kc.ScalarField(CH12, lambda pt: 0.0)
    gamma = kc.from_potentials(CH12, lambda q: [q[0] ** 3, dm.exp(q[0])])
    rep = kc.hj_classical_zind(h, gamma, box=[(-1, 1)], count=50, seed=1)
    assert rep.sup_residual == 0.0


def test_non_holonomic_section_rejected():
    ex, h = tel()
    broken = kc.SectionZInd(CH12, gamma_p=lambda q: [[1.0], [0.0]],
                            gamma_z=lambda q: [0.0, 0.0])
    with pytest.raises(kc.ContractError):
        kc.hj_classical_zind(h, broken, samples=U_SAMPLES)


def test_evolution_zind_hs_constant_energy():
    ex, h = hs()
    entry = ex.sections["evolution-zind-K"]
    gamma = entry.build(dict(entry.defaults))
    rep = kc.hj_evolution_zind(h, gamma, samples=U_SAMPLES)
    assert rep.sup_residual <= 1e-10
    # the composite value really is the constant K (= 2 here, doubled by the model)
    vals = [h(gamma.at([u])) for u in (0.5, 1.0, 1.5)]
    assert np.ptp(vals) <= 1e-12
    assert vals[0] == pytest.approx(2.0 * entry.defaults["K"])


def test_evolution_zind_detects_non_root():
    ex, h = tel()
    entry = ex.sections["classical-zind-wrong-root"]
    rep = kc.hj_evolution_zind(h, entry.build(dict(entry.defaults)), samples=U_SAMPLES)
    assert rep.sup_residual > 1e-2


def test_both_roots_pass_evolution_only_paired_constants_pass_classical():
    # parameters giving two nonzero roots
    kappa, lam, eps, c = 1.0, 3.0, 2.0, 2.0
    ex, h = tel({"kappa": kappa, "lambda": lam, "epsilon": eps})
    entry = ex.sections["classical-zind"]
    for a in corpus.telegrapher_quadratic_roots(kappa, lam, eps, c):
        base = {**entry.defaults, "kappa": kappa, "lambda": lam, "epsilon": eps,
                "c": c, "a": a}
        gamma = entry.build({**base, "C0": 0.0, "C1": 0.0})
        assert kc.hj_evolution_zind(h, gamma, samples=U_SAMPLES).sup_residual <= 1e-10
        assert kc.hj_classical_zind(h, gamma, samples=U_SAMPLES).sup_residual <= 1e-10
        shifted = entry.build({**base, "C0": 0.5, "C1": 0.0})
        assert kc.hj_evolution_zind(h, shifted, samples=U_SAMPLES).sup_residual <= 1e-10
        assert kc.hj_classical_zind(h, shifted, samples=U_SAMPLES).sup_residual > 1e-2


def test_sweeps_admit_only_samples_inside_the_section_domain():
    ex, h = hs()
    entry = ex.sections["log-zind"]  # domain u > -c = -0.5
    gamma = entry.build(dict(entry.defaults))
    samples = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    for check in (kc.hj_classical_zind, kc.hj_evolution_zind):
        rep = check(h, gamma, samples=samples)
        assert rep.sample_count == 6
        assert all(pt[0] > -0.5 for _, pt in rep.worst)
        with pytest.raises(kc.ContractError, match="no admissible sample points"):
            check(h, gamma, samples=samples[:3])
    ex, h = tel()
    entry = ex.sections["zdep-family"]
    gamma = kc.SectionZDep(CH12, entry.build(dict(entry.defaults)).gamma_p,
                           domain=lambda q, z: z[0] > 0.0)
    rows = np.random.default_rng(3).uniform(-1.0, 1.0, (40, 3))
    C = kc.diagonal_gauge_matrix(h, gamma, "standard")
    rep = kc.hj_zdep_residual(h, gamma, C, samples=rows)
    assert rep.sample_count == int(np.sum(rows[:, 1] > 0.0))
    assert all(pt[1] > 0.0 for _, pt in rep.worst)
    with pytest.raises(kc.ContractError, match="no admissible sample points"):
        kc.hj_zdep_residual(h, gamma, C, samples=rows[rows[:, 1] <= 0.0])


# -- z-dependent pieces -----------------------------------------------------------

def test_gamma_beta_z_independent_linear_slope():
    lam = 1.3
    h = kc.ScalarField(CH12, lambda pt: lam * pt.z[0] + pt.q[0] ** 2)
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[0.2 * q[0]], [0.4]])
    out = kc.gamma_beta(h, gamma, [0.5], [0.1, 0.2])
    assert out == pytest.approx([lam, 0.0])


def test_gamma_beta_telegrapher_family():
    ex, h = tel()
    P = {"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0, "a": 1.0, "mu": 0.3, "nu": -0.2}
    entry = ex.sections["zdep-family"]
    gamma = entry.build(P)
    q, z = [0.7], [0.4, -0.1]
    pt = gamma.at(q, z)
    out = kc.gamma_beta(h, gamma, q, z)
    assert out[0] == pytest.approx(P["a"] * pt.p[0, 0] + P["lambda"])
    assert out[1] == pytest.approx(P["a"] / P["kappa"] * pt.p[1, 0])


def test_gamma_beta_matches_fd_directional(rng):
    ex, h = hs()
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[q[0] * z[0] + 0.3 * z[1] ** 2],
                                                       [z[1] - 0.4 * q[0] * z[0]]])
    step = 1e-6
    for _ in range(10):
        q = list(2.0 * rng.random(1) - 1.0)
        z = list(2.0 * rng.random(2) - 1.0)
        out = kc.gamma_beta(h, gamma, q, z)
        for b in range(2):
            zp, zm = list(z), list(z)
            zp[b] += step
            zm[b] -= step
            hp = h(gamma.at(q, zp))
            hm = h(gamma.at(q, zm))
            fd = (hp - hm) / (2 * step)
            assert out[b] == pytest.approx(fd, rel=1e-6, abs=1e-7)


def _four_pass_ingredients(h, gamma, q, z):
    """The reference build of :func:`hj._zdep_ingredients`: the q-gradient of h on the
    section, the coefficients and their Jacobian, then dh/dp and dh/dz in a pass each."""
    chart = gamma.chart
    n, k = chart.n, chart.k
    qs, zs = list(q), list(z)

    def composite(qvars):
        return h.fn(_point_from_coords(chart, list(qvars) + _flat(gamma.p_at(qvars, zs)) + zs))

    hval, dq_h = dm.derive1(composite, qs)
    p = gamma.p_at(qs, zs)
    _, rows = _coeff_jacobian(gamma, qs + zs)
    dz_p = [[[rows[a * n + i][n + b] for b in range(k)] for i in range(n)] for a in range(k)]
    flat = _flat(p)
    gp = _p_grad(h, qs, zs, flat)
    U = [[gp[a * n + i] for i in range(n)] for a in range(k)]
    _, gz = dm.derive1(lambda zvars: h.fn(_point_from_coords(chart, qs + flat + list(zvars))), zs)
    Gamma = []
    for b in range(k):
        acc = gz[b]
        for a in range(k):
            for i in range(n):
                acc = acc + U[a][i] * dz_p[a][i][b]
        Gamma.append(acc)
    return hval, dq_h, Gamma, p, dz_p, U


ZDEP_SECTIONS = [(name, key) for name in corpus.EXAMPLE_NAMES
                 for key, entry in corpus.load(name).sections.items() if entry.kind == "zdep"]


@pytest.mark.parametrize("name,key", ZDEP_SECTIONS)
def test_zdep_ingredients_match_the_four_pass_build_bit_for_bit(name, key):
    """On floats and on lanes.  The one exception is the sign of a zero in the
    momentum gradient U: a p-partial of a term with z in it is +0.0 in the joint
    (p, z) pass, so an exactly zero entry (dh/dp^t of the first-order model, whose
    h has no p^t) may read 0.0 where the p-only pass read -0.0."""
    ex = corpus.load(name)
    entry = ex.sections[key]
    h, gamma = ex.hamiltonian(), entry.build(dict(entry.defaults))
    n, k = gamma.chart.n, gamma.chart.k
    X = np.random.default_rng(5).uniform(-1.0, 1.0, (20, n + k))

    def flat(build):
        def row(x):
            hval, dq_h, Gamma, p, dz_p, U = build(h, gamma, x[:n], x[n:])
            return [hval, *dq_h, *Gamma, *_flat(p), *(v for a in dz_p for r in a for v in r), *_flat(U)]
        return row

    for run in (lambda build: np.array([flat(build)(x) for x in X]), lambda build: dm._rows(flat(build), X)):
        got, want = run(hj._zdep_ingredients), run(_four_pass_ingredients)
        got[:, -k * n:] += 0.0  # -0.0 + 0.0 is 0.0; every other entry keeps its bits
        want[:, -k * n:] += 0.0
        assert got.tobytes() == want.tobytes()


def _paper_tel_C(P, mode):
    """The displayed diagonal gauge matrices of the damped-wave family."""
    a, kappa, lam, eps = P["a"], P["kappa"], P["lambda"], P["epsilon"]

    def fn(q, z):
        u = q[0]
        gut = a * z[0] - lam * u + P["mu"]
        gux = -a * z[1] + P["nu"]
        hval = 0.5 * (gut ** 2 - gux ** 2 / kappa) + 0.5 * eps * u ** 2 + lam * z[0]
        bracket = eps * u / a + gut ** 2 + gux ** 2 / kappa
        if mode == "standard":
            A = -0.5 * (hval + bracket)
            B = -0.5 * (hval - bracket)
        else:
            A = -0.5 * bracket
            B = -A
        return [[A, 0.0], [0.0, B]]

    return kc.GaugeMatrix(fn)


@pytest.mark.parametrize("mode", ["standard", "evolution"])
def test_zdep_residual_with_displayed_matrices(mode):
    ex, h = tel()
    entry = ex.sections["zdep-family"]
    P = dict(entry.defaults)
    gamma = entry.build(P)
    rep = kc.hj_zdep_residual(h, gamma, _paper_tel_C(P, mode), mode=mode,
                              box=[(-1, 1)] * 3, count=200, seed=7)
    assert rep.sup_residual <= 1e-10


def test_zdep_residual_reduces_to_naive_when_corrections_vanish():
    # h with no momentum or z dependence on a z-independent section:
    # the only surviving term is the base gradient of (h on section)
    h = kc.ScalarField(CH12, lambda pt: pt.q[0] ** 2)
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[0.5], [-0.3]])
    C = kc.GaugeMatrix(lambda q, z: [[-q[0] ** 2, 0.0], [0.0, 0.0]])
    samples = np.array([[0.3, 0.0, 0.0], [0.8, 0.2, -0.4], [1.0, -1.0, 0.5]])
    rep = kc.hj_zdep_residual(h, gamma, C, mode="standard", samples=samples)
    # every correction term vanishes, so the sup is just max |d_q (h on section)|
    assert rep.sup_residual == pytest.approx(max(2 * abs(r[0]) for r in samples), abs=1e-12)


def test_zdep_trace_violation_rejected():
    ex, h = tel()
    entry = ex.sections["zdep-family"]
    gamma = entry.build(dict(entry.defaults))
    bad = kc.GaugeMatrix(lambda q, z: [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(kc.ContractError):
        kc.hj_zdep_residual(h, gamma, bad, mode="evolution", count=10, seed=0)
    with pytest.raises(kc.ContractError):
        kc.hj_zdep_residual(h, gamma, bad, mode="standard", count=10, seed=0)


# -- diagonal solver ---------------------------------------------------------------

def test_solve_diagonal_matches_displayed_standard_and_evolution(rng):
    ex, h = tel()
    entry = ex.sections["zdep-family"]
    P = dict(entry.defaults)
    gamma = entry.build(P)
    for mode in ("standard", "evolution"):
        paper = _paper_tel_C(P, mode)
        for _ in range(20):
            q = list(2.0 * rng.random(1) - 1.0)
            z = list(2.0 * rng.random(2) - 1.0)
            got = kc.solve_diagonal_C(h, gamma, mode, q, z)
            want = np.asarray(paper(q, z), dtype=float)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_solve_diagonal_first_order_model(rng):
    ex = corpus.load("first-order-dissipative")
    h = ex.hamiltonian()
    entry = ex.sections["zdep-family"]
    P = dict(entry.defaults)
    gamma = entry.build(P)
    a, lam = P["a"], P["lambda"]
    for _ in range(20):
        q = list(2.0 * rng.random(1) - 1.0)
        z = list(2.0 * rng.random(2) - 1.0)
        T = a * z[0] + P["rho"]
        X = -a * z[1] + P["sigma"]
        xi = q[0] + lam * T - a * X ** 2
        got = kc.solve_diagonal_C(h, gamma, "evolution", q, z)
        assert got[0, 0] == pytest.approx(-xi / (2 * a), abs=1e-12)
        assert got[1, 1] == pytest.approx(xi / (2 * a), abs=1e-12)


def test_solve_diagonal_hs_family_closed_form(rng):
    ex, h = hs()
    entry = ex.sections["zdep-family"]
    P = dict(entry.defaults)
    gamma = entry.build(P)
    a, mu = P["a"], P["mu"]
    for _ in range(20):
        q = list(2.0 * rng.random(1) - 1.0)
        z = list(2.0 * rng.random(2) - 1.0)
        T = a * z[0] + P["rho"]
        X = -a * z[1] + P["sigma"]
        xi = (2.0 + 4.0 * a * q[0]) * T * T + (2.0 + a) * mu * T
        got = kc.solve_diagonal_C(h, gamma, "evolution", q, z)
        assert got[0, 0] == pytest.approx(-xi / (2 * a), abs=1e-10)
        hval = h(gamma.at(q, z))
        got_st = kc.solve_diagonal_C(h, gamma, "standard", q, z)
        assert got_st[0, 0] == pytest.approx(-0.5 * (hval + xi / a), abs=1e-10)
        assert got_st[1, 1] == pytest.approx(-0.5 * (hval - xi / a), abs=1e-10)


def test_solve_diagonal_zero_residual_zero_hamiltonian():
    h = kc.ScalarField(CH12, lambda pt: 0.0)
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[z[0]], [-z[1]]])
    for mode in ("standard", "evolution"):
        C = kc.solve_diagonal_C(h, gamma, mode, [0.4], [0.3, -0.1])
        assert np.max(np.abs(C)) <= 1e-12


def test_solve_diagonal_singular_cases():
    # both diagonal z-derivatives vanish, but the uncorrected residual does not
    h = kc.ScalarField(CH12, lambda pt: pt.q[0] ** 2)
    flat = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[0.1], [0.2]])
    with pytest.raises(kc.NoSolutionError):
        kc.solve_diagonal_C(h, flat, "evolution", [0.5], [0.0, 0.0])
    # consistent degenerate system: minimum-norm split of the trace
    h0 = kc.ScalarField(CH12, lambda pt: 1.0 + 0.0 * pt.q[0])
    C = kc.solve_diagonal_C(h0, flat, "standard", [0.5], [0.0, 0.0])
    assert C[0, 0] == pytest.approx(-0.5) and C[1, 1] == pytest.approx(-0.5)


def test_solve_diagonal_needs_scalar_base():
    chart = kc.ChartSpec(2, 2)
    h = kc.ScalarField(chart, lambda pt: 0.0)
    gamma = kc.SectionZDep(chart, gamma_p=lambda q, z: [[z[0], 0.0], [0.0, z[1]]])
    with pytest.raises(kc.ContractError):
        kc.solve_diagonal_C(h, gamma, "standard", [0.1, 0.2], [0.0, 0.0])


def test_k1_reduction_matches_contact_equation(rng):
    chart = kc.ChartSpec(1, 1)
    h = kc.ScalarField(chart, lambda pt: 0.5 * pt.p[0, 0] ** 2 + pt.q[0] + 0.7 * pt.z[0])
    gamma = kc.SectionZDep(chart, gamma_p=lambda q, z: [[q[0] + 0.2 * z[0]]])
    for _ in range(20):
        q = list(2.0 * rng.random(1) - 1.0)
        z = list(2.0 * rng.random(1) - 1.0)
        C = kc.solve_diagonal_C(h, gamma, "standard", q, z)
        hval = h(gamma.at(q, z))
        assert C[0, 0] == pytest.approx(-hval, abs=1e-14)
        # independent transcription of the scalar contact identity
        w = q[0] + 0.2 * z[0]
        dq_h = w * 1.0 + 1.0          # (dh/dp) dw/dq + dh/dq
        Gamma = 0.7 + w * 0.2         # dh/dz + (dh/dp) dw/dz
        contact = dq_h + Gamma * w - hval * 0.2
        rep = kc.hj_zdep_residual(h, gamma, kc.GaugeMatrix(lambda qq, zz: [[-h(gamma.at(qq, zz))]]),
                                  mode="standard", samples=np.array([q + z]))
        assert rep.sup_residual == pytest.approx(abs(contact), abs=1e-12)


def test_zdep_residual_two_dimensional_base(rng):
    # n = 2, k = 1 with genuine z-dependence satisfying the compatibility
    # condition: gamma_1 = W'(q1) + z, gamma_2 = 0.  Residuals are checked
    # against a hand transcription of the corrected identity.
    chart = kc.ChartSpec(2, 1)
    lam = 0.7

    def W1(x):
        return 0.3 * x ** 3

    def W1p(x):
        return 0.9 * x ** 2

    def W1pp(x):
        return 1.8 * x

    gamma = kc.SectionZDep(chart, gamma_p=lambda q, z: [[W1p(q[0]) + z[0], 0.0 * q[0]]])
    samples = np.column_stack([2 * rng.random(6) - 1, 2 * rng.random(6) - 1,
                               2 * rng.random(6) - 1])
    assert kc.check_max_coisotropic(gamma, samples) <= 1e-12

    h = kc.ScalarField(chart, lambda pt: 0.5 * (pt.p[0, 0] ** 2 + pt.p[0, 1] ** 2)
                       + lam * pt.z[0])
    C = kc.GaugeMatrix(lambda q, z: [[-float(h(gamma.at(q, z)))]])
    for row in samples:
        q, z = row[:2], row[2:]
        g1 = W1p(q[0]) + z[0]
        hval = 0.5 * g1 ** 2 + lam * z[0]
        Gamma = lam + g1
        expected_r1 = abs(g1 * W1pp(q[0]) + Gamma * g1 - hval)
        rep = kc.hj_zdep_residual(h, gamma, C, mode="standard",
                                  samples=np.array([row]))
        assert rep.sup_residual == pytest.approx(expected_r1, abs=1e-12)
        out = kc.gamma_beta(h, gamma, q, z)
        assert out[0] == pytest.approx(Gamma, abs=1e-12)


# -- complete families ----------------------------------------------------------------

def _param_mesh(m=3):
    axes = [np.linspace(-1, 1, m)] * 2
    return np.array(np.meshgrid(*axes)).reshape(2, -1).T


@pytest.mark.parametrize("name", ["telegrapher", "hunter-saxton", "first-order-dissipative"])
@pytest.mark.parametrize("mode", ["standard", "evolution"])
def test_complete_families_pass(name, mode):
    ex = corpus.load(name)
    h = ex.hamiltonian()
    fam = ex.families["complete"]({**ex.defaults, "a": 1.0})
    ver = kc.verify_complete(fam, h, mode, _param_mesh(), count=40, seed=11)
    assert ver.failures == []
    assert ver.sup_residual <= 1e-10
    assert ver.sup_roundtrip <= 1e-12


def test_complete_family_broken_inverse_flagged(rng):
    ex = corpus.load("hunter-saxton")
    h = ex.hamiltonian()
    a = 1.0
    good = ex.families["complete"]({"mu": 3.0, "a": a})

    def bad_inverse(pt):
        out = good.phi_inverse(pt)
        out[1] = float(pt.p[0, 0]) + a * float(pt.z[0])  # sign flipped
        return out

    fam = kc.CompleteSolutionFamily(good.chart, good.phi, good.param_box,
                                    phi_inverse=bad_inverse)
    samples = np.array([[0.2, 0.5, -0.3], [0.1, -1.0, 0.4]])
    ver = kc.verify_complete(fam, h, "evolution", _param_mesh(), base_samples=samples)
    assert ver.failures  # round-trip errors reported per parameter
    zmax = np.max(np.abs(samples[:, 1]))
    assert ver.sup_roundtrip == pytest.approx(2 * a * zmax, abs=1e-12)


@pytest.mark.parametrize("name", ["telegrapher", "hunter-saxton", "first-order-dissipative"])
def test_diagonal_gauge_shares_the_residual_ingredients(name, rng):
    """The diagonal gauge is solved from the ingredients the residual builds,
    so the sweep evaluates h exactly as often as with an explicit gauge."""
    ex = corpus.load(name)
    h, calls = _counting(ex.hamiltonian())
    entry = ex.sections["zdep-family"]
    gamma = entry.build(dict(entry.defaults))
    samples = 2.0 * rng.random((15, 3)) - 1.0
    zero = kc.GaugeMatrix(lambda q, z: [[0.0, 0.0], [0.0, 0.0]])
    kc.hj_zdep_residual(h, gamma, zero, mode="evolution", samples=samples)
    explicit, calls[0] = calls[0], 0
    C = kc.diagonal_gauge_matrix(h, gamma, "evolution")
    rep = kc.hj_zdep_residual(h, gamma, C, mode="evolution", samples=samples)
    assert explicit > 0 and calls[0] == explicit
    # checked against another Hamiltonian, the gauge keeps the entries solved for its own
    other = ex.hamiltonian({k: 2.0 * v + 0.5 for k, v in ex.defaults.items()})
    wrapped = kc.GaugeMatrix(lambda q, z: kc.solve_diagonal_C(h, gamma, "evolution", q, z))
    mixed = kc.hj_zdep_residual(other, gamma, C, mode="evolution", samples=samples)
    assert mixed.sup_residual > 1e-6
    assert mixed.sup_residual == kc.hj_zdep_residual(other, gamma, wrapped, mode="evolution",
                                                     samples=samples).sup_residual
    assert rep.sup_residual <= 1e-10


def test_verify_complete_rejects_an_unknown_mode_up_front():
    ex = corpus.load("telegrapher")
    fam = ex.families["complete"]({**ex.defaults, "a": 1.0})
    with pytest.raises(kc.ContractError, match="unknown mode 'bogus'"):
        kc.verify_complete(fam, ex.hamiltonian(), "bogus", _param_mesh(2), count=5)


def test_verify_complete_keys_slices_by_plain_floats():
    ex = corpus.load("telegrapher")
    fam = ex.families["complete"]({**ex.defaults, "a": 1.0})
    ver = kc.verify_complete(fam, ex.hamiltonian(), "standard", _param_mesh(2), count=5,
                             res_tol=1e-300)
    for key, _ in ver.failures + ver.reports:
        assert type(key) is tuple and all(type(x) is float for x in key)
    assert str(ver.failures[0][0]) == "(-1.0, -1.0)"


# -- lane sweeps against the rows one by one -------------------------------------------------

def _rows_one_by_one():
    """Every lane pass refused, so sweeps and round trips run their per-row loops."""
    return mock.patch.object(dm, "_lanes", lambda fn, X: None)


def _run(fn, lanes=True):
    """Outcome of ``fn`` (value, or exception type and message) and the per-row
    residual arrays its sweeps produced, with or without lane passes."""
    seen, top = [], hj._top_offenders

    def spy(values, points):
        seen.append(np.array(values, dtype=float))
        return top(values, points)

    lanes_off = contextlib.nullcontext() if lanes else _rows_one_by_one()
    with mock.patch.object(hj, "_top_offenders", spy), lanes_off:
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - the comparison is on type and message
            out = (type(exc), str(exc))
    return out, seen


def _assert_sweep_matches_rows(check, X):
    """The lane sweep gives the row-by-row outcome, and each row's residual is
    that row checked alone without lanes (rows outside the domain are skipped)."""
    got, seen = _run(lambda: check(X))
    want, _ = _run(lambda: check(X), lanes=False)
    assert repr(got) == repr(want)
    if not isinstance(want, kc.HJReport):
        return want
    vals, used = [], []
    for row in X:
        one, _ = _run(lambda: check(row[None, :]), lanes=False)
        if isinstance(one, tuple) and "no admissible sample points" in one[1]:
            continue
        vals.append(one.sup_residual)
        used.append(row)
    assert np.array_equal(seen[0], vals, equal_nan=True)
    assert repr(got.sup_residual) == repr(float(np.max(vals)))
    assert got.sample_count == len(used)
    assert got.worst == hj._top_offenders(np.array(vals), used)
    return got


def _section_case(name, key):
    ex = corpus.load(name)
    entry = ex.sections[key]
    P = dict(entry.defaults)
    gamma = entry.build(P)
    h = ex.hamiltonian({k: v for k, v in P.items() if k in ex.defaults})
    C = entry.gauge(P) if entry.gauge is not None else None
    dim = gamma.chart.n + (0 if entry.kind == "zind" else gamma.chart.k)
    return h, gamma, C, dim


def _rows(data, dim, lo=-1.0, hi=2.0, most=8):
    row = st.lists(st.floats(lo, hi), min_size=dim, max_size=dim)
    return np.array(data.draw(st.lists(row, min_size=1, max_size=most)), dtype=float)


SECTIONS = [(name, key) for name in corpus.EXAMPLE_NAMES for key in corpus.load(name).sections]


@pytest.mark.parametrize("name,key", SECTIONS)
@pytest.mark.parametrize("mode", ["standard", "evolution"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_lane_sweep_matches_the_rows_one_by_one(name, key, mode, data):
    # rows from [-1, 2] straddle the domain edges of the square-root and log sections
    h, gamma, C, dim = _section_case(name, key)
    _assert_sweep_matches_rows(lambda S: hj._check(h, gamma, mode, C, samples=S)[0],
                               _rows(data, dim))


def _families():
    """Every corpus family, plus a telegrapher family whose inverse is wrong and one
    that leaves the section off u = 0, both written so that lanes can run them."""
    out = {}
    for name in corpus.EXAMPLE_NAMES:
        ex = corpus.load(name)
        for key, build in ex.families.items():
            out[f"{name}/{key}"] = (ex.hamiltonian(), build({**ex.defaults, "a": 1.0}))
    h, good = out["telegrapher/complete"]

    def wrong_inverse(pt):
        back = good.phi_inverse(pt)
        return back[:1] + [back[1] + 2.0 * pt.z[0]] + back[2:]

    def off_section(q, lam, z):
        pt = good.phi(q, lam, z)
        return kc.DarbouxPoint([q[0] * (1.0 + 1e-9 * q[0])], [[pt.p[0, 0]], [pt.p[1, 0]]], list(z))

    out["wrong-inverse"] = (h, dataclasses.replace(good, phi_inverse=wrong_inverse))
    out["off-section"] = (h, dataclasses.replace(good, phi=off_section))
    return out


FAMILIES = _families()


@pytest.mark.parametrize("fam_key", sorted(FAMILIES))
@pytest.mark.parametrize("mode", ["standard", "evolution"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_verify_complete_lanes_match_the_rows_one_by_one(fam_key, mode, data):
    h, fam = FAMILIES[fam_key]
    X = _rows(data, 3, -1.0, 1.0)
    params = _rows(data, 2, -1.0, 1.0, most=3)
    got, seen = _run(lambda: kc.verify_complete(fam, h, mode, params, base_samples=X))
    want, want_seen = _run(lambda: kc.verify_complete(fam, h, mode, params, base_samples=X),
                           lanes=False)
    assert repr(got) == repr(want)
    assert len(seen) == len(want_seen)
    assert all(np.array_equal(a, b) for a, b in zip(seen, want_seen))
    for lam in params:
        _assert_sweep_matches_rows(lambda S: hj._check(h, fam.section_of(lam), mode, samples=S)[0],
                                   X)


def test_verify_complete_flags_a_wrong_inverse_and_the_first_row_off_the_section():
    h, _ = FAMILIES["wrong-inverse"]
    X = np.array([[0.0, 0.5, -0.25], [0.5, -0.75, 0.5], [-0.5, 0.25, 0.0]])
    ver = kc.verify_complete(FAMILIES["wrong-inverse"][1], h, "evolution", [[0.5, -0.5]],
                             base_samples=X)
    assert ver.sup_roundtrip == 2.0 * 0.75
    ver = kc.verify_complete(FAMILIES["off-section"][1], h, "evolution", [[0.5, -0.5]],
                             base_samples=X)
    # u = 0 stays on the section, so the check stops at the second row
    assert ver.failures[0] == ((0.5, -0.5), "family is not a section at (0.5, -0.75, 0.5)")


def _trace_mismatch():
    ex, h = tel()
    gamma = ex.sections["zdep-family"].build(dict(ex.sections["zdep-family"].defaults))
    # the trace vanishes at u = 0.1 and u = 0.2, so only the third row fails
    C = kc.GaugeMatrix(lambda q, z: [[(q[0] - 0.1) * (q[0] - 0.2), 0.0], [0.0, 0.0]])
    return (lambda S: kc.hj_zdep_residual(h, gamma, C, mode="evolution", samples=S),
            np.array([[0.1, 0.5, -0.5], [0.2, -0.3, 0.4], [0.3, 0.25, 0.75], [0.1, 0.0, 0.0]]),
            kc.ContractError, "gauge matrix trace 2.000000e-02 != 0 at (0.3, 0.25, 0.75)")


def _singular_diagonal():
    # d_z of the coefficients is 1e-7 apart; the singularity threshold 1e-12 * scale
    # grows with xi = 1e6 u, so the first row is regular and the second singular
    h = kc.ScalarField(CH12, lambda pt: 5e5 * pt.q[0] * pt.q[0])
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[1e-7 * z[0]], [0.0 * z[1]]])
    C = kc.diagonal_gauge_matrix(h, gamma, "evolution")
    return (lambda S: kc.hj_zdep_residual(h, gamma, C, mode="evolution", samples=S),
            np.array([[1e-4, 0.5, -0.5], [0.5, 0.1, 0.2], [2e-4, 0.3, 0.3]]),
            kc.NoSolutionError,
            "diagonal gauge-matrix system is singular and inconsistent at this point")


def _math_domain():
    ex, h = tel()
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[dm.log(z[0] + 0.5)], [-z[1]]])
    return (lambda S: hj._check(h, gamma, "standard", samples=S)[0],
            np.array([[0.1, 0.5, -0.5], [0.2, -0.75, 0.4], [0.3, -0.9, 0.1]]),
            ValueError, "math domain error")


def _ragged_gauge():
    ex, h = tel()
    gamma = ex.sections["zdep-family"].build(dict(ex.sections["zdep-family"].defaults))
    C = kc.GaugeMatrix(lambda q, z: [[z[0], 0.0], [0.0]])  # the second row is short
    return (lambda S: kc.hj_zdep_residual(h, gamma, C, mode="evolution", samples=S),
            np.array([[0.1, 0.5, -0.5], [0.2, -0.3, 0.4]]),
            kc.ContractError, "gauge matrix is not a 2 x 2 array of numbers")


@pytest.mark.parametrize("case", [_trace_mismatch, _singular_diagonal, _math_domain, _ragged_gauge])
def test_failed_lane_sweep_raises_the_scalar_error(case):
    check, X, kind, message = case()
    # the lane pass meets rows that do not agree, so the rows run one by one
    assert _assert_sweep_matches_rows(check, X) == (kind, message)


def test_verify_complete_runs_the_samples_as_lanes():
    """Guard that the lane path is taken: each lane pass of up to ``_LANE_CHUNK``
    samples (all 729 here) costs two h evaluations and three phi calls (two for
    the section coefficients, one for the round trip), not that many per sample."""
    ex = corpus.load("telegrapher")
    h, h_calls = _counting(ex.hamiltonian())
    fam = ex.families["complete"]({**ex.defaults, "a": 1.0})
    phi_calls = [0]

    def phi(q, lam, z):
        phi_calls[0] += 1
        return fam.phi(q, lam, z)

    counted = dataclasses.replace(fam, phi=phi)
    samples = np.random.default_rng(1).uniform(-1.0, 1.0, (729, 3))
    ver = kc.verify_complete(counted, h, "standard", [[0.5, -0.5]], base_samples=samples)
    passes = math.ceil(729 / dm._LANE_CHUNK)
    assert h_calls[0] == 2 * passes < 4 * 729
    assert phi_calls[0] == 3 * passes
    assert ver.failures == [] and ver.sample_count == 729
    want, _ = _run(lambda: kc.verify_complete(fam, ex.hamiltonian(), "standard", [[0.5, -0.5]],
                                              base_samples=samples), lanes=False)
    assert repr(ver) == repr(want)


# -- preconditions and sample admission ---------------------------------------------------

def test_non_finite_defects_fail_the_preconditions():
    nan = float("nan")
    _, h = tel()
    gamma = kc.SectionZInd(CH12, gamma_p=lambda q: [[nan * q[0]], [1.0]], gamma_z=lambda q: [0.0, q[0]])
    for check in (kc.hj_classical_zind, kc.hj_evolution_zind):
        with pytest.raises(kc.ContractError, match=r"not holonomic \(defect nan\)"):
            check(h, gamma, samples=U_SAMPLES)
    chart = kc.ChartSpec(2, 1)
    skew = kc.SectionZDep(chart, gamma_p=lambda q, z: [[q[1], nan * q[0]]])
    h2 = kc.ScalarField(chart, lambda pt: pt.p[0, 0] * pt.p[0, 1])
    with pytest.raises(kc.ContractError, match=r"not maximally coisotropic \(defect nan\)"):
        kc.hj_zdep_residual(h2, skew, kc.GaugeMatrix(lambda q, z: [[0.0]]), mode="evolution",
                            samples=[[0.3, -0.8, 0.1]])


@pytest.mark.parametrize("key", ["classical-zind", "zdep-family"])
def test_sweeps_without_a_domain_admit_every_row_unchecked(key, rng):
    ex, h = tel()
    entry = ex.sections[key]
    gamma = entry.build(dict(entry.defaults))
    assert gamma.domain is None
    samples = rng.uniform(0.5, 1.5, (40, 1 if entry.kind == "zind" else 3))
    with mock.patch.object(type(gamma), "in_domain", side_effect=AssertionError("admission ran")):
        rep, _ = hj._check(h, gamma, "standard", samples=samples)
    assert rep.sample_count == 40


def test_a_raising_domain_predicate_keeps_the_row_order_of_errors():
    _, h = tel()

    def domain(q, z):
        if q[0] > 0.8:
            raise ZeroDivisionError("domain predicate failed")
        return True

    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[dm.log(z[0] + 0.5)], [-z[1]]], domain=domain)
    ok, log_fails, predicate_fails = [0.1, 0.5, 0.0], [0.2, -0.9, 0.1], [0.9, 0.1, 0.1]
    for X, want in (([ok, log_fails, predicate_fails], "math domain error"),
                    ([ok, predicate_fails, log_fails], "domain predicate failed")):
        for lanes in (True, False):
            got, _ = _run(lambda: hj._check(h, gamma, "standard", samples=np.array(X)), lanes)
            assert got[1] == want


@pytest.mark.parametrize("mode", ["standard", "evolution"])
def test_diagonal_gauge_for_three_components_solves_the_identity(mode):
    # k = 3 leaves the diagonal system underdetermined: the solver takes its minimum-norm solution
    chart = kc.ChartSpec(1, 3)
    h = kc.ScalarField(chart, lambda pt: pt.p[0, 0] * pt.p[1, 0] + pt.q[0] * pt.z[2] + pt.p[2, 0] ** 2)
    gamma = kc.SectionZDep(chart, gamma_p=lambda q, z: [[z[0] + q[0]], [2.0 * z[1]], [q[0] * z[2]]])
    C = kc.solve_diagonal_C(h, gamma, mode, [0.3], [0.1, 0.2, -0.4])
    assert np.count_nonzero(C - np.diag(np.diag(C))) == 0
    want = 0.0 if mode == "evolution" else -h(gamma.at([0.3], [0.1, 0.2, -0.4]))
    assert np.trace(C) == pytest.approx(want, abs=1e-12)
    rep = kc.hj_zdep_residual(h, gamma, kc.diagonal_gauge_matrix(h, gamma, mode), mode=mode, count=50)
    assert rep.sample_count == 50 and rep.sup_residual <= 1e-12


# -- a NaN residual is a failure, never a pass -------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize("mode", ["standard", "evolution"])
def test_a_nan_zdep_residual_fails_the_check(mode):
    # the NaN off-diagonal gauge entry leaves the trace at 0 = -h: both trace checks pass
    h = kc.ScalarField(CH12, lambda pt: pt.q[0] * 0.0)
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[z[0]], [z[1]]])
    gauge = kc.GaugeMatrix(lambda q, z: [[0.0, NAN], [0.0, 0.0]])
    rep = kc.hj_zdep_residual(h, gamma, gauge, mode=mode, count=20)
    assert math.isnan(rep.sup_residual) and rep.verdict(1e-10) == "FAIL"


def test_a_nan_gauge_trace_check_fails_in_standard_mode():
    h = kc.ScalarField(CH12, lambda pt: pt.q[0] * NAN)
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[z[0]], [z[1]]])
    zero = kc.GaugeMatrix(lambda q, z: [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(kc.ContractError, match=r"gauge matrix trace 0.000000e\+00 != -\(h on section\) nan"):
        kc.hj_zdep_residual(h, gamma, zero, mode="standard", count=20)


def test_a_nan_gauge_trace_fails_in_evolution_mode():
    h = kc.ScalarField(CH12, lambda pt: pt.q[0] * 0.0)
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[z[0]], [z[1]]])
    gauge = kc.GaugeMatrix(lambda q, z: [[NAN if q[0] > 0.0 else 0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(kc.ContractError, match="gauge matrix trace nan != 0 at"):
        kc.hj_zdep_residual(h, gamma, gauge, mode="evolution", count=20)


def test_a_nan_entry_of_the_q_gradient_fails_evolution_zind():
    # the gradient along the section is (0, NaN): the NaN is not its first entry
    chart = kc.ChartSpec(2, 1)
    h = kc.ScalarField(chart, lambda pt: pt.q[1] * 1e300 * 1e300 * 0.0 + pt.p[0, 0] ** 2)
    gamma = kc.SectionZInd(chart, gamma_p=lambda q: [[0.0, 0.0]], gamma_z=lambda q: [0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = kc.hj_evolution_zind(h, gamma, count=20)
    assert math.isnan(rep.sup_residual) and rep.verdict(1e-10) == "FAIL"


def test_verify_complete_records_a_nan_slice_residual_as_a_failure():
    # d p / d z is nearly 1e300 * identity, so the finite diagonal gauge of trace 0 times the
    # z-Jacobian overflows to inf - inf in the residual while the trace check passes
    def phi(q, lam, z):
        return kc.DarbouxPoint([q[0]], [[1e300 * z[0] + lam[0]], [(1e300 - 1e289) * z[1] + lam[1]]],
                               list(z))

    fam = kc.CompleteSolutionFamily(CH12, phi, ((-1.0, 1.0), (-1.0, 1.0)))
    h = kc.ScalarField(CH12, lambda pt: 1e300 * pt.q[0])
    X = np.array([[0.0, 0.5, -0.25], [0.5, -0.75, 0.5], [-0.5, 0.25, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        ver = kc.verify_complete(fam, h, "evolution", [[0.5, -0.5]], base_samples=X)
    assert math.isnan(ver.sup_residual) and not ver.passed(1e-10)
    assert ver.failures == [((0.5, -0.5), "sup residual nan > 1.0e-10")]


def test_verify_complete_records_a_nan_gauge_trace_as_a_failure():
    ex, h = tel()
    h_nan = kc.ScalarField(CH12, lambda pt: h.fn(pt) + pt.q[0] * NAN)
    fam = ex.families["complete"]({**ex.defaults, "a": 1.0})
    X = np.array([[0.0, 0.5, -0.25], [0.5, -0.75, 0.5], [-0.5, 0.25, 0.0]])
    ver = kc.verify_complete(fam, h_nan, "evolution", [[0.5, -0.5]], base_samples=X)
    # the diagonal gauge solved from h_nan is NaN, so the slice fails at its trace check
    assert not ver.passed(1e-10) and ver.reports == []
    assert ver.failures == [((0.5, -0.5), "gauge matrix trace nan != 0 at (0.0, 0.5, -0.25)")]


def test_verify_complete_slices_failing_before_their_residual_leave_nan_sups():
    ex, h = tel()
    h_nan = kc.ScalarField(CH12, lambda pt: h.fn(pt) + pt.q[0] * NAN)
    fam = ex.families["complete"]({**ex.defaults, "a": 1.0})
    X = np.array([[0.0, 0.5, -0.25], [0.5, -0.75, 0.5], [-0.5, 0.25, 0.0]])
    ver = kc.verify_complete(fam, h_nan, "evolution", [[0.5, -0.5], [-0.5, 0.5]], base_samples=X)
    assert [key for key, _ in ver.failures] == [(0.5, -0.5), (-0.5, 0.5)] and ver.reports == []
    # no slice has a residual, so neither sup may read 0
    assert math.isnan(ver.sup_residual) and math.isnan(ver.sup_roundtrip)


def test_verify_complete_records_a_nan_round_trip_as_a_failure():
    h, good = FAMILIES["telegrapher/complete"]
    fam = dataclasses.replace(good, phi_inverse=lambda pt: [NAN] + good.phi_inverse(pt)[1:])
    X = np.array([[0.0, 0.5, -0.25], [0.5, -0.75, 0.5], [-0.5, 0.25, 0.0]])
    ver = kc.verify_complete(fam, h, "evolution", [[0.5, -0.5]], base_samples=X)
    assert math.isnan(ver.sup_roundtrip) and not ver.passed(1e-10)
    assert ver.failures == [((0.5, -0.5), "inverse round-trip error nan > 1.0e-12")]


def test_verify_complete_counts_a_nan_section_error_as_off_the_section():
    h, good = FAMILIES["telegrapher/complete"]

    def phi(q, lam, z):  # z^x comes back NaN, which no section check may read as 0
        return types.SimpleNamespace(q=list(q), p=good.phi(q, lam, z).p, z=[z[0], NAN])

    X = np.array([[0.0, 0.5, -0.25], [0.5, -0.75, 0.5]])
    ver = kc.verify_complete(dataclasses.replace(good, phi=phi), h, "evolution", [[0.5, -0.5]],
                             base_samples=X)
    assert ver.failures == [((0.5, -0.5), "family is not a section at (0.0, 0.5, -0.25)")]
