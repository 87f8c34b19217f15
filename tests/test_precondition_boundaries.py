"""The precondition comparisons and the blow-up guards at their boundary: a value exactly at
its tolerance is accepted, and the same value one float step past the tolerance is refused.
Where the tolerance is a module constant, the test sets it to the value the check meets."""

import dataclasses

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus, hdw, hj, integrate
from kcontact import dual as dm
from kcontact.grids import BaseField, GridSpec

CH12 = kc.ChartSpec(1, 2)
GUARD = integrate.BLOWUP_GUARD


def below(x):
    """The float one step below ``x``: a tolerance that ``x`` exceeds by one step."""
    return float(np.nextafter(x, -np.inf))


def above(x):
    return float(np.nextafter(x, np.inf))


# -- the blow-up guards of integral_section ---------------------------------------------

def replays_seen(monkeypatch):
    """Per replay of a recorded RK4 step from here on: True when it ran on lanes.  The programs
    of each direction's evaluation, replayed while its step is recorded, are left out."""
    seen, record = [], dm._program

    def program(fn, x0):
        prog = record(fn, x0)
        if fn.func is not integrate._rk4_step:
            return prog
        return prog and (lambda x: seen.append(isinstance(x[0], dm._Lanes)) or prog(x))

    monkeypatch.setattr(dm, "_program", program)
    return seen


def _lines(end, lanes):
    """Constant unit speed along the last coordinate over two cells of 6, in RK4 steps of 1.5
    that are all exact: a line from end - 12 lands on ``end``.  With ``lanes`` a first direction
    moves the other coordinate, so the second direction's three lines run as lanes."""
    if not lanes:
        return BaseField(dim=1, comps=[lambda x: [1.0]]), [end - 12.0], GridSpec([0.0], [6.0], [3])
    f = BaseField(dim=2, comps=[lambda x: [1.0, 0.0], lambda x: [0.0, 1.0]])
    return f, [0.0, end - 12.0], GridSpec([0.0, 0.0], [6.0, 6.0], [3, 3])


@pytest.mark.parametrize("form", ["floats", "lanes", "unrecorded"])
@pytest.mark.parametrize("end, diverges", [(GUARD, False), (above(GUARD), True)])
def test_a_flow_landing_on_the_blow_up_guard_continues_and_one_step_past_it_diverges(
        form, end, diverges, monkeypatch):
    f, start, grid = _lines(end, lanes=form == "lanes")
    seen = replays_seen(monkeypatch)
    if form == "unrecorded":
        monkeypatch.setattr(dm, "_program", lambda fn, x0: None)
    if diverges:
        with pytest.raises(kc.DivergenceError, match="exceeded the blow-up guard"):
            kc.integral_section(f, start, grid)
    else:
        assert kc.integral_section(f, start, grid).values[..., -1].max() == GUARD
    assert (True in seen) == (form == "lanes") and bool(seen) == (form != "unrecorded")


def test_a_start_point_on_the_blow_up_guard_is_taken_and_one_step_past_it_refused():
    f, grid = BaseField(dim=1, comps=[lambda x: [0.0]]), GridSpec([0.0], [0.1], [3])
    assert kc.integral_section(f, [-GUARD], grid).values.tolist() == [[-GUARD]] * 3
    with pytest.raises(kc.ContractError, match="exceeds the blow-up guard"):
        kc.integral_section(f, [below(-GUARD)], grid)


# -- the preconditions of the Hamilton-Jacobi checks ------------------------------------

def test_the_holonomy_check_passes_a_defect_at_its_tolerance(monkeypatch):
    h = corpus.load("telegrapher").hamiltonian()
    broken = kc.SectionZInd(CH12, gamma_p=lambda q: [[1.0], [0.0]], gamma_z=lambda q: [0.0, 0.0])
    samples = np.linspace(0.5, 2.0, 5).reshape(-1, 1)
    assert kc.check_holonomic(broken, samples) == 1.0
    for check in (kc.hj_classical_zind, kc.hj_evolution_zind):
        monkeypatch.setattr(hj, "HOLONOMY_TOL", 1.0)
        check(h, broken, samples=samples)
        monkeypatch.setattr(hj, "HOLONOMY_TOL", below(1.0))
        with pytest.raises(kc.ContractError, match=r"not holonomic \(defect 1.000e\+00\)"):
            check(h, broken, samples=samples)


def test_the_coisotropy_check_passes_a_defect_at_its_tolerance(monkeypatch):
    chart = kc.ChartSpec(2, 1)
    skew = kc.SectionZDep(chart, gamma_p=lambda q, z: [[q[1], 0.0 * q[0]]])
    h = kc.ScalarField(chart, lambda pt: pt.p[0, 0] * pt.p[0, 1])
    samples = [[0.3, -0.8, 0.1], [0.5, 0.25, -0.5]]
    assert kc.check_max_coisotropic(skew, samples) == 1.0

    def check():
        return kc.hj_zdep_residual(h, skew, kc.GaugeMatrix(lambda q, z: [[0.0]]), mode="evolution",
                                   samples=samples)

    monkeypatch.setattr(hj, "COISO_TOL", 1.0)
    check()
    monkeypatch.setattr(hj, "COISO_TOL", below(1.0))
    with pytest.raises(kc.ContractError, match=r"not maximally coisotropic \(defect 1.000e\+00\)"):
        check()


@pytest.mark.parametrize("mode, tol, trace, message", [
    # h is 0.25 on the section, the trace 0: |trace + h| = 0.25
    ("standard", "TRACE_TOL_STANDARD", 0.0, r"gauge matrix trace 0.000000e\+00 != -\(h on section\)"),
    ("evolution", "TRACE_TOL_EVOLUTION", 0.25, r"gauge matrix trace 2.500000e-01 != 0 at"),
])
def test_the_gauge_trace_check_passes_a_mismatch_at_its_tolerance(mode, tol, trace, message, monkeypatch):
    h = kc.ScalarField(CH12, lambda pt: 0.25 + 0.0 * pt.q[0])
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[0.5], [-0.3]])
    C = kc.GaugeMatrix(lambda q, z: [[trace, 0.0], [0.0, 0.0]])
    samples = [[0.1, 0.5, -0.5], [0.2, -0.3, 0.4], [0.3, 0.25, 0.75]]
    monkeypatch.setattr(hj, tol, 0.25)
    kc.hj_zdep_residual(h, gamma, C, mode=mode, samples=samples)
    monkeypatch.setattr(hj, tol, below(0.25))
    with pytest.raises(kc.ContractError, match=message):
        kc.hj_zdep_residual(h, gamma, C, mode=mode, samples=samples)


def test_the_section_check_of_a_complete_family_passes_an_error_at_its_tolerance(monkeypatch):
    # phi moves u by exactly 0.5 on every row, and the inverse is off by u + 0.5: the round
    # trip is checked on every row at the tolerance, on none one step past it
    good = corpus.load("telegrapher").families["complete"]({"lambda": 1.0})
    family = dataclasses.replace(
        good, phi=lambda q, lam, z: kc.DarbouxPoint([q[0] + 0.5], [[0.0], [0.0]], list(z)),
        phi_inverse=lambda pt: [pt.q[0] - 0.5, 0.5 + pt.q[0], -0.5] + list(pt.z))
    pts = np.array([[0.125, 0.5, -0.5], [0.25, 0.0, 0.25], [-0.375, 0.75, 0.0]])
    monkeypatch.setattr(hj, "_SECTION_TOL", 0.5)
    assert hj._roundtrip(family, [0.5, -0.5], pts, 1) == (0.75, None)
    monkeypatch.setattr(hj, "_SECTION_TOL", below(0.5))
    rt, off = hj._roundtrip(family, [0.5, -0.5], pts, 1)
    assert rt == 0.0 and off.tolist() == pts[0].tolist()


# -- the preconditions of the evolution lift and of the affinity check ------------------

def _canonical_conservative(H):
    def at(pt):
        g = kc.grad(H, pt)
        comps = []
        for a in range(H.chart.k):
            P = np.zeros((H.chart.k, H.chart.n))
            P[a] = -g.d_q / H.chart.k
            comps.append(kc.Tangent(g.d_p[a], P, np.zeros(H.chart.k)))
        return kc.KTangent(comps)

    return kc.KVectorField(H.chart, at)


PT = kc.DarbouxPoint([0.0], [[1.0], [0.0]], [0.0, 0.0])


def test_the_evolution_lift_takes_a_z_slope_at_its_tolerance():
    H0 = kc.ScalarField(CH12, lambda pt: 0.5 * pt.p[0, 0] ** 2)
    H = kc.ScalarField(CH12, lambda pt: H0.fn(pt) + 0.25 * pt.z[0])
    kc.evolution_lift(H, _canonical_conservative(H0), check_tol=0.25).at(PT)
    with pytest.raises(kc.ContractError, match="depends on the extra coordinates"):
        kc.evolution_lift(H, _canonical_conservative(H0), check_tol=below(0.25)).at(PT)


def test_the_evolution_lift_takes_a_defect_at_its_tolerance():
    # the zero field leaves d h / d p = 1 unmatched at PT
    H = kc.ScalarField(CH12, lambda pt: 0.5 * pt.p[0, 0] ** 2)
    wrong = kc.KVectorField(CH12, lambda pt: kc.KTangent.zero(CH12))
    kc.evolution_lift(H, wrong, check_tol=1.0).at(PT)
    with pytest.raises(kc.ContractError, match=r"momentum-sector equations \(defect 1.000e\+00\)"):
        kc.evolution_lift(H, wrong, check_tol=below(1.0)).at(PT)


def test_the_affinity_check_takes_a_spread_at_its_tolerance(monkeypatch):
    # the z-gradient is (0.5, 0) for u > 0 and (0, 0) otherwise: its spread is 0.5
    h = kc.ScalarField(CH12, lambda pt: 0.5 * pt.p[0, 0] ** 2 + (0.5 if pt.q[0] > 0.0 else 0.0) * pt.z[0])
    monkeypatch.setattr(hdw, "_AFFINE_TOL", 0.5)
    hdw._affine_z_coefficients(h, np.random.default_rng(3))
    monkeypatch.setattr(hdw, "_AFFINE_TOL", below(0.5))
    with pytest.raises(kc.ContractError, match="not affine in the extra coordinates"):
        hdw._affine_z_coefficients(h, np.random.default_rng(3))
