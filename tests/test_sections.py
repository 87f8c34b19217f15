"""Section types and the holonomy / compatibility / slice-isotropy checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcontact as kc
from kcontact.sections import _coeff_jacobian, default_box, sample_box

CH12 = kc.ChartSpec(1, 2)
CH21 = kc.ChartSpec(2, 1)


def test_from_potentials_constant():
    gamma = kc.from_potentials(CH12, lambda q: [1.0, -2.0])
    pt = gamma.at([0.7])
    assert np.allclose(pt.p, 0.0)
    assert pt.z == pytest.approx([1.0, -2.0])


def test_from_potentials_telegrapher_family():
    c, a, C0, C1 = 2.0, -2.0 / 3.0, 0.3, -0.15
    gamma = kc.from_potentials(
        CH12, lambda q: [0.5 * c * a * q[0] ** 2 + c * C1 + C0, 0.5 * a * q[0] ** 2 + C1]
    )
    u = 0.8
    pt = gamma.at([u])
    assert pt.p[0, 0] == pytest.approx(c * a * u)
    assert pt.p[1, 0] == pytest.approx(a * u)


def test_from_potentials_hs_family():
    mu, c, C1 = 3.0, 0.5, 0.2
    gamma = kc.from_potentials(
        CH12,
        lambda q: [mu * (q[0] + c), mu * q[0] ** 2 + 0.5 * (2 * c + 1) * mu * q[0] + C1],
    )
    u = -0.4
    pt = gamma.at([u])
    assert pt.p[0, 0] == pytest.approx(mu)
    assert pt.p[1, 0] == pytest.approx(mu * (2 * u + c) + 0.5 * mu)


def test_check_holonomic_defect():
    samples = np.linspace(-1, 1, 17).reshape(-1, 1)
    built = kc.from_potentials(CH12, lambda q: [q[0] ** 3, dm_exp_helper(q[0])])
    assert kc.check_holonomic(built, samples) < 1e-12

    broken = kc.SectionZInd(CH12, gamma_p=lambda q: [[1.0], [1.0]],
                            gamma_z=lambda q: [0.0, 0.0])
    assert kc.check_holonomic(broken, samples) == pytest.approx(1.0)


def dm_exp_helper(x):
    from kcontact import dual as dm

    return dm.exp(0.5 * x)


def test_holonomic_implies_symmetric_derivatives(rng):
    chart = kc.ChartSpec(2, 2)
    gamma = kc.from_potentials(
        chart, lambda q: [q[0] ** 2 * q[1], q[0] * q[1] ** 3 + q[0]]
    )
    samples = 2.0 * rng.random((30, 2)) - 1.0
    assert kc.check_holonomic(gamma, samples) < 1e-12
    from kcontact import dual as dm

    for q in samples:
        _, rows = dm.jacobian(lambda v: [x for r in gamma.p_at(v) for x in r], list(q))
        J = np.asarray(rows, dtype=float).reshape(2, 2, 2)  # [component, i, dq_j]
        for a in range(2):
            assert abs(J[a, 0, 1] - J[a, 1, 0]) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_from_potentials_always_holonomic(seed):
    r = np.random.default_rng(seed)
    coef = 2.0 * r.random(8) - 1.0
    chart = kc.ChartSpec(2, 2)

    def W(q):
        return [
            coef[0] * q[0] ** 3 + coef[1] * q[0] * q[1] + coef[2] * q[1] ** 2 + coef[3],
            coef[4] * q[1] ** 3 + coef[5] * q[0] ** 2 + coef[6] * q[0] * q[1] + coef[7],
        ]

    gamma = kc.from_potentials(chart, W)
    samples = 2.0 * r.random((25, 2)) - 1.0
    assert kc.check_holonomic(gamma, samples) <= 1e-12


def test_max_coisotropic_vacuous_for_scalar_base(rng):
    gamma = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[q[0] * z[0] ** 2], [z[1] * q[0]]])
    samples = 2.0 * rng.random((20, 3)) - 1.0
    assert kc.check_max_coisotropic(gamma, samples) == 0.0


def test_max_coisotropic_z_independent_symmetric(rng):
    chart = kc.ChartSpec(2, 2)
    base = kc.from_potentials(chart, lambda q: [q[0] ** 2 + q[1] ** 2, q[0] * q[1]])
    gamma = kc.SectionZDep(chart, gamma_p=lambda q, z: base.p_at(q))
    samples = 2.0 * rng.random((20, 4)) - 1.0
    assert kc.check_max_coisotropic(gamma, samples) < 1e-12


def test_max_coisotropic_defect_one():
    # coefficients (q^2-coordinate, 0) break the symmetry by exactly one
    gamma = kc.SectionZDep(CH21, gamma_p=lambda q, z: [[q[1], 0.0 * q[0]]])
    samples = np.array([[0.3, -0.8, 0.1], [1.0, 2.0, -0.5]])
    assert kc.check_max_coisotropic(gamma, samples) == pytest.approx(1.0)


def test_isotropic_slices():
    rng = np.random.default_rng(3)
    # z-independent holonomic data
    chart = kc.ChartSpec(2, 2)
    base = kc.from_potentials(chart, lambda q: [q[0] ** 3, q[0] * q[1]])
    gamma = kc.SectionZDep(chart, gamma_p=lambda q, z: base.p_at(q))
    samples = 2.0 * rng.random((10, 2)) - 1.0
    assert kc.check_isotropic_slices(gamma, [0.0, 0.0], samples) < 1e-12

    scalar = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[q[0] * z[0]], [z[1]]])
    assert kc.check_isotropic_slices(scalar, [0.1, 0.2], np.array([[0.5]])) == 0.0

    skew = kc.SectionZDep(CH21, gamma_p=lambda q, z: [[q[0] ** 2, q[0] * q[1]]])
    val = kc.check_isotropic_slices(skew, [0.0], np.array([[0.4, 0.9]]))
    assert val == pytest.approx(0.9)  # |d gamma_1 / d q^2 - d gamma_2 / d q^1| = |0 - q^2|


def test_the_z_correction_of_the_coisotropy_check_enters_with_its_sign(rng):
    # at n = 2 the term gamma_i^b d gamma_j^a / dz^b is nonzero; with its sign flipped the two
    # corrected checks below would read 1.5 and 1.6
    linear = kc.SectionZDep(CH21, gamma_p=lambda q, z: [[q[1], z[0]]])
    assert kc.check_max_coisotropic(linear, [[0.0, 0.5, 0.0]]) == 0.5  # |q^2 - 1|
    sheared = kc.SectionZDep(CH21, gamma_p=lambda q, z: [[0.8, z[0] - 0.8 * q[0]]])
    assert kc.check_max_coisotropic(sheared, 2.0 * rng.random((10, 3)) - 1.0) == 0.0  # |-0.8 + 0.8 - 0|
    assert kc.check_isotropic_slices(sheared, [0.4], [[0.3, -0.2]]) == pytest.approx(0.8)


def test_coisotropy_defect_terms_antisymmetric(rng):
    chart = kc.ChartSpec(3, 2)

    def gamma_p(q, z):
        return [
            [q[0] * z[0], q[1] ** 2, q[2] + z[1]],
            [q[0] + q[1] * z[1], q[2] * z[0], q[0] * q[1]],
        ]

    gamma = kc.SectionZDep(chart, gamma_p=gamma_p)
    for _ in range(5):
        q = 2.0 * rng.random(3) - 1.0
        z = 2.0 * rng.random(2) - 1.0
        vals, rows = _coeff_jacobian(gamma, list(q) + list(z))
        gp = np.array(vals, dtype=float).reshape(2, 3)
        jac = np.array(rows, dtype=float).reshape(2, 3, 5)
        for a in range(2):
            A = jac[a, :, :3].T.copy()
            for b in range(2):
                A += np.outer(gp[b], jac[a, :, 3 + b])
            D = A - A.T
            assert np.max(np.abs(D + D.T)) == 0.0  # exact cancellation


def test_k1_section_sees_the_vertical_direction():
    # lifting the z-direction through any z-level section pairs to one
    chart = kc.ChartSpec(1, 1)
    gamma = kc.SectionZDep(chart, gamma_p=lambda q, z: [[q[0] + 0.3 * z[0]]])
    from kcontact import dual as dm
    from kcontact.geometry import Tangent, eval_eta, pair

    for q, z in [(0.2, -0.4), (1.0, 0.0), (-0.7, 2.0)]:
        _, rows = dm.jacobian(lambda v: [gamma.p_at([v[0]], [v[1]])[0][0]], [q, z])
        dz_coeff = rows[0][1]
        lifted = Tangent([0.0], [[dz_coeff]], [1.0])
        pt = gamma.at([q], [z])
        assert pair(eval_eta(chart, pt)[0], lifted) == pytest.approx(1.0)


def test_sample_box_shapes(rng):
    pts = sample_box(default_box(3, 2.0), 50, rng)
    assert pts.shape == (50, 3)
    assert np.all(pts >= -2.0) and np.all(pts <= 2.0)


def test_domain_predicate_respected():
    gamma = kc.SectionZInd(CH12, gamma_p=lambda q: [[1.0 / q[0]], [0.0]],
                           gamma_z=lambda q: [0.0, 0.0], domain=lambda q: q[0] > 0.5)
    with pytest.raises(kc.DomainError):
        gamma.at([0.1])
    samples = np.array([[0.1], [1.0]])  # out-of-domain rows are skipped
    assert kc.check_holonomic(gamma, samples) == pytest.approx(1.0)


def test_non_finite_defects_are_reported_not_swallowed():
    nan = float("nan")
    # NaN momentum: builtin max(0.0, nan) made this defect 0.0
    gamma = kc.SectionZInd(CH12, gamma_p=lambda q: [[nan * q[0]], [1.0]], gamma_z=lambda q: [0.0, q[0]])
    for samples in ([[0.5]], [[0.5], [1.0], [1.5]]):
        assert np.isnan(kc.check_holonomic(gamma, samples))
    # ... and max(worst, nan) made a NaN after a finite defect vanish
    later = kc.SectionZInd(CH12, gamma_p=lambda q: [[nan if q[0] > 0.25 else 1.0], [1.0]],
                           gamma_z=lambda q: [0.0, q[0]])
    assert kc.check_holonomic(later, [[0.0]]) == 1.0
    assert np.isnan(kc.check_holonomic(later, [[0.0], [0.5]]))
    skew = kc.SectionZDep(CH21, gamma_p=lambda q, z: [[q[1], nan * q[0]]])
    samples = np.array([[0.3, -0.8, 0.1], [1.0, 2.0, -0.5]])
    assert np.isnan(kc.check_max_coisotropic(skew, samples))
    assert np.isnan(kc.check_isotropic_slices(skew, [0.0], samples[:, :2]))


def _corpus_sections():
    from kcontact import corpus

    for name in corpus.EXAMPLE_NAMES:
        for key, entry in corpus.load(name).sections.items():
            yield f"{name}/{key}", entry, entry.build(dict(entry.defaults))


SECTIONS = list(_corpus_sections())


@pytest.mark.parametrize("label, entry, gamma", SECTIONS, ids=[s[0] for s in SECTIONS])
def test_point_at_a_base_row_is_the_lifted_node_point(label, entry, gamma):
    """``.at`` and ``lift`` share one rule for the point over a base row, bit for bit."""
    from kcontact.grids import BaseMap, GridSpec

    _, d = gamma._base
    n, k = gamma.chart.n, gamma.chart.k
    box = np.array(entry.box if entry.box is not None else default_box(d, 0.5), dtype=float)
    rows = sample_box(box, 200, np.random.default_rng(3))
    rows = np.array([x for x in rows if gamma._inside(list(x))])[:3 ** k]
    assert len(rows) == 3 ** k, label
    psi = kc.lift(gamma, BaseMap(GridSpec([0.0] * k, [0.1] * k, [3] * k), rows.reshape((3,) * k + (d,))))
    lifted = np.concatenate([psi.q, psi.p.reshape(psi.p.shape[:k] + (-1,)), psi.z], axis=-1).reshape(len(rows), -1)
    at = np.array([(gamma.at(x) if d == n else gamma.at(x[:n], x[n:])).flat() for x in rows])
    assert at.tobytes() == lifted.tobytes(), label


def test_point_at_refuses_a_wrong_length_base_point_or_z():
    long_z = kc.SectionZInd(CH12, gamma_p=lambda q: [[q[0]], [0.0]], gamma_z=lambda q: [0.0, 0.0, 1.0])
    with pytest.raises(kc.ShapeError, match="flat point has length 6, chart needs 5"):
        long_z.at([0.5])
    wide = kc.SectionZInd(CH12, gamma_p=lambda q: [[q[0]], [0.0]], gamma_z=lambda q: [0.0, 0.0])
    with pytest.raises(kc.ShapeError, match="^q has 2 entries, the chart needs n = 1$"):
        wide.at([0.5, 0.6])
    zdep = kc.SectionZDep(CH12, gamma_p=lambda q, z: [[q[0]], [z[0]]])
    with pytest.raises(kc.ShapeError, match="^z has 3 entries, the chart needs k = 2$"):
        zdep.at([0.5], [0.0, 0.0, 0.0])
    with pytest.raises(kc.DomainError, match="base point outside domain of section cut"):  # tested first
        kc.SectionZInd(CH12, long_z.gamma_p, long_z.gamma_z, domain=lambda q: False, name="cut").at([0.5])
