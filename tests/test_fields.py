"""Scalar fields: exact gradients vs the difference oracle, regularity,
and fibre-derivative inversion."""

import numpy as np
import pytest

import kcontact as kc
from kcontact import corpus
from kcontact import dual as dm
from kcontact import fields

from conftest import corpus_hamiltonians, random_point

CH12 = kc.ChartSpec(1, 2)


def test_grad_linear_extra_coordinate():
    lam = 2.5
    h = kc.ScalarField(CH12, lambda pt: lam * pt.z[0], name="linear-z")
    g = kc.grad(h, kc.DarbouxPoint([0.3], [[1.0], [2.0]], [4.0, 5.0]))
    assert g.d_z == pytest.approx([lam, 0.0])
    assert np.allclose(g.d_q, 0.0) and np.allclose(g.d_p, 0.0)


def test_grad_telegrapher_hand_values():
    h = corpus.load("telegrapher").hamiltonian({"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0})
    g = kc.grad(h, kc.DarbouxPoint([1.0], [[2.0], [3.0]], [0.0, 0.0]))
    assert g.d_p.ravel() == pytest.approx([2.0, -3.0])
    assert g.d_q == pytest.approx([0.0])
    assert g.d_z == pytest.approx([1.0, 0.0])


def test_grad_matches_fd_on_random_polynomial(rng):
    chart = kc.ChartSpec(2, 2)
    coef = 2.0 * rng.random(6) - 1.0

    def fn(pt):
        return (coef[0] * pt.q[0] ** 3 + coef[1] * pt.q[1] * pt.p[0, 1]
                + coef[2] * pt.p[1, 0] ** 2 + coef[3] * pt.z[0] * pt.q[0]
                + coef[4] * pt.z[1] ** 2 + coef[5])

    h = kc.ScalarField(chart, fn)
    for _ in range(20):
        pt = random_point(chart, rng)
        g = kc.grad(h, pt).flat()
        f = kc.fd_grad(h, pt).flat()
        assert np.max(np.abs(g - f)) <= 1e-6 * max(1.0, np.max(np.abs(g)))


@pytest.mark.parametrize("name,h", corpus_hamiltonians())
def test_grad_vs_fd_all_corpus(name, h, rng):
    for _ in range(100):
        pt = random_point(h.chart, rng)
        g = kc.grad(h, pt).flat()
        f = kc.fd_grad(h, pt).flat()
        assert np.max(np.abs(g - f)) <= 1e-6 * max(1.0, np.max(np.abs(g)))


def test_fd_grad_constant_and_bad_step():
    h = kc.ScalarField(CH12, lambda pt: 7.0)
    pt = kc.DarbouxPoint([0.1], [[0.2], [0.3]], [0.4, 0.5])
    assert np.max(np.abs(kc.fd_grad(h, pt).flat())) == 0.0
    with pytest.raises(kc.ContractError):
        kc.fd_grad(h, pt, step=0.0)


def test_fd_grad_domain_guard():
    h = kc.ScalarField(CH12, lambda pt: dm.sqrt(pt.q[0]), domain=lambda pt: pt.q[0] > 0)
    pt = kc.DarbouxPoint([1e-9], [[0.0], [0.0]], [0.0, 0.0])
    with pytest.raises(kc.DomainError):
        kc.fd_grad(h, pt, step=1e-5)


def test_regularity_examples():
    tel = corpus.load("telegrapher").hamiltonian({"kappa": 2.0, "lambda": 1.0, "epsilon": 0.0})
    pt = kc.DarbouxPoint([0.3], [[0.1], [0.2]], [0.0, 0.0])
    ok, smin = kc.check_regularity(tel, pt)
    assert ok and smin == pytest.approx(0.5)

    fo = corpus.load("first-order-dissipative").hamiltonian()
    ok, smin = kc.check_regularity(fo, pt)
    assert not ok and smin == pytest.approx(0.0, abs=1e-14)

    quad = kc.ScalarField(CH12, lambda pt: 0.5 * (pt.p[0, 0] ** 2 + pt.p[1, 0] ** 2))
    ok, smin = kc.check_regularity(quad, pt)
    assert ok and smin == pytest.approx(1.0)


def test_regularity_permutation_invariant(rng):
    chart = kc.ChartSpec(2, 2)

    def fn(pt):
        return (pt.p[0, 0] ** 2 + 0.5 * pt.p[1, 1] ** 2 + pt.p[0, 1] * pt.p[1, 0]
                + 0.2 * pt.p[0, 0] * pt.p[1, 1])

    def fn_swapped(pt):  # swap the two base columns of every momentum row
        q = pt.q
        swapped = kc.DarbouxPoint(q, pt.p[:, ::-1].copy(), pt.z)
        return fn(swapped)

    h1 = kc.ScalarField(chart, fn)
    h2 = kc.ScalarField(chart, fn_swapped)
    pt = random_point(chart, rng)
    pt_sw = kc.DarbouxPoint(pt.q, pt.p[:, ::-1].copy(), pt.z)
    ok1, s1 = kc.check_regularity(h1, pt)
    ok2, s2 = kc.check_regularity(h2, pt_sw)
    assert ok1 == ok2
    assert s1 == pytest.approx(s2, abs=1e-12)
    sv1 = np.linalg.svd(kc.p_hessian(h1, pt), compute_uv=False)
    sv2 = np.linalg.svd(kc.p_hessian(h2, pt_sw), compute_uv=False)
    assert np.max(np.abs(sv1 - sv2)) < 1e-12


def test_invert_fibre_telegrapher():
    for kappa in (1.0, 2.0):
        h = corpus.load("telegrapher").hamiltonian({"kappa": kappa, "lambda": 1.0, "epsilon": 0.0})
        p = kc.invert_fibre_derivative(h, [1.0], [0.0, 0.0], [[2.0], [3.0]], [[0.0], [0.0]])
        assert p.ravel() == pytest.approx([2.0, -3.0 * kappa], abs=1e-12)


def test_invert_fibre_quadratic_one_step():
    h = kc.ScalarField(CH12, lambda pt: 0.5 * (pt.p[0, 0] ** 2 + pt.p[1, 0] ** 2))
    v = [[0.37], [-1.2]]
    p = kc.invert_fibre_derivative(h, [0.0], [0.0, 0.0], v, [[0.0], [0.0]])
    assert p == pytest.approx(np.asarray(v), abs=1e-15)


def test_invert_fibre_hs_roundtrip(rng):
    h = corpus.load("hunter-saxton").hamiltonian()
    for _ in range(10):
        u = float(2.0 * rng.random() - 1.0)
        p_true = 2.0 * rng.random((2, 1)) - 1.0
        pt = kc.DarbouxPoint([u], p_true, [0.0, 0.0])
        v = kc.grad(h, pt).d_p
        p = kc.invert_fibre_derivative(h, [u], [0.0, 0.0], v, [[0.1], [0.1]])
        back = kc.grad(h, kc.DarbouxPoint([u], p, [0.0, 0.0])).d_p
        assert np.max(np.abs(back - v)) <= 1e-10
        # the model's first-order relations pin the momenta themselves
        assert p == pytest.approx(p_true, abs=1e-9)


def test_invert_fibre_singular_raises():
    fo = corpus.load("first-order-dissipative").hamiltonian()
    with pytest.raises(kc.RegularityError):
        kc.invert_fibre_derivative(fo, [0.5], [0.0, 0.0], [[0.3], [0.4]], [[0.0], [0.0]])


def test_domain_error_on_grad():
    h = kc.ScalarField(CH12, lambda pt: dm.log(pt.q[0]), domain=lambda pt: pt.q[0] > 0)
    with pytest.raises(kc.DomainError):
        kc.grad(h, kc.DarbouxPoint([-1.0], [[0.0], [0.0]], [0.0, 0.0]))


# -- batched fibre inversion ----------------------------------------------------

def _scalar_newton(h, q, z, v, p, tol=1e-12, max_iter=50):
    """The one-node damped Newton iteration written out as the reference.

    Returns the momenta and the numbers of Newton steps and step halvings."""
    k, n = h.chart.k, h.chart.n
    qf, zf = [float(x) for x in q], [float(x) for x in z]
    v = np.asarray(v, dtype=float).reshape(k * n)
    p = np.asarray(p, dtype=float).reshape(k * n).copy()
    res = np.asarray(fields._p_grad(h, qf, zf, p), dtype=float) - v
    rnorm, steps, halvings = float(np.max(np.abs(res))), 0, 0
    for _ in range(max_iter):
        if rnorm < tol:
            break
        H = fields._p_hess(h, qf, zf, p)
        sv = np.linalg.svd(H, compute_uv=False)
        assert sv[-1] > 1e-14 * max(sv[0], 1.0)
        step, scale, steps = np.linalg.solve(H, res), 1.0, steps + 1
        for _ in range(10):
            trial = p - scale * step
            tres = np.asarray(fields._p_grad(h, qf, zf, trial), dtype=float) - v
            tnorm = float(np.max(np.abs(tres)))
            if tnorm < rnorm or tnorm < tol:
                break
            scale, halvings = scale * 0.5, halvings + 1
        p, res, rnorm = trial, tres, tnorm
    assert rnorm < tol
    return p, steps, halvings


def _saturating():
    """A fibre-regular Hamiltonian whose momentum gradient saturates (s / sqrt(1 + s^2)),
    so Newton overshoots from far starts and halves its steps; its Hessian depends on q
    and p."""
    def fn(pt):
        s = pt.p[0, 0] + 0.5 * pt.p[1, 0]
        return dm.sqrt(1.0 + s * s) + 0.5 * (1.0 + pt.q[0] ** 2) * pt.p[1, 0] ** 2 + pt.z[0]

    return kc.ScalarField(CH12, fn, name="saturating")


def _random_nodes(h, rng, count):
    """``count`` rows (q, z, v, start); for the saturating field v stays within its reach."""
    k, n = h.chart.k, h.chart.n
    Q = 2.0 * rng.random((count, n)) - 1.0
    Z = 2.0 * rng.random((count, k)) - 1.0
    V = 10.0 * (2.0 * rng.random((count, k * n)) - 1.0)
    P0 = 2.0 * rng.random((count, k * n)) - 1.0
    if h.name == "saturating":
        V[:, 0] *= 0.09
    return Q, Z, V, P0


@pytest.mark.parametrize("name", ["hunter-saxton", "telegrapher", "membrane", "saturating"])
def test_batched_newton_rows_reproduce_the_scalar_iteration(name, rng):
    h = _saturating() if name == "saturating" else corpus.load(name).hamiltonian()
    k, n = h.chart.k, h.chart.n
    Q, Z, V, P0 = _random_nodes(h, rng, 300)
    for i in range(0, 300, 7):  # rows that start converged
        P0[i] = _scalar_newton(h, Q[i], Z[i], V[i], P0[i])[0]
    P = fields._newton(h, Q, Z, V, P0)
    assert P.shape == (300, k * n)
    steps, halvings = [], 0
    for i in range(300):
        ref, s, hv = _scalar_newton(h, Q[i], Z[i], V[i], P0[i])
        steps.append(s)
        halvings += hv
        assert P[i].tobytes() == ref.tobytes()
        one = kc.invert_fibre_derivative(h, Q[i], Z[i], V[i].reshape(k, n), P0[i].reshape(k, n))
        assert one.reshape(-1).tobytes() == ref.tobytes()
    # rows leave the active set after different numbers of steps
    assert min(steps) == 0 and max(steps) >= 1
    if name == "saturating":
        assert max(steps) >= 6 and halvings > 50


@pytest.mark.parametrize("name", ["hunter-saxton", "saturating"])
def test_recorded_newton_passes_give_the_scalar_rows_at_every_width_of_the_active_set(name, rng):
    h = _saturating() if name == "saturating" else corpus.load(name).hamiltonian()
    Q, Z, V, P0 = _random_nodes(h, rng, 60)
    for i in range(0, 60, 7):  # rows that start converged, so the active set shrinks at once
        P0[i] = _scalar_newton(h, Q[i], Z[i], V[i], P0[i])[0]
    widths = []  # lane widths of the residual pass and of the fused pass

    def width_logged(replay):
        def logged(x):
            widths.append(len(x[0].v) if isinstance(x[0], dm._Lanes) else 1)
            return replay(x)
        return logged

    grad_pass, fused_pass = fields._newton_passes(h, np.concatenate([Q[0], Z[0], P0[0]]))
    assert grad_pass.__name__ == fused_pass.__name__ == "replay"  # both passes were recorded
    P = fields._newton(h, Q, Z, V, P0, passes=(width_logged(grad_pass), width_logged(fused_pass)))
    for i in range(60):
        assert P[i].tobytes() == _scalar_newton(h, Q[i], Z[i], V[i], P0[i])[0].tobytes()
    assert len(set(widths) - {1}) >= 2  # the programs, replayed on lanes of several widths


def test_batched_newton_falls_back_for_a_hamiltonian_that_refuses_lanes(rng):
    hs = corpus.load("hunter-saxton").hamiltonian()
    h = kc.ScalarField(CH12, lambda pt: hs.fn(pt) + 0.0 * float(dm.value(pt.q[0])))
    Q, Z, V, P0 = _random_nodes(h, rng, 20)
    P = fields._newton(h, Q, Z, V, P0)
    for i in range(20):
        assert P[i].tobytes() == _scalar_newton(hs, Q[i], Z[i], V[i], P0[i])[0].tobytes()


def test_batched_newton_names_the_first_row_that_fails(rng):
    h = corpus.load("telegrapher").hamiltonian()
    Q, Z, V, P0 = _random_nodes(h, rng, 6)
    V[4, 1] = V[2, 0] = np.nan
    with pytest.raises(kc.SolverError, match=r"did not converge \(last residual nan\) at row 2$") as exc:
        fields._newton(h, Q, Z, V, P0, where=lambda i: f" at row {i}")
    assert np.isnan(exc.value.residual)
    with pytest.raises(kc.SolverError, match=r"\(last residual nan\)$"):
        kc.invert_fibre_derivative(h, Q[2], Z[2], V[2].reshape(2, 1), P0[2].reshape(2, 1))
    fo = corpus.load("first-order-dissipative").hamiltonian()
    with pytest.raises(kc.RegularityError, match="singular during Newton iteration at row 0$"):
        fields._newton(fo, Q, Z, V, P0, where=lambda i: f" at row {i}")


def test_a_one_iteration_inversion_makes_two_row_passes(monkeypatch):
    # h is quadratic in p, so one Newton step lands: the fused pass at the start gives the
    # residual and the Hessian, and the residual pass checks the trial point
    h = corpus.load("telegrapher").hamiltonian()
    q, z, v, p0 = [0.5], [0.1, -0.2], [[0.3], [0.4]], [[0.0], [0.0]]
    assert _scalar_newton(h, q, z, v, p0)[1] == 1
    passes, rows = [], dm._rows
    monkeypatch.setattr(dm, "_rows", lambda fn, X, ok=None: passes.append(len(X)) or rows(fn, X, ok))
    p = kc.invert_fibre_derivative(h, q, z, v, p0)
    assert passes == [1, 1]
    assert p.reshape(-1).tobytes() == _scalar_newton(h, q, z, v, p0)[0].tobytes()


def _overflowing_hessian():
    """p_1 ** 0.5 at p_1 = 1e-210: its gradient is 5e104, its second derivative overflows."""
    return kc.ScalarField(CH12, lambda pt: 0.5 * pt.p[0, 0] ** 2 + pt.p[1, 0] ** 0.5 + 0.1 * pt.q[0] * pt.p[0, 0])


def test_a_converged_row_whose_hessian_overflows_returns_its_start():
    h = _overflowing_hessian()
    start = np.array([[1.0], [1e-210]])
    with pytest.raises(kc.ShapeError, match="overflow"):  # the fused pass on that row
        dm._rows(fields._newton_passes(h)[1], np.array([[0.5, 0.0, 0.0, 1.0, 1e-210]]))
    v = np.asarray(fields._p_grad(h, [0.5], [0.0, 0.0], start.reshape(-1)), dtype=float).reshape(2, 1)
    assert kc.invert_fibre_derivative(h, [0.5], [0.0, 0.0], v, start).tobytes() == start.tobytes()
    # among rows that move, as lanes: the converged row keeps its start, the others take the
    # iterates of one-row calls
    Q, Z = np.array([[0.5], [0.2], [-0.3]]), np.zeros((3, 2))
    V = np.concatenate([v.reshape(1, 2), [[0.7, 0.4], [0.1, 0.6]]])
    P0 = np.array([start.reshape(-1), [0.5, 1.0], [0.2, 0.8]])
    P = fields._newton(h, Q, Z, V, P0)
    for i in range(3):
        assert P[i].tobytes() == _scalar_newton(h, Q[i], Z[i], V[i], P0[i])[0].tobytes()


def test_newton_steps_refuse_a_hessian_with_an_infinite_entry():
    # an infinite entry gives NaN singular values without an error: the stacked test fails on
    # them, and the one-row rule refuses that row, as it refuses a NaN Hessian; the rows after
    # it pass, so the error names the refused row, not the last one
    H = np.array([[[np.inf, 0.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]])
    R = np.array([[1.0, -1.0], [1.0, 2.0]])
    assert np.isnan(np.linalg.svd(H, compute_uv=False)[0]).all()
    with pytest.raises(kc.RegularityError, match="^row 0$"):
        fields._newton_steps(H, R, lambda i: kc.RegularityError(f"row {i}"))


def test_a_non_finite_fibre_hessian_is_singular():
    # the Hessian is NaN at the start, where numpy's SVD does not converge
    h = kc.ScalarField(CH12, lambda pt: 0.5 * pt.p[0, 0] ** 2 * (1.0 + pt.q[0]) + 0.5 * pt.p[1, 0] ** 2)
    with pytest.raises(kc.RegularityError, match="singular during Newton iteration$"):
        kc.invert_fibre_derivative(h, [np.nan], [0.0, 0.0], [[0.3], [0.4]], [[0.0], [0.0]])
