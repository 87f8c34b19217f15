"""Chart structure forms, their contractions, and the gauge-kernel dimension.

The independent oracle here evaluates the two-form as the antisymmetrised
finite difference of the one-form along constant extensions, so the chi
values are cross-checked without reusing the closed-form contraction.
"""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcontact as kc
from kcontact.geometry import deta_pair, pair

from conftest import random_point


def eta_value(pt, beta, tan):
    """One-form value from the defining formula (used only by the oracle)."""
    return float(tan.z[beta] - np.dot(pt.p[beta], tan.q))


def fd_deta(chart, pt, beta, u, v, step=1e-6):
    """d eta^beta (u, v) via antisymmetrised directional differences."""

    def shift(p, t, s):
        return kc.DarbouxPoint(p.q + s * t.q, p.p + s * t.p, p.z + s * t.z)

    du = (eta_value(shift(pt, u, step), beta, v) - eta_value(shift(pt, u, -step), beta, v)) / (2 * step)
    dv = (eta_value(shift(pt, v, step), beta, u) - eta_value(shift(pt, v, -step), beta, u)) / (2 * step)
    return du - dv


def test_eval_eta_zero_momenta():
    chart = kc.ChartSpec(1, 2)
    pt = kc.DarbouxPoint([0.7], [[0.0], [0.0]], [0.1, -0.2])
    etas = kc.eval_eta(chart, pt)
    for a in range(2):
        assert np.allclose(etas[a].dq, 0.0)
        assert np.allclose(etas[a].dp, 0.0)
        assert etas[a].dz[a] == 1.0


def test_eval_eta_direct_substitution():
    chart = kc.ChartSpec(1, 2)
    pt = kc.DarbouxPoint([0.0], [[3.0], [5.0]], [0.0, 0.0])
    etas = kc.eval_eta(chart, pt)
    assert etas[0].dq == pytest.approx([-3.0])
    assert etas[1].dq == pytest.approx([-5.0])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_reeb_contractions(n, k, rng):
    chart = kc.ChartSpec(n, k)
    reebs = kc.reeb_fields(chart)
    for _ in range(100):
        pt = random_point(chart, rng)
        etas = kc.eval_eta(chart, pt)
        for a, R in enumerate(reebs):
            for b in range(k):
                assert abs(pair(etas[b], R) - (1.0 if a == b else 0.0)) < 1e-12
            # contraction with the two-form vanishes against any tangent
            probe = random_point(chart, rng)
            tan = kc.Tangent(probe.q, probe.p, probe.z)
            assert np.max(np.abs(deta_pair(chart, R, tan))) < 1e-12


def test_reeb_fields_commute(rng):
    chart = kc.ChartSpec(2, 2)
    reebs = kc.reeb_fields(chart)
    pt = random_point(chart, rng)
    step = 1e-5

    def field(a, x):
        # the distinguished fields are chart-constant; evaluate through a
        # point-dependent call so the FD Jacobian is honest
        _ = kc.DarbouxPoint.from_flat(chart, x)
        return reebs[a].flat()

    x0 = pt.flat().astype(float)
    dim = x0.size
    jac = []
    for a in range(2):
        J = np.zeros((dim, dim))
        for j in range(dim):
            up, dn = x0.copy(), x0.copy()
            up[j] += step
            dn[j] -= step
            J[:, j] = (field(a, up) - field(a, dn)) / (2 * step)
        jac.append(J)
    vals = [reebs[a].flat() for a in range(2)]
    bracket = jac[1] @ vals[0] - jac[0] @ vals[1]
    assert np.max(np.abs(bracket)) == 0.0


def test_chi_zero_and_gauge_direction():
    chart = kc.ChartSpec(1, 2)
    pt = kc.DarbouxPoint([0.4], [[0.2], [-0.7]], [0.0, 0.1])
    cov, s = kc.chi(chart, pt, kc.KTangent.zero(chart))
    assert cov.norm() == 0.0 and s == 0.0
    # an off-diagonal momentum insertion is invisible to both contractions
    kt = kc.KTangent.zero(chart)
    kt.comp[0].p[1, 0] = 1.0
    cov, s = kc.chi(chart, pt, kt)
    assert cov.norm() == 0.0 and s == 0.0


def test_chi_matches_fd_contraction_oracle(rng):
    for n, k in [(1, 2), (2, 2), (2, 3)]:
        chart = kc.ChartSpec(n, k)
        for _ in range(5):
            pt = random_point(chart, rng)
            kv = kc.KTangent([kc.Tangent(random_point(chart, rng).q,
                                         random_point(chart, rng).p,
                                         random_point(chart, rng).z)
                              for _ in range(k)])
            cov, s = kc.chi(chart, pt, kv)
            # scalar part
            s_ref = sum(eta_value(pt, b, kv.comp[b]) for b in range(k))
            assert s == pytest.approx(s_ref, abs=1e-12)
            # one-form part against the FD two-form, coefficient by coefficient
            dim = chart.dim
            basis = np.eye(dim)
            got = cov.flat()
            for c in range(dim):
                e = kc.KTangent.from_flat(chart, np.tile(basis[c], k)).comp[0]
                ref = sum(fd_deta(chart, pt, b, kv.comp[b], e) for b in range(k))
                assert got[c] == pytest.approx(ref, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 10_000))
def test_chi_is_linear(a, b, seed):
    chart = kc.ChartSpec(2, 2)
    r = np.random.default_rng(seed)
    pt = random_point(chart, r)

    def rand_kt():
        return kc.KTangent([kc.Tangent(2 * r.random(2) - 1, 2 * r.random((2, 2)) - 1,
                                       2 * r.random(2) - 1) for _ in range(2)])

    u, v = rand_kt(), rand_kt()
    lin = u.scale(a) + v.scale(b)
    cov_lin, s_lin = kc.chi(chart, pt, lin)
    cov_u, s_u = kc.chi(chart, pt, u)
    cov_v, s_v = kc.chi(chart, pt, v)
    assert np.max(np.abs(cov_lin.flat() - a * cov_u.flat() - b * cov_v.flat())) < 1e-10
    assert abs(s_lin - a * s_u - b * s_v) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_kernel_deficiency_formula(n, k, rng):
    chart = kc.ChartSpec(n, k)
    expected = (n + 1) * (k * k - 1)
    for _ in range(5):
        pt = random_point(chart, rng)
        assert kc.kernel_deficiency(chart, pt) == expected


def test_shape_errors():
    chart = kc.ChartSpec(1, 2)
    bad = kc.DarbouxPoint([0.0, 1.0], [[0.0], [0.0]], [0.0, 0.0])
    with pytest.raises(kc.ShapeError):
        kc.eval_eta(chart, bad)
    with pytest.raises(kc.ShapeError):
        kc.ChartSpec(0, 2)
    with pytest.raises(kc.ShapeError):
        kc.DarbouxPoint([np.nan], [[0.0], [0.0]], [0.0, 0.0])


CH12 = kc.ChartSpec(1, 2)


def _objects(*entries):
    return np.fromiter(entries, dtype=object, count=len(entries))


@pytest.mark.parametrize("build, names", [(kc.DarbouxPoint, "qz"), (kc.Tangent, "qz"),
                                          (kc.Covector, ("dq", "dz"))])
@pytest.mark.parametrize("block, entries", [(0, (math.inf,)), (0, (np.float64("nan"),)), (1, (3, -math.inf))])
def test_an_object_block_of_numbers_must_be_finite(build, names, block, entries):
    # an object block without a dual or lane value is a caller's numbers, read and checked as floats
    q, z = [0.5], [0.0, 0.0]
    blocks = [_objects(*entries), z] if block == 0 else [q, _objects(*entries)]
    with pytest.raises(kc.ShapeError, match=f"^{names[block]} contains non-finite entries$"):
        build(blocks[0], [[0.0], [0.0]], blocks[1])


DUAL = kc.dual.Dual(0.5, (1.0,), 1)


@pytest.mark.parametrize("x, message", [
    ([None, 0, 0, 0, 0], "q is not an array of numbers"),
    (["a", 0, 0, 0, 0], "q is not an array of numbers"),
    ([DUAL, 0, 0, 0, None], "z is not an array of numbers"),
    ([10 ** 400, 0, 0, 0, 0], "flat point is not an array of numbers"),
])
def test_from_flat_refuses_an_entry_that_is_not_a_number(x, message):
    with pytest.raises(kc.ShapeError, match=f"^{message}$"):
        kc.DarbouxPoint.from_flat(CH12, x)


def test_from_flat_keeps_a_pass_s_entries_unread_and_checks_plain_numbers():
    # a NaN beside a dual is the pass's own float (a Newton row's q), for h to meet
    pt = kc.DarbouxPoint.from_flat(CH12, [math.nan, DUAL, 0.0, 0.5, 1])
    assert pt.q.dtype == object and math.isnan(pt.q[0]) and pt.p[0, 0] is DUAL and pt.z.tolist() == [0.5, 1]
    with pytest.raises(kc.ShapeError, match="^z contains non-finite entries$"):
        kc.DarbouxPoint.from_flat(CH12, [0.5, 0.0, 0.0, math.inf, 1])


def _points_built_round_the_checks(source: str, name: str) -> list:
    """(file, line) of each place in ``source`` that builds a DarbouxPoint round the caller's
    constructor or from a flat row split by hand: a ``__new__`` call naming DarbouxPoint outside
    ``DarbouxPoint.from_flat``, and a ``DarbouxPoint(...)`` call with slices of one array in two
    or more of its arguments (``from_flat`` takes the row whole)."""
    found = []

    def slice_bases(arg):
        return {ast.dump(node.value) for node in ast.walk(arg)
                if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                named = {n.id for n in ast.walk(child) if isinstance(n, ast.Name)} | set(scope)
                if (isinstance(func, ast.Attribute) and func.attr == "__new__" and "DarbouxPoint" in named
                        and scope[-2:] != ("DarbouxPoint", "from_flat")):
                    found.append((name, child.lineno))
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                bases = [b for arg in child.args for b in slice_bases(arg)]
                if callee == "DarbouxPoint" and len(bases) > len(set(bases)):
                    found.append((name, child.lineno))
            inner = (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else ()
            visit(child, scope + inner)

    visit(ast.parse(source), ())
    return found


def test_only_from_flat_builds_a_point_round_the_caller_s_checks():
    found = []
    for path in sorted(pathlib.Path(kc.__file__).parent.glob("*.py")):
        found += _points_built_round_the_checks(path.read_text(), path.name)
    assert found == []
    copy = ("class DarbouxPoint:\n"
            "    def from_flat(chart, x):\n"
            "        return object.__new__(DarbouxPoint)\n"
            "    def copy(self):\n"
            "        return DarbouxPoint.__new__(DarbouxPoint)\n"
            "def row(x, n):\n"
            "    pt = DarbouxPoint(x[:n], [x[n + a:n + a + 1] for a in range(2)], x[n + 2:])\n"
            "    return object.__new__(DarbouxPoint), DarbouxPoint(x[0], p[:1], z[1:])\n")
    assert _points_built_round_the_checks(copy, "copy.py") == [("copy.py", 5), ("copy.py", 7), ("copy.py", 8)]
