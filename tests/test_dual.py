"""Forward-mode engine against a central-difference oracle."""

import inspect
import math
import pathlib
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcontact as kc
from kcontact import corpus
from kcontact import dual as dm
from kcontact.sections import _coeff_jacobian


def fd_gradient(f, xs, step=1e-6):
    xs = [float(x) for x in xs]
    out = []
    for j in range(len(xs)):
        up = list(xs)
        dn = list(xs)
        up[j] += step
        dn[j] -= step
        out.append((f(up) - f(dn)) / (2.0 * step))
    return out


def _lane_eval(f, a, X):
    """``f.eval(a, x)`` for every row ``x`` of the (m, dim) array ``X``, in one lane pass."""
    return dm._lane_array(f.eval(a, dm._lanes_of(X)), X.shape[0])


FUNCS = [
    lambda v: v[0] * v[1] ** 2 + 3.0 * v[2],
    lambda v: dm.exp(0.3 * v[0]) * dm.cos(v[1]) + v[2] / (1.0 + v[1] ** 2),
    lambda v: dm.sqrt(2.0 + v[0]) * dm.log(2.0 + v[2]) - v[1] ** 3,
    lambda v: dm.sin(v[0] * v[1]) + dm.tanh(v[2]),
]


@pytest.mark.parametrize("f", FUNCS)
def test_derive1_matches_fd(f, rng):
    for _ in range(20):
        xs = list(2.0 * rng.random(3) - 1.0)
        val, grad = dm.derive1(f, xs)
        ref = fd_gradient(lambda v: float(f(v)), xs)
        assert val == pytest.approx(float(f(xs)), rel=1e-12)
        for g, r in zip(grad, ref):
            assert g == pytest.approx(r, rel=1e-6, abs=1e-8)


def test_derive2_hessian():
    f = lambda v: v[0] ** 3 * v[1] + dm.exp(v[0] - v[1])
    x, y = 0.4, -0.3
    _, grad, H = dm.derive2(f, [x, y])
    e = math.exp(x - y)
    assert grad[0] == pytest.approx(3 * x * x * y + e, rel=1e-12)
    assert H[0][0] == pytest.approx(6 * x * y + e, rel=1e-12)
    assert H[0][1] == pytest.approx(3 * x * x - e, rel=1e-12)
    assert H[1][0] == pytest.approx(H[0][1], rel=1e-14)
    assert H[1][1] == pytest.approx(e, rel=1e-12)


def test_derive2_is_one_nested_pass():
    calls = []

    def f(v):
        calls.append(v)
        return v[0] ** 3 * v[1] + dm.sin(v[0] - v[1])

    xs = [0.4, -0.3]
    val, grad, H = dm.derive2(f, xs)
    assert len(calls) == 1
    # value and gradient of the nested pass are those of a plain first-order pass
    assert (val, grad) == dm.derive1(f, xs)
    assert H[0][1] == pytest.approx(3 * 0.4 ** 2 + math.sin(0.7), rel=1e-12)


def test_jacobian_rows():
    f = lambda v: [v[0] * v[1], v[0] + dm.sin(v[1])]
    vals, rows = dm.jacobian(f, [2.0, 0.5])
    assert vals[0] == pytest.approx(1.0)
    assert rows[0] == pytest.approx([0.5, 2.0])
    assert rows[1] == pytest.approx([1.0, math.cos(0.5)])


def test_nested_passes_keep_levels_apart():
    # d/du of (d/dx [u * x^2] at x = 3) must be 6, not polluted by the inner seed
    def outer(u):
        _, g = dm.derive1(lambda w: u[0] * w[0] ** 2, [3.0])
        return g[0]

    val, grad = dm.derive1(outer, [5.0])
    assert val == pytest.approx(30.0)
    assert grad[0] == pytest.approx(6.0)


def test_value_strips_all_layers():
    lev = 99
    x = dm.Dual(dm.Dual(2.0, (1.0,), lev), (dm.Dual(0.0, (0.0,), lev),), lev + 1)
    assert dm.value(x) == 2.0


def test_comparisons_and_abs():
    v, g = dm.derive1(lambda x: abs(x[0]), [-2.0])
    assert v == 2.0 and g[0] == -1.0
    assert dm.sign(-3.0) == -1.0 and dm.sign(0.0) == 0.0


def test_array_broadcast():
    arr = np.array([1.0, 2.0])
    val, grad = dm.derive1(lambda x: (x[0] * arr)[1], [3.0])
    assert val == pytest.approx(6.0)
    assert grad[0] == pytest.approx(2.0)


_ARR = np.array([2.0, 4.0])


def _h_times_array(v):
    """A Hamiltonian written with the point's arrays, on the flat coordinates ``grad`` seeds."""
    pt = kc.DarbouxPoint.from_flat(kc.ChartSpec(1, 2), v)
    return (pt.q[0] * (pt.p * pt.p)).sum()  # a dual times an array of duals


@pytest.mark.parametrize("f, x", [
    (lambda v: (v[0] + _ARR)[1], [0.7]),  # Dual + array broadcasts entry by entry
    (lambda v: (v[0] / _ARR)[1], [0.7]),
    (lambda v: (_ARR / v[0])[1], [0.7]),  # array / Dual, through the reflected division
    (lambda v: v[0] ** 0 + v[1], [0.7, 1.3]),
    (lambda v: v[0] ** 1 * v[1], [0.7, 1.3]),
    (lambda v: v[0] ** v[1], [0.7, 1.3]),  # a dual exponent
    (_h_times_array, [0.7, -0.4, 1.3, 0.2, -0.9]),
])
def test_array_operands_and_special_powers_match_the_plain_function(f, x):
    val, grad = dm.derive1(f, x)
    assert val == pytest.approx(f(x), rel=1e-15)
    assert grad == pytest.approx(fd_gradient(f, x), rel=1e-8, abs=1e-10)


def test_an_outer_dual_divided_by_an_inner_dual_is_exact():
    # inside the inner pass x is a dual of the outer one: x / y runs y's reflected division
    def d_dy(xs):
        return dm.derive1(lambda ys: xs[0] / ys[0], [0.8])[1][0]  # d/dy (x / y) = -x / y^2

    val, grad = dm.derive1(d_dy, [1.5])
    assert val == pytest.approx(-1.5 / 0.8 ** 2, rel=1e-15)
    assert grad[0] == pytest.approx(-1.0 / 0.8 ** 2, rel=1e-15)  # d/dx (-x / y^2)


def test_an_outer_dual_plus_an_inner_dual_keeps_both_derivatives():
    # inside the inner pass x is a dual of the outer one: x + x y^2 runs the inner dual's reflected addition
    def value_and_d_dy(xs):
        val, g = dm.derive1(lambda ys: xs[0] + xs[0] * ys[0] ** 2, [0.8])
        return val + g[0]  # x (1 + y^2) + 2 x y

    val, grad = dm.derive1(value_and_d_dy, [1.5])
    assert val == pytest.approx(1.5 * 1.64 + 2.4, rel=1e-15)
    assert grad[0] == pytest.approx(1.64 + 1.6, rel=1e-15)


def test_powers_zero_and_one_and_a_dual_exponent_keep_their_exact_forms():
    _, g0 = dm.derive1(lambda v: v[0] ** 0, [0.7])
    v1, g1 = dm.derive1(lambda v: v[0] ** 1, [0.7])
    v2, g2 = dm.derive1(lambda v: v[0] ** v[1], [0.7, 1.3])
    assert g0 == [0.0] and (v1, g1) == (0.7, [1.0])
    assert v2 == math.exp(math.log(0.7) * 1.3)
    assert g2[1] == pytest.approx(math.log(0.7) * 0.7 ** 1.3, rel=1e-15)


def test_a_non_finite_point_entry_in_a_lane_pass_gives_the_scalar_shape_error():
    # the output never reads the NaN momentum: only the refusal of the lane pass finds it
    def fn(x):
        return kc.DarbouxPoint(x[:1], [[x[1]], [x[2]]], x[3:]).q[0] * 2.0

    X = np.array([[0.1, 0.2, 0.3, 0.4, 0.5], [0.1, np.nan, 0.3, 0.4, 0.5], [0.2] * 5])
    for rows in (X, X[1:2]):
        with pytest.raises(kc.ShapeError, match="p contains non-finite entries"):
            dm._rows(fn, rows)


# -- lanes: many points through one pass ----------------------------------------

def lanes(*xs):
    return dm._Lanes(np.array(xs, dtype=float))


def test_lane_arithmetic_matches_scalar_arithmetic(rng):
    xs = list(4.0 * rng.random(200) - 2.0)
    ys = list(4.0 * rng.random(200) + 0.5)
    X, Y = lanes(*xs), lanes(*ys)
    cases = [
        (X + Y, [x + y for x, y in zip(xs, ys)]),
        (X - 0.3, [x - 0.3 for x in xs]),
        (2 * X, [2 * x for x in xs]),
        (X / Y, [x / y for x, y in zip(xs, ys)]),
        (1.5 / Y, [1.5 / y for y in ys]),
        (Y ** 2.5, [y ** 2.5 for y in ys]),
        (X ** 3, [x ** 3 for x in xs]),
        (abs(-X), [abs(x) for x in xs]),
    ]
    for got, want in cases:
        assert got.v.tolist() == want


@pytest.mark.parametrize("name", ["exp", "log", "sqrt", "sin", "cos", "tanh"])
def test_lane_math_helpers_apply_math_per_lane(name, rng):
    # np.exp and np.tanh round differently from math.exp/math.tanh on a share
    # of inputs, so the helpers must not use numpy for lanes.
    xs = list(3.0 * rng.random(2000) + 1e-3)
    got = getattr(dm, name)(dm._Lanes(np.array(xs)))
    assert got.v.tolist() == [getattr(math, name)(x) for x in xs]


@pytest.mark.parametrize("f", FUNCS)
def test_lane_gradients_match_scalar_gradients(f, rng):
    pts = 2.0 * rng.random((30, 3)) - 1.0
    val, grad = dm.derive1(f, dm._lanes_of(pts))
    assert np.array_equal(dm._lane_array(val, len(pts)), [float(dm.derive1(f, list(p))[0]) for p in pts])
    want = np.array([[float(g) for g in dm.derive1(f, list(p))[1]] for p in pts])
    assert np.array_equal(dm._lane_array(grad, len(pts)), want)


def test_lane_comparisons_need_agreement():
    X = lanes(0.5, 1.0, 2.0)
    assert X > 0.0 and not (X > 3.0) and bool(X)
    assert dm.sign(X) == 1.0 and dm.sign(-X) == -1.0
    v, g = dm.derive1(lambda x: abs(x[0]), [-X])  # abs batches when the signs agree
    assert v.v.tolist() == [0.5, 1.0, 2.0] and g[0] == -1.0
    for disagree in (lambda: X > 1.0, lambda: X == 1.0, lambda: bool(X - 1.0),
                     lambda: dm.sign(X - 1.0), lambda: dm.derive1(lambda x: abs(x[0]), [X - 1.0])):
        with pytest.raises(dm._Unbatchable):
            disagree()


def test_lane_operations_without_a_common_answer_raise():
    X = lanes(-1.0, 0.0, 1.0)
    for op in (lambda: 1.0 / X, lambda: X / (X * 0.0), lambda: dm.sqrt(X), lambda: dm.log(X),
               lambda: float(X), lambda: dm.value(dm.Dual(X, (1.0,), 10 ** 9)),
               lambda: X ** 0.5, lambda: np.asarray([X, X]), lambda: np.exp(X),
               lambda: X * np.array([1.0, 2.0]), lambda: np.array([1.0]) + X):
        with pytest.raises((dm._Unbatchable, TypeError)):
            op()
    with pytest.raises(dm._Unbatchable):
        np.asarray([X])


SECTION_CASES = [(name, key, mode) for name in corpus.EXAMPLE_NAMES
                 for key in corpus.load(name).sections for mode in ("standard", "evolution")]


def _projected(name, key, mode):
    """Section and projected field (with the diagonal gauge when the entry has none)."""
    ex = corpus.load(name)
    entry = ex.sections[key]
    P = dict(entry.defaults)
    gamma = entry.build(P)
    h = ex.hamiltonian({k: v for k, v in P.items() if k in ex.defaults})
    if entry.kind == "zind":
        return gamma, kc.project_Q(h, gamma)
    C = entry.gauge(P) if entry.gauge is not None else kc.diagonal_gauge_matrix(h, gamma, mode)
    return gamma, kc.project_zdep(h, gamma, C)


def _per_point(fn, X):
    try:
        return np.array([fn(x) for x in X])
    except Exception as exc:  # noqa: BLE001 - any scalar error must stop the lane pass too
        return exc


def _same_bits(a, b) -> bool:
    """Whether two float arrays hold the same shape and bit patterns (-0.0 is not 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _check_lane_pass(lane_fn, ref):
    if isinstance(ref, Exception):
        with pytest.raises(Exception):
            lane_fn()
    else:
        assert _same_bits(lane_fn(), ref)


@pytest.mark.parametrize("name,key,mode", SECTION_CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lane_pass_matches_per_point_scalar_pass(name, key, mode, data):
    # points from [-1, 2] straddle the domain edge of the square-root sections
    gamma, f = _projected(name, key, mode)
    row = st.lists(st.floats(-1.0, 2.0), min_size=f.dim, max_size=f.dim)
    X = np.array(data.draw(st.lists(row, min_size=1, max_size=6)))
    for a in range(f.k):
        _check_lane_pass(lambda: _lane_eval(f, a, X), _per_point(lambda x: f.eval(a, x), X))
    ref = _per_point(lambda x: np.asarray(_coeff_jacobian(gamma, x)[1], dtype=float), X)
    _check_lane_pass(lambda: dm._lane_array(_coeff_jacobian(gamma, dm._lanes_of(X))[1], len(X)),
                     ref)


# -- lane partials as one block ---------------------------------------------------

_UNARY = [lambda e: -e, lambda e: e ** 0, lambda e: e ** 1, lambda e: e ** 2, lambda e: e ** 3,
          lambda e: dm.exp(0.25 * e), lambda e: dm.log(e * e + 0.5), lambda e: dm.sqrt(e * e + 0.25),
          dm.sin, dm.cos, dm.tanh]
_BINARY = [lambda e, f: e + f, lambda e, f: e - f, lambda e, f: e * f, lambda e, f: e / f,
           lambda e, f: e / (f * f + 0.5)]
_CONSTANTS = [0.5, -2.0, 3.0, 0.0, -0.0, 1e-3]
_EXTREMES = [0.0, -0.0, 1e150, -1e154, 1e300, -1e-300]


def _expression(rng, p: int, depth: int):
    """A random function of a list of p numbers, duals or lanes, built from the dual operations."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        if r < 0.04:
            c = float(rng.choice(_CONSTANTS))
            return lambda v: c
        i = int(rng.integers(p))
        return lambda v: v[i]
    if r < 0.5:
        op, e = _UNARY[rng.integers(len(_UNARY))], _expression(rng, p, depth - 1)
        return lambda v: op(e(v))
    op = _BINARY[rng.integers(len(_BINARY))]
    e, f = _expression(rng, p, depth - 1), _expression(rng, p, depth - 1)
    return lambda v: op(e(v), f(v))


def _inputs(rng, p: int, extreme: bool) -> np.ndarray:
    """Six rows of p entries: uniform in [-2, 2], about a fifth of them -0.0 or 0.0, and with
    ``extreme`` about a fifth of them from ``_EXTREMES``."""
    X = rng.uniform(-2.0, 2.0, (6, p))
    X[rng.random(X.shape) < 0.2] = -0.0
    X[rng.random(X.shape) < 0.1] = 0.0
    if extreme:
        X[rng.random(X.shape) < 0.2] = rng.choice(_EXTREMES)
    return X


def _lane_pass_and_rows(fn, X):
    """``fn`` on the rows of ``X`` as one lane pass (None when it raises) and row by row on numpy
    floats (an exception where a row raises), both under the lane pass's error state."""
    with np.errstate(**dm._ERRSTATE):
        try:
            lane = dm._lane_array(fn(dm._lanes_of(X)), len(X))
        except Exception:  # noqa: BLE001 - a site falls back to the rows
            lane = None
        rows = []
        for x in X:
            try:
                rows.append(np.asarray(fn(list(x)), dtype=float))
            except Exception as exc:  # noqa: BLE001 - any scalar error
                rows.append(exc)
    return lane, rows


def _first_order(f):
    return lambda xs: (lambda out: [out[0], *out[1]])(dm.derive1(f, xs))


def _second_order(f):
    return lambda xs: (lambda out: [out[0], *out[1], *(x for row in out[2] for x in row)])(dm.derive2(f, xs))


@pytest.mark.parametrize("order,count", [(_first_order, 200), (_second_order, 40)])
def test_a_lane_pass_with_block_partials_gives_the_bits_of_the_scalar_rows(order, count, monkeypatch):
    blocks, part = [], dm._part
    monkeypatch.setattr(dm, "_part", lambda *args: blocks.append(type(b := part(*args)) is np.ndarray) or b)
    rng, compared = np.random.default_rng(38), 0
    for case in range(count):
        p = int(rng.integers(1, 7))
        f = _expression(rng, p, depth=4)
        X = _inputs(rng, p, extreme=case % 3 == 0)
        lane, rows = _lane_pass_and_rows(order(f), X)
        if lane is not None:  # a pass that raises sends its site to the rows
            compared += 1
            for got, want in zip(lane, rows):
                assert not isinstance(want, Exception) and _same_bits(got, want)
    assert compared >= count // 2 and any(blocks)


def test_a_block_times_a_dual_of_an_enclosing_pass_gives_its_partials_one_by_one(monkeypatch):
    # the inner pass's partials form a block over the lanes of w; the outer dual u[0] then
    # multiplies and divides it partial by partial, each partial a dual of the outer pass
    def inner(u, ys):
        return dm.derive1(lambda w: w[0] * w[1] * u[0] + w[1] / u[0], ys)[1]

    def grad(r):
        vals, rows = dm.jacobian(lambda u: inner(u, r[1:]), r[:1])
        return [*vals, *(x for row in rows for x in row)]

    split, part = [], dm._part

    def spy(fn, ks, *bs):
        out = part(fn, ks, *bs)
        split.append(np.ndarray in map(type, bs) and type(out) is tuple)
        return out

    monkeypatch.setattr(dm, "_part", spy)
    X = np.array([[0.5, -0.0, 1.5], [-2.0, 3.0, 0.25], [1.0, 1e-300, -1.0]])
    lane, rows = _lane_pass_and_rows(grad, X)
    assert any(split) and all(_same_bits(got, want) for got, want in zip(lane, rows))


# -- comparisons and operators on duals -----------------------------------------

def test_dual_equality_compares_values():
    x = dm.Dual(0.0, (1.0,), 0)
    assert x == 0.0 and 0.0 == x and not (x != 0.0) and x <= 0.0
    assert x != 1.0 and x == dm.Dual(0.0, (2.0,), 0) and x == np.float64(0.0)
    assert x != None and not (x == "0.0")  # noqa: E711 - other types are never equal
    with pytest.raises(TypeError):
        hash(x)


def test_dual_equality_under_lanes_needs_agreement():
    x = dm.Dual(lanes(1.0, 1.0, 1.0), (1.0,), 0)
    assert x == 1.0 and x != 2.0 and not (x != 1.0)
    with pytest.raises(dm._Unbatchable):
        dm.Dual(lanes(1.0, 2.0), (1.0,), 0) == 1.0


def test_dual_orderings_float_and_repr():
    x, y = dm.Dual(1.0, (1.0,), 0), dm.Dual(2.0, (0.0,), 0)
    assert x < y and x < 1.5 and not (y < x)
    assert x <= 1.0 and x <= y and not (y <= x)
    assert y >= x and y >= 2.0 and not (x >= y)
    assert float(dm.Dual(dm.Dual(2.5, (1.0,), 1), (0.0,), 2)) == 2.5
    assert repr(x) == "Dual(1.0, (1.0,), lev=0)"


def test_reflected_power_matches_scalar_pow():
    val, grad = dm.derive1(lambda v: 2.0 ** v[0], [0.7])
    assert val == 2.0 ** 0.7 == pow(2.0, 0.7)
    assert grad[0] == pytest.approx(math.log(2.0) * 2.0 ** 0.7, rel=1e-15)
    xs = [-1.5, 0.0, 0.3, 2.0]
    assert (3.0 ** lanes(*xs)).v.tolist() == [pow(3.0, x) for x in xs]
    with pytest.raises(dm._Unbatchable):
        (-2.0) ** lanes(0.5, 1.0)  # a complex lane is not real


def test_fabs_is_abs():
    assert dm.fabs(-1.5) == 1.5
    v, g = dm.derive1(lambda x: dm.fabs(x[0]), [-2.0])
    assert v == 2.0 and g[0] == -1.0
    assert dm.fabs(lanes(-1.0, 2.0)).v.tolist() == [1.0, 2.0]


# -- the lane-or-row helper -------------------------------------------------------

def _counting(fn):
    calls = []

    def wrapped(row):
        calls.append(isinstance(row[0], dm._Lanes))
        return fn(row)

    return wrapped, calls


def test_rows_run_as_lanes_in_chunks(rng):
    m = 2 * dm._LANE_CHUNK + 1
    X = 2.0 * rng.random((m, 2)) - 1.0
    f, calls = _counting(lambda r: [r[0] * r[1], dm.exp(r[0]) - 1.0])
    got = dm._rows(f, X)
    assert calls == [True] * 3
    assert np.array_equal(got, [[x * y, math.exp(x) - 1.0] for x, y in X])
    # a plain number is broadcast over the lanes
    assert np.array_equal(dm._rows(lambda r: 2.0, X[:3]), [2.0, 2.0, 2.0])


def _stacked(x, m):
    """A lane pass's output lanes first, stacked level by level (``np.stack(..., axis=1)``)."""
    if isinstance(x, (list, tuple, np.ndarray)):
        return np.stack([_stacked(v, m) for v in x], axis=1)
    x = dm._strip(x)
    return x.v if isinstance(x, dm._Lanes) else np.full(m, float(x))


def test_lane_array_gives_the_bytes_of_stacking_each_level(rng):
    m = 24
    L = [dm._Lanes(2.0 * rng.random(m) - 1.0) for _ in range(6)]
    dual = dm.Dual(dm.Dual(L[0], (L[1], 0.5), 90), (L[2],), 91)  # duals over lanes: their values
    for x in (L[0], [L[0], L[1]], [[L[0], L[1]], [L[2], L[3]]],  # nested outputs
              [1.5, L[0], 2],  # plain numbers broadcast across the lanes
              [[L[0], L[1]], [L[2], 0.25], [L[4], L[5]]],  # a (k, n) = (3, 2) block
              [dual, L[3]], dm._object_array([[L[0], 3.0], [L[1], L[2]]])):
        got, want = dm._lane_array(x, m), _stacked(x, m)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags["C_CONTIGUOUS"] and got.dtype == np.float64


def test_rows_in_several_passes_give_the_bytes_of_one_pass(monkeypatch, rng):
    X = 2.0 * rng.random((7, 2)) - 1.0
    f, calls = _counting(lambda r: [[r[0] * r[1], 1.0], [dm.exp(r[0]), r[1] / 3.0]])
    one = dm._rows(f, X)
    monkeypatch.setattr(dm, "_LANE_CHUNK", 3)
    chunked = dm._rows(f, X)
    assert calls == [True, True, True, True]  # one pass, then passes of 3, 3 and 1 rows
    assert chunked.shape == one.shape == (7, 2, 2) and chunked.tobytes() == one.tobytes()


def test_a_failing_last_pass_runs_every_row_one_by_one(rng):
    m = 2 * dm._LANE_CHUNK + 2  # the last pass holds two rows
    X = 0.5 + rng.random((m, 1))
    X[-1] = 0.0  # the lanes of the last pass disagree on the branch: the scalar values
    f, calls = _counting(lambda r: 1.0 / r[0] if r[0] > 0.0 else math.inf)
    got, want = dm._rows(f, X), [1.0 / x if x > 0.0 else math.inf for x in X[:, 0]]
    assert np.array_equal(got, want) and got[-1] == math.inf
    assert calls == [True] * 3 + [False] * m
    g, calls = _counting(lambda r: dm.log(r[0]))  # a domain error there: the scalar error
    with pytest.raises(ValueError, match="math domain error"):
        dm._rows(g, X)
    assert calls == [True] * 3 + [False] * m


def test_a_single_row_runs_as_floats():
    f, calls = _counting(lambda r: r[0] + 1.0)
    assert np.array_equal(dm._rows(f, np.array([[0.5]])), [1.5]) and calls == [False]
    assert dm._rows(f, np.empty((0, 1))).shape == (0,)


def test_rows_fall_back_in_row_order():
    X = np.array([[1.0], [-1.0], [2.0], [-2.0]])
    f, calls = _counting(lambda r: dm.sqrt(r[0]) if r[0] < 1.5 else dm.log(-r[0]))
    with pytest.raises(ValueError, match="math domain error"):  # the second row's error
        dm._rows(f, X)
    assert calls == [True, False, False]
    # a non-finite input row starts no lane pass: the rows run one by one and keep their values
    g, calls = _counting(lambda r: r[0] + 1.0)
    assert np.array_equal(dm._rows(g, np.array([[0.0], [math.inf]])), [1.0, math.inf])
    assert calls == [False, False]
    # a non-finite lane result from finite rows runs the rows too, and keeps their values
    g, calls = _counting(lambda r: r[0] + math.inf)
    assert np.array_equal(dm._rows(g, np.array([[0.0], [1.0]])), [math.inf, math.inf])
    assert calls == [True, False, False]


def test_a_caller_s_point_of_lanes_refuses_a_non_finite_lane_and_the_rows_decide():
    # inf made inside fn from finite rows: the caller's constructor refuses the lane, as it
    # refuses the float, so the rows run one by one and the first raises the scalar error
    f, calls = _counting(lambda r: kc.DarbouxPoint([r[0] + math.inf], [[0.0]], [0.0]).z[0])
    with pytest.raises(kc.ShapeError, match="^q contains non-finite entries$"):
        dm._rows(f, np.array([[0.0], [1.0]]))
    assert calls == [True, False]


def test_rows_stop_after_the_first_row_failing_ok():
    X = np.array([[0.1], [0.2], [5.0], [0.3], [6.0]])
    f, calls = _counting(lambda r: [r[0], 2.0 * r[0]])
    got = dm._rows(f, X, ok=lambda e: e[..., 0] < 1.0)
    assert np.array_equal(got, [[0.1, 0.2], [0.2, 0.4], [5.0, 10.0]])
    assert calls == [True, False, False, False]
    assert np.array_equal(dm._rows(f, X[:2], ok=lambda e: e[..., 0] < 1.0), [[0.1, 0.2], [0.2, 0.4]])


def test_only_dual_runs_lane_passes():
    """Every batched site goes through ``dual._rows``, the node sampler through its lane pass
    ``dual._lane_rows`` and its row runner ``dual._scalar_rows``: no other module makes a lane
    pass or catches a failed one itself."""
    import ast
    import pathlib

    lane_names = {"_lanes", "_LANE_CHUNK", "_lanes_of", "_lane_array", "_rows", "_lane_rows", "_scalar_rows"}

    def names(node):
        return {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
                if isinstance(n, (ast.Attribute, ast.Name))}

    for path in sorted(pathlib.Path(dm.__file__).parent.glob("*.py")):
        if path.name == "dual.py":
            continue
        tree = ast.parse(path.read_text())
        assert not names(tree) & {"_lanes", "_LANE_CHUNK"}, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Try):
                assert not names(ast.Module(body=node.body, type_ignores=[])) & lane_names, path.name


def test_vmax_propagates_nan_on_floats_as_on_lanes():
    nan = float("nan")
    assert math.isnan(dm._vmax(0.0, nan)) and math.isnan(dm._vmax(nan, 1.0, 0.5))
    assert dm._vmax(0.0, 2.0, 1.0) == 2.0 and type(dm._vmax(0.0, 2.0)) is float
    lanes = dm._vmax(dm._Lanes(np.array([0.0, 3.0])), nan, 1.0)
    assert np.isnan(lanes.v).all()


# -- record once, replay many -------------------------------------------------------

def _branchy(r):
    """Every kind of recorded operation, a branch, and a dead product."""
    s = r[0] * r[1] - 0.25 / r[1]
    _ = 3.0 * s  # reaches no output
    t = dm.exp(0.5 * s) + r[1] ** 1.5 + 2.0 ** r[0] - abs(-r[0])
    return [s + t if s > 0.0 else s - t, dm.sin(r[0]) * dm.sqrt(r[1]), 1.0]


def _scalar_rows(fn, X):
    """``fn`` on every row of ``X`` as Python floats, as one float array."""
    return np.array([np.asarray(fn([float(v) for v in x]), dtype=float) for x in X])


def test_a_replay_gives_the_values_of_the_recorded_function(rng):
    X = np.column_stack([2.0 * rng.random(40) - 1.0, 0.5 + rng.random(40)])
    prog = dm._program(_branchy, [0.8, 1.2])
    assert prog is not None
    want = _scalar_rows(_branchy, X)
    assert np.array_equal(np.array([prog(list(x)) for x in X]), want)  # each row as floats
    # rows on both sides of the branch: the lanes disagree, so every row runs as floats
    assert np.array_equal(dm._rows(prog, X), want)
    # rows on the recorded side of the branch: one lane pass, no row of the original
    side = X[X[:, 0] * X[:, 1] - 0.25 / X[:, 1] > 0.0]
    g, fn_calls = _counting(_branchy)
    f, calls = _counting(dm._program(g, [0.8, 1.2]))
    assert np.array_equal(dm._rows(f, side), _scalar_rows(_branchy, side))
    assert calls == [True] and fn_calls == [True]  # the recording itself


def test_a_replayed_float_row_raises_the_scalar_zero_division():
    fn = lambda r: [1.0 / (r[0] - 1.0)]  # noqa: E731
    prog = dm._program(fn, [2.0])
    assert prog([3.0]).tolist() == [0.5]
    with pytest.raises(ZeroDivisionError):
        prog([1.0])
    with pytest.raises(dm._Unbatchable):  # a zero divisor in one lane
        prog([lanes(3.0, 1.0)])


@pytest.mark.parametrize("fn, error", [
    # the unused Jacobian row of sqrt(v[1]) holds 0.5 / sqrt(v[1]), which divides by zero at 0
    (lambda r: dm.jacobian(lambda v: [v[0] * v[0], dm.sqrt(v[1])], r)[1][0], ZeroDivisionError),
    # the unused value log(v[1]) has no real value below 0
    (lambda r: dm.jacobian(lambda v: [v[0] * v[0], dm.log(v[1])], r)[1][0], ValueError),
])
def test_a_replay_keeps_operations_that_can_raise_but_reach_no_output(fn, error):
    prog = dm._program(fn, [1.0, 1.0])
    assert prog is not None
    X = np.array([[1.0, 1.0], [2.0, 0.0 if error is ZeroDivisionError else -1.0]])
    for row_fn in (fn, prog):
        with pytest.raises(error):
            dm._rows(row_fn, X)
        with pytest.raises(dm._Unbatchable):
            row_fn(dm._lanes_of(X))


def test_a_lane_of_another_recording_refuses_the_program():
    kept = []
    assert dm._program(lambda r: kept.append(r[0]) or [r[0]], [1.0]) is not None
    assert dm._program(lambda r: [r[0] + kept[0]], [2.0]) is None


@pytest.mark.parametrize("fn", [
    lambda r: [float(r[0]) * 2.0],  # float() of a lane
    lambda r: [r[0] * (1.0 if dm._vmax(r[0], 0.0) > 0.5 else 2.0)],  # a lane from _vmax
    lambda r: [np.exp(r[0])],  # numpy on a lane
    lambda r: [dm._Lanes(np.array([1.0])) + r[0]],  # a lane the recording did not make
    lambda r: [r[0] if np.all(np.isfinite(np.array([r[0].v]))) else 0.0],  # numpy on .v
])
def test_a_value_the_recording_did_not_make_refuses_the_program(fn):
    assert dm._program(fn, [1.0]) is None


def test_a_failed_recorded_operation_refuses_the_program_even_when_caught():
    def fn(r):
        try:
            return [dm.log(r[0])]
        except (ValueError, dm._Unbatchable):
            return [0.0]

    assert dm._program(fn, [-1.0]) is None and dm._program(fn, [math.e])([1.0]).tolist() == [0.0]

    def gn(r):  # a lane pass always takes the except branch, a float row never
        try:
            return [float(r[0])]
        except Exception:  # noqa: BLE001
            return [0.0]

    assert dm._program(gn, [1.0]) is None


def test_a_replay_tests_the_finiteness_of_point_entries():
    # the point's q is dead, but building it tests that it is finite, as the scalar pass does
    def fn(r):
        kc.DarbouxPoint([r[0] * 1e300], [[0.0]], [0.0])
        return [r[0] + 1.0]

    prog = dm._program(fn, [1.0])
    assert prog([2.0]).tolist() == [3.0]
    with pytest.raises(kc.ShapeError, match="q contains non-finite entries"), np.errstate(over="ignore"):
        prog([np.float64(1e10)])
    with pytest.raises(dm._Unbatchable), np.errstate(over="ignore"):
        prog([lanes(1.0, 1e10)])


# x * 1, 1 * x, x / 1, x + -0, -0 + x and x - 0 are x bit for bit, so a recording folds them
FOLDED = {
    "x * 1": lambda r: [r[0] * 1.0], "1 * x": lambda r: [1 * r[0]], "x / 1": lambda r: [r[0] / 1.0],
    "x + -0": lambda r: [r[0] + -0.0], "-0 + x": lambda r: [-0.0 + r[0]], "x - 0": lambda r: [r[0] - 0.0],
    "a unit gradient times x": lambda r: [dm.derive1(lambda v: v[0] * 1.0 - 0.0, r)[1][0] * r[0]],
}
# ... and these are not identities: x + 0 turns -0 into +0, x * 0 is NaN at inf and -0 below 0
KEPT = {
    "x + 0": lambda r: [r[0] + 0.0], "0 + x": lambda r: [0.0 + r[0]], "x - -0": lambda r: [r[0] - -0.0],
    "0 - x": lambda r: [0.0 - r[0]], "x * 0": lambda r: [r[0] * 0.0], "0 * x": lambda r: [0.0 * r[0]],
    "x * -1": lambda r: [r[0] * -1.0], "x / -1": lambda r: [r[0] / -1.0],
}
EDGES = [0.0, -0.0, 1e-300, -1e-300, 1.5, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("case", list(FOLDED) + list(KEPT))
def test_a_replayed_identity_has_the_bits_of_the_unrecorded_function(case):
    fn = {**FOLDED, **KEPT}[case]
    prog = dm._program(fn, [0.7])
    X = np.array(EDGES)[:, None]
    with np.errstate(all="ignore"):
        want = _scalar_rows(fn, X)
        assert np.array([prog([x]) for x in EDGES]).tobytes() == want.tobytes()  # float rows
    assert dm._rows(prog, X).tobytes() == want.tobytes()  # lanes, or rows where lanes refuse
    L = dm._lanes_of(np.array([[0.7], [-1.5]]))
    # a folded identity reads its operand: the replay hands back the input lane itself
    assert (prog(L)[0].v is L[0].v) == (case in FOLDED)


def test_adding_plus_zero_and_multiplying_by_zero_stay_operations():
    plus = dm._program(lambda r: [r[0] + 0.0], [0.7])
    assert math.copysign(1.0, plus([-0.0])[0]) == 1.0
    assert math.copysign(1.0, plus(dm._lanes_of(np.array([[-0.0], [1.0]])))[0].v[0]) == 1.0
    times = dm._program(lambda r: [r[0] * 0.0], [0.7])
    assert math.copysign(1.0, times([-1.5])[0]) == -1.0
    assert math.isnan(times([math.inf])[0])


def test_one_program_replays_at_several_lane_widths(rng):
    # constants live lane-wide per width; each width, and a width seen before, gives the scalar rows
    X = np.column_stack([2.0 * rng.random(400) - 1.0, 0.5 + rng.random(400)])
    side = X[X[:, 0] * X[:, 1] - 0.25 / X[:, 1] > 0.0][:40]
    f, calls = _counting(dm._program(_branchy, [0.8, 1.2]))
    for rows in (side, side[:7], side, side[:2]):
        assert dm._rows(f, rows).tobytes() == _scalar_rows(_branchy, rows).tobytes()
    assert calls == [True] * 4  # every width ran as one lane pass


def test_a_row_that_overflows_raises_a_shape_error_naming_it():
    """Rows that run one by one, and a single row, run under the lane pass's error state."""
    X = np.array([[0.5], [1e300], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        for rows in (X, X[1:2]):
            with pytest.raises(kc.ShapeError, match=r"^a value is not finite at \(1e\+300,\): overflow"):
                dm._rows(lambda r: r[0] * 1e10, rows)
        with pytest.raises(kc.ShapeError, match=r"^a value is not finite at \(0\.0,\): divide by zero"):
            dm._rows(lambda r: 1.0 / r[0], np.array([[1.0], [0.0]]))


# -- the compiled programs: one per tape structure, from a fixed operator text -----------

def compiles(monkeypatch):
    """The source texts ``dual`` compiles from here on, with an empty program cache."""
    texts, real = [], compile
    monkeypatch.setattr(dm, "_COMPILED", {})
    monkeypatch.setattr(dm, "compile", lambda text, *a: texts.append(text) or real(text, *a), raising=False)
    return texts


def test_a_reflected_power_recorded_twice_compiles_once(monkeypatch):
    fn = lambda r: [2.0 ** r[0]]  # noqa: E731
    texts = compiles(monkeypatch)
    progs = [dm._program(fn, [0.5]), dm._program(fn, [-0.25])]
    assert None not in progs and len(texts) == 1 and len(dm._COMPILED) == 1
    X = np.array([[-1.5], [0.0], [0.3], [2.0], [10.0]])
    for prog in progs:
        assert np.array([prog(list(x)) for x in X]).tobytes() == _scalar_rows(fn, X).tobytes()
        assert dm._rows(prog, X).tobytes() == _scalar_rows(fn, X).tobytes()


def test_no_module_but_dual_compiles_source_text():
    src = pathlib.Path(dm.__file__).parent
    for path in src.glob("*.py"):
        found = re.findall(r"(?<![\w.])(?<!def )(exec|eval|compile)\(", path.read_text())
        assert found == ([] if path.name != "dual.py" else ["compile"]), path.name


def _every_operation(r):
    """Every operator of the text table, a helper, the six comparisons, finiteness tests
    and the constants nan, -0.0 and 1e308."""
    a, b = r
    s = (a + b) - (a * b) / b
    t = abs(-s)
    assert [a < b, a <= b, a > b, a >= b, a == b, a != b] == [True, True, False, False, False, True]
    kc.DarbouxPoint([t], [[a], [b]], [s, 0.0])
    return [dm.exp(t) + a * 1e308, b - -0.0, s * math.nan]


REG, TEXT = r"r\d+", r"(r\d+ [-+*/] r\d+|-r\d+|abs\(r\d+\)|f\d+\(r\d+(, r\d+)*\))"
GRAMMAR = [rf"def replay\(x, c\):", rf"    ({REG}, )+= [xc]", rf"    {REG} = {TEXT}",
           rf"    if _agree\((r\d+ (<|<=|>|>=|==|!=) r\d+|f\d+\(r\d+\))\) is not (True|False): "
           r"raise _Unbatchable\('a replayed test has another answer'\)",
           rf"    return \[{REG}(, {REG})*\]",
           rf"    {REG} = (add|subtract|multiply|divide|negative|absolute)\(({REG}, )+B\[\d+\]\)"]


def test_the_source_of_a_recording_is_registers_and_the_operator_table(monkeypatch):
    texts = compiles(monkeypatch)
    prog = dm._program(_every_operation, [0.5, 1.5])
    assert prog is not None and len(texts) == 1
    lines = texts[0].split("\n")
    assert all(any(re.fullmatch(g, line) for g in GRAMMAR) for line in lines), texts[0]
    assert re.search(r"= multiply\(r\d+, r\d+, B\[\d+\]\)$", texts[0], re.M)  # lanes write in place
    for line in ("    r3 = power(r1, r2, B[0])", "    r3 = add(r1, r2, C[0])", "    r3 = add(r1, r2)"):
        assert not any(re.fullmatch(g, line) for g in GRAMMAR), line
    for op in ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!="):
        assert f" {op} r" in texts[0], op
    assert re.search(r"= -r\d+$", texts[0], re.M) and "abs(r" in texts[0] and "f1(r" in texts[0]
    # the constants came in as an argument: none of nan, -0.0, 1e308 is in the text
    assert not re.search(r"\d\.|nan|inf", texts[0])
    for x in ([0.5, 1.5], [0.25, 3.0], [-0.75, 0.5]):
        assert prog(x).tobytes() == np.array(_every_operation(x)).tobytes()
    X = np.array([[0.5, 1.5], [0.25, 3.0], [0.125, 2.0]])
    lanes_out = [v.v for v in prog(dm._lanes_of(X))]
    assert np.stack(lanes_out, axis=1).tobytes() == _scalar_rows(_every_operation, X).tobytes()


def test_the_program_cache_keeps_its_bound_and_an_evicted_program_records_again(monkeypatch):
    texts = compiles(monkeypatch)
    fn = lambda r: [r[0] * r[-1] - 0.5]  # noqa: E731
    for n in range(1, dm._COMPILED_BOUND + 6):  # n inputs: a tape structure of its own
        assert dm._program(fn, [0.5] * n) is not None
        assert len(dm._COMPILED) <= dm._COMPILED_BOUND
    assert len(texts) == dm._COMPILED_BOUND + 5 and len(dm._COMPILED) == dm._COMPILED_BOUND
    prog = dm._program(fn, [0.5])  # evicted: compiled again
    assert len(texts) == dm._COMPILED_BOUND + 6 and len(dm._COMPILED) == dm._COMPILED_BOUND
    X = np.array([[0.0], [-1.5], [3.0], [1e200]])
    with np.errstate(over="ignore"):
        assert np.array([prog(list(x)) for x in X]).tobytes() == _scalar_rows(fn, X).tobytes()
    assert dm._rows(prog, X[:3]).tobytes() == _scalar_rows(fn, X[:3]).tobytes()


# -- value numbering: each constant and each operation once -----------------------------------

# Operations of a random program: (a, b) operands, c a constant; b is an input, so values stay small.
OPS = [lambda a, b, c: a * b, lambda a, b, c: b * a, lambda a, b, c: a + -b, lambda a, b, c: -b + a,
       lambda a, b, c: a - b, lambda a, b, c: a * c, lambda a, b, c: c * a, lambda a, b, c: a + c,
       lambda a, b, c: a - c, lambda a, b, c: dm.sqrt(a * a + 1.0), lambda a, b, c: dm.log(a * a + b),
       lambda a, b, c: a * abs(b) ** 1.5, lambda a, b, c: a / (1.0 + b * b)]
CONSTS = [0.5, float("0.5"), 0.0, -0.0, 1.5, -1.5]


def _random_program(seed):
    """A straight-line function of three inputs in [0.5, 1.5], built to hold duplicates: operations
    repeated and commuted, equal constants, 0.0 beside -0.0, ``a + -b`` beside ``-b + a`` and
    ``a - b``, the sqrt, log and ``**`` helpers, and divisions, each testing its divisor for 0."""
    plan = np.random.default_rng(seed)
    twin = {0: 1, 1: 0, 2: 3, 3: 2, 5: 6, 6: 5}  # a * b and b * a, a + -b and -b + a, a * c and c * a
    ops = []
    for i in range(3, 35):
        if ops and plan.random() < 0.3:  # an operation again on the same registers, or its twin
            op, a, b, c = ops[plan.integers(len(ops))]
            ops.append((twin.get(op, op) if plan.random() < 0.5 else op, a, b, c))
        else:
            ops.append((plan.integers(len(OPS)), plan.integers(i), plan.integers(3), plan.integers(len(CONSTS))))

    def fn(r):
        v = list(r)
        for op, a, b, c in ops:
            v.append(OPS[op](v[a], v[b], CONSTS[c]))
        return v[3::4] + v[-3:]

    return fn


def _rhs(floats):
    """The right-hand side of each line of a compiled floats form, the operands of + and * in order
    (the lanes form runs the same steps)."""
    out = []
    for m in re.finditer(r"^    (?:r\d+ = (.*)|if _agree\((.*)\) is not)", floats, re.M):
        expr = m[1] or m[2]
        a = re.fullmatch(r"(r\d+) ([+*]) (r\d+)", expr)
        out.append((a[2], *sorted((a[1], a[3]))) if a else expr)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_a_replay_of_a_random_program_has_the_bits_of_the_unrecorded_function(seed, monkeypatch):
    fn, texts = _random_program(seed), compiles(monkeypatch)
    X = 0.5 + np.random.default_rng(100 + seed).random((50, 3))
    prog = dm._program(fn, X[0].tolist())
    assert prog is not None and len(texts) == 1
    want = _scalar_rows(fn, X).view(np.uint64)
    assert np.array([prog(list(x)) for x in X]).view(np.uint64).tolist() == want.tolist()
    with np.errstate(**dm._ERRSTATE):
        for m in (2, 7, 50):
            got = dm._lane_array(prog(dm._lanes_of(X[:m])), m)
            assert got.view(np.uint64).tolist() == want[:m].tolist(), m
    rhs = _rhs(texts[0].split("def replay(x, c):")[1])  # the floats form
    assert len(rhs) == len(set(rhs)), texts[0]


def test_a_recording_logs_each_constant_and_operation_once(monkeypatch):
    texts = compiles(monkeypatch)

    def fn(r):
        a, b = r
        return [a * b + b * a, a + -b, -b + a, a - b, (a * 0.5) * (0.5 * a), a * 0.0, a * -0.0, a + 0.0]

    prog = dm._program(fn, [0.5, 1.5])
    floats = texts[0].split("def replay(x, c):")[1]
    # 0.5 once, 0.0 and -0.0 apart; a * b once; a + -b, -b + a and a - b one line, -b dead
    assert floats.split("\n")[1:] == [
        "    r0, r1, = x", "    r6, r9, r11, = c", "    r2 = r0 * r1", "    r3 = r2 + r2", "    r5 = r0 - r1",
        "    r7 = r0 * r6", "    r8 = r7 * r7", "    r10 = r0 * r9", "    r12 = r0 * r11", "    r13 = r0 + r9",
        "    return [r3, r5, r5, r5, r8, r10, r12, r13]", ""]
    assert np.array(prog([0.5, 1.5])).view(np.uint64).tolist() == np.array(fn([0.5, 1.5])).view(np.uint64).tolist()


def test_a_lane_replay_leaves_the_outputs_of_an_earlier_call_as_they_were():
    fn = _random_program(0)
    X = 0.5 + np.random.default_rng(7).random((14, 3))
    prog = dm._program(fn, X[0].tolist())
    with np.errstate(**dm._ERRSTATE):
        first = prog(dm._lanes_of(X[:7]))
        prog(dm._lanes_of(X[7:]))  # the same width: the same buffers
    assert dm._lane_array(first, 7).tobytes() == _scalar_rows(fn, X[:7]).tobytes()


def test_a_wide_lane_replay_holds_no_more_buffers_than_live_intermediates(monkeypatch):
    from kcontact.integrate import _rk4_step

    texts = compiles(monkeypatch)
    ex = corpus.load("telegrapher")
    P = dict(ex.sections["classical-zind"].defaults)
    f = kc.project_Q(ex.hamiltonian({k: P[k] for k in ex.defaults}), ex.sections["classical-zind"].build(P))
    start = np.full(f.dim, 0.75)
    evals = [dm._program(partial(f.eval, a), start) for a in range(f.k)]
    prog = dm._program(partial(_rk4_step, kc.BaseField(f.dim, evals), 0, 0.01), start)
    X = start + 0.5 * np.random.default_rng(3).random((4096, f.dim))
    with np.errstate(**dm._ERRSTATE):
        got = dm._lane_array(prog(dm._lanes_of(X)), len(X))
    unrecorded = partial(_rk4_step, f, 0, 0.01)
    assert got[:64].tobytes() == _scalar_rows(unrecorded, X[:64]).tobytes()
    # the lanes form of the step: the intermediates written in place, each live up to its last read
    lines = texts[-1].split("def replay(x, c):")[2].split("\n")
    made = {m.group(1): j for j, line in enumerate(lines) if (m := re.match(r"    (r\d+) = \w+\(.*B\[", line))}
    last = {r: j for j, line in enumerate(lines) for r in re.findall(r"(?<!= )\b(r\d+)\b(?! =)", line)}
    peak = max(sum(made[r] <= j < last[r] for r in made) for j in range(len(lines)))
    B = inspect.getclosurevars(prog).nonlocals["forms"][4096][0].__globals__["B"]
    assert 0 < len(B) <= peak and all(b.shape == (4096,) for b in B)
