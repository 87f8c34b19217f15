"""Forward-mode engine against a central-difference oracle."""

import math

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


@pytest.mark.parametrize("f, x", [
    (lambda v: (v[0] + _ARR)[1], [0.7]),  # Dual + array broadcasts entry by entry
    (lambda v: (v[0] / _ARR)[1], [0.7]),
    (lambda v: (_ARR / v[0])[1], [0.7]),  # array / Dual, through the reflected division
    (lambda v: v[0] ** 0 + v[1], [0.7, 1.3]),
    (lambda v: v[0] ** 1 * v[1], [0.7, 1.3]),
    (lambda v: v[0] ** v[1], [0.7, 1.3]),  # a dual exponent
])
def test_array_operands_and_special_powers_match_the_plain_function(f, x):
    val, grad = dm.derive1(f, x)
    assert val == pytest.approx(f(x), rel=1e-15)
    assert grad == pytest.approx(fd_gradient(f, x), rel=1e-8, abs=1e-10)


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


def _check_lane_pass(lane_fn, ref):
    if isinstance(ref, Exception):
        with pytest.raises(Exception):
            lane_fn()
    else:
        assert np.array_equal(lane_fn(), ref)


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


def test_a_failing_last_pass_runs_every_row_one_by_one(rng):
    m = 2 * dm._LANE_CHUNK + 2  # the last pass holds two rows
    X = 0.5 + rng.random((m, 1))
    X[-1] = 0.0  # a zero divisor in the last row only: the scalar value
    f, calls = _counting(lambda r: 1.0 / r[0])
    with np.errstate(divide="ignore"):
        got, want = dm._rows(f, X), [1.0 / x for x in X[:, 0]]
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
    # a non-finite lane result runs the rows too, and keeps their values
    g, calls = _counting(lambda r: r[0] + 1.0)
    assert np.array_equal(dm._rows(g, np.array([[0.0], [math.inf]])), [1.0, math.inf])
    assert calls == [True, False, False]


def test_rows_stop_after_the_first_row_failing_ok():
    X = np.array([[0.1], [0.2], [5.0], [0.3], [6.0]])
    f, calls = _counting(lambda r: [r[0], 2.0 * r[0]])
    got = dm._rows(f, X, ok=lambda e: e[..., 0] < 1.0)
    assert np.array_equal(got, [[0.1, 0.2], [0.2, 0.4], [5.0, 10.0]])
    assert calls == [True, False, False, False]
    assert np.array_equal(dm._rows(f, X[:2], ok=lambda e: e[..., 0] < 1.0), [[0.1, 0.2], [0.2, 0.4]])


def test_only_dual_runs_lane_passes():
    """Every batched site goes through ``dual._rows``: no other module makes a lane
    pass or catches a failed one itself."""
    import ast
    import pathlib

    lane_names = {"_lanes", "_LANE_CHUNK", "_lanes_of", "_lane_array", "_rows"}

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
