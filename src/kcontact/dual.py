"""Forward-mode automatic differentiation on dual numbers.

A :class:`Dual` carries a value and a tuple of partial derivatives with
respect to the seed variables of one differentiation pass.  Passes can be
nested (dual-over-dual), which is how exact Hessians and derivatives of
derivative-defined quantities (projected fields, section coefficients)
are obtained.  Each pass gets a fresh *level* tag; an operation between
duals of different levels treats the lower level as a constant, which
avoids perturbation confusion when passes nest.

User-supplied callables stay differentiable as long as they use ordinary
scalar arithmetic and the math helpers exported here (``exp``, ``log``,
``sqrt``, ...) instead of the ``math``/``numpy`` versions.  A dual times a
point's array (``pt.q[0] * pt.p``) broadcasts element by element.

Lanes.  Grid and sample sweeps evaluate one callable at many points in a
single pass by handing it :class:`_Lanes` values, each carrying one float
per point, wherever a float would go (also inside duals and the object blocks
of the points a pass builds with ``DarbouxPoint.from_flat``, which stores them
unread).  Under lanes a callable may use
``+ - * /`` and ``**``, ``abs``, the math helpers exported here,
elementwise arithmetic on the point's arrays, and comparisons or branches
on which every lane agrees.  Each lane's result is bit-identical to the
scalar pass at that point: numpy rounds ``+ - * /`` exactly, and ``**``
and the helpers apply the scalar ``math``/Python operation lane by lane.
Anything else (a zero divisor, a math domain error, ``float()`` of a lane
value, a branch on which lanes disagree, a numpy function or a new numpy
array made from lane values) raises :class:`_Unbatchable` or another
exception.  A dual over lanes with P >= 2 partials holds them as one block, a float
array of P rows of m lanes (row i partial i), once an operation meets plain lanes
or a block (:func:`_lane`): ``+ - * /``, negation, ``**`` and the helpers' chain rule
then take one numpy call per term for the whole block, each entry computed in the
order of the tuple, so with the same bits (:func:`_part`).  A dual whose partials are
duals of an enclosing pass keeps a tuple, as do recordings (below); :func:`derive1` and
:func:`jacobian` read the rows as lanes.

Every batched site (the Hamilton-Jacobi sweeps, the holonomy and symmetry
checks of sections, the section and round-trip checks of complete families,
the RK4 lines of an integral section, its node derivatives, the section points
and Jacobians of a lift, h and its gradient on the nodes of a map residual and
of a second-order balance, the residual and Hessian passes of the batched
fibre-inversion Newton) goes through one helper, :func:`_rows`.  It runs a per-row
function on all rows as lanes, in passes of up to ``_LANE_CHUNK`` rows (one pass hands
back its C-contiguous array as it is); when a pass raises, a result is not finite or a row
fails the site's predicate, it runs the rows one by one in row order instead, which
reproduces the scalar values and the first scalar error, and stops after the first row
that fails the predicate.  A single row, or rows with a non-finite entry (tested once on the
input, since a pass's points are not checked), always run as floats.  Sampling a closed form on
the nodes of a grid (the values and exact Jacobians of a closed solution or base map, a
reference, a closed derivative) runs the same lane pass, :func:`_lane_rows`, first on two
nodes and then on the others; when a pass fails, the sampler calls the closed form once
per node in node order, so a closure that refuses lanes pays one failed pass over two
nodes.  Every row that runs one at a time, there or in :func:`_rows`, goes through
:func:`_scalar_rows` as a row of numpy floats under the lane pass's error state: an
overflow, invalid operation or zero divisor raises :class:`~kcontact.errors.ShapeError`
naming the row or the grid node.

Record once, replay many.  A site that runs one per-row function many times (the RK4 step on every
line) records it at one row with :func:`_program`: the lanes then hold registers, and every
float-level operation and every test of a value (a comparison, ``bool``, a divisor's zero test, the
finiteness test of a caller's list of lanes) is logged, a test with its answer.  Each value is
logged once: equal constants (by their bits, so -0.0 is not 0.0) share a register, as do equal
operations, the operands of ``+`` and ``*`` taken in register order and ``a + -b`` and ``-b + a``
read as ``a - b``, each giving the same bits (but a NaN's sign).  The recording folds ``x * 1``, ``x
/ 1``, ``x + -0`` and ``x - 0`` into x; ``x + 0`` and ``x * 0`` stay operations (they change -0 and
inf).  The replay runs the outputs, the tests and every operation that can raise, with what they
read, as straight-line Python: one source text holds a floats and a lanes form, compiled once per
tape structure (its inputs, length, kept operations with their registers and answers, and outputs)
and cached under a fixed bound, oldest out first.  Its source holds register names, ``+ - * /``,
unary ``-``, ``abs`` and the six comparisons, and in the lanes form the ufuncs of the first six,
each writing an intermediate into a buffer ``B[j]`` of the pass's width that is taken again once its
register is last read (an output gets none); every other operation is a helper bound by name, and
the constants come in as an argument.  A lane replay keeps its buffers and its constants as arrays
per lane width.  On lanes a test with another answer or a failed helper raises
:class:`_Unbatchable`, so :func:`_rows` falls back as before; on floats any failure runs the
recorded function on that row instead.  A replay on recorded values (lanes holding registers) runs
the lanes form without buffers, its ufuncs logging its kept operations onto that recording, the
constants as floats; a test with another answer raises :class:`_Unbatchable` there.  So an RK4 step
is recorded from its field's evaluation program, not four dual passes.  A function that reads lane
values otherwise (``float()``, :func:`_vmax`, numpy) records no program and runs as it is.  A dual
over registers keeps a tuple of partials, each operation on them logged.  A float replay computes in
Python floats, which overflow without an error: there a non-finite value meets the site's own test
(the RK4 guard).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
import types

import numpy as np

from .errors import ShapeError

__all__ = [
    "Dual",
    "value",
    "derive1",
    "jacobian",
    "derive2",
    "exp",
    "log",
    "sqrt",
    "sin",
    "cos",
    "tanh",
    "fabs",
    "sign",
]

_LEVELS = itertools.count(1)


class Dual:
    """Truncated first-order Taylor number: value ``a`` plus partials ``b``.

    ``b`` is a tuple with one entry per seed variable of the pass the dual
    belongs to; the entries are themselves numbers (floats, or duals of an
    enclosing pass when nested).  Over lanes it may be a block instead: a
    (P, m) float array, row i the lanes of partial i (see :func:`_part`).
    """

    __slots__ = ("a", "b", "lev")
    __array_ufunc__ = None  # keep numpy from absorbing us into object arrays

    def __init__(self, a, b, lev):
        self.a = a
        self.b = b
        self.lev = lev

    # -- helpers -----------------------------------------------------------

    def _split(self, other):
        """Return (value-part, partials-part) of `other` as seen from self's level."""
        if isinstance(other, Dual):
            if other.lev == self.lev:
                return other.a, other.b
            if other.lev > self.lev:
                return NotImplemented, None
        return other, None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return _bcast(lambda x: self + x, other)
        oa, ob = self._split(other)
        if oa is NotImplemented:
            return other.__radd__(self)
        a = self.a + oa
        if ob is None:
            return Dual(a, self.b, self.lev)
        if _lane(self.b, ob):
            return Dual(a, _part(lambda x, y: x + y, (), self.b, ob), self.lev)
        return Dual(a, tuple(x + y for x, y in zip(self.b, ob)), self.lev)

    __radd__ = __add__

    def __neg__(self):
        if _lane(self.b):
            return Dual(-self.a, _part(lambda x: -x, (), self.b), self.lev)
        return Dual(-self.a, tuple(-x for x in self.b), self.lev)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, np.ndarray):
            return _bcast(lambda x: self * x, other)
        oa, ob = self._split(other)
        if oa is NotImplemented:
            return other.__rmul__(self)
        a = self.a * oa
        if ob is None:
            if _lane(self.b, oa):
                return Dual(a, _part(lambda oa, x: x * oa, (oa,), self.b), self.lev)
            return Dual(a, tuple(x * oa for x in self.b), self.lev)
        if _lane(self.b, ob, oa, self.a):
            return Dual(a, _part(lambda oa, sa, x, y: x * oa + sa * y, (oa, self.a), self.b, ob), self.lev)
        return Dual(a, tuple(x * oa + self.a * y for x, y in zip(self.b, ob)), self.lev)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, np.ndarray):
            return _bcast(lambda x: self / x, other)
        oa, ob = self._split(other)
        if oa is NotImplemented:
            return other.__rtruediv__(self)
        if ob is None:
            a = self.a / oa
            if _lane(self.b, oa):
                return Dual(a, _part(lambda oa, x: x / oa, (oa,), self.b), self.lev)
            return Dual(a, tuple(x / oa for x in self.b), self.lev)
        inv = 1.0 / oa
        av = self.a * inv
        if _lane(self.b, ob, av, inv):
            return Dual(av, _part(lambda av, inv, x, y: (x - av * y) * inv, (av, inv), self.b, ob), self.lev)
        return Dual(av, tuple((x - av * y) * inv for x, y in zip(self.b, ob)), self.lev)

    def __rtruediv__(self, other):
        if isinstance(other, np.ndarray):
            return _bcast(lambda x: x / self, other)
        inv_a = 1.0 / self.a
        av = other * inv_a
        if _lane(self.b, av, inv_a):
            return Dual(av, _part(lambda av, inv_a, x: -av * inv_a * x, (av, inv_a), self.b), self.lev)
        return Dual(av, tuple(-av * inv_a * x for x in self.b), self.lev)

    def __pow__(self, n):
        if isinstance(n, Dual):
            return exp(log(self) * n)
        if n == 0:
            return self._chain(1.0, 0.0)
        if n == 1:
            return self
        if n == 2:
            return self * self
        c = n * self.a ** (n - 1)
        return self._chain(self.a ** n, c)

    def __rpow__(self, base):
        return exp(self * math.log(base))

    # -- comparisons look at values only -----------------------------------

    __lt__, __le__, __gt__, __ge__ = (
        lambda self, other, op=op: op(_cmp_value(self), _cmp_value(other))
        for op in (operator.lt, operator.le, operator.gt, operator.ge))

    def __eq__(self, other):  # ``!=`` negates it; duals are not hashable
        if not isinstance(other, (Dual, _Lanes) + _REAL):
            return NotImplemented
        return _cmp_value(self) == _cmp_value(other)

    def __abs__(self):
        s = 1.0 if _cmp_value(self) >= 0.0 else -1.0
        return self * s

    def __float__(self):
        return float(value(self))

    def __repr__(self):
        return f"Dual({self.a!r}, {tuple(_entries(self.b))!r}, lev={self.lev})"

    def _chain(self, fa, dfa):
        if _lane(self.b, dfa):
            return Dual(fa, _part(lambda dfa, x: dfa * x, (dfa,), self.b), self.lev)
        return Dual(fa, tuple(dfa * x for x in self.b), self.lev)


def _bcast(fn, arr):
    out = np.empty(arr.shape, dtype=object)
    flat = arr.reshape(-1)
    res = out.reshape(-1)
    for i in range(flat.size):
        res[i] = fn(flat[i])
    return out


def _lane(b, *xs) -> bool:
    """Whether an operation on the partials ``b`` with the other partials or factors ``xs`` runs
    through :func:`_part`: ``b`` is a block, or it holds two or more partials and one of ``xs``
    is a block or plain lanes."""
    if type(b) is np.ndarray:
        return True
    for x in xs if len(b) > 1 else ():
        if type(x) is np.ndarray or type(x) is _Lanes and type(x.v) is np.ndarray:
            return True
    return False


def _part(fn, ks, *bs):
    """The partials ``fn(*ks, x, ...)``, x, ... running over the partials ``bs`` in step, where
    :func:`_lane` holds.  When every factor of ``ks`` is a float, an int or plain lanes and every
    partial a block or floats (a (P, 1) column), ``fn`` runs once on the whole block and gives a
    (P, m) array, row i partial i, each entry computed as the tuple computes it; otherwise the
    tuple, a block read as lanes (:func:`_entries`)."""
    vs = [k.v if type(k) is _Lanes else k for k in ks]
    if _BLOCK.issuperset(map(type, vs)) and all(
            type(b) is np.ndarray or _FLOATS.issuperset(map(type, b)) for b in bs):
        return fn(*vs, *(b if type(b) is np.ndarray else np.array(b)[:, None] for b in bs))
    return tuple(fn(*ks, *xs) for xs in zip(*map(_entries, bs)))


_FLOATS = {float, np.float64}
_BLOCK = {np.ndarray, int, *_FLOATS}  # the factors of a block operation


def _entries(b):
    """The partials of a dual one by one: a tuple, or the rows of a block as lanes."""
    return map(_Lanes, b) if type(b) is np.ndarray else b


def _strip(x):
    while isinstance(x, Dual):
        x = x.a
    return x


def value(x):
    """Strip all dual layers off `x` and return the underlying float."""
    return float(_strip(x))


def _cmp_value(x):
    """What comparisons see: the underlying float, or the lanes under the duals."""
    x = _strip(x)
    return x if isinstance(x, _Lanes) else float(x)


# -- lanes: one float per sample point, travelling as one scalar -------------

class _Unbatchable(Exception):
    """A lane pass met an operation that its lanes cannot take together."""


# Operands that mix with lanes as Python floats do (np.float64 is a float).
# np.float32 is left out: with a Python float it computes in single precision.
_REAL = (float, int, np.integer)


def _div(a, b):
    if (b == 0.0).any() if isinstance(b, np.ndarray) else b == 0.0:
        raise _Unbatchable("division by zero in a lane")
    return a / b


def _lane_op(op, reflected=False):
    def method(self, other):
        o = self._arg(other)
        if o is NotImplemented:
            return o
        return _Lanes(op(o, self.v) if reflected else op(self.v, o))

    return method


def _lane_cmp(op):
    def method(self, other):
        o = self._arg(other)
        return o if o is NotImplemented else self._agree(op(self.v, o))

    return method


class _Lanes:
    """m floats, one per lane, that a callable sees as a single scalar.

    ``+ - * /`` act lane-wise with real numbers and other lanes, not with
    numpy arrays; duals take lanes as their value and partial entries.
    Comparisons and ``bool`` give the common answer of the lanes; they
    raise :class:`_Unbatchable` when the lanes disagree, as do ``float()``
    and a zero divisor in any lane.  ``__array_ufunc__ = None`` keeps numpy
    functions off it, and ``__array__`` raises: numpy would build an object
    array from lanes where the scalar pass builds a float array, and the
    sums and matrix products of the two can round differently.  Object
    arrays of lanes are built element by element (``np.fromiter``).
    """

    __slots__ = ("v",)
    __array_ufunc__ = None

    def __init__(self, v):
        self.v = v

    def _arg(self, other):
        if isinstance(other, _Lanes):
            return other.v
        if isinstance(other, _REAL):
            return float(other)
        return NotImplemented

    @staticmethod
    def _agree(mask):
        if mask.all():
            return True
        if not mask.any():
            return False
        raise _Unbatchable("lanes disagree on a comparison")

    def _each(self, fn, other=None):
        """Apply the scalar operation ``fn`` lane by lane, with an optional second operand."""
        if isinstance(self.v, _Reg):  # a recording logs one operation (see _program)
            o = () if other is None else (other.v if isinstance(other, _Lanes) else other,)
            return _Lanes(self.v.log(fn, *o))
        xs = self.v.tolist()
        try:
            if other is None:
                out = [fn(x) for x in xs]
            elif isinstance(other, _Lanes):
                out = [fn(x, y) for x, y in zip(xs, other.v.tolist())]
            else:
                out = [fn(x, other) for x in xs]
        except (ArithmeticError, ValueError) as exc:
            raise _Unbatchable(f"lane operation failed: {exc}") from exc
        if any(type(x) is not float for x in out):
            raise _Unbatchable("a lane left the real numbers")
        return _Lanes(np.array(out))

    __add__ = _lane_op(operator.add)
    __radd__ = _lane_op(operator.add, reflected=True)
    __sub__ = _lane_op(operator.sub)
    __rsub__ = _lane_op(operator.sub, reflected=True)
    __mul__ = _lane_op(operator.mul)
    __rmul__ = _lane_op(operator.mul, reflected=True)
    __truediv__ = _lane_op(_div)
    __rtruediv__ = _lane_op(_div, reflected=True)

    def __pow__(self, other):
        o = other if isinstance(other, _Lanes) else self._arg(other)
        return o if o is NotImplemented else self._each(pow, o)

    def __rpow__(self, other):
        o = self._arg(other)
        return o if o is NotImplemented else self._each(_rpow, o)

    def __neg__(self):
        return _Lanes(-self.v)

    def __abs__(self):
        return _Lanes(np.abs(self.v))

    __lt__ = _lane_cmp(operator.lt)
    __le__ = _lane_cmp(operator.le)
    __gt__ = _lane_cmp(operator.gt)
    __ge__ = _lane_cmp(operator.ge)
    __eq__ = _lane_cmp(operator.eq)
    __ne__ = _lane_cmp(operator.ne)

    def __bool__(self):
        return self._agree(self.v != 0.0)

    def __float__(self):
        if isinstance(self.v, _Reg):
            self.v.fail("float() of a recorded value")  # even where the caller catches it
        raise _Unbatchable("float() of a lane value")

    def __array__(self, dtype=None, copy=None):
        raise _Unbatchable("a numpy array built from lane values")


# Points per lane pass.  A pass is nearly all fixed Python cost: on one slice
# of the telegrapher complete family (2 CPUs, Python 3.11.7, numpy 2.4.6) the
# HJ sweep pass takes 159 us at 50 rows and 252 us at 4096 (about 23 ns per
# row), the round-trip pass 46 and 85 us (about 10 ns).  The largest site in
# the benchmark and the CLI corpus has 2500 rows, so each runs in one pass;
# the cap bounds the lane arrays one pass holds on larger inputs.
_LANE_CHUNK = 4096

_ERRSTATE = dict(over="raise", divide="raise", invalid="raise", under="ignore")  # numpy, in a lane pass


def _lanes(fn, X: np.ndarray):
    """``fn`` on the rows of ``X`` in lane passes of up to ``_LANE_CHUNK`` rows.

    Returns the passes' outputs concatenated, or ``None`` when any pass
    raised anything at all, including an overflow or invalid operation in
    any lane.
    """
    try:
        with np.errstate(**_ERRSTATE):
            parts = [fn(X[i:i + _LANE_CHUNK]) for i in range(0, len(X), _LANE_CHUNK)]
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
    except Exception:  # noqa: BLE001 - the row-by-row path is the reference
        return None


def _lanes_of(X) -> list:
    """The columns of an (m, d) float array as d lane values."""
    return [_Lanes(col) for col in X.T]


def _lane_array(x, m: int) -> np.ndarray:
    """The output of a lane pass as a C-contiguous float array, lanes first: a number or lanes
    (a plain number is broadcast), or nested sequences of them."""
    def lanes_last(x):
        if isinstance(x, (list, tuple, np.ndarray)):
            return [lanes_last(v) for v in x]
        x = _strip(x)
        return x.v if isinstance(x, _Lanes) else np.full(m, float(x))
    a = np.array(lanes_last(x))
    return np.ascontiguousarray(a.transpose((a.ndim - 1, *range(a.ndim - 1))))


def _rows(fn, X: np.ndarray, ok=None) -> np.ndarray:
    """``fn`` on every row of the (m, d) float array ``X``, one float result row per row.

    ``fn`` takes a row of floats (a row of ``X``) or of lanes (a list of d
    lane values) and returns a number or nested sequences of numbers.
    ``ok``, when given, takes a result row, or the stacked result rows and
    then answers per row.  All rows run as lanes, unless there is only one or an
    entry of ``X`` is not finite; when a lane pass raises, a result is not finite
    or a row fails ``ok``, the rows run one by one in row order, which gives the
    scalar values or raises the first scalar error, and stop after the first row
    that fails ``ok``: the result then ends with that row.  A numpy floating-point
    error in a row raises :class:`~kcontact.errors.ShapeError` naming its values
    (see :func:`_scalar_rows`), but a replayed :func:`_program` runs Python floats.
    """
    if len(X) > 1 and np.isfinite(X).all():
        out = _lane_rows(fn, X, ok)
        if out is not None:
            return out
    return np.array(_scalar_rows(lambda x: np.asarray(fn(x), dtype=float), X,
                                 lambda i: tuple(X[i].tolist()), ok))


def _scalar_rows(fn, X: np.ndarray, where, ok=None) -> list:
    """``fn`` on the rows of ``X`` in row order under the lane pass's error state, up to and with
    the first result failing ``ok``; a floating-point error in row i raises ShapeError at ``where(i)``."""
    out = []
    with np.errstate(**_ERRSTATE):
        for i, x in enumerate(X):
            try:
                out.append(fn(x))
                if ok is not None and not ok(out[-1]):
                    break
            except FloatingPointError as exc:
                raise ShapeError(f"a value is not finite at {where(i)}: {exc}") from exc
    return out


def _lane_rows(fn, X: np.ndarray, ok=None):
    """The lane pass of :func:`_rows`: its result, or ``None`` when a pass raised, a result is
    not finite or a row fails ``ok``."""
    out = _lanes(lambda C: _lane_array(fn(_lanes_of(C)), len(C)), X)
    return out if out is not None and np.isfinite(out).all() and (ok is None or np.all(ok(out))) else None


def _object_array(x) -> np.ndarray:
    """A caller's block of nested lists of lanes and numbers as an object array, built element by
    element (``np.asarray`` would call ``_Lanes.__array__``).  Ragged nesting raises ``ValueError``
    and a non-finite lane or number ``_Unbatchable``, so the scalar pass refuses it."""
    if any(isinstance(v, (list, tuple)) for v in x):
        return np.stack([_object_array(v) for v in x])
    if not all(np.isfinite(v.v).all() if isinstance(v, _Lanes) else
               not isinstance(v, _REAL) or math.isfinite(v) for v in x):
        raise _Unbatchable("a non-finite entry in a lane pass")
    return np.fromiter(x, dtype=object, count=len(x))


def _mag(x):
    """|x| of the value under any duals: a float, or lane by lane."""
    return abs(_cmp_value(x))


def _vmax(*xs):
    """The maximum of floats, lane-wise when any of them is lanes; NaN when any is NaN."""
    out = functools.reduce(np.maximum, [x.v if isinstance(x, _Lanes) else x for x in xs])
    return _Lanes(out) if isinstance(out, np.ndarray) else float(out)


# -- record once, replay many: one call as a straight-line program ------------

# The source text of the recorded operations that cannot raise on floats (a division follows a
# test of its divisor); a replay drops them when dead.  Every other operation is a bound helper.
_TEXT = {operator.add: "{} + {}", operator.sub: "{} - {}", operator.mul: "{} * {}",
         operator.truediv: "{} / {}", operator.neg: "-{}", abs: "abs({})",
         operator.lt: "{} < {}", operator.le: "{} <= {}", operator.gt: "{} > {}",
         operator.ge: "{} >= {}", operator.eq: "{} == {}", operator.ne: "{} != {}"}
# The ufunc by which a lane replay writes an operation of the first six into a buffer.
_UFUNCS = dict(zip(_TEXT, (np.add, np.subtract, np.multiply, np.divide, np.negative, np.absolute)))
_UFUNC_OPS = {u: fn for fn, u in _UFUNCS.items()} | {np.isfinite: math.isfinite}
# The float and the lane form of each recorded operation.
_FORMS = {**{op: (op, op) for op in _TEXT}, math.isfinite: (math.isfinite, np.isfinite)}
# x * 1, 1 * x, x / 1, x + -0, -0 + x and x - 0 are x, bit for bit: the recording reads x.
# Keys are (fn, reflected, constant.hex()); the hex tells -0.0 from 0.0.
_UNITS = {(fn, reflected, c.hex()) for fn, reflected, c in (
    (operator.mul, False, 1.0), (operator.mul, True, 1.0), (operator.truediv, False, 1.0),
    (operator.add, False, -0.0), (operator.add, True, -0.0), (operator.sub, False, 0.0))}
_COMPILED: dict = {}  # tape structure -> what _compile gives, oldest first
_COMPILED_BOUND = 64
_ANOTHER = "a replayed test has another answer"


def _forms(fn):  # float() fails where a lane would leave the real numbers
    return _FORMS.get(fn) or (lambda *xs: float(fn(*xs)), lambda x, *y: _Lanes(x)._each(
        fn, *(_Lanes(v) if isinstance(v, np.ndarray) else v for v in y)).v)


def _rpow(x, base):  # ``base ** x``: one function, so that recordings of it share a program
    return base ** x


def _compile(n, steps, outs):
    """The floats form of ``replay(x, c)``, the constant registers ``c`` holds and the lanes form at
    a width m (0: recorded values, no buffers): registers 0..n-1 from the row ``x``, the constants
    from ``c``, each step ``(fn, i, args, answer)`` as one line, then the ``outs`` registers.  The
    source holds register names, ``_TEXT`` and the ``_UFUNCS`` of the lanes form; any other ``fn``
    is a helper bound by name."""
    read = {a for s in steps for a in s[2]}
    consts = sorted((read | set(outs)) - {s[1] for s in steps} - set(range(n)))
    text = dict(_TEXT)  # and each other operation as a call of a helper bound as f<j>
    for fn, _, args, _ in steps:
        text.setdefault(fn, f"f{len(text) - len(_TEXT)}({', '.join(['{}'] * len(args))})")
    head = ["def replay(x, c):"] + [f"    {''.join(f'r{r}, ' for r in rs)}= {arg}"
                                    for rs, arg in ((range(n), "x"), (consts, "c")) if rs]
    last = {a: j for j, s in enumerate(steps) for a in s[2]}
    floats, lanes, slot, free, nbuf = [], [], {}, [], 0
    for j, (fn, i, args, answer) in enumerate(steps):
        expr = text[fn].format(*(f"r{a}" for a in args))
        line = (f"    r{i} = {expr}" if answer is None else
                f"    if _agree({expr}) is not {bool(answer)}: raise _Unbatchable('{_ANOTHER}')")
        floats.append(line)
        free += [slot.pop(a) for a in dict.fromkeys(args) if a in slot and last[a] == j]
        if fn in _UFUNCS and i not in outs:
            slot[i], nbuf = (free.pop(), nbuf) if free else (nbuf, nbuf + 1)
            line = f"    r{i} = {_UFUNCS[fn].__name__}({''.join(f'r{a}, ' for a in args)}B[{slot[i]}])"
        lanes.append(line)
    ret = [f"    return [{', '.join(f'r{o}' for o in outs)}]"]
    code = compile("\n".join(head + floats + ret + head + lanes + ret), "<recorded program>", "exec")
    scopes = [{"__builtins__": {}, "abs": abs, "_agree": agree, "_Unbatchable": _Unbatchable,
               **{u.__name__: u for u in _UFUNCS.values()}} for agree in (bool, _Lanes._agree)]
    for k, scope in enumerate(scopes):
        scope.update((text[fn].split("(")[0], _forms(fn)[k]) for fn in text if fn not in _TEXT)
    on_floats, on_lanes = (c for c in code.co_consts if isinstance(c, types.CodeType))
    return types.FunctionType(on_floats, scopes[0]), consts, lambda m: types.FunctionType(
        on_lanes, {**scopes[1], "B": [np.empty(m) if m else None for _ in range(nbuf)]})


class _Tape(list):
    """The log of one recording (see :class:`_Reg`), with the ``memo`` of :meth:`_Reg.log`."""

    def __init__(self):
        self.memo = {}


def _logged(fn, reflected=False, test=False):
    return lambda self, *other: self.log(fn, *other, reflected=reflected, test=test)


class _Reg:
    """What a lane holds while :func:`_program` records: register ``r`` of ``tape`` and its
    float ``x``.  ``tape[i] = (fn, args, answer, x)`` makes register i by ``fn`` from the
    registers ``args`` (an input or a constant when ``fn`` is None), or tests them when it
    has an ``answer``; a None entry marks a recording that failed."""

    __slots__ = ("tape", "r", "x")

    def __init__(self, tape, fn, args, x, answer=None):
        self.tape, self.r, self.x = tape, len(tape), x
        tape.append((fn, args, answer, x))

    def fail(self, why):
        self.tape.append(None)  # stands even where the caller catches the error
        raise _Unbatchable(why)

    def log(self, fn, *other, reflected=False, test=False):
        """``fn`` on this register and ``other`` registers or numbers (``other`` first when
        ``reflected``): this one for an identity of ``_UNITS``, a test's answer as a lane mask, or
        the register the tape's ``memo`` holds under the bits of a constant or an operation's
        canonical form (the module notes), made on first use."""
        if len(other) == 1 and isinstance(other[0], _REAL) and (
                fn, reflected, float(other[0]).hex()) in _UNITS:
            return self
        tape, memo, args = self.tape, self.tape.memo, []
        for x in other + (self,) if reflected else (self,) + other:
            if isinstance(x, _REAL):
                x = memo.get(k := struct.pack("<d", x)) or memo.setdefault(k, _Reg(tape, None, (), float(x)))
            elif not isinstance(x, _Reg) or x.tape is not tape:
                self.fail("a value the recording did not make")
            args.append(x.r)
        if fn is operator.add or fn is operator.mul:
            args.sort()
            for a, b in (args, args[::-1]) if fn is operator.add else ():
                if tape[b][0] is operator.neg:
                    fn, args = operator.sub, [a, tape[b][1][0]]
                    break
        if (fn, args := tuple(args)) not in memo:
            try:
                val = _forms(fn)[0](*[tape[a][3] for a in args])
            except Exception as exc:  # noqa: BLE001 - the site then runs without a program
                self.fail(f"a recorded operation failed: {exc!r}")
            memo[fn, args] = _Reg(tape, fn, args, val, val if test else None)
        out = memo[fn, args]
        return np.array([out.x]) if test else out

    def __array_ufunc__(self, ufunc, method, *xs, **kwargs):  # a lane replay's ufuncs, np.isfinite
        fn = _UFUNC_OPS.get(ufunc)
        if fn is None or method != "__call__" or kwargs:
            self.fail("numpy used on a recorded value")
        i = 0 if xs[0] is self else 1
        return self.log(fn, *xs[:i], *xs[i + 1:], reflected=i == 1, test=fn is math.isfinite)

    __add__, __radd__ = _logged(operator.add), _logged(operator.add, True)
    __sub__, __rsub__ = _logged(operator.sub), _logged(operator.sub, True)
    __mul__, __rmul__ = _logged(operator.mul), _logged(operator.mul, True)
    __truediv__, __rtruediv__ = _logged(operator.truediv), _logged(operator.truediv, True)
    __neg__, __abs__ = _logged(operator.neg), _logged(abs)
    __lt__, __le__, __gt__, __ge__, __eq__, __ne__ = (_logged(op, test=True) for op in list(_TEXT)[6:])


def _program(fn, x0):
    """``fn`` (a row to a flat sequence of numbers, as for :func:`_rows`) recorded at the
    float row ``x0``: a replay that takes a row of floats or of lanes, or ``None`` when the
    recording failed or met a value it did not make.  See the module notes."""
    tape = _Tape()
    xs = [_Lanes(_Reg(tape, None, (), float(v))) for v in x0]
    try:
        outs = [v.v if isinstance(v, _Lanes) else _Reg(tape, None, (), float(v)) for v in map(_strip, fn(xs))]
    except Exception:  # noqa: BLE001 - the site then runs without a program
        return None
    if None in tape or not all(isinstance(o, _Reg) and o.tape is tape for o in outs):
        return None
    # backwards, keeping the outputs, the tests, what can raise and what they read
    n, outs, steps = len(xs), [o.r for o in outs], []
    live = set(outs)
    for i in range(len(tape) - 1, n - 1, -1):
        op, args, answer, _ = tape[i]
        if op is not None and (i in live or answer is not None or op not in _TEXT):
            live.update(args)
            steps.insert(0, (op, i, args, answer))
    key = (n, len(tape), tuple(steps), tuple(outs))
    if key not in _COMPILED:
        if len(_COMPILED) >= _COMPILED_BOUND:
            del _COMPILED[next(iter(_COMPILED))]
        _COMPILED[key] = _compile(n, steps, outs)
    on_floats, cregs, lanes = _COMPILED[key]
    consts, forms = [tape[j][3] for j in cregs], {}

    def replay(x):
        if isinstance(x[0], _Lanes):  # the lanes form of their width, with its buffers and constants
            x = [v.v for v in x]
            if (m := 0 if isinstance(x[0], _Reg) else len(x[0])) not in forms:  # 0: recorded values
                forms[m] = lanes(m), [np.full(m, c) for c in consts] if m else consts
            return [v if type(v) is float else _Lanes(v) for v in forms[m][0](x, forms[m][1])]
        try:
            return np.array(on_floats([float(v) for v in x], consts))
        except Exception:  # noqa: BLE001 - any failure: the recorded function decides
            return fn(x)

    return replay


# -- math helpers that dispatch on Dual ------------------------------------

def _helper(fn, slope):
    """The math helper of ``fn``: plain on numbers, lane by lane on lanes, and
    chained through a dual with derivative ``slope(x, fn(x))`` at its value x."""

    def helper(x):
        if isinstance(x, Dual):
            fa = helper(x.a)
            return x._chain(fa, slope(x.a, fa))
        if isinstance(x, _Lanes):
            return x._each(fn)
        return fn(x)

    helper.__name__ = helper.__qualname__ = fn.__name__
    return helper


exp = _helper(math.exp, lambda x, e: e)
log = _helper(math.log, lambda x, _: 1.0 / x)
sqrt = _helper(math.sqrt, lambda x, r: 0.5 / r)
sin = _helper(math.sin, lambda x, _: cos(x))
cos = _helper(math.cos, lambda x, _: -sin(x))
tanh = _helper(math.tanh, lambda x, t: 1.0 - t * t)


def fabs(x):
    return abs(x)


def sign(x):
    v = _cmp_value(x) if isinstance(x, (Dual, _Lanes)) else x
    return 1.0 if v > 0.0 else (-1.0 if v < 0.0 else 0.0)


# -- differentiation drivers ------------------------------------------------

def _seed(xs, lev):
    m = len(xs)
    return [Dual(xs[j], tuple(1.0 if i == j else 0.0 for i in range(m)), lev) for j in range(m)]


def _parts(out, m, lev):
    if isinstance(out, Dual) and out.lev == lev:
        return out.a, list(_entries(out.b))
    return out, [0.0] * m


def derive1(f, xs):
    """Value and gradient of scalar ``f`` at ``xs`` (a sequence of numbers).

    Entries of ``xs`` may themselves be duals of an enclosing pass, in
    which case the returned value/gradient entries are duals too.
    """
    lev = next(_LEVELS)
    out = f(_seed(xs, lev))
    return _parts(out, len(xs), lev)


def jacobian(f, xs):
    """Values and Jacobian rows of vector-valued ``f`` at ``xs``.

    Returns ``(vals, rows)`` with ``rows[i][j] = d f_i / d x_j``.
    """
    lev = next(_LEVELS)
    outs = f(_seed(xs, lev))
    m = len(xs)
    vals, rows = [], []
    for o in outs:
        v, r = _parts(o, m, lev)
        vals.append(v)
        rows.append(r)
    return vals, rows


def derive2(f, xs):
    """Value, gradient, and Hessian of scalar ``f`` at ``xs`` via one nested pass."""
    m = len(xs)

    def grad_then_value(ys):
        val, g = derive1(f, ys)
        return g + [val]

    vals, rows = jacobian(grad_then_value, xs)
    return vals[m], vals[:m], rows[:m]
