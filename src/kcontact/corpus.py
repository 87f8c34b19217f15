"""Built-in example systems: Hamiltonians, candidate sections (valid and
deliberately broken), closed-form solutions, and expected verdicts.

Each closed-form solution is a dual-capable map t -> (q, p, z), the logarithmic one a
base map composed with its section; one jacobian pass produces the exact direction
derivatives of every one of them, so no derivative formula is transcribed by hand.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import dual as dm
from .errors import ConfigError, ContractError, DomainError, ShapeError
from .fields import ScalarField
from .geometry import ChartSpec, DarbouxPoint
from .grids import BaseMap, GridSpec, SolutionMap, _sample, grid_derivative, grid_second_derivative
from .hj import CompleteSolutionFamily, GaugeMatrix
from .sections import SectionZDep, from_potentials

__all__ = [
    "ExampleSystem",
    "SectionEntry",
    "SolutionEntry",
    "ExpectedCase",
    "EXAMPLE_NAMES",
    "load",
    "analytic",
    "reference_base",
    "solution_modes",
    "closed_solution_map",
    "closed_base_map",
    "telegrapher_params_from_line",
    "telegrapher_quadratic_roots",
    "thermo_chart",
    "thermo_hamiltonian",
    "thermo_map",
    "ThermoFields",
]

EXAMPLE_NAMES = (
    "telegrapher",
    "telegrapher-quadratic-z",
    "hunter-saxton",
    "first-order-dissipative",
    "membrane",
    "thermo-eit",
)


@dataclass(frozen=True)
class SectionEntry:
    key: str
    kind: str  # "zind" | "zdep", the label of `kcontact list`; the built section decides its base
    build: callable  # params -> SectionZInd | SectionZDep
    defaults: dict
    modes: tuple  # modes whose HJ check the section passes with default params
    gauge: callable = None  # params -> GaugeMatrix (z-dependent sections only)
    box: tuple = None  # default sampling box for the HJ check
    sim: dict = None  # default simulate plan: origin/spacing/counts/start/reference
    note: str = ""


@dataclass(frozen=True)
class SolutionEntry:
    key: str
    build: callable  # params -> closed-form map t -> (q, p, z) of the grid variables
    defaults: dict
    modes: tuple  # modes whose map residual the solution passes, or params -> those modes
    constraint: callable  # params -> None, raises ContractError naming the equation
    default_grid: GridSpec
    tol: float = 1e-10
    note: str = ""


@dataclass(frozen=True)
class ExpectedCase:
    """One corpus-shipped check with its expected outcome.

    ``verdict`` is PASS, FAIL, or error:<exit code> for runs that must
    abort (3 = contract violation, 5 = failed direction-order check).
    ``simulate`` cases name either a section (pipeline run) or a solution
    (closed-form sampling run).
    """

    command: str  # "check-hj" | "simulate"
    section: str
    mode: str
    verdict: str
    solution: str = None
    note: str = ""


@dataclass(frozen=True)
class ExampleSystem:
    name: str
    chart: ChartSpec
    make_h: callable  # params -> ScalarField
    defaults: dict
    sections: dict = field(default_factory=dict)
    solutions: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)  # key -> params -> CompleteSolutionFamily
    pde_residual: callable = None  # (fields dict, grid, params) -> residual grid
    expected: tuple = ()
    note: str = ""

    def resolve(self, overrides=None) -> dict:
        return _params(self.defaults, overrides, f"example {self.name}")

    def hamiltonian(self, overrides=None) -> ScalarField:
        return self.make_h(self.resolve(overrides))


def _params(defaults, overrides, what) -> dict:
    """``defaults`` updated with ``overrides``, for every example, section, family and solution.
    An unknown name, then a value that is not a number where the default is (text only for a text
    default such as ``mode``, None only for a None default), then a number that is not finite,
    raises :class:`ConfigError` naming ``what`` or the parameter."""
    overrides = dict(overrides or {})
    for name in overrides:
        if name not in defaults:
            raise ConfigError(f"unknown parameter {name!r} for {what}; known: {sorted(defaults)}")
    for name, val in overrides.items():
        if isinstance(defaults[name], str) or val is None and defaults[name] is None:
            continue
        if not isinstance(val, numbers.Real):
            raise ConfigError(f"parameter {name!r} expects a number, got {val!r}")
        if not math.isfinite(val):
            raise ConfigError(f"parameter {name!r} must be a finite number, got {val!r}")
    return {**defaults, **overrides}


def _nonzero(P, name, what):
    """Refuse a zero parameter ``name`` that ``what`` divides by."""
    if P[name] == 0.0:
        raise ContractError(f"parameter {name!r} must be nonzero: the {what} divides by it")


# --------------------------------------------------------------------------
# generic closed-form plumbing
# --------------------------------------------------------------------------

def closed_solution_map(chart: ChartSpec, grid: GridSpec, f) -> SolutionMap:
    """Sample a dual-capable closed map with its exact derivatives as the node table.

    ``f(t)`` returns (q-list, p-rows, z-list) for ``t`` a list of the k
    grid variables (possibly dual numbers or lane values).  The values and
    derivatives are those of :func:`closed_base_map` on the flat point.
    """
    if grid.k != chart.k:
        raise ShapeError(f"grid has {grid.k} directions, chart has k={chart.k}")

    def flat(t):
        pt = DarbouxPoint(*f(list(t)))
        chart.check_point(pt)
        return [*pt.q, *pt.p.reshape(-1), *pt.z]

    base = closed_base_map(grid, flat)
    psi = SolutionMap(chart, grid, *map(np.ascontiguousarray, chart.split(base.values)),
                      lambda t: DarbouxPoint(*f(list(t))),
                      lambda t: chart.split(np.array(base.closed_derivative(t), dtype=float)))
    DarbouxPoint(psi.q, psi.p, psi.z)  # refuses a value that is not finite
    psi._table = chart.split(base._table)
    return psi


def closed_base_map(grid: GridSpec, f) -> BaseMap:
    """Sample a dual-capable closed base map, its values and exact derivatives (the node table)
    from one jacobian pass over all nodes, on lanes where ``f`` takes them (see
    :func:`kcontact.grids._sample`).  Its ``closed_form`` and ``closed_derivative`` take lane
    values too."""

    def func(t):
        return list(f(list(t)))

    vals, J = _sample(grid, lambda t: dm.jacobian(func, t.tolist()), [None, None])
    base = BaseMap(grid, vals, closed_form=func,
                   closed_derivative=lambda t: list(zip(*dm.jacobian(func, list(t))[1])))
    base._table = np.swapaxes(J, -1, -2)  # (k, d) on every node
    return base


def _mode_pair(keys, build, defaults, constraint=lambda P: None, **entry):
    """The standard and evolution entries, named by ``keys`` in that order, of one closed form
    with a ``mode`` parameter: each defaults to its own mode, last, and passes that mode only."""

    def checked(P):
        constraint(P)
        if P["mode"] not in ("standard", "evolution"):
            raise ContractError("mode parameter must be standard or evolution")

    return {key: SolutionEntry(key, build, {**defaults, "mode": mode}, modes=(mode,),
                               constraint=checked, **entry)
            for key, mode in zip(keys, ("standard", "evolution"))}


_INVERT_R_MAX = 1.0  # first upper end of the bracket of a monotone inversion
_INVERT_MAX_EXPAND = 200  # how often that end may double before the inversion gives up
_INVERT_TOL = 1e-14  # relative bracket width at which its bisection stops


def _monotone_invert(g, w, check=lambda r: None):
    """Solve g(r) = w for r > 0, g strictly monotone; dual-capable in ``w``.

    First derivatives propagate through the inverse-function rule once ``check``
    has passed the float root; nested duals are not supported here.
    """
    if isinstance(w, dm.Dual):
        if isinstance(w.a, dm.Dual):
            raise ContractError("monotone inversion supports one dual level")
        r0 = _monotone_invert(g, w.a)
        check(r0)
        _, slope = dm.derive1(lambda rs: g(rs[0]), [r0])
        return dm.Dual(r0, tuple(x / slope[0] for x in w.b), w.lev)
    w = float(w)
    lo, hi = 1e-300, _INVERT_R_MAX
    for _ in range(_INVERT_MAX_EXPAND):
        glo, ghi = g(lo), g(hi)
        if (glo - w) * (ghi - w) <= 0.0:
            break
        hi *= 2.0
    else:
        raise ContractError("monotone inversion could not bracket the target value")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if (g(lo) - w) * (gm - w) <= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < _INVERT_TOL * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# linear z-level sections and complete families (k = 2, n = 1)
# --------------------------------------------------------------------------

CHART_12 = ChartSpec(n=1, k=2)

# Slope a of the bundled complete families when the parameters do not set it.
_FAMILY_SLOPE = 1.0


def _linear_p(a, lam):
    """Momentum rows p^t = a z^t - lam u + c_t and p^x = -a z^x + c_x.

    ``lam`` None leaves the u term out rather than adding ``- 0.0 * u``,
    which could turn a zero's sign.
    """

    def rows(u, z, ct, cx):
        pt = a * z[0] + ct if lam is None else a * z[0] - lam * u + ct
        return [[pt], [-a * z[1] + cx]]

    return rows


def _linear_zdep_section(name, offsets, damping=None):
    """Builder of the z-level section of :func:`_linear_p`; ``offsets`` name c_t, c_x."""

    def build(P):
        rows = _linear_p(P["a"], P[damping] if damping else None)
        ct, cx = P[offsets[0]], P[offsets[1]]
        return SectionZDep(CHART_12, lambda q, z: rows(q[0], z, ct, cx), name=name)

    return build


def _linear_family(name, damping=None):
    """Builder of the complete family with parameters c_t, c_x of :func:`_linear_p`."""

    def build(P):
        a = P.get("a", _FAMILY_SLOPE)
        lam = P[damping] if damping else None
        rows = _linear_p(a, lam)

        def phi(q, par, z):
            u = q[0]
            return DarbouxPoint([u], rows(u, z, par[0], par[1]), list(z))

        def phi_inverse(pt):
            u = pt.q[0]
            ct = pt.p[0, 0] - a * pt.z[0]
            if lam is not None:
                ct = ct + lam * u
            return [u, ct, pt.p[1, 0] + a * pt.z[1], pt.z[0], pt.z[1]]

        return CompleteSolutionFamily(CHART_12, phi, ((-1.0, 1.0), (-1.0, 1.0)),
                                      phi_inverse=phi_inverse, name=name)

    return build


# --------------------------------------------------------------------------
# telegrapher
# --------------------------------------------------------------------------


def telegrapher_params_from_line(R: float, L: float, G: float, C_cap: float):
    """Line constants per unit length -> (kappa, lambda, epsilon)."""
    if L <= 0.0 or C_cap <= 0.0:
        raise ContractError("series inductance and shunt capacitance must be positive")
    if R < 0.0 or G < 0.0:
        raise ContractError("series resistance and shunt conductance must be non-negative")
    kappa = 1.0 / (L * C_cap)
    lam = R / L + G / C_cap
    eps = (R * G) / (L * C_cap)
    return kappa, lam, eps


def telegrapher_quadratic_roots(kappa: float, lam: float, eps: float, c: float):
    """Both roots of (c^2 - 1/kappa) a^2 + lambda c a + eps = 0."""
    if kappa == 0.0:
        raise ContractError("the slope quadratic (c^2 - 1/kappa) a^2 + lambda c a + epsilon = 0 "
                            "needs kappa != 0")
    A = c * c - 1.0 / kappa
    if A == 0.0:
        raise ContractError("the slope quadratic degenerates when c^2 equals 1/kappa")
    disc = (lam * c) ** 2 - 4.0 * A * eps
    if disc < 0.0:
        raise ContractError("the slope quadratic has no real roots for these parameters")
    r = np.sqrt(disc)
    return ((-lam * c + r) / (2.0 * A), (-lam * c - r) / (2.0 * A))


def _h_telegrapher(P, coupling=lambda lam, z: lam * z, name="telegrapher"):
    """The telegrapher Hamiltonian, with the extra-coordinate term ``coupling(lambda, z^t)``."""
    _nonzero(P, "kappa", "telegrapher Hamiltonian")
    kappa, lam, eps = P["kappa"], P["lambda"], P["epsilon"]

    def fn(pt):
        u = pt.q[0]
        pt_, px = pt.p[0, 0], pt.p[1, 0]
        return 0.5 * (pt_ * pt_ - px * px / kappa) + 0.5 * eps * u * u + coupling(lam, pt.z[0])

    return ScalarField(CHART_12, fn, params=dict(P), name=name)


def _tel_resolve_a(P):
    a = P.get("a")
    if a is None:
        a = telegrapher_quadratic_roots(P["kappa"], P["lambda"], P["epsilon"], P["c"])[1]
    return float(a)


def _tel_zind_section(P):
    a, c, C0, C1 = _tel_resolve_a(P), P["c"], P["C0"], P["C1"]

    def W(q):
        u = q[0]
        return [0.5 * c * a * u * u + c * C1 + C0, 0.5 * a * u * u + C1]

    return from_potentials(CHART_12, W, name="telegrapher-zind")


_tel_zdep_section = _linear_zdep_section("telegrapher-zdep", ("mu", "nu"), damping="lambda")


def _tel_exponential(P):
    kappa, c, u0, C0, C1 = P["kappa"], P["c"], P["u0"], P["C0"], P["C1"]
    a = _tel_resolve_a(P)

    def f(t):
        u = u0 * dm.exp(a * (c * t[0] - t[1] / kappa))
        return (
            [u],
            [[c * a * u], [a * u]],
            [0.5 * c * a * u * u + c * C1 + C0, 0.5 * a * u * u + C1],
        )

    return f


def _tel_exp_constraint(P):
    a = _tel_resolve_a(P)  # without a given slope, the slope quadratic refuses kappa = 0 itself
    _nonzero(P, "kappa", "exponential profile")
    kappa, lam, eps, c = P["kappa"], P["lambda"], P["epsilon"], P["c"]
    val = (c * c - 1.0 / kappa) * a * a + lam * c * a + eps
    if abs(val) > 1e-10 * max(1.0, abs(a)):
        raise ContractError(
            f"slope a={a} violates (c^2 - 1/kappa) a^2 + lambda c a + epsilon = 0 "
            f"(residual {val:.3e})"
        )
    if a == 0.0:
        raise ContractError("the exponential profile needs a nonzero slope a")


def _tel_exp_modes(P):
    lam, c, C0, C1 = P["lambda"], P["c"], P["C0"], P["C1"]
    return ("standard", "evolution") if abs(lam * (c * C1 + C0)) <= 1e-12 else ("evolution",)


def _damped_wave(speed2, mass, field_damping=False):
    """Residual u_tt - speed2(P) (u_xx + ...) + lambda u_t + P[mass] u of the damped wave
    equation on the grid of ``u``; with ``field_damping`` lambda is scaled by the field z^t."""

    def residual(fields, grid, P):
        u = fields["u"]
        laplacian = grid_second_derivative(u, grid, 1)
        for axis in range(2, grid.k):
            laplacian = laplacian + grid_second_derivative(u, grid, axis)
        damping = P["lambda"] * fields["zt"] if field_damping else P["lambda"]
        return (grid_second_derivative(u, grid, 0) - speed2(P) * laplacian
                + damping * grid_derivative(u, grid, 0) + P[mass] * u)

    return residual


def _broken_trace_gauge(P):
    return GaugeMatrix(lambda q, z: [[1.0, 0.0], [0.0, 1.0]], label="broken-trace")


TELEGRAPHER = ExampleSystem(
    name="telegrapher",
    chart=CHART_12,
    make_h=_h_telegrapher,
    defaults={"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0},
    sections={
        "classical-zind": SectionEntry(
            "classical-zind", "zind", _tel_zind_section,
            {"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0, "c": 2.0, "a": None, "C0": 0.0, "C1": 0.0},
            modes=("standard", "evolution"),
            box=((0.5, 2.0),),
            sim={"origin": [0.0, 0.0], "spacing": [0.02, 0.02], "counts": [50, 50],
                 "start": [1.0], "reference": "exponential"},
            note="quadratic-slope family; defaults pick the nonzero root and C0 + c*C1 = 0",
        ),
        "classical-zind-wrong-root": SectionEntry(
            "classical-zind-wrong-root", "zind", _tel_zind_section,
            {"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0, "c": 2.0, "a": 2.0 / 3.0, "C0": 0.0, "C1": 0.0},
            modes=(),
            box=((0.5, 2.0),),
            note="sign-flipped slope: not a root of the slope quadratic",
        ),
        "zdep-family": SectionEntry(
            "zdep-family", "zdep", _tel_zdep_section,
            {"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0, "a": 1.0, "mu": 0.0, "nu": 0.0},
            modes=("standard", "evolution"),
        ),
        "zdep-family-broken-trace": SectionEntry(
            "zdep-family-broken-trace", "zdep", _tel_zdep_section,
            {"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0, "a": 1.0, "mu": 0.0, "nu": 0.0},
            modes=(),
            gauge=_broken_trace_gauge,
            note="identity gauge matrix: violates both trace constraints",
        ),
    },
    solutions={
        "exponential": SolutionEntry(
            "exponential", _tel_exponential,
            {"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0, "c": 2.0, "a": None,
             "u0": 1.0, "C0": 0.0, "C1": 0.0},
            modes=_tel_exp_modes,
            constraint=_tel_exp_constraint,
            default_grid=GridSpec([0.0, 0.0], [0.02, 0.02], [50, 50]),
        ),
    },
    families={"complete": _linear_family("telegrapher-complete", damping="lambda")},
    pde_residual=_damped_wave(lambda P: P["kappa"], "epsilon"),
    expected=(
        ExpectedCase("check-hj", "classical-zind", "standard", "PASS"),
        ExpectedCase("check-hj", "classical-zind-wrong-root", "standard", "FAIL"),
        ExpectedCase("check-hj", "classical-zind", "evolution", "PASS"),
        ExpectedCase("check-hj", "zdep-family", "standard", "PASS"),
        ExpectedCase("check-hj", "zdep-family", "evolution", "PASS"),
        ExpectedCase("check-hj", "zdep-family-broken-trace", "standard", "error:3"),
        ExpectedCase("check-hj", "zdep-family-broken-trace", "evolution", "error:3"),
        ExpectedCase("simulate", "classical-zind", "standard", "PASS"),
    ),
    note="damped second-order wave model on one space dimension (k=2)",
)


# --------------------------------------------------------------------------
# telegrapher with quadratic extra-coordinate coupling
# --------------------------------------------------------------------------

def _h_telegrapher_qz(P):
    return _h_telegrapher(P, lambda lam, z: 0.5 * lam * z * z, "telegrapher-quadratic-z")


def _tel_qz_solution(P):
    kappa, lam, eps, c, a, u0 = P["kappa"], P["lambda"], P["epsilon"], P["c"], P["a"], P["u0"]
    mode = P["mode"]
    drift = a * a * (c * c - 1.0 / kappa)
    Z = -(drift + eps) / (lam * a * c)  # the constant extra coordinate z^t
    if mode == "standard":
        beta = -kappa * (drift - eps) / (4.0 * a)
    else:
        beta = -kappa * drift / (2.0 * a)

    def f(t):
        u = u0 * dm.exp(a * (c * t[0] - t[1] / kappa))
        zx = beta * u * u
        if mode == "standard":
            zx = zx - 0.5 * lam * Z * Z * t[1]
        return ([u], [[a * c * u], [a * u]], [Z + 0.0 * u, zx])

    return f


def _tel_qz_constraint(P):
    _nonzero(P, "kappa", "effective-damping profile")
    if P["lambda"] == 0.0 or P["a"] == 0.0 or P["c"] == 0.0:
        raise ContractError(
            "the effective-damping exponential needs lambda, a, and c nonzero "
            "(the constant extra coordinate solves lambda*Z*a*c = -(a^2 (c^2 - 1/kappa) + epsilon))"
        )


TELEGRAPHER_QZ = ExampleSystem(
    name="telegrapher-quadratic-z",
    chart=CHART_12,
    make_h=_h_telegrapher_qz,
    defaults={"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0},
    solutions=_mode_pair(
        ("exponential-effective-damping", "exponential-effective-damping-evolution"), _tel_qz_solution,
        {"kappa": 1.0, "lambda": 1.0, "epsilon": 0.0, "c": 2.0, "a": -2.0 / 3.0, "u0": 1.0},
        constraint=_tel_qz_constraint,
        default_grid=GridSpec([0.0, 0.0], [0.01, 0.01], [21, 21]),
    ),
    pde_residual=_damped_wave(lambda P: P["kappa"], "epsilon", field_damping=True),
    note="quadratic extra-coordinate coupling: damping coefficient becomes a field",
)


# --------------------------------------------------------------------------
# dissipative Hunter-Saxton
# --------------------------------------------------------------------------

def _h_hs(P):
    mu = P["mu"]

    def fn(pt):
        u = pt.q[0]
        pt_, px = pt.p[0, 0], pt.p[1, 0]
        return -2.0 * pt_ * px + 2.0 * u * pt_ * pt_ + mu * pt_ + 2.0 * mu * pt.z[0]

    return ScalarField(CHART_12, fn, params=dict(P), name="hunter-saxton")


def _hs_zind_section(P):
    mu, c, C1, K = P["mu"], P["c"], P["C1"], P["K"]
    if mu == 0.0:
        raise ContractError("the explicit family needs mu != 0")

    def W(q):
        u = q[0]
        return [mu * (u + c) + K / mu,
                mu * u * u + 0.5 * (2.0 * c + 1.0) * mu * u + C1]

    return from_potentials(CHART_12, W, name="hs-zind")


def _hs_log_potentials(mu, c, C1, delta, W_extra):
    """Potentials of the square-root slope family (unit strength), plus an
    optional non-integrable admixture scaled by W_extra."""

    def W(q):
        u = q[0]
        w = delta * (u + c)
        r = dm.sqrt(w)
        Wt = mu * (u + c) + 2.0 * delta * r + delta / mu
        Wx = (mu * u * u + 0.5 * (2.0 * c + 1.0) * mu * u
              + (4.0 / 3.0) * w * r - 2.0 * c * delta * r + C1)
        if W_extra != 0.0:
            Wx = Wx + mu * W_extra * 2.0 * delta * (
                0.5 * w / mu - r / (mu * mu) + dm.log(1.0 + mu * r) / mu ** 3
            )
        return [Wt, Wx]

    return W


def _hs_log_section(P, W_extra=0.0, name="hs-log-zind"):
    mu, c, C1, delta = P["mu"], P["c"], P["C1"], P["delta"]
    if mu <= 0.0:
        raise ContractError("the square-root slope family needs mu > 0")

    def domain(q):
        return delta * (q[0] + c) > 1e-12

    return from_potentials(CHART_12, _hs_log_potentials(mu, c, C1, delta, W_extra),
                           domain=domain, name=name)


def _hs_noncommuting_section(P):
    if P["mu"] <= 0.0 or P["W"] == 0.0:
        raise ContractError("the non-commuting admixture needs mu > 0 and W != 0")
    return _hs_log_section(P, P["W"], "hs-noncommuting")


def _hs_quadratic_section(P):
    mu = P["mu"]

    def gamma_p(q, z):
        return [[0.0 * z[0]], [0.5 * mu - z[0]]]

    return SectionZDep(CHART_12, gamma_p, name="hs-zdep-quadratic")


def _hs_quadratic_gauge(P):
    mu = P["mu"]

    def fn(q, z):
        return [[1.0, -2.0 * z[0] * (0.5 * mu - z[0])], [0.0, -1.0]]

    return GaugeMatrix(fn, label="hs-quadratic-commuting")


def _hs_linear(P):
    mu, c, C1, K, u0 = P["mu"], P["c"], P["C1"], P["K"], P["u0"]

    def f(t):
        u = u0 - 2.0 * mu * (t[1] + c * t[0])
        return (
            [u],
            [[mu + 0.0 * u], [mu * (2.0 * u + c) + 0.5 * mu]],
            [mu * (u + c) + K / mu, mu * u * u + 0.5 * (2.0 * c + 1.0) * mu * u + C1],
        )

    return f


def _hs_linear_constraint(P):
    if P["mu"] == 0.0:
        raise ContractError("the travelling linear profile needs mu != 0")


def _hs_linear_modes(P):
    return ("standard", "evolution") if P["K"] == 0.0 else ("evolution",)


def _hs_quadratic(P):
    mu, c0, c1, c2 = P["mu"], P["c0"], P["c1"], P["c2"]

    def f(t):
        tt, x = t[0], t[1]
        u = (tt + c1) ** 2 + c0
        return ([u], [[0.0 * u], [0.5 * mu - tt - c1]], [tt + c1, -x + c2])

    return f


def _hs_logarithmic(P):
    mu, c, C1, C, delta = P["mu"], P["c"], P["C1"], P["C"], P["delta"]
    if mu <= 0.0:
        raise ContractError("the logarithmic branch needs mu > 0")

    def G(r):
        return delta * (-0.5 * r * r / mu + r / (mu * mu) - dm.log(1.0 + mu * r) / mu ** 3)

    section = _hs_log_section({"mu": mu, "c": c, "C1": C1, "delta": delta})

    def base(r):  # the base point of root r, refused outside the section domain
        q = [delta * r * r - c]
        if not section.in_domain(q):
            raise DomainError(f"base point outside domain of section {section.name}")
        return q

    def f(t):  # the domain test sees the float root before a slope that may be 0 is divided by
        q = base(_monotone_invert(G, t[1] + c * t[0] + C, base))
        return q, section.p_at(q), section.z_at(q)

    return f


def _hs_log_constraint(P):
    if P["mu"] <= 0.0:
        raise ContractError("the logarithmic branch needs mu > 0")
    if P["delta"] not in (1.0, -1.0):
        raise ContractError("branch selector delta must be +1 or -1")


def _hs_pde(fields, grid, P):
    u = fields["u"]
    u_t = grid_derivative(u, grid, 0)
    u_x = grid_derivative(u, grid, 1)
    u_tx = grid_derivative(u_t, grid, 1)
    u_xx = grid_second_derivative(u, grid, 1)
    return u_tx + u * u_xx + 0.5 * u_x * u_x + P["mu"] * u_x


HUNTER_SAXTON = ExampleSystem(
    name="hunter-saxton",
    chart=CHART_12,
    make_h=_h_hs,
    defaults={"mu": 3.0},
    sections={
        "standard-zind": SectionEntry(
            "standard-zind", "zind", _hs_zind_section,
            {"mu": 3.0, "c": 0.5, "C1": 0.0, "K": 0.0},
            modes=("standard", "evolution"),
            sim={"origin": [0.0, 0.0], "spacing": [0.05, 0.05], "counts": [9, 9],
                 "start": [0.0], "reference": "linear"},
        ),
        "evolution-zind-K": SectionEntry(
            "evolution-zind-K", "zind", _hs_zind_section,
            {"mu": 3.0, "c": 0.5, "C1": 0.0, "K": 2.0},
            modes=("evolution",),
            sim={"origin": [0.0, 0.0], "spacing": [0.05, 0.05], "counts": [9, 9],
                 "start": [0.0], "reference": "linear"},
            note="nonzero energy offset K: passes the evolution check, fails the standard one",
        ),
        "log-zind": SectionEntry(
            "log-zind", "zind", _hs_log_section,
            {"mu": 3.0, "c": 0.5, "C1": 0.0, "delta": 1.0},
            modes=("standard", "evolution"),
            box=((0.2, 1.8),),
        ),
        "noncommuting-zind": SectionEntry(
            "noncommuting-zind", "zind", _hs_noncommuting_section,
            {"mu": 3.0, "c": 0.5, "C1": 0.0, "delta": 1.0, "W": 1.0},
            modes=("evolution",),
            box=((0.8, 1.6),),
            sim={"origin": [0.0, 0.0], "spacing": [0.01, 0.01], "counts": [9, 9],
                 "start": [1.0]},
            note="passes the evolution check but projects onto non-commuting directions",
        ),
        "zdep-family": SectionEntry(
            "zdep-family", "zdep", _linear_zdep_section("hs-zdep", ("rho", "sigma")),
            {"mu": 3.0, "a": 1.0, "rho": 0.0, "sigma": 0.0},
            modes=("standard", "evolution"),
        ),
        "zdep-quadratic": SectionEntry(
            "zdep-quadratic", "zdep", _hs_quadratic_section,
            {"mu": 3.0},
            modes=("evolution",),
            gauge=_hs_quadratic_gauge,
            sim={"origin": [0.0, 0.0], "spacing": [0.05, 0.05], "counts": [9, 9],
                 "start": [0.0, 0.0, 0.0], "reference": "quadratic"},
            note="z-level section whose commuting representative integrates to a quadratic profile",
        ),
    },
    solutions={
        "linear": SolutionEntry(
            "linear", _hs_linear,
            {"mu": 3.0, "c": 0.5, "C1": 0.0, "K": 0.0, "u0": 0.0},
            modes=_hs_linear_modes,
            constraint=_hs_linear_constraint,
            default_grid=GridSpec([0.0, 0.0], [0.05, 0.05], [9, 9]),
            tol=1e-12,
        ),
        "quadratic": SolutionEntry(
            "quadratic", _hs_quadratic,
            {"mu": 3.0, "c0": 0.0, "c1": 0.0, "c2": 0.0},
            modes=("evolution",),
            constraint=lambda P: None,
            default_grid=GridSpec([0.0, 0.0], [0.05, 0.05], [9, 9]),
            tol=1e-12,
        ),
        "logarithmic": SolutionEntry(
            "logarithmic", _hs_logarithmic,
            {"mu": 3.0, "c": 0.5, "C1": 0.0, "C": 1.0, "delta": -1.0},
            modes=("standard", "evolution"),
            constraint=_hs_log_constraint,
            default_grid=GridSpec([0.0, 0.5], [0.02, 0.02], [9, 9]),
            tol=1e-6,
            note="square-root slope branch: base map by monotone inversion, lifted through log-zind",
        ),
    },
    families={"complete": _linear_family("hs-complete")},
    pde_residual=_hs_pde,
    expected=(
        ExpectedCase("check-hj", "standard-zind", "standard", "PASS"),
        ExpectedCase("check-hj", "evolution-zind-K", "evolution", "PASS"),
        ExpectedCase("check-hj", "evolution-zind-K", "standard", "FAIL"),
        ExpectedCase("check-hj", "log-zind", "evolution", "PASS"),
        ExpectedCase("check-hj", "zdep-family", "standard", "PASS"),
        ExpectedCase("check-hj", "zdep-family", "evolution", "PASS"),
        ExpectedCase("check-hj", "zdep-quadratic", "evolution", "PASS"),
        ExpectedCase("check-hj", "zdep-quadratic", "standard", "error:3"),
        ExpectedCase("check-hj", "noncommuting-zind", "evolution", "PASS"),
        ExpectedCase("simulate", "noncommuting-zind", "evolution", "error:5"),
        ExpectedCase("simulate", "standard-zind", "standard", "PASS"),
        ExpectedCase("simulate", "evolution-zind-K", "evolution", "PASS"),
        ExpectedCase("simulate", "zdep-quadratic", "evolution", "PASS"),
    ),
    note="dissipative nonlinear transport model (k=2); reduces to the classical one for mu=0",
)


# --------------------------------------------------------------------------
# first-order dissipative model
# --------------------------------------------------------------------------

def _h_first_order(P):
    lam = P["lambda"]

    def fn(pt):
        u = pt.q[0]
        px = pt.p[1, 0]
        return 0.5 * (u * u + px * px) + lam * pt.z[0]

    return ScalarField(CHART_12, fn, params=dict(P), name="first-order-dissipative")


def _fo_standing(P):
    lam, Z, mode = P["lambda"], P["Z"], P["mode"]

    def f(t):
        x = t[1]
        u = dm.sin(x)
        px = dm.cos(x)
        if mode == "standard":
            zx = 0.25 * dm.sin(2.0 * x) - lam * Z * x
        else:
            zx = 0.5 * x + 0.25 * dm.sin(2.0 * x)
        return ([u], [[0.0 * u], [px]], [Z + 0.0 * u, zx])

    return f


FIRST_ORDER = ExampleSystem(
    name="first-order-dissipative",
    chart=CHART_12,
    make_h=_h_first_order,
    defaults={"lambda": 1.0},
    sections={
        "zdep-family": SectionEntry(
            "zdep-family", "zdep", _linear_zdep_section("first-order-zdep", ("rho", "sigma")),
            {"lambda": 1.0, "a": 1.0, "rho": 0.0, "sigma": 0.0},
            modes=("standard", "evolution"),
        ),
    },
    solutions=_mode_pair(
        ("standing-standard", "standing-evolution"), _fo_standing, {"lambda": 1.0, "Z": 0.0},
        default_grid=GridSpec([0.0, 0.0], [0.05, 0.05], [9, 9]),
        tol=1e-12,
    ),
    families={"complete": _linear_family("first-order-complete")},
    expected=(
        ExpectedCase("check-hj", "zdep-family", "standard", "PASS"),
        ExpectedCase("check-hj", "zdep-family", "evolution", "PASS"),
    ),
    note="momentum p^t never enters the dynamics: the fibre Hessian is singular by design",
)


# --------------------------------------------------------------------------
# damped membrane on an elastic foundation (k = 3)
# --------------------------------------------------------------------------

CHART_13 = ChartSpec(n=1, k=3)


def _h_membrane(P):
    _nonzero(P, "c", "membrane Hamiltonian")
    c, kappa, lam = P["c"], P["kappa"], P["lambda"]

    def fn(pt):
        u = pt.q[0]
        pt_, px, py = pt.p[0, 0], pt.p[1, 0], pt.p[2, 0]
        return (0.5 * (pt_ * pt_ - (px * px + py * py) / (c * c))
                + 0.5 * kappa * u * u + lam * pt.z[0])

    return ScalarField(CHART_13, fn, params=dict(P), name="membrane")


def _membrane_growth(P):
    c, kappa, lam, a, b = P["c"], P["kappa"], P["lambda"], P["a"], P["b"]
    disc = lam * lam - 4.0 * (kappa + c * c * (a * a + b * b))
    if disc < 0.0:
        raise ContractError(
            "no real separable growth rate: lambda^2 - 4 (kappa + c^2 (a^2 + b^2)) < 0"
        )
    r = np.sqrt(disc)
    return (-lam + r) / 2.0 if P["branch"] >= 0 else (-lam - r) / 2.0


def _membrane_solution(P):
    c, kappa, lam, a, b, u0 = P["c"], P["kappa"], P["lambda"], P["a"], P["b"], P["u0"]
    mode = P["mode"]
    s = _membrane_growth(P)
    denom = 2.0 * s + lam if mode == "standard" else 2.0 * s
    if denom == 0.0:
        raise ContractError("separable profile needs 2s + lambda != 0 (standard) or s != 0 (evolution)")

    def f(t):
        tt, x, y = t
        Ca, Cb = dm.cos(a * x), dm.cos(b * y)
        Sa, Sb = dm.sin(a * x), dm.sin(b * y)
        E = dm.exp(s * tt)
        u = u0 * E * Ca * Cb
        p_t = s * u
        p_x = c * c * a * u0 * E * Sa * Cb
        p_y = c * c * b * u0 * E * Ca * Sb
        if mode == "standard":
            G = u0 * u0 * (0.5 * (s * s - kappa) * (Ca * Cb) ** 2
                           - 0.5 * c * c * a * a * (Sa * Cb) ** 2
                           - 0.5 * c * c * b * b * (Ca * Sb) ** 2)
        else:
            G = u0 * u0 * (s * s * (Ca * Cb) ** 2
                           - c * c * a * a * (Sa * Cb) ** 2
                           - c * c * b * b * (Ca * Sb) ** 2)
        zt = E * E * G / denom
        zero = 0.0 * u
        return ([u], [[p_t], [p_x], [p_y]], [zt, zero, zero])

    return f


def _membrane_constraint(P):
    _nonzero(P, "c", "membrane Hamiltonian")
    s = _membrane_growth(P)
    val = s * s + P["lambda"] * s + P["kappa"] + P["c"] ** 2 * (P["a"] ** 2 + P["b"] ** 2)
    if abs(val) > 1e-10:
        raise ContractError(
            f"growth rate s={s} violates s^2 + lambda s + kappa + c^2 (a^2 + b^2) = 0 "
            f"(residual {val:.3e})"
        )


MEMBRANE = ExampleSystem(
    name="membrane",
    chart=CHART_13,
    make_h=_h_membrane,
    defaults={"c": 1.0, "kappa": 1.0, "lambda": 4.0},
    solutions=_mode_pair(
        ("separable", "separable-evolution"), _membrane_solution,
        {"c": 1.0, "kappa": 1.0, "lambda": 4.0, "a": 1.0, "b": 1.0, "u0": 0.5, "branch": 1.0},
        constraint=_membrane_constraint,
        default_grid=GridSpec([0.0, 0.0, 0.0], [0.0005, 0.0005, 0.0005], [9, 9, 9]),
    ),
    pde_residual=_damped_wave(lambda P: P["c"] ** 2, "kappa"),
    expected=(
        ExpectedCase("simulate", None, "standard", "PASS", solution="separable"),
    ),
    note="overdamped separable mode of a damped membrane on an elastic foundation (k=3)",
)


# --------------------------------------------------------------------------
# covariant balance-law thermodynamic model
# --------------------------------------------------------------------------

def thermo_chart(k: int) -> ChartSpec:
    """Chart packing: q = (xi, beta_1..beta_k, V), p[mu] = (N, -T[., mu], P), z = entropy fluxes."""
    return ChartSpec(n=k + 2, k=k)


def thermo_hamiltonian(k: int, U, Phi) -> ScalarField:
    """h = U(xi, beta, V) + Phi(N, T, P) on :func:`thermo_chart`, with N^m = p[m, 0],
    T[l][m] = -p[m, 1 + l] and P^m = p[m, k + 1]: ``beta``, ``N`` and ``P`` are lists of
    length k, ``T`` a k x k nested list, and U and Phi must be dual-capable."""

    def fn(pt):
        q, p = pt.q, pt.p
        T = [[-p[m, 1 + l] for m in range(k)] for l in range(k)]
        return U(q[0], list(q[1:1 + k]), q[k + 1]) + Phi(list(p[:, 0]), T, list(p[:, k + 1]))

    return ScalarField(thermo_chart(k), fn)


def _h_thermo(P):
    k = int(P["k"])
    cu, cn, ct, cp = P["u_quad"], P["n_quad"], P["t_quad"], P["p_quad"]

    def U(xi, beta, V):
        return cu * 0.5 * sum(x * x for x in [xi] + beta + [V])

    def Phi(N, T, Pfl):
        return (cn * 0.5 * sum(x * x for x in N)
                + ct * 0.5 * sum(T[l][m] * T[l][m] for m in range(k) for l in range(k))
                + cp * 0.5 * sum(x * x for x in Pfl))

    return replace(thermo_hamiltonian(k, U, Phi), params=dict(P), name="thermo-eit")


THERMO = ExampleSystem(
    name="thermo-eit",
    chart=thermo_chart(2),
    make_h=_h_thermo,
    defaults={"k": 2, "u_quad": 0.0, "n_quad": 1.0, "t_quad": 1.0, "p_quad": 1.0},
    note="balance-law field theory: intensives, fluxes, and entropy fluxes on a k-grid "
         "(verification only; no closed solution family is shipped)",
)


@dataclass
class ThermoFields:
    """Field arrays on a k-dimensional grid for the thermodynamic model.

    Shapes: ``xi``: grid; ``beta``: grid + (k,); ``V``: grid; ``N``: grid + (k,);
    ``T``: grid + (k, k) (first index lambda, second mu); ``P``: grid + (k,);
    ``S``: grid + (k,).
    """

    xi: np.ndarray
    beta: np.ndarray
    V: np.ndarray
    N: np.ndarray
    T: np.ndarray
    P: np.ndarray
    S: np.ndarray


def thermo_map(fields: ThermoFields, grid: GridSpec) -> SolutionMap:
    """The fields packed on :func:`thermo_chart`, to check by ``map_residual(thermo_map(fields, grid),
    thermo_hamiltonian(k, U, Phi), mode)``: per node, r_q is the largest constitutive residual, r_p
    the largest balance residual and r_z the entropy residual of the mode (|.| each)."""
    k = grid.k
    tails = {"xi": (), "beta": (k,), "V": (), "N": (k,), "T": (k, k), "P": (k,), "S": (k,)}
    if any(np.shape(getattr(fields, f)) != grid.shape + t for f, t in tails.items()):
        raise ShapeError("thermo field arrays do not match the grid")
    q = np.concatenate([fields.xi[..., None], fields.beta, fields.V[..., None]], axis=-1, dtype=float)
    p = np.concatenate([fields.N[..., None], -np.swapaxes(fields.T, -1, -2), fields.P[..., None]],
                       axis=-1, dtype=float)
    return SolutionMap(thermo_chart(k), grid, q, p, np.asarray(fields.S, dtype=float))


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_REGISTRY = {
    ex.name: ex
    for ex in (TELEGRAPHER, TELEGRAPHER_QZ, HUNTER_SAXTON, FIRST_ORDER, MEMBRANE, THERMO)
}


def load(name: str) -> ExampleSystem:
    """Look up a built-in example system by key."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown example {name!r}; valid keys: {', '.join(EXAMPLE_NAMES)}"
        ) from None


def _solution_entry(ex: ExampleSystem, solution_key: str) -> SolutionEntry:
    try:
        return ex.solutions[solution_key]
    except KeyError:
        raise ConfigError(
            f"unknown solution {solution_key!r} for example {ex.name}; "
            f"known: {sorted(ex.solutions)}"
        ) from None


def analytic(name: str, solution_key: str, params=None, grid: GridSpec = None) -> SolutionMap:
    """Closed-form solution of a built-in example, sampled with exact derivatives.

    Parameter constraints are checked first; a violation names the
    offending relation.
    """
    ex = load(name)
    entry = _solution_entry(ex, solution_key)
    P = _params(entry.defaults, params, f"solution {solution_key}")
    entry.constraint(P)
    grid = grid if grid is not None else entry.default_grid
    return closed_solution_map(ex.chart, grid, entry.build(P))


def reference_base(name: str, solution_key: str, params=None, with_z: bool = False):
    """Closed-form base map t -> q of a built-in solution (t -> (q, z) with ``with_z``), as
    a list of numbers (of lane values on lanes): the reference an integrated section is
    compared against.

    Entries of ``params`` that the solution does not take are ignored; its
    constraint is checked first.
    """
    entry = _solution_entry(load(name), solution_key)
    P = _params(entry.defaults, {k: v for k, v in (params or {}).items() if k in entry.defaults},
                f"solution {solution_key}")
    entry.constraint(P)
    f = entry.build(P)

    def base(t):
        q, _, z = f(list(t))
        return list(q) + list(z) if with_z else list(q)

    return base


def solution_modes(name: str, solution_key: str, params=None) -> tuple:
    """Modes whose map residual the given closed-form solution satisfies."""
    entry = _solution_entry(load(name), solution_key)
    P = _params(entry.defaults, params, f"solution {solution_key}")
    return entry.modes(P) if callable(entry.modes) else entry.modes
