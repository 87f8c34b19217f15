"""Command-line front end.

Subcommands: ``list`` (registry), ``check-hj`` (Hamilton-Jacobi residual
sweeps), ``simulate`` (pipeline or closed-form sampling with CSV output),
and ``gauge`` (kernel-dimension diagnostic).  Exit codes are a stable
contract: 0 pass, 1 fail, 2 configuration, 3 contract violation,
4 flow blow-up, 5 failed direction-order check.

Run plans can come from a config file (INI-style sections [run], [params],
[grid], [check], [output]) with command-line flags taking precedence.
Randomised sampling always records its seed in the report, and reports are
byte-deterministic for a fixed plan and seed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import corpus
from .errors import (
    ConfigError,
    ContractError,
    DivergenceError,
    DomainError,
    IntegrabilityError,
    KContactError,
    NoSolutionError,
    RegularityError,
    ShapeError,
    SolverError,
)
from .geometry import ChartSpec, DarbouxPoint
from .grids import GridSpec
from .hdw import map_residual
from .hj import _check, verify_complete
from .integrate import end_to_end

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_DIVERGENCE = 4
EXIT_INTEGRABILITY = 5


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_dump(obj, path: Path = None) -> str:
    """``obj`` as JSON text, also written to ``path`` if given.  A non-finite float is written
    as ``null``: the first pass reads it back as None (keys sorted there, as given)."""
    plain = json.loads(json.dumps(obj, sort_keys=True), parse_constant=lambda _: None)
    text = json.dumps(plain, indent=2, allow_nan=False)
    if path is not None:
        path.write_text(text + "\n", encoding="utf-8")
    return text


def _parse_sets(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects name=value, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        val = val.strip()
        try:
            out[key] = float(val)
        except ValueError:
            out[key] = val
    return out


def _number(text, what, kind=float, least=None):
    """``text`` (a flag's value or a config entry) as a ``kind`` number, finite and at least
    ``least`` when that is given; anything else raises :class:`ConfigError` naming ``what``."""
    try:
        x = kind(text)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} expects {'an integer' if kind is int else 'a number'}, "
                          f"got {text!r}") from None
    if least is not None and not least <= x < math.inf:
        raise ConfigError(f"{what} must be a finite number >= {least}, got {text!r}")
    return x


def _parse_floats(text, what, kind=float):
    return [_number(x, what, kind) for x in str(text).replace(";", ",").split(",") if x.strip()]


def _numbers_where_numeric(overrides, defaults):
    """Text is a legal parameter value only where the default is text (a solution's ``mode``)."""
    for name, val in overrides.items():
        if isinstance(val, str) and not isinstance(defaults.get(name), str):
            raise ConfigError(f"parameter {name!r} expects a number, got {val!r}")


def _load_config(path):
    if not path:
        return {}
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    plan = {}
    if cp.has_section("run"):
        plan.update({k: v for k, v in cp.items("run")})
    if cp.has_section("params"):
        plan["params"] = {k: _number(v, f"[params] {k}") for k, v in cp.items("params")}
    if cp.has_section("grid"):
        g = dict(cp.items("grid"))
        plan["grid"] = g
    if cp.has_section("check"):
        plan["check"] = dict(cp.items("check"))
    if cp.has_section("output"):
        plan["output"] = dict(cp.items("output"))
    return plan


# -- list -------------------------------------------------------------------

def cmd_list(args) -> int:
    names = corpus.EXAMPLE_NAMES
    if args.example:
        ex = corpus.load(args.example)
        print(f"{ex.name}: n={ex.chart.n}, k={ex.chart.k}")
        print(f"  {ex.note}")
        print(f"  parameters: {sorted(ex.defaults)}")
        if ex.sections:
            print("  sections:")
            for key, s in ex.sections.items():
                modes = ",".join(s.modes) if s.modes else "none"
                print(f"    {key:32s} kind={s.kind:5s} passes: {modes}")
        if ex.solutions:
            print("  solutions:")
            for key in ex.solutions:
                print(f"    {key}")
        if ex.families:
            print("  complete families:", ", ".join(ex.families))
        return EXIT_PASS
    print(f"{'example':26s} {'n':>2s} {'k':>2s}  sections/solutions")
    for name in names:
        ex = corpus.load(name)
        print(f"{name:26s} {ex.chart.n:2d} {ex.chart.k:2d}  "
              f"{len(ex.sections)} sections, {len(ex.solutions)} solutions")
    return EXIT_PASS


# -- check-hj ----------------------------------------------------------------

def _section_run(example, key, overrides):
    """Entry ``key`` of ``example``, its parameters with ``overrides``, the section and h.

    Unknown section or parameter names raise :class:`ConfigError` naming the known ones.
    """
    entry = example.sections.get(key or "")
    if entry is None:
        raise ConfigError(f"example {example.name} has no section {key!r}; "
                          f"known: {sorted(example.sections)}")
    params = dict(entry.defaults)
    for name, val in overrides.items():
        if name not in params:
            raise ConfigError(f"unknown parameter {name!r} for section {entry.key}; "
                              f"known: {sorted(params)}")
        params[name] = val
    _numbers_where_numeric(overrides, entry.defaults)
    gamma = entry.build(params)
    h = example.hamiltonian({k: v for k, v in params.items() if k in example.defaults})
    return entry, params, gamma, h


def cmd_check_hj(args, plan) -> int:
    example = corpus.load(args.example)
    overrides = dict(plan.get("params", {}))
    overrides.update(_parse_sets(args.set))
    mode = args.mode or plan.get("mode", "standard")
    seed = _number(args.seed if args.seed is not None else plan.get("seed", 0), "seed", int, 0)
    check = plan.get("check", {})
    tol = _number(args.tol if args.tol is not None else check.get("tolerance", 1e-10),
                  "tolerance", least=0.0)
    count = _number(args.samples if args.samples is not None else check.get("samples", 500),
                    "samples", int, 1)

    if args.family:
        fam_builder = example.families.get(args.family)
        if fam_builder is None:
            raise ConfigError(f"example {example.name} has no family {args.family!r}; "
                              f"known: {sorted(example.families)}")
        _numbers_where_numeric(overrides, example.defaults)
        fam = fam_builder({**example.defaults, **overrides})
        steps = _number(args.param_grid, "--param-grid", int, 1)
        rt_tol = _number(args.roundtrip_tol, "--roundtrip-tol", least=0.0)
        axes = [np.linspace(lo, hi, steps) for lo, hi in fam.param_box]
        mesh = np.array(np.meshgrid(*axes)).reshape(len(axes), -1).T
        h = example.hamiltonian({k: v for k, v in overrides.items() if k in example.defaults})
        ver = verify_complete(fam, h, mode, mesh, count=count, seed=seed,
                              res_tol=tol, rt_tol=rt_tol)
        verdict = "PASS" if ver.passed(tol, rt_tol) else "FAIL"
        report = {
            "command": "check-hj",
            "example": example.name,
            "family": args.family,
            "mode": mode,
            "seed": seed,
            "samples": ver.sample_count,
            "parameter_count": ver.param_count,
            "sup_residual": ver.sup_residual,
            "sup_roundtrip": ver.sup_roundtrip,
            "tolerance": tol,
            "verdict": verdict,
            "per_parameter": [
                {"parameters": list(lam), "sup_residual": rep.sup_residual}
                for lam, rep in ver.reports
            ],
            "failures": [list(map(str, f)) for f in ver.failures],
        }
        out = _emit(report, args, plan, "hj_report.json")
        print(out)
        return EXIT_PASS if verdict == "PASS" else EXIT_FAIL

    entry, params, gamma, h = _section_run(example, args.section, overrides)
    box = entry.box
    if args.box:
        vals = _parse_floats(args.box, "--box")
        if len(vals) % 2:
            raise ConfigError(f"--box expects lo,hi pairs, got {args.box!r}")
        box = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
    C = entry.gauge(params) if entry.gauge is not None else None
    rep, _ = _check(h, gamma, mode, C, box=box, count=count, seed=seed)

    verdict = rep.verdict(tol)
    report = {
        "command": "check-hj",
        "example": example.name,
        "section": entry.key,
        "mode": mode,
        "seed": seed,
        "samples": rep.sample_count,
        "sup_residual": rep.sup_residual,
        "tolerance": tol,
        "verdict": verdict,
        "params": {k: params[k] for k in sorted(params) if params[k] is not None},
        "worst": [{"residual": r, "point": list(pt)} for r, pt in rep.worst],
    }
    out = _emit(report, args, plan, "hj_report.json")
    print(out)
    return EXIT_PASS if verdict == "PASS" else EXIT_FAIL


# -- simulate ----------------------------------------------------------------

def _grid_from(args, plan, default) -> GridSpec:
    g = plan.get("grid", {})
    origin, spacing, counts = (
        _parse_floats(getattr(args, key) or g.get(key, ""), key, kind) or default.get(key)
        for key, kind in (("origin", float), ("spacing", float), ("counts", int)))
    if origin is None or spacing is None or counts is None:
        raise ConfigError("simulate needs a grid: pass --origin/--spacing/--counts "
                          "or a [grid] config section (or use a section with defaults)")
    return GridSpec(origin, spacing, counts)


def _csv_solution(psi, res, path: Path):
    n, k = psi.chart.n, psi.chart.k
    cols = [f"t{b + 1}" for b in range(k)]
    cols += [f"q{i + 1}" for i in range(n)]
    cols += [f"p{a + 1}_{i + 1}" for a in range(k) for i in range(n)]
    cols += [f"z{a + 1}" for a in range(k)]
    cols += ["r_q", "r_p", "r_z"]
    lines = [",".join(cols)]
    for idx in psi.grid.indices():
        t = psi.grid.t(idx)
        row = [_fmt(v) for v in t]
        row += [_fmt(v) for v in psi.q[idx]]
        row += [_fmt(psi.p[idx][a, i]) for a in range(k) for i in range(n)]
        row += [_fmt(v) for v in psi.z[idx]]
        row += [_fmt(res.r_q[idx]), _fmt(res.r_p[idx]), _fmt(res.r_z[idx])]
        lines.append(",".join(row))
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")


def cmd_simulate(args, plan) -> int:
    example = corpus.load(args.example)
    overrides = dict(plan.get("params", {}))
    overrides.update(_parse_sets(args.set))
    mode = args.mode or plan.get("mode", "standard")
    seed = _number(args.seed if args.seed is not None else plan.get("seed", 0), "seed", int, 0)
    tol = args.tol if args.tol is not None else plan.get("check", {}).get("residual_tolerance")
    tolerances = {} if tol is None else {"residual": _number(tol, "residual tolerance", least=0.0)}
    outdir = Path(args.out or plan.get("output", {}).get("dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)

    if args.solution:
        defaults = {**example.defaults, **corpus._solution_entry(example, args.solution).defaults}
        for key in overrides:
            if key not in defaults:
                raise ConfigError(f"unknown parameter {key!r} for solution {args.solution}; "
                                  f"known: {sorted(defaults)}")
        _numbers_where_numeric(overrides, defaults)
        grid = None
        if args.origin or args.spacing or args.counts or plan.get("grid"):
            grid = _grid_from(args, plan, {})
        psi = corpus.analytic(example.name, args.solution, params=overrides, grid=grid)
        h = example.hamiltonian({k: v for k, v in overrides.items() if k in example.defaults})
        res = map_residual(psi, h, mode=mode)
        _csv_solution(psi, res, outdir / "psi.csv")
        summary = {
            "command": "simulate",
            "example": example.name,
            "solution": args.solution,
            "mode": mode,
            "seed": seed,
            "grid_counts": list(psi.grid.counts),
            "max_r_q": float(np.max(res.r_q)),
            "max_r_p": float(np.max(res.r_p)),
            "max_r_z": float(np.max(res.r_z)),
        }
        if example.pde_residual is not None:
            fields = {"u": psi.q[..., 0], "zt": psi.z[..., 0]}
            P = dict(example.defaults)
            P.update({k: v for k, v in overrides.items() if k in P})
            pde = example.pde_residual(fields, psi.grid, P)
            summary["max_pde_residual"] = float(np.max(np.abs(pde)))
        tol = tolerances.get("residual", 1e-6)
        summary["tolerance"] = tol
        summary["verdict"] = "PASS" if res.max() <= tol else "FAIL"
        text = _json_dump(summary, outdir / "summary.json")
        print(text)
        return EXIT_PASS if summary["verdict"] == "PASS" else EXIT_FAIL

    entry, params, gamma, h = _section_run(example, args.section, overrides)
    sim = dict(entry.sim or {})
    grid = _grid_from(args, plan, sim)
    start = (_parse_floats(args.start or plan.get("grid", {}).get("start", ""), "start")
             or sim.get("start"))
    if start is None:
        raise ConfigError("simulate needs a start point (--start or section default)")

    reference = None
    ref_key = args.reference or sim.get("reference")
    if ref_key:
        ref_psi_f = _reference_base(example, ref_key, overrides, entry.kind)
        reference = ref_psi_f

    C = entry.gauge(params) if entry.gauge is not None else None
    hj_samples = None
    if entry.box is not None:
        rng = np.random.default_rng(seed)
        from .sections import sample_box

        hj_samples = sample_box(entry.box, 200, rng)
    rep = end_to_end(h, gamma, mode, grid, start=start, C=C, hj_samples=hj_samples,
                     reference=reference, tolerances=tolerances, seed=seed)
    if rep.solution is not None:
        res = rep.residuals
        _csv_solution(rep.solution, res, outdir / "psi.csv")
    summary = {
        "command": "simulate",
        "example": example.name,
        "section": entry.key,
        "mode": mode,
        "seed": seed,
        "verdict": "PASS" if rep.passed else "FAIL",
    }
    summary.update(rep.summary())
    text = _json_dump(summary, outdir / "summary.json")
    print(text)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _reference_base(example, ref_key, overrides, kind):
    """Closed-form base map (q-block, plus z-block for z-level sections)."""
    if ref_key not in example.solutions:
        raise ConfigError(f"unknown reference solution {ref_key!r} for {example.name}")
    entry = example.solutions[ref_key]
    P = dict(entry.defaults)
    P.update({k: v for k, v in overrides.items() if k in P})
    entry.constraint(P)
    f = entry._point_map(P)

    def base(t):
        q, p, z = f(list(t))
        vals = [float(v) for v in q]
        if kind == "zdep":
            vals += [float(v) for v in z]
        return vals

    return base


# -- gauge -------------------------------------------------------------------

def cmd_gauge(args) -> int:
    from .geometry import kernel_deficiency

    chart = ChartSpec(args.n, args.k)
    expected = (chart.n + 1) * (chart.k ** 2 - 1)
    rng = np.random.default_rng(_number(args.seed or 0, "--seed", int, 0))
    worst = None
    for _ in range(_number(args.points, "--points", int, 1)):
        pt = DarbouxPoint(2.0 * rng.random(chart.n) - 1.0,
                          2.0 * rng.random((chart.k, chart.n)) - 1.0,
                          2.0 * rng.random(chart.k) - 1.0)
        d = kernel_deficiency(chart, pt)
        if worst is None or d != expected:
            worst = d
        if d != expected:
            break
    ok = worst == expected
    print(f"gauge kernel n={args.n} k={args.k}: analytic {expected}, numeric {worst}, "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_FAIL


# -- shared ------------------------------------------------------------------

def _emit(report, args, plan, filename):
    outdir = args.out or plan.get("output", {}).get("dir")
    path = None
    if outdir:
        path = Path(outdir)
        path.mkdir(parents=True, exist_ok=True)
        path = path / filename
    return _json_dump(report, path)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kcontact",
                                 description="phase-space field-theory toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the example registry")
    p_list.add_argument("--example", help="detail view of one example")

    p_hj = sub.add_parser("check-hj", help="run a Hamilton-Jacobi residual sweep")
    p_hj.add_argument("--config")
    p_hj.add_argument("--example", required=False)
    p_hj.add_argument("--section")
    p_hj.add_argument("--family")
    p_hj.add_argument("--mode", choices=["standard", "evolution"])
    p_hj.add_argument("--set", action="append", metavar="name=value")
    p_hj.add_argument("--tol", type=float)
    p_hj.add_argument("--samples", type=int)
    p_hj.add_argument("--box", help="sampling box, e.g. '0.5,2.0' per dimension")
    p_hj.add_argument("--param-grid", type=int, default=5)
    p_hj.add_argument("--roundtrip-tol", type=float, default=1e-12)
    p_hj.add_argument("--seed", type=int)
    p_hj.add_argument("--out")

    p_sim = sub.add_parser("simulate", help="integrate a section pipeline or sample a solution")
    p_sim.add_argument("--config")
    p_sim.add_argument("--example", required=False)
    p_sim.add_argument("--section")
    p_sim.add_argument("--solution")
    p_sim.add_argument("--mode", choices=["standard", "evolution"])
    p_sim.add_argument("--set", action="append", metavar="name=value")
    p_sim.add_argument("--origin")
    p_sim.add_argument("--spacing")
    p_sim.add_argument("--counts")
    p_sim.add_argument("--start")
    p_sim.add_argument("--reference")
    p_sim.add_argument("--tol", type=float)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out")

    p_g = sub.add_parser("gauge", help="gauge-kernel dimension diagnostic")
    p_g.add_argument("--n", type=int, required=True)
    p_g.add_argument("--k", type=int, required=True)
    p_g.add_argument("--points", type=int, default=20)
    p_g.add_argument("--seed", type=int)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "gauge":
            return cmd_gauge(args)
        plan = _load_config(getattr(args, "config", None))
        if not getattr(args, "example", None):
            args.example = plan.get("example")
        if args.example is None:
            raise ConfigError("an example key is required (--example or config [run] example)")
        if args.command == "check-hj":
            if not args.section and not args.family:
                args.section = plan.get("section")
                args.family = plan.get("family")
            if not args.mode:
                args.mode = plan.get("mode")
            return cmd_check_hj(args, plan)
        if args.command == "simulate":
            if not args.section and not args.solution:
                args.section = plan.get("section")
                args.solution = plan.get("solution")
            if not args.mode:
                args.mode = plan.get("mode")
            return cmd_simulate(args, plan)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractError, ShapeError, DomainError, RegularityError,
            NoSolutionError, SolverError) as exc:
        stage = getattr(exc, "stage", None)
        where = f" (stage {stage})" if stage else ""
        print(f"contract error{where}: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except IntegrabilityError as exc:
        print(f"integrability: {exc}", file=sys.stderr)
        return EXIT_INTEGRABILITY
    except KContactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except ArithmeticError as exc:
        print(f"arithmetic error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
