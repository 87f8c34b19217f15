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
from .errors import ConfigError, DivergenceError, IntegrabilityError, KContactError
from .geometry import ChartSpec, DarbouxPoint
from .grids import GridSpec
from .hdw import map_residual
from .hj import _check, verify_complete
from .integrate import DEFAULT_TOLERANCES, end_to_end
from .sections import sample_box

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


def _load_config(path):
    if not path:
        return {}
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    plan = dict(cp.items("run")) if cp.has_section("run") else {}
    if cp.has_section("params"):
        plan["params"] = {k: _number(v, f"[params] {k}") for k, v in cp.items("params")}
    for name in ("grid", "check", "output"):
        if cp.has_section(name):
            plan[name] = dict(cp.items(name))
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


# -- run bodies ----------------------------------------------------------------
#
# Each takes the resolved arguments, the config plan, the example and the parameter
# overrides, and returns its report fields (the head is added by main) plus the
# (map, residuals) pair of psi.csv, or None.

def _hj_limits(args, plan):
    """Tolerance and sample count of a ``check-hj`` sweep."""
    check = plan.get("check", {})
    tol = _number(args.tol if args.tol is not None else check.get("tolerance", 1e-10),
                  "tolerance", least=0.0)
    count = _number(args.samples if args.samples is not None else check.get("samples", 500),
                    "samples", int, 1)
    return tol, count


def _section_run(example, key, overrides):
    """Entry ``key`` of ``example``, its parameters with ``overrides``, the section and h.

    Unknown section or parameter names raise :class:`ConfigError` naming the known ones.
    """
    entry = example.sections.get(key or "")
    if entry is None:
        raise ConfigError(f"example {example.name} has no section {key!r}; "
                          f"known: {sorted(example.sections)}")
    params = corpus._params(entry.defaults, overrides, f"section {entry.key}")
    h = example.hamiltonian({k: v for k, v in params.items() if k in example.defaults})
    return entry, params, entry.build(params), h


def _check_family(args, plan, example, overrides):
    tol, count = _hj_limits(args, plan)
    build = example.families.get(args.family)
    if build is None:
        raise ConfigError(f"example {example.name} has no family {args.family!r}; "
                          f"known: {sorted(example.families)}")
    params = corpus._params(example.defaults, overrides, f"family {args.family}")
    fam = build(params)
    steps = _number(args.param_grid, "--param-grid", int, 1)
    rt_tol = _number(args.roundtrip_tol, "--roundtrip-tol", least=0.0)
    axes = [np.linspace(lo, hi, steps) for lo, hi in fam.param_box]
    mesh = np.array(np.meshgrid(*axes)).reshape(len(axes), -1).T
    ver = verify_complete(fam, example.hamiltonian(params), args.mode, mesh, count=count,
                          seed=args.seed, res_tol=tol, rt_tol=rt_tol)
    return {"family": args.family, **ver.summary(), "tolerance": tol,
            "verdict": "PASS" if ver.passed(tol, rt_tol) else "FAIL"}, None


def _check_section(args, plan, example, overrides):
    tol, count = _hj_limits(args, plan)
    entry, params, gamma, h = _section_run(example, args.section, overrides)
    box = entry.box
    if args.box:
        vals = _parse_floats(args.box, "--box")
        if len(vals) % 2:
            raise ConfigError(f"--box expects lo,hi pairs, got {args.box!r}")
        dim = gamma.chart.n + (gamma.chart.k if entry.kind == "zdep" else 0)
        if len(vals) != 2 * dim:
            raise ConfigError(f"--box expects {dim} lo,hi pairs for section {entry.key}, "
                              f"got {len(vals) // 2}")
        box = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
    C = entry.gauge(params) if entry.gauge is not None else None
    rep, _ = _check(h, gamma, args.mode, C, box=box, count=count, seed=args.seed)
    return {"section": entry.key, **rep.summary(), "tolerance": tol, "verdict": rep.verdict(tol),
            "params": {k: params[k] for k in sorted(params) if params[k] is not None}}, None


def _residual_tol(args, plan):
    tol = args.tol if args.tol is not None else plan.get("check", {}).get("residual_tolerance")
    if tol is None:
        return DEFAULT_TOLERANCES["residual"]
    return _number(tol, "residual tolerance", least=0.0)


def _grid_from(args, plan, default) -> GridSpec:
    g = plan.get("grid", {})
    origin, spacing, counts = (
        _parse_floats(getattr(args, key) or g.get(key, ""), key, kind) or default.get(key)
        for key, kind in (("origin", float), ("spacing", float), ("counts", int)))
    if origin is None or spacing is None or counts is None:
        raise ConfigError("simulate needs a grid: pass --origin/--spacing/--counts "
                          "or a [grid] config section (or use a section with defaults)")
    return GridSpec(origin, spacing, counts)


def _simulate_solution(args, plan, example, overrides):
    tol = _residual_tol(args, plan)
    entry = corpus._solution_entry(example, args.solution)
    corpus._params({**example.defaults, **entry.defaults}, overrides, f"solution {args.solution}")
    grid = None
    if args.origin or args.spacing or args.counts or plan.get("grid"):
        grid = _grid_from(args, plan, {})
    psi = corpus.analytic(example.name, args.solution, params=overrides, grid=grid)
    P = example.resolve({k: v for k, v in overrides.items() if k in example.defaults})
    res = map_residual(psi, example.hamiltonian(P), mode=args.mode)
    report = {"solution": args.solution, "grid_counts": list(psi.grid.counts), **res.summary()}
    if example.pde_residual is not None:
        pde = example.pde_residual({"u": psi.q[..., 0], "zt": psi.z[..., 0]}, psi.grid, P)
        report["max_pde_residual"] = float(np.max(np.abs(pde)))
    report.update(tolerance=tol, verdict="PASS" if res.max() <= tol else "FAIL")
    return report, (psi, res)


def _simulate_section(args, plan, example, overrides):
    tol = _residual_tol(args, plan)
    entry, params, gamma, h = _section_run(example, args.section, overrides)
    sim = entry.sim or {}
    grid = _grid_from(args, plan, sim)
    start = (_parse_floats(args.start or plan.get("grid", {}).get("start", ""), "start")
             or sim.get("start"))
    if start is None:
        raise ConfigError("simulate needs a start point (--start or section default)")
    ref_key = args.reference or sim.get("reference")
    reference = (corpus.reference_base(example.name, ref_key, overrides, entry.kind == "zdep")
                 if ref_key else None)
    C = entry.gauge(params) if entry.gauge is not None else None
    hj_samples = None
    if entry.box is not None:
        hj_samples = sample_box(entry.box, 200, np.random.default_rng(args.seed))
    rep = end_to_end(h, gamma, args.mode, grid, start=start, C=C, hj_samples=hj_samples,
                     reference=reference, tolerances={"residual": tol}, seed=args.seed)
    report = {"section": entry.key, "verdict": "PASS" if rep.passed else "FAIL", **rep.summary()}
    return report, (None if rep.solution is None else (rep.solution, rep.residuals))


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

def _emit(report, outdir, filename, csv=None) -> int:
    """Print ``report`` and map its verdict to the exit code.  Given ``outdir``, create it (only
    now, so a refused or aborted run leaves none), write ``psi.csv`` from the ``(map,
    residuals)`` pair ``csv`` if there is one, and the report as ``filename``."""
    path = None
    if outdir:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        if csv is not None:
            _csv_solution(*csv, outdir / "psi.csv")
        path = outdir / filename
    print(_json_dump(report, path))
    return EXIT_PASS if report["verdict"] == "PASS" else EXIT_FAIL


# command -> report file, output directory without --out or [output] dir, and the body of
# each run kind, the first named kind winning
_COMMANDS = {
    "check-hj": ("hj_report.json", None, {"family": _check_family, "section": _check_section}),
    "simulate": ("summary.json", ".", {"solution": _simulate_solution, "section": _simulate_section}),
}


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
        filename, default_dir, bodies = _COMMANDS[args.command]
        plan = _load_config(args.config)
        args.example = args.example or plan.get("example")
        if args.example is None:
            raise ConfigError("an example key is required (--example or config [run] example)")
        example = corpus.load(args.example)
        if not any(getattr(args, kind) for kind in bodies):
            for kind in bodies:
                setattr(args, kind, plan.get(kind))
        body = bodies[next((kind for kind in bodies if getattr(args, kind)), "section")]
        overrides = dict(plan.get("params", {}))
        overrides.update(_parse_sets(args.set))
        args.mode = args.mode or plan.get("mode", "standard")
        args.seed = _number(args.seed if args.seed is not None else plan.get("seed", 0), "seed", int, 0)
        outdir = args.out or plan.get("output", {}).get("dir") or default_dir
        head = {"command": args.command, "example": example.name, "mode": args.mode, "seed": args.seed}
        report, csv = body(args, plan, example, overrides)
        return _emit({**head, **report}, outdir, filename, csv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except IntegrabilityError as exc:
        print(f"integrability: {exc}", file=sys.stderr)
        return EXIT_INTEGRABILITY
    except KContactError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except ArithmeticError as exc:
        print(f"arithmetic error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
