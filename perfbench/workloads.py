"""The four benchmark workloads, built from the public ``kcontact`` API.

Each workload turns a seed into a :class:`Plan`: a fixed list of jobs,
each a top-level library call with its own output check.  ``smoke``
shrinks the inputs; ``outdir`` is where jobs may write (cli-corpus only).  Library
functions are looked up on their modules at call time (``kc.x(...)``, not
``from kcontact import x``) so that the tracer's wrappers are seen.

Inputs drawn from the seed are the only thing the program receives:
sample points, start points, profile amplitudes and CLI ``--seed``
values.  No call passes ``workers=``; no private helper is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import kcontact as kc
import kcontact.cli
from kcontact import corpus

# Reports of the CLI corpus are keyed by these CLI seeds; see cli_corpus().
CLI_SEEDS = 16


@dataclass
class Job:
    label: str
    points: int
    run: callable  # () -> output
    check: callable  # output -> None when correct, else a one-line reason


@dataclass
class Plan:
    jobs: list
    cycle: int  # jobs per balanced cycle; runs stop only on a cycle boundary
    trace_jobs: int  # fixed job count of the traced pass
    reports: dict = field(default_factory=dict)  # case id -> report digest (cli-corpus)
    bytes_written: int = 0
    digest_key: str = None  # CLI seed the digests belong to (cli-corpus)


def _within(label, value, tol):
    return None if value is not None and value <= tol else f"{label} {value!r} > {tol:g}"


def _first(*reasons):
    return next((r for r in reasons if r), None)


# -- complete-sweep -----------------------------------------------------------

def complete_sweep(seed: int, smoke: bool = False, outdir: Path = None) -> Plan:
    """verify_complete per parameter slice, both families, both modes."""
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, (27 if smoke else 729, 3))
    axis = np.linspace(-1.0, 1.0, 2 if smoke else 5)
    mesh = np.array(np.meshgrid(axis, axis)).reshape(2, -1).T
    cases = []
    for name in ("telegrapher", "hunter-saxton"):
        ex = corpus.load(name)
        h = ex.hamiltonian()
        fam = ex.families["complete"]({**ex.defaults, "a": 1.0})
        for mode in ("standard", "evolution"):
            cases.append((f"{name}/{mode}", fam, h, mode))

    def check(ver):
        if ver.failures:
            return f"failures: {ver.failures[:2]}"
        if ver.param_count != 1 or ver.sample_count != len(samples):
            return f"checked {ver.param_count} x {ver.sample_count} points"
        return _first(_within("sup residual", ver.sup_residual, 1e-10),
                      _within("round-trip error", ver.sup_roundtrip, 1e-12))

    jobs = [
        Job(f"{label} {tuple(lam)}", len(samples),
            lambda fam=fam, h=h, mode=mode, lam=lam:
                kc.verify_complete(fam, h, mode, [lam], base_samples=samples),
            check)
        for lam in mesh for label, fam, h, mode in cases
    ]
    return Plan(jobs, cycle=len(cases), trace_jobs=len(jobs) if smoke else 5 * len(cases))


# -- pipeline -----------------------------------------------------------------

def _pipeline_check(rep):
    if not rep.passed:
        return f"pipeline failed at stage {rep.failed_stage}: {rep.notes}"
    return _first(_within("compare error", rep.compare_error, 1e-8),
                  _within("map residual", rep.residuals.max(), 1e-6))


def pipeline(seed: int, smoke: bool = False, outdir: Path = None) -> Plan:
    """end_to_end on a z-independent and a z-dependent section."""
    rng = np.random.default_rng(seed)

    # hunter-saxton zdep-quadratic with its explicit gauge, 40x40 nodes over
    # the extent of the section's default simulate grid.
    ex = corpus.load("hunter-saxton")
    entry = ex.sections["zdep-quadratic"]
    P = dict(entry.defaults)
    gamma, C = entry.build(P), entry.gauge(P)
    h_hs = ex.hamiltonian({k: v for k, v in P.items() if k in ex.defaults})
    sim = entry.sim
    nodes = 8 if smoke else 40
    extent = np.asarray(sim["spacing"]) * (np.asarray(sim["counts"]) - 1)
    grid_hs = kc.GridSpec(sim["origin"], extent / (nodes - 1), [nodes, nodes])
    hs_samples = kc.sections.sample_box(kc.sections.default_box(3), 200, rng)
    sol = ex.solutions[sim["reference"]]
    f_hs = sol.build(dict(sol.defaults))
    start_hs = list(sim["start"])

    def ref_hs(t):
        q, _, z = f_hs(list(t))
        return [float(v) for v in q] + [float(v) for v in z]

    # telegrapher classical-zind on its 50x50 grid from a seeded start.
    ex = corpus.load("telegrapher")
    entry = ex.sections["classical-zind"]
    P = dict(entry.defaults)
    gamma_tel = entry.build(P)
    h_tel = ex.hamiltonian({k: P[k] for k in ex.defaults})
    sim = entry.sim
    counts = [10, 10] if smoke else sim["counts"]
    grid_tel = kc.GridSpec(sim["origin"], sim["spacing"], counts)
    u0 = float(rng.uniform(0.5, 1.5))
    tel_samples = kc.sections.sample_box(entry.box, 200, rng)
    sol = ex.solutions[sim["reference"]]
    SP = {**sol.defaults, **{k: v for k, v in P.items() if k in sol.defaults}, "u0": u0}
    sol.constraint(SP)
    f_tel = sol.build(SP)

    def ref_tel(t):
        return [float(v) for v in f_tel(list(t))[0]]

    jobs = [
        Job("hunter-saxton/zdep-quadratic", int(np.prod(grid_hs.counts)),
            lambda: kc.end_to_end(h_hs, gamma, "evolution", grid_hs, start=start_hs,
                                  C=C, hj_samples=hs_samples, reference=ref_hs),
            _pipeline_check),
        Job("telegrapher/classical-zind", int(np.prod(grid_tel.counts)),
            lambda: kc.end_to_end(h_tel, gamma_tel, "standard", grid_tel, start=[u0],
                                  hj_samples=tel_samples, reference=ref_tel),
            _pipeline_check),
    ]
    return Plan(jobs, cycle=2, trace_jobs=2)


# -- cli-corpus ---------------------------------------------------------------

def expected_exit(verdict: str) -> int:
    if verdict == "PASS":
        return 0
    if verdict == "FAIL":
        return 1
    return int(verdict.split(":")[1])


def case_id(name, case) -> str:
    return f"{name}/{case.command}/{case.section or case.solution}/{case.mode}"


def cli_corpus(seed: int, smoke: bool = False, outdir: Path = None, cases=None) -> Plan:
    """Every shipped ExpectedCase through in-process ``kcontact.cli.main``.

    The CLI seed is ``seed % CLI_SEEDS`` so that report digests recorded
    for those seeds can tell whether a change altered any report bytes.
    ``cases`` replaces the corpus expectations (the self-test uses it).
    """
    cli_seed = seed % CLI_SEEDS
    outdir = Path(outdir)
    if cases is None:
        cases = [(name, case) for name in corpus.EXAMPLE_NAMES
                 for case in corpus.load(name).expected]
    plan = Plan([], cycle=len(cases), trace_jobs=len(cases), digest_key=str(cli_seed))

    def make(i, name, case):
        where = outdir / f"case{i:02d}"
        argv = [case.command, "--example", name, "--mode", case.mode,
                "--seed", str(cli_seed), "--out", str(where)]
        argv += ["--solution", case.solution] if case.solution else ["--section", case.section]
        want = expected_exit(case.verdict)

        def run():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return kc.cli.main(argv)

        def check(code):
            digest = hashlib.sha256()
            if where.exists():
                for path in sorted(where.iterdir()):
                    data = path.read_bytes()
                    plan.bytes_written += len(data)
                    digest.update(path.name.encode() + b"\0" + data)
                shutil.rmtree(where)
            plan.reports[case_id(name, case)] = digest.hexdigest()[:16]
            return None if code == want else f"exit {code}, expected {case.verdict}"

        return Job(case_id(name, case), 1, run, check)

    plan.jobs = [make(i, name, case) for i, (name, case) in enumerate(cases)]
    return plan


# -- second-order ---------------------------------------------------------------

def second_order(seed: int, smoke: bool = False, outdir: Path = None) -> Plan:
    """second_order_residual in both modes on a k=2 and a k=3 profile.

    Amplitudes are drawn from [0.25, 1]: the difference-stencil residual
    grows linearly with the amplitude and reaches about 6e-7 of the 1e-6
    tolerance at 1 on the telegrapher grid.
    """
    rng = np.random.default_rng(seed)
    maps = []
    for name, key, grid in (
        ("telegrapher", "exponential",
         kc.GridSpec([0.0, 0.0], [1e-3, 1e-3], [7, 7] if smoke else [20, 20])),
        ("membrane", "separable",
         kc.GridSpec([0.0] * 3, [5e-4] * 3, [5] * 3 if smoke else [9] * 3)),
    ):
        ex = corpus.load(name)
        sol = ex.solutions[key]
        SP = {**sol.defaults, "u0": float(rng.uniform(0.25, 1.0))}
        sol.constraint(SP)
        f = sol.build(SP)
        h = ex.hamiltonian({k: SP[k] for k in ex.defaults})
        qmap = kc.BaseMap.from_function(
            grid, lambda t, f=f: [float(v) for v in f(list(t))[0]])
        maps.append((name, h, qmap, int(rng.integers(2**31))))

    def check(res):
        inner = res[tuple(slice(1, -1) for _ in range(res.ndim - 1))]
        return _within("interior residual", float(np.max(np.abs(inner))), 1e-6)

    jobs = [
        Job(f"{name}/{mode}", int(np.prod(qmap.grid.counts)),
            lambda h=h, qmap=qmap, mode=mode, aff=aff:
                kc.second_order_residual(h, qmap, mode, rng=np.random.default_rng(aff)),
            check)
        for name, h, qmap, aff in maps for mode in ("standard", "evolution")
    ]
    return Plan(jobs, cycle=len(jobs), trace_jobs=len(jobs))


WORKLOADS = {
    "complete-sweep": complete_sweep,
    "pipeline": pipeline,
    "cli-corpus": cli_corpus,
    "second-order": second_order,
}
