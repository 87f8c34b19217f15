"""Benchmark of the kcontact library: four closed-loop workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload complete-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # every workload once, tiny, traced

One process, one thread, one job after another.  With ``--trace 0`` the
workload runs whole cycles of jobs until ``--seconds`` have passed and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed pass
untraced and then traced, and reports the per-layer metrics of the traced
pass (so counts repeat exactly for a seed).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The library is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh child processes


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under ``.perfbench_tmp/`` at the root, removed on exit."""
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run still has a directory there
            pass


def _load_library():
    """Import kcontact from the checkout's ``src/``, not from anywhere else."""
    if not (SRC / "kcontact" / "__init__.py").is_file():
        print(f"perfbench: no kcontact package under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.pop("KCONTACT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import kcontact

    if Path(kcontact.__file__).resolve().parent != SRC / "kcontact":
        print(f"perfbench: kcontact was imported from {kcontact.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


class Tally:
    """Job times, points and failures of one pass or measured run.

    ``times`` holds calibrated job times (see calibrate.py), ``wall`` the
    raw ones.
    """

    def __init__(self):
        self.times, self.wall, self.failed, self.errors = [], [], 0, []
        self.cycle_rates = []  # points per calibrated busy second of each whole cycle
        self.points = self._cycle_points = self._cycle_busy = 0

    def run(self, job):
        clock = calibrate.Stopwatch()
        try:
            with clock:
                out = job.run()
        except Exception:  # a crash of one job is a failed job, not a failed run
            self._add_time(clock)
            self._fail(job, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return
        self._add_time(clock)
        try:
            reason = job.check(out)
        except Exception:
            reason = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        if reason:
            self._fail(job, reason)
        else:
            self.points += job.points
            self._cycle_points += job.points

    def end_cycle(self):
        self.cycle_rates.append(self._cycle_points / self._cycle_busy)
        self._cycle_points = self._cycle_busy = 0

    def _add_time(self, clock):
        self.wall.append(clock.wall)
        self.times.append(clock.seconds)
        self._cycle_busy += clock.seconds

    def _fail(self, job, reason):
        self.failed += 1
        self.errors.append(f"{job.label}: {reason}")

    @property
    def attempted(self):
        return len(self.times)

    @property
    def busy_s(self):
        return sum(self.times)


def run_for(plan, seconds: float) -> Tally:
    """Closed loop over the plan's jobs in whole cycles until ``seconds`` pass."""
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while True:
        tally.run(plan.jobs[i % len(plan.jobs)])
        i += 1
        if i % plan.cycle == 0:
            tally.end_cycle()
            if time.perf_counter() - start >= seconds:
                return tally


def run_pass(jobs) -> Tally:
    tally = Tally()
    for job in jobs:
        tally.run(job)
    tally.end_cycle()
    return tally


def environment() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.processor())
    except OSError:
        cpu = platform.processor()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    lines, digest = 0, hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit,
            "src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def _prepare(name, seed, smoke, outdir):
    import workloads

    return workloads.WORKLOADS[name](seed, smoke, outdir)


def _child_setup_s(name, seed) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=str(ROOT))
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end_metrics(tally, setup_s):
    return {
        "points_per_s": {"value": statistics.median(tally.cycle_rates), "unit": "points/s"},
        "job_p50_s": {"value": statistics.median(tally.times), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def report_changes(plan) -> int:
    """Reports whose bytes differ from the digests recorded for this CLI seed."""
    if not plan.reports:
        return 0
    recorded = json.loads((HERE / "cli_digests.json").read_text(encoding="utf-8"))
    table = recorded.get(plan.digest_key, {})
    return sum(1 for cid, digest in plan.reports.items() if table.get(cid) != digest)


def traced(name, seed, smoke, outdir):
    """Fixed pass untraced, then traced; per-layer metrics of the traced pass."""
    from tracer import Tracer

    with calibrate.Stopwatch() as prep:
        plan = _prepare(name, seed, smoke, outdir)
    Tally().run(plan.jobs[0])  # warm-up, unmeasured
    plain = run_pass(plan.jobs[:plan.trace_jobs])
    tracer = Tracer().install()
    try:
        tplan = tracer.span("corpus", _prepare, name, seed, smoke, outdir)
        tally = run_pass(tplan.jobs[:tplan.trace_jobs])
    finally:
        tracer.uninstall()
    overhead = tally.busy_s / plain.busy_s - 1.0
    layers = tracer.metrics(overhead, tplan.bytes_written, report_changes(tplan))
    return plain, tally, prep.seconds, layers


def show(name, tally, metrics):
    print(f"workload {name}: {tally.attempted} jobs, {tally.failed} failed, "
          f"error_rate {tally.failed / tally.attempted:.4f} ratio")
    for key, m in metrics.items():
        print(f"  {key:30s} {m['value']:.6g} {m['unit']}")
    speed = statistics.median(w / t for w, t in zip(tally.wall, tally.times))
    print(f"  uncalibrated: job_p50_s {statistics.median(tally.wall):.6g} s, "
          f"points per wall second {tally.points / sum(tally.wall):.6g}, "
          f"wall/calibrated time {speed:.4f}")
    for err in tally.errors[:10]:
        print(f"  FAILED {err}")


def tail_line(tally) -> str:
    if tally.attempted >= 100:
        p90 = statistics.quantiles(tally.times, n=10, method="inclusive")[-1]
        return f"  {'job_p90_s':30s} {p90:.6g} s over {tally.attempted} jobs"
    return f"  {'job_p90_s':30s} not reported: {tally.attempted} jobs < 100"


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at tiny size, traced")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    with scratch_dir() as outdir:
        calibrate.reference_s()  # warm the reference code path
        with calibrate.Stopwatch() as setup_clock:
            _load_library()
            import workloads

            names = list(workloads.WORKLOADS) if args.smoke else [args.workload]
            if any(n not in workloads.WORKLOADS for n in names):
                ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
            if not (args.smoke or args.trace):
                plan = _prepare(args.workload, args.seed, False, outdir)
        if args.setup_probe:
            print(f"{setup_clock.seconds:.9f}")
            return 0

        if args.smoke:
            merged, attempted, failed = {}, 0, 0
            for name in names:
                plain, tally, prep_s, layers = traced(name, args.seed, True, outdir)
                e2e = end_to_end_metrics(plain, setup_clock.seconds + prep_s)
                show(name, plain, e2e)
                show(name + " (traced)", tally, layers)
                attempted += plain.attempted + tally.attempted
                failed += plain.failed + tally.failed
                merged.update({f"{name}/{k}": v for k, v in {**e2e, **layers}.items()})
            print("env " + json.dumps(environment()))
            print(result_line(failed == 0, attempted, failed, merged))
            return 0

        name = args.workload
        if args.trace:
            plain, tally, _, layers = traced(name, args.seed, False, outdir)
            show(name + " (traced)", tally, layers)
            print("env " + json.dumps(environment()))
            print(result_line(plain.failed + tally.failed == 0, plain.attempted + tally.attempted,
                              plain.failed + tally.failed, layers))
            return 0

        setup = [setup_clock.seconds] + [_child_setup_s(name, args.seed)
                                         for _ in range(SETUP_SAMPLES - 1)]
        Tally().run(plan.jobs[0])  # warm-up, unmeasured
        tally = run_for(plan, args.seconds)
        metrics = end_to_end_metrics(tally, statistics.median(setup))
        show(name, tally, metrics)
        print(tail_line(tally))
        print(f"  set-up samples: {', '.join(f'{x:.4f}' for x in setup)} s")
        print("env " + json.dumps(environment()))
        print(result_line(tally.failed == 0, tally.attempted, tally.failed, metrics))
        return 0


if __name__ == "__main__":
    sys.exit(main())
