"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs ``run.py --smoke`` twice: every workload once at tiny size, traced.
   Every metric named in BENCHMARK.json must be emitted for every workload
   with its declared unit, every output check must pass, and every count
   metric must repeat exactly between the two runs.
2. Feeds deliberately wrong expectations through the job runner (a broken
   corpus case expected to PASS, a job that raises) and requires them to
   be counted as failures rather than crash the run.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   perfbench/, and requires a non-zero exit without a result line.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, Tally, _load_library, run_pass, scratch_dir

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def smoke(seed: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed)],
                         capture_output=True, text=True, timeout=900, cwd=str(ROOT))
    expect(out.returncode == 0, f"smoke run exits 0 (got {out.returncode})")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_smoke():
    first, second = smoke(3), smoke(3)
    expect(first["correct"] and first["failed"] == 0,
           f"smoke outputs correct ({first['failed']} of {first['attempted']} failed)")
    wanted = SPEC["end_to_end"] + SPEC["per_layer"]
    for wl in SPEC["workloads"]:
        missing = [m["name"] for m in wanted
                   if first["metrics"].get(f"{wl['name']}/{m['name']}", {}).get("unit") != m["unit"]]
        expect(not missing, f"{wl['name']}: every metric emitted with its unit {missing or ''}")
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
        differ = [c for c in counts if first["metrics"][f"{wl['name']}/{c}"]["value"]
                  != second["metrics"][f"{wl['name']}/{c}"]["value"]]
        expect(not differ, f"{wl['name']}: count metrics repeat exactly {differ or ''}")


def check_wrong_expectations():
    _load_library()
    import workloads
    from kcontact import corpus

    cases = [("telegrapher", corpus.ExpectedCase("check-hj", "classical-zind", "standard", "PASS")),
             ("telegrapher", corpus.ExpectedCase("check-hj", "classical-zind-wrong-root",
                                                 "standard", "PASS"))]
    with scratch_dir() as tmp:
        plan = workloads.cli_corpus(0, outdir=tmp, cases=cases)
        tally = run_pass(plan.jobs)
    expect(tally.attempted == 2 and tally.failed == 1,
           f"broken corpus case expected to PASS counts as a failure ({tally.errors})")

    def boom():
        raise ZeroDivisionError("deliberate")

    tally = run_pass([workloads.Job("raises", 1, boom, lambda out: None)])
    expect(tally.attempted == 1 and tally.failed == 1, "a job that raises counts as a failure")
    tally = Tally()
    tally.run(workloads.Job("bad check", 1, lambda: 1.0, lambda out: "deliberately wrong"))
    expect(tally.failed == 1 and tally.points == 0, "a failed check adds no points")


def check_without_sources():
    with scratch_dir() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        shutil.copytree(HERE, tmp / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                             capture_output=True, text=True, timeout=180, cwd=str(tmp))
    expect(out.returncode != 0 and '"metrics"' not in out.stdout,
           f"without src/ the benchmark fails (exit {out.returncode}) and prints no result")


if __name__ == "__main__":
    check_wrong_expectations()
    check_without_sources()
    check_smoke()
    print(f"{len(FAILURES)} self-test failures")
    sys.exit(1 if FAILURES else 0)
