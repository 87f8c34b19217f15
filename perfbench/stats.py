"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/stats.py --seeds 1-10 [--workloads pipeline,cli-corpus]
                               [--trace-seed 1] [--out FILE] [--compare FILE]

Runs ``run.py`` once per workload and seed, one run at a time, with the
run length from BENCHMARK.json.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound.
``--trace-seed`` adds one traced run per workload.  ``--out`` writes the
summary with the environment record; ``--compare`` checks each median
against an earlier summary and the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, _load_library, environment

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload, seed, trace):
    """The result object of one run, plus its uncalibrated figures under "raw"."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=str(ROOT))
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = next((ln for ln in lines if ln.strip().startswith("uncalibrated:")), None)
    if raw is not None:
        # "uncalibrated: job_p50_s X s, points per wall second Y, wall/calibrated time Z"
        words = raw.replace(",", "").split()
        result["raw"] = {"job_p50_s": float(words[2]), "points_per_wall_s": float(words[8]),
                         "wall_over_calibrated": float(words[-1])}
    return result


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    earlier = json.loads(open(args.compare, encoding="utf-8").read()) if args.compare else None
    summary = {"run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, 0) for seed in seeds_of(args.seeds)]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {},
                 "uncalibrated": {k: summarise([r["raw"][k] for r in runs])
                                  for k in runs[0]["raw"]}}
        print(f"{workload}: {entry['attempted']} jobs, {entry['failed']} failed")
        for name, m in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            line = (f"  {name:14s} median {s['median']:.6g} {m['unit']}  q1 {s['q1']:.6g}  "
                    f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {m['bound']}")
            if name != "setup_s" and s["spread"] > m["bound"] / 3:
                line += "  SPREAD ABOVE BOUND/3"
                ok = False
            if earlier:
                before = earlier["workloads"][workload]["end_to_end"][name]["median"]
                worse = (s["median"] - before) / before * (1 if m["better"] == "lower" else -1)
                line += f"  vs earlier {worse:+.4f}"
                if worse > m["bound"]:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)
        if args.trace_seed is not None:
            traced = one_run(workload, args.trace_seed, 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        _load_library()
        summary["environment"] = environment()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
