"""Alternating parent/change pairs of the benchmark, summarised per workload and metric.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent ../base --change ../head \\
        --workload complete-sweep --workload cli-corpus --seeds 1 --pairs 10 --out BENCH_<n>.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in the
parent checkout and once in the change checkout, one after the other, T being the
``run_seconds`` of the change's ``BENCHMARK.json``; the side that runs first alternates from
pair to pair.  The two checkouts must sit in directories whose paths
have the same length, because the benchmark's peak resident memory moves with the path.
``setup_s`` falls into one of two modes from run to run, so a summary needs ten pairs or more,
the default.

The output file holds every run's result line under ``runs`` and, under ``summary`` (or the
``--label`` given), each workload's end-to-end metrics: the median and quartile distance of
each side, the change over the parent, and in how many pairs the change read better (a tie
counts for neither side), with the better direction read from ``BENCHMARK.json``.  When the
file exists, the new runs are appended to it, and the summary of each workload run replaces
that workload's entry under the label.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list:
    """Seeds written as ``1``, ``1,4,7`` or ``381-385``."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(root: Path, workload: str, seed: int, seconds) -> dict:
    """The result line of one benchmark run in the checkout ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{' '.join(cmd)} in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartile_distance(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(runs: list, metrics: dict) -> dict:
    """Per workload: each end-to-end metric's medians, quartile distances and pair wins."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault((r["seed"], r["pair"]), {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        summary = {}
        for name, better in metrics.items():
            got = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                   for p in pairs if all(name in p[s]["metrics"] for s in ("parent", "change"))]
            if not got:
                continue
            parent, change = [a for a, _ in got], [b for _, b in got]
            wins = sum(b > a if better == "higher" else b < a for a, b in got)
            summary[name] = {
                "parent_median": statistics.median(parent), "parent_iqr": quartile_distance(parent),
                "change_median": statistics.median(change), "change_iqr": quartile_distance(change),
                "change_over_parent": statistics.median(change) / statistics.median(parent),
                "pairs": len(got), "pairs_change_better": wins,
            }
        summary["failed"] = {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")}
        summary["correct"] = {s: all(p[s]["correct"] is not False for p in pairs) for s in ("parent", "change")}
        out[workload] = summary
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several")
    ap.add_argument("--seeds", type=seeds, default=[1], help="1, 1,4,7 or 381-385 (default 1)")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed (default 10)")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write or extend")
    ap.add_argument("--label", default="summary", help="key of this invocation's summary")
    args = ap.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(roots["parent"])) != len(str(roots["change"])):
        ap.error(f"checkout paths differ in length: {roots['parent']} and {roots['change']}")
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload <workload> --seed <seed> "
                              f"--seconds {seconds} --trace 0")
    doc.setdefault("env", {"python": platform.python_version()})
    runs, new = doc.setdefault("runs", []), []
    for workload in args.workload:
        for seed in args.seeds:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    result = run(roots[side], workload, seed, seconds)
                    new.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                                "first": order[0], "label": args.label, "result": result})
                    print(workload, seed, pair, side, json.dumps(result["metrics"]), flush=True)
    runs += new
    doc.setdefault(args.label, {}).update(summarise(new, metrics))
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(doc[args.label], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
