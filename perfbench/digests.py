"""Record the CLI report digests that ``cli.report_changes`` compares against.

    python3 perfbench/digests.py

Runs every corpus case once for each CLI seed the cli-corpus workload can
pass (``seed % CLI_SEEDS``), checks each exit code against its shipped
verdict, and writes ``perfbench/cli_digests.json``: CLI seed -> case id ->
digest of the files the case wrote.  Re-record only when a change is meant
to alter report bytes, and say so with the change.
"""

from __future__ import annotations

import json
import sys

from run import HERE, _load_library, run_pass, scratch_dir


def main() -> int:
    _load_library()
    import workloads

    table, flips = {}, []
    with scratch_dir() as outdir:
        for cli_seed in range(workloads.CLI_SEEDS):
            plan = workloads.cli_corpus(cli_seed, outdir=outdir)
            tally = run_pass(plan.jobs)
            flips += [f"--seed {cli_seed}: {err}" for err in tally.errors]
            table[str(cli_seed)] = dict(sorted(plan.reports.items()))
    for line in flips:
        print("verdict mismatch", line)
    (HERE / "cli_digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                           encoding="utf-8")
    print(f"recorded {sum(len(t) for t in table.values())} digests, {len(flips)} mismatches")
    return 1 if flips else 0


if __name__ == "__main__":
    sys.exit(main())
