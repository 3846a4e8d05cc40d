"""Run each workload repeatedly and report how steady its end-to-end metrics are.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workloads NAME ...]

Each run is `bench/run.py` in its own process with the next seed.  For
every workload and end-to-end metric this prints the median, the first and
third quartiles, the spread (Q3 - Q1) / median and the metric's bound from
BENCHMARK.json, and checks that the same ops failed in every run.  Exits 1
if a spread (other than setup_s) reaches a third of its bound, if an answer
was wrong, or if the failed ops differ between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload: str, seed: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(proc.stderr.strip().splitlines()[-1])
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)

    steady = True
    print("%-15s %-12s %12s %12s %12s %8s %6s" % ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload in args.workloads:
        runs = [one_run(workload, args.first_seed + k) for k in range(args.runs)]
        for metric in SPEC["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"] for result, _ in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            verdict = "" if metric["name"] == "setup_s" else ("ok" if spread < metric["bound"] / 3 else "WIDE")
            steady &= verdict != "WIDE"
            print("%-15s %-12s %12.5g %12.5g %12.5g %8.4f %6.2f %s" % (
                workload, metric["name"], median, q1, q3, spread, metric["bound"], verdict))
        failed_sets = {tuple(detail["failed_keys"]) for _, detail in runs}
        shares = {(result["failed"], result["attempted"]) for result, _ in runs}
        wrong = sorted({key for _, detail in runs for key in detail["wrong_keys"]})
        same = len(failed_sets) == 1 and len(shares) == 1
        steady &= same and not wrong and all(result["correct"] for result, _ in runs)
        failed, attempted = sorted(shares)[0]
        print("%-15s failed %d of %d attempted; same failed ops in all %d runs: %s; wrong answers: %s" % (
            workload, failed, attempted, args.runs, "yes" if same else "NO", ", ".join(wrong) or "none"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
