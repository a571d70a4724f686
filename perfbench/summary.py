"""Repeat the benchmark in fresh processes and summarise every metric.

    python3 perfbench/summary.py --workload bulk-output-gravity --seed 7 --runs 3 --out results.json

Run from the repository root.  Makes ``--runs`` untraced and ``--runs``
traced runs of ``perfbench/run.py`` with the same workload and seed, one
after another, and prints for each metric its unit, the number of runs, the
number of samples the runs took it over, the median and the quartiles across
runs.  ``failed_ratio`` is failed over attempted operations, summed over all
runs.  The traced runs must reproduce every exact count (``tracer.exact_counts``)
of the first; a count that differs is reported and fails the summary.  With
``--out`` the table, every run's result and the environment are written as
JSON, with each untraced run's per-operation counts, medians and means.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, trace: int) -> tuple:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"summary.py: {' '.join(command)} exited with code {done.returncode}")
    labelled = {label: json.loads(rest) for label, _, rest in
                (line.partition(": ") for line in lines[:-1])
                if label in ("environment", "samples", "operations")}
    return json.loads(lines[-1]), labelled["samples"], labelled.get("operations"), labelled["environment"]


def _row(values: list) -> dict:
    q1, q3 = (values[0], values[0]) if len(values) < 2 else statistics.quantiles(values, n=4)[::2]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", help="write the summary, every result and the environment here")
    args = parser.parse_args(argv)

    results, values, units, sample_counts = [], {}, {}, {}
    environment = None
    for trace in (0, 1):
        for _ in range(args.runs):
            result, samples, operations, environment = _run(args.workload, args.seed, trace)
            results.append(dict(result, trace=trace, samples=samples, operations=operations))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
                sample_counts[name] = sample_counts.get(name, 0) + samples[name]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    values["failed_ratio"], units["failed_ratio"] = [failed / attempted], "1"
    sample_counts["failed_ratio"] = attempted

    traced = [{name: m["value"] for name, m in r["metrics"].items()}
              for r in results if r["trace"]]
    expected = tracer.exact_counts(traced[0]) if traced else {}
    mismatched = {name: sorted({run[name] for run in traced})
                  for name in expected if any(run[name] != expected[name] for run in traced)}

    summary = {name: dict(_row(v), unit=units[name], samples=sample_counts[name])
               for name, v in values.items()}
    print(f"workload {args.workload}, seed {args.seed}, {args.runs} untraced + {args.runs} traced "
          f"runs; {failed} of {attempted} operations failed")
    print(f"{'metric':44} {'unit':6} {'n':>3} {'samples':>8} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, row in summary.items():
        print(f"{name:44} {row['unit']:6} {row['n']:3d} {row['samples']:8d} {row['median']:14.6g} "
              f"{row['q1']:14.6g} {row['q3']:14.6g}")
    for name, seen in mismatched.items():
        print(f"FAILED {name} differs between traced runs of one seed: {seen}", file=sys.stderr)
    print("environment: " + json.dumps(environment, sort_keys=True))
    if args.out:
        document = {"workload": args.workload, "seed": args.seed, "environment": environment,
                    "summary": summary, "count_mismatches": mismatched, "runs": results}
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0 if failed == 0 and not mismatched else 1


if __name__ == "__main__":
    sys.exit(main())
