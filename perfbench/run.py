"""Closed-loop benchmark of the entropiclab command line.

    python3 perfbench/run.py --workload check-all --seed 7 --trace 0

Run from the repository root.  One client in one process calls
``entropiclab.cli.main`` in process, starting each operation only after the
previous one returned, for about ``run_seconds`` of BENCHMARK.json.  Every
operation's artifacts are checked (see ``workloads.py``); the first cycle of
operations is checked but not timed.

``--trace 0`` runs whole cycles of operations and reports the end-to-end
metrics named in BENCHMARK.json;
``--trace 1`` alternates untraced and traced cycles and reports the per-layer
metrics (see ``tracer.py``), plus ``trace.overhead_s``, the traced minus the
untraced cycle time.  The lines before the last name the environment, how
many samples each metric was taken over and, untraced, each operation kind's
count, median and mean wall time; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
from statistics import fmean, median
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads
from environment import environment
from probe import ROOT, import_cli

OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 2


# -- set-up ---------------------------------------------------------------

def _setup_sample(workload: str, seed: int, work: Path) -> float:
    """Seconds from starting a fresh interpreter to its first operation being ready."""
    command = [sys.executable, str(Path(__file__).resolve().with_name("probe.py")),
               workload, str(seed), str(work)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return ready - start


# -- operations -----------------------------------------------------------

def _run_op(cli, op, recorder=None):
    """Time one ``cli.main`` call; return (seconds, problems)."""
    op.clear()
    main = cli.main if recorder is None else recorder.wrap(cli.main, tracer.ROOT)
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing operation is a failed operation
        code = None
        problems.append(f"{op.label}: raised {exc!r}")
    elapsed = time.perf_counter() - start
    if code is not None:
        problems += op.check(code)
    return elapsed, problems


def _cycle(cli, ops, tally, recorder=None) -> float:
    """Run each operation of the workload once; return their total seconds."""
    total = 0.0
    for op in ops:
        elapsed, problems = _run_op(cli, op, recorder)
        tally.add(problems)
        total += elapsed
    return total


class Tally:
    """Operations attempted and failed; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.fail(*problems)

    def fail(self, *problems) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)


def _untraced(cli, ops, seconds, tally, setup_sample):
    times = {op.label: [] for op in ops}
    cycles, setup = [], []
    probing = 0.0  # seconds spent in set-up samples inside the timed window
    start = time.perf_counter()
    # whole cycles only, so that every operation kind weighs the same in
    # every run, whatever its length
    while not (len(cycles) >= MIN_CYCLES
               and time.perf_counter() - start + median(cycles) > seconds):
        cycle_start, cycle_probing = time.perf_counter(), 0.0
        for op in ops:
            # set-up samples are spread over the run, like the operations, so
            # that both see the same stretch of a machine whose speed drifts
            if (len(setup) < SETUP_REPEATS
                    and time.perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS):
                probe_start = time.perf_counter()
                setup.append(setup_sample())
                cycle_probing += time.perf_counter() - probe_start
            elapsed, problems = _run_op(cli, op)
            tally.add(problems)
            times[op.label].append(elapsed)
        probing += cycle_probing
        cycles.append(time.perf_counter() - cycle_start - cycle_probing)
    # the window holds the operations, their checks and the loop between
    # them, but not the set-up samples taken in it
    window = time.perf_counter() - start - probing
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample())
    operations = sum(len(t) for t in times.values())
    metrics = {
        "setup_s": median(setup),
        "ops_per_s": operations / window,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setup), "ops_per_s": operations, "peak_rss_mb": 1}
    # per operation kind: how many, and the median and mean wall time of one
    latency = {label: {"n": len(t), "p50_s": median(t), "mean_s": fmean(t)}
               for label, t in times.items()}
    return metrics, samples, latency


def _traced(cli, ops, seconds, tally, spans_path):
    from entropiclab.suite import criterion_names

    criteria = criterion_names()
    plain, traced, cycles = [], [], []
    start = time.perf_counter()
    while not (len(cycles) >= MIN_TRACED_CYCLES
               and time.perf_counter() - start + median(plain) + median(traced) > seconds):
        plain.append(_cycle(cli, ops, tally))
        recorder = tracer.Tracer()
        recorder.install()
        try:
            traced.append(_cycle(cli, ops, tally, recorder))
        finally:
            recorder.uninstall()
        cycles.append(tracer.layer_metrics(recorder, criteria))

        expected = tracer.exact_counts(cycles[0])
        mismatched = {name: (expected[name], value)
                      for name, value in tracer.exact_counts(cycles[-1]).items()
                      if value != expected[name]}
        if mismatched:
            tally.fail(f"traced cycle {len(cycles)} counts differ from the first: {mismatched}")
    recorder.write_spans(spans_path)

    # counts are whole numbers, checked above to repeat exactly
    metrics = {name: cycles[0][name] if isinstance(cycles[0][name], int)
               else median(cycle[name] for cycle in cycles)
               for name in cycles[0]}
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    return metrics, dict.fromkeys(metrics, len(cycles)), None


# -- reporting ------------------------------------------------------------

def _select(metrics: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"run.py: BENCHMARK.json names metrics the run did not produce: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int,
                        help="must be run_seconds of BENCHMARK.json, which sets the run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = declared["run_seconds"]
    if args.seconds not in (None, seconds):
        parser.error(f"--seconds {args.seconds} differs from run_seconds {seconds} of BENCHMARK.json")
    cli = import_cli()

    work = OUT / f"work-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, work / "run")
        tally = Tally()
        # one checked but untimed cycle first, inside the run's length: the
        # first call of an operation pays for lazy initialisation (the first
        # dim-256 evolve-s takes about twice as long as the later ones)
        warm_up_start = time.perf_counter()
        _cycle(cli, ops, tally)
        seconds -= time.perf_counter() - warm_up_start
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, samples, latency = _traced(cli, ops, seconds, tally, spans_path)
            declared_metrics = declared["per_layer"]
            print(f"spans: {spans_path.relative_to(ROOT)}")
        else:
            setup_sample = functools.partial(_setup_sample, args.workload, args.seed, work / "setup")
            metrics, samples, latency = _untraced(cli, ops, seconds, tally, setup_sample)
            declared_metrics = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    selected = _select(metrics, declared_metrics)
    print("environment: " + json.dumps(environment(ROOT), sort_keys=True))
    print("samples: " + json.dumps({name: samples[name] for name in selected}))
    if latency is not None:
        print("operations: " + json.dumps(latency))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": selected,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
