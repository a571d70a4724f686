"""One set-up of a benchmark run, in a fresh interpreter.

    python3 perfbench/probe.py <workload> <seed> <work directory>

Imports ``entropiclab.cli``, writes the workload's inputs under the work
directory and prints ``ready``.  ``run.py`` starts this script several times
per run and times each start until ``ready`` as ``setup_s``; it imports only
what that set-up needs, so that the benchmark's own modules stay out of the
timed interval.
"""
from __future__ import annotations

import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    """``entropiclab.cli`` from this checkout's ``src``, never an installed copy."""
    package = ROOT / "src" / "entropiclab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no entropiclab package at {package}")
    sys.path.insert(0, str(package.parent))
    from entropiclab import cli

    if Path(cli.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported entropiclab from {cli.__file__}, not {package}")
    return cli


if __name__ == "__main__":
    workload, seed, work = sys.argv[1:]
    import_cli()
    workloads.build(workload, int(seed), Path(work))
    print("ready", flush=True)
