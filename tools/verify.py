"""Digests of suite verdicts and bulk artifacts, to check that a change keeps them bit for bit.

    python tools/verify.py digest 1:21 --out a.json      # seeds 1..20 (A:B is half-open)
    python tools/verify.py artifacts 7:9 --out b.json    # seeds 7 and 8
    python tools/verify.py diff a.json a2.json           # lists the seeds whose digests differ

``digest`` runs ``suite.run_all`` in process for each seed and records the
sha256 of every criterion's ``to_dict()`` JSON.  ``artifacts`` builds the
``bulk-output-gravity`` workload of ``perfbench/workloads.py`` for each seed
in a temporary directory, adds a ``fluct`` of ``BIG_FLUCT`` samples, runs
each operation through ``cli.main`` in process and records the sha256 of
every CSV and of every run record without its ``wall_clock_s``.  Run either
once per checkout, with that checkout's ``src`` first on ``PYTHONPATH``,
and ``diff`` the two files of one kind.  ``diff`` exits 0 when no seed
differs and 1 otherwise.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BIG_FLUCT = 1_000_000


def _seeds(text: str) -> range:
    start, _, stop = text.partition(":")
    seeds = range(int(start), int(stop) if stop else int(start) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(seeds) -> dict:
    """``{seed: {criterion: sha256 of its to_dict() JSON}}`` for each seed."""
    from entropiclab.suite import run_all

    table = {}
    for seed in seeds:
        table[str(seed)] = {
            result.name: _sha256(json.dumps(result.to_dict(), sort_keys=True,
                                            default=lambda value: value.tolist()).encode())
            for result in run_all(seed)
        }
    return table


def _with_big_fluct(ops, work: Path) -> list:
    """``ops`` and a copy of their ``fluct`` operation that draws ``BIG_FLUCT`` samples."""
    fluct = next(op for op in ops if op.label == "fluct")
    config = json.loads(Path(fluct.argv[2]).read_text(encoding="utf-8"))
    config["fluct"]["n"] = BIG_FLUCT
    label = f"fluct-n{BIG_FLUCT}"
    config_path = work / f"{label}.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    out, record = work / f"{label}.csv", work / f"{label}.record.json"
    argv = ["fluct", "--config", str(config_path), "--out", str(out), "--record", str(record)]
    return ops + [dataclasses.replace(fluct, label=label, argv=argv, csv_path=out,
                                      record_path=record, csv_rows=BIG_FLUCT)]


def artifacts(seeds) -> dict:
    """``{seed: {file name: sha256}}`` of each artifact of the bulk operations, per seed."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads
    from entropiclab.cli import main

    table = {}
    with tempfile.TemporaryDirectory() as scratch:
        for seed in seeds:
            work = Path(scratch) / str(seed)
            ops = _with_big_fluct(workloads.build("bulk-output-gravity", seed, work), work)
            files = {}
            for op in ops:
                problems = op.check(main(op.argv))
                if problems:
                    raise RuntimeError(f"seed {seed}: {'; '.join(problems)}")
                record = json.loads(op.record_path.read_text(encoding="utf-8"))
                del record["wall_clock_s"]
                files[op.csv_path.name] = _sha256(op.csv_path.read_bytes())
                files[op.record_path.name] = _sha256(json.dumps(record, sort_keys=True).encode())
            table[str(seed)] = files
    return table


def differing(first: dict, second: dict) -> dict:
    """``{seed: [criteria or files whose digests differ]}`` over the seeds of either table."""
    found = {}
    for seed in sorted(set(first) | set(second), key=int):
        a, b = first.get(seed, {}), second.get(seed, {})
        names = sorted(name for name in set(a) | set(b) if a.get(name) != b.get(name))
        if names:
            found[seed] = names
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="verify", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("digest", "sha256 of every criterion's result, per seed"),
                            ("artifacts", "sha256 of every bulk-output artifact, per seed")):
        run = commands.add_parser(name, help=help_text)
        run.add_argument("seeds", type=_seeds, help="seed range A:B, half-open, or one seed")
        run.add_argument("--out", help="write the digest JSON here instead of stdout")
    compare = commands.add_parser("diff", help="list the seeds whose digests differ")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args(argv)

    if args.command != "diff":
        table = (digest if args.command == "digest" else artifacts)(args.seeds)
        text = json.dumps(table, indent=1, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return 0

    tables = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as handle:
            tables.append(json.load(handle))
    found = differing(*tables)
    for seed, names in found.items():
        print(f"seed {seed}: {', '.join(names)}")
    print(f"{len(found)} of {len(set(tables[0]) | set(tables[1]))} seeds differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
