"""Digests of the invariant suite, for checking that a change keeps every verdict bit for bit.

    python tools/verify.py digest 1:21 --out a.json   # seeds 1..20 (A:B is half-open)
    python tools/verify.py diff a.json b.json         # lists the seeds whose digests differ

``digest`` runs ``suite.run_all`` in process for each seed and records the
sha256 of every criterion's ``to_dict()`` JSON.  Run it once per checkout,
with that checkout's ``src`` first on ``PYTHONPATH``, and ``diff`` the two
files.  ``diff`` exits 0 when no seed differs and 1 otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys


def _seeds(text: str) -> range:
    start, _, stop = text.partition(":")
    seeds = range(int(start), int(stop) if stop else int(start) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def digest(seeds) -> dict:
    """``{seed: {criterion: sha256 of its to_dict() JSON}}`` for each seed."""
    from entropiclab.suite import run_all

    table = {}
    for seed in seeds:
        table[str(seed)] = {
            result.name: hashlib.sha256(
                json.dumps(result.to_dict(), sort_keys=True,
                           default=lambda value: value.tolist()).encode()
            ).hexdigest()
            for result in run_all(seed)
        }
    return table


def differing(first: dict, second: dict) -> dict:
    """``{seed: [criteria whose digests differ]}`` over the seeds of either table."""
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
    run = commands.add_parser("digest", help="sha256 of every criterion's result, per seed")
    run.add_argument("seeds", type=_seeds, help="seed range A:B, half-open, or one seed")
    run.add_argument("--out", help="write the digest JSON here instead of stdout")
    compare = commands.add_parser("diff", help="list the seeds whose digests differ")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args(argv)

    if args.command == "digest":
        text = json.dumps(digest(args.seeds), indent=1, sort_keys=True) + "\n"
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
