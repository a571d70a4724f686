"""Digests of suite verdicts and bulk artifacts, to check that a change keeps them bit for bit.

    python tools/verify.py digest 1:21 --out a.json      # seeds 1..20 (A:B is half-open)
    python tools/verify.py artifacts 7:9 --out b.json    # seeds 7 and 8
    python tools/verify.py diff a.json a2.json           # lists the seeds whose digests differ
    python tools/verify.py sweep 0:1000                  # lists every failing criterion
    python tools/verify.py floats 100000000 --seed 1     # the CSV float kernel against repr
    python tools/verify.py moments 0:100                 # streamed covariance moments against NumPy
    python tools/verify.py schema 1:21                   # the schema walker against jsonschema

``digest`` calls ``suite.run_all`` for each seed, which runs the criteria
in forked workers on two CPUs or more, and records the sha256 of every
criterion's ``to_dict()`` JSON.  ``artifacts`` builds the
``bulk-output-gravity`` workload of ``perfbench/workloads.py`` for each seed
in a temporary directory, adds a ``fluct`` of ``BIG_FLUCT`` samples and a
``gravity`` of ``BIG_GRAVITY_PROBES`` probes and ``BIG_GRAVITY_SAMPLES``
region samples, so that the digests cover the CSV blocks and the gravity
row ranges that run in forked workers, and adds the small scenario runs of
``scenario_configs``: ``evolve-h`` and ``evolve-s`` under ``hbar = 0.7,
kB = 1.3``, all three ``compare-pictures`` modes, a ``gravity`` whose
record holds a weak-field epsilon, an ``onsager`` of a symmetric system
given as flat lists and one of an asymmetric system given as nested rows,
a ``stokes`` over three resolutions, and the runs that cross CSV block
edges: a ``fluct`` of ``EDGE_SAMPLES`` samples under ``kB = 1.3`` and a
two-level ``evolve-s`` of ``EDGE_POINTS`` points on each schedule.  It runs
each operation through
``cli.main`` in process and records the sha256 of every CSV and of every
run record without its ``wall_clock_s``.  Run either once per checkout,
with that checkout's ``src`` first on ``PYTHONPATH``, and ``diff`` the two
files of one kind; run one copy of this script for both checkouts, so
that both files hold the same runs.  ``diff`` exits 0 when no seed
differs and 1 otherwise.  ``sweep`` calls ``run_all`` for each seed and
prints one line per failing criterion, with its measured value and
details, then the number of failures; it exits 0 whatever it finds.
``floats`` writes ``count`` random 64-bit patterns read as doubles (every
exponent, NaN and infinity among them), then ``edge_floats()``, as a CSV
column, through ``entropiclab._shortest`` as every CSV float is written,
and compares the bytes with ``repr``'s; it prints each double that
differs and exits 1 if there is any.  ``moments`` draws the samples of the
``fluctuation-covariance`` criterion for each seed, both as the criterion
streams them and as whole columns, and compares the mean and the standard
deviation (ddof = 1) of each of the six quantities the criterion merges
group by group with NumPy's whole-column two-pass ``mean`` and ``std``, each
gap relative to the column's standard deviation, so that a mean near zero
does not set the figure; it prints the largest relative gap per seed and
exits 1 if any exceeds ``MOMENTS_TOLERANCE``.  ``schema`` validates one
corpus with the package's own schema walker (``config._validate``) and with
``jsonschema``'s Draft 2020-12 validator under the package's integer rule,
the only place ``jsonschema`` is imported, and compares the error lines
each gives, text and order included.  The corpus is every config of
``scenario_configs`` and of both benchmark workloads at each seed (the
workloads validate their configs as they write them, so a walker that
rejects one stops the tool there), each of which must pass; the copies of
the first seed's configs with one change each (a value replaced by one of
``MUTATIONS`` or removed, or an unknown key added); and the committed
invalid documents of ``schema_cases.json``, which must fail, at least one
for each keyword the walker implements.  It prints each document on which
the two differ and exits 1 if there is any.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCHEMA_CASES = Path(__file__).resolve().with_name("schema_cases.json")
# the schema definition of each input file a workload writes besides its configs
DEFINITIONS = {"lattice.json": "source_descriptor"}
# what a mutant puts in place of one value of a valid config
MUTATIONS = ("x", -1, 0, 2.5, 5.0, True, None, [], {})
BIG_FLUCT = 1_000_000
BIG_GRAVITY_PROBES = 1_000
# three whole sample blocks of seeding.BLOCK_SAMPLES and one sample more
BIG_GRAVITY_SAMPLES = 3 * 4_096 + 1
# three whole CSV blocks of fluct (moment groups of 16,384 samples) and part
# of a fourth, which ends in part of a sample block
EDGE_SAMPLES = 50_001
# two whole CSV blocks of a two-level evolve-s (8,192 rows of 8 cells) and
# part of a third
EDGE_POINTS = 20_001
MOMENTS_TOLERANCE = 1e-12
# the quantities of fluctuations._Moments, in its order
QUANTITIES = ("dS dT/(kB T)", "dp dV/(kB T)", "dT dV", "dS (dT/T)/kB", "dT", "dV")


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


def sweep(seeds) -> list:
    """``(seed, result)`` for every criterion of ``run_all(seed)`` that fails, per seed."""
    from entropiclab.suite import run_all

    return [(seed, result) for seed in seeds for result in run_all(seed) if not result.passed]


def edge_floats():
    """Doubles where a shortest round-trip formatter goes wrong first, both signs.

    Every power of two from 2^-1074 to 2^1023 and every power of ten, each
    with both neighbours; the 1e-4 and 1e16 notation thresholds; the
    smallest and largest subnormals and the largest finite double; the
    integers around 2^53 and 10^15..10^16; sums like 0.1 + 0.2; and zero,
    the infinities and NaNs with payloads.
    """
    import numpy as np

    twos = np.concatenate([np.uint64(1) << np.arange(52, dtype=np.uint64),
                           np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)])
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.uint64)
    bits = np.concatenate([twos - np.uint64(1), twos, twos + np.uint64(1),
                           tens - np.uint64(1), tens, tens + np.uint64(1)])
    near = np.arange(-64, 65, dtype=np.float64)
    values = [
        1e-4, 9.999999999999999e-05, 0.00010000000000000002, 0.00012345678901234567,
        1e16, 9999999999999998.0, 1.0000000000000002e16, 1234567890123456.7,
        5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, 0.1 + 0.2, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.7, 1.1, 100.0,
        123456789.0, 2.5, 0.5, 0.0, float("inf"), float("nan"),
        *(2.0 ** 53 + near), *(1e15 + near), *(1e16 - 2 * near), *(10.0 ** np.arange(16)),
    ]
    payloads = np.array([0x7FF0000000000001, 0x7FF4000000000000, 0x7FFFFFFFFFFFFFFF],
                        dtype=np.uint64)
    magnitudes = np.concatenate([bits.view(np.float64), values, payloads.view(np.float64)])
    return np.concatenate([magnitudes, -magnitudes])


def _float_texts(values):
    """``values`` as one CSV column, written by ``cli._format_block`` and by ``repr``."""
    from entropiclab.cli import _format_block

    return _format_block([values]), "".join(f"{value!r}\r\n" for value in values.tolist())


def floats(count: int, seed: int, chunk: int = 1 << 20) -> tuple:
    """``(mismatches, doubles compared)``: ``count`` random bit patterns from ``seed``,
    then ``edge_floats()``, each mismatch as ``(bits, repr's text, the kernel's)``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    batches = (rng.integers(0, 1 << 64, min(chunk, count - start), dtype=np.uint64)
               .view(np.float64) for start in range(0, count, chunk))
    mismatches, compared = [], 0
    for values in itertools.chain(batches, [edge_floats()]):
        got, expected = _float_texts(values)
        compared += len(values)
        if got != expected:
            mismatches += [
                (bits, want, have) for bits, want, have in zip(
                    values.view(np.uint64).tolist(), expected.splitlines(), got.splitlines())
                if want != have
            ]
    return mismatches, compared


def moments(seed: int, n: int = 1_000_000) -> tuple:
    """``(largest relative gap, the statistic it is for)`` between the merged group
    moments of ``check_fluctuation_covariance(seed)``'s ``n`` draws and NumPy's
    whole-column ``mean`` and ``std(ddof=1)`` of the same quantities, each gap
    relative to the column's ``std(ddof=1)``."""
    import numpy as np

    from entropiclab.constants import NATURAL
    from entropiclab.fluctuations import ThermoReference, _streamed_moments, gaussian_sample

    ref = ThermoReference.ideal_gas(1.0, 1.0, 1.0)  # the criterion's reference
    streamed = _streamed_moments(ref, n, seed, NATURAL)
    samples = gaussian_sample(ref, n, seed)
    columns = streamed.quantities(samples.dp, samples.dV, samples.dT, samples.dS,
                                  np.empty((6, n)))
    gaps = []
    for name, column, mean, std in zip(QUANTITIES, columns, streamed.mean, streamed.std()):
        # a mean that lies near zero is measured on the scale of the column
        scale = column.std(ddof=1)
        gaps.append((float(abs(mean - column.mean()) / scale), f"mean of {name}"))
        gaps.append((float(abs(std - scale) / scale), f"std of {name}"))
    return max(gaps)


def _written(work: Path, label: str, scenario: str, config: dict) -> tuple:
    """``(argv, CSV path, record path)`` of a run named ``label``, its config written under ``work``."""
    config_path = work / f"{label}.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    out, record = work / f"{label}.csv", work / f"{label}.record.json"
    argv = [scenario, "--config", str(config_path), "--out", str(out), "--record", str(record)]
    return argv, out, record


def _variant(op, work: Path, label: str, edit, csv_rows: int):
    """A copy of operation ``op`` named ``label``, its config changed in place by ``edit``."""
    config = json.loads(Path(op.argv[2]).read_text(encoding="utf-8"))
    edit(config)
    argv, out, record = _written(work, label, op.argv[0], config)
    return dataclasses.replace(op, label=label, argv=argv, csv_path=out, record_path=record,
                               csv_rows=csv_rows)


def _with_big_copies(ops, work: Path, seed: int) -> list:
    """``ops``, a copy of their ``fluct`` that draws ``BIG_FLUCT`` samples, and a copy of
    their ``gravity`` with ``BIG_GRAVITY_PROBES`` probes and ``BIG_GRAVITY_SAMPLES`` samples."""
    import numpy as np

    def big_fluct(config):
        config["fluct"]["n"] = BIG_FLUCT

    def big_gravity(config):
        # 2 to 4 from the centre of the unit-cube lattice, whose half-diagonal is 0.87
        rng = np.random.default_rng([seed, 3])
        directions = rng.standard_normal((BIG_GRAVITY_PROBES, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        probes = 0.5 + directions * rng.uniform(2.0, 4.0, (BIG_GRAVITY_PROBES, 1))
        config["gravity"]["probes"] = probes.tolist()
        config["gravity"]["region"]["samples"] = BIG_GRAVITY_SAMPLES

    by_label = {op.label: op for op in ops}
    return ops + [
        _variant(by_label["fluct"], work, f"fluct-n{BIG_FLUCT}", big_fluct, BIG_FLUCT),
        _variant(by_label["gravity"], work, f"gravity-p{BIG_GRAVITY_PROBES}", big_gravity,
                 BIG_GRAVITY_PROBES),
    ]


def scenario_configs(seed: int) -> list:
    """``(label, config, CSV rows)`` of the small scenario runs ``artifacts`` adds.

    The evolutions run under ``hbar = 0.7`` (and ``kB = 1.3`` in thermal
    time), where each exponent rounds as its own expression forms it.  The
    thermal-time runs cover both schedules, a shifted generator on each
    branch (so that the dilatation and contraction verdicts are computed)
    and every ``compare-pictures`` mode.  The ``onsager`` systems are drawn
    from the seed: the symmetric one's record holds the production-rate
    verdict, and the asymmetric one's kinetic matrix is flagged instead.
    The edge runs end in part of a CSV block, after whole ones, so that
    the blocks' producers meet at their edges.
    """
    import numpy as np

    units = {"hbar": 0.7, "kB": 1.3}
    hamiltonian = {"kind": "random_hermitian", "dim": 4, "seed": seed}
    shifted = dict(hamiltonian, shift_nonnegative=True)
    common = {"state": {"kind": "random", "seed": seed + 1},
              "grid": {"start": 0.0, "stop": 2.0, "num": 9}}

    def evolve_h(**block):
        return {"scenario": "evolve-h", "constants": {"hbar": 0.7},
                "evolve_h": dict(common, hamiltonian=hamiltonian, **block)}

    def evolve_s(generator, **block):
        return {"scenario": "evolve-s", "constants": units,
                "evolve_s": dict(common, hamiltonian=generator, **block)}

    def compare(mode):
        return {"scenario": "compare-pictures", "constants": units, "compare_pictures": dict(
            common, hamiltonian=hamiltonian, reference_temperature=1.3, mode=mode,
            epsilon=0.0 if mode == "real_C" else -0.2)}

    probes = [[3.0, 1.0, 0.0], [0.5, -2.25, 7.0]]
    gravity = {"scenario": "gravity", "seed": seed, "gravity": {
        "source": {"spacing": 0.5, "origin": [0.0, 0.0, 0.0], "shape": [3, 3, 3],
                   "primitives": [{"kind": "point", "position": [0.75, 0.75, 0.75],
                                   "mass": 2.0}]},
        "probes": probes,
        "region": {"shape": "ball", "center": [4.0, 0.75, 0.75], "radius": 0.5,
                   "samples": 500},
    }}

    rng = np.random.default_rng([seed, 4])

    def onsager(n, points, symmetric):
        a, b, c = (rng.standard_normal((n, n)) for _ in range(3))
        kinetic = a @ a.T + 0.5 * np.eye(n)
        if not symmetric:  # an antisymmetric part keeps the kinetic matrix regular
            kinetic += c - c.T
        hessian = b @ b.T + 0.5 * np.eye(n)
        # the symmetric system's matrices as row-major flat lists, the other's as rows
        shape = (n * n,) if symmetric else (n, n)
        system = {"N": n, "L": kinetic.reshape(shape).tolist(),
                  "G": hessian.reshape(shape).tolist(), "y0": rng.standard_normal(n).tolist()}
        return {"scenario": "onsager", "onsager": {
            "system": system, "grid": {"start": 0.0, "stop": 3.0, "num": points}}}

    # one patch for every seed: at about 1% of patch seeds (17 and 102 among
    # them) the fitted order falls below the verdict's 1.9 (ROADMAP item 1)
    resolutions = [16, 32, 64]
    stokes = {"scenario": "stokes", "stokes": {"patch": {"kind": "fourier", "seed": 4},
                                               "resolutions": resolutions}}
    fluct = {"scenario": "fluct", "seed": seed, "constants": {"kB": 1.3}, "fluct": {
        "reference": {"preset": "ideal_gas", "pressure": 1.3, "volume": 0.7, "temperature": 1.1},
        "n": EDGE_SAMPLES}}
    two_level = {"kind": "two_level", "e0": 0.0, "e1": 1.0}
    long_grid = {"start": 0.0, "stop": 4.0, "num": EDGE_POINTS}
    return [
        ("evolve-h-hbar", evolve_h(), 9),
        ("evolve-h-exact-hbar", evolve_h(epsilon_prime=0.3, mode="exact"), 9),
        ("evolve-h-first-order-hbar", evolve_h(epsilon_prime=0.3, mode="first_order"), 9),
        ("evolve-s-frozen-units", evolve_s(hamiltonian, temperature=1.7, strength=0.1), 9),
        ("evolve-s-chart-units", evolve_s(hamiltonian, schedule="chart",
                                          reference_temperature=1.3, epsilon=-0.2), 9),
        ("evolve-s-shifted", evolve_s(shifted, temperature=0.8, strength=0.2), 9),
        ("evolve-s-contraction", evolve_s(shifted, temperature=0.8, epsilon=0.15,
                                          allow_antidissipative=True), 9),
        ("compare-pictures-real-C", compare("real_C"), 1),
        ("compare-pictures-frozen-S", compare("frozen_S"), 1),
        ("compare-pictures-chart-S", compare("chart_S"), 1),
        ("gravity-point", gravity, len(probes)),
        ("onsager-symmetric-flat", onsager(3, 31, symmetric=True), 31),
        ("onsager-asymmetric-rows", onsager(2, 4, symmetric=False), 4),
        ("stokes-fourier", stokes, len(resolutions)),
        ("fluct-edges", fluct, EDGE_SAMPLES),
        ("evolve-s-frozen-edges", evolve_s(two_level, grid=long_grid, temperature=1.7,
                                           strength=0.1), EDGE_POINTS),
        ("evolve-s-chart-edges", evolve_s(two_level, grid=long_grid, schedule="chart",
                                          reference_temperature=1.3, epsilon=-0.2), EDGE_POINTS),
    ]


def _scenario_runs(workloads, work: Path, seed: int) -> list:
    """One operation per entry of ``scenario_configs(seed)``, its config written under ``work``."""
    return [workloads.Operation(label, *_written(work, label, config["scenario"], config), rows)
            for label, config, rows in scenario_configs(seed)]


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
            ops = _with_big_copies(workloads.build("bulk-output-gravity", seed, work), work, seed)
            ops += _scenario_runs(workloads, work, seed)
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


@functools.cache
def _jsonschema_validator(definition):
    """``jsonschema``'s Draft 2020-12 validator of the package schema (of its
    ``$defs/<definition>`` if given), where 5.0 is not an integer."""
    import jsonschema

    from entropiclab.config import schema

    draft = jsonschema.Draft202012Validator
    integers = draft.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool))
    target = schema()
    if definition is not None:
        target = {"$defs": target["$defs"], "$ref": f"#/$defs/{definition}"}
    return jsonschema.validators.extend(draft, type_checker=integers)(target)


def _jsonschema_lines(document, definition) -> list:
    """The error lines ``config._validate`` printed when it read ``jsonschema``'s errors."""
    errors = _jsonschema_validator(definition).iter_errors(document)
    lines = []
    for error in sorted(errors, key=lambda e: list(e.absolute_path)):
        where = "/".join(str(part) for part in error.absolute_path) or "<root>"
        reasons = "; ".join(sorted({branch.message for branch in error.context}))
        lines.append(f"  at {where}: {error.message}" + (f" ({reasons})" if reasons else ""))
    return lines


def _walker_lines(document, definition) -> list:
    """The error lines of the package's own walker; none for a valid document."""
    from entropiclab.config import ConfigError, _validate

    try:
        _validate(document, definition, "document")
    except ConfigError as exc:
        return str(exc).splitlines()[1:]
    return []


def _places(node, path=()):
    """The path of every value under ``node``: each of an object's, and a list's first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:1])
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


def _changed(document, path, change):
    """A copy of ``document`` where ``change(owner, key)`` has changed the value at ``path``."""
    copy = json.loads(json.dumps(document))
    change(functools.reduce(operator.getitem, path[:-1], copy), path[-1])
    return copy


def _mutants(label, definition, document):
    """``document`` with one change each: a value replaced by one of ``MUTATIONS`` or
    removed, or an unknown key added to an object."""
    for path in _places(document):
        where = "/".join(map(str, path))
        for value in MUTATIONS:
            yield (f"{label} {where}={value!r}", definition,
                   _changed(document, path, lambda owner, key: owner.__setitem__(key, value)), None)
        yield f"{label} {where} removed", definition, _changed(
            document, path, lambda owner, key: owner.pop(key)), None
    for path in [()] + [path for path in _places(document)
                        if isinstance(functools.reduce(operator.getitem, path, document), dict)]:
        where = "/".join(map(str, path)) or "<root>"
        yield f"{label} {where} with an unknown key", definition, _changed(
            document, path + ("mystery",), lambda owner, key: owner.__setitem__(key, 1)), None


def schema_corpus(seeds, work: Path) -> list:
    """``(label, definition, document, valid)`` of the ``schema`` corpus, ``valid``
    None where either verdict may be right; the workloads' files are written under ``work``."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    corpus = []
    for seed in seeds:
        valid = [(f"seed {seed} {label}", None, config, True)
                 for label, config, _ in scenario_configs(seed)]
        for name in workloads.NAMES:
            directory = work / name / str(seed)
            workloads.build(name, seed, directory)
            valid += [(f"seed {seed} {name} {path.name}", DEFINITIONS.get(path.name),
                       json.loads(path.read_text(encoding="utf-8")), True)
                      for path in sorted(directory.glob("*.json"))]
        corpus += valid
        if seed == seeds[0]:
            corpus += [mutant for label, definition, document, _ in valid
                       for mutant in _mutants(label, definition, document)]
    cases = json.loads(SCHEMA_CASES.read_text(encoding="utf-8"))
    return corpus + [(case["label"], case.get("definition"), case["document"], False)
                     for case in cases]


def schema_check(seeds) -> tuple:
    """``(disagreements, documents, rejected)``: a line per corpus document on which the
    walker and ``jsonschema`` differ, or whose verdict is not the one it must have."""
    disagreements, rejected = [], 0
    with tempfile.TemporaryDirectory() as scratch:
        corpus = schema_corpus(seeds, Path(scratch))
    for label, definition, document, valid in corpus:
        walker, reference = _walker_lines(document, definition), _jsonschema_lines(
            document, definition)
        rejected += bool(reference)
        if walker != reference:
            disagreements.append(f"{label}: walker {walker}, jsonschema {reference}")
        elif valid is not None and valid != (not reference):
            disagreements.append(f"{label}: must be {'valid' if valid else 'invalid'}, "
                                 f"both give {reference}")
    return disagreements, len(corpus), rejected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="verify", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("digest", "sha256 of every criterion's result, per seed"),
                            ("artifacts", "sha256 of every bulk-output artifact, per seed")):
        run = commands.add_parser(name, help=help_text)
        run.add_argument("seeds", type=_seeds, help="seed range A:B, half-open, or one seed")
        run.add_argument("--out", help="write the digest JSON here instead of stdout")
    run = commands.add_parser("sweep", help="every failing criterion, per seed")
    run.add_argument("seeds", type=_seeds, help="seed range A:B, half-open, or one seed")
    run = commands.add_parser("floats", help="the CSV float kernel against repr, byte for byte")
    run.add_argument("count", type=int, help="random 64-bit patterns to format")
    run.add_argument("--seed", type=int, default=0, help="seed of the patterns (default 0)")
    run = commands.add_parser("moments", help="streamed covariance moments against NumPy")
    run.add_argument("seeds", type=_seeds, help="seed range A:B, half-open, or one seed")
    run = commands.add_parser("schema", help="the package's schema walker against jsonschema")
    run.add_argument("seeds", type=_seeds, help="seed range A:B, half-open, or one seed")
    compare = commands.add_parser("diff", help="list the seeds whose digests differ")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args(argv)

    if args.command == "sweep":
        failures = sweep(args.seeds)
        for seed, result in failures:
            details = json.dumps(result.details, sort_keys=True)
            print(f"seed {seed}: {result.name} measured {result.measured!r} details {details}")
        print(f"{len(failures)} failures over {len(args.seeds)} seeds")
        return 0

    if args.command == "floats":
        mismatches, compared = floats(args.count, args.seed)
        for bits, want, have in mismatches:
            print(f"{bits:016x}: repr {want}, kernel {have}")
        print(f"{len(mismatches)} mismatches over {compared} doubles")
        return 1 if mismatches else 0

    if args.command == "moments":
        worst = 0.0
        for seed in args.seeds:
            gap, statistic = moments(seed)
            print(f"seed {seed}: largest relative gap {gap:.3e} ({statistic})")
            worst = max(worst, gap)
        print(f"largest relative gap {worst:.3e} over {len(args.seeds)} seeds, "
              f"tolerance {MOMENTS_TOLERANCE:.0e}")
        return 1 if worst > MOMENTS_TOLERANCE else 0

    if args.command == "schema":
        disagreements, documents, rejected = schema_check(args.seeds)
        for line in disagreements:
            print(line)
        print(f"{len(disagreements)} disagreements over {documents} documents, "
              f"{rejected} of them rejected")
        return 1 if disagreements else 0

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
