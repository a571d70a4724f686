"""The benchmark's workloads: configs generated from a seed, and output checks.

A workload is a cycle of CLI operations.  ``build`` writes every input the
program reads (run configs and, for ``bulk-output-gravity``, the lattice
source descriptor) into a work directory, validated against the package schema, and
returns the operations.  The program sees only those files.  Each operation
carries a check of its own artifacts; see README.md for why each workload
exists and which layers it loads.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("check-all", "bulk-output-gravity")

CHECK_ALL_WORKERS = 2
FLUCT_SAMPLES = 250_000
EVOLVE_DIM = 256
EVOLVE_POINTS = 1_000
LATTICE_SIDE = 32
REGION_SAMPLES = 4_096


@dataclass
class Operation:
    """One ``cli.main`` call and what its artifacts must look like."""

    label: str
    argv: list
    csv_path: Path
    record_path: Path
    csv_rows: int
    check_extra: object = None
    digest: str | None = None

    def clear(self) -> None:
        for path in (self.csv_path, self.record_path):
            path.unlink(missing_ok=True)

    def check(self, exit_code: int) -> list:
        """Problems with this call's result; empty when it is correct."""
        if exit_code != 0:
            return [f"{self.label}: exit code {exit_code}"]
        try:
            record = json.loads(self.record_path.read_text(encoding="utf-8"))
            data = self.csv_path.read_bytes()
        except (OSError, ValueError) as exc:
            return [f"{self.label}: unreadable artifact: {exc}"]
        problems = [
            f"{self.label}: verdict {verdict['name']} failed"
            for verdict in record["verdicts"] if not verdict["passed"]
        ]
        # csv.writer ends every row, the header too, with "\r\n"
        rows = data.count(b"\n") - 1
        if rows != self.csv_rows:
            problems.append(f"{self.label}: {rows} CSV rows, expected {self.csv_rows}")
        # same seed, same bytes: the package's stream contract
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"{self.label}: CSV differs from the first operation of this run")
        if self.check_extra is not None:
            problems += [f"{self.label}: {p}" for p in self.check_extra(record, data)]
        return problems


def _write_config(path: Path, config: dict) -> None:
    from entropiclab.config import validate_config

    validate_config(config)
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _direction(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _check_all(seed: int, work: Path) -> list:
    from entropiclab.suite import criterion_names

    config_path = work / "check_all.json"
    _write_config(config_path, {
        "scenario": "check-all", "seed": seed, "check_all": {"workers": CHECK_ALL_WORKERS},
    })
    outdir = work / "check-all"
    expected = criterion_names()

    def every_criterion(record, data):
        rows = list(csv.reader(data.decode("utf-8").splitlines()))
        names = [row[0] for row in rows[1:]]
        problems = [] if names == expected else [f"summary lists {names}, expected {expected}"]
        return problems + [f"criterion {row[0]} did not pass" for row in rows[1:] if row[3] != "true"]

    return [Operation(
        "check-all",
        ["check-all", "--config", str(config_path), "--outdir", str(outdir)],
        outdir / "summary.csv", outdir / "record.json", len(expected), every_criterion,
    )]


def _bulk_output(seed: int, work: Path) -> list:
    rng = np.random.default_rng([seed, 1])
    fluct = {
        "scenario": "fluct",
        "seed": seed,
        "fluct": {
            "reference": {
                "preset": "ideal_gas",
                "pressure": float(rng.uniform(0.5, 2.0)),
                "volume": float(rng.uniform(0.5, 2.0)),
                "temperature": float(rng.uniform(0.5, 2.0)),
            },
            "n": FLUCT_SAMPLES,
            "workers": 1,
        },
    }
    # spectrum of the shifted dim-256 generator lies in about [0, 65]; with
    # T >= 20 and strength <= 0.1 the largest exponent stays far below overflow
    evolve = {
        "scenario": "evolve-s",
        "seed": seed,
        "evolve_s": {
            "hamiltonian": {"kind": "random_hermitian", "dim": EVOLVE_DIM, "seed": seed,
                            "shift_nonnegative": True},
            "state": {"kind": "random", "seed": seed},
            "grid": {"start": 0.0, "stop": float(rng.uniform(0.5, 2.0)), "num": EVOLVE_POINTS},
            "temperature": float(rng.uniform(20.0, 80.0)),
            "strength": float(rng.uniform(0.02, 0.1)),
            "schedule": "frozen",
        },
    }
    operations = []
    for label, config in (("fluct", fluct), ("evolve-s", evolve)):
        config_path = work / f"{label}.json"
        _write_config(config_path, config)
        out = work / f"{label}.csv"
        record = work / f"{label}.record.json"
        rows = FLUCT_SAMPLES if label == "fluct" else EVOLVE_POINTS
        operations.append(Operation(
            label, [label, "--config", str(config_path), "--out", str(out), "--record", str(record)],
            out, record, rows,
        ))
    return operations


def _gravity_field(seed: int, work: Path) -> list:
    rng = np.random.default_rng([seed, 2])
    spacing = 1.0 / LATTICE_SIDE
    center = np.full(3, 0.5)
    # a box over the whole unit cube occupies every cell; seeded balls add
    # structure on top of it
    primitives = [{"kind": "box", "bounds": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
                   "trace": float(rng.uniform(0.5, 1.5))}]
    for _ in range(3):
        primitives.append({
            "kind": "ball",
            "center": [float(c) for c in rng.uniform(0.25, 0.75, 3)],
            "radius": float(rng.uniform(0.1, 0.25)),
            "trace": float(rng.uniform(0.5, 2.0)),
        })
    lattice = {"spacing": spacing, "origin": [0.0, 0.0, 0.0],
               "shape": [LATTICE_SIDE] * 3, "primitives": primitives}
    (work / "lattice.json").write_text(json.dumps(lattice, indent=2) + "\n", encoding="utf-8")

    # the cube's half-diagonal is 0.87, so every point below clears the support
    probes = [[float(c) for c in center + rng.uniform(4.0, 6.0) * _direction(rng)] for _ in range(3)]
    config = {
        "scenario": "gravity",
        "seed": seed,
        "gravity": {
            "source": "lattice.json",
            "region": {"shape": "ball", "samples": REGION_SAMPLES, "radius": 0.4,
                       "center": [float(c) for c in center + 2.0 * _direction(rng)]},
            "probes": probes,
            "laplacian": {"point": [float(c) for c in center + 1.5 * _direction(rng)]},
        },
    }
    config_path = work / "gravity.json"
    _write_config(config_path, config)

    def positive_mean_h(record, data):
        value = record["outputs"].get("mean_h")
        ok = isinstance(value, float) and math.isfinite(value) and value > 0.0
        return [] if ok else [f"mean_h is {value!r}, expected finite and positive"]

    out = work / "gravity.csv"
    record = work / "gravity.record.json"
    return [Operation(
        "gravity",
        ["gravity", "--config", str(config_path), "--out", str(out), "--record", str(record)],
        out, record, len(probes), positive_mean_h,
    )]


def _bulk_output_gravity(seed: int, work: Path) -> list:
    # large CSV output and the gravity direct sum in one cycle: two loads that
    # check-all barely has, in one workload so that each of the two workloads
    # can run for longer
    return _bulk_output(seed, work) + _gravity_field(seed, work)


_BUILDERS = {"check-all": _check_all, "bulk-output-gravity": _bulk_output_gravity}


def build(name: str, seed: int, work: Path) -> list:
    """Write the workload's inputs under ``work`` and return its operation cycle."""
    from entropiclab.config import schema

    schema()
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed, work)
