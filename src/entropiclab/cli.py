"""Command-line driver.

Every subcommand reads one validated JSON configuration, runs the
corresponding scenario deterministically, writes a CSV data artifact plus
a JSON run record (configuration echo, summary outputs, invariant
verdicts, wall clock, tool version), and exits 0.  Failures map to stable
exit codes: 2 for configuration/schema problems, 3 for numerical failures
(overflow, underflow) and for running out of memory, 4 when
``check-all`` finds an invariant violation, and 5 when an artifact cannot
be written.  ``check-all`` is one more runner: its configuration may come
from flags instead of a file, and it also prints the verdict table.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _fanout, _shortest
from .config import (
    ConfigError,
    constants_from,
    grid_from,
    hamiltonian_from,
    load_config,
    patch_from,
    reference_from,
    region_from,
    source_from,
    state_from,
    system_from,
    validate_config,
)
from .entropy_picture import entropy_operator, evolve_s, picture_consistency, weak_field_epsilon
from .energy_picture import evolve_h, evolve_h_perturbed, noether_energy_drift
from .fluctuations import (
    boundary_action,
    covariance_report,
    gaussian_sample,
    standardized_deviations,
    symplectic_area,
)
from .gravity import laplacian_spot_check, mean_h, trace_potential
from .onsager import RECIPROCITY_RTOL, _relative_gaps, entropy_rate, reciprocity_check, relax
from .operators import spectral_decompose
from .suite import CheckResult, fitted_order, monotonicity_violation, run_all, semigroup_gap

__all__ = ["main"]

_NUMERICAL_ERRORS = (OverflowError, ArithmeticError, np.linalg.LinAlgError)


# cells (rows × columns) per block that _csv_lines formats at a time.  On a
# 2-core x86-64 machine, the seed-7 bulk-output-gravity fluct and evolve-s
# commands, called in process, took medians of 0.141 and 0.145 s at 2^16
# cells per block, 0.147 and 0.160 s at 2^15, 0.161 and 0.156 s at 2^17
# and 0.174 and 0.172 s at 2^18; formatted in process on one CPU, 0.185
# and 0.156 s (11 interleaved calls each).
_CSV_BLOCK_CELLS = 1 << 16


def _format_block(columns) -> str:
    """The CSV lines of one block of equally long, non-empty ``columns``, joined.

    A column is one-dimensional, or a two-dimensional float group whose
    rows hold adjacent cells of a line.  The lines are assembled as one
    byte matrix, a row per line, in which every cell has a slot of its
    column's width followed by its separator (``,``, or ``\\r\\n`` after
    the last cell); the unused bytes of a slot are NUL and are deleted at
    the end.  Each group, and each run of adjacent one-dimensional float
    columns, gets its ``repr`` bytes from one ``_shortest.cells`` call, so
    no Python object is made per float cell; integer and label cells are
    encoded one by one, as ``repr`` and UTF-8 give them.
    """
    rows = len(columns[0])
    # (rows, columns, width) cells: one per group, one per run of other float
    # columns, one per other column
    runs = []
    for kind, run in itertools.groupby(
            columns, lambda column: "group" if column.ndim == 2 else column.dtype.kind):
        if kind == "group":
            runs += map(_shortest.cells, run)
            continue
        if kind == "f":
            runs.append(_shortest.cells(np.stack(list(run), axis=1)))
            continue
        for column in run:
            text = np.char.encode(column, "utf-8") if column.dtype.kind == "U" else np.array(
                list(map(repr, column.tolist())), dtype="S")
            runs.append(text.view(np.uint8).reshape(rows, 1, -1))
    line = np.empty((rows, sum(r.shape[1] * (r.shape[2] + 1) for r in runs) + 1), dtype=np.uint8)
    start = 0
    for cells in runs:
        count, width = cells.shape[1:]
        slots = line[:, start:start + count * (width + 1)].reshape(rows, count, width + 1)
        slots[:, :, :width] = cells
        slots[:, :, width] = ord(",")
        start += count * (width + 1)
    line[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return line.tobytes().translate(None, b"\0").decode("utf-8")


def _csv_lines(header, *columns):
    """CSV text, each line ending in CRLF: ``header``, then one row per index of ``columns``.

    A two-dimensional float column is a group of adjacent columns, one per
    index of its second axis.

    A numeric cell is the ``repr`` of a ``tolist()`` value, the shortest string
    that reads back to the same double or integer: ``_shortest.cells``
    computes it for floats, ``repr`` itself for integers.  A ``str`` cell is
    written as it is.  No cell holds a comma, quote, line break or NUL, so
    none is quoted.
    The text is made lazily, as the writer takes it: the header line, then
    one string per block of about ``_CSV_BLOCK_CELLS`` cells (at least one
    row), formatted through ``_fanout.ordered``, in forked workers on two
    CPUs or more.  The columns reach the workers through the fork, in the
    task function's closure, so a task sends only its row range.  The
    strings are yielded in row order, so the text is the same at any CPU
    count.  Closing the generator shuts the workers down.
    """
    arrays = [np.asarray(column) for column in columns]
    rows = len(arrays[0]) if arrays else 0
    cells = sum(a.shape[1] if a.ndim == 2 else 1 for a in arrays)
    step = max(1, _CSV_BLOCK_CELLS // max(1, cells))

    def block(start, stop):
        return _format_block([a[start:stop] for a in arrays])

    ranges = [(start, start + step) for start in range(0, rows, step)]
    yield ",".join(header) + "\r\n"
    yield from _fanout.ordered(block, ranges, "CSV formatting")


def _trajectory_table(label: str, expect_label: str, trajectory):
    dim = trajectory.amplitudes.shape[1]
    header = ["step", label, "norm", expect_label]
    header += [f"{part}_{k}" for k in range(dim) for part in ("re", "im")]
    return _csv_lines(
        header, np.arange(len(trajectory.grid)), trajectory.grid, trajectory.norms,
        trajectory.expectations, trajectory.amplitudes.view(float),
    )


def _run_evolve_h(config: dict, base_dir: Path):
    constants = constants_from(config)
    block = config["evolve_h"]
    hamiltonian = hamiltonian_from(block["hamiltonian"], constants)
    psi0 = state_from(block["state"], hamiltonian.dim)
    grid = grid_from(block["grid"])
    epsilon_prime = block.get("epsilon_prime", 0.0)
    mode = block.get("mode", "exact")
    if epsilon_prime == 0.0:
        trajectory = evolve_h(psi0, hamiltonian, grid, constants)
    else:
        trajectory = evolve_h_perturbed(psi0, hamiltonian, grid, epsilon_prime, mode, constants)
    drift = noether_energy_drift(trajectory)
    outputs = {
        "final_norm": float(trajectory.norms[-1]),
        "energy_drift": float(drift),
        "epsilon_prime": float(epsilon_prime),
        "mode": mode,
    }
    verdicts = []
    if epsilon_prime == 0.0:
        norm_wander = float(np.max(np.abs(trajectory.norms - trajectory.norms[0])))
        verdicts.append(CheckResult.bounded("h-norm-preservation", norm_wander, 1e-12))
        e0 = abs(float(trajectory.expectations[0]))
        verdicts.append(CheckResult.bounded("h-energy-conservation", drift, 1e-10 * e0 + 1e-12))
    return outputs, verdicts, _trajectory_table("t", "expect_H", trajectory)


def _epsilon_from(block: dict) -> float:
    if "epsilon" in block and "strength" in block:
        raise ConfigError("give either 'epsilon' or 'strength', not both")
    if "strength" in block:
        return weak_field_epsilon(block["strength"])
    return float(block.get("epsilon", 0.0))


def _run_evolve_s(config: dict, base_dir: Path):
    constants = constants_from(config)
    block = config["evolve_s"]
    hamiltonian = hamiltonian_from(block["hamiltonian"], constants)
    psi0 = state_from(block["state"], hamiltonian.dim)
    grid = grid_from(block["grid"])
    epsilon = _epsilon_from(block)
    schedule_kind = block.get("schedule", "frozen")
    allow = block.get("allow_antidissipative", False)
    # each schedule reads one temperature key; the other one would be ignored
    unread = "reference_temperature" if schedule_kind == "frozen" else "temperature"
    if unread in block:
        raise ConfigError(f"{schedule_kind} schedule does not read {unread!r}")
    if schedule_kind == "frozen":
        temperature = block.get("temperature", 1.0)
    else:
        temperature = block.get("reference_temperature")
        if temperature is None:
            raise ConfigError("chart schedule needs reference_temperature")
    generator = entropy_operator(hamiltonian, temperature)
    trajectory = evolve_s(
        psi0, generator, grid, epsilon, constants,
        schedule=schedule_kind, allow_antidissipative=allow,
    )
    outputs = {
        "epsilon": float(epsilon),
        "schedule": schedule_kind,
        "final_norm": float(trajectory.norms[-1]),
        "norm_ratio": float(trajectory.norms[-1] / trajectory.norms[0]),
    }
    verdicts = []
    if epsilon == 0.0:
        wander = float(np.max(np.abs(trajectory.norms - trajectory.norms[0])))
        verdicts.append(CheckResult.bounded("s-unitary-norms", wander, 1e-12))
    else:
        bottom = float(spectral_decompose(hamiltonian)[0][0])
        if bottom >= -1e-12:
            name = "s-dilatation" if epsilon < 0 else "s-contraction"
            violation = monotonicity_violation(trajectory.norms, epsilon)
            verdicts.append(CheckResult.bounded(name, violation, 1e-12))
    if schedule_kind == "frozen" and grid.size >= 2 and grid[-1] > 0:
        # the one-shot leg ends at grid[-1]: half + (grid[-1] - half) is exact
        half = 0.5 * grid[-1]
        gap = semigroup_gap(psi0, generator, half, grid[-1] - half, epsilon, constants)
        verdicts.append(CheckResult.bounded("s-semigroup-composition", gap, 1e-10))
    return outputs, verdicts, _trajectory_table("tau", "expect_S", trajectory)


def _run_compare_pictures(config: dict, base_dir: Path):
    constants = constants_from(config)
    block = config["compare_pictures"]
    hamiltonian = hamiltonian_from(block["hamiltonian"], constants)
    psi0 = state_from(block["state"], hamiltonian.dim)
    grid = grid_from(block["grid"])
    mode = block["mode"]
    epsilon = block.get("epsilon", 0.0)
    deviation = picture_consistency(
        psi0, hamiltonian, block["reference_temperature"], mode, grid, epsilon, constants
    )
    outputs = {"mode": mode, "epsilon": float(epsilon), "max_deviation": float(deviation)}
    table = _csv_lines(list(outputs), *([value] for value in outputs.values()))
    verdicts = [CheckResult.bounded("picture-deviation", deviation, 1e-10)]
    return outputs, verdicts, table


def _run_gravity(config: dict, base_dir: Path):
    block = config["gravity"]
    source = source_from(block["source"], base_dir)
    seed = config.get("seed", 0)
    probes = np.asarray(block.get("probes", []), dtype=float).reshape(-1, 3)
    potentials = trace_potential(source, probes)
    table = _csv_lines(["x", "y", "z", "h"], *probes.T, potentials)
    outputs = {"total_mass": float(source.total_mass)}
    verdicts = []
    if potentials.size:
        lowest = float(potentials.min())
        verdicts.append(
            CheckResult("potential-nonnegative", 0.0, min(lowest, 0.0), lowest >= 0.0)
        )
    if "region" in block:
        strength = mean_h(source, region_from(block["region"]), seed)
        outputs["mean_h"] = float(strength)
        outputs["weak_field_epsilon"] = float(weak_field_epsilon(strength))
    if "laplacian" in block:
        residual = laplacian_spot_check(
            source, block["laplacian"]["point"], block["laplacian"].get("step")
        )
        outputs["laplacian_residual"] = float(residual)
    return outputs, verdicts, table


def _run_onsager(config: dict, base_dir: Path):
    block = config["onsager"]
    system = system_from(block["system"], base_dir)
    grid = grid_from(block["grid"])
    ys, rates = relax(system, grid)
    table = _csv_lines(
        ["step", "tprime", "entropy_rate"] + [f"y_{k}" for k in range(system.dim)],
        np.arange(len(grid)), grid, rates, *ys.T,
    )
    via_velocities, via_forces = entropy_rate(system, system.y0)
    asymmetry = reciprocity_check(system.kinetic)
    symmetric = asymmetry <= RECIPROCITY_RTOL
    outputs = {
        "entropy_rate_initial": via_velocities,
        "kinetic_symmetric": symmetric,
        "kinetic_asymmetry_norm": asymmetry,
    }
    gap = float(_relative_gaps(via_velocities, via_forces))
    verdicts = [CheckResult.bounded("entropy-forms-agree", gap, 1e-12)]
    if symmetric:
        worst = float(np.max(-rates))
        verdicts.append(
            CheckResult.bounded("entropy-rate-nonnegative", max(worst, 0.0), 1e-12)
        )
    return outputs, verdicts, table


def _run_fluct(config: dict, base_dir: Path):
    constants = constants_from(config)
    block = config["fluct"]
    reference = reference_from(block["reference"])
    samples = gaussian_sample(
        reference, block["n"], seed=config.get("seed", 0), constants=constants
    )
    table = _csv_lines(["dp", "dV", "dT", "dS"], samples.dp, samples.dV, samples.dT, samples.dS)
    outputs = {"n": len(samples)}
    verdicts = []
    if len(samples) >= 1000:
        outputs["covariance"] = report = covariance_report(samples, reference, constants)
        z = standardized_deviations(report)
        for name, statistic in (
            ("fluct-ds-dt", "ds_dt_over_kBT"),
            ("fluct-dp-dv", "dp_dv_over_kBT"),
            ("fluct-ds-dtau", "ds_dtau_over_kB"),
            ("fluct-dt-dv-uncorrelated", "dt_dv_correlation"),
        ):
            verdicts.append(CheckResult.bounded(name, z[statistic], 3.0))
    return outputs, verdicts, table


def _run_stokes(config: dict, base_dir: Path):
    block = config["stokes"]
    patch = patch_from(block["patch"])
    resolutions = block["resolutions"]
    areas = np.array([symplectic_area(patch, resolution) for resolution in resolutions])
    circulations = np.array([boundary_action(patch, resolution) for resolution in resolutions])
    gaps = np.abs(areas - circulations)
    table = _csv_lines(
        ["resolution", "area", "boundary_action", "abs_gap"],
        resolutions, areas, circulations, gaps,
    )
    outputs = {"gaps": gaps.tolist()}
    verdicts = []
    if len(resolutions) >= 3 and all(g > 1e-13 for g in gaps):
        order = fitted_order(resolutions, gaps)
        outputs["convergence_order"] = order
        verdicts.append(CheckResult("stokes-order", 1.9, order, order >= 1.9))
    else:  # the schema asks for at least one resolution
        verdicts.append(CheckResult.bounded("stokes-gap", float(max(gaps)), 1e-9))
    return outputs, verdicts, table


def _run_check_all(config: dict, base_dir: Path):
    results = run_all(seed=config.get("seed", 0))
    rows = [(result.name, float(result.tolerance), float(result.measured),
             str(bool(result.passed)).lower()) for result in results]
    table = _csv_lines(["criterion", "tolerance", "measured", "passed"], *zip(*rows))
    return {"criteria": [result.to_dict() for result in results]}, results, table


_RUNNERS = {
    "evolve-h": _run_evolve_h,
    "evolve-s": _run_evolve_s,
    "compare-pictures": _run_compare_pictures,
    "gravity": _run_gravity,
    "onsager": _run_onsager,
    "fluct": _run_fluct,
    "stokes": _run_stokes,
    "check-all": _run_check_all,
}


def _write_atomically(path: Path, text) -> None:
    """Write the strings of ``text`` to a temp file beside ``path``, then rename it onto ``path``.

    A failed write removes the temp file and leaves ``path`` as it was.  A
    target that exists and is not a regular file, such as ``/dev/null``, is
    written in place and never replaced.  A ``text`` that can be closed, such
    as the generator of ``_csv_lines``, is closed on every exit, which also
    stops its formatting workers.
    """
    with contextlib.closing(text) if hasattr(text, "close") else contextlib.nullcontext():
        path = Path(os.path.realpath(path))
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists() and not path.is_file():
            with open(path, "w", newline="", encoding="utf-8") as handle:
                handle.writelines(text)
            return
        temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(temp, "x", newline="", encoding="utf-8") as handle:
                handle.writelines(text)
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise


# _write_csv and _write_record keep their own names and a path as their
# first argument: perfbench/tracer.py times and counts each by name
def _write_csv(path: Path, lines) -> None:
    _write_atomically(path, lines)


def _write_record(path: Path, config: dict, outputs: dict, verdicts, wall_clock: float) -> None:
    record = {
        "version": __version__,
        "config": config,
        "outputs": outputs,
        "verdicts": [result.verdict() for result in verdicts],
        "wall_clock_s": wall_clock,
    }
    # NumPy scalars and arrays become the Python values of their tolist()
    text = json.dumps(record, indent=2, sort_keys=True, default=lambda value: value.tolist())
    _write_atomically(path, [text, "\n"])


def _write_artifacts(csv_path: Path, table, record_path: Path, config, outputs, verdicts,
                     wall_clock: float) -> int:
    """Write the CSV, then its run record; 0 on success, 5 on an I/O failure,
    3 when formatting or writing runs out of memory.

    Each file appears only once it is complete, and a CSV whose record
    could not be written is removed, so a failed write leaves neither a
    partial artifact nor a data artifact without its record.
    """
    try:
        _write_csv(csv_path, table)
        try:
            _write_record(record_path, config, outputs, verdicts, wall_clock)
        except BaseException:
            if csv_path.is_file():  # never a device such as /dev/null
                csv_path.unlink()
            raise
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


def _verdict_table(results) -> str:
    """check-all's verdict table: a row per criterion, then the pass and fail counts."""
    rows = [("scenario", "check", "tolerance", "measured", "verdict")] + [
        ("check-all", r.name, f"{r.tolerance:.3e}", f"{r.measured:.3e}",
         "PASS" if r.passed else "FAIL") for r in results
    ]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    passes = sum(bool(r.passed) for r in results)
    return "\n".join(lines + [f"{passes} passed, {len(results) - passes} failed"])


def _command(args) -> int:
    try:
        if args.config:
            if getattr(args, "seed", None) is not None:  # check-all alone has --seed
                raise ConfigError("--seed cannot be combined with --config, which sets the seed")
            config = load_config(args.config)
            base_dir = Path(args.config).resolve().parent
        else:  # check-all's flag form
            config = {"scenario": "check-all", "seed": args.seed or 0}
            validate_config(config)
            base_dir = Path.cwd()
        scenario = config["scenario"]
        if scenario != args.command:
            raise ConfigError(
                f"config declares scenario {scenario!r} but was passed to {args.command!r}"
            )
        out_path = args.out or config.get("output", {}).get("csv")
        if out_path is None:
            raise ConfigError("no CSV output path: pass --out or set output.csv")
        record_path = (
            args.record
            or config.get("output", {}).get("record")
            or str(out_path) + ".record.json"
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        outputs, verdicts, table = _RUNNERS[args.command](config, base_dir)
    # before ValueError: np.linalg.LinAlgError is itself a ValueError
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    wall_clock = time.perf_counter() - started

    code = _write_artifacts(
        Path(out_path), table, Path(record_path), config, outputs, verdicts, wall_clock
    )
    if code or args.command != "check-all":
        return code
    print(_verdict_table(verdicts))
    return 0 if all(result.passed for result in verdicts) else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entropiclab",
        description="Deterministic scenario runner for the entropic-evolution laboratory",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in [name for name in _RUNNERS if name != "check-all"]:
        sub = subparsers.add_parser(name, help=f"run the {name} scenario from a JSON config")
        sub.add_argument("--config", required=True, help="path to the run configuration JSON")
        sub.add_argument("--out", help="CSV output path (overrides output.csv)")
        sub.add_argument("--record", help="run-record JSON path (overrides output.record)")

    check = subparsers.add_parser("check-all", help="run the full invariant suite")
    check.add_argument("--config", help="optional check-all configuration JSON")
    check.add_argument("--seed", type=int, help="master seed, 0 if not given (not with --config)")
    check.add_argument("--outdir", default="check_all_artifacts",
                       help="directory for summary.csv and record.json")

    args = parser.parse_args(argv)
    if args.command == "check-all":
        args.out = Path(args.outdir) / "summary.csv"
        args.record = Path(args.outdir) / "record.json"
    return _command(args)


if __name__ == "__main__":
    sys.exit(main())
