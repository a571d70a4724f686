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

The module itself loads only what parsing arguments, loading a
configuration and writing artifacts need.  Each runner imports the kernel
modules of its scenario when it is called, before any worker forks, so
that a command loads only the modules it runs and its workers inherit them.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
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
from .verdicts import fitted_order, monotonicity_violation, verdict

__all__ = ["main"]

_NUMERICAL_ERRORS = (OverflowError, ArithmeticError, np.linalg.LinAlgError)


_FLUCT_HEADER = ("dp", "dV", "dT", "dS")

# cells (rows × columns) per block that _csv_lines makes at a time.  On a
# 2-core x86-64 machine, the seed-7 bulk-output-gravity fluct and evolve-s
# commands, called in process, took medians of 0.141 and 0.145 s at 2^16
# cells per block, 0.147 and 0.160 s at 2^15, 0.161 and 0.156 s at 2^17
# and 0.174 and 0.172 s at 2^18; formatted in process on one CPU, 0.185
# and 0.156 s (11 interleaved calls each).  2^16 cells are one covariance
# moment group (fluctuations._GROUP samples) of fluct's four columns, so
# that a block of fluct's CSV draws and summarizes whole groups, as the
# covariance report merges them.
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
    from . import _shortest

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


class _RowRanges:
    """The ranges ``(start, stop)`` of ``rows`` rows in steps of ``step``, made as they are read."""

    def __init__(self, rows: int, step: int):
        self._rows = rows
        self._starts = range(0, rows, step)

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self):
        step = self._starts.step
        return ((start, min(start + step, self._rows)) for start in self._starts)


def _csv_lines(header, producer, rows: int, merge=None):
    """CSV text, each line ending in CRLF: ``header``, then the rows ``0..rows`` of ``producer``.

    ``producer(start, stop)`` returns ``(text, summary)``: the lines of rows
    ``start..stop``, joined, and whatever the caller wants to know of those
    rows, which ``merge``, if given, takes in row order as each block's text
    is taken.  ``_columns`` makes the producer of a table of whole columns.
    The text is made lazily, as the writer takes it: the header line, then
    one string per block of about ``_CSV_BLOCK_CELLS`` cells, a row being
    ``len(header)`` cells, and at least one row per block.  The blocks run
    through ``_fanout.ordered``, in forked workers on two CPUs or more; the
    producer, with whatever it closes over, reaches the workers through the
    fork, so a task sends only its row range and returns its text and
    summary.  The blocks are taken in row order, so the text and the merged
    summaries are the same at any CPU count.  Closing the generator shuts
    the workers down.
    """
    # the float kernel too is imported before the workers fork, to be inherited
    from . import _fanout, _shortest  # noqa: F401

    step = max(1, _CSV_BLOCK_CELLS // max(1, len(header)))
    yield ",".join(header) + "\r\n"
    blocks = _fanout.ordered(producer, _RowRanges(rows, step), "CSV formatting")
    with contextlib.closing(blocks):
        for text, summary in blocks:
            if merge is not None:
                merge(summary)
            yield text


def _columns(*columns):
    """``(producer, rows)`` of a table of equally long ``columns``, for ``_csv_lines``.

    A two-dimensional float column is a group of adjacent columns, one per
    index of its second axis.  A numeric cell is the ``repr`` of a
    ``tolist()`` value, the shortest string that reads back to the same
    double or integer: ``_shortest.cells`` computes it for floats, ``repr``
    itself for integers.  A ``str`` cell is written as it is.  No cell holds
    a comma, quote, line break or NUL, so none is quoted.  The producer's
    summary is ``None``.
    """
    arrays = [np.asarray(column) for column in columns]

    def block(start, stop):
        return _format_block([a[start:stop] for a in arrays]), None

    return block, len(arrays[0]) if arrays else 0


def _trajectory_header(label: str, expect_label: str, dim: int) -> list:
    header = ["step", label, "norm", expect_label]
    return header + [f"{part}_{k}" for k in range(dim) for part in ("re", "im")]


def _trajectory_columns(trajectory, first: int = 0) -> list:
    """The CSV columns of a trajectory whose first grid point is step ``first``."""
    return [np.arange(first, first + len(trajectory.grid)), trajectory.grid, trajectory.norms,
            trajectory.expectations, trajectory.amplitudes.view(float)]


class _Fold:
    """A series folded block by block in order: its ``first`` and ``last`` values
    and the largest distance ``wander`` from the first; given ``epsilon``, also the
    largest step ``against`` its branch, as ``monotonicity_violation`` takes it."""

    def __init__(self, epsilon=None):
        self.epsilon = epsilon
        self.first = self.last = None
        self.wander = self.against = 0.0

    def merge(self, values) -> None:
        if self.first is None:
            self.first = values[0]
        else:  # the step from the block before
            values = np.concatenate(([self.last], values))
        self.wander = max(self.wander, float(np.max(np.abs(values - self.first))))
        if self.epsilon is not None:
            self.against = max(self.against, monotonicity_violation(values, self.epsilon))
        self.last = values[-1]


def _trajectory_rows(trajectory_of, start, stop):
    """The CSV rows ``start..stop`` of a trajectory, which ``trajectory_of(start, stop)``
    makes from the grid slice, and their ``(norms, averages)``."""
    trajectory = trajectory_of(start, stop)
    return (_format_block(_trajectory_columns(trajectory, start)),
            (trajectory.norms, trajectory.expectations))


def _trajectory_table(label: str, expect_label: str, dim: int, trajectory_of, rows: int,
                      epsilon=None):
    """``(table, norms, averages)``: the CSV of a trajectory of ``rows`` rows, made block
    by block by ``trajectory_of``, and the folds of its norms (against the branch of
    ``epsilon``, if given) and of its averages, which fill as the table is written."""
    folds = _Fold(epsilon), _Fold()
    table = _csv_lines(_trajectory_header(label, expect_label, dim),
                       functools.partial(_trajectory_rows, trajectory_of), rows,
                       lambda summary: [fold.merge(part) for fold, part in zip(folds, summary)])
    return (table, *folds)


def _fluct_rows(moments, seed, start, stop):
    """fluct's CSV rows ``start..stop``, one moment group drawn from the seed's
    sample blocks, and that group's ``(count, mean, M2)``."""
    from .fluctuations import _draw_group

    group = _draw_group(moments.ref, moments.constants, seed, start, stop)
    return _format_block(list(group)), moments.of_group(*group)


def _run_evolve_h(config: dict, base_dir: Path):
    from .energy_picture import _checked_rate, _lab_trajectory
    from .operators import spectral_decompose

    constants = constants_from(config)
    block = config["evolve_h"]
    hamiltonian = hamiltonian_from(block["hamiltonian"], constants)
    psi0 = state_from(block["state"], hamiltonian.dim)
    epsilon_prime = block.get("epsilon_prime", 0.0)
    mode = block.get("mode", "exact")
    grid, rate = _checked_rate(grid_from(block["grid"]), epsilon_prime, mode, constants.hbar)
    # decomposed before the workers fork, which inherit it: on one BLAS thread
    # a worker would round the eigenpairs of dimension 128 and up differently
    spectral_decompose(hamiltonian)
    table, norms, energies = _trajectory_table(
        "t", "expect_H", hamiltonian.dim,
        lambda start, stop: _lab_trajectory(psi0, hamiltonian, grid[start:stop], rate,
                                            constants.hbar),
        len(grid))

    def summary():
        outputs = {"final_norm": float(norms.last), "energy_drift": energies.wander,
                   "epsilon_prime": float(epsilon_prime), "mode": mode}
        if epsilon_prime != 0.0:
            return outputs, []
        return outputs, [verdict("h-norm-preservation", norms.wander),
                         verdict("h-energy-conservation", energies.wander,
                                 scale=abs(float(energies.first)))]

    return table, summary


def _epsilon_from(block: dict) -> float:
    from .entropy_picture import weak_field_epsilon

    if "epsilon" in block and "strength" in block:
        raise ConfigError("give either 'epsilon' or 'strength', not both")
    if "strength" in block:
        return weak_field_epsilon(block["strength"])
    return float(block.get("epsilon", 0.0))


def _run_evolve_s(config: dict, base_dir: Path):
    from .entropy_picture import (_checked_grid, _thermal_trajectory, entropy_operator,
                                  semigroup_gap)
    from .operators import spectral_decompose

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
    grid = _checked_grid(grid, epsilon, schedule_kind, allow)
    gap = None
    if schedule_kind == "frozen" and grid.size >= 2:
        # made before the workers fork, so that the fork stops the OpenBLAS
        # threads it leaves spinning, not after the command; its error is
        # raised only after the rows are made, since theirs comes first.  The
        # one-shot leg ends at grid[-1]: half + (grid[-1] - half) is exact
        half = 0.5 * grid[-1]
        try:
            gap = float(semigroup_gap(*generator[1:], psi0.amplitudes, half, grid[-1] - half,
                                      epsilon, constants.kB))
        except (*_NUMERICAL_ERRORS, MemoryError, ValueError) as exc:
            gap = exc
    table, norms, _ = _trajectory_table(
        "tau", "expect_S", hamiltonian.dim,
        lambda start, stop: _thermal_trajectory(psi0, generator, grid[start:stop], epsilon,
                                                constants.kB, schedule_kind),
        len(grid), epsilon)

    def summary():
        if isinstance(gap, Exception):
            raise gap
        outputs = {
            "epsilon": float(epsilon),
            "schedule": schedule_kind,
            "final_norm": float(norms.last),
            "norm_ratio": float(norms.last / norms.first),
        }
        verdicts = []
        if epsilon == 0.0:
            verdicts.append(verdict("s-unitary-norms", norms.wander))
        else:
            bottom = float(spectral_decompose(hamiltonian)[0][0])
            if bottom >= -1e-12:
                verdicts.append(verdict("s-dilatation" if epsilon < 0 else "s-contraction",
                                        norms.against))
        if gap is not None:
            verdicts.append(verdict("s-semigroup-composition", gap))
        return outputs, verdicts

    return table, summary


def _run_compare_pictures(config: dict, base_dir: Path):
    from .entropy_picture import picture_consistency

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
    table = _csv_lines(list(outputs), *_columns(*([value] for value in outputs.values())))
    verdicts = [verdict("picture-deviation", deviation)]
    return table, lambda: (outputs, verdicts)


def _run_gravity(config: dict, base_dir: Path):
    from .entropy_picture import weak_field_epsilon
    from .gravity import laplacian_spot_check, mean_h, trace_potential

    block = config["gravity"]
    source = source_from(block["source"], base_dir)
    seed = config.get("seed", 0)
    probes = np.asarray(block.get("probes", []), dtype=float).reshape(-1, 3)
    potentials = trace_potential(source, probes)
    table = _csv_lines(["x", "y", "z", "h"], *_columns(*probes.T, potentials))
    outputs = {"total_mass": float(source.total_mass)}
    verdicts = []
    if potentials.size:
        verdicts.append(verdict("potential-nonnegative", min(float(potentials.min()), 0.0)))
    if "region" in block:
        strength = mean_h(source, region_from(block["region"]), seed)
        outputs["mean_h"] = float(strength)
        outputs["weak_field_epsilon"] = float(weak_field_epsilon(strength))
    if "laplacian" in block:
        residual = laplacian_spot_check(
            source, block["laplacian"]["point"], block["laplacian"].get("step")
        )
        outputs["laplacian_residual"] = float(residual)
    return table, lambda: (outputs, verdicts)


def _run_onsager(config: dict, base_dir: Path):
    from .onsager import RECIPROCITY_RTOL, _relative_gaps, entropy_rate, reciprocity_check, relax

    block = config["onsager"]
    system = system_from(block["system"], base_dir)
    grid = grid_from(block["grid"])
    ys, rates = relax(system, grid)
    table = _csv_lines(
        ["step", "tprime", "entropy_rate"] + [f"y_{k}" for k in range(system.dim)],
        *_columns(np.arange(len(grid)), grid, rates, *ys.T),
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
    verdicts = [verdict("entropy-forms-agree", gap)]
    if symmetric:
        worst = float(np.max(-rates))
        verdicts.append(verdict("entropy-rate-nonnegative", max(worst, 0.0)))
    return table, lambda: (outputs, verdicts)


def _run_fluct(config: dict, base_dir: Path):
    from .fluctuations import _Moments, standardized_deviations

    constants = constants_from(config)
    block = config["fluct"]
    n = block["n"]
    moments = _Moments(reference_from(block["reference"]), constants)
    producer = functools.partial(_fluct_rows, moments, config.get("seed", 0))
    table = _csv_lines(_FLUCT_HEADER, producer, n, moments.merge)

    def summary():
        outputs = {"n": n}
        verdicts = []
        if n >= 1000:
            # covariance_report of the samples: the same groups, merged in order
            outputs["covariance"] = report = moments.report()
            z = standardized_deviations(report)
            verdicts += [verdict("fluct-ds-dt", z["ds_dt_over_kBT"]),
                         verdict("fluct-dp-dv", z["dp_dv_over_kBT"]),
                         verdict("fluct-ds-dtau", z["ds_dtau_over_kB"]),
                         verdict("fluct-dt-dv-uncorrelated", z["dt_dv_correlation"])]
        return outputs, verdicts

    return table, summary


def _run_stokes(config: dict, base_dir: Path):
    from .fluctuations import boundary_action, symplectic_area

    block = config["stokes"]
    patch = patch_from(block["patch"])
    resolutions = block["resolutions"]
    areas = np.array([symplectic_area(patch, resolution) for resolution in resolutions])
    circulations = np.array([boundary_action(patch, resolution) for resolution in resolutions])
    gaps = np.abs(areas - circulations)
    table = _csv_lines(
        ["resolution", "area", "boundary_action", "abs_gap"],
        *_columns(resolutions, areas, circulations, gaps),
    )
    outputs = {"gaps": gaps.tolist()}
    verdicts = []
    if len(resolutions) >= 3 and all(g > 1e-13 for g in gaps):
        order = fitted_order(resolutions, gaps)
        outputs["convergence_order"] = order
        verdicts.append(verdict("stokes-order", order))
    else:  # the schema asks for at least one resolution
        verdicts.append(verdict("stokes-gap", float(max(gaps))))
    return table, lambda: (outputs, verdicts)


def _run_check_all(config: dict, base_dir: Path):
    from .suite import run_all

    results = run_all(seed=config.get("seed", 0))
    rows = [(result.name, float(result.tolerance), float(result.measured),
             str(bool(result.passed)).lower()) for result in results]
    table = _csv_lines(["criterion", "tolerance", "measured", "passed"], *_columns(*zip(*rows)))
    return table, lambda: ({"criteria": [result.to_dict() for result in results]}, results)


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


def _write_artifacts(csv_path: Path, table, record_path: Path, config, summary,
                     started: float) -> list:
    """Write the CSV, then its run record; return the run's verdicts.

    ``summary()`` gives the outputs and verdicts once the CSV is written,
    since a table may make its rows, and their summary, as it is written.
    The record's ``wall_clock_s`` runs from ``started`` until then.  Each
    file appears only once it is complete, and a CSV whose record could not
    be made or written is removed, so a failed run leaves neither a partial
    artifact nor a data artifact without its record.
    """
    _write_csv(csv_path, table)
    try:
        outputs, verdicts = summary()
        _write_record(record_path, config, outputs, verdicts, time.perf_counter() - started)
    except BaseException:
        if csv_path.is_file():  # never a device such as /dev/null
            csv_path.unlink()
        raise
    return verdicts


# what a failed run prints and its exit code, by the exception it raised;
# numerical errors first, since np.linalg.LinAlgError is itself a ValueError
_FAILURES = (
    (_NUMERICAL_ERRORS, "numerical failure", 3),
    (MemoryError, "out of memory", 3),
    (OSError, "io error", 5),
    (ValueError, "config error", 2),
)


def _failure(exc: BaseException) -> int:
    """Print the line of a run that raised ``exc`` to stderr; return its exit code."""
    for kinds, label, code in _FAILURES:
        if isinstance(exc, kinds):
            print(f"{label}: {exc}", file=sys.stderr)
            return code
    raise exc


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

    # a runner raises before its table is written, or its table and summary
    # while they are made; an OSError is an artifact's only while writing
    started = time.perf_counter()
    try:
        table, summary = _RUNNERS[args.command](config, base_dir)
    except (*_NUMERICAL_ERRORS, MemoryError, ValueError) as exc:
        return _failure(exc)
    try:
        verdicts = _write_artifacts(
            Path(out_path), table, Path(record_path), config, summary, started
        )
    except (*_NUMERICAL_ERRORS, MemoryError, OSError, ValueError) as exc:
        return _failure(exc)
    if args.command != "check-all":
        return 0
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
