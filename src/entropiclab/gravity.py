"""Weak-field potential of nonnegative source lattices.

A source is a 3-D lattice of trace values (geometric units, G = c = 1).
Its potential at an exterior point is the direct sum 4 * trace * volume / r
over occupied cells; averaging the potential over a user-chosen region
yields the dimensionless field strength that feeds the time-axis rotation.
Static sources only: no retardation, no tensor structure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _fanout
from .seeding import BLOCK_SAMPLES, block_generator, block_ranges

# probe-cell pairs per block of the direct sum: a fixed budget, so that
# memory stays O(budget) (or one row of cells, when a row alone is larger)
_PAIR_BUDGET = 1 << 17
# probe-cell pairs from which a pass of the direct sum is split by rows
# across forked workers.  Starting a pool took 8-19 ms on a 2-core x86-64
# machine and a pair takes about 4 ns on one core, so a pool pays off from
# a few million pairs.  At 2^24, Laplacian stencils, a few probes and the
# check-all criteria stay in process, so no pool opens inside a check-all
# worker.
_FORK_PAIRS = 1 << 24
# probe-cell pairs per worker task, some 30 ms on one core.  The cells are
# centred once per pass, before the fork, so a task pays only for its
# start and for passing its result back: on the same machine, the seed-7
# bulk-output-gravity `gravity` command (2^27 pairs), called in process,
# took a median of 0.216 s at 2^21 pairs per task, 0.206 s at 2^22,
# 0.199 s at 2^23 and 0.197 s at 2^24 (11 interleaved calls each; 0.228
# and 0.206 s at 2^21 and 2^23 when each task centred the cells itself).
# Smaller tasks balance better over more CPUs, so of the two that tie the
# smaller is kept.
_TASK_PAIRS = 1 << 23
# sample blocks whose points mean_h draws before one pass sums them all:
# one pool serves them, and memory stays bounded (some 10 MB of points and
# potentials) whatever the number of samples
_WAVE_BLOCKS = 64

__all__ = [
    "RegionSpec",
    "SourceDistribution",
    "laplacian_spot_check",
    "mean_h",
    "rasterize",
    "trace_potential",
]


class SourceDistribution:
    """Lattice of nonnegative trace values with spacing and origin.

    Cell centers sit at ``origin + (index + 1/2) * spacing``.  Arrays are
    immutable after construction.
    """

    __slots__ = ("_trace", "_spacing", "_origin", "_cells")

    def __init__(self, trace, spacing: float, origin=(0.0, 0.0, 0.0)):
        arr = np.array(trace, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"trace lattice must be 3-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trace values must be finite")
        if np.any(arr < 0.0):
            raise ValueError("trace values must be nonnegative")
        if not (np.isfinite(spacing) and spacing > 0.0):
            raise ValueError(f"spacing must be positive, got {spacing!r}")
        org = np.array(origin, dtype=float)
        if org.shape != (3,) or not np.all(np.isfinite(org)):
            raise ValueError("origin must be three finite coordinates")
        arr.setflags(write=False)
        org.setflags(write=False)
        self._trace = arr
        self._spacing = float(spacing)
        self._origin = org
        self._cells = None

    @property
    def trace(self) -> np.ndarray:
        return self._trace

    @property
    def spacing(self) -> float:
        return self._spacing

    @property
    def origin(self) -> np.ndarray:
        return self._origin

    @property
    def total_mass(self) -> float:
        return float(self._trace.sum() * self._spacing**3)

    def cell_data(self):
        """Positions (n, 3) and integrated masses (n,) of the occupied cells."""
        if self._cells is None:
            index = np.argwhere(self._trace > 0.0)
            positions = self._origin + (index + 0.5) * self._spacing
            masses = self._trace[self._trace > 0.0] * self._spacing**3
            positions.setflags(write=False)
            masses.setflags(write=False)
            self._cells = (positions, masses)
        return self._cells

    def support_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest occupied cell center (inf if vacuum)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        positions, _ = self.cell_data()
        if positions.shape[0] == 0:
            return np.full(pts.shape[0], np.inf)
        nearest = _split_rows(_nearest_rows, self, pts)
        # the exact distance to the cell that the blocked kernel found nearest
        return np.linalg.norm(pts - positions[nearest], axis=1)


@dataclass(frozen=True)
class RegionSpec:
    """Averaging region: a ball (center, radius) or an axis-aligned box."""

    shape: str
    samples: int
    center: np.ndarray | None = None
    radius: float | None = None
    bounds: np.ndarray | None = None

    def __post_init__(self):
        if self.shape not in ("ball", "box"):
            raise ValueError(f"region shape must be 'ball' or 'box', got {self.shape!r}")
        if not isinstance(self.samples, (int, np.integer)) or self.samples < 1:
            raise ValueError("samples must be a positive integer")
        if self.shape == "ball":
            center = np.asarray(self.center, dtype=float)
            if center.shape != (3,) or not np.all(np.isfinite(center)):
                raise ValueError("ball region needs three finite center coordinates")
            if self.radius is None or not np.isfinite(self.radius) or self.radius < 0.0:
                raise ValueError("ball region needs a finite radius >= 0")
            object.__setattr__(self, "center", center)
        else:
            bounds = np.asarray(self.bounds, dtype=float)
            if bounds.shape != (2, 3) or not np.all(np.isfinite(bounds)):
                raise ValueError("box region needs bounds of shape (2, 3)")
            if np.any(bounds[0] > bounds[1]):
                raise ValueError("box bounds must satisfy low <= high")
            object.__setattr__(self, "bounds", bounds)

    @classmethod
    def ball(cls, center, radius: float, samples: int) -> "RegionSpec":
        return cls(shape="ball", samples=samples, center=center, radius=float(radius))

    @classmethod
    def box(cls, bounds, samples: int) -> "RegionSpec":
        return cls(shape="box", samples=samples, bounds=bounds)


class _Centred(NamedTuple):
    """A source's occupied cells for the blocked kernel: their centres less
    the lattice centre ``anchor``, the squared norms of those, and the masses."""

    anchor: np.ndarray
    cells: np.ndarray
    norms: np.ndarray
    masses: np.ndarray


def _centred(source: SourceDistribution) -> _Centred:
    """The occupied cells of ``source`` centred on its lattice centre, once
    per pass of the direct sum, before its workers fork."""
    positions, masses = source.cell_data()
    anchor = source.origin + source.spacing * np.array(source.trace.shape) / 2.0
    cells = positions - anchor
    return _Centred(anchor, cells, np.einsum("ij,ij->i", cells, cells), masses)


def _squared_distance_blocks(centred: _Centred, points: np.ndarray):
    """Squared distances from the points to the occupied cells, in row blocks.

    Yields ``(rows, d)`` with ``d[i, j] = |points[rows][i] - cell_j|^2``,
    formed as ``|p|^2 + |c|^2 + (-2 p).c`` with one matmul per block of at
    most ``_PAIR_BUDGET`` pairs (``_row_step`` rows).  Points and cells are
    centred on the lattice centre, so that the cancellation is bounded by
    the lattice's own size wherever the lattice lies: each entry is off by
    a few ulps of ``|p - anchor|^2 + |c - anchor|^2``.
    """
    pts = np.atleast_2d(points) - centred.anchor
    point_norms = np.einsum("ij,ij->i", pts, pts)
    # scaling by a power of two is exact, so (-2 p).c has the bits of
    # -2 (p.c), without a pass over each block to scale it
    pts *= -2.0
    step = _row_step(centred.cells.shape[0])
    for start in range(0, pts.shape[0], step):
        rows = slice(start, start + step)
        d = pts[rows] @ centred.cells.T
        d += centred.norms
        d += point_norms[rows, None]
        yield rows, d


def _row_step(cells: int) -> int:
    """Rows per block of ``_squared_distance_blocks`` for ``cells`` occupied
    cells: ``_PAIR_BUDGET`` pairs' worth, or one row when a row alone holds more."""
    return max(1, _PAIR_BUDGET // cells)


def _potential_rows(centred: _Centred, points: np.ndarray) -> np.ndarray:
    """4 * sum(mass / distance) at each of the points: one pass of the blocked kernel."""
    out = np.empty(points.shape[0])
    for rows, d in _squared_distance_blocks(centred, points):
        np.sqrt(d, out=d)
        np.reciprocal(d, out=d)
        out[rows] = 4.0 * (d @ centred.masses)
    return out


def _nearest_rows(centred: _Centred, points: np.ndarray) -> np.ndarray:
    """Index of the occupied cell nearest each point: one pass of the blocked kernel."""
    nearest = np.empty(points.shape[0], dtype=np.intp)
    for rows, d in _squared_distance_blocks(centred, points):
        nearest[rows] = d.argmin(axis=1)
    return nearest


def _split_rows(kernel, source: SourceDistribution, points: np.ndarray, period: int = 0):
    """``kernel(_centred(source), points[start:stop])`` over row ranges, joined in row order.

    The rows are cut into runs of ``period`` rows (one run if 0), and each
    run only at multiples of ``_row_step`` from its start, so every matmul
    block holds the rows it would hold if the run were one call, and the
    result has the same bits however the runs are split.  Below
    ``_FORK_PAIRS`` probe-cell pairs each run is one call in process.  From
    there on, the runs are cut into tasks of about ``_TASK_PAIRS`` pairs
    for ``_fanout.ordered``, whose task function, a closure over the
    kernel, the centred cells and the points, reaches the forked workers
    through the fork, so no task pickles more than its row range.  The
    source has at least one occupied cell.
    """
    centred = _centred(source)
    count = points.shape[0]
    cells = centred.cells.shape[0]
    period = period or max(count, 1)
    split = count * cells >= _FORK_PAIRS
    if split:
        step = _row_step(cells)
        span = step * max(1, _TASK_PAIRS // (step * cells))
    else:
        span = period
    ranges = [
        (start, min(start + span, run + period, count))
        for run in range(0, count, period)
        for start in range(run, min(run + period, count), span)
    ]
    if not ranges:
        return kernel(centred, points)

    def rows(start, stop):
        return kernel(centred, points[start:stop])

    parts = _fanout.ordered(rows, ranges, "gravity") if split else itertools.starmap(rows, ranges)
    return np.concatenate(list(parts))


def _potential_at(source: SourceDistribution, points: np.ndarray, period: int = 0) -> np.ndarray:
    """Potential 4 * sum(mass / distance) at points known to be off-support.

    ``period`` is that of ``_split_rows``.  Forked workers run
    ``_potential_rows``, never this function.
    """
    pts = np.atleast_2d(points)
    positions, _ = source.cell_data()
    if positions.shape[0] == 0:
        return np.zeros(pts.shape[0])
    return _split_rows(_potential_rows, source, pts, period)


def trace_potential(source: SourceDistribution, points):
    """Potential of the source at exterior points.

    ``points`` is one point or an ``(n, 3)`` array; the result has shape
    ``points.shape[:-1]``, a float for one point.  All rows go through one
    support check and one sum.  Points closer than one cell spacing to the
    occupied support are rejected (the kernel is singular there and the
    lattice sum meaningless).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0 or pts.shape[-1] != 3 or not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite coordinates of shape (3,) or (n, 3)")
    rows = pts.reshape(-1, 3)
    if np.any(source.support_distance(rows) < source.spacing):
        raise ValueError(
            "evaluation point lies within one cell of the source support; move it into vacuum"
        )
    return _potential_at(source, rows).reshape(pts.shape[:-1])[()]


def _check_region_clear(source: SourceDistribution, region: RegionSpec) -> None:
    if region.shape == "ball":
        touches = source.support_distance(region.center)[0] < region.radius + source.spacing
    else:
        positions, _ = source.cell_data()
        low = region.bounds[0] - source.spacing
        high = region.bounds[1] + source.spacing
        touches = np.all((positions >= low) & (positions <= high), axis=1).any()
    if touches:
        raise ValueError("region is not separated from the source support by a cell")


def _sample_region(region: RegionSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    if region.shape == "ball":
        directions = rng.standard_normal((count, 3))
        lengths = np.linalg.norm(directions, axis=1)
        lengths[lengths == 0.0] = 1.0
        directions /= lengths[:, None]
        radii = region.radius * rng.random(count) ** (1.0 / 3.0)
        return region.center[None, :] + directions * radii[:, None]
    low, high = region.bounds
    return low + rng.random((count, 3)) * (high - low)


def mean_h(source: SourceDistribution, region: RegionSpec, seed: int) -> float:
    """Monte Carlo average of the potential over the region.

    Deterministic given the seed: sample block b depends only on (seed, b)
    (see :mod:`entropiclab.seeding`).  Each block's potentials are summed
    on their own and the block sums added in block order, so the result
    has the same bits whether the direct sum runs in process or in workers.
    """
    _check_region_clear(source, region)
    blocks = list(block_ranges(region.samples))
    total = 0.0
    for first in range(0, len(blocks), _WAVE_BLOCKS):
        wave = blocks[first:first + _WAVE_BLOCKS]
        points = np.concatenate([
            _sample_region(region, block_generator(seed, block), stop - start)
            for block, start, stop in wave
        ])
        potentials = _potential_at(source, points, BLOCK_SAMPLES)
        offset = wave[0][1]
        for _, start, stop in wave:
            total += float(potentials[start - offset:stop - offset].sum())
    return total / region.samples


def laplacian_spot_check(source: SourceDistribution, point, step: float | None = None) -> float:
    """Discrete 7-point Laplacian of the potential at a vacuum point.

    The continuum potential is harmonic away from the support, so the
    residual is pure second-order truncation error: it shrinks like step^2
    under refinement.  Every stencil point must clear the support by one
    cell; the default step is the lattice spacing.
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise ValueError("point must be three finite coordinates")
    if step is None:
        step = source.spacing
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError("step must be positive")
    offsets = np.zeros((7, 3))
    for axis in range(3):
        offsets[1 + 2 * axis, axis] = step
        offsets[2 + 2 * axis, axis] = -step
    values = trace_potential(source, p + offsets)
    return float((values[1:].sum() - 6.0 * values[0]) / step**2)


def rasterize(primitives, shape, spacing: float, origin=(0.0, 0.0, 0.0)) -> SourceDistribution:
    """Burn shape primitives onto a fresh lattice.

    ``point`` carries an integrated mass (spread over its host cell);
    ``ball`` and ``box`` carry a trace density painted on every cell whose
    center falls inside.  Contributions add.
    """
    dims = tuple(int(n) for n in shape)
    if len(dims) != 3 or any(n < 1 for n in dims):
        raise ValueError(f"lattice shape must be three positive integers, got {shape!r}")
    if not (np.isfinite(spacing) and spacing > 0.0):
        raise ValueError("spacing must be positive")
    origin = np.asarray(origin, dtype=float)
    trace = np.zeros(dims)
    axes = [origin[i] + (np.arange(dims[i]) + 0.5) * spacing for i in range(3)]
    grid_x, grid_y, grid_z = np.meshgrid(*axes, indexing="ij")

    for prim in primitives:
        kind = prim.get("kind")
        if kind == "point":
            position = np.asarray(prim["position"], dtype=float)
            mass = float(prim["mass"])
            if mass <= 0 or not np.isfinite(mass):
                raise ValueError("point mass must be positive and finite")
            index = np.floor((position - origin) / spacing).astype(int)
            if np.any(index < 0) or np.any(index >= np.array(dims)):
                raise ValueError(f"point at {position.tolist()} falls outside the lattice")
            trace[tuple(index)] += mass / spacing**3
        elif kind == "ball":
            center = np.asarray(prim["center"], dtype=float)
            radius = float(prim["radius"])
            density = float(prim["trace"])
            if radius <= 0 or density < 0:
                raise ValueError("ball needs radius > 0 and trace >= 0")
            mask = (
                (grid_x - center[0]) ** 2 + (grid_y - center[1]) ** 2 + (grid_z - center[2]) ** 2
            ) <= radius**2
            trace[mask] += density
        elif kind == "box":
            bounds = np.asarray(prim["bounds"], dtype=float)
            density = float(prim["trace"])
            if bounds.shape != (2, 3) or density < 0:
                raise ValueError("box needs bounds of shape (2, 3) and trace >= 0")
            mask = (
                (grid_x >= bounds[0, 0]) & (grid_x <= bounds[1, 0])
                & (grid_y >= bounds[0, 1]) & (grid_y <= bounds[1, 1])
                & (grid_z >= bounds[0, 2]) & (grid_z <= bounds[1, 2])
            )
            trace[mask] += density
        else:
            raise ValueError(f"unknown primitive kind {kind!r}")

    return SourceDistribution(trace, spacing, origin)


def _descriptor_to_source(descriptor: dict, base_dir: Path) -> SourceDistribution:
    """Build a source from a schema-valid descriptor: ``spacing``, ``origin``,
    ``shape`` and exactly one of a ``primitives`` list or a ``data`` entry naming a raw
    little-endian float64 lattice (C order), resolved relative to ``base_dir``."""
    spacing = descriptor["spacing"]
    origin = descriptor["origin"]
    shape = descriptor["shape"]
    if "data" in descriptor:
        data_path = base_dir / descriptor["data"]
        lattice = np.fromfile(data_path, dtype="<f8")
        expected = int(np.prod(shape))
        if lattice.size != expected:
            raise ValueError(
                f"lattice file {data_path} holds {lattice.size} values, expected {expected}"
            )
        return SourceDistribution(lattice.reshape(shape), spacing, origin)
    return rasterize(descriptor["primitives"], shape, spacing, origin)
