"""Weak-field potential of nonnegative source lattices.

A source is a 3-D lattice of trace values (geometric units, G = c = 1).
Its potential at an exterior point is the direct sum 4 * trace * volume / r
over occupied cells; averaging the potential over a user-chosen region
yields the dimensionless field strength that feeds the time-axis rotation.
Static sources only: no retardation, no tensor structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import block_generator, block_ranges

# probe-cell pairs per block of the direct sum: a fixed budget, so that
# memory stays O(budget) (or one row of cells, when a row alone is larger)
_PAIR_BUDGET = 1 << 17

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
        nearest = np.empty(pts.shape[0], dtype=np.intp)
        for rows, d in _squared_distance_blocks(self, pts):
            nearest[rows] = d.argmin(axis=1)
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


def _squared_distance_blocks(source: SourceDistribution, points: np.ndarray):
    """Squared distances from the points to the occupied cells, in row blocks.

    Yields ``(rows, d)`` with ``d[i, j] = |points[rows][i] - cell_j|^2``,
    formed as ``|p|^2 + |c|^2 - 2 p.c`` with one matmul per block of at most
    ``_PAIR_BUDGET`` pairs (one row, if a row alone is larger).  Points and
    cells are first centred on the lattice centre, so that the cancellation
    is bounded by the lattice's own size wherever the lattice lies: each
    entry is off by a few ulps of ``|p - anchor|^2 + |c - anchor|^2``.
    """
    positions, _ = source.cell_data()
    anchor = source.origin + source.spacing * np.array(source.trace.shape) / 2.0
    cells = positions - anchor
    cell_norms = np.einsum("ij,ij->i", cells, cells)
    pts = np.atleast_2d(points) - anchor
    point_norms = np.einsum("ij,ij->i", pts, pts)
    step = max(1, _PAIR_BUDGET // cells.shape[0])
    for start in range(0, pts.shape[0], step):
        rows = slice(start, start + step)
        d = pts[rows] @ cells.T
        d *= -2.0
        d += cell_norms
        d += point_norms[rows, None]
        yield rows, d


def _potential_at(source: SourceDistribution, points: np.ndarray) -> np.ndarray:
    """Potential 4 * sum(mass / distance) at points known to be off-support."""
    pts = np.atleast_2d(points)
    positions, masses = source.cell_data()
    if positions.shape[0] == 0:
        return np.zeros(pts.shape[0])
    out = np.empty(pts.shape[0])
    for rows, d in _squared_distance_blocks(source, pts):
        np.sqrt(d, out=d)
        np.reciprocal(d, out=d)
        out[rows] = 4.0 * (d @ masses)
    return out


def trace_potential(source: SourceDistribution, point) -> float:
    """Potential of the source at one exterior point.

    Points closer than one cell spacing to the occupied support are
    rejected (the kernel is singular there and the lattice sum meaningless).
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise ValueError("point must be three finite coordinates")
    if float(source.support_distance(p[None, :])[0]) < source.spacing:
        raise ValueError("evaluation point lies inside or on the source support")
    return float(_potential_at(source, p[None, :])[0])


def _check_region_clear(source: SourceDistribution, region: RegionSpec) -> None:
    positions, _ = source.cell_data()
    if positions.shape[0] == 0:
        return
    if region.shape == "ball":
        d = np.linalg.norm(positions - region.center[None, :], axis=1)
        if float(d.min()) < region.radius + source.spacing:
            raise ValueError("region is not separated from the source support by a cell")
    else:
        low = region.bounds[0] - source.spacing
        high = region.bounds[1] + source.spacing
        inside = np.all((positions >= low) & (positions <= high), axis=1)
        if bool(inside.any()):
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
    (see :mod:`entropiclab.seeding`).
    """
    _check_region_clear(source, region)
    total = 0.0
    for block, start, stop in block_ranges(region.samples):
        rng = block_generator(seed, block)
        points = _sample_region(region, rng, stop - start)
        total += float(_potential_at(source, points).sum())
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
    stencil = p[None, :] + offsets
    if float(source.support_distance(stencil).min()) < source.spacing:
        raise ValueError("stencil touches the source support; move the probe into vacuum")
    values = _potential_at(source, stencil)
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
