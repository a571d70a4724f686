"""Linear flux-force dynamics near equilibrium.

A kinetic matrix links velocities to the conjugate forces of a quadratic
entropy; relaxation follows exactly from the eigensystem of that product,
and the production rate can be written as equal quadratic forms in either
velocities or forces.  The kinetic matrix of a dissipative process is
symmetric positive definite; asymmetric matrices are accepted, integrated,
and flagged by the reciprocity check rather than rejected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._grid import evolution_grid

MAX_CONDITION = 1e12
_TINY = np.finfo(float).tiny

__all__ = [
    "EntropyRate",
    "OnsagerSystem",
    "OnsagerTrajectory",
    "ReciprocityReport",
    "entropy_rate",
    "forces",
    "reciprocity_check",
    "relax",
]


class OnsagerSystem:
    """Kinetic matrix, its inverse, a positive-definite entropy Hessian, and
    the initial coordinates.

    The resistance matrix is the direct inverse of the kinetic matrix; a
    condition number above ``MAX_CONDITION`` is rejected as effectively
    singular.
    """

    __slots__ = ("_kinetic", "_resistance", "_hessian", "_y0")

    def __init__(self, kinetic, entropy_hessian, y0):
        L = np.array(kinetic, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape[0] < 1:
            raise ValueError(f"kinetic matrix must be square, got shape {L.shape}")
        if not np.all(np.isfinite(L)):
            raise ValueError("kinetic matrix must be finite")
        condition = np.linalg.cond(L)
        if not np.isfinite(condition) or condition > MAX_CONDITION:
            raise ValueError(
                f"kinetic matrix is singular or ill-conditioned (cond={condition:.3e})"
            )
        n = L.shape[0]
        G = np.array(entropy_hessian, dtype=float)
        if G.shape != (n, n) or not np.all(np.isfinite(G)):
            raise ValueError("entropy Hessian must be a finite matrix matching the kinetic matrix")
        if np.linalg.norm(G - G.T) > 1e-12 * max(np.linalg.norm(G), _TINY):
            raise ValueError("entropy Hessian must be symmetric")
        if float(np.linalg.eigvalsh(G)[0]) <= 0.0:
            raise ValueError("entropy Hessian must be positive definite")
        y = np.array(y0, dtype=float)
        if y.shape != (n,) or not np.all(np.isfinite(y)):
            raise ValueError(f"y0 must be a finite vector of length {n}")
        R = np.linalg.inv(L)
        for arr in (L, R, G, y):
            arr.setflags(write=False)
        self._kinetic = L
        self._resistance = R
        self._hessian = G
        self._y0 = y

    @property
    def dim(self) -> int:
        return self._kinetic.shape[0]

    @property
    def kinetic(self) -> np.ndarray:
        return self._kinetic

    @property
    def resistance(self) -> np.ndarray:
        return self._resistance

    @property
    def entropy_hessian(self) -> np.ndarray:
        return self._hessian

    @property
    def y0(self) -> np.ndarray:
        return self._y0

    def entropy_offset(self, y) -> float:
        """Entropy relative to equilibrium: -1/2 y.G.y (quadratic well)."""
        y = self._coerce(y)
        return float(-0.5 * y @ self._hessian @ y)

    def _coerce(self, y) -> np.ndarray:
        arr = np.asarray(y, dtype=float)
        if arr.shape != (self.dim,):
            raise ValueError(f"coordinate vector must have length {self.dim}, got shape {arr.shape}")
        return arr

    @classmethod
    def from_dict(cls, data: dict) -> "OnsagerSystem":
        """Build from a descriptor {N, L, G, y0}; matrices may be row-major flat
        lists or nested rows."""
        try:
            n = int(data["N"])
            L = np.asarray(data["L"], dtype=float).reshape(n, n)
            G = np.asarray(data["G"], dtype=float).reshape(n, n)
            y0 = np.asarray(data["y0"], dtype=float).reshape(n)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad system descriptor: {exc}") from exc
        return cls(L, G, y0)


@dataclass(frozen=True)
class OnsagerTrajectory:
    """Relaxation history: coordinates and production rate per grid time."""

    tprimes: np.ndarray
    ys: np.ndarray
    entropy_rates: np.ndarray

    def __post_init__(self):
        if not (len(self.tprimes) == len(self.ys) == len(self.entropy_rates)):
            raise ValueError("trajectory fields must have equal lengths")


@dataclass(frozen=True)
class EntropyRate:
    """The production rate written both ways; the two must agree to rounding."""

    via_velocities: float
    via_forces: float

    def relative_gap(self) -> float:
        """|velocity form - force form| over the larger of the two."""
        scale = max(abs(self.via_velocities), abs(self.via_forces), 1e-300)
        return abs(self.via_velocities - self.via_forces) / scale


@dataclass(frozen=True)
class ReciprocityReport:
    symmetric: bool
    asymmetry_norm: float


def forces(system: OnsagerSystem, y) -> np.ndarray:
    """Conjugate forces of the quadratic entropy: -G y."""
    return -system.entropy_hessian @ system._coerce(y)


def entropy_rate(system: OnsagerSystem, y) -> EntropyRate:
    """Production rate as velocity form (ydot.R.ydot) and force form (Y.L.Y)."""
    Y = forces(system, y)
    ydot = system.kinetic @ Y
    return EntropyRate(
        via_velocities=float(ydot @ system.resistance @ ydot),
        via_forces=float(Y @ system.kinetic @ Y),
    )


def relax(system: OnsagerSystem, tprime_grid) -> OnsagerTrajectory:
    """Integrate ydot = -L G y exactly through the eigensystem of L G."""
    grid = evolution_grid(tprime_grid, "tprime_grid")
    product = system.kinetic @ system.entropy_hessian
    eigenvalues, vectors = np.linalg.eig(product)
    coefficients = np.linalg.solve(vectors, system.y0.astype(complex))
    ys = np.empty((grid.size, system.dim))
    rates = np.empty(grid.size)
    for k, t in enumerate(grid):
        y = vectors @ (np.exp(-eigenvalues * t) * coefficients)
        if np.max(np.abs(y.imag)) > 1e-9 * max(1.0, float(np.max(np.abs(y.real)))):
            raise np.linalg.LinAlgError("relaxation lost realness; eigensystem is defective")
        ys[k] = y.real
        rates[k] = entropy_rate(system, ys[k]).via_velocities
    ys.setflags(write=False)
    rates.setflags(write=False)
    return OnsagerTrajectory(tprimes=grid, ys=ys, entropy_rates=rates)


def reciprocity_check(kinetic) -> ReciprocityReport:
    """Relative asymmetry of a kinetic matrix; symmetric means <= 1e-12."""
    L = np.asarray(kinetic, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"kinetic matrix must be square, got shape {L.shape}")
    scale = np.linalg.norm(L)
    asymmetry = float(np.linalg.norm(L - L.T) / max(scale, _TINY))
    return ReciprocityReport(symmetric=asymmetry <= 1e-12, asymmetry_norm=asymmetry)

