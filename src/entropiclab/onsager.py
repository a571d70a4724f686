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
from .operators import _dots, _first, _frobenius

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


def _check_systems(kinetic, hessian, y0) -> None:
    """Raise ``ValueError`` unless every system of the stacks is valid.

    ``kinetic`` and ``hessian`` are ``(..., n, n)`` and ``y0`` is
    ``(..., n)``.  Each kinetic matrix must be finite with a condition
    number of at most ``MAX_CONDITION``, each Hessian finite, symmetric and
    positive definite, and each ``y0`` finite.
    """
    n = kinetic.shape[-1]
    if not np.isfinite(kinetic).all():
        raise ValueError("kinetic matrix must be finite")
    condition = np.linalg.cond(kinetic)
    singular = ~(condition <= MAX_CONDITION)  # also NaN
    if singular.any():
        raise ValueError(
            f"kinetic matrix is singular or ill-conditioned (cond={_first(condition, singular):.3e})"
        )
    if hessian.shape != kinetic.shape or not np.isfinite(hessian).all():
        raise ValueError("entropy Hessian must be a finite matrix matching the kinetic matrix")
    asymmetry = _frobenius(hessian - hessian.swapaxes(-1, -2))
    if (asymmetry > 1e-12 * np.maximum(_frobenius(hessian), _TINY)).any():
        raise ValueError("entropy Hessian must be symmetric")
    if (np.linalg.eigvalsh(hessian)[..., 0] <= 0.0).any():
        raise ValueError("entropy Hessian must be positive definite")
    if y0.shape != kinetic.shape[:-1] or not np.isfinite(y0).all():
        raise ValueError(f"y0 must be a finite vector of length {n}")


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
        G = np.array(entropy_hessian, dtype=float)
        y = np.array(y0, dtype=float)
        _check_systems(L, G, y)
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
        return float(_relative_gaps(self.via_velocities, self.via_forces))


@dataclass(frozen=True)
class ReciprocityReport:
    symmetric: bool
    asymmetry_norm: float


def _forces(hessian, ys):
    # -G y for each coordinate row of ys (..., n), as columns (..., n, 1)
    return -hessian @ ys[..., :, None]


def _rate_forms(kinetic, resistance, columns):
    """Production rate per force column ``Y`` ``(..., n, 1)`` of ``columns``: the
    velocity form ``ydot.R.ydot`` with ``ydot = L Y``, and the force form ``Y.L.Y``."""
    velocities = kinetic @ columns
    via_velocities = _dots((velocities.swapaxes(-1, -2) @ resistance)[..., 0, :], velocities[..., 0])
    via_forces = _dots((columns.swapaxes(-1, -2) @ kinetic)[..., 0, :], columns[..., 0])
    return via_velocities, via_forces


def _relative_gaps(via_velocities, via_forces):
    """|velocity form - force form| over the larger of the two."""
    scale = np.maximum(np.maximum(np.abs(via_velocities), np.abs(via_forces)), 1e-300)
    return np.abs(via_velocities - via_forces) / scale


def forces(system: OnsagerSystem, y) -> np.ndarray:
    """Conjugate forces of the quadratic entropy: -G y."""
    return _forces(system.entropy_hessian, system._coerce(y))[:, 0]


def entropy_rate(system: OnsagerSystem, y) -> EntropyRate:
    """Production rate as velocity form (ydot.R.ydot) and force form (Y.L.Y)."""
    via_velocities, via_forces = _rate_forms(
        system.kinetic, system.resistance, forces(system, y)[:, None]
    )
    return EntropyRate(via_velocities=float(via_velocities), via_forces=float(via_forces))


def _relaxations(kinetic, resistance, hessian, y0, grid):
    """Coordinates ``(..., m, n)`` and production rates ``(..., m)`` on ``grid``
    for each system of the stacks; see ``relax``."""
    eigenvalues, vectors = np.linalg.eig(kinetic @ hessian)
    coefficients = np.linalg.solve(vectors, y0.astype(complex)[..., :, None])[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = -eigenvalues[..., None, :] * grid[:, None]
        decays = np.exp(exponents)
        if np.iscomplexobj(eigenvalues):
            # eig returns a real spectrum for a stack whose every eigenvalue is
            # real; a system with a real spectrum gets the real exp it would
            # get alone, even inside a stack that is complex
            real = (eigenvalues.imag == 0.0).all(axis=-1)
            decays[real] = np.exp(exponents[real].real)
        # one matrix-vector product per grid point and system
        ys = (vectors[..., None, :, :] @ (decays * coefficients[..., None, :])[..., :, None])[..., 0]
        if not np.isfinite(ys).all():
            raise OverflowError(
                "the relaxing coordinates overflowed the double range; "
                "shorten the grid or rescale the kinetic matrix"
            )
        drift = np.abs(ys.imag).max(axis=-1)
        if (drift > 1e-9 * np.maximum(1.0, np.abs(ys.real).max(axis=-1))).any():
            raise np.linalg.LinAlgError("relaxation lost realness; eigensystem is defective")
        ys = np.ascontiguousarray(ys.real)
        rates, _ = _rate_forms(
            kinetic[..., None, :, :], resistance[..., None, :, :],
            _forces(hessian[..., None, :, :], ys),
        )
    if not np.isfinite(rates).all():
        raise OverflowError(
            "the entropy production rate overflowed the double range; "
            "shorten the grid or rescale the kinetic matrix"
        )
    return ys, rates


def relax(system: OnsagerSystem, tprime_grid) -> OnsagerTrajectory:
    """Integrate ydot = -L G y exactly through the eigensystem of L G.

    The whole grid is one stacked product, each point bit-identical to
    evaluating it alone.  Coordinates or a production rate past the double
    range raise ``OverflowError``.
    """
    grid = evolution_grid(tprime_grid, "tprime_grid")
    ys, rates = _relaxations(
        system.kinetic, system.resistance, system.entropy_hessian, system.y0, grid
    )
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

