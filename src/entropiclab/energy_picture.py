"""Hamiltonian-generated evolution in laboratory time.

The unperturbed propagator is the usual unitary group; the perturbed
variant tilts the time axis into the complex plane by a small real
parameter and is provided both in exact closed form and in the
conventional first-order truncation, so the truncation error itself can
be measured.
"""
from __future__ import annotations

import numpy as np

from ._grid import evolution_grid
from .constants import NATURAL, Constants
from .operators import HermitianOperator, StateVector, Trajectory, exponential_rows

__all__ = [
    "evolve_h",
    "evolve_h_perturbed",
    "noether_energy_drift",
]


def evolve_h(
    psi0: StateVector,
    hamiltonian: HermitianOperator,
    t_grid,
    constants: Constants = NATURAL,
) -> Trajectory:
    """Evolve ``psi0`` under a constant energy generator.

    The state at each grid time t is ``exp(-i H t / hbar) psi0``, computed
    exactly from the eigensystem, so norms and energy averages are
    conserved to rounding.
    """
    return _evolve(psi0, hamiltonian, t_grid, lambda grid: -1j * (grid / constants.hbar))


def evolve_h_perturbed(
    psi0: StateVector,
    hamiltonian: HermitianOperator,
    t_grid,
    epsilon_prime: float,
    mode: str = "exact",
    constants: Constants = NATURAL,
) -> Trajectory:
    """Evolution with a complexified time axis, (i + e') hbar dpsi/dt = H psi.

    ``exact`` solves the equation in closed form,
    ``psi(t) = exp[(e' - i) H t / (hbar (1 + e'^2))] psi0``; ``first_order``
    drops the 1/(1 + e'^2) factor, i.e. keeps only terms linear in e'.
    Comparing the two modes measures the quadratic truncation error.
    """
    if not np.isfinite(epsilon_prime):
        raise ValueError("epsilon_prime must be finite")
    if abs(epsilon_prime) >= 1.0:
        raise ValueError(f"|epsilon_prime| must be < 1, got {epsilon_prime}")
    if mode not in ("exact", "first_order"):
        raise ValueError(f"mode must be 'exact' or 'first_order', got {mode!r}")
    scale = 1.0 / (1.0 + epsilon_prime**2) if mode == "exact" else 1.0
    rate = (epsilon_prime - 1j) * scale / constants.hbar
    return _evolve(psi0, hamiltonian, t_grid, lambda grid: rate * grid)


def _evolve(psi0: StateVector, hamiltonian: HermitianOperator, t_grid, exponents) -> Trajectory:
    """``exp(z H) psi0`` for each ``z`` of ``exponents(grid)``; each caller keeps its own
    expression, as ``-1j * (grid / hbar)`` and ``rate * grid`` round differently."""
    grid = evolution_grid(t_grid, "t_grid")
    if psi0.norm() == 0.0:
        raise ValueError("initial state must be nonzero")
    amplitudes = exponential_rows(hamiltonian, exponents(grid), psi0)
    return Trajectory.from_amplitudes(grid, amplitudes, hamiltonian.entries)


def noether_energy_drift(trajectory: Trajectory) -> float:
    """Largest excursion of the energy average from its initial value.

    Vanishes (to rounding) for the unitary propagator, where the generator
    is a conserved charge; a strictly positive drift is the signature of
    the perturbed, norm-changing evolution.
    """
    energies = np.asarray(trajectory.expectations)
    if energies.size == 0:
        raise ValueError("trajectory is empty")
    return float(np.max(np.abs(energies - energies[0])))
