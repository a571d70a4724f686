"""Hamiltonian-generated evolution in laboratory time.

The unperturbed propagator is the usual unitary group; a small real
parameter tilts the time axis into the complex plane, in exact closed form
or in the conventional first-order truncation, so the truncation error
itself can be measured.
"""
from __future__ import annotations

import numpy as np

from ._grid import evolution_grid
from .constants import NATURAL, Constants
from .operators import HermitianOperator, StateVector, Trajectory, _evolve, spectral_decompose

__all__ = ["evolve_h"]


def evolve_h(
    psi0: StateVector,
    hamiltonian: HermitianOperator,
    t_grid,
    constants: Constants = NATURAL,
    *,
    epsilon_prime: float = 0.0,
    mode: str = "exact",
) -> Trajectory:
    """Evolve ``psi0`` under a constant energy generator, (i + e') hbar dpsi/dt = H psi.

    At e' = 0 the state at each grid time t is ``exp(-i H t / hbar) psi0``,
    computed exactly from the eigensystem, so norms and energy averages are
    conserved to rounding.  Otherwise the time axis is complexified:
    ``exact`` solves the equation in closed form,
    ``psi(t) = exp[(e' - i) H t / (hbar (1 + e'^2))] psi0``; ``first_order``
    drops the 1/(1 + e'^2) factor, i.e. keeps only terms linear in e'.
    Comparing the two modes measures the quadratic truncation error.
    """
    grid, rate = _checked_rate(t_grid, epsilon_prime, mode, constants.hbar)
    return _lab_trajectory(psi0, hamiltonian, grid, rate, constants.hbar)


def _checked_rate(t_grid, epsilon_prime, mode, hbar):
    """``evolve_h``'s checks of its arguments; the grid as an array and the rate
    ``(e' - i) scale / hbar`` of the tilted time axis, None at e' = 0."""
    if not np.isfinite(epsilon_prime):
        raise ValueError("epsilon_prime must be finite")
    if abs(epsilon_prime) >= 1.0:
        raise ValueError(f"|epsilon_prime| must be < 1, got {epsilon_prime}")
    if mode not in ("exact", "first_order"):
        raise ValueError(f"mode must be 'exact' or 'first_order', got {mode!r}")
    grid = evolution_grid(t_grid, "t_grid")
    if epsilon_prime == 0.0:
        return grid, None
    scale = 1.0 / (1.0 + epsilon_prime**2) if mode == "exact" else 1.0
    return grid, (epsilon_prime - 1j) * scale / hbar


def _lab_trajectory(psi0, hamiltonian, grid, rate, hbar) -> Trajectory:
    """``evolve_h`` over ``grid``, a checked grid or a slice of one, at ``rate``.

    Each row depends only on its own grid point, so the rows of a slice are
    those of the whole grid bit for bit.
    """
    # each exponent as its expression rounds: -i t / hbar at e' = 0
    exponents = -1j * (grid / hbar) if rate is None else rate * grid
    return _evolve(psi0, (hamiltonian.entries, *spectral_decompose(hamiltonian)), grid,
                   exponents)
