"""Entropy-generated evolution in dimensionless thermal time.

The generator is the energy operator divided by temperature; the evolution
parameter is tau = ln(T / T0).  A unit-modulus complex factor exp(i*phase)
tilts the time axis; its weak-field expansion produces a dissipation
parameter epsilon <= 0 that turns the unitary group into a one-parameter
semigroup of norm-dilating operators.  Everything claimed about that
construction is expressed here as computable quantities: the propagator,
its eigen-solutions, the production-rate identity, uncertainty products,
and the consistency map back to evolution in laboratory time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._grid import evolution_grid
from .constants import NATURAL, Constants
from .operators import (
    HermitianOperator,
    StateVector,
    Trajectory,
    _check_hermitian,
    _expectations,
    _norms,
    _rows,
    _spreads,
    eigenbasis_rows,
    exponential_rows,
    spectral_decompose,
)

_TINY = np.finfo(float).tiny

# |d<A>/dtau| below this is treated as a stationary probe observable
STATIONARY_DERIVATIVE = 1e-14

__all__ = [
    "EigenSolutionSpec",
    "dissipative_part",
    "eigen_solution",
    "entropy_operator",
    "entropy_production",
    "entropy_production_via_chart",
    "evolve_s",
    "picture_consistency",
    "uncertainty_product",
    "weak_field_epsilon",
]


def dissipative_part(matrix: np.ndarray) -> np.ndarray:
    """Operator-valued imaginary part: the Hermitian Y in M = X + iY.

    For a complex matrix this is (M - M*) / 2i, not the entrywise imaginary
    part; it is the component that breaks the conservation law.
    """
    matrix = np.asarray(matrix, dtype=complex)
    return (matrix - matrix.conj().T) / 2j


def weak_field_epsilon(strength: float) -> float:
    """Dissipation parameter ``epsilon = -pi * strength / 2`` of a field strength.

    An external field of dimensionless ``strength`` rotates the time axis by
    the unit-modulus factor ``exp(i * phase)``, with
    ``phase = -(pi / 2) (1 - exp(-strength))``: 0 without a field (unitary
    evolution), -pi/2 in a strong one (maximal dissipation).  ``epsilon``
    is that rotation's weak-field expansion parameter.
    """
    if not (np.isfinite(strength) and strength >= 0.0):
        raise ValueError(f"strength must be finite and >= 0, got {strength!r}")
    return -math.pi * float(strength) / 2.0


def entropy_operator(hamiltonian: HermitianOperator, temperature: float) -> tuple:
    """The evolution generator ``S0 = H / T0`` as ``(entries, eigenvalues, eigenvectors)``.

    ``S0`` shares ``H``'s eigenvectors; its entries and eigenvalues are
    ``H``'s times ``1 / T0``, so every temperature of one Hamiltonian shares
    one ``eigh``.  An ``S0`` past the double range raises ``ValueError``.
    """
    if not (np.isfinite(temperature) and temperature > 0.0):
        raise ValueError(f"temperature must be positive, got {temperature!r}")
    if hamiltonian.unit != "energy":
        raise ValueError("hamiltonian must carry energy units")
    s = 1.0 / float(temperature)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        entries = hamiltonian.entries * s
    if not np.isfinite(entries).all():
        raise ValueError("hamiltonian / temperature must be finite")
    eigenvalues, eigenvectors = spectral_decompose(hamiltonian)
    return entries, eigenvalues * s, eigenvectors


def evolve_s(
    psi0: StateVector,
    generator: tuple,
    tau_grid,
    epsilon: float,
    constants: Constants = NATURAL,
    *,
    schedule: str = "frozen",
    allow_antidissipative: bool = False,
) -> Trajectory:
    """Evolve under the entropy generator: psi(tau) = T-exp[(i - eps)/kB * Integral(S)] psi0.

    ``generator`` is ``S0 = H / T0`` as ``entropy_operator`` gives it, and ``schedule``
    says how the generator depends on tau: ``"frozen"`` holds ``S = S0``,
    ``"chart"`` gives ``S(tau) = S0 exp(-tau)``, the generator carried by
    the chart ``t(tau) = hbar / (kB T0 exp(tau))``.  Either way ``S(tau)`` is
    ``S0`` times a scalar, so the ordered exponential is exact in closed
    form, ``exp[(i - eps)/kB * S0 * g(tau)]`` with ``g(tau) = tau`` or
    ``1 - exp(-tau)``: one eigenbasis product on ``S0``'s eigensystem per
    grid point, and the chart averages are ``exp(-tau) <S0>``.  A row or a
    norm past the double range raises ``OverflowError``.

    ``epsilon > 0`` selects the contraction (norm-shrinking) branch, which
    is rejected unless ``allow_antidissipative`` is set explicitly; it is
    needed to test the contraction property but describes no physical
    dissipation.
    """
    grid = _checked_grid(psi0, generator, tau_grid, epsilon, schedule, allow_antidissipative)
    return _thermal_trajectory(psi0, generator, grid, epsilon, constants.kB, schedule)


def _checked_grid(psi0, generator, tau_grid, epsilon, schedule, allow_antidissipative):
    """``evolve_s``'s checks of its arguments; the grid as an array."""
    if schedule not in ("frozen", "chart"):
        raise ValueError(f"unknown schedule {schedule!r}; expected frozen or chart")
    grid = evolution_grid(tau_grid, "tau_grid")
    if not np.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    if epsilon > 0.0 and not allow_antidissipative:
        raise ValueError(
            "epsilon > 0 drives the antidissipative contraction branch; "
            "pass allow_antidissipative=True to run it deliberately"
        )
    if psi0.norm() == 0.0:
        raise ValueError("initial state must be nonzero")
    if psi0.dim != len(generator[0]):
        raise ValueError(f"dimension mismatch: operator {len(generator[0])} vs state {psi0.dim}")
    return grid


def _thermal_trajectory(psi0, generator, grid, epsilon, kB, schedule) -> Trajectory:
    """``evolve_s`` over ``grid``, a checked grid or a slice of one.

    Each row depends only on its own grid point, so the rows of a slice are
    those of the whole grid bit for bit.
    """
    entries, eigenvalues, eigenvectors = generator
    elapsed = grid if schedule == "frozen" else -np.expm1(-grid)
    amplitudes = _thermal_rows(eigenvalues, eigenvectors, psi0.amplitudes, elapsed, epsilon, kB)
    trajectory = Trajectory.from_amplitudes(grid, amplitudes, entries)
    if schedule == "frozen":
        return trajectory
    return replace(trajectory, expectations=np.exp(-grid) * trajectory.expectations)


def _thermal_rows(eigenvalues, eigenvectors, states, elapsed, epsilons, kB):
    """Rows ``exp[(i - eps)/kB * S0 * g] psi0``: ``evolve_s``'s amplitudes for stacks of
    ``S0``'s eigensystems (eigenvalues ``(..., d)``, eigenvectors ``(..., d, d)``),
    states ``(..., d)``, elapsed grids ``g`` ``(..., n)`` and epsilons ``(...)``.

    The result ``(..., n, d)`` equals ``evolve_s`` on each system alone bit for bit.
    An exponent past the double range raises ``ValueError``; a row that overflows
    or underflows raises as in ``eigenbasis_rows``.
    """
    # part by part, as Python's complex (1j - eps) / kB divides; NumPy's complex
    # division would multiply by the reciprocal of kB instead
    rates = 1j / kB - np.asarray(epsilons, dtype=float)[..., None] / kB
    z = rates * elapsed
    if not np.isfinite(z).all():
        raise ValueError("exponent must be finite")
    return _rows(eigenvectors, z[..., None] * eigenvalues[..., None, :], states)


@dataclass(frozen=True)
class EigenSolutionSpec:
    """A tau-independent mode with its dimensionless entropic eigenvalue.

    The mode must satisfy ``S mode = s * kB * mode`` within
    1e-10 * |S| * |mode| (Frobenius norm on the operator).
    """

    mode: StateVector
    entropic_eigenvalue: float
    generator: tuple  # S0 as entropy_operator gives it
    constants: Constants = field(default=NATURAL)

    def __post_init__(self):
        entries = self.generator[0]
        if self.mode.dim != len(entries):
            raise ValueError("mode and generator dimensions differ")
        if self.mode.norm() == 0.0:
            raise ValueError("mode must be nonzero")
        target = self.entropic_eigenvalue * self.constants.kB * self.mode.amplitudes
        residual = np.linalg.norm(entries @ self.mode.amplitudes - target)
        bound = 1e-10 * max(float(np.linalg.norm(entries)), _TINY) * self.mode.norm()
        if residual > bound:
            raise ValueError(
                f"mode fails the eigenvalue equation: residual {residual:.3e} > {bound:.3e}"
            )


def eigen_solution(spec: EigenSolutionSpec, tau: float, epsilon: float) -> StateVector:
    """Closed-form factorized solution: mode * exp[(i - eps) * tau * s].

    Matches ``evolve_s`` on the same mode; the entire tau dependence is the
    scalar factor, whose modulus exp(-eps * tau * s) carries the
    norm growth of the dissipative branch.
    """
    if not (np.isfinite(tau) and np.isfinite(epsilon)):
        raise ValueError("tau and epsilon must be finite")
    factor = np.exp((1j - epsilon) * tau * spec.entropic_eigenvalue)
    return StateVector(spec.mode.amplitudes * factor)


def entropy_production(
    hamiltonian: HermitianOperator,
    epsilon: float,
    constants: Constants = NATURAL,
) -> np.ndarray:
    """Per-mode rates of change of the entropy operator along laboratory time.

    ``rates[k] = (kB / hbar) (1 - i * epsilon) * energy_k``, one per eigenvalue
    of ``hamiltonian`` in ascending order; the imaginary part,
    ``-epsilon * kB * energy / hbar``, is the dissipative piece and is
    nonnegative for epsilon <= 0 on a nonnegative spectrum.
    """
    coefficient = (constants.kB / constants.hbar) * (1.0 - 1j * epsilon)
    rates = coefficient * spectral_decompose(hamiltonian)[0]
    rates.setflags(write=False)
    return rates


def entropy_production_via_chart(
    hamiltonian: HermitianOperator,
    epsilon: float,
    constants: Constants = NATURAL,
) -> np.ndarray:
    """Independent route to the production rate: differentiate the chart.

    Along the time-temperature chart the generator is
    ``S(t) = (kB t / hbar) * (1/factor) * H``, with ``factor`` the rotation of
    ``weak_field_epsilon``; this returns its central difference at t = 1 with
    step 1e-4, the inverse factor truncated to 1 - i*epsilon (the convention
    in which the closed-form rate is stated).
    """
    inverse_factor = 1.0 - 1j * epsilon

    def chart_generator(t: float) -> np.ndarray:
        return (constants.kB * t / constants.hbar) * inverse_factor * hamiltonian.entries

    return (chart_generator(1.0 + 1e-4) - chart_generator(1.0 - 1e-4)) / 2e-4


def uncertainty_product(
    psi: StateVector,
    generator: tuple,
    observable: HermitianOperator,
    tau_probe: float,
    constants: Constants = NATURAL,
) -> tuple:
    """The generator spread and the probe-observable evolution time, ``(delta_s, delta_tau)``.

    ``generator`` is ``S0`` as ``entropy_operator`` gives it.  The state is
    carried to ``tau_probe`` with epsilon = 0; ``delta_tau`` is the spread of
    the observable over its clock rate |d<A>/dtau|, computed exactly from
    the commutator, so the product ``delta_s * delta_tau`` is the sharp
    two-spread bound, not a finite difference, and obeys the kB/2 bound.
    A stationary probe (rate below 1e-14) yields an infinite ``delta_tau``.
    """
    if psi.dim != len(generator[0]) or psi.dim != observable.dim:
        raise ValueError("state, generator and observable dimensions must agree")
    delta_s, delta_tau = _uncertainty_products(*generator, observable.entries, psi.amplitudes,
                                               tau_probe, constants)
    return float(delta_s), float(delta_tau)


def _uncertainty_products(s_entries, eigenvalues, eigenvectors, observables, states, taus,
                          constants):
    """``(delta_s, delta_tau)`` for stacks of generators ``(..., d, d)`` with their
    eigensystems, observables ``(..., d, d)``, states ``(..., d)`` and probe points
    ``(...)``; ``delta_tau`` is infinite for a stationary probe.  See
    ``uncertainty_product``."""
    taus = np.asarray(taus, dtype=float)
    if not np.isfinite(taus).all():
        raise ValueError("tau_probe must be finite")
    if not (_norms(states) != 0.0).all():
        raise ValueError("state must be nonzero")
    z = np.asarray(1j * (taus / constants.kB))  # exp(z S) carries each state to its tau
    exponents = z[..., None, None] * eigenvalues[..., None, :]
    probes = _rows(eigenvectors, exponents, states)[..., 0, :]
    delta_s = _spreads(s_entries, probes)
    delta_a = _spreads(observables, probes)
    commutator = observables @ s_entries - s_entries @ observables
    clock_matrices = (1j / constants.kB) * commutator
    _check_hermitian(clock_matrices)
    speeds = np.abs(_expectations(clock_matrices, probes))
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_tau = np.where(speeds < STATIONARY_DERIVATIVE, math.inf, delta_a / speeds)
    return delta_s, delta_tau


def _closed_form_rows(mode, psi0, hamiltonian, reference_temperature, taus, epsilon, constants):
    """Closed-form ``frozen_S`` or ``chart_S`` rows at each tau (see picture_consistency)."""
    h, vectors = spectral_decompose(hamiltonian)
    if mode == "frozen_S":
        phases = (1j - epsilon) * (h / reference_temperature) * taus[:, None] / constants.kB
    else:
        # math.exp, not np.exp, whose SIMD kernel may round differently
        elapsed = np.array([1.0 - math.exp(-tau) for tau in taus])
        phases = (1j - epsilon) * (h / (constants.kB * reference_temperature)) * elapsed[:, None]
    return eigenbasis_rows(vectors, phases, psi0)


def picture_consistency(
    psi0: StateVector,
    hamiltonian: HermitianOperator,
    reference_temperature: float,
    mode: str,
    tau_grid,
    epsilon: float,
    constants: Constants = NATURAL,
) -> float:
    """Largest relative state deviation between matched evolutions in the two charts.

    Each grid point's deviation is ``|psi_S - psi_ref| / |psi_ref|``, so a
    run whose norm grows or shrinks by many orders of magnitude is held to
    rounding relative to its own size.  The thermal side is ``evolve_s`` on
    ``S0 = H / T0`` with the schedule the mode names; the reference shares
    no code with it past H's eigensystem.

    ``real_C``   -- epsilon = 0 only: the chart schedule
                    S(tau) = H exp(-tau) / T0 against laboratory-time
                    evolution exp(-i H t / hbar) evaluated at
                    t(tau) = hbar / (kB T0 exp(tau)).  Both are closed
                    forms, so this checks the chart identity itself.
    ``frozen_S`` -- the frozen schedule against the spectral solution
                    exp[(i-eps) (h/T0) tau / kB].
    ``chart_S``  -- the chart schedule against the spectral solution with
                    the integrated exponent (i-eps)(h / (kB T0))(1 - exp(-tau)).
    """
    if not (np.isfinite(reference_temperature) and reference_temperature > 0.0):
        raise ValueError("reference_temperature must be positive")
    grid = evolution_grid(tau_grid, "tau_grid")
    if psi0.norm() == 0.0:
        raise ValueError("initial state must be nonzero")
    schedules = {"real_C": "chart", "frozen_S": "frozen", "chart_S": "chart"}
    if mode not in schedules:
        raise ValueError(f"unknown mode {mode!r}; expected real_C, frozen_S or chart_S")
    if mode == "real_C" and epsilon != 0.0:
        raise ValueError("real_C mode is defined for epsilon = 0")

    generator = entropy_operator(hamiltonian, reference_temperature)
    s_side = evolve_s(psi0, generator, grid, epsilon, constants, schedule=schedules[mode])
    if mode == "real_C":
        t_of_tau = constants.hbar / (constants.kB * reference_temperature * np.exp(grid))
        exponents = -1j * ((t_of_tau - t_of_tau[0]) / constants.hbar)
        reference = exponential_rows(hamiltonian, exponents, psi0)
    else:
        reference = _closed_form_rows(
            mode, psi0, hamiltonian, reference_temperature, grid, epsilon, constants
        )
    gaps = np.linalg.norm(s_side.amplitudes - reference, axis=1)
    return float(np.max(gaps / np.linalg.norm(reference, axis=1)))
