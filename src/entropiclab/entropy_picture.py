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
from dataclasses import dataclass, field

import numpy as np

from ._grid import evolution_grid
from .constants import NATURAL, Constants
from .operators import (
    HermitianOperator,
    StateVector,
    Trajectory,
    apply_exponential,
    eigenbasis_rows,
    expectation,
    exponential_rows,
    spectral_decompose,
    uncertainty,
)

_TINY = np.finfo(float).tiny

# relative agreement of successive chart refinements over a whole grid, and
# the most times a grid interval's step is halved to reach it
_RTOL = 1e-8
_MAX_REFINEMENTS = 14

# |d<A>/dtau| below this is treated as a stationary probe observable
STATIONARY_DERIVATIVE = 1e-14

__all__ = [
    "ConvergenceError",
    "EigenSolutionSpec",
    "EntropyOperator",
    "EntropyProductionReport",
    "UncertaintyProduct",
    "WickFactor",
    "dissipative_part",
    "eigen_solution",
    "entropy_operator",
    "entropy_production",
    "entropy_production_via_chart",
    "evolve_s",
    "picture_consistency",
    "uncertainty_product",
]


class ConvergenceError(RuntimeError):
    """Raised when the ordered-product integrator fails to refine to tolerance."""


def dissipative_part(matrix: np.ndarray) -> np.ndarray:
    """Operator-valued imaginary part: the Hermitian Y in M = X + iY.

    For a complex matrix this is (M - M*) / 2i, not the entrywise imaginary
    part; it is the component that breaks the conservation law.
    """
    matrix = np.asarray(matrix, dtype=complex)
    return (matrix - matrix.conj().T) / 2j


@dataclass(frozen=True)
class WickFactor:
    """Rotation of the time axis controlled by an external-field strength.

    ``phase`` interpolates from 0 (no field, unitary evolution) to -pi/2
    (strong field, maximal dissipation); ``factor`` is exp(i * phase) and
    ``epsilon = -pi * strength / 2`` is its weak-field expansion parameter.
    All three are derived from ``strength``.
    """

    strength: float
    phase: float = field(init=False)
    factor: complex = field(init=False)
    epsilon: float = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.strength) and self.strength >= 0.0):
            raise ValueError(f"strength must be finite and >= 0, got {self.strength!r}")
        strength = float(self.strength)
        phase = -(math.pi / 2.0) * (1.0 - math.exp(-strength))
        object.__setattr__(self, "strength", strength)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "factor", complex(math.cos(phase), math.sin(phase)))
        object.__setattr__(self, "epsilon", -math.pi * strength / 2.0)


@dataclass(frozen=True)
class EntropyOperator:
    """Energy operator divided by a fixed positive temperature.

    ``operator`` is derived as ``source`` scaled by ``1 / temperature``, so
    it inherits the source's eigensystem.
    """

    source: HermitianOperator
    temperature: float
    operator: HermitianOperator = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError(f"temperature must be positive, got {self.temperature!r}")
        if self.source.unit != "energy":
            raise ValueError("hamiltonian must carry energy units")
        temperature = float(self.temperature)
        object.__setattr__(self, "temperature", temperature)
        object.__setattr__(
            self, "operator", self.source.scaled(1.0 / temperature, unit="entropy")
        )

    @property
    def dim(self) -> int:
        return self.operator.dim


def entropy_operator(hamiltonian: HermitianOperator, temperature: float) -> EntropyOperator:
    """Divide an energy operator by a temperature to get the evolution generator."""
    return EntropyOperator(hamiltonian, temperature)


def _generator_at(generator, tau: float, dim: int) -> EntropyOperator:
    value = generator(tau)
    if not isinstance(value, EntropyOperator):
        raise TypeError(f"generator schedule must return EntropyOperator, got {type(value)!r}")
    if value.dim != dim:
        raise ValueError("generator schedule changed dimension along the way")
    return value


# two-point Gauss-Legendre nodes and the weights of the fourth-order
# commutator-free step (Blanes & Moan, Appl. Numer. Math. 56, 2006)
_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_ALPHA = (0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0)


def _combined(first: EntropyOperator, second: EntropyOperator, w1: float, w2: float):
    # w1 * first + w2 * second; a multiple of a shared source inherits its eigensystem
    if first.source is second.source:
        return first.source.scaled(w1 / first.temperature + w2 / second.temperature, unit="entropy")
    return HermitianOperator(
        w1 * first.operator.entries + w2 * second.operator.entries, unit="entropy"
    )


def _ordered_product(state, generator, a, b, substeps, z_rate, dim):
    # one fourth-order commutator-free step per substep, applied in tau
    # order (later factors act later):
    # exp(z w (a2 S1 + a1 S2)) exp(z w (a1 S1 + a2 S2)), S_k = S at node k
    width = (b - a) / substeps
    current = state
    for j in range(substeps):
        start = a + j * width
        first, second = (_generator_at(generator, start + c * width, dim) for c in _NODES)
        for w1, w2 in (_ALPHA, _ALPHA[::-1]):
            current = apply_exponential(_combined(first, second, w1, w2), z_rate * width, current)
    return current


def evolve_s(
    psi0: StateVector,
    generator,
    tau_grid,
    epsilon: float,
    constants: Constants = NATURAL,
    *,
    allow_antidissipative: bool = False,
) -> Trajectory:
    """Evolve under the entropy generator: psi(tau) = T-exp[(i - eps)/kB * Integral(S)] psi0.

    ``generator`` is either a constant ``EntropyOperator`` (solved exactly
    through its eigensystem) or a callable tau -> EntropyOperator, handled
    by ordered products of fourth-order commutator-free steps (two
    exponentials per step, the generator sampled at the two Gauss-Legendre
    nodes) whose step is halved, at most 14 times, until two successive
    refinements agree within a relative 1e-8; the agreement budget is divided
    across grid intervals so the accumulated trajectory honours 1e-8 as a
    whole.  A refined state whose norm leaves the double range raises
    ``OverflowError``.  A schedule whose values share one ``source``
    operator reuses its eigensystem.

    ``epsilon > 0`` selects the contraction (norm-shrinking) branch, which
    is rejected unless ``allow_antidissipative`` is set explicitly; it is
    needed to test the contraction property but describes no physical
    dissipation.
    """
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
    z_rate = (1j - epsilon) / constants.kB

    if isinstance(generator, EntropyOperator):
        amplitudes = exponential_rows(generator.operator, [z_rate * tau for tau in grid], psi0)
        return Trajectory.from_amplitudes(grid, amplitudes, generator.operator)
    if not callable(generator):
        raise TypeError(
            "generator must be an EntropyOperator or a callable tau -> EntropyOperator"
        )
    dim = psi0.dim
    rows = [psi0.amplitudes]
    current = psi0
    interval_rtol = _RTOL / max(1, grid.size - 1)
    for a, b in zip(grid[:-1], grid[1:]):
        coarse = _ordered_product(current, generator, a, b, 1, z_rate, dim)
        for level in range(1, _MAX_REFINEMENTS + 1):
            fine = _ordered_product(current, generator, a, b, 2**level, z_rate, dim)
            # squares overflow past about 1e154; the norm is then not finite and raises
            with np.errstate(over="ignore"):
                norm = fine.norm()
                gap = float(np.linalg.norm(fine.amplitudes - coarse.amplitudes))
            if not math.isfinite(norm):
                raise OverflowError(
                    f"the evolved state's norm left the double range on tau interval "
                    f"[{a:g}, {b:g}]; rescale the generator or shorten the evolution interval"
                )
            if gap <= interval_rtol * max(norm, _TINY):
                break
            coarse = fine
        else:
            raise ConvergenceError(
                f"ordered-product refinement stalled above rtol={_RTOL:g} "
                f"on tau interval [{a:g}, {b:g}]"
            )
        current = fine
        rows.append(current.amplitudes)
    return Trajectory.from_amplitudes(
        grid, np.array(rows), lambda tau: _generator_at(generator, tau, dim).operator
    )


@dataclass(frozen=True)
class EigenSolutionSpec:
    """A tau-independent mode with its dimensionless entropic eigenvalue.

    The mode must satisfy ``S mode = s * kB * mode`` within
    1e-10 * |S| * |mode| (Frobenius norm on the operator).
    """

    mode: StateVector
    entropic_eigenvalue: float
    generator: EntropyOperator
    constants: Constants = field(default=NATURAL)

    def __post_init__(self):
        if self.mode.dim != self.generator.dim:
            raise ValueError("mode and generator dimensions differ")
        if self.mode.norm() == 0.0:
            raise ValueError("mode must be nonzero")
        target = self.entropic_eigenvalue * self.constants.kB * self.mode.amplitudes
        residual = np.linalg.norm(self.generator.operator.entries @ self.mode.amplitudes - target)
        bound = 1e-10 * max(self.generator.operator.norm(), _TINY) * self.mode.norm()
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


@dataclass(frozen=True)
class EntropyProductionReport:
    """Rate of change of the entropy operator along laboratory time.

    ``rates[k] = coefficient * mode_energies[k]`` with
    ``coefficient = (kB / hbar) (1 - i * epsilon)``; the imaginary part,
    ``-epsilon * kB * energy / hbar``, is the dissipative piece and is
    nonnegative for epsilon <= 0 on a nonnegative spectrum.
    """

    mode_energies: np.ndarray
    rates: np.ndarray
    coefficient: complex
    rate_operator: np.ndarray


def entropy_production(
    hamiltonian: HermitianOperator,
    wick: WickFactor,
    constants: Constants = NATURAL,
) -> EntropyProductionReport:
    """Per-mode production rates (kB/hbar)(1 - i*eps) * energy, plus the same
    statement as an operator."""
    coefficient = (constants.kB / constants.hbar) * (1.0 - 1j * wick.epsilon)
    energies = spectral_decompose(hamiltonian).eigenvalues.copy()
    rates = coefficient * energies
    energies.setflags(write=False)
    rates.setflags(write=False)
    rate_operator = coefficient * hamiltonian.entries
    rate_operator.setflags(write=False)
    return EntropyProductionReport(
        mode_energies=energies,
        rates=rates,
        coefficient=complex(coefficient),
        rate_operator=rate_operator,
    )


def entropy_production_via_chart(
    hamiltonian: HermitianOperator,
    wick: WickFactor,
    constants: Constants = NATURAL,
    *,
    first_order: bool = True,
) -> np.ndarray:
    """Independent route to the production rate: differentiate the chart.

    Along the time-temperature chart the generator is
    ``S(t) = (kB t / hbar) * (1/factor) * H``; this returns its central
    difference at t = 1 with step 1e-4.  With ``first_order`` the inverse
    factor is truncated to 1 - i*epsilon (the convention in which the
    closed-form rate is stated); otherwise the exact unit-modulus inverse
    is used and the quadratic gap between the two becomes visible.
    """
    inverse_factor = (1.0 - 1j * wick.epsilon) if first_order else 1.0 / wick.factor

    def chart_generator(t: float) -> np.ndarray:
        return (constants.kB * t / constants.hbar) * inverse_factor * hamiltonian.entries

    return (chart_generator(1.0 + 1e-4) - chart_generator(1.0 - 1e-4)) / 2e-4


@dataclass(frozen=True)
class UncertaintyProduct:
    """Spread of the generator times the probe-observable evolution time.

    ``delta_tau`` is the ratio (spread of A) / |d<A>/dtau| at the probe
    point; ``product = delta_s * delta_tau`` obeys the kB/2 bound in the
    unitary branch.
    """

    delta_s: float
    delta_tau: float
    product: float | None


def uncertainty_product(
    psi: StateVector,
    entropy_op: EntropyOperator,
    observable: HermitianOperator,
    tau_probe: float,
    constants: Constants = NATURAL,
) -> UncertaintyProduct:
    """Evaluate the generator-time uncertainty product on the unitary branch.

    The state is carried to ``tau_probe`` with epsilon = 0; the observable
    clock rate d<A>/dtau is computed exactly from the commutator, so the
    resulting product is the sharp two-spread bound, not a finite
    difference.  A stationary probe (rate below 1e-14) yields an infinite
    delta_tau and no product.
    """
    if not np.isfinite(tau_probe):
        raise ValueError("tau_probe must be finite")
    if psi.dim != entropy_op.dim or psi.dim != observable.dim:
        raise ValueError("state, generator and observable dimensions must agree")
    if psi.norm() == 0.0:
        raise ValueError("state must be nonzero")
    s_matrix = entropy_op.operator
    probe = apply_exponential(s_matrix, 1j * tau_probe / constants.kB, psi)
    delta_s = uncertainty(s_matrix, probe)
    delta_a = uncertainty(observable, probe)
    commutator = observable.entries @ s_matrix.entries - s_matrix.entries @ observable.entries
    clock_matrix = HermitianOperator((1j / constants.kB) * commutator, unit="dimensionless")
    rate = expectation(clock_matrix, probe)
    if abs(rate) < STATIONARY_DERIVATIVE:
        return UncertaintyProduct(delta_s=delta_s, delta_tau=math.inf, product=None)
    delta_tau = delta_a / abs(rate)
    return UncertaintyProduct(delta_s=delta_s, delta_tau=delta_tau, product=delta_s * delta_tau)


def _closed_form_rows(mode, psi0, hamiltonian, reference_temperature, taus, epsilon, constants):
    """Closed-form ``frozen_S`` or ``chart_S`` rows at each tau (see picture_consistency)."""
    decomposition = spectral_decompose(hamiltonian)
    h = decomposition.eigenvalues
    if mode == "frozen_S":
        phases = [(1j - epsilon) * (h / reference_temperature) * tau / constants.kB for tau in taus]
    else:
        phases = [
            (1j - epsilon) * (h / (constants.kB * reference_temperature)) * (1.0 - math.exp(-tau))
            for tau in taus
        ]
    return eigenbasis_rows(decomposition, phases, psi0)


def picture_consistency(
    psi0: StateVector,
    hamiltonian: HermitianOperator,
    reference_temperature: float,
    mode: str,
    tau_grid,
    epsilon: float,
    constants: Constants = NATURAL,
) -> float:
    """Largest state deviation between matched evolutions in the two charts.

    ``real_C``   -- epsilon = 0 only: laboratory-time evolution evaluated at
                    t(tau) = hbar / (kB T0 exp(tau)) against the adaptive
                    thermal-time integration driven by the chart generator
                    S(tau) = H exp(-tau) / T0.  Both sides use H's own
                    eigensystem: the laboratory side takes exp(-i H t /
                    hbar) over the whole grid in one eigenbasis product,
                    the thermal side steps through multiples of H; they
                    share no integrator code.
    ``frozen_S`` -- generator held at H / T0; integration against the
                    closed-form spectral solution exp[(i-eps) (h/T0) tau / kB].
    ``chart_S``  -- generator carrying the chart's tau dependence; adaptive
                    integration against the closed form with the integrated
                    exponent (i-eps)(h / (kB T0))(1 - exp(-tau)).
    """
    if not (np.isfinite(reference_temperature) and reference_temperature > 0.0):
        raise ValueError("reference_temperature must be positive")
    grid = evolution_grid(tau_grid, "tau_grid")
    if psi0.norm() == 0.0:
        raise ValueError("initial state must be nonzero")

    def chart_schedule(tau: float) -> EntropyOperator:
        return entropy_operator(hamiltonian, reference_temperature * math.exp(tau))

    if mode == "real_C":
        if epsilon != 0.0:
            raise ValueError("real_C mode is defined for epsilon = 0")
        s_side = evolve_s(psi0, chart_schedule, grid, 0.0, constants)
        t_of_tau = constants.hbar / (constants.kB * reference_temperature * np.exp(grid))
        exponents = [-1j * (t - t_of_tau[0]) / constants.hbar for t in t_of_tau]
        reference = exponential_rows(hamiltonian, exponents, psi0)
    elif mode == "frozen_S":
        frozen = entropy_operator(hamiltonian, reference_temperature)
        s_side = evolve_s(psi0, frozen, grid, epsilon, constants)
        reference = _closed_form_rows(
            mode, psi0, hamiltonian, reference_temperature, grid, epsilon, constants
        )
    elif mode == "chart_S":
        s_side = evolve_s(psi0, chart_schedule, grid, epsilon, constants)
        reference = _closed_form_rows(
            mode, psi0, hamiltonian, reference_temperature, grid, epsilon, constants
        )
    else:
        raise ValueError(f"unknown mode {mode!r}; expected real_C, frozen_S or chart_S")

    return max(float(np.linalg.norm(a - b)) for a, b in zip(s_side.amplitudes, reference))

