"""Dense Hermitian operator core.

Builders for the stock generators, exact spectral decomposition, operator
exponentials evaluated through the eigensystem, and the quadratic-form
statistics (expectation value, uncertainty) everything else in the package
is built from.

All generators handled here are constant, dense and of desk scale
(dim <= 512), so exponentials are computed exactly as ``V exp(z L) V*``
instead of by scaling-and-squaring.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .constants import NATURAL, Constants

HERMITICITY_RTOL = 1e-12
RECONSTRUCTION_RTOL = 1e-10
ORTHONORMALITY_ATOL = 1e-12
UNIT_LABELS = ("energy", "entropy", "dimensionless")

_TINY = np.finfo(float).tiny

__all__ = [
    "HERMITICITY_RTOL",
    "UNIT_LABELS",
    "HermitianOperator",
    "SpectralDecomposition",
    "StateVector",
    "Trajectory",
    "apply_exponential",
    "build_hamiltonian",
    "expectation",
    "spectral_decompose",
    "uncertainty",
]


class StateVector:
    """Complex amplitude vector, immutable after construction."""

    __slots__ = ("_amplitudes",)

    def __init__(self, amplitudes):
        arr = np.array(amplitudes, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("amplitudes must form a nonempty 1-D sequence")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise ValueError("amplitudes must be finite")
        arr.setflags(write=False)
        self._amplitudes = arr

    @property
    def dim(self) -> int:
        return self._amplitudes.size

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    def norm(self) -> float:
        return float(np.linalg.norm(self._amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim}, norm={self.norm():.6g})"


@dataclass(frozen=True)
class Trajectory:
    """States sampled on an evolution grid, with norms and generator averages.

    The grid is laboratory time t for Hamiltonian evolution and thermal
    time tau for entropy evolution; ``amplitudes`` holds one read-only row
    per grid point and ``expectations`` the matching averages of the
    generator (energy or entropy).
    """

    grid: np.ndarray
    amplitudes: np.ndarray
    norms: np.ndarray
    expectations: np.ndarray

    def __post_init__(self):
        n = len(self.grid)
        if not (len(self.amplitudes) == len(self.norms) == len(self.expectations) == n):
            raise ValueError("trajectory fields must have equal lengths")
        if np.any(np.asarray(self.norms) <= 0.0):
            raise ValueError("trajectory norms must be positive")

    @classmethod
    def from_amplitudes(cls, grid, amplitudes, generator) -> "Trajectory":
        """Take the norm and the generator average of each amplitude row.

        ``amplitudes`` holds one row per grid point and is made read-only.
        ``generator`` is one ``HermitianOperator``, or for a schedule a
        callable grid point -> ``HermitianOperator``.  A norm or average
        past the double range raises ``OverflowError``.
        """
        generator_at = generator if callable(generator) else (lambda point: generator)
        amplitudes.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.array([np.linalg.norm(row) for row in amplitudes])
            averages = np.array([
                expectation(generator_at(point), StateVector(row))
                for point, row in zip(grid, amplitudes)
            ])
        if not (np.isfinite(norms).all() and np.isfinite(averages).all()):
            raise OverflowError(
                "the evolved state's norm or generator average exceeds the double range; "
                "rescale the generator or shorten the evolution interval"
            )
        return cls(grid, amplitudes, norms, averages)

    @property
    def states(self) -> tuple:
        """One ``StateVector`` per grid point, built on each access."""
        return tuple(StateVector(row) for row in self.amplitudes)


class HermitianOperator:
    """Immutable dense self-adjoint matrix carrying a unit label.

    Entries that deviate from their conjugate transpose by more than
    ``HERMITICITY_RTOL`` (relative Frobenius norm) are rejected rather than
    symmetrized, so construction bugs surface at the boundary instead of
    being averaged away.
    """

    __slots__ = ("_entries", "_unit", "_decomposition", "_parent", "_factor")

    def __init__(self, entries, unit: str = "dimensionless"):
        arr = np.array(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"operator entries must form a square matrix, got shape {arr.shape}")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise ValueError("operator entries must be finite")
        defect = np.linalg.norm(arr - arr.conj().T)
        if defect > HERMITICITY_RTOL * max(np.linalg.norm(arr), _TINY):
            raise ValueError(
                f"matrix is not Hermitian within relative tolerance {HERMITICITY_RTOL:g} "
                f"(defect {defect:.3e})"
            )
        if unit not in UNIT_LABELS:
            raise ValueError(f"unit must be one of {UNIT_LABELS}, got {unit!r}")
        arr.setflags(write=False)
        self._entries = arr
        self._unit = unit
        self._decomposition = None
        # set by scaled() to the unscaled root operator and the factor
        # taken from it: the eigensystem is the root's, eigenvalues times _factor
        self._parent = None
        self._factor = 1.0

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def unit(self) -> str:
        return self._unit

    def norm(self) -> float:
        """Frobenius norm of the entries."""
        return float(np.linalg.norm(self._entries))

    def scaled(self, factor: float, unit: str | None = None) -> "HermitianOperator":
        """Multiply by a real scalar (keeps self-adjointness exactly).

        The result inherits the eigensystem: ``spectral_decompose`` of it
        decomposes the unscaled root operator once and rescales its
        eigenvalues, so every multiple of one operator shares one ``eigh``.
        """
        if not np.isfinite(factor) or np.iscomplexobj(np.asarray(factor)):
            raise ValueError("scale factor must be a finite real number")
        child = HermitianOperator(self._entries * float(factor), unit or self._unit)
        child._parent = self if self._parent is None else self._parent
        child._factor = self._factor * float(factor)
        return child

    def shifted(self, offset: float) -> "HermitianOperator":
        """Add ``offset`` times identity."""
        if not np.isfinite(offset):
            raise ValueError("offset must be finite")
        return HermitianOperator(
            self._entries + float(offset) * np.eye(self.dim), self._unit
        )

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim}, unit={self._unit!r})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order and the matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_decompose(operator: HermitianOperator) -> SpectralDecomposition:
    """Exact eigensystem of a Hermitian operator.

    Eigenvalues are returned ascending.  Inside a degenerate cluster the
    basis is whatever the solver produced; no downstream result may depend
    on that choice, and the exponential below provably does not.

    The decomposition is cached on the operator (operators are immutable,
    so the cache is safe to share across threads).  An operator made by
    ``scaled`` reuses its root's eigenvectors: ``c * H = V (c L) V*``, with
    both reversed for ``c < 0`` so the eigenvalues stay ascending.
    """
    cached = operator._decomposition
    if cached is not None:
        return cached
    parent, factor = operator._parent, operator._factor
    if parent is None:
        return _decompose(operator)
    root = parent._decomposition or _decompose(parent)
    eigenvalues, eigenvectors = root.eigenvalues * factor, root.eigenvectors
    if factor < 0.0:
        eigenvalues = eigenvalues[::-1].copy()
        eigenvectors = np.ascontiguousarray(eigenvectors[:, ::-1])
        eigenvectors.setflags(write=False)
    eigenvalues.setflags(write=False)
    decomposition = SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)
    operator._decomposition = decomposition
    return decomposition


def _decompose(operator: HermitianOperator) -> SpectralDecomposition:
    # eigh plus the reconstruction and orthonormality checks; caches the result
    eigenvalues, eigenvectors = np.linalg.eigh(operator.entries)
    scale = max(operator.norm(), _TINY)
    recon = eigenvectors @ (eigenvalues[:, None] * eigenvectors.conj().T)
    if np.linalg.norm(recon - operator.entries) > RECONSTRUCTION_RTOL * scale:
        raise np.linalg.LinAlgError("spectral decomposition failed the reconstruction bound")
    gram = eigenvectors.conj().T @ eigenvectors
    if np.linalg.norm(gram - np.eye(operator.dim)) > ORTHONORMALITY_ATOL:
        raise np.linalg.LinAlgError("eigenvector basis is not orthonormal")
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    decomposition = SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)
    operator._decomposition = decomposition
    return decomposition


def _require_finite(name, *values):
    for value in values:
        if not np.isfinite(value):
            raise ValueError(f"{name}: parameters must be finite, got {value!r}")


def build_hamiltonian(
    kind: str,
    *,
    constants: Constants = NATURAL,
    shift_nonnegative: bool = False,
    **params,
) -> HermitianOperator:
    """Construct one of the stock energy operators.

    Kinds
    -----
    ``two_level``            -- diag(e0, e1)
    ``truncated_oscillator`` -- diag(hbar * omega * (n + 1/2)), n < levels
    ``random_hermitian``     -- (A + A*)/2 with A complex standard normal,
                                seeded and reproducible

    With ``shift_nonnegative`` the spectrum is raised by ``-min(eigenvalue)``
    whenever the bottom of the spectrum is negative, so the ground level
    sits exactly at zero.
    """
    if kind == "two_level":
        e0, e1 = params.pop("e0"), params.pop("e1")
        _require_finite("two_level", e0, e1)
        matrix = np.diag([complex(e0), complex(e1)])
    elif kind == "truncated_oscillator":
        levels = params.pop("levels")
        omega = params.pop("omega", 1.0)
        if int(levels) != levels or levels <= 0:
            raise ValueError(f"truncated_oscillator: levels must be a positive integer, got {levels!r}")
        _require_finite("truncated_oscillator", omega)
        if omega <= 0:
            raise ValueError("truncated_oscillator: omega must be positive")
        ladder = constants.hbar * omega * (np.arange(int(levels)) + 0.5)
        matrix = np.diag(ladder.astype(complex))
    elif kind == "random_hermitian":
        dim = params.pop("dim")
        seed = params.pop("seed")
        if int(dim) != dim or dim <= 0:
            raise ValueError(f"random_hermitian: dim must be a positive integer, got {dim!r}")
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((int(dim), int(dim))) + 1j * rng.standard_normal((int(dim), int(dim)))
        matrix = (raw + raw.conj().T) / 2.0
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    if params:
        raise ValueError(f"unexpected parameters for {kind!r}: {sorted(params)}")

    operator = HermitianOperator(matrix, unit="energy")
    if shift_nonnegative:
        bottom = float(spectral_decompose(operator).eigenvalues[0])
        if bottom < 0.0:
            operator = operator.shifted(-bottom)
    return operator


def eigenbasis_rows(decomposition: SpectralDecomposition, exponents, state: StateVector):
    """Rows ``V (exp(e_k) * V* state)``, one per row ``e_k`` of per-mode exponents.

    ``exponents`` is an ``(n, dim)`` array in the eigenbasis of
    ``decomposition``: row k carries ``state`` by the operator whose
    eigenvalues are ``e_k``.  ``V* state`` is projected once; each row is
    then one matrix-vector product.  A row that overflows the double range,
    whether in one exponential or in the product, raises ``OverflowError``
    instead of saturating, and a nonzero state whose image underflows to
    zero weight raises ``FloatingPointError`` instead of being returned as
    the zero vector.
    """
    vectors = decomposition.eigenvectors
    if vectors.shape[0] != state.dim:
        raise ValueError(f"dimension mismatch: operator {vectors.shape[0]} vs state {state.dim}")
    exponents = np.asarray(exponents, dtype=complex)
    coefficients = vectors.conj().T @ state.amplitudes
    with np.errstate(over="ignore", invalid="ignore"):
        # one matrix-vector product per row, not one matrix product for all
        # rows, so that every row equals the one-row case bit for bit
        rows = np.array([vectors @ (np.exp(row) * coefficients) for row in exponents])
        # a row's weight is zero exactly when every squared part underflows; a
        # square that overflows still counts as weight
        weights = (rows.view(float) ** 2).sum(axis=1)
    if not np.isfinite(rows).all():
        raise OverflowError(
            "the evolved state overflowed the double range; "
            "rescale the generator or shorten the evolution interval"
        )
    if not weights.all() and state.norm() > 0.0:
        raise FloatingPointError(
            "the evolved state underflowed to zero weight; "
            "rescale the generator or shorten the evolution interval"
        )
    return rows


def exponential_rows(operator: HermitianOperator, exponents, state: StateVector):
    """Rows ``exp(z_k * operator) state``, one per scalar exponent ``z_k``."""
    exponents = [complex(z) for z in exponents]
    if not all(cmath.isfinite(z) for z in exponents):
        raise ValueError("exponent must be finite")
    decomposition = spectral_decompose(operator)
    return eigenbasis_rows(
        decomposition, [z * decomposition.eigenvalues for z in exponents], state
    )


def apply_exponential(operator: HermitianOperator, z: complex, state: StateVector) -> StateVector:
    """Apply ``exp(z * operator)`` to ``state`` exactly via the eigensystem.

    The one-row case of ``exponential_rows``.  The result is independent of
    the eigenbasis chosen inside degenerate clusters because the
    exponential weights coincide there.  Overflow and underflow are
    reported as by ``eigenbasis_rows``.
    """
    return StateVector(exponential_rows(operator, [z], state)[0])


def expectation(operator: HermitianOperator, state: StateVector) -> float:
    """Normalized quadratic form ``<state, operator state> / <state, state>``."""
    if operator.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {operator.dim} vs state {state.dim}")
    amplitudes = state.amplitudes
    weight = float(np.vdot(amplitudes, amplitudes).real)
    if weight == 0.0:
        raise ValueError("expectation of the zero vector is undefined")
    value = complex(np.vdot(amplitudes, operator.entries @ amplitudes)) / weight
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        raise ArithmeticError(
            f"quadratic form of a Hermitian operator came out complex ({value!r})"
        )
    return float(value.real)


def uncertainty(operator: HermitianOperator, state: StateVector) -> float:
    """Standard deviation sqrt(<A^2> - <A>^2) on the given state.

    A tiny negative variance (within -1e-12 of zero, rounding) is clamped
    to zero; anything more negative is reported as an error.
    """
    if operator.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {operator.dim} vs state {state.dim}")
    amplitudes = state.amplitudes
    weight = float(np.vdot(amplitudes, amplitudes).real)
    if weight == 0.0:
        raise ValueError("uncertainty of the zero vector is undefined")
    image = operator.entries @ amplitudes
    mean = float(np.vdot(amplitudes, image).real) / weight
    second = float(np.vdot(image, image).real) / weight
    variance = second - mean * mean
    if variance < 0.0:
        if variance < -1e-12 * max(1.0, second):
            raise ArithmeticError(f"variance {variance:.3e} is negative beyond rounding")
        variance = 0.0
    return float(np.sqrt(variance))
