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

from dataclasses import dataclass

import numpy as np

from .constants import NATURAL, Constants

HERMITICITY_RTOL = 1e-12
RECONSTRUCTION_RTOL = 1e-10
ORTHONORMALITY_ATOL = 1e-12

_TINY = np.finfo(float).tiny

__all__ = [
    "HERMITICITY_RTOL",
    "HermitianOperator",
    "StateVector",
    "Trajectory",
    "apply_exponential",
    "build_hamiltonian",
    "spectral_decompose",
]

# The private kernels below take stacks: arrays whose leading axes index
# independent matrices, states or rows.  One matrix is the stack with no
# leading axes, so each one-object function here is the stacked kernel
# called once.  Every entry of a stacked result equals the one-object
# result bit for bit: products go through matmul one matrix or vector at a
# time, and each dot product is a ``(..., 1, d) @ (..., d, 1)`` product,
# which is the BLAS dot that ``np.vdot`` and ``np.linalg.norm`` call.


def _dots(a, b):
    # <a, b> per leading index, without conjugation; silent on overflow, as
    # the BLAS dot behind np.vdot and np.linalg.norm is
    with np.errstate(over="ignore", invalid="ignore"):
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(x):
    """Euclidean norm of each row of ``x`` (last axis), as ``np.linalg.norm`` of that row."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return np.sqrt(_dots(x.real, x.real) + _dots(x.imag, x.imag))
    return np.sqrt(_dots(x, x))


def _frobenius(x):
    """Frobenius norm of each matrix of a stack ``(..., n, n)``."""
    return _norms(x.reshape(x.shape[:-2] + (-1,)))


def _adjoint(x):
    return x.conj().swapaxes(-1, -2)


def _first(values, mask):
    # the first entry of values where mask holds, in C order
    return np.broadcast_to(values, mask.shape)[mask][0]


def _check_hermitian(entries) -> None:
    """Raise ``ValueError`` unless each matrix of ``entries`` ``(..., n, n)`` is
    finite and Hermitian within ``HERMITICITY_RTOL`` (relative Frobenius norm)."""
    if not (np.isfinite(entries.real).all() and np.isfinite(entries.imag).all()):
        raise ValueError("operator entries must be finite")
    defect = _frobenius(entries - _adjoint(entries))
    failed = defect > HERMITICITY_RTOL * np.maximum(_frobenius(entries), _TINY)
    if failed.any():
        raise ValueError(
            f"matrix is not Hermitian within relative tolerance {HERMITICITY_RTOL:g} "
            f"(defect {_first(defect, failed):.3e})"
        )


def _checked_eigh(entries):
    """``eigh`` of each Hermitian matrix of a stack, with the reconstruction and
    orthonormality checks; raises ``LinAlgError`` when one fails."""
    eigenvalues, eigenvectors = np.linalg.eigh(entries)
    scale = np.maximum(_frobenius(entries), _TINY)
    adjoint = _adjoint(eigenvectors)
    recon = eigenvectors @ (eigenvalues[..., :, None] * adjoint)
    if (_frobenius(recon - entries) > RECONSTRUCTION_RTOL * scale).any():
        raise np.linalg.LinAlgError("spectral decomposition failed the reconstruction bound")
    gram = adjoint @ eigenvectors
    if (_frobenius(gram - np.eye(entries.shape[-1])) > ORTHONORMALITY_ATOL).any():
        raise np.linalg.LinAlgError("eigenvector basis is not orthonormal")
    return eigenvalues, eigenvectors


def _rows(vectors, exponents, amplitudes):
    """Rows ``V (exp(e_k) * V* psi)`` for stacks of eigenbases ``(..., d, d)``,
    per-mode exponents ``(..., m, d)`` and states ``(..., d)``; see ``_exp_rows``."""
    coefficients = (_adjoint(vectors) @ amplitudes[..., :, None])[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        # one matrix-vector product per row, so that every row equals the
        # one-row case bit for bit
        images = np.exp(exponents) * coefficients[..., None, :]
        rows = (vectors[..., None, :, :] @ images[..., :, None])[..., 0]
        # a row's weight is zero exactly when every squared part underflows; a
        # square that overflows still counts as weight
        weights = (rows.view(float) ** 2).sum(axis=-1)
    if not np.isfinite(rows).all():
        raise OverflowError(
            "the evolved state overflowed the double range; "
            "rescale the generator or shorten the evolution interval"
        )
    if ((weights == 0.0) & (_norms(amplitudes) > 0.0)[..., None]).any():
        raise FloatingPointError(
            "the evolved state underflowed to zero weight; "
            "rescale the generator or shorten the evolution interval"
        )
    return rows


def _quadratic_forms(entries, amplitudes):
    # <a, A a>, <a, a> and A a for each matrix and state of the stacks
    images = (entries @ amplitudes[..., :, None])[..., 0]
    bras = amplitudes.conj()
    return _dots(bras, images), _dots(bras, amplitudes).real, images


def _expectations(entries, amplitudes):
    """Normalized quadratic form ``<a, A a> / <a, a>`` per stack entry; the callers
    have checked their states nonzero."""
    forms, weights, _ = _quadratic_forms(entries, amplitudes)
    # part by part, as Python's complex / float divides; NumPy's complex
    # division would multiply by the reciprocal instead
    real, imag = forms.real / weights, forms.imag / weights
    complex_valued = np.abs(imag) > 1e-12 * np.maximum(1.0, np.abs(real))
    if complex_valued.any():
        value = complex(_first(real, complex_valued), _first(imag, complex_valued))
        raise ArithmeticError(
            f"quadratic form of a Hermitian operator came out complex ({value!r})"
        )
    return real


def _spreads(entries, amplitudes):
    """Standard deviation ``sqrt(<A^2> - <A>^2)`` of each ``A`` on each state.

    A tiny negative variance (within -1e-12 of zero, rounding) is clamped
    to zero; anything more negative is reported as an error.  The callers
    have checked their states nonzero.
    """
    forms, weights, images = _quadratic_forms(entries, amplitudes)
    mean = forms.real / weights
    second = _dots(images.conj(), images).real / weights
    variance = second - mean * mean
    beyond = variance < -1e-12 * np.maximum(1.0, second)
    if beyond.any():
        raise ArithmeticError(
            f"variance {_first(variance, beyond):.3e} is negative beyond rounding"
        )
    return np.sqrt(np.where(variance < 0.0, 0.0, variance))


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
    generator (energy or entropy).  A plain record: ``_evolve`` makes and
    checks what it holds.
    """

    grid: np.ndarray
    amplitudes: np.ndarray
    norms: np.ndarray
    expectations: np.ndarray


class HermitianOperator:
    """Immutable dense self-adjoint matrix.

    Entries that deviate from their conjugate transpose by more than
    ``HERMITICITY_RTOL`` (relative Frobenius norm) are rejected rather than
    symmetrized, so construction bugs surface at the boundary instead of
    being averaged away.
    """

    __slots__ = ("_entries", "_decomposition")

    def __init__(self, entries):
        arr = np.array(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"operator entries must form a square matrix, got shape {arr.shape}")
        _check_hermitian(arr)
        arr.setflags(write=False)
        self._entries = arr
        self._decomposition = None

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def spectral_decompose(operator: HermitianOperator) -> tuple:
    """Exact eigensystem ``(eigenvalues, eigenvectors)`` of a Hermitian operator.

    Eigenvalues are returned ascending, with the matching orthonormal
    columns; both arrays are read-only.  Inside a degenerate cluster the
    basis is whatever the solver produced; no downstream result may depend
    on that choice, and the exponential below provably does not.

    The decomposition is cached on the operator (operators are immutable,
    so the cache is safe to share across threads).
    """
    if operator._decomposition is None:
        eigenvalues, eigenvectors = _checked_eigh(operator.entries)
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        operator._decomposition = (eigenvalues, eigenvectors)
    return operator._decomposition


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
    sits at zero to rounding.
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

    operator = HermitianOperator(matrix)
    if shift_nonnegative:
        bottom = float(spectral_decompose(operator)[0][0])
        if bottom < 0.0:
            operator = HermitianOperator(operator.entries + (-bottom) * np.eye(operator.dim))
    return operator


def _exp_rows(eigenvalues, eigenvectors, z, states):
    """Rows ``exp(z_k L) psi``: stacks of eigensystems ``L = V diag(l) V*`` (eigenvalues
    ``(..., d)``, eigenvectors ``(..., d, d)``), complex exponents ``z`` ``(..., m)`` and
    states ``(..., d)`` give ``(..., m, d)``.

    The one exponential of both pictures: ``V* psi`` is projected once and
    each row is then one matrix-vector product, so a row equals the one-row
    case bit for bit.  A nonfinite exponent raises ``ValueError``.  A row
    that overflows the double range, whether in one exponential or in the
    product, raises ``OverflowError`` instead of saturating, and a nonzero
    state whose image underflows to zero weight raises ``FloatingPointError``
    instead of being returned as the zero vector.
    """
    if not np.isfinite(z).all():
        raise ValueError("exponent must be finite")
    return _rows(eigenvectors, z[..., None] * eigenvalues[..., None, :], states)


def _evolve(psi0: StateVector, generator: tuple, grid, z) -> Trajectory:
    """The trajectory ``exp(z_k L) psi0`` over ``grid``, one row per exponent ``z_k``.

    ``generator`` is ``(entries, eigenvalues, eigenvectors)`` of ``L``; each
    caller forms its own exponents, as their expressions round differently.
    The rows are read-only; the averages of ``L`` are one stacked product.  A
    zero state or one of another dimension raises ``ValueError``, and a norm
    or average past the double range ``OverflowError``.
    """
    entries, eigenvalues, eigenvectors = generator
    if psi0.dim != len(entries):
        raise ValueError(f"dimension mismatch: operator {len(entries)} vs state {psi0.dim}")
    if psi0.norm() == 0.0:
        raise ValueError("initial state must be nonzero")
    amplitudes = _exp_rows(eigenvalues, eigenvectors, z, psi0.amplitudes)
    amplitudes.setflags(write=False)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _norms(amplitudes)
        averages = _expectations(entries, amplitudes)
    if not (np.isfinite(norms).all() and np.isfinite(averages).all()):
        raise OverflowError(
            "the evolved state's norm or generator average exceeds the double range; "
            "rescale the generator or shorten the evolution interval"
        )
    return Trajectory(grid, amplitudes, norms, averages)


def apply_exponential(operator: HermitianOperator, z: complex, state: StateVector) -> StateVector:
    """Apply ``exp(z * operator)`` to ``state`` exactly via the eigensystem.

    The one-row case of ``_exp_rows``.  The result is independent of the
    eigenbasis chosen inside degenerate clusters because the exponential
    weights coincide there.
    """
    if operator.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {operator.dim} vs state {state.dim}")
    eigenvalues, eigenvectors = spectral_decompose(operator)
    return StateVector(_exp_rows(eigenvalues, eigenvectors, np.array([z], dtype=complex),
                                 state.amplitudes)[0])
