import numpy as np
import pytest

from entropiclab import (
    Constants,
    HermitianOperator,
    StateVector,
    build_hamiltonian,
    entropy_operator,
    evolve_h,
    evolve_h_perturbed,
    evolve_s,
    picture_consistency,
    spectral_decompose,
    uncertainty_product,
)
from entropiclab.operators import _expectations, _spreads, apply_exponential


def expectation(operator, state):
    # the average kernel of the evolved trajectories, on one operator and state
    return float(_expectations(operator.entries, state.amplitudes))


def spread(operator, state):
    # the standard-deviation kernel of uncertainty_product, on one operator and state
    return float(_spreads(operator.entries, state.amplitudes))


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((raw + raw.conj().T) / 2)


def random_state(rng, dim):
    return StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


class TestBuilders:
    def test_two_level_is_diagonal(self):
        op = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        np.testing.assert_allclose(op.entries, np.diag([0.0, 1.0]))

    def test_oscillator_ladder_closed_form(self):
        # eigenvalues hbar*omega*(n + 1/2) for n = 0..levels-1
        op = build_hamiltonian("truncated_oscillator", levels=3, omega=1.0)
        np.testing.assert_allclose(np.diag(op.entries).real, [0.5, 1.5, 2.5])
        scaled = build_hamiltonian(
            "truncated_oscillator", levels=4, omega=2.0, constants=Constants(hbar=2.0)
        )
        expected = 2.0 * 2.0 * (np.arange(4) + 0.5)
        np.testing.assert_allclose(np.diag(scaled.entries).real, expected)

    def test_random_hermitian_shift_pins_ground_level_at_zero(self):
        # at dim 16, seed 2 the shifted bottom lands below zero, at -9.17e-15
        for dim, seed in ((8, 42), (16, 2)):
            raw = build_hamiltonian("random_hermitian", dim=dim, seed=seed)
            op = build_hamiltonian("random_hermitian", dim=dim, seed=seed, shift_nonnegative=True)
            shift = -spectral_decompose(raw)[0][0]
            assert shift > 0.0
            assert np.array_equal(op.entries, raw.entries + shift * np.eye(dim))
            bottom = spectral_decompose(op)[0][0]
            assert abs(bottom) <= 1e-12
            defect = np.linalg.norm(op.entries - op.entries.conj().T)
            assert defect <= 1e-12 * np.linalg.norm(op.entries)

    def test_random_hermitian_is_seed_deterministic(self):
        a = build_hamiltonian("random_hermitian", dim=6, seed=11)
        b = build_hamiltonian("random_hermitian", dim=6, seed=11)
        assert np.array_equal(a.entries, b.entries)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("truncated_oscillator", {"levels": 0}),
            ("truncated_oscillator", {"levels": 3, "omega": -1.0}),
            ("random_hermitian", {"dim": 0, "seed": 1}),
            ("two_level", {"e0": np.nan, "e1": 1.0}),
            ("nonsense", {}),
            ("two_level", {"e0": 0.0, "e1": 1.0, "bogus": 2}),
        ],
    )
    def test_bad_builder_inputs_rejected(self, kind, params):
        with pytest.raises(ValueError):
            build_hamiltonian(kind, **params)


class TestConstruction:
    def test_non_hermitian_rejected_not_symmetrized(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.ones((2, 3)))

    def test_entries_are_immutable(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_state_vector_requires_finite_1d(self):
        with pytest.raises(ValueError):
            StateVector([np.inf, 0.0])
        with pytest.raises(ValueError):
            StateVector([[1.0, 0.0]])
        with pytest.raises(ValueError):
            StateVector([])


class TestSpectralDecompose:
    def test_diagonal_case_sorted_with_permutation_basis(self):
        eigenvalues, eigenvectors = spectral_decompose(HermitianOperator(np.diag([2.0, 1.0])))
        np.testing.assert_allclose(eigenvalues, [1.0, 2.0])
        # columns are basis vectors up to phase
        np.testing.assert_allclose(np.abs(eigenvectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_off_diagonal_matches_characteristic_polynomial(self):
        # roots of x^2 - tr*x + det = x^2 - 1
        expected = np.sort(np.roots([1.0, 0.0, -1.0]).real)
        eigenvalues, _ = spectral_decompose(HermitianOperator([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eigenvalues, expected, atol=1e-14)

    def test_degenerate_identity_any_orthonormal_basis(self):
        eigenvalues, eigenvectors = spectral_decompose(HermitianOperator(np.eye(4)))
        np.testing.assert_allclose(eigenvalues, np.ones(4))
        gram = eigenvectors.conj().T @ eigenvectors
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_reconstruction_property_randomized(self):
        rng = np.random.default_rng(5)
        for dim in (2, 5, 16, 48):
            op = random_hermitian(rng, dim)
            eigenvalues, eigenvectors = spectral_decompose(op)
            recon = eigenvectors @ np.diag(eigenvalues) @ eigenvectors.conj().T
            assert np.linalg.norm(recon - op.entries) <= 1e-10 * np.linalg.norm(op.entries)
            assert np.all(np.diff(eigenvalues) >= 0.0)

    def test_cached_and_read_only(self):
        op = random_hermitian(np.random.default_rng(8), 5)
        eigenvalues, eigenvectors = spectral_decompose(op)
        assert spectral_decompose(op) is spectral_decompose(op)
        with pytest.raises(ValueError):
            eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            eigenvectors[0, 0] = 0.0


class TestApplyExponential:
    def test_zero_exponent_is_identity(self):
        rng = np.random.default_rng(1)
        op = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        out = apply_exponential(op, 0.0, psi)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_diagonal_phase_flip(self):
        # scalar oracle: exp(i*pi*1) = -1 on the first component
        op = HermitianOperator(np.diag([1.0, -1.0]))
        out = apply_exponential(op, 1j * np.pi, StateVector([1.0, 0.0]))
        np.testing.assert_allclose(out.amplitudes, [np.exp(1j * np.pi), 0.0], atol=1e-14)

    def test_sigma_x_quarter_turn(self):
        # cos/sin expansion: exp(i a sx) = cos(a) I + i sin(a) sx; a = pi/2 gives i*sx
        op = HermitianOperator([[0.0, 1.0], [1.0, 0.0]])
        out = apply_exponential(op, 1j * np.pi / 2.0, StateVector([1.0, 0.0]))
        np.testing.assert_allclose(out.amplitudes, [0.0, 1j], atol=1e-14)

    def test_imaginary_exponent_preserves_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            dim = int(rng.integers(2, 24))
            op = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            t = float(rng.uniform(-20.0, 20.0))
            out = apply_exponential(op, 1j * t, psi)
            assert abs(out.norm() - psi.norm()) <= 1e-12 * psi.norm()

    def test_exponent_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(2, 10))
            op = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            z1 = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
            z2 = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
            stepped = apply_exponential(op, z2, apply_exponential(op, z1, psi))
            direct = apply_exponential(op, z1 + z2, psi)
            assert np.linalg.norm(stepped.amplitudes - direct.amplitudes) <= 1e-10

    def test_result_independent_of_degenerate_eigenbasis(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(raw)
        levels = np.array([1.0, 1.0, 2.0])
        op = HermitianOperator(q @ np.diag(levels) @ q.conj().T)
        psi = random_state(rng, 3)
        z = 0.3 + 0.7j
        result = apply_exponential(op, z, psi)
        # rotate the basis inside the degenerate cluster and evaluate by hand
        theta = 0.813
        rotation = np.eye(3, dtype=complex)
        rotation[:2, :2] = [
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ]
        alt_basis = q @ rotation
        by_hand = alt_basis @ (np.exp(z * levels) * (alt_basis.conj().T @ psi.amplitudes))
        assert np.linalg.norm(result.amplitudes - by_hand) <= 1e-10

    def test_overflow_is_reported(self):
        op = HermitianOperator(np.diag([1.0]))
        with pytest.raises(OverflowError):
            apply_exponential(op, 1e6, StateVector([1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_exponential(HermitianOperator(np.eye(2)), 1.0, StateVector([1.0, 0.0, 0.0]))


class TestQuadraticForms:
    def test_expectation_on_eigenstate(self):
        op = HermitianOperator(np.diag([0.0, 1.0]))
        assert expectation(op, StateVector([1.0, 0.0])) == 0.0

    def test_expectation_equal_weight_average(self):
        op = HermitianOperator(np.diag([0.0, 1.0]))
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert abs(expectation(op, psi) - 0.5) <= 1e-14

    def test_expectation_normalization_independent(self):
        rng = np.random.default_rng(6)
        psi = random_state(rng, 5)
        assert abs(expectation(HermitianOperator(np.eye(5)), psi) - 1.0) <= 1e-12

    def test_expectation_zero_vector_rejected(self):
        # the evolutions whose averages the kernel forms refuse a zero state first
        with pytest.raises(ValueError, match="initial state must be nonzero"):
            evolve_h(StateVector([0.0, 0.0]), HermitianOperator(np.eye(2)), [0.0, 1.0])

    def test_uncertainty_vanishes_on_eigenstate(self):
        op = HermitianOperator(np.diag([0.0, 2.0]))
        assert spread(op, StateVector([0.0, 1.0])) == 0.0

    def test_uncertainty_two_point_distribution(self):
        # variance of values {0, 2} with equal weights is 1
        op = HermitianOperator(np.diag([0.0, 2.0]))
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert abs(spread(op, psi) - 1.0) <= 1e-12

    def test_uncertainty_is_phase_independent(self):
        op = HermitianOperator(np.diag([0.0, 2.0]))
        psi = StateVector(np.array([1.0, 1.0j]) / np.sqrt(2.0))
        assert abs(spread(op, psi) - 1.0) <= 1e-12

    def test_uncertainty_zero_vector_rejected(self):
        # uncertainty_product, whose spreads the kernel forms, refuses a zero state first
        generator = entropy_operator(HermitianOperator(np.diag([0.0, 2.0])), 1.0)
        with pytest.raises(ValueError, match="state must be nonzero"):
            uncertainty_product(generator, np.eye(2), np.zeros(2, dtype=complex), 0.5)


TWO_LEVEL = build_hamiltonian("two_level", e0=0.0, e1=1.0)
THREE_STATE = StateVector([1.0, 0.0, 0.0])


@pytest.mark.parametrize("call", [
    lambda: evolve_h(THREE_STATE, TWO_LEVEL, [0.0, 1.0]),
    lambda: evolve_h_perturbed(THREE_STATE, TWO_LEVEL, [0.0, 1.0], 0.1),
    lambda: evolve_s(THREE_STATE, entropy_operator(TWO_LEVEL, 1.0), [0.0, 1.0], -0.1),
    lambda: picture_consistency(THREE_STATE, TWO_LEVEL, 1.0, "frozen_S", [0.0, 1.0], -0.1),
    lambda: apply_exponential(TWO_LEVEL, 0.5j, THREE_STATE),
], ids=["evolve_h", "evolve_h_perturbed", "evolve_s", "picture_consistency",
        "apply_exponential"])
def test_a_state_of_another_dimension_is_rejected(call):
    with pytest.raises(ValueError, match="dimension mismatch: operator 2 vs state 3"):
        call()
