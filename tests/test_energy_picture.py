import math

import numpy as np
import pytest
from conftest import assert_matches_per_point

from entropiclab import (
    Constants,
    HermitianOperator,
    StateVector,
    Trajectory,
    build_hamiltonian,
    evolve_h,
    evolve_h_perturbed,
    noether_energy_drift,
    spectral_decompose,
)


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((raw + raw.conj().T) / 2, unit="energy")


def random_state(rng, dim):
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(raw / np.linalg.norm(raw))


def final_state(trajectory):
    return StateVector(trajectory.amplitudes[-1])


TWO_LEVEL = build_hamiltonian("two_level", e0=0.0, e1=1.0)
PLUS = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestEvolveH:
    def test_eigenstate_stays_put(self):
        traj = evolve_h(StateVector([1.0, 0.0]), TWO_LEVEL, [0.0, 0.4, 1.9])
        for row in traj.amplitudes:
            np.testing.assert_allclose(row, [1.0, 0.0], atol=1e-14)

    def test_relative_phase_at_pi(self):
        traj = evolve_h(PLUS, TWO_LEVEL, [0.0, np.pi])
        expected = np.array([1.0, np.exp(-1j * np.pi)]) / np.sqrt(2.0)
        np.testing.assert_allclose(traj.amplitudes[-1], expected, atol=1e-12)

    def test_long_time_norm_preservation_dim32(self):
        rng = np.random.default_rng(0)
        traj = evolve_h(random_state(rng, 32), random_hermitian(rng, 32), [0.0, 1e3])
        assert abs(traj.norms[-1] - 1.0) <= 1e-12

    def test_group_law(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            dim = int(rng.integers(2, 12))
            h = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            t1, t2 = rng.uniform(0.1, 2.0, 2)
            leg = final_state(evolve_h(psi, h, [0.0, t1]))
            stepped = evolve_h(leg, h, [0.0, t2]).amplitudes[-1]
            direct = evolve_h(psi, h, [0.0, t1 + t2]).amplitudes[-1]
            assert np.linalg.norm(stepped - direct) <= 1e-10

    def test_reversibility(self):
        # running forward under H and then forward under -H undoes the motion
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 6)
        psi = random_state(rng, 6)
        forward = final_state(evolve_h(psi, h, [0.0, 3.2]))
        back = evolve_h(forward, HermitianOperator(-h.entries, unit="energy"), [0.0, 3.2])
        assert np.linalg.norm(back.amplitudes[-1] - psi.amplitudes) <= 1e-10

    def test_grid_contract(self):
        with pytest.raises(ValueError, match="ascending"):
            evolve_h(PLUS, TWO_LEVEL, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="start at 0"):
            evolve_h(PLUS, TWO_LEVEL, [1.0, 2.0])
        with pytest.raises(ValueError, match="mismatch"):
            evolve_h(StateVector([1.0, 0.0, 0.0]), TWO_LEVEL, [0.0, 1.0])


class TestEvolveHPerturbed:
    def test_zero_perturbation_matches_unitary(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 5)
        psi = random_state(rng, 5)
        grid = [0.0, 0.7, 1.4]
        plain = evolve_h(psi, h, grid)
        perturbed = evolve_h_perturbed(psi, h, grid, 0.0)
        for a, b in zip(plain.amplitudes, perturbed.amplitudes):
            assert np.linalg.norm(a - b) <= 1e-12

    def test_scalar_closed_form_norm(self):
        # 1x1 generator: |psi(t)| = exp(e' E t / (hbar (1 + e'^2)))
        h = HermitianOperator(np.diag([1.0]), unit="energy")
        traj = evolve_h_perturbed(StateVector([1.0]), h, [0.0, 1.0], 0.1, mode="exact")
        assert abs(traj.norms[-1] - math.exp(0.1 / 1.01)) <= 1e-14

    def test_first_order_drops_quadratic_factor(self):
        h = HermitianOperator(np.diag([1.0]), unit="energy")
        traj = evolve_h_perturbed(StateVector([1.0]), h, [0.0, 1.0], 0.1, mode="first_order")
        assert abs(traj.norms[-1] - math.exp(0.1)) <= 1e-14

    def test_mode_discrepancy_scales_quadratically(self):
        # log-norm gap between modes is e'^2/(1+e'^2) * e' E t; the ratio to
        # e'^2 stays bounded by e' E t over the sweep
        h = HermitianOperator(np.diag([1.0]), unit="energy")
        psi = StateVector([1.0])
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            exact = evolve_h_perturbed(psi, h, [0.0, 1.0], eps, mode="exact").norms[-1]
            first = evolve_h_perturbed(psi, h, [0.0, 1.0], eps, mode="first_order").norms[-1]
            ratios.append(abs(math.log(exact) - math.log(first)) / eps**2)
        assert max(ratios) <= 0.2
        assert min(ratios) > 0.0

    def test_norm_monotone_in_sign_of_perturbation(self):
        rng = np.random.default_rng(4)
        h = build_hamiltonian("random_hermitian", dim=5, seed=9, shift_nonnegative=True)
        psi = random_state(rng, 5)
        grid = np.linspace(0.0, 3.0, 13)
        growing = evolve_h_perturbed(psi, h, grid, 0.25, mode="exact").norms
        shrinking = evolve_h_perturbed(psi, h, grid, -0.25, mode="exact").norms
        assert np.all(np.diff(growing) >= -1e-12)
        assert np.all(np.diff(shrinking) <= 1e-12)

    def test_perturbation_bounds(self):
        with pytest.raises(ValueError):
            evolve_h_perturbed(PLUS, TWO_LEVEL, [0.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            evolve_h_perturbed(PLUS, TWO_LEVEL, [0.0, 1.0], -1.5)
        with pytest.raises(ValueError, match="mode"):
            evolve_h_perturbed(PLUS, TWO_LEVEL, [0.0, 1.0], 0.1, mode="third_order")


class TestWholeGridProduct:
    CONSTANTS = Constants(hbar=0.7, kB=1.3)

    def test_unitary_matches_per_point_loop(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 16)
        psi = random_state(rng, 16)
        grid = np.linspace(0.0, 3.0, 101)
        traj = evolve_h(psi, h, grid, self.CONSTANTS)
        exponents = [-1j * t / self.CONSTANTS.hbar for t in grid]
        assert_matches_per_point(traj, (h.entries, *spectral_decompose(h)), psi, exponents)

    @pytest.mark.parametrize("mode", ["exact", "first_order"])
    def test_perturbed_matches_per_point_loop(self, mode):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 16)
        psi = random_state(rng, 16)
        grid = np.linspace(0.0, 3.0, 101)
        eps = -0.15
        traj = evolve_h_perturbed(psi, h, grid, eps, mode, self.CONSTANTS)
        scale = 1.0 / (1.0 + eps**2) if mode == "exact" else 1.0
        rate = (eps - 1j) * scale / self.CONSTANTS.hbar
        assert_matches_per_point(traj, (h.entries, *spectral_decompose(h)), psi,
                                 [rate * t for t in grid])


class TestNoetherDrift:
    def test_eigenstate_drift_vanishes(self):
        traj = evolve_h(StateVector([0.0, 1.0]), TWO_LEVEL, [0.0, 1.0, 2.0])
        assert noether_energy_drift(traj) <= 1e-12

    def test_unitary_drift_is_rounding_level(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 12)
        psi = random_state(rng, 12)
        traj = evolve_h(psi, h, np.linspace(0.0, 20.0, 11))
        e0 = abs(traj.expectations[0])
        assert noether_energy_drift(traj) <= 1e-10 * e0 + 1e-12

    def test_perturbed_evolution_breaks_conservation(self):
        # closed-form reweighting: <H>(t) = w1/(w0+w1) with
        # w1 = exp(2 e' t / (1+e'^2))/2 and w0 = 1/2
        eps, t = -0.1, 1.0
        traj = evolve_h_perturbed(PLUS, TWO_LEVEL, [0.0, t], eps, mode="exact")
        drift = noether_energy_drift(traj)
        w1 = math.exp(2.0 * eps * t / (1.0 + eps**2))
        expected = 0.5 - w1 / (1.0 + w1)
        assert drift > 0.0
        assert abs(drift - expected) <= 1e-12

    def test_empty_trajectory_rejected(self):
        empty = Trajectory(
            grid=np.array([]), amplitudes=np.empty((0, 2), dtype=complex),
            norms=np.array([]), expectations=np.array([]),
        )
        with pytest.raises(ValueError, match="empty"):
            noether_energy_drift(empty)
