import json
import math

import numpy as np
import pytest

from entropiclab import (
    OnsagerSystem,
    entropy_rate,
    forces,
    reciprocity_check,
    relax,
)
from entropiclab.config import system_from
from entropiclab.onsager import RECIPROCITY_RTOL


def random_spd_system(rng, n):
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    return OnsagerSystem(
        a @ a.T + 0.5 * np.eye(n),
        b @ b.T + 0.5 * np.eye(n),
        rng.standard_normal(n),
    )


class TestForces:
    def test_identity_hessian(self):
        system = OnsagerSystem(np.eye(2), np.eye(2), [1.0, 0.0])
        np.testing.assert_allclose(forces(system, [1.0, 0.0]), [-1.0, 0.0])

    def test_equilibrium(self):
        system = OnsagerSystem(np.eye(2), np.eye(2), [0.0, 0.0])
        np.testing.assert_allclose(forces(system, [0.0, 0.0]), [0.0, 0.0])

    def test_diagonal_gradient(self):
        system = OnsagerSystem(np.eye(2), np.diag([2.0, 3.0]), [1.0, 1.0])
        np.testing.assert_allclose(forces(system, [1.0, 1.0]), [-2.0, -3.0])


class TestRelax:
    def test_scalar_decay(self):
        system = OnsagerSystem([[1.0]], [[1.0]], [1.0])
        grid = np.linspace(0.0, 3.0, 7)
        ys, rates = relax(system, grid)
        assert ys.shape == (7, 1) and rates.shape == (7,)
        assert not ys.flags.writeable and not rates.flags.writeable
        np.testing.assert_allclose(ys[:, 0], np.exp(-grid), atol=1e-12)

    def test_two_mode_decay_rates(self):
        # eigenmodes of [[2,1],[1,2]] are (1,1)/sqrt2 at rate 3 and (1,-1)/sqrt2 at rate 1
        system = OnsagerSystem([[2.0, 1.0], [1.0, 2.0]], np.eye(2), [1.0, 0.0])
        grid = np.linspace(0.0, 2.0, 5)
        ys, _ = relax(system, grid)
        sym = 0.5 * np.exp(-3.0 * grid)
        anti = 0.5 * np.exp(-1.0 * grid)
        np.testing.assert_allclose(ys[:, 0], sym + anti, atol=1e-12)
        np.testing.assert_allclose(ys[:, 1], sym - anti, atol=1e-12)

    def test_asymmetric_kinetic_matrix_is_flagged_but_integrates(self):
        kinetic = np.array([[2.0, 1.0], [0.5, 2.0]])
        assert reciprocity_check(kinetic) > RECIPROCITY_RTOL
        system = OnsagerSystem(kinetic, np.eye(2), [1.0, -0.5])
        ys, _ = relax(system, np.linspace(0.0, 2.0, 5))
        assert np.all(np.isfinite(ys))
        assert np.linalg.norm(ys[-1]) < np.linalg.norm(system.y0)

    def test_decay_to_equilibrium(self):
        rng = np.random.default_rng(2)
        system = random_spd_system(rng, 5)
        ys, _ = relax(system, [0.0, 50.0])
        assert np.linalg.norm(ys[-1]) <= 1e-6 * np.linalg.norm(system.y0)

    def test_entropy_monotone_along_relaxation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            system = random_spd_system(rng, int(rng.integers(2, 7)))
            ys, rates = relax(system, np.linspace(0.0, 3.0, 13))
            # entropy relative to equilibrium in the quadratic well: -1/2 y.G.y
            entropies = [-0.5 * y @ system.entropy_hessian @ y for y in ys]
            assert np.all(np.diff(entropies) >= -1e-12)
            assert np.all(rates >= -1e-12)

    def test_lyapunov_decay_bound(self):
        rng = np.random.default_rng(4)
        system = random_spd_system(rng, 4)
        product = system.kinetic @ system.entropy_hessian
        slowest = float(np.linalg.eigvalsh((product + product.T) / 2.0)[0])
        grid = np.linspace(0.0, 2.0, 9)
        ys, _ = relax(system, grid)
        bound = np.linalg.norm(system.y0) * np.exp(-slowest * grid)
        assert np.all(np.linalg.norm(ys, axis=1) <= bound * (1.0 + 1e-10))


class TestEntropyRate:
    def test_equilibrium_rates_vanish(self):
        system = OnsagerSystem(np.eye(3), np.eye(3), np.zeros(3))
        assert entropy_rate(system, np.zeros(3)) == (0.0, 0.0)

    def test_scalar_algebra(self):
        # L = 2, G = 1, y = 1: ydot = -2, R = 1/2, both forms equal 2
        system = OnsagerSystem([[2.0]], [[1.0]], [1.0])
        via_velocities, via_forces = entropy_rate(system, [1.0])
        assert abs(via_velocities - 2.0) <= 1e-14
        assert abs(via_forces - 2.0) <= 1e-14

    def test_forms_agree_on_random_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            system = random_spd_system(rng, 5)
            y = rng.standard_normal(5)
            via_velocities, via_forces = entropy_rate(system, y)
            scale = max(abs(via_velocities), abs(via_forces))
            assert abs(via_velocities - via_forces) <= 1e-12 * scale


class TestReciprocity:
    def test_symmetric_matrix(self):
        assert reciprocity_check(np.array([[2.0, 0.5], [0.5, 1.0]])) == 0.0

    def test_upper_triangular_asymmetry(self):
        kinetic = np.array([[1.0, 1.0], [0.0, 1.0]])
        asymmetry = reciprocity_check(kinetic)
        assert asymmetry > RECIPROCITY_RTOL
        assert abs(asymmetry - math.sqrt(2.0) / np.linalg.norm(kinetic)) <= 1e-14

    def test_spd_construction_is_symmetric(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        assert reciprocity_check(a @ a.T + 0.5 * np.eye(4)) <= RECIPROCITY_RTOL

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            reciprocity_check(np.ones((2, 3)))


class TestSystemValidation:
    def test_singular_kinetic_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            OnsagerSystem([[1.0, 1.0], [1.0, 1.0]], np.eye(2), [0.0, 0.0])

    def test_ill_conditioned_rejected(self):
        with pytest.raises(ValueError, match="ill-conditioned"):
            OnsagerSystem(np.diag([1.0, 1e-13]), np.eye(2), [0.0, 0.0])

    def test_hessian_must_be_symmetric_positive(self):
        with pytest.raises(ValueError, match="symmetric"):
            OnsagerSystem(np.eye(2), [[1.0, 0.3], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match="positive definite"):
            OnsagerSystem(np.eye(2), np.diag([1.0, -1.0]), [0.0, 0.0])

    def test_resistance_is_the_inverse(self):
        rng = np.random.default_rng(8)
        system = random_spd_system(rng, 4)
        np.testing.assert_allclose(
            system.resistance @ system.kinetic, np.eye(4), atol=1e-10
        )

    def test_json_descriptor(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({
            "N": 2,
            "L": [2.0, 1.0, 1.0, 2.0],
            "G": [[1.0, 0.0], [0.0, 1.0]],
            "y0": [1.0, 0.0],
        }))
        system = system_from(path.name, tmp_path)
        np.testing.assert_allclose(system.kinetic, [[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="descriptor"):
            OnsagerSystem.from_dict({"N": 2, "L": [1.0], "G": [], "y0": []})
