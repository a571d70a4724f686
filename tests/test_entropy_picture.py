import cmath
import math

import numpy as np
import pytest
from conftest import assert_matches_per_point

from entropiclab import (
    Constants,
    EigenSolutionSpec,
    HermitianOperator,
    StateVector,
    build_hamiltonian,
    dissipative_part,
    eigen_solution,
    entropy_operator,
    entropy_production,
    entropy_production_via_chart,
    evolve_s,
    picture_consistency,
    spectral_decompose,
    uncertainty_product,
    weak_field_epsilon,
)
from entropiclab.operators import RECONSTRUCTION_RTOL, _expectations, eigenbasis_rows


def random_hermitian(rng, dim, unit="energy"):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((raw + raw.conj().T) / 2, unit=unit)


def random_state(rng, dim):
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(raw / np.linalg.norm(raw))


def final_state(trajectory):
    return StateVector(trajectory.amplitudes[-1])


def midpoint_product(state, generator, a, b, substeps, z_rate):
    # a second-order midpoint ordered product of a schedule tau -> S(tau), each
    # as entropy_operator gives it, an independent reference for the
    # closed-form chart schedule
    width = (b - a) / substeps
    for j in range(substeps):
        _, eigenvalues, eigenvectors = generator(a + (j + 0.5) * width)
        exponents = (z_rate * width) * eigenvalues[None]
        state = StateVector(eigenbasis_rows(eigenvectors, exponents, state)[0])
    return state


def spectrum_operator(rng, dim, low, high):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(raw)
    levels = np.sort(rng.uniform(low, high, dim))
    matrix = q @ (levels[:, None] * q.conj().T)
    return HermitianOperator((matrix + matrix.conj().T) / 2, unit="energy")


class TestWickFactor:
    def test_no_field_is_unitary_point(self):
        assert weak_field_epsilon(0.0) == 0.0

    def test_half_decay_point(self):
        assert abs(weak_field_epsilon(math.log(2.0)) + math.pi * math.log(2.0) / 2.0) <= 1e-12

    def test_invalid_strengths(self):
        for strength in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="strength"):
                weak_field_epsilon(strength)

    @pytest.mark.parametrize("strength", [0.0, math.log(2.0), 0.07, 1e6, 3])
    def test_derived_fields_equal_closed_forms(self, strength):
        epsilon = weak_field_epsilon(strength)
        assert isinstance(epsilon, float)
        assert epsilon == -math.pi * float(strength) / 2.0


class TestEntropyOperator:
    def test_unit_temperature(self):
        h = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        entries, eigenvalues, eigenvectors = entropy_operator(h, 1.0)
        assert entries.tobytes() == h.entries.tobytes()
        assert eigenvalues.tobytes() == spectral_decompose(h)[0].tobytes()
        assert eigenvectors is spectral_decompose(h)[1]

    def test_scalar_division(self):
        h = HermitianOperator(np.diag([2.0, 4.0]), unit="energy")
        entries, eigenvalues, _ = entropy_operator(h, 2.0)
        np.testing.assert_allclose(entries, np.diag([1.0, 2.0]))
        np.testing.assert_allclose(eigenvalues, [1.0, 2.0])

    def test_nonpositive_temperature_rejected(self):
        h = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        with pytest.raises(ValueError):
            entropy_operator(h, 0.0)
        with pytest.raises(ValueError):
            entropy_operator(h, -3.0)

    def test_requires_energy_units(self):
        with pytest.raises(ValueError, match="energy"):
            entropy_operator(HermitianOperator(np.eye(2)), 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("temperature", [1e-320, 1e-300])
    def test_generator_past_the_double_range_rejected(self, temperature):
        # 1 / 1e-320 is infinite; 1e10 / 1e-300 overflows.  The ValueError is
        # the one diagnostic: no NumPy warning comes before it
        h = HermitianOperator(np.diag([0.0, 1e10]), unit="energy")
        with pytest.raises(ValueError, match="finite"):
            entropy_operator(h, temperature)

    def test_operator_is_derived_from_source(self):
        h = HermitianOperator(np.diag([2.0, 4.0]), unit="energy")
        by_int = entropy_operator(h, 3)
        assert by_int[0].tobytes() == (h.entries * (1.0 / 3.0)).tobytes()
        for a, b in zip(by_int, entropy_operator(h, 3.0)):
            assert a.tobytes() == b.tobytes()

    def test_one_eigh_per_hamiltonian_at_any_temperature(self, monkeypatch):
        h = random_hermitian(np.random.default_rng(7), 6)
        psi = random_state(np.random.default_rng(8), 6)
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for temperature in (0.5, 1.7, 3.0):
            entries, eigenvalues, eigenvectors = generator = entropy_operator(h, temperature)
            evolve_s(psi, generator, [0.0, 0.5, 1.0], -0.1)
            s = 1.0 / temperature
            assert eigenvalues.tobytes() == (spectral_decompose(h)[0] * s).tobytes()
            assert entries.tobytes() == (h.entries * s).tobytes()
            recon = eigenvectors @ (eigenvalues[:, None] * eigenvectors.conj().T)
            assert np.linalg.norm(recon - entries) <= RECONSTRUCTION_RTOL * np.linalg.norm(entries)
        assert len(calls) == 1


class TestEvolveS:
    def test_pure_phase_on_identity_generator(self):
        generator = entropy_operator(HermitianOperator(np.eye(2), unit="energy"), 1.0)
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        traj = evolve_s(psi, generator, [0.0, np.pi], 0.0)
        np.testing.assert_allclose(traj.amplitudes[-1], -psi.amplitudes, atol=1e-14)
        assert abs(traj.norms[-1] - 1.0) <= 1e-14

    def test_eigenvector_growth_factor(self):
        # scalar exponential on an s = 2 mode: exp((i + 0.1) * 2)
        generator = entropy_operator(HermitianOperator(np.diag([0.0, 2.0]), unit="energy"), 1.0)
        chi = StateVector([0.0, 1.0])
        traj = evolve_s(chi, generator, [0.0, 1.0], -0.1)
        expected = np.array([0.0, cmath.exp((1j + 0.1) * 2.0)])
        np.testing.assert_allclose(traj.amplitudes[-1], expected, atol=1e-13)
        assert abs(traj.norms[-1] / traj.norms[0] - math.exp(0.2)) <= 1e-13

    def test_two_legs_match_single_shot(self):
        rng = np.random.default_rng(10)
        generator = entropy_operator(spectrum_operator(rng, 6, 0.0, 2.0), 1.0)
        psi = random_state(rng, 6)
        eps = -0.2
        leg = final_state(evolve_s(psi, generator, [0.0, 0.3], eps))
        stepped = evolve_s(leg, generator, [0.0, 0.7], eps).amplitudes[-1]
        single = evolve_s(psi, generator, [0.0, 1.0], eps).amplitudes[-1]
        assert np.linalg.norm(stepped - single) <= 1e-10

    def test_antidissipative_requires_flag(self):
        generator = entropy_operator(build_hamiltonian("two_level", e0=0.0, e1=1.0), 1.0)
        psi = StateVector([1.0, 1.0])
        with pytest.raises(ValueError, match="antidissipative"):
            evolve_s(psi, generator, [0.0, 1.0], 0.2)
        traj = evolve_s(psi, generator, [0.0, 1.0], 0.2, allow_antidissipative=True)
        assert traj.norms[-1] <= traj.norms[0]

    def test_unitary_branch_preserves_norms(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            dim = int(rng.integers(2, 16))
            generator = entropy_operator(random_hermitian(rng, dim), 1.0)
            psi = random_state(rng, dim)
            traj = evolve_s(psi, generator, np.linspace(0.0, 8.0, 9), 0.0)
            assert np.max(np.abs(traj.norms - 1.0)) <= 1e-12

    def test_dilatation_contraction_dichotomy(self):
        rng = np.random.default_rng(12)
        generator = entropy_operator(spectrum_operator(rng, 5, 0.0, 2.0), 1.0)
        psi = random_state(rng, 5)
        grid = np.linspace(0.0, 2.0, 11)
        growing = evolve_s(psi, generator, grid, -0.3).norms
        shrinking = evolve_s(psi, generator, grid, 0.3, allow_antidissipative=True).norms
        assert np.all(np.diff(growing) >= -1e-12)
        assert np.all(np.diff(shrinking) <= 1e-12)

    def test_chart_closed_form_matches_ordered_product(self):
        # S(tau) = H / (T0 e^tau) against a fine ordered product of it
        constants = Constants(hbar=0.7, kB=1.3)
        rng = np.random.default_rng(15)
        h = random_hermitian(rng, 4)
        t0, eps = 1.5, -0.2
        schedule = lambda tau: entropy_operator(h, t0 * math.exp(tau))  # noqa: E731
        psi = random_state(rng, 4)
        z_rate = (1j - eps) / constants.kB
        # Richardson extrapolation of two fine midpoint runs; the midpoint
        # product is time-symmetric, so its error is even in the step
        coarse = midpoint_product(psi, schedule, 0.0, 1.0, 1024, z_rate).amplitudes
        fine = midpoint_product(psi, schedule, 0.0, 1.0, 2048, z_rate).amplitudes
        reference = (4.0 * fine - coarse) / 3.0
        grid = [0.0, 0.5, 1.0]
        generator = entropy_operator(h, t0)
        traj = evolve_s(psi, generator, grid, eps, constants, schedule="chart")
        assert np.linalg.norm(traj.amplitudes[-1] - reference) <= 1e-10
        # the frozen schedule is a different evolution, far from the reference
        frozen = evolve_s(psi, generator, grid, eps, constants)
        assert np.linalg.norm(frozen.amplitudes[-1] - reference) > 0.1
        # each average is that of S(tau) at its own grid point
        averages = [
            float(_expectations(schedule(tau)[0], row)) for tau, row in zip(grid, traj.amplitudes)
        ]
        np.testing.assert_allclose(traj.expectations, averages, rtol=1e-14)

    def test_entropic_schroedinger_residual(self):
        # central difference of the trajectory against the generator image:
        # -(i + eps) kB dpsi/dtau = S psi up to O(eps^2) + O(dtau^2)
        rng = np.random.default_rng(14)
        eps = -1e-4
        generator = entropy_operator(spectrum_operator(rng, 6, 1.0, 2.0), 1.0)
        psi = random_state(rng, 6)
        dtau = 5e-4
        grid = np.arange(0.0, 21.0) * dtau
        traj = evolve_s(psi, generator, grid, eps)
        for k in range(1, len(grid) - 1):
            derivative = (traj.amplitudes[k + 1] - traj.amplitudes[k - 1]) / (2.0 * dtau)
            image = generator[0] @ traj.amplitudes[k]
            residual = np.linalg.norm(-(1j + eps) * derivative - image)
            assert residual <= 1e-6 * np.linalg.norm(image)

    def test_frozen_matches_per_point_loop(self):
        constants = Constants(hbar=0.7, kB=1.3)
        rng = np.random.default_rng(16)
        generator = entropy_operator(spectrum_operator(rng, 16, 0.0, 2.0), 1.7)
        psi = random_state(rng, 16)
        grid = np.linspace(0.0, 2.0, 101)
        eps = -0.2
        traj = evolve_s(psi, generator, grid, eps, constants)
        z_rate = (1j - eps) / constants.kB
        assert_matches_per_point(traj, generator, psi, [z_rate * tau for tau in grid])

    def test_frozen_overflow_is_reported(self):
        # exponent 0.5 * tau on the upper level passes 709 only at the last point
        generator = entropy_operator(build_hamiltonian("two_level", e0=0.0, e1=1.0), 1.0)
        with pytest.raises(OverflowError):
            evolve_s(StateVector([1.0, 1.0]), generator, [0.0, 700.0, 1400.0, 1500.0], -0.5)

    def test_norm_overflow_is_reported(self):
        # exponent tau on the upper level stays below 709, but at tau = 500
        # the squared amplitude exp(1000) is past the double range
        generator = entropy_operator(build_hamiltonian("two_level", e0=0.0, e1=1.0), 1.0)
        with pytest.raises(OverflowError, match="double range"):
            evolve_s(StateVector([1.0, 1.0]), generator, [0.0, 250.0, 500.0], -1.0)

    @pytest.mark.parametrize("stop", [720.0, 800.0], ids=["subnormal", "zero"])
    def test_underflowed_state_is_a_numerical_failure(self, stop):
        # contraction to exp(-tau) and exp(-2 tau): at tau = 720 every squared
        # amplitude underflows, at tau = 800 every amplitude does
        generator = entropy_operator(build_hamiltonian("two_level", e0=1.0, e1=2.0), 1.0)
        with pytest.raises(FloatingPointError, match="underflow"):
            evolve_s(
                StateVector([1.0, 1.0]), generator, np.linspace(0.0, stop, 5), 1.0,
                allow_antidissipative=True,
            )

    def test_grid_and_type_errors(self):
        generator = entropy_operator(build_hamiltonian("two_level", e0=0.0, e1=1.0), 1.0)
        psi = StateVector([1.0, 0.0])
        with pytest.raises(ValueError, match="start at 0"):
            evolve_s(psi, generator, [0.5, 1.0], 0.0)
        with pytest.raises(ValueError, match="mismatch"):
            evolve_s(StateVector([1.0, 0.0, 0.0]), generator, [0.0, 1.0], 0.0)
        with pytest.raises(TypeError):
            evolve_s(psi, lambda tau: generator, [0.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="unknown schedule"):
            evolve_s(psi, generator, [0.0, 1.0], 0.0, schedule="linear")


class TestEigenSolution:
    @staticmethod
    def _spec(eigenvalue_index, rng_seed=21):
        rng = np.random.default_rng(rng_seed)
        generator = entropy_operator(spectrum_operator(rng, 4, 0.0, 3.0), 1.0)
        _, eigenvalues, eigenvectors = generator
        return EigenSolutionSpec(
            mode=StateVector(eigenvectors[:, eigenvalue_index]),
            entropic_eigenvalue=float(eigenvalues[eigenvalue_index]),
            generator=generator,
        )

    def test_zero_mode_never_moves(self):
        generator = entropy_operator(
            HermitianOperator(np.diag([0.0, 1.0]), unit="energy"), 1.0
        )
        spec = EigenSolutionSpec(
            mode=StateVector([1.0, 0.0]), entropic_eigenvalue=0.0, generator=generator
        )
        for tau in (0.0, 1.0, 17.3):
            np.testing.assert_allclose(
                eigen_solution(spec, tau, -0.4).amplitudes, [1.0, 0.0], atol=1e-14
            )

    def test_full_phase_revolution(self):
        generator = entropy_operator(
            HermitianOperator(np.diag([0.0, 1.0]), unit="energy"), 1.0
        )
        spec = EigenSolutionSpec(
            mode=StateVector([0.0, 1.0]), entropic_eigenvalue=1.0, generator=generator
        )
        out = eigen_solution(spec, 2.0 * math.pi, 0.0)
        np.testing.assert_allclose(out.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_modulus_growth(self):
        generator = entropy_operator(
            HermitianOperator(np.diag([0.0, 1.0]), unit="energy"), 1.0
        )
        spec = EigenSolutionSpec(
            mode=StateVector([0.0, 1.0]), entropic_eigenvalue=1.0, generator=generator
        )
        out = eigen_solution(spec, 1.0, -0.5)
        assert abs(out.norm() - math.exp(0.5)) <= 1e-13

    def test_matches_integrated_evolution(self):
        spec = self._spec(2)
        for tau in (0.3, 1.1):
            for eps in (0.0, -0.25):
                direct = eigen_solution(spec, tau, eps)
                integrated = evolve_s(spec.mode, spec.generator, [0.0, tau], eps).amplitudes[-1]
                assert np.linalg.norm(direct.amplitudes - integrated) <= 1e-10

    def test_non_eigenvector_rejected(self):
        generator = entropy_operator(
            HermitianOperator(np.diag([0.0, 1.0]), unit="energy"), 1.0
        )
        with pytest.raises(ValueError, match="eigenvalue equation"):
            EigenSolutionSpec(
                mode=StateVector([1.0, 1.0]), entropic_eigenvalue=0.5, generator=generator
            )


class TestEntropyProduction:
    def test_dissipation_free_rate(self):
        h = HermitianOperator(np.diag([1.0]), unit="energy")
        rates = entropy_production(h, weak_field_epsilon(0.0))
        assert rates[0] == 1.0 + 0.0j

    def test_imaginary_part_from_chart_oracle(self):
        # independent route: finite differences of the chart generator
        eps = weak_field_epsilon(-2.0 * -0.05 / math.pi)
        h = HermitianOperator(np.diag([2.0]), unit="energy")
        rates = entropy_production(h, eps)
        assert abs(rates[0].imag - 0.1) <= 1e-12
        derivative = entropy_production_via_chart(h, eps)
        assert abs(dissipative_part(derivative)[0, 0].real - 0.1) <= 1e-6

    def test_matrix_statement_matches_chart(self):
        # the rates as one operator, (kB / hbar)(1 - i eps) H, in natural units
        rng = np.random.default_rng(31)
        eps = weak_field_epsilon(-2.0 * -0.12 / math.pi)
        h = random_hermitian(rng, 5)
        rate_operator = (1.0 - 1j * eps) * h.entries
        derivative = entropy_production_via_chart(h, eps)
        assert np.linalg.norm(derivative - rate_operator) <= 1e-9 * np.linalg.norm(rate_operator)
        np.testing.assert_allclose(np.linalg.eigvalsh(h.entries) * (1.0 - 1j * eps),
                                   entropy_production(h, eps), rtol=1e-12)

    def test_second_law_sign_property(self):
        rng = np.random.default_rng(32)
        h = spectrum_operator(rng, 6, 0.0, 3.0)
        rates = entropy_production(h, weak_field_epsilon(0.2))
        assert np.all(rates.imag >= -1e-14)

    def test_exact_chart_reveals_quadratic_truncation(self):
        # the exact inverse factor exp(-i phase) of the field's rotation against
        # the first-order 1 - i eps the oracle takes; the chart is linear in t,
        # so the exact derivative is the inverse factor times H
        eps = -0.2
        strength = -2.0 * eps / math.pi
        phase = -(math.pi / 2.0) * (1.0 - math.exp(-strength))
        h = HermitianOperator(np.diag([1.0]), unit="energy")
        first = entropy_production_via_chart(h, weak_field_epsilon(strength))[0, 0]
        exact = cmath.exp(-1j * phase)
        gap = abs(first - exact)
        assert 0.1 * eps**2 <= gap <= 10.0 * eps**2


class TestUncertaintyProduct:
    TWO_LEVEL_S = entropy_operator(
        HermitianOperator(np.diag([0.0, 2.0]), unit="energy"), 1.0
    )

    def test_stationary_probe_reports_no_product(self):
        delta_s, delta_tau = uncertainty_product(
            StateVector([0.0, 1.0]), self.TWO_LEVEL_S,
            HermitianOperator(np.diag([1.0, 3.0])), 0.5,
        )
        assert delta_s == 0.0
        assert delta_tau == math.inf

    def test_two_level_saturation(self):
        # closed-form probe average (1 + cos 2 tau)/2 has slope -1 at tau = pi/4,
        # spread of the projector is 1/2, spread of the generator is kB
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        projector = HermitianOperator(np.outer(plus.amplitudes, plus.amplitudes.conj()))
        delta_s, delta_tau = uncertainty_product(plus, self.TWO_LEVEL_S, projector, math.pi / 4.0)
        assert abs(delta_s - 1.0) <= 1e-12
        assert abs(delta_tau - 0.5) <= 1e-12
        assert abs(delta_s * delta_tau - 0.5) <= 1e-10

    def test_randomized_bound(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            dim = 8
            generator = entropy_operator(spectrum_operator(rng, dim, 0.0, 2.0), 1.0)
            psi = random_state(rng, dim)
            observable = random_hermitian(rng, dim, unit="dimensionless")
            delta_s, delta_tau = uncertainty_product(psi, generator, observable,
                                                     float(rng.uniform(0.1, 2.0)))
            if delta_tau != math.inf:
                assert delta_s * delta_tau >= 0.5 - 1e-12


class TestPictureConsistency:
    def test_real_factor_two_level(self):
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        h = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        deviation = picture_consistency(psi, h, 1.0, "real_C", np.linspace(0.0, 1.0, 5), 0.0)
        assert deviation <= 1e-10

    def test_frozen_generator_eigenstate(self):
        h = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        deviation = picture_consistency(
            StateVector([0.0, 1.0]), h, 1.0, "frozen_S", [0.0, 0.5, 1.0], 0.0
        )
        assert deviation <= 1e-12

    def test_frozen_generator_dissipative(self):
        rng = np.random.default_rng(41)
        h = random_hermitian(rng, 6)
        deviation = picture_consistency(
            random_state(rng, 6), h, 2.0, "frozen_S", np.linspace(0.0, 1.5, 6), -0.3
        )
        assert deviation <= 1e-10

    def test_chart_generator_against_closed_form(self):
        rng = np.random.default_rng(42)
        h = random_hermitian(rng, 5)
        deviation = picture_consistency(
            random_state(rng, 5), h, 1.5, "chart_S", np.linspace(0.0, 1.0, 5), -0.2
        )
        assert deviation <= 1e-10

    def test_mode_validation(self):
        psi = StateVector([1.0, 0.0])
        h = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        with pytest.raises(ValueError, match="unknown mode"):
            picture_consistency(psi, h, 1.0, "imaginary_C", [0.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            picture_consistency(psi, h, 1.0, "real_C", [0.0, 1.0], -0.1)
