import cmath
import math

import numpy as np
import pytest
from conftest import assert_matches_per_point

from entropiclab import (
    Constants,
    ConvergenceError,
    EigenSolutionSpec,
    HermitianOperator,
    SecondLawVerdict,
    StateVector,
    ThermalTimeChart,
    WickFactor,
    apply_exponential,
    build_hamiltonian,
    dissipative_part,
    eigen_solution,
    entropy_operator,
    entropy_production,
    entropy_production_via_chart,
    evolve_s,
    generator_reading_gap,
    picture_consistency,
    second_law_refinement,
    spectral_decompose,
    uncertainty_product,
    wick_factor,
)
from entropiclab.entropy_picture import _ordered_product
from entropiclab.suite import fitted_order


def random_hermitian(rng, dim, unit="energy"):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((raw + raw.conj().T) / 2, unit=unit)


def random_state(rng, dim):
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(raw / np.linalg.norm(raw))


def midpoint_product(state, generator, a, b, substeps, z_rate):
    # the second-order midpoint ordered product the integrator used before,
    # kept here only as an independent reference
    width = (b - a) / substeps
    for j in range(substeps):
        state = apply_exponential(generator(a + (j + 0.5) * width).operator, z_rate * width, state)
    return state


def spectrum_operator(rng, dim, low, high):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(raw)
    levels = np.sort(rng.uniform(low, high, dim))
    matrix = q @ (levels[:, None] * q.conj().T)
    return HermitianOperator((matrix + matrix.conj().T) / 2, unit="energy")


class TestWickFactor:
    def test_no_field_is_unitary_point(self):
        w = wick_factor(0.0)
        assert w.phase == 0.0
        assert w.factor == 1.0
        assert w.epsilon == 0.0

    def test_strong_field_saturates_at_quarter_turn(self):
        w = wick_factor(1e6)
        assert abs(w.phase + math.pi / 2.0) <= 1e-9
        assert abs(w.factor - (-1j)) <= 1e-9

    def test_half_decay_point(self):
        # 1 - exp(-ln 2) = 1/2 in closed form
        w = wick_factor(math.log(2.0))
        assert abs(w.phase + math.pi / 4.0) <= 1e-12
        assert abs(w.factor - cmath.exp(-1j * math.pi / 4.0)) <= 1e-12
        assert abs(w.epsilon + math.pi * math.log(2.0) / 2.0) <= 1e-12

    def test_invalid_strengths(self):
        with pytest.raises(ValueError):
            wick_factor(-0.5)
        with pytest.raises(ValueError):
            wick_factor(float("nan"))

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError):
            WickFactor(strength=1.0, phase=0.0, factor=1.0, epsilon=0.0)


class TestEntropyOperator:
    def test_unit_temperature(self):
        h = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        s = entropy_operator(h, 1.0)
        np.testing.assert_allclose(s.operator.entries, h.entries)
        assert s.operator.unit == "entropy"

    def test_scalar_division(self):
        h = HermitianOperator(np.diag([2.0, 4.0]), unit="energy")
        s = entropy_operator(h, 2.0)
        np.testing.assert_allclose(s.operator.entries, np.diag([1.0, 2.0]))

    def test_nonpositive_temperature_rejected(self):
        h = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        with pytest.raises(ValueError):
            entropy_operator(h, 0.0)
        with pytest.raises(ValueError):
            entropy_operator(h, -3.0)

    def test_requires_energy_units(self):
        with pytest.raises(ValueError, match="energy"):
            entropy_operator(HermitianOperator(np.eye(2)), 1.0)


class TestThermalTimeChart:
    def test_fixed_point(self):
        chart = ThermalTimeChart(reference_temperature=1.0)
        assert chart.temperature_from_time(1.0) == 1.0
        assert chart.tau_from_temperature(1.0) == 0.0

    def test_direct_substitution(self):
        chart = ThermalTimeChart(reference_temperature=1.0)
        temperature = chart.temperature_from_time(0.5)
        assert abs(temperature - 2.0) <= 1e-14
        assert abs(chart.tau_from_temperature(temperature) - math.log(2.0)) <= 1e-14

    def test_round_trip_for_real_factor(self):
        chart = ThermalTimeChart(reference_temperature=3.7, constants=Constants(hbar=2.0, kB=0.5))
        for t in (0.1, 1.0, 42.0):
            tau = chart.tau_from_temperature(chart.temperature_from_time(t))
            assert abs(chart.time_from_tau(tau) - t) <= 1e-12 * t

    def test_chart_jacobian_by_finite_difference(self):
        # d(tau)/dt = -1/t; probe at t = 2
        chart = ThermalTimeChart(reference_temperature=1.0)
        step = 1e-3
        tau = lambda t: chart.tau_from_temperature(chart.temperature_from_time(t))  # noqa: E731
        derivative = (tau(2.0 + step) - tau(2.0 - step)) / (2.0 * step)
        assert abs(derivative + 0.5) <= 1e-6

    def test_complex_factor_gives_complex_time(self):
        chart = ThermalTimeChart(reference_temperature=1.0, factor=wick_factor(0.3).factor)
        value = chart.time_from_tau(0.0)
        assert isinstance(value, complex) and value.imag != 0.0

    def test_domain_errors(self):
        chart = ThermalTimeChart(reference_temperature=1.0)
        with pytest.raises(ValueError):
            chart.temperature_from_time(0.0)
        with pytest.raises(ValueError):
            chart.tau_from_temperature(-1.0)


class TestEvolveS:
    def test_pure_phase_on_identity_generator(self):
        generator = entropy_operator(HermitianOperator(np.eye(2), unit="energy"), 1.0)
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        traj = evolve_s(psi, generator, [0.0, np.pi], 0.0)
        np.testing.assert_allclose(traj.states[-1].amplitudes, -psi.amplitudes, atol=1e-14)
        assert abs(traj.norms[-1] - 1.0) <= 1e-14

    def test_eigenvector_growth_factor(self):
        # scalar exponential on an s = 2 mode: exp((i + 0.1) * 2)
        generator = entropy_operator(HermitianOperator(np.diag([0.0, 2.0]), unit="energy"), 1.0)
        chi = StateVector([0.0, 1.0])
        traj = evolve_s(chi, generator, [0.0, 1.0], -0.1)
        expected = np.array([0.0, cmath.exp((1j + 0.1) * 2.0)])
        np.testing.assert_allclose(traj.states[-1].amplitudes, expected, atol=1e-13)
        assert abs(traj.norms[-1] / traj.norms[0] - math.exp(0.2)) <= 1e-13

    def test_two_legs_match_single_shot(self):
        rng = np.random.default_rng(10)
        generator = entropy_operator(spectrum_operator(rng, 6, 0.0, 2.0), 1.0)
        psi = random_state(rng, 6)
        eps = -0.2
        leg = evolve_s(psi, generator, [0.0, 0.3], eps).states[-1]
        stepped = evolve_s(leg, generator, [0.0, 0.7], eps).states[-1]
        single = evolve_s(psi, generator, [0.0, 1.0], eps).states[-1]
        assert np.linalg.norm(stepped.amplitudes - single.amplitudes) <= 1e-10

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

    def test_piecewise_constant_schedule_matches_exact(self):
        rng = np.random.default_rng(13)
        h = spectrum_operator(rng, 4, 0.0, 2.0)
        generator = entropy_operator(h, 1.0)
        psi = random_state(rng, 4)
        grid = np.linspace(0.0, 1.5, 4)
        exact = evolve_s(psi, generator, grid, -0.1)
        scheduled = evolve_s(psi, lambda tau: generator, grid, -0.1)
        worst = max(
            np.linalg.norm(a.amplitudes - b.amplitudes)
            for a, b in zip(exact.states, scheduled.states)
        )
        assert worst <= 1e-8

    def test_schedule_refinement_can_be_exhausted(self):
        h = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        schedule = lambda tau: entropy_operator(h, 1.0 + 0.9 * math.sin(7.0 * tau))  # noqa: E731
        psi = StateVector([1.0, 1.0])
        with pytest.raises(ConvergenceError):
            evolve_s(psi, schedule, [0.0, 2.0], 0.0, max_refinements=0)
        # a budget that enters the refinement loop and still runs out
        with pytest.raises(ConvergenceError):
            evolve_s(psi, schedule, [0.0, 2.0], 0.0, max_refinements=3)

    def test_non_commuting_schedule(self):
        # S(tau) = (H0 + tau V) / T with [H0, V] != 0: no shared eigensystem,
        # so this exercises the generic path of the fourth-order step
        rng = np.random.default_rng(15)
        h0, v = random_hermitian(rng, 4).entries, random_hermitian(rng, 4).entries
        assert np.linalg.norm(h0 @ v - v @ h0) > 1.0
        schedule = lambda tau: entropy_operator(  # noqa: E731
            HermitianOperator(h0 + tau * v, unit="energy"), 1.5
        )
        psi = random_state(rng, 4)
        eps = -0.2
        z_rate = 1j - eps
        # Richardson extrapolation of two fine midpoint runs; the midpoint
        # product is time-symmetric, so its error is even in the step
        coarse = midpoint_product(psi, schedule, 0.0, 1.0, 1024, z_rate).amplitudes
        fine = midpoint_product(psi, schedule, 0.0, 1.0, 2048, z_rate).amplitudes
        reference = (4.0 * fine - coarse) / 3.0
        traj = evolve_s(psi, schedule, [0.0, 0.5, 1.0], eps)
        assert np.linalg.norm(traj.amplitudes[-1] - reference) <= 1e-8
        substeps = (2, 4, 8, 16)
        gaps = [
            np.linalg.norm(
                _ordered_product(psi, schedule, 0.0, 1.0, n, z_rate, 4).amplitudes - reference
            )
            for n in substeps
        ]
        assert fitted_order(substeps, gaps) >= 3.8

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
            derivative = (
                traj.states[k + 1].amplitudes - traj.states[k - 1].amplitudes
            ) / (2.0 * dtau)
            image = generator.operator.entries @ traj.states[k].amplitudes
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
        assert_matches_per_point(traj, generator.operator, psi, [z_rate * tau for tau in grid])

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
            evolve_s(psi, np.eye(2), [0.0, 1.0], 0.0)


class TestEigenSolution:
    @staticmethod
    def _spec(eigenvalue_index, rng_seed=21):
        rng = np.random.default_rng(rng_seed)
        generator = entropy_operator(spectrum_operator(rng, 4, 0.0, 3.0), 1.0)
        decomposition = spectral_decompose(generator.operator)
        mode = StateVector(decomposition.eigenvectors[:, eigenvalue_index])
        return EigenSolutionSpec(
            mode=mode,
            entropic_eigenvalue=float(decomposition.eigenvalues[eigenvalue_index]),
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
                integrated = evolve_s(spec.mode, spec.generator, [0.0, tau], eps).states[-1]
                assert np.linalg.norm(direct.amplitudes - integrated.amplitudes) <= 1e-10

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
        report = entropy_production(h, wick_factor(0.0))
        assert report.rates[0] == 1.0 + 0.0j

    def test_imaginary_part_from_chart_oracle(self):
        # independent route: finite differences of the chart generator
        eps = -0.05
        wick = wick_factor(-2.0 * eps / math.pi)
        h = HermitianOperator(np.diag([2.0]), unit="energy")
        report = entropy_production(h, wick)
        assert abs(report.rates[0].imag - 0.1) <= 1e-12
        derivative = entropy_production_via_chart(h, wick, step=1e-4)
        assert abs(dissipative_part(derivative)[0, 0].real - 0.1) <= 1e-6

    def test_matrix_statement_matches_chart(self):
        rng = np.random.default_rng(31)
        eps = -0.12
        wick = wick_factor(-2.0 * eps / math.pi)
        h = random_hermitian(rng, 5)
        report = entropy_production(h, wick)
        derivative = entropy_production_via_chart(h, wick, step=1e-4)
        assert np.linalg.norm(derivative - report.rate_operator) <= 1e-9 * np.linalg.norm(
            report.rate_operator
        )

    def test_second_law_sign_property(self):
        rng = np.random.default_rng(32)
        wick = wick_factor(0.2)
        h = spectrum_operator(rng, 6, 0.0, 3.0)
        report = entropy_production(h, wick)
        assert np.all(report.rates.imag >= -1e-14)

    def test_exact_chart_reveals_quadratic_truncation(self):
        eps = -0.2
        wick = wick_factor(-2.0 * eps / math.pi)
        h = HermitianOperator(np.diag([1.0]), unit="energy")
        first = entropy_production_via_chart(h, wick, first_order=True)[0, 0]
        exact = entropy_production_via_chart(h, wick, first_order=False)[0, 0]
        gap = abs(first - exact)
        assert 0.1 * eps**2 <= gap <= 10.0 * eps**2


class TestUncertaintyProduct:
    TWO_LEVEL_S = entropy_operator(
        HermitianOperator(np.diag([0.0, 2.0]), unit="energy"), 1.0
    )

    def test_stationary_probe_reports_no_product(self):
        record = uncertainty_product(
            StateVector([0.0, 1.0]), self.TWO_LEVEL_S,
            HermitianOperator(np.diag([1.0, 3.0])), 0.5,
        )
        assert record.delta_s == 0.0
        assert record.delta_tau == math.inf
        assert record.product is None

    def test_two_level_saturation(self):
        # closed-form probe average (1 + cos 2 tau)/2 has slope -1 at tau = pi/4,
        # spread of the projector is 1/2, spread of the generator is kB
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        projector = HermitianOperator(np.outer(plus.amplitudes, plus.amplitudes.conj()))
        record = uncertainty_product(plus, self.TWO_LEVEL_S, projector, math.pi / 4.0)
        assert abs(record.delta_s - 1.0) <= 1e-12
        assert abs(record.delta_tau - 0.5) <= 1e-12
        assert abs(record.product - 0.5) <= 1e-10
        assert record.convention_product == record.delta_s

    def test_randomized_bound(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            dim = 8
            generator = entropy_operator(spectrum_operator(rng, dim, 0.0, 2.0), 1.0)
            psi = random_state(rng, dim)
            observable = random_hermitian(rng, dim, unit="dimensionless")
            record = uncertainty_product(psi, generator, observable, float(rng.uniform(0.1, 2.0)))
            if record.product is not None:
                assert record.product >= 0.5 - 1e-12


class TestSecondLawRefinement:
    def test_boundary_and_orderings(self):
        assert second_law_refinement(1.0) is SecondLawVerdict.REFINED_LAW
        assert second_law_refinement(2.0) is SecondLawVerdict.REFINED_LAW
        assert second_law_refinement(0.0) is SecondLawVerdict.SECOND_LAW_ONLY
        assert second_law_refinement(-0.1) is SecondLawVerdict.FLAGGED

    def test_threshold_scales_with_kb(self):
        constants = Constants(kB=2.5)
        assert second_law_refinement(2.4, constants) is SecondLawVerdict.SECOND_LAW_ONLY
        assert second_law_refinement(2.5, constants) is SecondLawVerdict.REFINED_LAW


class TestPictureConsistency:
    def test_real_factor_two_level(self):
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        h = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        deviation = picture_consistency(psi, h, 1.0, "real_C", np.linspace(0.0, 1.0, 5), 0.0)
        assert deviation <= 1e-8

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
        assert deviation <= 1e-8

    def test_generator_readings_disagree_at_finite_tau(self):
        rng = np.random.default_rng(43)
        h = random_hermitian(rng, 5)
        psi = random_state(rng, 5)
        gap = generator_reading_gap(psi, h, 1.0, 1.0, 0.0)
        assert gap > 1e-3
        assert generator_reading_gap(psi, h, 1.0, 0.0, 0.0) <= 1e-14

    def test_mode_validation(self):
        psi = StateVector([1.0, 0.0])
        h = build_hamiltonian("two_level", e0=0.0, e1=1.0)
        with pytest.raises(ValueError, match="unknown mode"):
            picture_consistency(psi, h, 1.0, "imaginary_C", [0.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            picture_consistency(psi, h, 1.0, "real_C", [0.0, 1.0], -0.1)
