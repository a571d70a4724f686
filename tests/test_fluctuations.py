import json
import math
import tracemalloc

import numpy as np
import pytest

from entropiclab import fluctuations
from entropiclab import (
    CanonicalPoint,
    Constants,
    SymplecticPatch,
    ThermoReference,
    boundary_action,
    covariance_report,
    disk_patch,
    fourier_patch,
    gaussian_sample,
    log_probability,
    rectangle_patch,
    standardized_deviations,
    streamed_covariance_report,
    symplectic_area,
    to_canonical,
    two_plane_patch,
)
from entropiclab.cli import main
from entropiclab.suite import check_fluctuation_covariance

REF = ThermoReference.ideal_gas(1.0, 1.0, 1.0)


class TestThermoReference:
    def test_ideal_gas_closure(self):
        ref = ThermoReference.ideal_gas(2.0, 3.0, 1.5)
        assert abs(ref.pressure * ref.volume - ref.entropy_scale * ref.temperature) <= 1e-14
        assert ref.heat_capacity_cv == 1.5 * ref.entropy_scale
        assert ref.compressibility_term == -ref.volume / ref.pressure

    def test_heat_capacity_is_configurable(self):
        ref = ThermoReference.ideal_gas(1.0, 1.0, 1.0, heat_capacity_cv=2.5)
        assert ref.heat_capacity_cv == 2.5

    def test_invalid_references(self):
        with pytest.raises(ValueError):
            ThermoReference.ideal_gas(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="compressibility"):
            ThermoReference(1.0, 1.0, 1.0, 1.0, 1.5, 0.5)
        with pytest.raises(ValueError, match="temperature"):
            ThermoReference(1.0, 1.0, -2.0, 1.0, 1.5, -1.0)


class TestGaussianSample:
    def test_entropy_temperature_moment(self):
        samples = gaussian_sample(REF, 10**6, seed=42)
        report = covariance_report(samples, REF)
        assert abs(report["ds_dt_over_kBT"]["mean"] - 1.0) <= 0.01
        assert standardized_deviations(report)["ds_dt_over_kBT"] <= 3.0

    def test_pressure_volume_moment(self):
        samples = gaussian_sample(REF, 200000, seed=43)
        report = covariance_report(samples, REF)
        assert standardized_deviations(report)["dp_dv_over_kBT"] <= 3.0

    def test_underlying_draws_uncorrelated(self):
        n = 200000
        samples = gaussian_sample(REF, n, seed=44)
        corr = covariance_report(samples, REF)["dt_dv_correlation"]
        assert abs(corr["mean"]) <= 3.0 / math.sqrt(n)

    def test_stability_sign_structure(self):
        samples = gaussian_sample(REF, 100000, seed=45)
        quadratic = -samples.dp * samples.dV + samples.dT * samples.dS
        assert quadratic.mean() > 0.0

    def test_streams_are_bit_reproducible(self):
        a = gaussian_sample(REF, 10000, seed=9)
        b = gaussian_sample(REF, 10000, seed=9)
        for column in ("dp", "dV", "dT", "dS"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_variances_match_prescription(self):
        constants = Constants(kB=2.0)
        samples = gaussian_sample(REF, 400000, seed=10, constants=constants)
        var_t = constants.kB * REF.temperature**2 / REF.heat_capacity_cv
        var_v = -constants.kB * REF.temperature * REF.compressibility_term
        assert abs(samples.dT.var() / var_t - 1.0) <= 0.02
        assert abs(samples.dV.var() / var_v - 1.0) <= 0.02

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            gaussian_sample(REF, 0, seed=0)
        with pytest.raises(ValueError):
            gaussian_sample(REF, 10, seed=-1)


class TestCovarianceReport:
    def test_requires_enough_samples(self):
        with pytest.raises(ValueError, match="1000"):
            covariance_report(gaussian_sample(REF, 999, seed=0), REF)

    def test_error_bar_shrinks_with_n(self):
        small = covariance_report(gaussian_sample(REF, 1000, seed=2), REF)
        large = covariance_report(gaussian_sample(REF, 100000, seed=2), REF)
        assert small["ds_dt_over_kBT"]["stderr"] > large["ds_dt_over_kBT"]["stderr"]
        assert standardized_deviations(small)["ds_dt_over_kBT"] <= 3.0

    def test_dtau_moment_tracks_dt_moment(self):
        report = covariance_report(gaussian_sample(REF, 50000, seed=3), REF)
        assert abs(report["ds_dtau_over_kB"]["mean"] - report["ds_dt_over_kBT"]["mean"]) <= 1e-12

    def test_json_shape(self):
        report = covariance_report(gaussian_sample(REF, 2000, seed=4), REF)
        assert list(report) == [
            "n", "ds_dt_over_kBT", "dp_dv_over_kBT", "dt_dv_correlation", "ds_dtau_over_kB",
        ]
        assert report["n"] == 2000
        assert set(report["ds_dt_over_kBT"]) == {"mean", "stderr"}

    def test_zero_standard_error_is_infinitely_far(self):
        report = {name: {"mean": 0.5, "stderr": 0.0} for name in (
            "ds_dt_over_kBT", "dp_dv_over_kBT", "dt_dv_correlation", "ds_dtau_over_kB")}
        report["dp_dv_over_kBT"]["stderr"] = 0.25
        assert standardized_deviations(report) == {
            "ds_dt_over_kBT": math.inf, "dp_dv_over_kBT": 6.0,
            "dt_dv_correlation": math.inf, "ds_dtau_over_kB": math.inf,
        }


class TestGroupMoments:
    # T != 1 and kB != 1, so that dT, dT/T, kB T and kB differ
    HOT = ThermoReference.ideal_gas(2.0, 0.7, 1.7)
    KB = Constants(kB=1.3)

    @pytest.mark.parametrize("n", [1000, 4095, 16384, 16385, 100003])
    def test_streamed_report_is_the_report_of_the_drawn_columns(self, n):
        samples = gaussian_sample(self.HOT, n, seed=5, constants=self.KB)
        expected = covariance_report(samples, self.HOT, self.KB)
        assert streamed_covariance_report(self.HOT, n, 5, self.KB) == expected

    @pytest.mark.parametrize("n", [16385, 100003])
    def test_merged_moments_match_whole_columns(self, n):
        samples = gaussian_sample(self.HOT, n, seed=6, constants=self.KB)
        moments = fluctuations._streamed_moments(self.HOT, n, 6, self.KB)
        columns = moments.quantities(samples.dp, samples.dV, samples.dT, samples.dS,
                                     np.empty((6, n)))
        assert moments.count == n
        np.testing.assert_allclose(moments.mean, [c.mean() for c in columns], rtol=1e-12, atol=0)
        np.testing.assert_allclose(moments.std(), [c.std(ddof=1) for c in columns],
                                   rtol=1e-12, atol=0)

    def test_streamed_entry_checks_its_size(self):
        with pytest.raises(ValueError, match="1000"):
            streamed_covariance_report(REF, 999, seed=0)
        with pytest.raises(ValueError, match="positive integer"):
            streamed_covariance_report(REF, 1000.0, seed=0)

    def test_criterion_holds_one_group_at_a_time(self):
        # whole columns of its 1e6 samples would be 8 MB each
        tracemalloc.start()
        try:
            check_fluctuation_covariance(7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestCanonicalCoordinates:
    def test_reference_maps_to_origin_convention(self):
        point = to_canonical(1.0, 1.0, 1.0, REF.entropy_scale, REF)
        assert (point.p1, point.q1, point.p2, point.q2) == (0.0, 0.0, 0.0, 1.0)

    def test_single_logs(self):
        assert abs(to_canonical(1.0 / math.e, 1.0, 1.0, 1.0, REF).p1 - 1.0) <= 1e-14
        assert abs(to_canonical(1.0, math.e**2, 1.0, 1.0, REF).q1 - 2.0) <= 1e-14

    def test_positive_domain(self):
        with pytest.raises(ValueError):
            to_canonical(0.0, 1.0, 1.0, 1.0, REF)
        with pytest.raises(ValueError):
            to_canonical(1.0, 1.0, -1.0, 1.0, REF)


class TestLogProbability:
    def test_zero_deltas(self):
        assert log_probability(CanonicalPoint(0.0, 0.0, 0.0, 0.0), REF) == 0.0

    def test_direct_substitution(self):
        # dp1*dq1 = 2 kB / S0 makes the exponent exactly -1
        delta = CanonicalPoint(p1=2.0 / REF.entropy_scale, q1=1.0, p2=0.0, q2=0.0)
        assert abs(log_probability(delta, REF) + 1.0) <= 1e-14

    def test_matches_physical_units_exponent_to_first_order(self):
        # physical exponent: -(1/2kB)(-S0 dp dV/(p0 V0) + dT dS / T0);
        # canonical increments to first order: (-dp/p0, dV/V0, dT/T0, dS/S0)
        constants = Constants()
        dp, dv, dt, ds = 3e-4, -2e-4, 1e-4, 5e-4
        physical = -(1.0 / (2.0 * constants.kB)) * (
            -REF.entropy_scale * dp * dv / (REF.pressure * REF.volume)
            + dt * ds / REF.temperature
        )
        delta = CanonicalPoint(
            p1=-dp / REF.pressure, q1=dv / REF.volume,
            p2=dt / REF.temperature, q2=ds / REF.entropy_scale,
        )
        assert abs(log_probability(delta, REF, constants) - physical) <= 1e-10


class TestSymplecticArea:
    def test_rectangle(self):
        assert abs(symplectic_area(rectangle_patch(1.0, 2.0), 32) - 2.0) <= 1e-12

    def test_disk(self):
        area = symplectic_area(disk_patch(0.7), 512)
        assert abs(area - math.pi * 0.49) <= 1e-6

    def test_two_plane_additivity(self):
        assert abs(symplectic_area(two_plane_patch(0.8, 0.5), 64) - 1.3) <= 1e-12

    def test_degenerate_chart_rejected(self):
        flat = SymplecticPatch(chart=lambda u, v: (
            np.ones_like(np.asarray(u, float)),) * 4)
        with pytest.raises(ValueError, match="degenerate"):
            symplectic_area(flat, 16)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            symplectic_area(disk_patch(1.0), 0)


class TestBoundaryAction:
    def test_rectangle_is_exact(self):
        assert abs(boundary_action(rectangle_patch(1.0, 2.0), 64) - 2.0) <= 1e-9

    def test_disk(self):
        assert abs(boundary_action(disk_patch(0.7), 4096) - math.pi * 0.49) <= 1e-6

    def test_halving_error_ratio_is_quadratic(self):
        patch = fourier_patch(5)
        reference = boundary_action(patch, 16384)
        errors = [abs(boundary_action(patch, res) - reference) for res in (64, 128, 256)]
        ratios = [errors[k] / errors[k + 1] for k in range(2)]
        for ratio in ratios:
            assert 3.0 <= ratio <= 5.5


class TestStokesIdentity:
    def test_gap_shrinks_at_second_order(self):
        for seed in (1, 2):
            patch = fourier_patch(seed)
            gaps = [
                abs(symplectic_area(patch, res) - boundary_action(patch, res))
                for res in (16, 32, 64, 128)
            ]
            slope = np.polyfit(np.log2([16, 32, 64, 128]), np.log2(gaps), 1)[0]
            assert -slope >= 1.9

    @pytest.mark.parametrize("seed", [0, 5, 51, 426, 566])
    def test_fourier_chart_matches_per_coordinate_loop(self, seed):
        # the chart as first written: every coordinate sums its own modes,
        # so each mode's sin and cos are taken once per coordinate
        rng = np.random.default_rng(seed)
        coeffs = 0.08 * rng.standard_normal((4, 2, 2, 2))
        base = 0.5 + 0.5 * rng.random(2)
        u, v = np.meshgrid(np.linspace(-0.1, 1.1, 37), np.linspace(-0.2, 1.05, 29), indexing="ij")
        expected = [base[0] * v, base[0] * u, base[1] * v, base[1] * u]
        for c in range(4):
            for k in range(2):
                for l in range(2):
                    angle = math.pi * ((k + 1) * u + (l + 1) * v)
                    expected[c] = expected[c] + coeffs[c, k, l, 0] * np.sin(angle) \
                        + coeffs[c, k, l, 1] * np.cos(angle)
        chart = fourier_patch(seed).evaluate(u, v)
        assert [a.tobytes() for a in chart] == [b.tobytes() for b in expected]

    def test_fourier_patch_is_seed_deterministic(self):
        a = fourier_patch(3)
        b = fourier_patch(3)
        u = np.linspace(0.0, 1.0, 7)
        for x, y in zip(a.evaluate(u, u), b.evaluate(u, u)):
            assert np.array_equal(x, y)


class TestSampleDump:
    def test_csv_columns(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "scenario": "fluct",
            "seed": 6,
            "fluct": {
                "reference": {
                    "preset": "ideal_gas", "pressure": 1.0, "volume": 1.0, "temperature": 1.0,
                },
                "n": 12,
            },
        }))
        path = tmp_path / "samples.csv"
        assert main(["fluct", "--config", str(config), "--out", str(path)]) == 0
        samples = gaussian_sample(REF, 12, seed=6)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dp,dV,dT,dS"
        assert len(lines) == 13
        first = [float(x) for x in lines[1].split(",")]
        assert first == [samples.dp[0], samples.dV[0], samples.dT[0], samples.dS[0]]
