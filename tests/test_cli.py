import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import cli_env

from entropiclab import (
    OnsagerSystem,
    ThermoReference,
    emit_report,
    entropy_operator,
    evolve_h,
    evolve_s,
    gaussian_sample,
    relax,
)
from entropiclab.cli import main
from entropiclab.config import (
    ConfigError,
    grid_from,
    hamiltonian_from,
    load_config,
    state_from,
    validate_config,
)
from entropiclab.constants import NATURAL
from entropiclab.suite import CheckResult


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "entropiclab.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


EVOLVE_S_CONFIG = {
    "scenario": "evolve-s",
    "seed": 5,
    "evolve_s": {
        "hamiltonian": {"kind": "two_level", "e0": 0.0, "e1": 1.0},
        "state": {"kind": "uniform"},
        "grid": {"start": 0.0, "stop": 1.0, "num": 5},
        "temperature": 1.0,
        "epsilon": -0.1,
    },
}

FLUCT_REFERENCE = ThermoReference.ideal_gas(1.0, 1.0, 1.0)


class TestScenarioRuns:
    def test_evolve_s_csv_contract(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        out = tmp_path / "traj.csv"
        result = run_cli("evolve-s", "--config", config, "--out", str(out))
        assert result.returncode == 0, result.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,tau,norm,expect_S,re_0,im_0,re_1,im_1"
        assert len(lines) == 6
        record = json.loads((tmp_path / "traj.csv.record.json").read_text())
        assert record["version"]
        assert record["config"]["scenario"] == "evolve-s"
        assert any(v["name"] == "s-dilatation" for v in record["verdicts"])

    def test_record_echo_revalidates_and_reproduces(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        out_a = tmp_path / "a.csv"
        assert main(["evolve-s", "--config", config, "--out", str(out_a)]) == 0
        record = json.loads((tmp_path / "a.csv.record.json").read_text())
        validate_config(record["config"])
        echoed = write_config(tmp_path / "echo.json", record["config"])
        out_b = tmp_path / "b.csv"
        assert main(["evolve-s", "--config", echoed, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_two_processes_same_bytes(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        for name in ("x.csv", "y.csv"):
            result = run_cli("evolve-s", "--config", config, "--out", str(tmp_path / name))
            assert result.returncode == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()

    def test_evolve_h_run(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "evolve-h",
            "evolve_h": {
                "hamiltonian": {"kind": "random_hermitian", "dim": 4, "seed": 2},
                "state": {"kind": "random", "seed": 3},
                "grid": {"start": 0.0, "stop": 2.0, "num": 9},
            },
        })
        out = tmp_path / "traj.csv"
        assert main(["evolve-h", "--config", config, "--out", str(out)]) == 0
        record = json.loads((tmp_path / "traj.csv.record.json").read_text())
        names = {v["name"] for v in record["verdicts"]}
        assert {"h-norm-preservation", "h-energy-conservation"} <= names
        assert all(v["passed"] for v in record["verdicts"])

    def test_compare_pictures_run(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "compare-pictures",
            "compare_pictures": {
                "hamiltonian": {"kind": "two_level", "e0": 0.0, "e1": 1.0},
                "state": {"kind": "uniform"},
                "grid": {"start": 0.0, "stop": 1.0, "num": 5},
                "reference_temperature": 1.0,
                "mode": "real_C",
            },
        })
        out = tmp_path / "compare.csv"
        assert main(["compare-pictures", "--config", config, "--out", str(out)]) == 0
        record = json.loads((tmp_path / "compare.csv.record.json").read_text())
        assert record["outputs"]["max_deviation"] <= 1e-8

    def test_gravity_run(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "gravity",
            "seed": 11,
            "gravity": {
                "source": {
                    "spacing": 0.1,
                    "origin": [0.0, 0.0, 0.0],
                    "shape": [4, 4, 4],
                    "primitives": [
                        {"kind": "point", "position": [0.05, 0.05, 0.05], "mass": 1.0}
                    ],
                },
                "probes": [[2.05, 0.05, 0.05], [4.05, 0.05, 0.05]],
                "region": {
                    "shape": "ball", "center": [4.05, 0.05, 0.05],
                    "radius": 0.2, "samples": 2000,
                },
                "laplacian": {"point": [3.0, 1.0, 0.4], "step": 0.2},
            },
        })
        out = tmp_path / "probes.csv"
        assert main(["gravity", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,z,h"
        assert abs(float(lines[1].split(",")[-1]) - 2.0) <= 1e-12
        record = json.loads((tmp_path / "probes.csv.record.json").read_text())
        assert 0.9 <= record["outputs"]["mean_h"] <= 1.1
        assert record["outputs"]["weak_field_epsilon"] < 0.0

    def test_gravity_inline_data_resolves_against_config_dir(self, tmp_path):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        lattice = np.zeros((3, 3, 3))
        lattice[1, 1, 1] = 2.0
        lattice.astype("<f8").tofile(config_dir / "lattice.bin")
        config = write_config(config_dir / "cfg.json", {
            "scenario": "gravity",
            "gravity": {
                "source": {
                    "spacing": 0.5, "origin": [0.0, 0.0, 0.0], "shape": [3, 3, 3],
                    "data": "lattice.bin",
                },
                # 4 units above the one occupied cell, centred at (0.75, 0.75, 0.75)
                "probes": [[0.75, 0.75, 4.75]],
            },
        })
        out = tmp_path / "probes.csv"
        # the working directory holds no lattice.bin; only the config's does
        result = run_cli("gravity", "--config", config, "--out", str(out), cwd=str(tmp_path))
        assert result.returncode == 0, result.stderr
        record = json.loads((tmp_path / "probes.csv.record.json").read_text())
        assert record["outputs"]["total_mass"] == 2.0 * 0.5**3
        h = float(out.read_text().strip().splitlines()[1].split(",")[-1])
        assert h == pytest.approx(record["outputs"]["total_mass"], rel=1e-12)  # 4 M / r, r = 4

    def test_onsager_run(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "onsager",
            "onsager": {
                "system": {
                    "N": 2,
                    "L": [2.0, 1.0, 1.0, 2.0],
                    "G": [1.0, 0.0, 0.0, 1.0],
                    "y0": [1.0, 0.0],
                },
                "grid": {"start": 0.0, "stop": 2.0, "num": 9},
            },
        })
        out = tmp_path / "relax.csv"
        assert main(["onsager", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,tprime,entropy_rate,y_0,y_1"
        record = json.loads((tmp_path / "relax.csv.record.json").read_text())
        assert record["outputs"]["kinetic_symmetric"] is True
        assert all(v["passed"] for v in record["verdicts"])

    def test_fluct_run(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "fluct",
            "seed": 21,
            "fluct": {
                "reference": {
                    "preset": "ideal_gas", "pressure": 1.0, "volume": 1.0, "temperature": 1.0,
                },
                "n": 2000,
                "workers": 2,
            },
        })
        out = tmp_path / "samples.csv"
        assert main(["fluct", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "dp,dV,dT,dS"
        assert len(lines) == 2001
        samples = gaussian_sample(FLUCT_REFERENCE, 2000, seed=21)
        first = [float(x) for x in lines[1].split(",")]
        assert first == [samples.dp[0], samples.dV[0], samples.dT[0], samples.dS[0]]
        record = json.loads((tmp_path / "samples.csv.record.json").read_text())
        assert record["outputs"]["n"] == 2000
        assert {v["name"] for v in record["verdicts"]} == {
            "fluct-ds-dt", "fluct-dp-dv", "fluct-ds-dtau", "fluct-dt-dv-uncorrelated",
        }

    def test_stokes_run(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "stokes",
            "stokes": {
                "patch": {"kind": "disk", "radius": 0.8},
                "resolutions": [16, 32, 64],
            },
        })
        out = tmp_path / "stokes.csv"
        assert main(["stokes", "--config", config, "--out", str(out)]) == 0
        record = json.loads((tmp_path / "stokes.csv.record.json").read_text())
        assert record["outputs"]["convergence_order"] >= 1.9


class TestFailureModes:
    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run_cli("evolve-s", "--config", str(bad), "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "config error" in result.stderr

    def test_unknown_keys_rejected(self, tmp_path):
        payload = dict(EVOLVE_S_CONFIG)
        payload["mystery"] = 1
        config = write_config(tmp_path / "cfg.json", payload)
        result = run_cli("evolve-s", "--config", config, "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "mystery" in result.stderr

    def test_scenario_subcommand_mismatch(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        result = run_cli("evolve-h", "--config", config, "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2

    def test_overflow_exits_3(self, tmp_path):
        payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
        payload["evolve_s"]["grid"] = {"start": 0.0, "stop": 5000.0, "num": 3}
        payload["evolve_s"]["epsilon"] = -0.5
        config = write_config(tmp_path / "cfg.json", payload)
        result = run_cli("evolve-s", "--config", config, "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 3
        assert "numerical failure" in result.stderr

    def test_underflow_exits_3(self, tmp_path, capsys):
        payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
        payload["evolve_s"].update({
            "hamiltonian": {"kind": "two_level", "e0": 1.0, "e1": 2.0},
            "grid": {"start": 0.0, "stop": 800.0, "num": 5},
            "epsilon": 1.0,
            "allow_antidissipative": True,
        })
        config = write_config(tmp_path / "cfg.json", payload)
        assert main(["evolve-s", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_missing_out_path(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        result = run_cli("evolve-s", "--config", config)
        assert result.returncode == 2

    def test_source_without_data_or_primitives_exits_2(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "gravity",
            "gravity": {
                "source": {"spacing": 0.5, "origin": [0.0, 0.0, 0.0], "shape": [3, 3, 3]},
                "probes": [[0.5, 0.5, 4.5]],
            },
        })
        result = run_cli("gravity", "--config", config, "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "config error" in result.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_out_directory_exits_5(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        result = run_cli("evolve-s", "--config", config, "--out", str(tmp_path))
        assert result.returncode == 5
        assert "io error" in result.stderr
        assert "Traceback" not in result.stderr

    def test_failed_record_removes_csv(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        record_dir = tmp_path / "records"
        record_dir.mkdir()
        out = tmp_path / "ok.csv"
        result = run_cli(
            "evolve-s", "--config", config, "--out", str(out), "--record", str(record_dir)
        )
        assert result.returncode == 5
        assert "io error" in result.stderr
        assert not out.exists()

    def test_failed_csv_write_leaves_no_file(self, tmp_path, monkeypatch):
        import entropiclab.cli as cli_module

        real_writer = csv.writer

        class DiskFullWriter:
            def __init__(self, handle):
                self._writer = real_writer(handle)

            def writerow(self, row):
                self._writer.writerow(row)

            def writerows(self, rows):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli_module.csv, "writer", DiskFullWriter)
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        out = tmp_path / "part.csv"
        assert main(["evolve-s", "--config", config, "--out", str(out)]) == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_device_target_is_written_in_place(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        record = tmp_path / "run.record.json"
        assert main(
            ["evolve-s", "--config", config, "--out", os.devnull, "--record", str(record)]
        ) == 0
        assert not os.path.isfile(os.devnull)
        assert json.loads(record.read_text())["config"]["scenario"] == "evolve-s"

    def test_check_all_unwritable_outdir_exits_5(self, tmp_path, monkeypatch):
        import entropiclab.cli as cli_module

        passing = CheckResult.bounded("synthetic", 0.0, 1.0)
        monkeypatch.setattr(cli_module, "run_all", lambda seed: [passing])
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        assert cli_module.main(["check-all", "--outdir", str(blocker)]) == 5

    def test_check_all_failure_maps_to_exit_4(self, tmp_path, monkeypatch):
        import entropiclab.cli as cli_module

        failing = CheckResult(
            name="synthetic", requirement="forced failure", tolerance=0.0,
            measured=1.0, passed=False, details={},
        )
        monkeypatch.setattr(cli_module, "run_all", lambda seed: [failing])
        code = cli_module.main(["check-all", "--outdir", str(tmp_path / "out")])
        assert code == 4


class TestCheckAll:
    def test_runs_clean_and_deterministic(self, tmp_path):
        for name in ("one", "two"):
            result = run_cli(
                "check-all", "--seed", "7", "--outdir", str(tmp_path / name), cwd=str(tmp_path)
            )
            assert result.returncode == 0, result.stderr
            assert "PASS" in result.stdout
        rec_a = json.loads((tmp_path / "one/record.json").read_text())
        rec_b = json.loads((tmp_path / "two/record.json").read_text())
        rec_a.pop("wall_clock_s")
        rec_b.pop("wall_clock_s")
        assert rec_a == rec_b
        assert (tmp_path / "one/summary.csv").read_bytes() == (
            tmp_path / "two/summary.csv"
        ).read_bytes()

    def test_worker_count_does_not_change_data(self, tmp_path):
        for workers, name in (("1", "w1"), ("8", "w8")):
            result = run_cli(
                "check-all", "--seed", "3", "--workers", workers,
                "--outdir", str(tmp_path / name), cwd=str(tmp_path),
            )
            assert result.returncode == 0, result.stderr
        assert (tmp_path / "w1/summary.csv").read_bytes() == (
            tmp_path / "w8/summary.csv"
        ).read_bytes()
        rec_1 = json.loads((tmp_path / "w1/record.json").read_text())
        rec_8 = json.loads((tmp_path / "w8/record.json").read_text())
        for record in (rec_1, rec_8):
            record.pop("wall_clock_s")
            record.pop("config")  # echoes the differing worker count by design
        assert rec_1 == rec_8

    def test_config_file_form(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "check-all", "seed": 7, "check_all": {"workers": 2},
        })
        result = run_cli(
            "check-all", "--config", config, "--outdir", str(tmp_path / "cfg_out"),
            cwd=str(tmp_path),
        )
        assert result.returncode == 0, result.stderr


def read_table(path):
    rows = list(csv.reader(path.read_text().splitlines()))
    return rows[0], np.array([[float(cell) for cell in row] for row in rows[1:]])


def trajectory_columns(trajectory):
    amplitudes = trajectory.amplitudes
    parts = [
        part for k in range(amplitudes.shape[1])
        for part in (amplitudes[:, k].real, amplitudes[:, k].imag)
    ]
    return np.column_stack([
        np.arange(len(trajectory.grid)), trajectory.grid, trajectory.norms,
        trajectory.expectations, *parts,
    ])


def evolve_s_case(schedule):
    block = dict(EVOLVE_S_CONFIG["evolve_s"])
    if schedule == "chart":
        block.update({
            "schedule": "chart", "reference_temperature": 1.0,
            "epsilon": 0.1, "allow_antidissipative": True,
        })
    config = {"scenario": "evolve-s", "evolve_s": block}
    hamiltonian = hamiltonian_from(block["hamiltonian"], NATURAL)
    psi0 = state_from(block["state"], hamiltonian.dim)
    grid = grid_from(block["grid"])
    if schedule == "chart":
        trajectory = evolve_s(
            psi0, lambda tau: entropy_operator(hamiltonian, math.exp(tau)), grid, 0.1,
            allow_antidissipative=True,
        )
    else:
        trajectory = evolve_s(psi0, entropy_operator(hamiltonian, 1.0), grid, -0.1)
    return config, trajectory_columns(trajectory)


def evolve_h_case():
    block = {
        "hamiltonian": {"kind": "random_hermitian", "dim": 4, "seed": 2},
        "state": {"kind": "random", "seed": 3},
        "grid": {"start": 0.0, "stop": 2.0, "num": 9},
    }
    hamiltonian = hamiltonian_from(block["hamiltonian"], NATURAL)
    trajectory = evolve_h(
        state_from(block["state"], hamiltonian.dim), hamiltonian, grid_from(block["grid"])
    )
    return {"scenario": "evolve-h", "evolve_h": block}, trajectory_columns(trajectory)


def onsager_case():
    block = {
        "system": {"N": 3, "L": [2.0, 0.5, 0.1, 0.5, 1.5, 0.2, 0.1, 0.2, 1.0],
                   "G": [1.0, 0.3, 0.0, 0.3, 2.0, 0.1, 0.0, 0.1, 0.7],
                   "y0": [1.0, -0.4, 0.25]},
        "grid": {"start": 0.0, "stop": 3.0, "num": 13},
    }
    trajectory = relax(OnsagerSystem.from_dict(block["system"]), grid_from(block["grid"]))
    columns = np.column_stack([
        np.arange(len(trajectory.tprimes)), trajectory.tprimes, trajectory.entropy_rates,
        trajectory.ys,
    ])
    return {"scenario": "onsager", "onsager": block}, columns


def fluct_case():
    block = {
        "reference": {"preset": "ideal_gas", "pressure": 1.0, "volume": 1.0, "temperature": 1.0},
        "n": 3000,
    }
    samples = gaussian_sample(FLUCT_REFERENCE, 3000, seed=9)
    columns = np.column_stack([samples.dp, samples.dV, samples.dT, samples.dS])
    return {"scenario": "fluct", "seed": 9, "fluct": block}, columns


class TestCsvRoundTrip:
    """Every CSV cell reads back to exactly the value the library returns."""

    @pytest.mark.parametrize("case", [
        evolve_h_case,
        lambda: evolve_s_case("frozen"),
        lambda: evolve_s_case("chart"),
        onsager_case,
        fluct_case,
    ], ids=["evolve-h", "evolve-s-frozen", "evolve-s-chart", "onsager", "fluct"])
    def test_cells_equal_library_arrays(self, tmp_path, case):
        payload, expected = case()
        config = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "data.csv"
        assert main([payload["scenario"], "--config", config, "--out", str(out)]) == 0
        header, table = read_table(out)
        assert len(header) == expected.shape[1]
        assert table.shape == expected.shape
        assert np.array_equal(table, expected)


class TestEmitReport:
    PASSING = {
        "config": {"scenario": "evolve-s"},
        "verdicts": [
            {"name": "s-unitary-norms", "tolerance": 1e-12, "measured": 1e-15, "passed": True},
        ],
    }
    FAILING = {
        "config": {"scenario": "onsager"},
        "verdicts": [
            {"name": "entropy-forms-agree", "tolerance": 1e-12, "measured": 0.5, "passed": False},
        ],
    }

    def test_single_passing_record(self):
        summary = emit_report([self.PASSING])
        assert summary.data["counts"] == {"pass": 1, "fail": 0}
        assert "PASS" in summary.text and "FAIL" not in summary.text

    def test_failing_row_is_flagged_without_raising(self):
        summary = emit_report([self.FAILING])
        assert summary.data["counts"]["fail"] == 1
        assert "FAIL" in summary.text

    def test_mixed_counts_match_recount(self):
        records = [self.PASSING, self.FAILING, self.PASSING]
        summary = emit_report(records)
        expected_pass = sum(
            1 for r in records for v in r["verdicts"] if v["passed"]
        )
        assert summary.data["counts"]["pass"] == expected_pass
        assert summary.data["counts"]["fail"] == len(summary.data["rows"]) - expected_pass
        assert list(summary.data["columns"]) == [
            "scenario", "check", "tolerance", "measured", "verdict",
        ]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            emit_report([])


class TestConfigLoading:
    def test_load_config_validates(self, tmp_path):
        config = write_config(tmp_path / "ok.json", EVOLVE_S_CONFIG)
        assert load_config(config)["scenario"] == "evolve-s"
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_epsilon_and_strength_are_exclusive(self, tmp_path):
        payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
        payload["evolve_s"]["strength"] = 0.5
        config = write_config(tmp_path / "cfg.json", payload)
        result = run_cli("evolve-s", "--config", config, "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "not both" in result.stderr

    def test_explicit_grid_points(self, tmp_path):
        payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
        payload["evolve_s"]["grid"] = {"points": [0.0, 0.3, 1.0]}
        config = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "o.csv"
        assert main(["evolve-s", "--config", config, "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_first_order_mode_selects_first_order_perturbation(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "evolve-h",
            "first_order_mode": True,
            "evolve_h": {
                "hamiltonian": {"kind": "two_level", "e0": 0.0, "e1": 1.0},
                "state": {"kind": "uniform"},
                "grid": {"start": 0.0, "stop": 1.0, "num": 3},
                "epsilon_prime": 0.1,
            },
        })
        out = tmp_path / "o.csv"
        assert main(["evolve-h", "--config", config, "--out", str(out)]) == 0
        record = json.loads((tmp_path / "o.csv.record.json").read_text())
        assert record["outputs"]["mode"] == "first_order"

    def test_chart_schedule_and_antidissipative_flag(self, tmp_path):
        payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
        payload["evolve_s"].update({
            "schedule": "chart", "reference_temperature": 1.0,
            "epsilon": 0.1, "allow_antidissipative": True,
        })
        config = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "o.csv"
        assert main(["evolve-s", "--config", config, "--out", str(out)]) == 0
        record = json.loads((tmp_path / "o.csv.record.json").read_text())
        assert record["outputs"]["schedule"] == "chart"
        assert record["outputs"]["norm_ratio"] < 1.0

    def test_explicit_reference_block(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "fluct",
            "fluct": {
                "reference": {
                    "pressure": 1.0, "volume": 2.0, "temperature": 1.0,
                    "entropy_scale": 2.0, "heat_capacity_cv": 3.0,
                    "compressibility_term": -2.0,
                },
                "n": 1500,
            },
        })
        out = tmp_path / "samples.csv"
        assert main(["fluct", "--config", config, "--out", str(out)]) == 0
