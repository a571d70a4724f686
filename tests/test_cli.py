import csv
import io
import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from conftest import cli_env

from entropiclab import (
    Constants,
    OnsagerSystem,
    ThermoReference,
    boundary_action,
    entropy_operator,
    evolve_h,
    evolve_h_perturbed,
    evolve_s,
    fourier_patch,
    gaussian_sample,
    mean_h,
    picture_consistency,
    relax,
    suite,
    symplectic_area,
    trace_potential,
)
from entropiclab.cli import main
from entropiclab.config import (
    ConfigError,
    grid_from,
    hamiltonian_from,
    load_config,
    patch_from,
    region_from,
    source_from,
    state_from,
    validate_config,
)
from entropiclab.constants import NATURAL
from entropiclab.seeding import BLOCK_SAMPLES
from entropiclab.verdicts import CheckResult


def run_cli(*args, cwd=None, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-m", "entropiclab.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(), preexec_fn=preexec_fn,
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

GRAVITY_SOURCE = {
    "spacing": 0.5, "origin": [0.0, 0.0, 0.0], "shape": [3, 3, 3],
    "primitives": [{"kind": "point", "position": [0.75, 0.75, 0.75], "mass": 2.0}],
}
ONSAGER_SYSTEM = {"N": 2, "L": [2.0, 1.0, 1.0, 2.0], "G": [1.0, 0.0, 0.0, 1.0], "y0": [1.0, 0.0]}
# each config reads its source or system from input.json beside it
FILE_INPUT_CONFIGS = {
    "gravity": {"scenario": "gravity", "gravity": {"source": "input.json", "probes": [[3, 1, 0]]}},
    "onsager": {"scenario": "onsager", "onsager": {
        "system": "input.json", "grid": {"start": 0.0, "stop": 1.0, "num": 3},
    }},
}

# a region of two sample blocks: with the fork threshold patched down, its
# sum is two row ranges, one per worker on two CPUs
SPLIT_GRAVITY_CONFIG = {
    "scenario": "gravity",
    "seed": 3,
    "gravity": {
        "source": GRAVITY_SOURCE,
        "probes": [[3.0, 1.0, 0.0]],
        "region": {"shape": "ball", "center": [4.0, 0.5, 0.5], "radius": 0.5,
                   "samples": BLOCK_SAMPLES + 1},
    },
}

FLUCT_REFERENCE = ThermoReference.ideal_gas(1.0, 1.0, 1.0)
IDEAL_GAS = {"preset": "ideal_gas", "pressure": 1.0, "volume": 1.0, "temperature": 1.0}


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

    def test_one_point_grid_with_nonzero_epsilon(self, tmp_path):
        payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
        payload["evolve_s"]["grid"] = {"points": [0.0]}
        config = write_config(tmp_path / "cfg.json", payload)
        assert main(["evolve-s", "--config", config, "--out", str(tmp_path / "o.csv")]) == 0
        record = json.loads((tmp_path / "o.csv.record.json").read_text())
        verdicts = {v["name"]: v for v in record["verdicts"]}
        assert verdicts["s-dilatation"]["measured"] == 0.0
        assert verdicts["s-dilatation"]["passed"] is True

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
        assert record["outputs"]["max_deviation"] <= 1e-10

    @pytest.mark.parametrize("mode", ["frozen_S", "chart_S"])
    def test_compare_pictures_dilating_run_is_within_rounding(self, tmp_path, mode):
        # the norms reach 1e35 (frozen) and 5e14 (chart); the deviation is
        # relative to them, so rounding stays far below the 1e-10 bound
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "compare-pictures",
            "compare_pictures": {
                "hamiltonian": {"kind": "random_hermitian", "dim": 8, "seed": 1,
                                "shift_nonnegative": True},
                "state": {"kind": "uniform"},
                "grid": {"start": 0.0, "stop": 2.0, "num": 9},
                "reference_temperature": 0.1,
                "mode": mode,
                "epsilon": -0.5,
            },
        })
        out = tmp_path / "compare.csv"
        assert main(["compare-pictures", "--config", config, "--out", str(out)]) == 0
        record = json.loads((tmp_path / "compare.csv.record.json").read_text())
        assert record["outputs"]["max_deviation"] <= 1e-10
        assert record["verdicts"] == [{"name": "picture-deviation", "tolerance": 1e-10,
                                       "measured": record["outputs"]["max_deviation"],
                                       "passed": True}]

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

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="gravity workers need fork")
    def test_gravity_workers_end_with_the_command(self, tmp_path, monkeypatch):
        import multiprocessing

        from entropiclab import gravity

        config = write_config(tmp_path / "cfg.json", SPLIT_GRAVITY_CONFIG)
        runs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(gravity, "_FORK_PAIRS", 1 if cpus == 2 else 1 << 24)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            out = tmp_path / f"cpus{cpus}.csv"
            assert main(["gravity", "--config", config, "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            record = json.loads((tmp_path / f"cpus{cpus}.csv.record.json").read_text())
            runs[cpus] = out.read_bytes(), record["outputs"]
        assert runs[1] == runs[2]
        assert not list(tmp_path.glob("*.tmp"))

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

    def test_source_file_matches_inline_source(self, tmp_path):
        (tmp_path / "input.json").write_text(json.dumps(GRAVITY_SOURCE))
        outputs = []
        for name, source in (("inline", GRAVITY_SOURCE), ("file", "input.json")):
            payload = json.loads(json.dumps(FILE_INPUT_CONFIGS["gravity"]))
            payload["gravity"]["source"] = source
            config = write_config(tmp_path / f"{name}.json", payload)
            out = tmp_path / f"{name}.csv"
            assert main(["gravity", "--config", config, "--out", str(out)]) == 0
            record = json.loads((tmp_path / f"{name}.csv.record.json").read_text())
            outputs.append((out.read_bytes(), record["outputs"], record["verdicts"]))
        assert outputs[0] == outputs[1]

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
        statistics = {"ds_dt_over_kBT", "dp_dv_over_kBT", "dt_dv_correlation", "ds_dtau_over_kB"}
        covariance = record["outputs"]["covariance"]
        assert set(covariance) == {"n"} | statistics
        assert covariance["n"] == 2000
        assert all(set(covariance[name]) == {"mean", "stderr"} for name in statistics)
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


class DiskFullFile:
    """A text file that takes its first write, then fails as a full disk does."""

    def __init__(self, handle):
        self._handle = handle
        self._writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, text):
        if self._writes:
            raise OSError(28, "No space left on device")
        self._writes += 1
        return self._handle.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def disk_full_open(*args, **kwargs):
    import builtins

    return DiskFullFile(builtins.open(*args, **kwargs))


# stand-ins for cli._format_block, which _csv_lines looks up at call time
def exhausted_block(columns):
    raise MemoryError("Unable to allocate 1.00 GiB")


def killed_block(columns):
    os.kill(os.getpid(), signal.SIGKILL)


class TestFailureModes:
    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run_cli("evolve-s", "--config", str(bad), "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "config error" in result.stderr

    @pytest.mark.parametrize("key", ["mystery", "first_order_mode"])
    def test_unknown_keys_rejected(self, tmp_path, key):
        payload = dict(EVOLVE_S_CONFIG)
        payload[key] = True
        config = write_config(tmp_path / "cfg.json", payload)
        result = run_cli("evolve-s", "--config", config, "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert key in result.stderr

    @pytest.mark.parametrize("schedule, unread", [
        ("frozen", "reference_temperature"), ("chart", "temperature"),
    ])
    def test_unread_temperature_key_exits_2(self, tmp_path, capsys, schedule, unread):
        # both keys set: each schedule reads one and rejects the other
        payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
        payload["evolve_s"].update({"schedule": schedule, "reference_temperature": 5.0})
        config = write_config(tmp_path / "cfg.json", payload)
        assert main(["evolve-s", "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"schedule does not read '{unread}'" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

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

    @pytest.mark.filterwarnings("error")
    def test_chart_overflow_exits_3(self, tmp_path, capsys):
        # the closed-form exponent (1 - exp(-tau)) / (2 T0) on the upper
        # level passes 709 from tau = 0.6; the overflow must exit 3 without a
        # NumPy warning
        payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
        payload["evolve_s"].update({
            "grid": {"start": 0.0, "stop": 2.0, "num": 21},
            "epsilon": -0.5,
            "schedule": "chart",
            "reference_temperature": 0.0003,
        })
        del payload["evolve_s"]["temperature"]
        config = write_config(tmp_path / "cfg.json", payload)
        assert main(["evolve-s", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.filterwarnings("error")
    def test_relax_overflow_exits_3(self, tmp_path, capsys):
        # y(t) = (e^t, e^-t): the production rate passes the double range at
        # t = 500 and the coordinates at t = 750
        config = write_config(tmp_path / "cfg.json", {"scenario": "onsager", "onsager": {
            "system": {"N": 2, "L": [-1.0, 0.0, 0.0, 1.0], "G": [1.0, 0.0, 0.0, 1.0],
                       "y0": [1.0, 1.0]},
            "grid": {"start": 0.0, "stop": 1000.0, "num": 5},
        }})
        assert main(["onsager", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_probe_on_the_support_exits_2(self, tmp_path, capsys):
        # one probe on the support fails the whole probe set before anything is written
        config = write_config(tmp_path / "cfg.json", {"scenario": "gravity", "gravity": {
            "source": GRAVITY_SOURCE, "probes": [[3, 1, 0], [0.75, 0.75, 0.75], [0, 0, 4]],
        }})
        assert main(["gravity", "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
        assert "source support" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

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

    def test_source_with_data_and_primitives_exits_2(self, tmp_path, capsys):
        # before the schema made them exclusive, the data won and the
        # primitives were dropped without a word
        np.zeros(27).astype("<f8").tofile(tmp_path / "lattice.bin")
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "gravity",
            "gravity": {"source": {**GRAVITY_SOURCE, "data": "lattice.bin"}, "probes": [[3, 1, 0]]},
        })
        assert main(["gravity", "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
        assert "is valid under each of" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "lattice.bin"]

    @pytest.mark.parametrize("kind, changes, message", [
        ("ball-region", {"bounds": [[3, 3, 3], [4, 4, 4]]}, "'bounds' is not one of"),
        ("ball-region", {"center": None}, "'center' is a required property"),
        ("ball-region", {"radius": None}, "'radius' is a required property"),
        ("box-region", {"center": [3, 1, 0]}, "'center' is not one of"),
        ("box-region", {"bounds": None}, "'bounds' is a required property"),
        ("ball", {"center": None}, "'center' is a required property"),
        ("ball", {"position": [0.75, 0.75, 0.75]}, "'position' is not one of"),
        ("point", {"mass": None}, "'mass' is a required property"),
        ("point", {"trace": 1.0}, "'trace' is not one of"),
        ("box", {"trace": None}, "'trace' is a required property"),
        ("box", {"radius": 0.5}, "'radius' is not one of"),
        ("rectangle", {"radius": 0.5}, "'radius' is not one of"),
        ("rectangle", {"p1_extent": None}, "'p1_extent' is a required property"),
        ("disk", {"radius": None}, "'radius' is a required property"),
        ("two_plane", {"area2": None}, "'area2' is a required property"),
        ("fourier", {"area1": 1.0}, "'area1' is not one of"),
        ("basis", {"seed": 3}, "'seed' is not one of"),
        ("basis", {"re": [1.0, 0.0]}, "'re' is not one of"),
        ("uniform", {"index": 1}, "'index' is not one of"),
        ("amplitudes", {"re": None}, "'re' is a required property"),
        ("ideal_gas", {"entropy_scale": 50, "compressibility_term": -9},
         "'entropy_scale' is not one of"),
        ("ideal_gas", {"volume": None}, "'volume' is a required property"),
        ("explicit", {"entropy_scale": None}, "'entropy_scale' is a required property"),
        ("two_level", {"levels": 3}, "'levels' is not one of"),
        ("two_level", {"e1": None}, "'e1' is a required property"),
        ("truncated_oscillator", {"dim": 2}, "'dim' is not one of"),
        ("truncated_oscillator", {"levels": None}, "'levels' is a required property"),
        ("random_hermitian", {"omega": 1.0}, "'omega' is not one of"),
        ("random_hermitian", {"seed": None}, "'seed' is a required property"),
    ], ids=["ball-region-bounds", "ball-region-no-center", "ball-region-no-radius",
            "box-region-center", "box-region-no-bounds", "ball-no-center", "ball-position",
            "point-no-mass", "point-trace", "box-no-trace", "box-radius", "rectangle-radius",
            "rectangle-no-p1-extent", "disk-no-radius", "two-plane-no-area2", "fourier-area1",
            "basis-seed", "basis-re", "uniform-index", "amplitudes-no-re",
            "ideal-gas-explicit-keys", "ideal-gas-no-volume", "explicit-no-entropy-scale",
            "two-level-levels", "two-level-no-e1", "oscillator-dim", "oscillator-no-levels",
            "random-hermitian-omega", "random-hermitian-no-seed"])
    def test_keys_of_another_kind_exit_2(self, tmp_path, capsys, kind, changes, message):
        # each region shape, primitive, patch, state, hamiltonian kind and
        # thermodynamic reference form requires its own keys and rejects the
        # others' (a change to None drops the key); before, a ball region
        # ignored its bounds, a ball without a center exited 2 with the bare
        # message 'center', and the ideal_gas preset ignored entropy_scale
        # and compressibility_term
        blocks = {
            "ball-region": {"shape": "ball", "samples": 10, "center": [3, 1, 0], "radius": 0.2},
            "box-region": {"shape": "box", "samples": 10, "bounds": [[3, 1, 0], [4, 2, 1]]},
            "point": {"kind": "point", "position": [0.75, 0.75, 0.75], "mass": 2.0},
            "ball": {"kind": "ball", "center": [0.75, 0.75, 0.75], "radius": 0.3, "trace": 1.0},
            "box": {"kind": "box", "bounds": [[0, 0, 0], [1, 1, 1]], "trace": 1.0},
            "rectangle": {"kind": "rectangle", "q1_extent": 1.0, "p1_extent": 1.0},
            "disk": {"kind": "disk", "radius": 0.8},
            "two_plane": {"kind": "two_plane", "area1": 1.0, "area2": 1.0},
            "fourier": {"kind": "fourier", "seed": 4},
            "basis": {"kind": "basis", "index": 1},
            "uniform": {"kind": "uniform"},
            "amplitudes": {"kind": "amplitudes", "re": [1.0, 0.0]},
            "ideal_gas": dict(IDEAL_GAS),
            "explicit": {"pressure": 1.0, "volume": 1.0, "temperature": 1.0,
                         "entropy_scale": 1.0, "heat_capacity_cv": 1.5,
                         "compressibility_term": -1.0},
            "two_level": {"kind": "two_level", "e0": 0.0, "e1": 1.0},
            "truncated_oscillator": {"kind": "truncated_oscillator", "levels": 3, "omega": 1.0},
            "random_hermitian": {"kind": "random_hermitian", "dim": 2, "seed": 1},
        }
        block = blocks[kind]
        for key, value in changes.items():
            if value is None:
                del block[key]
            else:
                block[key] = value
        if kind in ("rectangle", "disk", "two_plane", "fourier"):
            payload = {"scenario": "stokes",
                       "stokes": {"patch": block, "resolutions": [16, 32, 64]}}
        elif kind in ("basis", "uniform", "amplitudes"):
            payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
            payload["evolve_s"]["state"] = block
        elif kind in ("two_level", "truncated_oscillator", "random_hermitian"):
            payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
            payload["evolve_s"]["hamiltonian"] = block
        elif kind in ("ideal_gas", "explicit"):
            payload = {"scenario": "fluct", "fluct": {"reference": block, "n": 10}}
        else:
            gravity = {"source": dict(GRAVITY_SOURCE)}
            if kind.endswith("-region"):
                gravity["region"] = block
            else:
                gravity["source"]["primitives"] = [block]
            payload = {"scenario": "gravity", "gravity": gravity}
        config = write_config(tmp_path / "cfg.json", payload)
        out = str(tmp_path / "o.csv")
        assert main([payload["scenario"], "--config", config, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("scenario, document", [
        ("gravity", {**GRAVITY_SOURCE, "spacing": "x"}),
        ("gravity", {**GRAVITY_SOURCE, "origin": None}),
        ("gravity", {**GRAVITY_SOURCE, "primitives": 5}),
        ("gravity", {**GRAVITY_SOURCE, "primitives": [5]}),
        ("onsager", {**ONSAGER_SYSTEM, "mystery": 1}),
    ], ids=["spacing-string", "origin-null", "primitives-number", "primitive-number",
            "system-unknown-key"])
    def test_malformed_input_file_exits_2(self, tmp_path, capsys, scenario, document):
        (tmp_path / "input.json").write_text(json.dumps(document))
        config = write_config(tmp_path / "cfg.json", FILE_INPUT_CONFIGS[scenario])
        assert main([scenario, "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
        assert "file failed schema validation" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "input.json"]

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

        monkeypatch.setattr(cli_module, "open", disk_full_open, raising=False)
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        out = tmp_path / "part.csv"
        assert main(["evolve-s", "--config", config, "--out", str(out)]) == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_failed_parallel_csv_write_stops_the_workers(self, tmp_path, monkeypatch):
        # the disk fills after the header, while blocks are in flight
        import multiprocessing

        import entropiclab.cli as cli_module

        monkeypatch.setattr(cli_module, "open", disk_full_open, raising=False)
        monkeypatch.setattr(cli_module, "_CSV_BLOCK_CELLS", 28)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        assert main(["evolve-s", "--config", config, "--out", str(tmp_path / "part.csv")]) == 5
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        # the writer closes the table itself, while its caller still holds it
        columns = cli_module._columns(np.arange(40), np.arange(40.0))
        table = cli_module._csv_lines(["x", "y"], *columns)
        with pytest.raises(OSError):
            cli_module._write_atomically(tmp_path / "part.csv", table)
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_out_of_memory_while_formatting_exits_3(self, tmp_path, monkeypatch, capsys, cpus):
        # with two CPUs the MemoryError is raised in a worker and re-raised here
        import multiprocessing

        import entropiclab.cli as cli_module

        monkeypatch.setattr(cli_module, "_format_block", exhausted_block)
        monkeypatch.setattr(cli_module, "_CSV_BLOCK_CELLS", 28)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        assert main(["evolve-s", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert "out of memory: Unable to allocate 1.00 GiB" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_out_of_memory_while_writing_the_record_removes_the_csv(
        self, tmp_path, monkeypatch, capsys
    ):
        import entropiclab.cli as cli_module

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 GiB")

        monkeypatch.setattr(cli_module, "_write_record", exhausted)
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        assert main(["evolve-s", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert "out of memory: Unable to allocate 1.00 GiB" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="formatting workers need fork")
    def test_dead_formatting_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        import multiprocessing

        import entropiclab.cli as cli_module

        monkeypatch.setattr(cli_module, "_format_block", killed_block)
        monkeypatch.setattr(cli_module, "_CSV_BLOCK_CELLS", 28)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        assert main(["evolve-s", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert "out of memory: a CSV formatting worker died" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="gravity workers need fork")
    def test_dead_gravity_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        import multiprocessing

        from entropiclab import gravity

        parent = os.getpid()
        potential_rows = gravity._potential_rows

        def killed_rows(centred, points):
            if os.getpid() != parent:
                os._exit(1)
            return potential_rows(centred, points)

        monkeypatch.setattr(gravity, "_potential_rows", killed_rows)
        monkeypatch.setattr(gravity, "_FORK_PAIRS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = write_config(tmp_path / "cfg.json", SPLIT_GRAVITY_CONFIG)
        assert main(["gravity", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert "out of memory: a gravity worker died" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_norm_overflow_exits_3(self, tmp_path, capsys):
        # amplitudes pass the exponent guard, their squares do not
        payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
        payload["evolve_s"]["grid"] = {"points": [0.0, 250.0, 500.0]}
        payload["evolve_s"]["epsilon"] = -1.0
        config = write_config(tmp_path / "cfg.json", payload)
        assert main(["evolve-s", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("scenario, block, where", [
        ("evolve-s", {**EVOLVE_S_CONFIG["evolve_s"],
                      "grid": {"start": 0.0, "stop": 1.0, "num": 5.0}}, "evolve_s/grid/num"),
        ("stokes", {"patch": {"kind": "disk", "radius": 0.8}, "resolutions": [16.0, 32, 64]},
         "stokes/resolutions/0"),
        ("evolve-h", {"hamiltonian": {"kind": "random_hermitian", "dim": 4.0, "seed": 2},
                      "state": {"kind": "uniform"},
                      "grid": {"start": 0.0, "stop": 1.0, "num": 3}},
         "evolve_h/hamiltonian/dim"),
    ], ids=["num", "resolutions", "dim"])
    def test_integral_float_for_integer_exits_2(self, tmp_path, capsys, scenario, block, where):
        config = write_config(
            tmp_path / "cfg.json", {"scenario": scenario, scenario.replace("-", "_"): block}
        )
        assert main([scenario, "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"at {where}: " in capsys.readouterr().err
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
        monkeypatch.setattr(suite, "run_all", lambda seed: [passing])
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        assert cli_module.main(["check-all", "--outdir", str(blocker)]) == 5

    def test_out_of_memory_exits_3(self, tmp_path, monkeypatch, capsys):
        import entropiclab.cli as cli_module

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB")

        # fluct's producer runs as its CSV is written, block by block
        monkeypatch.setattr(cli_module, "_fluct_rows", exhausted)
        monkeypatch.setattr(suite, "run_all", exhausted)
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "fluct",
            "fluct": {"reference": IDEAL_GAS, "n": 10**12},
        })
        assert main(["fluct", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert main(["check-all", "--outdir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.count("out of memory: Unable to allocate") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_seed_beyond_philox_key_exits_2(self, tmp_path, capsys):
        seed = 2**128
        fluct = write_config(tmp_path / "fluct.json", {
            "scenario": "fluct", "seed": seed,
            "fluct": {"reference": IDEAL_GAS, "n": 10},
        })
        check = write_config(tmp_path / "check.json", {"scenario": "check-all", "seed": seed})
        assert main(["fluct", "--config", fluct, "--out", str(tmp_path / "o.csv")]) == 2
        assert main(["check-all", "--config", check, "--outdir", str(tmp_path / "a")]) == 2
        assert main(["check-all", "--seed", str(seed), "--outdir", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err.count("at seed: ") == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["check.json", "fluct.json"]

    def test_largest_seed_runs(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "fluct", "seed": 2**128 - 1,
            "fluct": {"reference": IDEAL_GAS, "n": 10},
        })
        assert main(["fluct", "--config", config, "--out", str(tmp_path / "o.csv")]) == 0

    def test_check_all_config_for_another_scenario(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", EVOLVE_S_CONFIG)
        assert main(["check-all", "--config", config, "--outdir", str(tmp_path / "out")]) == 2
        assert (
            "config declares scenario 'evolve-s' but was passed to 'check-all'"
            in capsys.readouterr().err
        )

    def test_check_all_seed_with_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", {"scenario": "check-all", "seed": 7})
        out = tmp_path / "out"
        assert main(["check-all", "--config", config, "--seed", "3", "--outdir", str(out)]) == 2
        assert "--seed cannot be combined with --config" in capsys.readouterr().err
        assert not out.exists()

    def test_check_all_failure_maps_to_exit_4(self, tmp_path, monkeypatch):
        import entropiclab.cli as cli_module

        failing = CheckResult(
            name="synthetic", requirement="forced failure", tolerance=0.0,
            measured=1.0, passed=False, details={},
        )
        monkeypatch.setattr(suite, "run_all", lambda seed: [failing])
        code = cli_module.main(["check-all", "--outdir", str(tmp_path / "out")])
        assert code == 4


class TestCheckAll:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_runs_clean_and_deterministic(self, tmp_path):
        # "one" is pinned to one CPU and runs the criteria in process; "two"
        # may use every CPU of this process and runs them in forked workers
        cpu = min(os.sched_getaffinity(0))
        pinned = {"one": lambda: os.sched_setaffinity(0, {cpu}), "two": None}
        for name, preexec_fn in pinned.items():
            result = run_cli(
                "check-all", "--seed", "7", "--outdir", str(tmp_path / name), cwd=str(tmp_path),
                preexec_fn=preexec_fn,
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

    def test_config_file_form(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "scenario": "check-all", "seed": 7, "check_all": {"workers": 2},
        })
        result = run_cli(
            "check-all", "--config", config, "--outdir", str(tmp_path / "cfg_out"),
            cwd=str(tmp_path),
        )
        assert result.returncode == 0, result.stderr

    def test_workers_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["check-all", "--workers", "2", "--outdir", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_results_are_the_same_at_any_cpu_count(self, monkeypatch):
        from entropiclab.suite import criterion_names, run_all

        runs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            runs.append([result.to_dict() for result in run_all(7)])
        assert [entry["name"] for entry in runs[0]] == criterion_names()
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_closures_run_and_the_first_failure_in_order_is_raised(self, monkeypatch, cpus):
        # closures cannot be pickled: a worker finds each by its index, and
        # the first failure in criterion order wins over the first submitted
        from entropiclab import suite

        def passing(index):
            return lambda seed: CheckResult.bounded(f"c{index}", float(seed + index), 100.0)

        def failing(index):
            def criterion(seed):
                raise OverflowError(f"criterion {index} overflowed")
            return criterion

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        criteria = [passing(index) for index in range(len(suite._CRITERIA))]
        monkeypatch.setattr(suite, "_CRITERIA", tuple(criteria))
        results = suite.run_all(7)
        assert [(r.name, r.measured) for r in results] == [
            (f"c{index}", 7.0 + index) for index in range(len(criteria))
        ]
        first_submitted = suite._SUBMISSION_ORDER[0]
        assert first_submitted != 0
        for index in (0, first_submitted):
            criteria[index] = failing(index)
        monkeypatch.setattr(suite, "_CRITERIA", tuple(criteria))
        with pytest.raises(OverflowError, match="criterion 0 overflowed"):
            suite.run_all(7)

    def test_submission_order_covers_every_criterion_once(self):
        from entropiclab import suite

        assert sorted(suite._SUBMISSION_ORDER) == list(range(len(suite._CRITERIA)))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="criterion workers need fork")
    @pytest.mark.parametrize("failure, message", [
        ("overflow", "numerical failure: criterion overflowed"),
        ("death", "out of memory: a criterion worker died"),
    ])
    def test_failing_criterion_worker_exits_3_without_artifacts(
        self, tmp_path, monkeypatch, capsys, failure, message
    ):
        import multiprocessing

        from entropiclab import suite

        def criterion(seed):
            if failure == "overflow":
                raise OverflowError("criterion overflowed")
            os._exit(1)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        criteria = list(suite._CRITERIA)
        criteria[suite._SUBMISSION_ORDER[-1]] = criterion
        monkeypatch.setattr(suite, "_CRITERIA", tuple(criteria))
        assert main(["check-all", "--seed", "7", "--outdir", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="criterion workers need fork")
    def test_criterion_workers_import_no_numpy_random_module_of_their_own(self):
        # a fresh interpreter that has imported the command line, as the
        # check-all parent has; each criterion runs as the first task of a
        # freshly forked pool, whose worker lists the numpy.random modules it
        # lacked.  A second, empty task makes the pool fork two workers; the
        # first task is always the first its worker runs.
        script = textwrap.dedent("""
            import json, os, sys
            import entropiclab.cli
            from entropiclab import _fanout, suite

            def random_modules():
                return {name for name in sys.modules if name.startswith("numpy.random")}

            parent = random_modules()

            def run(index):
                if index is not None:
                    suite._CRITERIA[index](7)
                return sorted(random_modules() - parent)

            os.sched_getaffinity = lambda pid: {0, 1}
            found = {}
            for index, name in enumerate(suite.criterion_names()):
                found[name] = list(_fanout.ordered(run, [(index,), (None,)], "criterion"))[0]
            print(json.dumps({"parent": sorted(parent), "found": found}))
        """)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=cli_env(), timeout=120)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert "numpy.random" in report["parent"]
        assert report["found"] == {name: [] for name in report["found"]}
        assert len(report["found"]) == 12


def read_table(path):
    rows = list(csv.reader(path.read_text().splitlines()))
    return rows[0], rows[1:]


def csv_writer_text(header, columns):
    """The reference CSV: ``csv.writer``'s default dialect over cells written
    as the parent format wrote them, ``str`` for labels and integers and
    ``repr(float)`` for everything else."""
    cells = [
        [x if isinstance(x, str) else str(x) if isinstance(x, int) else repr(float(x))
         for x in np.asarray(column).tolist()]
        for column in columns
    ]
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(zip(*cells))
    return buffer.getvalue()


def trajectory_case(label, expect_label, trajectory):
    amplitudes = trajectory.amplitudes
    header = ["step", label, "norm", expect_label]
    columns = [np.arange(len(trajectory.grid)), trajectory.grid, trajectory.norms,
               trajectory.expectations]
    for k in range(amplitudes.shape[1]):
        header += [f"re_{k}", f"im_{k}"]
        columns += [amplitudes[:, k].real, amplitudes[:, k].imag]
    return header, columns


def evolve_s_case(schedule):
    block = dict(EVOLVE_S_CONFIG["evolve_s"])
    if schedule == "chart":
        del block["temperature"]
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
            psi0, entropy_operator(hamiltonian, 1.0), grid, 0.1,
            schedule="chart", allow_antidissipative=True,
        )
    else:
        trajectory = evolve_s(psi0, entropy_operator(hamiltonian, 1.0), grid, -0.1)
    return (config, *trajectory_case("tau", "expect_S", trajectory))


def evolve_h_case(hbar=1.0, epsilon_prime=0.0, mode="exact"):
    block = {
        "hamiltonian": {"kind": "random_hermitian", "dim": 4, "seed": 2},
        "state": {"kind": "random", "seed": 3},
        "grid": {"start": 0.0, "stop": 2.0, "num": 9},
    }
    config, constants = {"scenario": "evolve-h", "evolve_h": block}, Constants(hbar=hbar)
    if hbar != 1.0:
        config["constants"] = {"hbar": hbar}
    hamiltonian = hamiltonian_from(block["hamiltonian"], constants)
    psi0, grid = state_from(block["state"], hamiltonian.dim), grid_from(block["grid"])
    if epsilon_prime == 0.0:
        trajectory = evolve_h(psi0, hamiltonian, grid, constants)
    else:
        block.update(epsilon_prime=epsilon_prime, mode=mode)
        trajectory = evolve_h_perturbed(psi0, hamiltonian, grid, epsilon_prime, mode, constants)
    return (config, *trajectory_case("t", "expect_H", trajectory))


def onsager_case():
    block = {
        "system": {"N": 3, "L": [2.0, 0.5, 0.1, 0.5, 1.5, 0.2, 0.1, 0.2, 1.0],
                   "G": [1.0, 0.3, 0.0, 0.3, 2.0, 0.1, 0.0, 0.1, 0.7],
                   "y0": [1.0, -0.4, 0.25]},
        "grid": {"start": 0.0, "stop": 3.0, "num": 13},
    }
    grid = grid_from(block["grid"])
    ys, rates = relax(OnsagerSystem.from_dict(block["system"]), grid)
    header = ["step", "tprime", "entropy_rate", "y_0", "y_1", "y_2"]
    columns = [np.arange(len(grid)), grid, rates, *ys.T]
    return {"scenario": "onsager", "onsager": block}, header, columns


def fluct_case():
    block = {
        "reference": {"preset": "ideal_gas", "pressure": 1.0, "volume": 1.0, "temperature": 1.0},
        "n": 3000,
    }
    samples = gaussian_sample(FLUCT_REFERENCE, 3000, seed=9)
    columns = [samples.dp, samples.dV, samples.dT, samples.dS]
    return {"scenario": "fluct", "seed": 9, "fluct": block}, ["dp", "dV", "dT", "dS"], columns


def gravity_case(probes):
    # integer probe coordinates in the JSON still print as floats
    block = {
        "source": {
            "spacing": 0.5, "origin": [0.0, 0.0, 0.0], "shape": [3, 3, 3],
            "primitives": [{"kind": "point", "position": [0.75, 0.75, 0.75], "mass": 2.0}],
        },
        "probes": probes,
    }
    source = source_from(block["source"], None)
    coordinates = np.asarray(probes, dtype=float).reshape(-1, 3)
    potentials = trace_potential(source, coordinates)
    return ({"scenario": "gravity", "gravity": block}, ["x", "y", "z", "h"],
            [*coordinates.T, potentials])


def stokes_case():
    block = {"patch": {"kind": "fourier", "seed": 4}, "resolutions": [16, 32, 64]}
    patch = patch_from(block["patch"])
    areas = [symplectic_area(patch, n) for n in block["resolutions"]]
    circulations = [boundary_action(patch, n) for n in block["resolutions"]]
    gaps = [abs(a - c) for a, c in zip(areas, circulations)]
    return ({"scenario": "stokes", "stokes": block},
            ["resolution", "area", "boundary_action", "abs_gap"],
            [block["resolutions"], areas, circulations, gaps])


def compare_pictures_case(mode):
    block = {
        "hamiltonian": {"kind": "random_hermitian", "dim": 3, "seed": 5},
        "state": {"kind": "random", "seed": 6},
        "grid": {"start": 0.0, "stop": 0.5, "num": 4},
        "reference_temperature": 1.3,
        "mode": mode,
        "epsilon": 0.0 if mode == "real_C" else -0.2,
    }
    constants = Constants(hbar=0.7, kB=1.3)
    hamiltonian = hamiltonian_from(block["hamiltonian"], constants)
    deviation = picture_consistency(
        state_from(block["state"], hamiltonian.dim), hamiltonian, 1.3, mode,
        grid_from(block["grid"]), block["epsilon"], constants,
    )
    config = {"scenario": "compare-pictures", "constants": {"hbar": 0.7, "kB": 1.3},
              "compare_pictures": block}
    return config, ["mode", "epsilon", "max_deviation"], [[mode], [block["epsilon"]], [deviation]]


SCENARIO_CASES = {
    "evolve-h": evolve_h_case,
    # hbar = 0.7, so that each evolution's exponents round as it forms them
    "evolve-h-hbar": lambda: evolve_h_case(0.7),
    "evolve-h-exact-hbar": lambda: evolve_h_case(0.7, 0.3, "exact"),
    "evolve-h-first-order-hbar": lambda: evolve_h_case(0.7, 0.3, "first_order"),
    "evolve-s-frozen": lambda: evolve_s_case("frozen"),
    "evolve-s-chart": lambda: evolve_s_case("chart"),
    "onsager": onsager_case,
    "fluct": fluct_case,
    "gravity": lambda: gravity_case([[3, 1, 0], [0.5, -2.25, 7]]),
    "stokes": stokes_case,
    "compare-pictures-real-C": lambda: compare_pictures_case("real_C"),
    "compare-pictures-frozen-S": lambda: compare_pictures_case("frozen_S"),
    "compare-pictures-chart-S": lambda: compare_pictures_case("chart_S"),
}


def run_case(tmp_path, case):
    payload, header, columns = case()
    config = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "data.csv"
    assert main([payload["scenario"], "--config", config, "--out", str(out)]) == 0
    return out, header, columns


class TestCsvRoundTrip:
    """Every CSV cell reads back to exactly the value the library returns."""

    @pytest.mark.parametrize("case", SCENARIO_CASES.values(), ids=SCENARIO_CASES.keys())
    def test_cells_equal_library_arrays(self, tmp_path, case):
        out, header, columns = run_case(tmp_path, case)
        written_header, rows = read_table(out)
        assert written_header == header
        assert len(rows) == len(columns[0])
        assert all(len(row) == len(header) for row in rows)
        for cells, column in zip(zip(*rows), columns):
            if isinstance(column[0], str):
                assert list(cells) == list(column)
            else:
                assert np.array_equal(np.array([float(cell) for cell in cells]), column)


class TestCsvFormat:
    """The CLI's CSV bytes equal ``csv.writer``'s over the same cells."""

    @pytest.mark.parametrize(
        "case", [*SCENARIO_CASES.values(), lambda: gravity_case([])],
        ids=[*SCENARIO_CASES.keys(), "gravity-no-probes"],
    )
    def test_scenario_bytes_match_csv_writer(self, tmp_path, case):
        out, header, columns = run_case(tmp_path, case)
        assert out.read_bytes() == csv_writer_text(header, columns).encode("utf-8")

    def test_check_all_summary_matches_csv_writer(self, tmp_path, monkeypatch):
        import entropiclab.cli as cli_module

        results = [
            CheckResult.bounded("unitary-limit", 3.4e-17, 1e-12),
            CheckResult("stokes-identity", 1.9, 1.7600000000000002, False),
            CheckResult.bounded("gravity-falloff", 0.0, 5),
        ]
        monkeypatch.setattr(suite, "run_all", lambda seed: results)
        assert main(["check-all", "--outdir", str(tmp_path)]) == 4
        expected = csv_writer_text(
            ["criterion", "tolerance", "measured", "passed"],
            [[r.name for r in results], [r.tolerance for r in results],
             [r.measured for r in results], [str(r.passed).lower() for r in results]],
        )
        assert (tmp_path / "summary.csv").read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 14, 20])
    def test_blocks_join_without_a_seam(self, monkeypatch, rows):
        # 63 cells over 6 columns and a group of 3 put a block boundary after
        # every 7th row; one CPU formats in process, two in forked workers
        import entropiclab.cli as cli_module

        monkeypatch.setattr(cli_module, "_CSV_BLOCK_CELLS", 63)
        rng = np.random.default_rng(rows)
        # non-finite values, signed zeros and the 1e-4 and 1e16 notation thresholds
        edges = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-4, 9.999999999999999e-05,
                          1e16, 9999999999999998.0, -1.7976931348623157e308])
        subnormals = rng.integers(1, 1 << 52, rows, dtype=np.uint64).view(float)
        # a two-dimensional group of adjacent float columns, between two float columns
        group = rng.standard_normal((rows, 3))
        columns = [np.arange(rows), rng.standard_normal(rows), group,
                   np.exp(rng.uniform(-700, 700, rows)), rng.choice(edges, rows), -subnormals,
                   np.array([f"label{k}" for k in range(rows)], dtype=str)]
        header = ["step", "x", "g0", "g1", "g2", "wide", "edge", "subnormal", "label"]
        expected = csv_writer_text(header, [*columns[:2], *group.T, *columns[3:]]).encode("utf-8")
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            text = "".join(cli_module._csv_lines(header, *cli_module._columns(*columns)))
            assert text.encode("utf-8") == expected, f"{cpus} CPU(s)"

    def test_wide_table_is_cut_into_blocks(self, monkeypatch):
        # 1,200 columns: blocks of a few rows each, not one block of all rows
        import entropiclab.cli as cli_module

        blocks = []
        format_block = cli_module._format_block

        def counting(columns):
            blocks.append(len(columns[0]))
            return format_block(columns)

        monkeypatch.setattr(cli_module, "_format_block", counting)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        rng = np.random.default_rng(3)
        columns = list(rng.standard_normal((1_200, 120)))
        header = [f"c{k}" for k in range(len(columns))]
        text = "".join(cli_module._csv_lines(header, *cli_module._columns(*columns)))
        assert len(blocks) > 1 and sum(blocks) == 120
        assert max(blocks) * len(columns) <= cli_module._CSV_BLOCK_CELLS
        assert text.encode("utf-8") == csv_writer_text(header, columns).encode("utf-8")

    def test_workers_end_with_the_command(self, tmp_path, monkeypatch):
        import multiprocessing

        import entropiclab.cli as cli_module

        # a block per row; fluct's blocks are its moment groups and cannot shrink
        monkeypatch.setattr(cli_module, "_CSV_BLOCK_CELLS", 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out, header, columns = run_case(tmp_path, lambda: evolve_s_case("chart"))
        assert out.read_bytes() == csv_writer_text(header, columns).encode("utf-8")
        assert multiprocessing.active_children() == []
        assert not list(tmp_path.glob("*.tmp"))


class TestRecordFormat:
    def test_numpy_values_are_written_as_json(self, tmp_path):
        import entropiclab.cli as cli_module

        result = CheckResult(
            "synthetic", 1e-3, np.float32(0.25), np.bool_(True),
            details={"points": np.int64(9), "ok": np.bool_(False), "gap": np.float32(0.1),
                     "orders": np.array([2.0, 1.5])},
        )
        outputs = {"count": np.int64(3), "flag": np.bool_(True), "ratio": np.float32(0.1),
                   "rows": np.array([[1, 2], [3, 4]]), "criteria": [result.to_dict()]}
        path = tmp_path / "record.json"
        cli_module._write_record(path, {"scenario": "check-all", "seed": 0}, outputs, [result], 0.5)
        expected = """{
  "config": {
    "scenario": "check-all",
    "seed": 0
  },
  "outputs": {
    "count": 3,
    "criteria": [
      {
        "details": {
          "gap": 0.10000000149011612,
          "ok": false,
          "orders": [
            2.0,
            1.5
          ],
          "points": 9
        },
        "measured": 0.25,
        "name": "synthetic",
        "passed": true,
        "requirement": "",
        "tolerance": 0.001
      }
    ],
    "flag": true,
    "ratio": 0.10000000149011612,
    "rows": [
      [
        1,
        2
      ],
      [
        3,
        4
      ]
    ]
  },
  "verdicts": [
    {
      "measured": 0.25,
      "name": "synthetic",
      "passed": true,
      "tolerance": 0.001
    }
  ],
  "version": "%s",
  "wall_clock_s": 0.5
}
""" % cli_module.__version__
        assert path.read_bytes() == expected.encode("utf-8")


class TestVerdictTable:
    def test_check_all_prints_failures(self, tmp_path, monkeypatch, capsys):
        import entropiclab.cli as cli_module

        results = [
            CheckResult.bounded("unitary-limit", 3.4e-17, 1e-12),
            CheckResult("stokes-identity", 1.9, 1.76, False),
        ]
        monkeypatch.setattr(suite, "run_all", lambda seed: results)
        assert main(["check-all", "--outdir", str(tmp_path)]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["scenario", "check", "tolerance", "measured", "verdict"]
        assert lines[3].split() == [
            "check-all", "stokes-identity", "1.900e+00", "1.760e+00", "FAIL",
        ]
        assert lines[-1] == "1 passed, 1 failed"
        # the flag form without --seed runs and records seed 0
        assert json.loads((tmp_path / "record.json").read_text())["config"]["seed"] == 0


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
            "evolve_h": {
                "hamiltonian": {"kind": "two_level", "e0": 0.0, "e1": 1.0},
                "state": {"kind": "uniform"},
                "grid": {"start": 0.0, "stop": 1.0, "num": 3},
                "epsilon_prime": 0.1,
                "mode": "first_order",
            },
        })
        out = tmp_path / "o.csv"
        assert main(["evolve-h", "--config", config, "--out", str(out)]) == 0
        record = json.loads((tmp_path / "o.csv.record.json").read_text())
        assert record["outputs"]["mode"] == "first_order"

    def test_chart_schedule_and_antidissipative_flag(self, tmp_path):
        payload = json.loads(json.dumps(EVOLVE_S_CONFIG))
        del payload["evolve_s"]["temperature"]
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

    def test_builders_pass_blocks_through(self, tmp_path):
        # an integer radius is the float one; a fourier patch without a seed is seed 0
        source = source_from(GRAVITY_SOURCE, tmp_path)
        ball = {"shape": "ball", "center": [4.0, 0.5, 0.5], "samples": 64}
        whole, real = (region_from(dict(ball, radius=radius)) for radius in (1, 1.0))
        assert type(whole.radius) is float
        assert mean_h(source, whole, 3).hex() == mean_h(source, real, 3).hex()
        unseeded = patch_from({"kind": "fourier"})
        assert symplectic_area(unseeded, 16).hex() == symplectic_area(fourier_patch(0), 16).hex()

EDGE_REFERENCE = {"preset": "ideal_gas", "pressure": 1.3, "volume": 0.7, "temperature": 1.1}
TWO_LEVEL = {"kind": "two_level", "e0": 0.0, "e1": 1.0}


def edge_evolve_s(schedule, points, stop=4.0, epsilon=-0.2):
    block = {"hamiltonian": TWO_LEVEL, "state": {"kind": "random", "seed": 4},
             "grid": {"start": 0.0, "stop": stop, "num": points}, "epsilon": epsilon,
             "schedule": schedule}
    block["temperature" if schedule == "frozen" else "reference_temperature"] = 1.3
    return {"scenario": "evolve-s", "constants": {"kB": 1.3}, "evolve_s": block}


def memory_peaks(tmp_path, config):
    """``(own, workers)`` peak RSS in MB of a fresh interpreter running ``config``."""
    path = write_config(tmp_path / "cfg.json", config)
    script = textwrap.dedent(f"""\
        import resource
        from entropiclab.cli import main
        assert main([{config["scenario"]!r}, "--config", {path!r},
                     "--out", {str(tmp_path / "o.csv")!r}]) == 0
        with open("/proc/self/status") as status:
            print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
        print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    """)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=cli_env(), check=True)
    # VmHWM, since RUSAGE_SELF keeps the peak from before exec; both in kB
    own, workers = (int(line) / 1024.0 for line in result.stdout.split())
    return own, workers


class TestBlockProducers:
    """fluct and evolve-s make their rows block by block as the CSV is written,
    with the bytes of the whole-column reference at every CPU count."""

    @staticmethod
    def runs(tmp_path, monkeypatch, config):
        """``(CSV bytes, record without wall_clock_s)`` at one CPU and at two."""
        found = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            path = write_config(tmp_path / f"cfg{cpus}.json", config)
            out = tmp_path / f"out{cpus}.csv"
            assert main([config["scenario"], "--config", path, "--out", str(out)]) == 0
            record = json.loads((tmp_path / f"out{cpus}.csv.record.json").read_text())
            del record["wall_clock_s"], record["config"]
            found.append((out.read_bytes(), record))
        assert found[0] == found[1]
        return found[0]

    def test_a_fluct_block_is_one_moment_group(self):
        # the CLI sets its block size without importing the sampler
        import entropiclab.cli as cli_module
        from entropiclab.fluctuations import _GROUP

        assert cli_module._CSV_BLOCK_CELLS == len(cli_module._FLUCT_HEADER) * _GROUP

    def test_fluct_blocks_are_the_whole_columns(self, tmp_path, monkeypatch):
        import entropiclab.cli as cli_module
        from entropiclab.fluctuations import covariance_report

        # three CSV blocks (moment groups) and part of a fourth, which ends
        # in part of a sample block
        n = 50_001
        config = {"scenario": "fluct", "seed": 8, "constants": {"kB": 1.3},
                  "fluct": {"reference": EDGE_REFERENCE, "n": n}}
        data, record = self.runs(tmp_path, monkeypatch, config)
        reference, constants = ThermoReference.ideal_gas(1.3, 0.7, 1.1), Constants(kB=1.3)
        samples = gaussian_sample(reference, n, seed=8, constants=constants)
        columns = cli_module._columns(samples.dp, samples.dV, samples.dT, samples.dS)
        expected = "".join(cli_module._csv_lines(["dp", "dV", "dT", "dS"], *columns))
        assert data == expected.encode("utf-8")
        assert record["outputs"]["covariance"] == covariance_report(samples, reference, constants)
        assert record["outputs"]["n"] == n and len(record["verdicts"]) == 4

    @pytest.mark.parametrize("schedule", ["frozen", "chart"])
    def test_evolve_s_blocks_are_the_whole_trajectory(self, tmp_path, monkeypatch, schedule):
        import entropiclab.cli as cli_module
        from entropiclab.suite import monotonicity_violation

        # two CSV blocks of 8,192 two-level rows and part of a third
        config = edge_evolve_s(schedule, 20_001)
        data, record = self.runs(tmp_path, monkeypatch, config)
        constants = Constants(kB=1.3)
        hamiltonian = hamiltonian_from(TWO_LEVEL, constants)
        trajectory = evolve_s(
            state_from({"kind": "random", "seed": 4}, 2), entropy_operator(hamiltonian, 1.3),
            grid_from(config["evolve_s"]["grid"]), -0.2, constants, schedule=schedule,
        )
        columns = cli_module._columns(*cli_module._trajectory_columns(trajectory))
        header = cli_module._trajectory_header("tau", "expect_S", 2)
        assert data == "".join(cli_module._csv_lines(header, *columns)).encode("utf-8")
        norms = trajectory.norms
        assert record["outputs"]["final_norm"] == float(norms[-1])
        assert record["outputs"]["norm_ratio"] == float(norms[-1] / norms[0])
        dilatation = record["verdicts"][0]
        assert dilatation["name"] == "s-dilatation"
        assert dilatation["measured"] == monotonicity_violation(norms, -0.2)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("scenario", ["evolve-h", "evolve-s"])
    def test_a_zero_state_exits_2(self, tmp_path, monkeypatch, capsys, scenario, cpus):
        # evolve-s checks the state as it makes each of its three CSV blocks
        import multiprocessing

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        zero = {"kind": "amplitudes", "re": [0.0, 0.0]}
        config = edge_evolve_s("frozen", 20_001)
        config["evolve_s"]["state"] = zero
        if scenario == "evolve-h":
            config = {"scenario": "evolve-h", "evolve_h": {
                "hamiltonian": TWO_LEVEL, "state": zero, "grid": config["evolve_s"]["grid"]}}
        path = write_config(tmp_path / "cfg.json", config)
        assert main([scenario, "--config", path, "--out", str(tmp_path / "o.csv")]) == 2
        assert "config error: initial state must be nonzero" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
    def test_overflow_in_a_later_block_exits_3(self, tmp_path, monkeypatch, capsys):
        import multiprocessing

        # the excited amplitude grows as exp(tau / 1.3^2), so the squared norm
        # passes the double range near tau = 600, in row 12,006, which lies in
        # the second block of 8,192 rows
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = write_config(tmp_path / "cfg.json",
                              edge_evolve_s("frozen", 20_001, stop=1000.0, epsilon=-1.0))
        assert main(["evolve-s", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert "numerical failure: the evolved state" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_evolve_s_memory_is_bounded_by_the_block(self, tmp_path):
        # a million two-level rows: whole columns peaked at about 200 MB in the
        # command's process and 183 MB in a worker; blocks at about 58 and 47 MB
        own, workers = memory_peaks(tmp_path, edge_evolve_s("frozen", 10**6, stop=1.0))
        assert own < 150.0 and workers < 150.0

    def test_fluct_memory_is_bounded_by_the_block(self, tmp_path):
        # 2e6 samples: whole columns peaked at about 110 MB in the command's
        # process and 97 MB in a worker; blocks at about 48 and 41 MB
        config = {"scenario": "fluct", "seed": 2, "fluct": {"reference": IDEAL_GAS, "n": 2 * 10**6}}
        own, workers = memory_peaks(tmp_path, config)
        assert own < 80.0 and workers < 80.0
