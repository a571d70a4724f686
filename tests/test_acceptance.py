"""Acceptance gate: every structural claim checked at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
inline).  The final class drives the command-line entry point end to end
and checks that its artifacts are reproducible byte for byte.
"""
import json
import subprocess
import sys
import time

import pytest
from conftest import cli_env

from entropiclab.suite import criterion_names, monotonicity_violation, run_all

ACCEPTANCE_SEED = 2026


@pytest.fixture(scope="module")
def suite_results():
    started = time.perf_counter()
    results = {result.name: result for result in run_all(seed=ACCEPTANCE_SEED)}
    results["__wall_clock__"] = time.perf_counter() - started
    return results


@pytest.mark.parametrize("name", criterion_names())
def test_criterion(name, suite_results):
    result = suite_results[name]
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status} {result.name}: measured={result.measured:.3e} "
        f"tolerance={result.tolerance:.3e} ({result.requirement})"
    )
    assert result.passed, (
        f"{result.name} failed: measured {result.measured:.6e} vs "
        f"tolerance {result.tolerance:.6e}; details {result.details}"
    )


def test_suite_runs_at_desk_scale(suite_results):
    assert suite_results["__wall_clock__"] < 60.0


class TestMonotonicityViolation:
    @pytest.mark.parametrize("epsilon", [-0.1, 0.1])
    def test_fewer_than_two_norms_are_monotone(self, epsilon):
        assert monotonicity_violation([1.0], epsilon) == 0.0
        assert monotonicity_violation([], epsilon) == 0.0

    def test_largest_step_against_the_branch(self):
        norms = [1.0, 1.5, 1.25, 2.0]
        assert monotonicity_violation(norms, -0.1) == 0.25
        assert monotonicity_violation(norms, 0.1) == 0.75


class TestCommandLineDeterminism:
    """check-all with a fixed seed reproduces its data artifacts exactly."""

    def test_repeat_runs_are_bit_identical(self, tmp_path):
        for name in ("first", "second"):
            result = subprocess.run(
                [sys.executable, "-m", "entropiclab.cli", "check-all",
                 "--seed", "7", "--outdir", str(tmp_path / name)],
                capture_output=True, text=True, env=cli_env(),
            )
            assert result.returncode == 0, result.stderr
            assert "PASS" in result.stdout
        first = json.loads((tmp_path / "first/record.json").read_text())
        second = json.loads((tmp_path / "second/record.json").read_text())
        first.pop("wall_clock_s")
        second.pop("wall_clock_s")
        assert first == second
        assert (tmp_path / "first/summary.csv").read_bytes() == (
            tmp_path / "second/summary.csv"
        ).read_bytes()

