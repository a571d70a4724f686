"""The benchmark's own gravity check, run against the code under test.

``perfbench/workloads.py`` builds the ``bulk-output-gravity`` inputs and
checks every operation's artifacts: the exit code, the verdicts, the CSV
row count, that the CSV bytes repeat from one call to the next, and that
``mean_h`` is finite and positive.  These tests load it by path, as
``test_perfbench_tracer.py`` loads the tracer, so that a change to the
direct sum that the benchmark would reject fails here first.
"""
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def gravity_operation(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules while it decorates
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    operations = module.build("bulk-output-gravity", 7, tmp_path_factory.mktemp("bench"))
    (operation,) = [op for op in operations if op.label == "gravity"]
    return operation


def test_gravity_operation_passes_its_check_twice(gravity_operation):
    from entropiclab import cli

    for _ in range(2):
        gravity_operation.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(gravity_operation.argv)
        assert gravity_operation.check(code) == []


def test_ball_mean_is_the_centre_value(gravity_operation):
    # every 4 m / |x - c| term is harmonic in a ball clear of the support, so
    # its average over the ball is its value at the centre (Gauss's
    # mean-value property); the Monte Carlo mean of the same samples that
    # mean_h draws must lie within 4 standard errors of it
    from entropiclab.config import load_config, region_from, source_from
    from entropiclab.gravity import _potential_at, _sample_region, mean_h, trace_potential
    from entropiclab.seeding import block_generator, block_ranges

    config_path = Path(gravity_operation.argv[gravity_operation.argv.index("--config") + 1])
    config = load_config(config_path)
    source = source_from(config["gravity"]["source"], config_path.parent)
    region = region_from(config["gravity"]["region"])
    values = np.concatenate([
        _potential_at(source, _sample_region(region, block_generator(config["seed"], block),
                                             stop - start))
        for block, start, stop in block_ranges(region.samples)
    ])
    mean = values.sum() / values.size
    standard_error = values.std(ddof=1) / np.sqrt(values.size)
    centre = trace_potential(source, region.center)
    assert abs(mean - centre) <= 4.0 * standard_error

    # these are mean_h's own samples: one block, summed the same way
    assert mean_h(source, region, config["seed"]) == mean
