"""Shared test harness: the command-line subprocess environment and the
per-point reference for whole-grid evolutions."""
import os
from pathlib import Path

import numpy as np


def cli_env():
    """Environment for a ``python -m entropiclab.cli`` subprocess.

    ``PYTHONPATH`` starts with the absolute parent directory of the imported
    ``entropiclab`` package, followed by any ``PYTHONPATH`` already set, so
    the child runs the code under test whatever its working directory and
    whether or not the package is installed.
    """
    import entropiclab

    package_parent = str(Path(entropiclab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        os.pathsep.join([package_parent, inherited]) if inherited else package_parent
    )
    return env


def assert_matches_per_point(trajectory, generator, psi, exponents):
    """The trajectory equals one ``apply_exponential`` per grid point, bit for bit."""
    from entropiclab.operators import apply_exponential, expectation

    states = [apply_exponential(generator, z, psi) for z in exponents]
    assert np.array_equal(trajectory.amplitudes, np.array([s.amplitudes for s in states]))
    assert np.array_equal(trajectory.norms, [s.norm() for s in states])
    assert np.array_equal(trajectory.expectations, [expectation(generator, s) for s in states])
