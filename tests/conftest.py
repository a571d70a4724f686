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
    """The trajectory equals one exponential per grid point, bit for bit.

    ``generator`` is ``(entries, eigenvalues, eigenvectors)``; each point is
    ``apply_exponential``'s product ``V exp(z L) V* psi`` on that eigensystem.
    """
    from entropiclab.operators import _expectations, eigenbasis_rows

    entries, eigenvalues, eigenvectors = generator
    rows = [eigenbasis_rows(eigenvectors, np.multiply.outer([complex(z)], eigenvalues), psi)[0]
            for z in exponents]
    assert np.array_equal(trajectory.amplitudes, np.array(rows))
    assert np.array_equal(trajectory.norms, [np.linalg.norm(row) for row in rows])
    assert np.array_equal(trajectory.expectations,
                          [float(_expectations(entries, row)) for row in rows])
