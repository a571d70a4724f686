"""A command starts on NumPy and the modules it runs.

A fresh interpreter does what the benchmark's set-up does for
``bulk-output-gravity``: it imports ``entropiclab.cli`` and writes and
validates that workload's configs.  After that it must hold no module from
outside the standard library, NumPy and the package (the schema is checked
by the package itself, without ``jsonschema``), and none of the kernel
modules, which each command's runner imports only when it runs.  Every
public name of the package must still resolve, through the lazy ``__init__``.
"""
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from conftest import cli_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
KERNELS = {"operators", "entropy_picture", "energy_picture", "fluctuations", "gravity",
           "onsager", "suite"}
# the benchmark harness module that writes the workload's configs
HARNESS = {"workloads"}

CHILD = textwrap.dedent("""
    import importlib
    import json
    import sys
    from pathlib import Path

    started = set(sys.modules)
    sys.path.insert(0, sys.argv[1])
    import workloads
    from entropiclab import cli

    workloads.build("bulk-output-gravity", 7, Path(sys.argv[2]))
    loaded = sorted(set(sys.modules) - started)

    import entropiclab

    resolved = {}
    for name in entropiclab.__all__:
        module = importlib.import_module("entropiclab." + entropiclab._MODULE_OF[name])
        resolved[name] = getattr(entropiclab, name) is getattr(module, name)
    print(json.dumps({"loaded": loaded, "resolved": resolved,
                      "listed": sorted(set(entropiclab.__all__) - set(dir(entropiclab)))}))
""")


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    work = tmp_path_factory.mktemp("setup")
    result = subprocess.run([sys.executable, "-c", CHILD, str(PERFBENCH), str(work)],
                            capture_output=True, text=True, env=cli_env(), check=True)
    assert sorted(path.name for path in work.glob("*.json")) == [
        "evolve-s.json", "fluct.json", "gravity.json", "lattice.json"]
    return json.loads(result.stdout)


def test_a_command_starts_on_numpy_and_the_package_alone(report):
    loaded = report["loaded"]
    assert "jsonschema" not in loaded
    allowed = set(sys.stdlib_module_names) | {"numpy", "entropiclab"} | HARNESS
    outside = [name for name in loaded if name.split(".")[0] not in allowed]
    # the Cython runtime that numpy.random's compiled modules register
    assert [name for name in outside
            if not (name == "cython_runtime" or name.startswith("_cython_"))] == []
    assert sorted(KERNELS & {name.removeprefix("entropiclab.") for name in loaded}) == []


def test_every_public_name_resolves_lazily(report):
    assert report["resolved"] and all(report["resolved"].values())
    assert report["listed"] == []
