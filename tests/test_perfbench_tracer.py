"""The traced benchmark binds entropiclab names from outside the package.

``perfbench/tracer.py`` wraps functions by module and attribute name, so a
rename inside ``entropiclab`` breaks ``perfbench/run.py --trace 1`` without
any package test noticing.  These tests load the tracer by path and check
that every name it binds still resolves.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    from entropiclab import cli

    assert callable(cli.main)  # run.py wraps it as the root span
    for module_name, attribute, _ in tracer.TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"


def test_install_then_uninstall_restores_every_name(tracer):
    import numpy as np

    from entropiclab import cli, operators, seeding, suite

    def bound():
        return (cli._write_csv, cli._write_record, seeding.block_generator,
                operators.HermitianOperator.__init__, np.linalg.eigh, suite._CRITERIA)

    before = bound()
    recorder = tracer.Tracer()
    try:
        recorder.install()
        assert all(a is not b for a, b in zip(before, bound()))
    finally:
        recorder.uninstall()
    assert all(a is b for a, b in zip(before, bound()))
