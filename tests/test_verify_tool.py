"""Smoke tests of tools/verify.py: a digest diffed against itself is empty, a
sweep lists the failing criteria, floats finds a kernel that differs from repr,
moments finds a merge that differs from NumPy's whole-column moments, and
schema finds a schema walker that differs from jsonschema."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verify.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("verify", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_diffed_against_itself_is_empty(tmp_path, capsys):
    tool = load_tool()
    digest = tmp_path / "digest.json"
    assert tool.main(["digest", "3:4", "--out", str(digest)]) == 0
    table = json.loads(digest.read_text())
    assert list(table) == ["3"] and len(table["3"]) == 12
    assert tool.main(["diff", str(digest), str(digest)]) == 0
    assert capsys.readouterr().out == "0 of 1 seeds differ\n"

    table["3"]["onsager-forms"] = "0" * 64
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(table))
    assert tool.main(["diff", str(digest), str(changed)]) == 1
    assert capsys.readouterr().out == "seed 3: onsager-forms\n1 of 1 seeds differ\n"


def test_artifact_digests_diffed_against_themselves_are_empty(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    # the large copies' sizes do not matter here
    monkeypatch.setattr(tool, "BIG_FLUCT", 2_000)
    monkeypatch.setattr(tool, "BIG_GRAVITY_PROBES", 5)
    monkeypatch.setattr(tool, "BIG_GRAVITY_SAMPLES", 100)
    digest = tmp_path / "artifacts.json"
    assert tool.main(["artifacts", "3", "--out", str(digest)]) == 0
    table = json.loads(digest.read_text())
    labels = ["fluct", "evolve-s", "gravity", "fluct-n2000", "gravity-p5"]
    labels += [label for label, _, _ in tool.scenario_configs(3)]
    assert len(labels) == 22
    assert sorted(table["3"]) == sorted(
        f"{label}{suffix}" for label in labels for suffix in (".csv", ".record.json")
    )
    assert tool.main(["diff", str(digest), str(digest)]) == 0
    assert capsys.readouterr().out == "0 of 1 seeds differ\n"

    table["3"]["gravity.record.json"] = "0" * 64
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(table))
    assert tool.main(["diff", str(digest), str(changed)]) == 1
    assert capsys.readouterr().out == "seed 3: gravity.record.json\n1 of 1 seeds differ\n"


def test_sweep_lists_each_failing_criterion(monkeypatch, capsys):
    tool = load_tool()
    assert tool.main(["sweep", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(lines) - 1} failures over 1 seeds"
    assert all(line.startswith("seed 3: ") for line in lines[:-1])

    from entropiclab import suite
    from entropiclab.verdicts import CheckResult

    def run_all(seed):
        return [CheckResult("kept", 1.0, 0.5, True),
                CheckResult("broken", 1.0, 2.0 + seed, False, details={"seed": seed})]

    monkeypatch.setattr(suite, "run_all", run_all)
    assert tool.main(["sweep", "4:6"]) == 0
    assert capsys.readouterr().out == (
        'seed 4: broken measured 6.0 details {"seed": 4}\n'
        'seed 5: broken measured 7.0 details {"seed": 5}\n'
        "2 failures over 2 seeds\n"
    )


def test_floats_compares_the_kernel_with_repr(monkeypatch, capsys):
    tool = load_tool()
    edges = len(tool.edge_floats())
    assert tool.main(["floats", "3000", "--seed", "5"]) == 0
    assert capsys.readouterr().out == f"0 mismatches over {3000 + edges} doubles\n"

    # a kernel that drops the last digit of 0.1 is caught and the double named
    from entropiclab import _shortest

    cells = _shortest.cells

    def broken(values):
        out = cells(values)
        rows = np.flatnonzero(np.asarray(values).ravel() == 0.1)
        out.reshape(-1, out.shape[-1])[rows, 2] = 0
        return out

    monkeypatch.setattr(_shortest, "cells", broken)
    assert tool.main(["floats", "10"]) == 1
    *found, summary = capsys.readouterr().out.splitlines()
    # 0.1 is in the edge set twice, as a power of ten and on its own
    assert found == ["3fb999999999999a: repr 0.1, kernel 0."] * 2
    assert summary == f"2 mismatches over {10 + edges} doubles"


def test_moments_compares_the_merged_moments_with_numpy(monkeypatch, capsys):
    tool = load_tool()
    assert tool.main(["moments", "3:5"]) == 0
    *seeds, summary = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in seeds] == ["seed 3", "seed 4"]
    assert summary.endswith("over 2 seeds, tolerance 1e-12")

    # a merge that is off by one part in 1e9 is caught and the statistic named
    from entropiclab import fluctuations

    std = fluctuations._Moments.std
    with monkeypatch.context() as patch:
        patch.setattr(fluctuations._Moments, "std", lambda self: std(self) * (1 + 1e-9))
        assert tool.main(["moments", "3"]) == 1
    line, _ = capsys.readouterr().out.splitlines()
    assert line.startswith("seed 3: largest relative gap 1.000e-09 (std of ")

    # so is a merged mean off by 1e-9 standard deviations, near zero or not
    streamed_moments = fluctuations._streamed_moments

    def shifted(*args):
        moments = streamed_moments(*args)
        moments.mean = moments.mean + 1e-9 * moments.std()
        return moments

    monkeypatch.setattr(fluctuations, "_streamed_moments", shifted)
    assert tool.main(["moments", "3"]) == 1
    line, _ = capsys.readouterr().out.splitlines()
    assert line.startswith("seed 3: largest relative gap 1.000e-09 (mean of ")


def test_schema_compares_the_walker_with_jsonschema(monkeypatch, capsys):
    pytest.importorskip("jsonschema")
    tool = load_tool()
    assert tool.main(["schema", "2"]) == 0
    assert capsys.readouterr().out.startswith("0 disagreements over ")

    # each keyword the walker checks has a committed case that fails through it
    from entropiclab import config

    cases = json.loads(tool.SCHEMA_CASES.read_text(encoding="utf-8"))
    assert {keyword for case in cases for keyword in case["keywords"]} == (
        set(config._KEYWORDS) - {"$schema", "$id", "title", "$defs"})

    # a walker that counts 5.0 as an integer, and one that words minItems its
    # own way, are each caught and the document named
    min_items = config._KEYWORDS["minItems"]

    def reworded(*args):
        for path, message, reasons in min_items(*args):
            yield path, message.replace("is too short", "has too few items"), reasons

    monkeypatch.setitem(config._TYPES, "integer", lambda value: isinstance(value, (int, float)))
    monkeypatch.setitem(config._KEYWORDS, "minItems", reworded)
    assert tool.main(["schema", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    labels = {line.split(":")[0] for line in lines[:-1]}
    assert {"seed-float", "fluct-n-float", "probe-short"} <= labels
    assert lines[-1].startswith(f"{len(lines) - 1} disagreements over ")
