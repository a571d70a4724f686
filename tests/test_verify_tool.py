"""Smoke tests of tools/verify.py: a digest diffed against itself is empty."""
import importlib.util
import json
from pathlib import Path

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
    assert sorted(table["3"]) == sorted(
        f"{label}{suffix}"
        for label in ("fluct", "evolve-s", "gravity", "fluct-n2000", "gravity-p5")
        for suffix in (".csv", ".record.json")
    )
    assert tool.main(["diff", str(digest), str(digest)]) == 0
    assert capsys.readouterr().out == "0 of 1 seeds differ\n"

    table["3"]["gravity.record.json"] = "0" * 64
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(table))
    assert tool.main(["diff", str(digest), str(changed)]) == 1
    assert capsys.readouterr().out == "seed 3: gravity.record.json\n1 of 1 seeds differ\n"
