"""The README's examples run as written: the library example and the minimal
configuration of the command line."""
import json
import re
from pathlib import Path

from entropiclab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced(language: str, after: str) -> str:
    """The first fenced ``language`` block of the README after the text ``after``."""
    text = README.read_text(encoding="utf-8")
    found = re.search(rf"```{language}\n(.*?)```", text[text.index(after):], re.S)
    return found.group(1)


def test_library_example_runs(capsys):
    exec(compile(fenced("python", "## Library use"), str(README), "exec"), {})
    # the example prints the final norm of a dilating run
    assert float(capsys.readouterr().out) > 1.0


def test_minimal_configuration_runs(tmp_path):
    text = fenced("json", "A minimal configuration:")
    config = tmp_path / "minimal.json"
    config.write_text(text, encoding="utf-8")
    argv = [json.loads(text)["scenario"], "--config", str(config),
            "--out", str(tmp_path / "out.csv"), "--record", str(tmp_path / "record.json")]
    assert main(argv) == 0
