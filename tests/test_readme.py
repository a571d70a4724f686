"""The README's examples run as written: the library example and the minimal
configuration of the command line.  Its claims table is the package's."""
import json
import re
from pathlib import Path

from entropiclab.cli import main
from entropiclab.verdicts import CLAIMS

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


def claim_rows() -> list:
    """The lines of the README's claims table, made from ``verdicts.CLAIMS``."""
    def cell(text):
        return text.replace("|", "\\|")

    def number(value):
        return f"{value:g}".replace("e-0", "e-")

    rows = ["| claim | sense | bound | details bounded | criterion | command verdicts |",
            "|---|:-:|--:|---|---|---|"]
    for claim in CLAIMS:
        bound = number(claim.bound)
        if claim.scale:
            bound += f"·{cell(claim.scale)} + {number(claim.floor)}"
        cells = [cell(claim.statement), f"`{claim.sense}`", bound,
                 ", ".join(f"`{key}` `{sense}` {number(value)}" for key, sense, value in claim.also),
                 f"`{claim.criterion}`" if claim.criterion else "",
                 ", ".join(f"`{name}`" for name in claim.commands)]
        rows.append("| " + " | ".join(cells) + " |")
    return rows


def test_claims_table_is_the_packages():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| claim |"):].split("\n\n")[0]
    assert table.splitlines() == claim_rows()
