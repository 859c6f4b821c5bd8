"""The README's examples run as written: its configuration file is valid and
its Python quick start runs on it."""

import re
from pathlib import Path

from irs_secrecy.scenario import load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(language: str) -> str:
    """The first fenced code block of ``language`` in the README."""
    match = re.search(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert match, f"README has no {language} block"
    return match.group(1)


def test_configuration_example_loads_and_quick_start_runs(tmp_path, monkeypatch):
    (tmp_path / "scenario.json").write_text(_block("json"))
    monkeypatch.chdir(tmp_path)
    load_config("scenario.json")
    namespace = {}
    exec(compile(_block("python"), "README.md", "exec"), namespace)
    assert namespace["scenario"].stats.users() == ["B", "E1"]
