import pathlib
import re

import pytest

from fracvar import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    # the README's library example must only name functions that exist
    text = README.read_text()
    section = text[text.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})


def _cli_section():
    text = README.read_text()
    return text[text.index("## CLI") : text.index("## Library example")]


def _cli_lines():
    blocks = re.findall(r"```sh\n(.*?)```", _cli_section(), re.DOTALL)
    return [line.split() for block in blocks for line in block.splitlines() if line.startswith("fracvar ")]


@pytest.mark.parametrize("line", _cli_lines(), ids=" ".join)
def test_cli_example_runs(line, tmp_path, monkeypatch):
    # each `fracvar ...` line of the CLI section, the INI example included,
    # exits 0 and writes its CSV
    ini = re.search(r"```ini\n(.*?)```", _cli_section(), re.DOTALL).group(1)
    (tmp_path / "experiment.ini").write_text(ini)
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    assert cli.main(line[1:]) == 0
    assert [p.suffix for p in set(tmp_path.iterdir()) - before] == [".csv"]


def test_cli_section_lists_every_example():
    assert len(_cli_lines()) == 7
