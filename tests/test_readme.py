"""README's library example and command lines run as written, so they
cannot go stale."""

import re
import shlex
from pathlib import Path

from facetbench import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_readme_python_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)  # the example reads data/ by relative path
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert not isinstance(namespace["row"], namespace["fb"].RowError)
    assert namespace["table"].startswith("dmu,slack_")
    theta, *_ = capsys.readouterr().out.split()
    assert 0.0 < float(theta) <= 1.0


def readme_commands() -> list[list[str]]:
    """Every facet-bench line of the "Command line" block, continuations
    joined, as argv lists without the program name."""
    section = README.split("## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("facet-bench ")]


def test_readme_command_lines_run(monkeypatch, capsys, tmp_path):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "validate", "extremes", "facets", "partition", "report", "scenario", "coverage",
    ]
    monkeypatch.chdir(ROOT)  # the commands read data/ by relative path
    for argv in commands:
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "results.csv").read_text().startswith("dmu,slack_")
