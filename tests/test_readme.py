"""README's library example runs as written, so it cannot go stale."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)  # the example reads data/ by relative path
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert not isinstance(namespace["row"], namespace["fb"].RowError)
    theta, *_ = capsys.readouterr().out.split()
    assert 0.0 < float(theta) <= 1.0
