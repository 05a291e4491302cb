"""The README's worked example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_pipeline_example_runs(capsys):
    section = README.read_text().split("## Reproducing the experiment pipeline by hand")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert float(capsys.readouterr().out) > 0.0   # the printed C_hat
