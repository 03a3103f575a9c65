"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    report = ns["report"]
    assert report.converged
    bound = ns["coloring_constant"](ns["problem"].A, ns["maps"]) * 10.0
    assert report.kappa_estimate <= bound
    assert capsys.readouterr().out.strip()
