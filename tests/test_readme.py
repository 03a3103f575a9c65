"""The README's library quickstart runs as written, and its command lines
parse into valid configurations."""

import re
import shlex
from pathlib import Path

from geneo.cli import build_parser, config_from_args

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


def test_command_lines_parse():
    # every `geneo ...` line of the sh blocks, continuation lines joined
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("geneo ")]
    assert commands
    for argv in commands:
        config_from_args(build_parser().parse_args(argv)).validate()
