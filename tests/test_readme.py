"""The README's Python examples and command lines run as written, and it names
every guard's limit."""

import ast
import json
import re
import shlex
from pathlib import Path

from csforge import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _guard_limits():
    """The constants named in the limit of each ``guard(need, limit, what)`` call."""
    for path in sorted((ROOT / "src" / "csforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "guard"):
                names = [n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)]
                assert names, f"{path.name}:{node.lineno}: a guard limit without a constant"
                yield from names


def test_readme_names_every_guard_limit():
    text = README.read_text()
    limits = set(_guard_limits())
    assert len(limits) >= 7
    missing = sorted(name for name in limits if not re.search(rf"`(\w+\.)*{name}`", text))
    assert not missing


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # the csforge lines of the command-line section, in order, from a
    # directory that holds the params.json they read
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = [shlex.split(line, comments=True) for line in block.group(1).splitlines() if line]
    assert lines and all(argv[0] == "csforge" for argv in lines)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "params.json").write_text(json.dumps({"m": 3, "H": 4}))
    for argv in lines:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
