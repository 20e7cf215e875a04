"""The README's examples match the library and the CLI in src/.

The Library section's ```python blocks are executed in order in one
namespace, the way a reader pastes them, so a public name that is removed
or renamed fails here instead of in a reader's session. Every `llab`
command in the ```sh blocks is parsed by the CLI's parser, so a deleted
option or subcommand fails here too, and every one but the probe commands
(the quick start's chain) is run in order, each reading what the ones
before it wrote.
"""

import re
import shlex
from pathlib import Path

from llab.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for i, src in enumerate(blocks):
        exec(compile(src, f"README.md python block {i + 1}", "exec"), namespace)
    assert len(namespace["models"]) == namespace["core"].shape[0]
    assert capsys.readouterr().out.count("\n") == 2


def llab_commands() -> list[list[str]]:
    """argv of every `llab` line in the ```sh blocks, continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    argvs = [shlex.split(line, comments=True) for line in text.splitlines()]
    return [argv[1:] for argv in argvs if argv[:1] == ["llab"]]


def test_readme_llab_commands_parse():
    commands = llab_commands()
    assert len(commands) == 13
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a usage error raises SystemExit and fails


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    # the probe commands need a reflector on another host; the chain is the rest
    chain = [argv for argv in llab_commands() if not argv[0].startswith("probe-")]
    assert len(chain) == 11
    monkeypatch.chdir(tmp_path)
    for argv in chain:
        assert main(argv) == 0, argv
