"""The README's Python examples run against the library in src/.

The Library section's ```python blocks are executed in order in one
namespace, the way a reader pastes them, so a public name that is removed
or renamed fails here instead of in a reader's session.
"""

import re
from pathlib import Path

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
