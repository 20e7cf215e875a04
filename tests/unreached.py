"""List the statements of ``src/llab`` functions that the test suite never runs.

Run from the repository root::

    python tests/unreached.py [pytest arguments]

It runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, tracing only frames of ``src/llab`` files, then
prints every statement inside a function (docstrings aside) whose lines
never ran, as ``file:line source``. The Python children that the tests start
(the CLI tests' ``python -m llab`` children among them) are traced too: the
suite runs with ``PYTHONUSERBASE`` at a temporary directory whose user site
holds a ``usercustomize`` module that installs the same tracer in each child
and writes the lines it saw at exit, which are merged into the list. This
needs the user site enabled (no ``-s`` or ``-I``, uid equal to euid); a
child that ends without running its exit handlers (killed, or
``os._exit``) adds nothing. The tests that the tracer itself breaks are
deselected, each with its reason (``DESELECTED``).

Run with pytest arguments, it lists the statements and exits with pytest's
code. Run with none, over the whole suite, it is a check: a statement that
stays unreached on purpose is named in ``KEPT`` with the reason, and the tool
exits 1 when it lists a statement that ``KEPT`` does not name, or when a
``KEPT`` entry is no longer listed (reached, or gone from the source).
Pytest does not collect this file, and tier-1 does not run it: the full
suite takes about three minutes under the tracer on a 2-core VM.
"""

from __future__ import annotations

import ast
import inspect
import os
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "llab"

#: Tests the tracer breaks, and why.
DESELECTED = {
    "tests/test_acceptance.py::test_probe_loopback_fidelity":
        "tracing slows the send loop past its pacing bound",
    "tests/test_core.py::TestTrace::test_delay_ms_allocates_its_output_and_a_block":
        "tracemalloc counts the tracer's own memory",
}

#: Statements that the full suite leaves unreached on purpose, keyed by file
#: and statement text (not by line, so that an edit elsewhere in the file
#: leaves the entry valid), each with the reason it stays.
KEPT: dict[tuple[str, str], str] = {}


def line_tracer(prefix: str, ran: dict):
    """A trace function for ``sys.settrace`` that adds to ``ran[filename]``
    each line run in a file whose name starts with ``prefix``."""
    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name is None or not name.startswith(prefix):  # None in frames run at shutdown
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    return tracer


#: The rest of a child's ``usercustomize``, after ``line_tracer`` and the
#: ``PREFIX`` and ``OUT`` it is given: trace, and at exit append one line
#: ``filename<TAB>lines`` per traced file to ``OUT/<pid>.lines``.
_CHILD_HOOK = r"""
_ran = {}
_tracer = line_tracer(PREFIX, _ran)
sys.settrace(_tracer)
threading.settrace(_tracer)


@atexit.register
def _write_lines():
    sys.settrace(None)
    with open(os.path.join(OUT, f"{os.getpid()}.lines"), "a") as f:
        for name, lines in _ran.items():
            f.write(name + "\t" + " ".join(map(str, lines)) + "\n")
"""


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per ``src/llab`` file, the lines that ran in
    this process or in a Python child of it."""
    import pytest

    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"
    with tempfile.TemporaryDirectory() as base:
        out = os.path.join(base, "lines")
        site = sysconfig.get_path("purelib", sysconfig.get_preferred_scheme("user"),
                                  vars={"userbase": base})
        os.makedirs(out)
        os.makedirs(site)
        Path(site, "usercustomize.py").write_text(
            f"import atexit, os, sys, threading\nPREFIX, OUT = {prefix!r}, {out!r}\n\n\n"
            + inspect.getsource(line_tracer) + _CHILD_HOOK)
        tracer = line_tracer(prefix, ran)
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            with mock.patch.dict(os.environ, PYTHONUSERBASE=base):
                code = pytest.main(args)
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for path in Path(out).iterdir():
            for row in path.read_text().splitlines():
                name, lines = row.split("\t")
                ran.setdefault(name, set()).update(map(int, lines.split()))
    return int(code), ran


def executable_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def function_statements(tree: ast.Module):
    """Each statement inside a function, docstrings aside, with its own lines:
    its span less the spans of the statements nested in it."""
    def nested(node):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, field, ()):
                if isinstance(child, ast.stmt):
                    yield child
                else:  # an except handler or a match case holds statements
                    yield from child.body

    def walk(stmts, in_function):
        for i, node in enumerate(stmts):
            children = list(nested(node))
            docstring = (i == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if in_function and not docstring:
                own = set(range(node.lineno, node.end_lineno + 1))
                for child in children:
                    own -= set(range(child.lineno, child.end_lineno + 1))
                yield node, own
            yield from walk(children, in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)))

    yield from walk(tree.body, False)


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    source = path.read_text()
    lines = source.splitlines()
    can_run = executable_lines(compile(source, str(path), "exec"))
    out = []
    for node, own in function_statements(ast.parse(source)):
        own &= can_run
        if own and not own & ran:
            out.append((node.lineno, lines[node.lineno - 1].strip()))
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    args = ["-q", "-p", "no:cacheprovider", *argv]
    for test, why in DESELECTED.items():
        print(f"deselected {test}: {why}")
        args += ["--deselect", test]
    code, ran = run_traced(args)
    print(f"\npytest exited {code}; statements inside functions that never ran:")
    listed = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path.relative_to(ROOT))
        for line, text in unreached(path, ran.get(str(path), set())):
            listed.append((name, text))
            print(f"{name}:{line} {text}")
    if argv:
        return code
    new = [key for key in listed if key not in KEPT]
    stale = [key for key in KEPT if key not in listed]
    for name, text in stale:
        print(f"KEPT names a statement that is reached or gone: {name} {text}")
    print(f"{len(new)} listed statements are not in KEPT, and {len(stale)} KEPT entries are stale")
    return code or int(bool(new or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
