"""List the statements of ``src/llab`` functions that the test suite never runs.

Run from the repository root::

    python tests/unreached.py [pytest arguments]

It runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, tracing only frames of ``src/llab`` files, then
prints every statement inside a function (docstrings aside) whose lines
never ran, as ``file:line source``. Work done in child processes (the CLI
tests' ``python -m llab`` children) is not traced, so code that only a child
runs is listed too. Two tests that the tracer itself breaks are deselected:
the probe's pacing test, which the tracer slows past its deadlines, and the
``delay_ms`` allocation test, whose tracemalloc sees the tracer's own
memory. Pytest does not collect this file, and tier-1 does not run it. The
full suite takes about two minutes under the tracer on a 2-core VM.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "llab"

#: Tests the tracer breaks, and why.
DESELECTED = {
    "tests/test_acceptance.py::test_probe_loopback_fidelity":
        "tracing slows the send loop past its pacing bound",
    "tests/test_core.py::TestTrace::test_delay_ms_allocates_its_output_and_a_block":
        "tracemalloc counts the tracer's own memory",
}


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per ``src/llab`` file, the lines that ran."""
    import pytest

    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

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

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
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
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in unreached(path, ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line} {text}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
