#!/usr/bin/env python3
"""List each statement of ``src/svb`` that no tier-1 test executes.

    python3 scripts/unreached.py [pytest arguments]

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors``,
or the given arguments) in this process under a ``sys.settrace`` line
tracer that records the lines of ``src/svb`` only, then prints one
``module.py:line  statement`` per statement whose lines never ran, and
their count.  It needs the standard library and pytest alone.

A statement counts as run when any line of its own (from its first line
to the line before its first nested statement, decorators included)
ran.  Docstrings and statements that compile to no code are left out.
Code that only a subprocess of a test runs (the CLI smoke runs, the
benchmark harness) is listed too, since the tracer sees this process
alone.  Tracing slows the suite several times over, so this is a tool
for finding dead or untested branches, not a tier-1 step.
"""

import ast
import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE = os.path.join(ROOT, "src", "svb")


def _code_lines(code) -> set[int]:
    """The lines that some bytecode of ``code`` or of a code object
    nested in it belongs to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: str):
    """``(own lines, first line)`` for each statement of the module at
    ``path`` that compiles to code, docstrings left out."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    code = _code_lines(compile(source, path, "exec"))
    for parent in ast.walk(tree):
        for node in _children(parent):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            nested = [child.lineno for child in _children(node)]
            last = min(nested) - 1 if nested else node.end_lineno
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", ())])
            own = set(range(first, max(last, node.lineno) + 1)) & code
            if own:
                yield own, node.lineno


def _children(node) -> list:
    """The statements, handlers and match cases nested in ``node``."""
    return [child for field in ("body", "orelse", "finalbody", "handlers",
                                "cases")
            if isinstance(block := getattr(node, field, None), list)
            for child in block]


def trace(argv):
    """Run pytest on ``argv`` under the line tracer; the lines run, per
    file of the package."""
    ran = defaultdict(set)
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran, code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"),
                      os.environ.get("PYTHONPATH")]))
    ran, code = trace(argv or ["-q", "--continue-on-collection-errors",
                               "-p", "no:cacheprovider"])
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for own, line in sorted(statements(path), key=lambda s: s[1]):
            if not own & ran[path]:
                missed += 1
                print(f"{name}:{line}  {text[line - 1].strip()}")
    print(f"{missed} statements of src/svb not executed by the tests "
          f"(pytest exit code {code})")
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main())
