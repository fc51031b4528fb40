"""Statements of src/dixlab that the tier-1 suite never runs.

Runs the suite in this process under a sys.settrace filter that traces
lines only in frames whose code lives in src/dixlab, then prints
``file:line`` for each statement inside a function (methods and nested
functions included) that no line event reached, and a count per file.
Docstrings, ``global`` and ``nonlocal`` are not statements that run;
a compound statement (if, for, try, ...) is listed through the
simple statements in its blocks, and a statement counts as run when a
line event fell on any of its lines.

Subprocess runs (``python -m dixlab`` from tests/test_cli.py) are not
traced, so code that only they reach is listed too.  Exits 1 when it
lists a statement, and otherwise with pytest's status.

Usage, from the repository root (extra arguments go to pytest):

    python tests/linecov.py [pytest args]

Tracing makes the suite about a third slower.  Not collected by pytest:
its name does not start with test_.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "dixlab")


def _leaf_statements(tree):
    """(first, last) lines of each simple statement inside a function;
    a nested def is its own function, not a statement of its parent."""
    spans = set()

    def visit(stmts):
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Global, ast.Nonlocal)):
                continue
            blocks = [getattr(stmt, f, []) for f in
                      ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(stmt, "handlers", [])]
            blocks += [c.body for c in getattr(stmt, "cases", [])]
            if any(blocks):
                for block in blocks:
                    visit(block)
            else:
                spans.add((stmt.lineno, stmt.end_lineno))

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False) is not None
            visit(node.body[docstring:])
    return spans


def main(argv):
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(SRC):
            return local
        return None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"] + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            want = _leaf_statements(ast.parse(fh.read(), path))
        # a statement ran if a line event fell anywhere in its lines
        missed = sorted(a for a, b in want if not any(
            (path, n) in seen for n in range(a, b + 1)))
        for n in missed:
            print("src/dixlab/%s:%d" % (name, n))
        print("# src/dixlab/%s: %d of %d statements never ran"
              % (name, len(missed), len(want)))
        total += len(missed)
    print("# %d statements never ran (pytest exit %d)" % (total, code))
    return 1 if total else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
