"""Statement trace of `src/banakh/` under pytest, with no coverage package.

Run tier-1 under it from the repository root:

    PYTHONPATH=src:tools python -m pytest -q -p linetrace

The tracer makes tier-1 about three times slower, so CI runs it as a job
of its own, outside tier-1. When pytest finishes it prints every statement
inside a function body in `src/banakh/` that no test ran in this process.
A statement right below a comment block that holds `# untraced: <reason>`
is listed as kept, with its reason; any other is a statement with neither
a test nor a reason, and one such statement makes the run exit with
status 1, even when every test passed. Subprocess tests are not traced.
"""
import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "banakh"
MARK = "untraced:"
_PREFIX = str(SRC) + "/"
_hits: dict = {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _hits.setdefault(name, set())
    return _local


def pytest_configure(config):
    threading.settrace(_call)
    sys.settrace(_call)


def _code_lines(code) -> set:
    """The lines that carry bytecode in `code` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _header(stmt) -> range:
    """The lines of `stmt` itself, up to its first nested statement."""
    fields = ("body", "orelse", "handlers", "finalbody", "cases")
    nested = [s for field in fields for s in getattr(stmt, field, ())]
    end = min(s.lineno for s in nested) - 1 if nested else stmt.end_lineno
    return range(stmt.lineno, max(end, stmt.lineno) + 1)


def _body_statements(tree):
    """Every statement nested in a function body, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for top in node.body:
                for stmt in ast.walk(top):
                    if isinstance(stmt, ast.stmt):
                        yield stmt


def _reason(lines: list, lineno: int):
    """The text after MARK in the comment block right above line
    ``lineno``, or None."""
    block = []
    i = lineno - 2
    while i >= 0 and lines[i].lstrip().startswith("#"):
        block.insert(0, lines[i].strip().lstrip("#").strip())
        i -= 1
    _, mark, reason = " ".join(block).partition(MARK)
    return reason.strip() if mark else None


def unrun(path: Path, hit: set):
    """The number of function-body statements in ``path``, and (line,
    reason or None) for each one whose lines are not in ``hit``."""
    source = path.read_text()
    lines = source.splitlines()
    executable = _code_lines(compile(source, str(path), "exec"))
    total, missed = 0, []
    for stmt in sorted(set(_body_statements(ast.parse(source))),
                       key=lambda s: s.lineno):
        header = set(_header(stmt)) & executable
        if not header:
            continue  # a docstring, or a statement that compiles to nothing
        total += 1
        if not header & hit:
            missed.append((stmt.lineno, _reason(lines, stmt.lineno)))
    return total, missed


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    write = reporter.write_line if reporter else print
    counts = {"all": 0, "kept": 0, "bare": 0}
    write("")
    for path in sorted(SRC.glob("*.py")):
        total, missed = unrun(path, _hits.get(str(path), set()))
        counts["all"] += total
        for line, reason in missed:
            counts["kept" if reason else "bare"] += 1
            write(f"src/banakh/{path.name}:{line}: "
                  + (f"kept: {reason}" if reason else "no test, no reason"))
    write(f"linetrace: {counts['all']} function-body statements, "
          f"{counts['kept'] + counts['bare']} not run: {counts['kept']} kept "
          f"with a reason, {counts['bare']} with neither a test nor a reason")
    if counts["bare"] and session.exitstatus == 0:
        session.exitstatus = 1
