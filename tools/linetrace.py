"""Statement trace of `src/banakh/` under pytest, with no coverage package.

Run tier-1 under it from the repository root:

    PYTHONPATH=src:tools python -m pytest -q -p linetrace

The tracer makes tier-1 about three times slower, so CI runs it as a job
of its own, outside tier-1. A code object is traced line by line only
until every statement with a line in it has run; about half of the
remaining cost is `sys.settrace` calling the tracer at every Python call.
When pytest finishes it prints every statement
inside a function body in `src/banakh/` that no test ran in this process.
A statement right below a comment block that holds `# untraced: <reason>`
is listed as kept, with its reason; any other is a statement with neither
a test nor a reason, and one such statement makes the run exit with
status 1, even when every test passed. Subprocess tests are not traced.
"""
import ast
import functools
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "banakh"
MARK = "untraced:"
_PREFIX = str(SRC) + "/"
_hits: dict = {}
# id(code) -> (code, its local tracer, its settled test), or (code, None,
# None) once settled; holding the code keeps its id from being reused
_codes: dict = {}


def _tracer(code):
    """The local tracer of a code object in SRC, and the test of whether
    it may stop: whether every statement with a header line in the code
    has a hit header line.  From then on a line event of the code can only
    hit such a statement again, and the report reads one hit per
    statement, so the code is traced no more. The test runs again only
    once the file has a new hit line."""
    hit = _hits.setdefault(code.co_filename, set())
    on_line = _statements(code.co_filename)
    needs = {header for _, _, line in code.co_lines()
             for header in on_line.get(line, ())}
    checked = [-1]      # len(hit) at the last test

    def settled():
        if len(hit) == checked[0]:
            return False
        checked[0] = len(hit)
        if any(header.isdisjoint(hit) for header in needs):
            return False
        _codes[id(code)] = (code, None, None)
        return True

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
            if len(hit) != checked[0] and settled():
                return None
        return local

    return local, settled


def _call(frame, event, arg):
    code = frame.f_code
    entry = _codes.get(id(code))
    if entry is None:
        if not code.co_filename.startswith(_PREFIX):
            return None
        entry = _codes[id(code)] = (code, *_tracer(code))
    _, local, settled = entry
    if local is None or settled():
        return None
    return local


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


def _headers(source: str, path: str) -> list:
    """(line, header) of each function-body statement in ``source``, by
    line: its header lines that carry bytecode.  A statement with none (a
    docstring, or one that compiles to nothing) is left out."""
    executable = _code_lines(compile(source, path, "exec"))
    found = []
    for stmt in sorted(set(_body_statements(ast.parse(source))),
                       key=lambda s: s.lineno):
        header = frozenset(_header(stmt)) & executable
        if header:
            found.append((stmt.lineno, header))
    return found


@functools.cache
def _statements(path: str) -> dict:
    """Line -> the headers of the statements in ``path`` that hold it."""
    on_line: dict = {}
    for _, header in _headers(Path(path).read_text(), path):
        for line in header:
            on_line.setdefault(line, []).append(header)
    return on_line


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
    headers = _headers(source, str(path))
    missed = [(line, _reason(lines, line)) for line, header in headers
              if header.isdisjoint(hit)]
    return len(headers), missed


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
