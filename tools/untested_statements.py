"""List the statements under src/ that the test suite never runs.

Runs pytest in this process under a ``sys.settrace`` line tracer that
records only frames of code under ``src/``, then reports every statement no
test ran, as ``path:line: text``.  A statement counts as run when the tracer
saw any of its own lines, or, for a compound statement, when any statement
in its body ran.  Statements that compile to no code (docstrings, ``pass``
without a line of its own) are not counted.

The exit code is 1 when pytest fails, when an unrun statement is not in
``ALLOWED``, or when an ``ALLOWED`` entry matches no unrun statement, and 0
otherwise.  Arguments are passed on to pytest.  Run from the repository
root::

    PYTHONPATH=src python tools/untested_statements.py
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# statement text -> why no test runs it
ALLOWED = {
    "sys.exit(main())":
        "runs only when cli.py is executed as a script; tests call main()",
}


def _code_lines(code) -> set[int]:
    """Every line that some instruction of ``code`` or its nested code
    objects is attributed to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path):
    """The file's source, and ``(statement, own lines, children)`` for each
    of its statements that has code.  A statement's own lines are its
    header for a compound statement and all its lines otherwise."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    out = []

    def visit(body) -> list:
        kept = []
        for node in body:
            blocks = [getattr(node, f, None) or [] for f in
                      ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            children = [s for b in blocks for s in b if isinstance(s, ast.stmt)]
            end = min(s.lineno for s in children) if children \
                else node.end_lineno + 1
            entry = (node, set(range(node.lineno, end)) & executable,
                     visit(children))
            if entry[1] or entry[2]:
                out.append(entry)
                kept.append(entry)
        return kept

    visit(ast.parse(source).body)
    return source, out


def _trace(run) -> tuple[int, dict[str, set[int]]]:
    """``run()``'s result and the lines it ran, per file under src/."""
    seen: dict[str, set[int]] = {}
    under_src: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in under_src:
            under_src[name] = Path(name).resolve().is_relative_to(SRC)
        if not under_src[name]:
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, seen


def unrun_statements(seen: dict[str, set[int]]):
    """``(path, line, text)`` of every statement under src/ that did not
    run, in file and line order."""
    for path in sorted(SRC.rglob("*.py")):
        ran = set().union(*(lines for name, lines in seen.items()
                            if Path(name).resolve() == path))
        source, entries = _statements(path)

        def did_run(entry) -> bool:
            return bool(entry[1] & ran) or any(map(did_run, entry[2]))

        for entry in sorted(entries, key=lambda e: e[0].lineno):
            if not did_run(entry):
                node = entry[0]
                text = " ".join(ast.get_source_segment(source, node).split())
                yield path.relative_to(ROOT), node.lineno, text


def main(argv: list[str]) -> int:
    status, seen = _trace(lambda: pytest.main(["-q", *argv]))
    if status != 0:
        print(f"pytest failed with exit status {status}", file=sys.stderr)
        return 1
    unrun = list(unrun_statements(seen))
    stray = [(p, n, t) for p, n, t in unrun if t not in ALLOWED]
    stale = set(ALLOWED) - {t for _, _, t in unrun}
    print(f"{len(unrun)} statements under src/ never ran, "
          f"{len(unrun) - len(stray)} of them allowed")
    for path, line, text in stray:
        print(f"{path}:{line}: {text[:100]}")
    for text in sorted(stale):
        print(f"allowed statement ran or is gone: {text}")
    return 1 if stray or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
