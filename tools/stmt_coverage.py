"""Statement coverage of ``src/tidsim`` under a test run, gated on an allowlist.

Run from the repository root; the arguments are passed to pytest::

    PYTHONPATH=src python tools/stmt_coverage.py -q tests

Every statement inside a function body of ``src/tidsim/*.py`` must be reached
by some test, or be listed in ``tools/stmt_coverage_allow.txt``. Docstrings,
``def``/``class`` headers, ``global``/``nonlocal`` declarations (which emit
no line event) and module or class level statements (which run at import) do
not count. The tracer is the stdlib's ``sys.settrace``, limited to frames
whose file lies under the traced directory, so code run in a subprocess is
not seen.

Each allowlist line is ``file | class | stripped statement text | reason``.
The only class is ``c``, an internal invariant no input can break. The check
fails on an unreached statement that is not listed, and on a listed one that
is now reached or gone, so the list can only shrink. Exit status: 1 if the
tests failed, 2 if the coverage check failed, else 0.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "tidsim"
ALLOWLIST = Path(__file__).resolve().parent / "stmt_coverage_allow.txt"
CLASSES = {"c"}


@dataclass(frozen=True)
class Statement:
    file: str
    lineno: int
    text: str
    lines: frozenset[int]


class Tracer:
    """Records the lines run in frames whose file lies under ``root``."""

    def __init__(self, root: Path):
        self.prefix = str(root.resolve()) + "/"
        self.lines: dict[str, set[int]] = {}
        self._previous = None

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._local
        return None

    def __enter__(self) -> Tracer:
        self._previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)


def _children(node: ast.stmt) -> list[ast.stmt]:
    kids = []
    for field in ("body", "orelse", "finalbody"):
        kids.extend(getattr(node, field, ()))
    for handler in getattr(node, "handlers", ()):
        kids.extend(handler.body)
    for case in getattr(node, "cases", ()):
        kids.extend(case.body)
    return kids


def _span(node: ast.AST) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def statements(path: Path, name: str) -> list[Statement]:
    """Every counted statement of the module at ``path``, reported as ``name``."""
    source = path.read_text()
    text = source.splitlines()
    found: list[Statement] = []

    def body(nodes: list[ast.stmt], in_function: bool) -> None:
        for i, node in enumerate(nodes):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body(node.body[1:] if _is_docstring(node.body[0]) else node.body, True)
            elif isinstance(node, ast.ClassDef):
                body(node.body, False)
            elif in_function:
                if i == 0 and _is_docstring(node) or isinstance(node, (ast.Global, ast.Nonlocal)):
                    continue
                kids = _children(node)
                own = _span(node).difference(*(_span(kid) for kid in kids))
                found.append(Statement(name, node.lineno, text[node.lineno - 1].strip(), frozenset(own)))
                body(kids, True)
            else:
                body(_children(node), False)

    body(ast.parse(source, str(path)).body, False)
    return found


def unreached(root: Path, lines: dict[str, set[int]]) -> list[Statement]:
    """The counted statements under ``root`` none of whose own lines ran."""
    missed = []
    for path in sorted(root.resolve().glob("*.py")):
        ran = lines.get(str(path), set())
        missed.extend(s for s in statements(path, path.name) if not s.lines & ran)
    return missed


def load_allowlist(path: Path) -> dict[tuple[str, str], str]:
    """``(file, stripped text) -> reason`` for each entry of the allowlist."""
    allowed = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(" | ", 2)
        text, _, reason = parts[-1].rpartition(" | ")
        if len(parts) != 3 or parts[1] not in CLASSES or not text or not reason.strip():
            raise ValueError(f"{path}:{number}: want 'file | c | statement | reason', got {line!r}")
        allowed[(parts[0], text)] = reason
    return allowed


def check(missed: list[Statement], allowed: dict[tuple[str, str], str]) -> list[str]:
    """One message per unlisted unreached statement and per stale entry."""
    errors = [f"{s.file}:{s.lineno}: unreached: {s.text}" for s in missed if (s.file, s.text) not in allowed]
    still = {(s.file, s.text) for s in missed}
    errors += [f"{file}: listed but reached or gone: {text}" for file, text in allowed if (file, text) not in still]
    return errors


def main(argv: list[str]) -> int:
    with Tracer(SOURCE) as tracer:
        status = pytest.main(argv)
    missed = unreached(SOURCE, tracer.lines)
    errors = check(missed, load_allowlist(ALLOWLIST))
    counted = sum(len(statements(p, p.name)) for p in SOURCE.glob("*.py"))
    print(f"stmt_coverage: {counted - len(missed)} of {counted} statements reached, {len(missed)} unreached")
    for error in errors:
        print(error)
    if status != 0:
        return 1
    return 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
