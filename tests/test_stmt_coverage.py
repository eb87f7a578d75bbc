"""tools/stmt_coverage.py on a toy module: what it counts, what it reports
unreached, and how its allowlist may only shrink."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stmt_coverage.py"

TOY = '''"""A toy module."""

LIMIT = 100


def add(a, b):
    """Adds."""
    if a < 0:
        raise ValueError("negative")
    total = (
        a + b
    )
    if total > LIMIT:
        return None
    return total


class Box:
    size = 3

    def grow(self):
        global LIMIT
        return self.size + 1
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("stmt_coverage", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture
def toy(tmp_path):
    root = tmp_path.resolve()
    (root / "toy.py").write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy", root / "toy.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return root, module


def test_counts_statements_in_function_bodies_only(tool, toy):
    root, _ = toy
    texts = [s.text for s in tool.statements(root / "toy.py", "toy.py")]
    assert texts == [
        "if a < 0:",
        'raise ValueError("negative")',
        "total = (",
        "if total > LIMIT:",
        "return None",
        "return total",
        "return self.size + 1",
    ]


def test_one_dead_statement_reported_and_an_allowlisted_one_not(tool, toy, tmp_path):
    root, module = toy
    with tool.Tracer(root) as tracer:
        assert module.add(1, 2) == 3
        assert module.Box().grow() == 4
    missed = tool.unreached(root, tracer.lines)
    assert [(s.file, s.lineno, s.text) for s in missed] == [
        ("toy.py", 9, 'raise ValueError("negative")'),
        ("toy.py", 14, "return None"),
    ]
    allowlist = tmp_path / "allow.txt"
    allowlist.write_text('# comment\n\ntoy.py | c | raise ValueError("negative") | callers pass a >= 0\n')
    assert tool.check(missed, tool.load_allowlist(allowlist)) == ["toy.py:14: unreached: return None"]


def test_listed_statement_now_reached_or_gone_fails(tool, toy):
    root, module = toy
    with tool.Tracer(root) as tracer:
        assert module.add(200, 0) is None
    missed = tool.unreached(root, tracer.lines)
    allowed = {("toy.py", "return None"): "reached now", ("toy.py", "del gone"): "no such statement"}
    assert tool.check(missed, allowed) == [
        'toy.py:9: unreached: raise ValueError("negative")',
        "toy.py:15: unreached: return total",
        "toy.py:23: unreached: return self.size + 1",
        "toy.py: listed but reached or gone: return None",
        "toy.py: listed but reached or gone: del gone",
    ]


def test_tracer_restores_the_previous_trace_function(tool, toy):
    root, _ = toy
    before = sys.gettrace()
    with tool.Tracer(root):
        assert sys.gettrace() is not before
    assert sys.gettrace() is before


@pytest.mark.parametrize(
    "line",
    [
        "toy.py | b | return None | a class other than c",
        "toy.py | c | return None | ",
        "toy.py | c | return None",
        "toy.py | c",
    ],
)
def test_malformed_allowlist_entry_rejected(tool, tmp_path, line):
    allowlist = tmp_path / "allow.txt"
    allowlist.write_text(line + "\n")
    with pytest.raises(ValueError, match=re.escape("allow.txt:1: want 'file | c | statement | reason'")):
        tool.load_allowlist(allowlist)


def test_committed_allowlist_parses_with_a_reason_per_entry(tool):
    allowed = tool.load_allowlist(tool.ALLOWLIST)
    assert allowed and all(reason.strip() for reason in allowed.values())
