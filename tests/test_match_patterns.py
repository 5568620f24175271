"""A `match=` pattern of `pytest.raises` is a regular expression searched in
the message. An unescaped `|` in it splits it into alternatives, and an empty
alternative matches every message, so such a test checks nothing: pass the
message through `re.escape` instead."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEST_DIRS = (ROOT / "tests", ROOT / "bench" / "tests")


def _unescaped_bar(pattern: str) -> bool:
    escaped = False
    for ch in pattern:
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == "|":
            return True
    return False


def _vacuous_matches(path):
    """(line, pattern) of every string literal passed as `match=` in a file
    that holds an unescaped `|`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                value = kw.value
                if (kw.arg == "match" and isinstance(value, ast.Constant)
                        and isinstance(value.value, str) and _unescaped_bar(value.value)):
                    yield value.lineno, value.value


def test_unescaped_bar_is_told_from_an_escaped_one():
    assert _unescaped_bar("one '||'") and _unescaped_bar(r"a\\|b")
    assert not _unescaped_bar(r"one '\|\|'") and not _unescaped_bar("no bar")


def test_no_match_pattern_holds_an_unescaped_bar():
    paths = sorted(p for d in TEST_DIRS for p in d.glob("*.py"))
    assert any(p.name == "test_constraints.py" for p in paths)
    found = [f"{p.relative_to(ROOT)}:{line} {pattern!r}"
             for p in paths for line, pattern in _vacuous_matches(p)]
    assert found == []
