"""One owner of the operator cache: no package module but `dgff.hadamard`
reads or writes an `OperatorStack`'s `_cache`, and there only
`OperatorStack.walk` drops an entry. The rule for what a finished level
frees lives in one place, whichever command walks the levels."""

import ast
from pathlib import Path

import dgff

SRC = Path(dgff.__file__).resolve().parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_cache(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_cache"


def _drops(fn: ast.AST) -> bool:
    """Whether `fn` pops, clears or deletes an entry of a `_cache`."""
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("pop", "popitem", "clear") and _is_cache(node.func.value)):
            return True
        if isinstance(node, ast.Delete) and any(
                isinstance(t, ast.Subscript) and _is_cache(t.value) for t in node.targets):
            return True
    return False


def test_only_hadamard_touches_the_cache():
    touching = sorted(path.name for path in SRC.glob("*.py")
                      if any(_is_cache(node) for node in ast.walk(_tree(path))))
    assert touching == ["hadamard.py"]


def test_only_walk_drops_a_cached_level():
    tree = _tree(SRC / "hadamard.py")
    (stack,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "OperatorStack"]
    methods = [fn for fn in stack.body if isinstance(fn, ast.FunctionDef)]
    assert [fn.name for fn in methods if _drops(fn)] == ["walk"]
    outside = [node for node in tree.body if node is not stack]
    assert not any(_drops(node) for node in outside)


def test_guard_sees_a_drop():
    assert _drops(ast.parse("self._cache.pop(key, None)"))
    assert _drops(ast.parse("del stack._cache[key]"))
    assert not _drops(ast.parse("self._cache[key] = build()"))
