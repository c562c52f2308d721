"""Every public module-level function of the package has a caller in the
package itself, and so does every public method and property of its
classes. A function that only tests call belongs in the tests.

References are resolved through imports, so `from .operators import green`
followed by `green(...)`, or `from . import linalg` followed by
`linalg.cholesky(...)`, counts as a caller of that function. A class member
counts as called when the package reads its name as an attribute anywhere
(`x.name`), whatever `x` is. `__init__.py` re-exports names and does not
count.

The package namespace exports the library API and nothing else: the tests
import everything else from its module.
"""

import ast
import inspect
from pathlib import Path

import dgff

SRC = Path(dgff.__file__).resolve().parent

# Functions kept without a caller in the package, with the reason.
EXCEPTIONS = {
    # an example-graph builder, called by the benchmark's weighted workloads
    "fixtures.weighted",
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _public_functions(trees) -> set[str]:
    return {f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _public_members(trees) -> set[str]:
    """Public methods and properties of the package's module-level classes."""
    return {f"{mod}.{cls.name}.{node.name}" for mod, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _attributes_read(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _referenced(mod: str, tree: ast.Module) -> set[str]:
    """Qualified names of package functions that `tree` refers to, outside
    their own definitions."""
    local = {}    # name bound by `from .x import y as name` -> "x.y"
    modules = {}  # name bound by `from . import x` -> "x"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module:
                    local[bound] = f"{node.module}.{alias.name}"
                else:
                    modules[bound] = alias.name
    own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}

    found = set()
    for stmt in tree.body:
        inside = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in local:
                    found.add(local[node.id])
                elif node.id in own and node.id != inside:
                    found.add(f"{mod}.{node.id}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


def _unused() -> tuple[set[str], set[str]]:
    """The package's uncalled public functions and unread public members."""
    trees = _modules()
    called = set().union(*(_referenced(mod, tree) for mod, tree in trees.items()))
    read = set().union(*(_attributes_read(tree) for tree in trees.values()))
    return (_public_functions(trees) - called,
            {member for member in _public_members(trees) if member.rsplit(".", 1)[1] not in read})


def test_every_public_function_has_a_caller_in_the_package():
    uncalled, _ = _unused()
    assert sorted(uncalled - EXCEPTIONS) == []


def test_every_public_member_is_read_in_the_package():
    _, unread = _unused()
    assert sorted(unread - EXCEPTIONS) == []


def test_no_stale_exception():
    uncalled, unread = _unused()
    assert sorted(EXCEPTIONS - uncalled - unread) == []


LIBRARY_API = {
    "ConvergenceError", "DGFFError", "FoliationError", "GraphError",
    "NotPositiveDefiniteError", "NotPositiveSemidefiniteError", "NotSymmetricError",
    "SupportViolationError",
    "Graph", "from_edges", "load_graph", "parse_graph",
    "Foliation", "GrowthCluster", "bfs_foliate", "cluster", "load_foliation",
    "parse_foliation", "validate_foliation",
    "OperatorStack", "run_ladder",
    "GaussianStream", "NoiseGram", "noise_gram", "wnf_block", "dgff_block",
}


def test_namespace_exports_only_the_library_api():
    exported = {name for name in dgff.__all__ if not inspect.ismodule(getattr(dgff, name))}
    assert exported == LIBRARY_API
