"""Every public module-level function of the package has a caller in the
package itself, and so does every public method and property of its
classes. A function that only tests call belongs in the tests.

References are resolved through imports, so `from .operators import green`
followed by `green(...)`, or `from . import linalg` followed by
`linalg.cholesky(...)`, counts as a caller of that function. A class member
counts as called when the package reads its name as an attribute anywhere
(`x.name`), whatever `x` is. `__init__.py` re-exports names and does not
count.

Every defaulted parameter of a public function or method is passed by some
call site in the package: a default that every caller keeps is a knob with
one value in use, and belongs in the body. A call through an attribute of
anything but a package module (`x.name(...)`) counts for every public method
of that name.

The package namespace exports the library API and nothing else: the tests
import everything else from its module.

Every exception class that `dgff.errors` defines is raised somewhere in the
package, by a `raise` or passed to a call as the error type to raise: a
class with no raiser is an error code no input can produce.
"""

import ast
import inspect
from pathlib import Path

import dgff
from dgff import errors

SRC = Path(dgff.__file__).resolve().parent

# Functions kept without a caller in the package, with the reason.
EXCEPTIONS = {
    # an example-graph builder, called by the benchmark's weighted workloads
    "fixtures.weighted",
}


# Defaulted parameters that no call site in the package passes, with the reason.
KNOBS = {
    "cli.main.argv": "a test seam: the tests pass the arguments, the console script "
                     "reads sys.argv",
    "verify.run_ladder.stack": "a test seam: the tests pass a stack they have built "
                               "or tampered with",
    "fixtures.path_graph.conductances": "an example graph's shape: the tests choose it",
    "fixtures.path_graph.exterior": "an example graph's shape: the tests choose it",
    "fixtures.grid_graph.conductance": "an example graph's conductance: the tests choose it",
    "fixtures.binary_tree.conductance": "an example graph's conductance: the tests choose it",
    "fixtures.weighted.seed": "an example graph's conductances: the tests and the "
                              "benchmark choose them",
    "fixtures.weighted.lo": "an example graph's conductances: the tests and the "
                            "benchmark choose them",
    "fixtures.weighted.hi": "an example graph's conductances: the tests and the "
                            "benchmark choose them",
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


def _imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """Names bound by `from .x import y as name` -> "x.y", and by
    `from . import x` -> "x"."""
    local, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module:
                    local[bound] = f"{node.module}.{alias.name}"
                else:
                    modules[bound] = alias.name
    return local, modules


def _referenced(mod: str, tree: ast.Module) -> set[str]:
    """Qualified names of package functions that `tree` refers to, outside
    their own definitions."""
    local, modules = _imports(tree)
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
    "NotPositiveDefiniteError", "NotSymmetricError",
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


def _raised(trees) -> set[str]:
    """Names the package raises, `raise X(...)` or `raise X`, or passes
    to a call by name, `f(a, X)`, where X may be an error type to raise."""
    found = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    found.add(exc.id)
            elif isinstance(node, ast.Call):
                found |= {arg.id for arg in node.args if isinstance(arg, ast.Name)}
    return found


def test_every_error_class_has_a_raiser_in_the_package():
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    assert {"DGFFError", "NotPositiveDefiniteError"} <= classes
    assert sorted(classes - _raised(_modules())) == []


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    """Names of fn's parameters that have a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    named = [p.arg for p in positional[len(positional) - len(args.defaults):]]
    return named + [p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _signatures(trees) -> dict[str, tuple[list[str], list[str]]]:
    """Qualified name -> (positional parameters after any self, defaulted
    parameters) of every public function and public method."""
    found = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                members = [(f"{mod}.{node.name}", node, 0)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{mod}.{node.name}.{fn.name}", fn, 1)
                           for fn in node.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for name, fn, skip in members:
                if not fn.name.startswith("_"):
                    positional = fn.args.posonlyargs + fn.args.args
                    found[name] = ([p.arg for p in positional[skip:]], _defaulted(fn))
    return found


def _passed(mod: str, tree: ast.Module, signatures) -> set[str]:
    """`name.parameter` for each parameter that a call in `tree` passes to a
    public function or method, positionally or by keyword."""
    local, modules = _imports(tree)
    passed = set()
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
        func = call.func
        if isinstance(func, ast.Name):
            targets = [local.get(func.id, f"{mod}.{func.id}")]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in modules:
            targets = [f"{modules[func.value.id]}.{func.attr}"]
        elif isinstance(func, ast.Attribute):
            targets = [name for name in signatures if name.count(".") == 2
                       and name.endswith(f".{func.attr}")]
        else:
            continue
        spread = any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords)
        for target in targets:
            positional, defaulted = signatures.get(target, ([], []))
            given = set(positional[:len(call.args)]) | {k.arg for k in call.keywords}
            passed |= {f"{target}.{p}" for p in defaulted if spread or p in given}
    return passed


def _unpassed() -> set[str]:
    """Defaulted parameters of public functions and methods that no call in
    the package passes."""
    trees = _modules()
    signatures = _signatures(trees)
    defaulted = {f"{name}.{p}" for name, (_, params) in signatures.items() for p in params}
    return defaulted - set().union(*(_passed(mod, tree, signatures)
                                     for mod, tree in trees.items()))


def test_every_defaulted_parameter_is_passed_by_the_package():
    assert sorted(_unpassed() - set(KNOBS)) == []


def test_no_stale_knob_exception():
    assert sorted(set(KNOBS) - _unpassed()) == []
