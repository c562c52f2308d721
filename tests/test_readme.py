"""Every code reference in README.md resolves: each `from dgff.x import y`
and each backticked `dgff.x`, `dgff.x.y` or `dgff.x.y.z` names a module,
or an attribute of one, that exists."""

import pkgutil
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
IMPORT = re.compile(r"from (dgff(?:\.\w+)*) import (\w+(?:, *\w+)*)")
DOTTED = re.compile(r"`(dgff(?:\.\w+){1,3})`")


def _references(text: str) -> set[str]:
    imported = {f"{mod}.{name.strip()}" for mod, names in IMPORT.findall(text)
                for name in names.split(",")}
    return imported | set(DOTTED.findall(text))


def _resolves(dotted: str) -> bool:
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_guard_reads_both_forms():
    refs = _references("`dgff.linalg` and `dgff.x.y.z.w`; from dgff.hadamard import a, b")
    assert refs == {"dgff.linalg", "dgff.hadamard.a", "dgff.hadamard.b"}
    assert _resolves("dgff.hadamard.OperatorStack.kernel")
    assert not _resolves("dgff.hadamard.no_such_name")
    assert not _resolves("dgff.no_such_module")


def test_readme_code_references_resolve():
    refs = _references(README.read_text(encoding="utf-8"))
    assert len(refs) >= 10  # the module table and the import example
    assert sorted(ref for ref in refs if not _resolves(ref)) == []
