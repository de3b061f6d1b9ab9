"""numpy is the only runtime dependency of the adreg package."""

import ast
import sys
from pathlib import Path

import adreg

ALLOWED_THIRD_PARTY = {"numpy", "adreg"}


def imported_roots(path: Path):
    """(line, top-level module) for every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_and_itself():
    sources = sorted(Path(adreg.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    foreign = [f"{path.name}:{line} imports {root}"
               for path in sources for line, root in imported_roots(path)
               if root not in sys.stdlib_module_names and root not in ALLOWED_THIRD_PARTY]
    assert foreign == []
