"""numpy is the only runtime dependency of the adreg package, and every
public name of it has a caller."""

import ast
import re
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


def unused_imports(path: Path):
    """(line, name) for every name an import binds in a source file that
    no expression of the file reads. ``from __future__`` imports bind none."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_package_uses_every_name_it_imports():
    sources = sorted(Path(adreg.__file__).parent.glob("*.py"))
    unused = [f"{path.name}:{line} imports {name}"
              for path in sources for line, name in unused_imports(path)]
    assert unused == []


ROOT = Path(__file__).resolve().parents[1]
# Public names that only tests call today; the command-line front end is
# to call them. A listed name that gains a caller leaves the list.
AWAITING_CALLERS = {
    "write_ply", "write_pose_file", "read_lidar_bin", "save_checkpoint",
    "load_checkpoint", "load_config", "save_config", "gmm_log_likelihood",
    "invert", "weighted_svd",
}


def public_definitions(path: Path):
    """(name, first line, last line) of every public module-level function
    and class of a source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.name, node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_name_has_a_caller():
    """A public function or class is named in the package outside its own
    definition, in a benchmark script or in the README; the names still
    waiting for the command-line front end are exactly the listed ones."""
    sources = sorted(Path(adreg.__file__).parent.glob("*.py"))
    outside = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    outside.append((ROOT / "README.md").read_text())
    uncalled = []
    for path in sources:
        lines = path.read_text().splitlines()
        others = [other.read_text() for other in sources if other != path]
        for name, first, last in public_definitions(path):
            rest = "\n".join(lines[:first - 1] + lines[last:] + others + outside)
            if not re.search(rf"\b{name}\b", rest):
                uncalled.append(name)
    assert sorted(uncalled) == sorted(AWAITING_CALLERS)
