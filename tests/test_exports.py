import ast
import re
from pathlib import Path

import fairgrade

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_has_a_caller_beyond_the_unit_tests():
    """A name in `__all__` is read by the library itself (beyond its own
    def/class and import lines), by README, by the bench or by the
    acceptance suite; a name that only unit tests read is dead weight."""
    read_in_src = set()
    for path in (ROOT / "src" / "fairgrade").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read_in_src.add(node.id)
            elif isinstance(node, ast.Attribute):
                read_in_src.add(node.attr)
    texts = [(ROOT / "README.md").read_text(encoding="utf-8"),
             (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    texts += [path.read_text(encoding="utf-8") for path in (ROOT / "bench").glob("*.py")]
    unused = [name for name in fairgrade.__all__ if name not in read_in_src
              and not any(re.search(rf"\b{name}\b", text) for text in texts)]
    assert unused == []


# Each module may import only modules of an earlier layer; io and simulation
# share one layer and so may not import each other.
LAYERS = {"rng": 0, "graph": 1, "model": 2, "grading": 3, "io": 4, "simulation": 4, "cli": 5}


def _package_imports(tree: ast.AST):
    """The package module each import in `tree` reads, function bodies included;
    a name imported from the package itself is yielded as it is, and an import
    of the package by its own name, which no module needs, as `fairgrade`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            if any(module.split(".")[0] == "fairgrade" for module in modules):
                yield "fairgrade"


def test_modules_import_only_earlier_layers():
    paths = sorted((ROOT / "src" / "fairgrade").glob("*.py"))
    assert {path.stem for path in paths} == {*LAYERS, "__init__"}
    backward = []
    for path in paths:
        if path.stem == "__init__":  # the package facade re-exports every layer
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _package_imports(tree):
            if name == "__version__":  # set before `__init__` imports any module
                continue
            if name not in LAYERS or LAYERS[name] >= LAYERS[path.stem]:
                backward.append(f"{path.stem} imports {name}")
    assert backward == []
