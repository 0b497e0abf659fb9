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
