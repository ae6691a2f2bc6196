"""The library holds no dead helpers: every public top-level function or
class is named outside its own definition, in another line of the library,
in the benchmark's scripts or in the README.  A package's `__init__.py`
neither defines nor uses: a re-export alone keeps nothing alive."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "scaperture"


def _modules():
    return sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def test_every_public_definition_is_used():
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in _modules()}
    elsewhere = "\n".join(p.read_text(encoding="utf-8")
                          for p in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"])
    unused = []
    for path, text in lines.items():
        for node in ast.parse("\n".join(text)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno - 1, node.end_lineno)
            used = word.search(elsewhere) or any(
                word.search(line) for p, src in lines.items() for i, line in enumerate(src)
                if not (p == path and i in own))
            if not used:
                unused.append(f"{path.relative_to(SRC)}::{node.name}")
    assert unused == []
