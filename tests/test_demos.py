"""The demos and the README's Python quickstart name only what the
package provides: every `fd.<name>` (after `import flowdistill as fd`)
and every `from flowdistill[.<module>] import <name>` resolves; and each
demo imports flowdistill before numpy. Checked on the parsed source,
without running the scripts."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(ROOT.glob("demos/*.py"))
SOURCES = DEMOS + [ROOT / "README.md"]


def _python_of(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return "\n".join(re.findall(r"^```python\n(.*?)^```", text, re.M | re.S))
    return text


def _package_names(tree: ast.AST):
    """(module, name, line) for every package name the source uses."""
    aliases = {a.asname or a.name: a.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name.startswith("flowdistill")}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flowdistill"):
            for a in node.names:
                yield node.module, a.name, node.lineno
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            yield aliases[node.value.id], node.attr, node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_names_resolve_in_the_package(path):
    used = list(_package_names(ast.parse(_python_of(path))))
    assert used, f"{path.name} uses nothing from flowdistill"
    missing = [f"line {line}: {module}.{name}" for module, name, line in used
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name}: " + ", ".join(missing)


def _first_import(tree: ast.AST, package: str) -> float:
    return min((node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == package for a in node.names)
                or isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == package), default=float("inf"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_flowdistill_imported_before_numpy(path):
    # the package pins BLAS to one thread only if numpy is not loaded yet
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _first_import(tree, "flowdistill") < _first_import(tree, "numpy"), path.name
