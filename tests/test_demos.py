"""The demos import only names that stablesub still provides, and call them
only with keywords those names accept; README's library example runs.

The demos themselves are not run here: together they take several seconds.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _stablesub_imports(tree: ast.AST) -> list:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stablesub"
    ]


def _parse(demo: Path) -> ast.AST:
    return ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_imported_names_exist(demo):
    imports = _stablesub_imports(_parse(demo))
    assert imports, f"{demo.name} imports nothing from stablesub"
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
        assert not missing, f"{demo.name}: {node.module} has no {', '.join(missing)}"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_call_keywords_are_parameters(demo):
    tree = _parse(demo)
    imported = {}
    for node in _stablesub_imports(tree):
        module = importlib.import_module(node.module)
        for alias in node.names:
            imported[alias.asname or alias.name] = getattr(module, alias.name)
    unknown = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id not in imported:
            continue
        parameters = inspect.signature(imported[node.func.id]).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
            continue
        unknown += [
            f"line {node.lineno}: {node.func.id}({kw.arg}=)"
            for kw in node.keywords
            if kw.arg is not None and kw.arg not in parameters
        ]
    assert not unknown, f"{demo.name}: " + "; ".join(unknown)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "the Library example section holds one python block"
    exec(compile(blocks[0], "README.md: Library example", "exec"), {})
