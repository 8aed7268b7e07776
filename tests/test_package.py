"""Static checks on the shipped package's imports, exports and
arithmetic."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latticeflow"


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_package_imports_only_the_standard_library():
    """The top-level name of every absolute import is a standard-library
    module, as sys.stdlib_module_names lists them (Python 3.10 on)."""
    bad = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "__future__" and top not in sys.stdlib_module_names:
                    bad.append(f"{path.name}:{node.lineno}: imports {name}")
    assert not bad


def test_package_has_no_unused_imports():
    """Every name a module imports is referenced in it or listed in its
    ``__all__``; ``__init__.py`` re-exports by design and is not checked."""
    bad = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used.update(ast.literal_eval(node.value))
        bad += [f"{path.name}:{line}: imports {name}, never used"
                for name, line in imported.items() if name not in used]
    assert not bad


def test_every_exported_name_is_bound():
    """Every name in a module's ``__all__`` is bound at the module's top
    level: defined there, assigned there or imported there."""
    bad = []
    for path, tree in _modules():
        bound, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name.split(".")[0]
                             for alias in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                bound |= names
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
        bad += [f"{path.name}: __all__ lists {name}, never bound"
                for name in exported if name not in bound]
    assert not bad


def test_solver_computes_no_float():
    """No module but the reference oracle has a float literal, a true
    division, a ``float(...)`` call or a ``math`` function other than
    ``gcd`` and ``isqrt``. The oracle keeps its ``float("inf")``
    distances and the ``rng.random() < 0.5`` draw that fixes every
    generated instance."""
    bad = []
    for path, tree in _modules():
        if path.name == "reference_oracle.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(
                    node.value, (float, complex)):
                what = f"float literal {node.value!r}"
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and (
                    isinstance(node.op, ast.Div)):
                what = "true division"
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                what = "float() call"
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "math"
                  and node.attr not in ("gcd", "isqrt")):
                what = f"math.{node.attr}"
            elif (isinstance(node, ast.ImportFrom) and node.module == "math"
                  and any(alias.name not in ("gcd", "isqrt")
                          for alias in node.names)):
                what = "import from math"
            else:
                continue
            bad.append(f"{path.name}:{node.lineno}: {what}")
    assert not bad
