"""The package's export list matches what ``fracbessel/__init__.py`` binds,
the package carries no unused import and no private definition nothing names,
the CLI imports no private library name and writes JSON with the C encoder,
its declared dependencies are exactly the third-party packages it imports,
importing it loads no scipy, and the series path, from import through the
CLI's series commands, loads no numpy: only a quadrature does."""

import ast
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fracbessel


def test_all_resolves_without_duplicates():
    assert len(fracbessel.__all__) == len(set(fracbessel.__all__))
    for name in fracbessel.__all__:
        assert hasattr(fracbessel, name), name


def test_every_public_name_is_listed():
    public = {
        name
        for name, obj in vars(fracbessel).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(fracbessel.__all__)


# --- dead code: the checks a linter would make, on the ast alone ---------------

SRC = Path(fracbessel.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _read_names(tree):
    """Every name the module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_import_is_read():
    for module, tree in _trees().items():
        if module == "__init__.py":  # its imports are the package's exports
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in read, f"{module}:{node.lineno} imports {bound} and never reads it"


def test_every_private_definition_is_named_elsewhere():
    trees = _trees()
    named = set().union(*(_read_names(tree) for tree in trees.values()))
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                if name.startswith("_") and not name.startswith("__"):
                    assert name in named, f"{module}:{node.lineno} defines {name} and nothing names it"


def test_the_cli_imports_no_private_library_name():
    # the CLI is a thin shell over the library: it reaches it by public names only
    tree = _trees()["cli.py"]
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "fracbessel"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(alias.name)
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == [], private


def test_the_cli_writes_json_with_the_c_encoder():
    # json.dumps runs the C encoder only without indent, and dataclasses.asdict
    # deep-copies every field: neither belongs on the batch entry point
    tree = _trees()["cli.py"]
    dumps = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            assert "asdict" not in {alias.name for alias in node.names}, f"cli.py:{node.lineno} imports asdict"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        assert name != "asdict", f"cli.py:{node.lineno} calls asdict"
        if name == "dumps":
            dumps += 1
            keywords = {kw.arg for kw in node.keywords}  # None is a ** argument
            assert not keywords & {"indent", None}, f"cli.py:{node.lineno} may pass indent to json.dumps"
    assert dumps, "cli.py no longer calls json.dumps; this check reads nothing"


def test_declared_dependencies_match_the_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = SRC.parents[1] / "pyproject.toml"
    requirements = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}
    imported = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    assert declared == third_party, f"declared {sorted(declared)}, imported {sorted(third_party)}"


def test_importing_the_package_and_its_cli_loads_no_scipy():
    # scipy is a test dependency only: importing it cost every CLI call ~0.7 s
    code = ("import sys, fracbessel, fracbessel.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=SRC.parent, timeout=120)
    assert out.stdout.strip() == "[]", out.stdout


SERIES_PATH = """
import contextlib, io, sys, tempfile
from pathlib import Path
import fracbessel, fracbessel.cli
from fracbessel import (general_expansion_m7, k_mcdonald, k_oracle, k_series_m9, k_series_m10,
                        k_series_rearranged)

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "numpy")

k_mcdonald(0.5, 1.0), k_mcdonald(1.3, 0.5), k_mcdonald(1.3, 5.0), k_mcdonald(40.5, 3.0)
k_series_rearranged(7.3, 1.0)
k_series_m9(0.5, 1.0), k_series_m10(0.5, 1.0)
general_expansion_m7(1.0, 2.0, 1.0, 1.0, 1.0)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    codes = [
        fracbessel.cli.main(["eval", "--s", "0.5", "--z", "1"]),
        fracbessel.cli.main(["converge", "--s-range", "0.1:0.5:0.2", "--z-range", "0.5:1.5:0.5"]),
        fracbessel.cli.main(["table", "--s-list", "0.5,1.3", "--z-list", "1,2",
                             "--methods", "rearranged,m9,m10", "--out", str(Path(tmp) / "t.csv")]),
    ]
print(codes, loaded())
k_oracle(0.5, 1.0)
print("numpy" in loaded())
"""


def test_the_series_path_loads_no_numpy():
    # numpy's import was about two thirds of every cold start; the K series never needs it
    out = subprocess.run([sys.executable, "-c", SERIES_PATH], capture_output=True, text=True,
                         check=True, cwd=SRC.parent, timeout=120)
    assert out.stdout.splitlines() == ["[0, 0, 0] []", "True"], out.stdout
