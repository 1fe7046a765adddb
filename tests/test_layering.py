"""The package's import layers: rb_model <- exact_count <- theory, with
cnf_encode on rb_model, experiments on theory and cli on top.

Each module's imports are read with ast, so a module that reaches up a layer,
or into a sibling's private names, fails here rather than in an import cycle,
and an import that nothing uses fails here too.  Outside the package, only
the standard library may be imported: the package has no dependencies.
No test module imports another: what tests share lives in oracles.  A fresh
start of the command loads no heavy module that it does not need.
"""

from __future__ import annotations

import ast
import pathlib
import re
import subprocess
import sys

import pytest

import rbcount

PACKAGE = pathlib.Path(rbcount.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

# The siblings each module below cli may import from.
LAYERS = {
    "rb_model": set(),
    "exact_count": {"rb_model"},
    "theory": {"rb_model", "exact_count"},
    "cnf_encode": {"rb_model"},
    "experiments": {"rb_model", "exact_count", "theory"},
}


def sibling_imports(module: str) -> set[tuple[str, str | None]]:
    """(sibling module, imported name) for each relative import of a sibling;
    the name is None for ``from . import sibling``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            if node.module is not None:
                found.add((node.module, alias.name))
            elif alias.name in MODULES:  # not a package attribute like __version__
                found.add((alias.name, None))
    return found


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_the_layers_below(module):
    assert {sibling for sibling, _ in sibling_imports(module)} <= LAYERS[module]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_modules(module):
    private = sorted((sibling, name) for sibling, name in sibling_imports(module)
                     if name is not None and name.startswith("_"))
    assert private == []


def test_the_package_root_imports_no_module():
    # every name has one import path: its own module
    assert sibling_imports("__init__") == set()


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # import a.b binds a
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def absolute_imports(path: pathlib.Path) -> set[str]:
    """The dotted names of the file's absolute imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_every_absolute_import_is_the_standard_library(path):
    assert sorted(name for name in absolute_imports(path)
                  if name.split(".")[0] not in sys.stdlib_module_names) == []


def test_no_test_module_imports_another():
    paths = sorted(pathlib.Path(__file__).parent.glob("test_*.py"))
    tests = {path.stem for path in paths}
    crossing = {path.stem: names for path in paths
                if (names := sorted(name for name in absolute_imports(path)
                                    if name.split(".")[0] in tests))}
    assert crossing == {}


def test_the_project_declares_no_dependencies():
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    (listed,) = re.findall(r"^dependencies\s*=\s*\[([^\]]*)\]", text, re.MULTILINE)
    assert listed.strip() == ""


# What every rbcount command does before its own work, in a fresh process.
START = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import rbcount.cli
rbcount.cli.build_parser()
print(sorted({"dataclasses", "inspect", "concurrent.futures"} & (set(sys.modules) - before)))
"""


def test_a_command_starts_without_dataclasses_or_the_process_pool():
    # dataclasses loads inspect, ast, dis and tokenize, and the process pool
    # loads logging; a start that needs neither should not pay for them
    proc = subprocess.run([sys.executable, "-I", "-c", START, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
