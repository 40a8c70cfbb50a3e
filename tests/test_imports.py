"""Every name a package module imports is used in that module."""

import ast
import pathlib

import amalgam

# Imported for other modules to reach, not used where they are imported:
# perfbench wraps the six kernels under ``_kernels``'s name, and the CLI
# imports ``check_instance`` from ``suites`` with the other suites.
REEXPORTS = {
    "_kernels.py": {"add", "coset_split", "in_subgroup", "mul", "norm", "val"},
    "suites.py": {"check_instance"},
}

SOURCES = sorted(pathlib.Path(amalgam.__file__).parent.glob("*.py"))


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_is_used():
    assert len(SOURCES) > 10
    unused = {path.name: unused_imports(path) for path in SOURCES}
    unused = {name: names - REEXPORTS.get(name, set())
              for name, names in unused.items()}
    assert {name: names for name, names in unused.items() if names} == {}


def test_reexports_are_still_imported():
    # an exemption whose import is gone should go too
    for name, names in REEXPORTS.items():
        path = pathlib.Path(amalgam.__file__).parent / name
        assert names <= unused_imports(path)
