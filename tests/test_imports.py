"""Every name a package module imports is used in that module, and no
module imports the ``_kernels`` backend stub."""

import ast
import pathlib

import amalgam

# Imported for other modules to reach, not used where they are imported:
# the CLI imports ``check_instance`` from ``suites`` with the other suites.
REEXPORTS = {
    "suites.py": {"check_instance"},
}

PACKAGE = pathlib.Path(amalgam.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


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
        path = PACKAGE / name
        assert names <= unused_imports(path)


def test_nothing_imports_the_backend_stub():
    # ``_kernels`` holds only the name perfbench's metadata reads, so the
    # benchmark is its one reader and it can go with the benchmark's rows
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            assert not any("_kernels" in name for name in names), path.name
    stub = ast.parse((PACKAGE / "_kernels.py").read_text())
    code = [node for node in stub.body if not isinstance(node, ast.Expr)]
    assert [ast.unparse(node) for node in code] == ["BACKEND = 'py'"]
