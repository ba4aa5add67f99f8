import ast
import pathlib

import pencillab


def test_every_exported_name_resolves():
    missing = [name for name in pencillab.__all__ if not hasattr(pencillab, name)]
    assert missing == []


def test_no_library_module_imports_the_test_oracles():
    # the oracles are the tests' independent references; a library module
    # that used them would be checked against itself
    package = pathlib.Path(pencillab.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracles" for name in names):
                importers.append(path.name)
    assert importers == []
