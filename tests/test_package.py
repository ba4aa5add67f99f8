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


def _library_modules():
    package = pathlib.Path(pencillab.__file__).parent
    return sorted(package.glob("*.py"))


def test_only_core_touches_instance_dicts():
    # kept analyses go through one helper in core, core._kept
    touching = [
        path.name
        for path in _library_modules()
        if path.name != "core.py" and "__dict__" in path.read_text(encoding="utf-8")
    ]
    assert touching == []


def test_every_imported_name_is_used():
    # __init__.py imports to re-export, so it is exempt
    unused = []
    for path in _library_modules():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
