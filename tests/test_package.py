"""Package structure: what one module may take from another."""

import ast
from pathlib import Path

import rnsckks

MODULES = sorted(Path(rnsckks.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name():
    """A name with a leading underscore stays inside its module: no module
    of the package imports one from another."""
    assert len(MODULES) > 5
    private = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
