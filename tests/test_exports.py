import ast
from pathlib import Path

import knotrank

INIT = Path(knotrank.__file__)


def test_every_export_resolves():
    for name in knotrank.__all__:
        assert hasattr(knotrank, name), name


def test_exports_are_exactly_the_public_imports():
    tree = ast.parse(INIT.read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(knotrank.__all__) == len(set(knotrank.__all__))
    assert set(knotrank.__all__) == public
