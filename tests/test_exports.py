"""Every name a package exports resolves."""

import ast
import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize("package", ["hmogkit", "hmogkit.bkg", "hmogkit.corpus"])
def test_every_export_resolves(package):
    namespace = {}
    # a name in __all__ that the package lacks makes the import raise
    exec(f"from {package} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(importlib.import_module(package).__all__)


def private_hmogkit_imports(path):
    """The _-prefixed names a module imports from a hmogkit module."""
    found = []
    for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hmogkit"):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "hmogkit"
                      and any(part.startswith("_") for part in alias.name.split("."))]
    return found


def test_cli_imports_only_public_names():
    # the command line parses and prints; run logic sits behind public runners
    cli = importlib.import_module("hmogkit.cli")
    assert private_hmogkit_imports(cli.__file__) == []
