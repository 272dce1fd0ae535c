"""Every name a package exports resolves."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["hmogkit", "hmogkit.bkg", "hmogkit.corpus"])
def test_every_export_resolves(package):
    namespace = {}
    # a name in __all__ that the package lacks makes the import raise
    exec(f"from {package} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(importlib.import_module(package).__all__)
