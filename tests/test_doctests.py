import doctest
import importlib
import pkgutil

import pytest

import knotrank

# knotrank.__main__ runs the CLI when imported, so it is not collected.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(knotrank.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"knotrank.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
