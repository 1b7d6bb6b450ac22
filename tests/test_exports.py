import importlib

import pytest

_MODULES = ("closedform", "eigen", "families", "graphs", "spectra", "verify")


@pytest.mark.parametrize("name", ("spectree",) + tuple(f"spectree.{m}" for m in _MODULES))
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing
