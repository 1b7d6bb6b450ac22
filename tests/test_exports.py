import importlib

import pytest

_MODULES = ("closedform", "eigen", "families", "graphs", "spectra", "verify")


@pytest.mark.parametrize("name", ("spectree",) + tuple(f"spectree.{m}" for m in _MODULES))
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing


def test_package_lists_each_module_name_once():
    import spectree

    order = ("graphs", "families", "eigen", "spectra", "closedform", "verify")
    assert sorted(order) == sorted(_MODULES)
    names = [n for m in order for n in importlib.import_module(f"spectree.{m}").__all__]
    assert spectree.__all__ == names
    assert len(names) == len(set(names))
    for name in ("ProductSpectrumResult", "BlockDecomposition", "CheckInstance", "ROUTE_TOL"):
        assert name in spectree.__all__ and hasattr(spectree, name)
