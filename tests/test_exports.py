"""The public names of the package and of its modules."""

import importlib
import pkgutil

import delaysl


def test_every_exported_name_resolves():
    # the package imports its names one by one, so a name left in a
    # module's __all__ after its definition went would pass unnoticed
    modules = [delaysl] + [
        importlib.import_module(f"delaysl.{info.name}")
        for info in pkgutil.iter_modules(delaysl.__path__)
    ]
    checked = 0
    for module in modules:
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        checked += 1
    assert checked >= 9
