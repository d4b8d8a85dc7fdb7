"""The public names: every `__all__` entry exists, and every name the
package re-exports is in the `__all__` of the module that defines it."""

import importlib
import pkgutil
import types

import k3fm

MODULES = [importlib.import_module(f"k3fm.{info.name}")
           for info in pkgutil.iter_modules(k3fm.__path__) if info.name != "__main__"]


def test_every_all_entry_exists():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_reexports_are_in_the_defining_module_all():
    reexported = {name: obj for name, obj in vars(k3fm).items()
                  if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert reexported
    for name, obj in reexported.items():
        module = importlib.import_module(obj.__module__)
        assert getattr(module, name) is obj, name
        # a module without __all__ (errors) exports every public name
        assert name in getattr(module, "__all__", [name]), (module.__name__, name)
