"""The public names: every `__all__` entry exists, every name the package
re-exports is in the `__all__` of the module that defines it, and every
function the benchmark tracer wraps is still there to wrap."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

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


def test_benchmark_traced_names_resolve():
    """`bench/tracer.py` patches `k3fm.<layer>.<fn>` by name (the class
    `ALElement` through its `__post_init__`); its table is read as source,
    so nothing under bench/ is imported here."""
    source = (Path(__file__).resolve().parents[1] / "bench" / "tracer.py").read_text()
    traced = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    assert traced
    for layer, fn in traced:
        target = getattr(importlib.import_module(f"k3fm.{layer}"), fn, None)
        if fn == "ALElement":
            target = getattr(target, "__post_init__", None)
        assert callable(target), f"k3fm.{layer}.{fn}"
