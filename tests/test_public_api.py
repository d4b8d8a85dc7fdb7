"""The public names: every `__all__` entry exists, every name the package
re-exports is in the `__all__` of the module that defines it, every
function the benchmark tracer wraps is still there to wrap, no module
imports a name it neither reads nor exports, no private module-level name
and no public one goes unread, no default goes unset by every caller, no
f-string lacks a placeholder, no module imports another's private
name, every source file parses as Python 3.10, and the CLI imports no
rational-number or typing module."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import k3fm

MODULES = [importlib.import_module(f"k3fm.{info.name}")
           for info in pkgutil.iter_modules(k3fm.__path__) if info.name != "__main__"]
ROOT = Path(__file__).resolve().parents[1]


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


def _traced() -> list[tuple[str, str]]:
    """The (layer, fn) pairs of `bench/tracer.py`'s `TRACED`, read as source,
    so nothing under bench/ is imported here."""
    source = (ROOT / "bench" / "tracer.py").read_text()
    return next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])


def test_benchmark_traced_names_resolve():
    """`bench/tracer.py` patches `k3fm.<layer>.<fn>` by name (the class
    `ALElement` through its `__post_init__`)."""
    traced = _traced()
    assert traced
    for layer, fn in traced:
        target = getattr(importlib.import_module(f"k3fm.{layer}"), fn, None)
        if fn == "ALElement":
            target = getattr(target, "__post_init__", None)
        assert callable(target), f"k3fm.{layer}.{fn}"


def test_no_unused_imports():
    """Every name a module imports at top level is read in that module or
    listed in its `__all__`: a stdlib stand-in for an unused-import lint.
    `__init__.py` only re-exports, so it is left out; modules are parsed,
    not imported, so `__main__.py` is checked without running it."""
    src = Path(k3fm.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exported = set(), set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif (isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                exported = set(ast.literal_eval(node.value))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused = imported - read - exported
        assert not unused, (path.name, sorted(unused))


def _reads(node: ast.AST) -> Counter:
    """How often each identifier is read under `node`: as a name, as an
    attribute, or as a name imported from another module."""
    reads = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute):
            reads[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            reads.update(a.name for a in n.names)
    return reads


def _defined_names(node: ast.stmt) -> list[str]:
    """The module-level names a `def`, `class` or `NAME =` statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def test_no_unused_private_names():
    """Every module-level private name in the package (a `_def`, `_class`
    or `_NAME =`) is read somewhere in the package source outside its own
    definition: a stdlib stand-in for vulture's unused-code check."""
    src = Path(k3fm.__file__).resolve().parent
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))]
    reads = sum((_reads(tree) for tree in trees), Counter())
    unused = []
    for tree in trees:
        for node in tree.body:
            own = _reads(node)
            unused += [name for name in _defined_names(node)
                       if name.startswith("_") and not name.startswith("__")
                       and reads[name] - own[name] < 1]
    assert not unused, unused


# Private names one k3fm module may import from another, with the reason.
PRIVATE_IMPORTS_ALLOWED = {
    "_range_problem": "arith's range contract, which callers check before "
                      "they build a window",
}


def test_no_private_cross_module_imports():
    """No module of the package imports an underscore name from another
    (`from .x import _y`): a private name is its module's own business.
    The exceptions are listed, with their reasons, in
    PRIVATE_IMPORTS_ALLOWED, and each of them is still imported somewhere."""
    src = Path(k3fm.__file__).resolve().parent
    imported = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "k3fm"):
                imported |= {(path.name, a.name) for a in node.names
                             if a.name.startswith("_")}
    assert {name for _, name in imported} >= set(PRIVATE_IMPORTS_ALLOWED)
    flagged = sorted(pair for pair in imported
                     if pair[1] not in PRIVATE_IMPORTS_ALLOWED)
    assert not flagged, flagged


# Public names that no module, benchmark file or README example reads.
UNREAD_PUBLIC_ALLOWED = {
    "compose": "the groupoid law of transforms (acceptance criterion 4)",
    "invert": "the groupoid law of transforms (acceptance criterion 4)",
    "isometry_to_json": "the inverse of the wire reader isometry_from_json",
    "al_identity": "a group constructor the tests use across modules",
    "translation": "a group constructor the tests use across modules",
}


def test_no_unread_public_names():
    """Every `__all__` entry is read outside its own definition: in another
    part of the package (the re-exports of `__init__.py` do not count), in
    `bench/*.py` (a `TRACED` entry counts) or in the README's Python
    example.  A name kept for the tests alone is listed, with its reason,
    in UNREAD_PUBLIC_ALLOWED; anything else is surface no one uses."""
    src = Path(k3fm.__file__).resolve().parent
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    reads = sum((_reads(tree) for tree in trees), Counter())
    for path in sorted((ROOT / "bench").glob("*.py")):
        reads += _reads(ast.parse(path.read_text(encoding="utf-8")))
    reads.update(fn for _, fn in _traced())
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL):
        reads += _reads(ast.parse(block))
    exported = {name for module in MODULES for name in getattr(module, "__all__", ())}
    unread = []
    for tree in trees:
        for node in tree.body:
            own = _reads(node)
            unread += [name for name in _defined_names(node)
                       if name in exported and name not in UNREAD_PUBLIC_ALLOWED
                       and reads[name] - own[name] < 1]
    assert not unread, unread


# (module, function, parameter) of a default no caller sets; tests inject
# faults with monkeypatch, not through a parameter, so none is allowed.
UNSET_KNOBS_ALLOWED: set[tuple[str, str, str]] = set()


def _defaults(tree: ast.AST):
    """(name, position, parameter) for each parameter with a default of a
    public function, and for each dataclass field with a settable default;
    position is None for a keyword-only parameter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                    len(positional) - len(args.defaults)):
                yield node.name, i, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, None, arg.arg
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(dec) for dec in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None and not any(
                        kw.arg == "init" for kw in getattr(f.value, "keywords", ())):
                    yield node.name, i, f.target.id


def _passes(call: ast.Call, position, name: str) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args[:position + 1])


def test_every_default_is_set_by_some_caller():
    """Each parameter default of a public function, and each dataclass field
    default, in the package is overridden by some call in the package or
    the benchmark, by position or keyword: a knob no caller turns is code
    kept for no one.  Files are parsed, not imported."""
    root = Path(k3fm.__file__).resolve().parent
    sources = sorted(root.glob("*.py")) + sorted((root.parents[1] / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unset = []
    for path, tree in trees.items():
        if path.parent != root:
            continue
        for fn, position, name in _defaults(tree):
            if (path.stem, fn, name) in UNSET_KNOBS_ALLOWED:
                continue
            if not any(getattr(c.func, "id", getattr(c.func, "attr", None)) == fn
                       and _passes(c, position, name) for c in calls):
                unset.append(f"{path.stem}.{fn}.{name}")
    assert not unset, unset


def test_no_f_string_without_placeholder():
    """No f-string in the package lacks a `{}` field (pyflakes F541): the
    prefix on a plain string suggests a value that is never put in.  A
    format spec such as the `>10` of `f"{x:>10}"` parses as a nested f-string
    of its own and is not counted."""
    src = Path(k3fm.__file__).resolve().parent
    bare = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        specs = {id(n.format_spec) for n in ast.walk(tree)
                 if isinstance(n, ast.FormattedValue) and n.format_spec is not None}
        bare += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                 if isinstance(n, ast.JoinedStr) and id(n) not in specs
                 and not any(isinstance(v, ast.FormattedValue) for v in n.values)]
    assert not bare, bare


def test_sources_parse_as_python_310():
    """Every package, test and benchmark source parses with the grammar of
    Python 3.10, the oldest that pyproject.toml admits, so newer syntax
    (such as `except*`) fails here on whichever Python runs the tests."""
    paths = [*ROOT.glob("src/k3fm/*.py"), *ROOT.glob("tests/*.py"),
             *ROOT.glob("bench/**/*.py")]
    assert len(paths) > 20
    for path in sorted(paths):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_cli_import_leaves_out_rational_and_typing_modules():
    """The lattice layer is integral, so `import k3fm.cli` needs neither
    `fractions` (with the `decimal` and `numbers` it pulls in) nor `typing`.
    `-S` keeps site's own imports out of the count; PYTHONPATH finds src."""
    probe = ("import sys, k3fm.cli; print(sorted({'fractions', 'decimal', "
             "'numbers', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"
