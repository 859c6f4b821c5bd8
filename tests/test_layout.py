"""Source-layout rules: modules share only public names, and the package
imports only the standard library and numpy."""

import ast
import math
import sys
from pathlib import Path

import irs_secrecy

SRC = Path(irs_secrecy.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_private_names_cross_module_or_object_boundaries():
    """No ``from .module import _name``, and private attributes are reached
    only through ``self`` (so e.g. ``stats._helper`` fails outside the
    class that defines it)."""
    offences = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("irs_secrecy")):
                offences += [f"{path.name}:{node.lineno}: imports {alias.name}"
                             for alias in node.names if _private(alias.name)]
            if isinstance(node, ast.Attribute) and _private(node.attr) and not (
                    isinstance(node.value, ast.Name) and node.value.id == "self"):
                offences.append(f"{path.name}:{node.lineno}: uses "
                                f"{ast.unparse(node.value)}.{node.attr}")
    assert not offences, offences


def test_every_private_definition_is_used():
    """Every module-level ``_name`` function or class is referenced in its
    own module, so a deletion cannot leave a helper behind."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{node.lineno}: {node.name}" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and _private(node.name) and node.name not in loaded]
    assert not unused, unused


def test_runtime_imports_only_the_stdlib_and_numpy():
    """Every import in the package, function-level ones included, is of the
    standard library, numpy or the package itself: the runtime depends on
    numpy alone."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "irs_secrecy"}
    offences = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offences += [f"{path.name}:{node.lineno}: imports {name}"
                         for name in names if name.split(".")[0] not in allowed]
    assert not offences, offences


def _package_trees() -> dict:
    """{module name: parsed source} of every module of the package."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _read_names(trees: dict) -> set:
    """Every name the package reads: an ``ast.Name`` or ``ast.Attribute`` load."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_module_constant_is_read():
    """Every module-level UPPER_CASE constant is read somewhere in the
    package, so a test that patches one exercises the code it tunes."""
    trees = _package_trees()
    read = _read_names(trees)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [f"{name}.py:{node.lineno}: {t.id}" for t in targets
                       if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
                       and t.id not in read]
    assert not unread, unread


# public definitions that nothing in the package reads, each kept for a
# reason outside it
UNREAD_PUBLIC = {
    ("mcoracle", "mi_exact"): "the documented per-trial oracle: every Monte-Carlo "
                              "sample equals it on that trial's channel",
    ("secrecy", "esr_wiretap"): "public front end of the plain wiretap rate, which "
                                "the benchmark's tracer wraps by name",
}


def test_every_public_definition_is_read_or_listed():
    """Every public module-level function or class is read somewhere in the
    package (an ``ast.Name`` or ``ast.Attribute`` load), or is listed in
    ``UNREAD_PUBLIC`` with its reason: code that only the tests call lives
    in the tests."""
    trees = _package_trees()
    read = _read_names(trees)
    unread = {(module, node.name) for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not _private(node.name) and node.name not in read}
    assert unread == set(UNREAD_PUBLIC), (
        f"unread and unlisted: {sorted(unread - set(UNREAD_PUBLIC))}; "
        f"listed but read or gone: {sorted(set(UNREAD_PUBLIC) - unread)}")


# public methods and properties that nothing in the package reads, each kept
# for a reason outside it
UNREAD_MEMBERS: dict = {}


def test_every_public_member_is_read_or_listed():
    """Every public method or property of a class in the package is read
    somewhere in the package, or is listed in ``UNREAD_MEMBERS`` with its
    reason, the way ``UNREAD_PUBLIC`` lists module-level names. Fields are
    not checked."""
    trees = _package_trees()
    read = _read_names(trees)
    unread = {(module, cls.name, node.name) for module, tree in trees.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_") and node.name not in read}
    assert unread == set(UNREAD_MEMBERS), (
        f"unread and unlisted: {sorted(unread - set(UNREAD_MEMBERS))}; "
        f"listed but read or gone: {sorted(set(UNREAD_MEMBERS) - unread)}")


# defaulted parameters that no call in the package passes, each kept for a
# reason outside it
UNPASSED_DEFAULTS = {
    ("cli", "main", "argv"): "the console entry point: the console script passes "
                             "nothing, and the tests and bench/runner pass argv",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _has_default(value) -> bool:
    """A dataclass field's value gives a default: anything but a
    ``field(...)`` call without ``default`` or ``default_factory``."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return value is not None
    return any(k.arg in ("default", "default_factory") for k in value.keywords)


def _defaulted(fn, skip_first: bool) -> list:
    """[(index or None, name)] of the defaulted parameters of ``fn``: a
    positional one with its index among the positional parameters (after
    ``self`` or ``cls`` when ``skip_first``), a keyword-only one with None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    start = 1 if skip_first else 0
    out = [(i - start, a.arg) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _calls(nodes) -> dict:
    """{called name: (keywords passed, largest positional count)} over every
    call under ``nodes``, by the called name (``f(...)``, ``obj.f(...)``); a
    starred argument passes every later positional parameter."""
    calls: dict = {}
    for node in (n for top in nodes for n in ast.walk(top)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        keywords, count = calls.get(name, (set(), 0))
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        calls[name] = (keywords | {k.arg for k in node.keywords if k.arg},
                       max(count, math.inf if starred else len(node.args)))
    return calls


def _defaulted_parameters(trees: dict) -> list:
    """[(module, qualified name, calls, defaulted parameters)] of every
    public function, public method and public class's ``__init__``, with the
    package's calls of it (see ``_calls``). A dataclass's ``__init__`` takes
    its fields in order, a field with a default defaulted; a class is called
    by its name, or as ``cls`` inside its own body."""
    package = _calls(trees.values())
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not _private(node.name):
                out.append((module, node.name, [package.get(node.name)],
                            _defaulted(node, False)))
            if not isinstance(node, ast.ClassDef) or _private(node.name):
                continue
            calls = [package.get(node.name), _calls([node]).get("cls")]
            if _is_dataclass(node):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                          and isinstance(f.target, ast.Name)]
                defaults = [(i, f.target.id) for i, f in enumerate(fields)
                            if _has_default(f.value)]
                out.append((module, node.name, calls, defaults))
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    out.append((module, node.name, calls, _defaulted(fn, True)))
                elif not _private(fn.name):
                    out.append((module, f"{node.name}.{fn.name}", [package.get(fn.name)],
                                _defaulted(fn, not static)))
    return out


def test_every_defaulted_parameter_is_passed_or_listed():
    """Every defaulted parameter of a public function, public method or
    public class's ``__init__`` is passed, by keyword or by position, by
    some call in the package, or is listed in ``UNPASSED_DEFAULTS`` with its
    reason: a setting that only the tests use lives in the tests."""
    unpassed = {(module, qualname, param)
                for module, qualname, calls, params in _defaulted_parameters(_package_trees())
                for index, param in params
                if not any(param in keywords or (index is not None and index < count)
                           for keywords, count in filter(None, calls))}
    assert unpassed == set(UNPASSED_DEFAULTS), (
        f"unpassed and unlisted: {sorted(unpassed - set(UNPASSED_DEFAULTS))}; "
        f"listed but passed or gone: {sorted(set(UNPASSED_DEFAULTS) - unpassed)}")
