"""Source-layout rules: modules share only public names, and the package
imports only the standard library and numpy."""

import ast
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
