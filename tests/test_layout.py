"""Source-layout rules: modules share only public names."""

import ast
from pathlib import Path

import irs_secrecy

SRC = Path(irs_secrecy.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_private_names_cross_module_or_object_boundaries():
    """No ``from .module import _name``, and private attributes are reached
    only through ``self`` (so e.g. ``stats._eve_index`` fails outside the
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
