"""The package's modules form one chain of layers: each imports only the
modules before it, at module level or inside functions."""

import ast
from pathlib import Path

import pytest

import twistlab

CHAIN = ("word", "magnus", "mcg", "curve", "jfilt", "foxrep", "cli")
# errors may be imported anywhere, and __init__ may import anything
PACKAGE = Path(twistlab.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def imported_modules(path):
    """The package's modules that a source file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"twistlab.{module}" if module else "twistlab"
            # from twistlab import x: x is a module, or a name of __init__
            dotted = [module] if module != "twistlab" else [
                f"twistlab.{a.name}" for a in node.names
            ]
        else:
            continue
        found.update(d.split(".")[1] for d in dotted if d.startswith("twistlab."))
    return found & MODULES


def test_every_module_has_a_layer():
    assert MODULES - {"errors"} == set(CHAIN)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_imports_only_earlier_layers(name):
    allowed = set(CHAIN[: CHAIN.index(name)]) | {"errors"} if name in CHAIN else set()
    assert imported_modules(PACKAGE / f"{name}.py") <= allowed


def defined_names(path):
    """The names a source file defines at module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


# the curve searches and centrality, read on curve classes
CURVE_FACTS = (
    "enumerate_curve_specs",
    "distinct_separating_curves",
    "distinguishing_witness",
    "fact5_instance",
    "is_central",
)


def test_foxrep_imports_no_jfilt():
    assert "jfilt" not in imported_modules(PACKAGE / "foxrep.py")


@pytest.mark.parametrize("name", CURVE_FACTS)
def test_curve_facts_are_defined_in_curve_only(name):
    from twistlab import curve

    for module in ("jfilt", "mcg"):
        assert name not in defined_names(PACKAGE / f"{module}.py")
    assert getattr(curve, name).__module__ == "twistlab.curve"
