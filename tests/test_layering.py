"""The package's modules form one chain of layers: each imports only the
modules before it, at module level or inside functions.  And the package
keeps only what its commands run."""

import ast
import contextlib
import importlib
import inspect
import io
import sys
from functools import cached_property
from pathlib import Path

import pytest

import twistlab
from twistlab.cli import main

from test_golden import CASES

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


# the curve searches, read on curve classes
CURVE_FACTS = (
    "enumerate_curve_specs",
    "distinct_separating_curves",
)


def test_foxrep_imports_no_jfilt():
    assert "jfilt" not in imported_modules(PACKAGE / "foxrep.py")


@pytest.mark.parametrize("name", CURVE_FACTS)
def test_curve_facts_are_defined_in_curve_only(name):
    from twistlab import curve

    for module in ("jfilt", "mcg"):
        assert name not in defined_names(PACKAGE / f"{module}.py")
    assert getattr(curve, name).__module__ == "twistlab.curve"


# readers that no command runs; tests compare the package against them
REFERENCE_READERS = (
    "commutator",
    "commutes",
    "in_Mk",
    "johnson_depth",
    "commutator_depth",
    "johnson_leading_term",
    "leading",
    "transform",
    "morita_check",
    "curves_equal",
    "distinguishing_witness",
    "fact5_instance",
    "is_central",
    "fox_derivative",
)


@pytest.mark.parametrize("name", REFERENCE_READERS)
def test_reference_readers_are_defined_in_tests_only(name):
    import references

    for module in MODULES:
        assert name not in defined_names(PACKAGE / f"{module}.py")
    assert getattr(references, name).__module__ == "references"


# functions whose code no golden command enters, each with its reason
EXEMPT = (
    # tests compare automorphisms and actions with ==; without __eq__,
    # == would be identity and every != assertion would pass vacuously
    "mcg.FreeAutomorphism.__eq__",
    "magnus.TruncatedAction.__eq__",
    # pytest's failure messages print automorphisms
    "mcg.FreeAutomorphism.__repr__",
    # these run only on inputs that exit 2; the goldens exit 0
    "errors.SpecParseError.__init__",
    "magnus._term_limit",
)


def package_modules():
    return [importlib.import_module(f"twistlab.{stem}") for stem in sorted(MODULES)]


def class_functions(cls):
    """The functions behind the attributes a class defines: methods,
    the functions of classmethods and staticmethods, and the bodies of
    properties and cached properties."""
    for value in vars(cls).values():
        if isinstance(value, (classmethod, staticmethod)):
            yield value.__func__
        elif isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f)
        elif isinstance(value, cached_property):
            yield value.func
        elif inspect.isfunction(value):
            yield value


def package_functions():
    """(module.qualname, code object) of every module-level function and
    every function of a class whose code is in the package.  Methods
    that dataclass generates have their code elsewhere and are left
    out."""
    root = str(PACKAGE)
    found = {}
    for module in package_modules():
        stem = module.__name__.rsplit(".", 1)[1]
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                functions = class_functions(value)
            else:
                functions = [inspect.unwrap(value)]
            for fn in functions:
                if inspect.isfunction(fn) and fn.__code__.co_filename.startswith(root):
                    found[f"{stem}.{fn.__qualname__}"] = fn.__code__
    return found


@pytest.fixture(scope="module")
def golden_trace():
    """The code objects of the package that the golden argvs enter, and
    the package functions that call FreeAutomorphism.compose and those
    that call FreeAutomorphism.__init__, each as module.qualname.

    The caches are cleared first, so that a cached function is entered
    by the commands themselves and not skipped on an earlier test's
    hit."""
    for module in package_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    root = str(PACKAGE)
    callers = {
        twistlab.FreeAutomorphism.compose.__code__: set(),
        twistlab.FreeAutomorphism.__init__.__code__: set(),
    }
    entered = set()

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            entered.add(frame.f_code)
            caller = frame.f_back.f_code
            if frame.f_code in callers and caller.co_filename.startswith(root):
                name = f"{Path(caller.co_filename).stem}.{caller.co_qualname}"
                callers[frame.f_code].add(name)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for argv in CASES.values():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
    finally:
        sys.settrace(previous)
    composers, builders = callers.values()
    return entered, composers, builders


def test_every_function_runs_under_a_golden_command(golden_trace):
    entered, _, _ = golden_trace
    functions = package_functions()
    assert set(EXEMPT) <= set(functions)
    unrun = {name for name, code in functions.items() if code not in entered}
    assert unrun == set(EXEMPT)


def test_only_the_inner_factor_composes_automorphisms(golden_trace):
    # every other composite is evaluated from its mapping class word;
    # the inner factor t_c h^-1 of a curve's twist is the one left
    _, composers, _ = golden_trace
    assert composers == {"curve.CurveData.inner"}


def test_only_mcg_builds_automorphisms(golden_trace):
    # the table twists and their closed-form powers, evaluated words and
    # products: every automorphism is built in mcg from generator images
    _, _, builders = golden_trace
    assert {name.split(".")[0] for name in builders} == {"mcg"}
    assert builders == {
        "mcg.builtin_table",
        "mcg._twist_power",
        "mcg._evaluate_cached",
        "mcg.FreeAutomorphism.compose",
    }
