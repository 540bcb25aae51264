"""Smoke tests of the scripts under tools/."""

import importlib.util
import json
import sys
from pathlib import Path

from twistlab import curve

TOOLS = Path(__file__).parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bench_kernels_reports_the_class_and_action_kernels(monkeypatch, capsys):
    # the tool puts benchmarks/ on the path to read the pair-scan list
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _load("bench_kernels")
    # resolve from scratch, so the pass folds every curve's class
    curve._resolve_cached.cache_clear()
    assert tool.main(["--seed", "13", "--repeats", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 13 and report["pairs"] > 0
    kernels = report["kernels"]
    for name in (
        "word.cyclic_reduce",
        "word.canonical_cyclic",
        "mcg.class_image",
        "magnus.expand.cap1",
        "magnus.action_compose.cap3",
        "magnus.lead_transform.g2",
        "magnus.lead_transform.g3",
        "magnus.lead_bracket.g2",
        "magnus.lead_bracket.g3",
        "foxrep.jacobian.g2",
        "foxrep.same_matrix.g2",
        "foxrep.rep_mul.g2",
    ):
        assert kernels[name]["calls"] > 0, name
        assert kernels[name]["min_s"] >= 0, name
    # every kernel is also reported relative to the speed loop's replays
    assert report["loop"]["passes"] > 0 and report["loop"]["min_s"] > 0
    for name, kernel in kernels.items():
        assert kernel["median_rel"] >= 0, name


def test_code_lines_leaves_out_docstrings_comments_and_blanks(capsys):
    tool = _load("code_lines")
    text = '''"""Module docstring,
over two lines."""

# a comment
X = 1  # code with a comment


def f(a,
      b):
    """Docstring."""
    s = """a string
that is not a docstring"""
    return s


class C:
    """Docstring."""
'''
    # X, the two lines of f's signature, the two of s, return, class C
    assert tool.code_lines(text) == 7
    assert tool.main([]) == 0
    report = json.loads(capsys.readouterr().out)
    modules = report["modules"]
    assert set(modules) == {p.name for p in Path(curve.__file__).parent.glob("*.py")}
    assert all(n > 0 for n in modules.values())
    assert report["total"] == sum(modules.values())
