"""Span recorder for the traced benchmark run.

The recorder wraps twistlab's public functions and the public methods of
`FreeAutomorphism` and `Word` from outside the package: nothing in `src/`
knows it is being traced.  Every call becomes one span holding its name,
the index of the span that was open when it started (its parent), its
start and end in thread CPU time (the worker's clock), and counters
taken from its arguments and result.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so the children of a
span cover disjoint parts of its interval and the subtraction is exact.

Cached callables (`builtin_table` and the `lru_cache`s behind `evaluate`
and `resolve`) are not wrapped: a span per cache hit would cost more
than the hit.  Their effect is read from `cache_info()` deltas instead.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

# Fields of one span record.
NAME, PARENT, START, END, LETTERS_IN, LETTERS_OUT, TERMS_OUT, BYTES_OUT = range(8)

TRACED_MODULES = ("word", "magnus", "mcg", "curve", "jfilt", "foxrep", "cli")
TRACED_CLASSES = (("mcg", "FreeAutomorphism"), ("word", "Word"))
TRACED_DUNDERS = ("__call__", "__mul__", "__pow__")
SPAN_RENAMES = {"magnus.magnus_expand": "magnus.expand"}
# Of the CLI's own functions only the entry point is traced: the
# subcommand handlers are steps of main, so cli.main.self_s is the front
# end's own work (argument parsing, report assembly, JSON output).
OWN_FUNCTIONS = {"cli": ("main",)}
# Spans whose stdout writes are counted; the benchmark runs them with
# stdout redirected to a StringIO, whose position is the byte count for
# the ASCII-only JSON the CLI writes.
STDOUT_SPANS = ("cli.main",)


def _letters(value):
    """Letters of a Word, or the image letters of an automorphism.

    A span's letters_in sums this over all arguments, `self` included, so
    for `FreeAutomorphism.__call__` it counts the automorphism as well.
    """
    letters = getattr(value, "letters", None)
    if letters is not None:
        return len(letters)
    images = getattr(value, "images", None)
    if images is not None:
        return sum(len(w.letters) for w in images)
    return 0


def _terms(value):
    """Nonzero terms of a truncated series."""
    degrees = getattr(value, "degrees", None)
    return 0 if degrees is None else sum(len(d) for d in degrees)


class Recorder:
    """Collects nested spans; `wrap` turns a callable into a traced one."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counts_stdout=False):
        spans, stack, clock = self.spans, self._stack, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    sum(_letters(a) for a in args), 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            pos = sys.stdout.tell() if counts_stdout else 0
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[LETTERS_OUT] = _letters(result)
            span[TERMS_OUT] = _terms(result)
            if counts_stdout:
                span[BYTES_OUT] = sys.stdout.tell() - pos
            return result

        return traced

    def write(self, path):
        """Dump every span as one JSON list per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(json.dumps(
                ["name", "parent", "start", "end", "letters_in",
                 "letters_out", "terms_out", "bytes_out"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def summarize(spans):
    """Per span name: calls, self_s, counter totals and the peak output.

    `under` maps each parent span name to the summed duration of this
    name's spans whose direct parent has that name.
    """
    out = {}
    selfs = self_times(spans)
    for span, own in zip(spans, selfs):
        name = span[NAME]
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {
                "calls": 0, "self_s": 0.0, "letters_in": 0,
                "letters_out": 0, "peak_letters": 0, "terms_out": 0,
                "bytes_out": 0, "under": {},
            }
        agg["calls"] += 1
        agg["self_s"] += own
        agg["letters_in"] += span[LETTERS_IN]
        agg["letters_out"] += span[LETTERS_OUT]
        agg["peak_letters"] = max(agg["peak_letters"], span[LETTERS_OUT])
        agg["terms_out"] += span[TERMS_OUT]
        agg["bytes_out"] += span[BYTES_OUT]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]][NAME]
            agg["under"][parent] = (
                agg["under"].get(parent, 0.0) + span[END] - span[START]
            )
    return out


def _span_name(module, attr):
    short = module.rsplit(".", 1)[-1]
    name = f"{short}.{attr.strip('_')}"
    return SPAN_RENAMES.get(name, name)


def install(recorder, package="twistlab"):
    """Wrap the package's public functions and traced class methods.

    A function is replaced in every traced module that holds it by name,
    so `jfilt.magnus_expand` and `cli.classify_pair` are traced as well
    as the originals.  Returns a callable that restores every attribute.
    """
    modules = {m: sys.modules[f"{package}.{m}"] for m in TRACED_MODULES}
    undo = []
    used = set()

    for mod_name, cls_name in TRACED_CLASSES:
        cls = getattr(modules[mod_name], cls_name)
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = _span_name(cls.__module__, attr)
            used.add(name)
            undo.append((cls, attr, fn))
            setattr(cls, attr, recorder.wrap(name, fn))

    wrapped = {}
    for mod in modules.values():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            home = fn.__module__.rsplit(".", 1)[-1]
            if fn.__module__ != f"{package}.{home}" or home not in modules:
                continue
            if home in OWN_FUNCTIONS and fn.__name__ not in OWN_FUNCTIONS[home]:
                continue
            if fn not in wrapped:
                name = _span_name(fn.__module__, fn.__name__)
                if name in used:
                    # a free function named like a method of its module
                    name += "_fn"
                wrapped[fn] = recorder.wrap(
                    name, fn, counts_stdout=name in STDOUT_SPANS
                )
            undo.append((mod, attr, fn))
            setattr(mod, attr, wrapped[fn])

    def restore():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return restore
