"""Time twistlab's hot kernels on the calls one pair-scan pass makes.

    PYTHONPATH=src python3 tools/bench_kernels.py --seed 13 --repeats 7

The pairs are the benchmark's pair-scan list for the seed
(benchmarks/workloads.py), less the pairs that failed when the reference
was made.  One pass classifies every pair at the benchmark's cap with
the kernels below wrapped, and records the arguments of every call.
Each kernel is then replayed on its recorded calls in each of
`--repeats` rounds, and one JSON object is printed: per kernel, the
calls, the letters of their words, and the least, the median and the
quartiles of a replay's thread CPU seconds.  As in timeit, the garbage
collector is off during a replay, so its pauses, which depend on
everything the pass left alive, do not land on whichever kernel happens
to run then; the least replay is the figure least moved by other load
on the host.

The host's speed also moves, within a process and between processes,
by more than most changes to a kernel.  So each replay of a kernel is
followed by a replay of LOOP_PASSES passes of the benchmark's speed loop
(benchmarks/worker.py, Speed.sample), which runs no twistlab code, and
each kernel's `median_rel` is the median over rounds of its replay's
time over that loop's: the figure to compare between processes.  `loop`
reports the loop's replays.

The calls are those of the twistlab on the path, so a change that drops
calls shows in the call counts.  mcg.call is FreeAutomorphism.__call__
and mcg.fold is mcg._apply_factors, the fold behind evaluate,
class_image and resolve: both run one letter-substitution kernel, so a
fold makes no mcg.call.  mcg.class_image is recorded where the
curve and jfilt modules call it: resolving a curve, the pull-back of
CurveData.moves and the braid label's fold of two twist words.
magnus_expand and TruncatedAction.compose are reported per cap, so that
the caps both versions reach can be compared alone.  canonical_cyclic calls
cyclic_reduce once, to strip its word, so the cyclic_reduce calls
include one per canonical_cyclic call.  Replays run after the recording
pass: the letter tables that applying an automorphism reads are already
built.

The leading-term kernels that read a separating pair's first level are
replayed on fixed calls, not recorded ones, since a pair-scan pass makes
only a few: magnus.lead_transform.g{2,3} reads the leading term of the
twist along Sep1 moved by a word with a dense homology matrix, with the
reader that pairs and the corollary share (jfilt._curve_term: one folded
matrix and the closed form Derivation.separating, which reads the whole
term from it), and magnus.lead_bracket.g{2,3} brackets t_Sep1's term
with the moved one (Derivation.bracket), each LEAD_CALLS times a
replay.  Those brackets are of degree-2 terms, too small to show
the cost of applying a long term, so magnus.chain_bracket.g2 replays
the corollary's own brackets: those that form the terms of w_3, w_4 and
w_5 at genus 2 (jfilt.nested_leading_terms), of degrees 8, 10 and 12,
CHAIN_CALLS times a replay; and cli.build_parser builds the CLI's
argument parser, uncached, PARSER_CALLS times a replay, which is what a
process pays once and, before the parser was cached, each call of
cli.main paid.  The Fox kernels of foxcheck's Magnus checks
run on fixed calls too, since a pair-scan pass makes none:
foxrep.jacobian.g2 is magnus_rep of t_Sep1 and of fg for the crossing
pairs (f, g) among the first FOX_CURVES separating curves at genus 2,
FOX_CALLS times a replay; foxrep.same_matrix.g2 is the Suzuki scan's
comparison of r(fg) with r(gf), foxrep._same_matrix, on the same pairs
both ways round, FOX_CALLS times a replay; and foxrep.rep_mul.g2
multiplies each of the matrices of foxrep.jacobian.g2 by the next, once
a replay, since a product of two such matrices takes as long as about
50 of the matrices.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402
from worker import Speed  # noqa: E402
from twistlab import cli, curve, foxrep, jfilt, magnus, mcg  # noqa: E402
from twistlab.mcg import FreeAutomorphism  # noqa: E402
from twistlab.word import Word  # noqa: E402


def record(ops):
    """Classify every pair once; the recorded calls of each kernel.

    Returns {kernel name: (function, [argument tuples])}.
    """
    calls = {}
    patches = [
        (FreeAutomorphism, "__call__", lambda args: "mcg.call"),
        (mcg, "_apply_factors", lambda args: "mcg.fold"),
        (magnus, "magnus_expand", lambda args: f"magnus.expand.cap{args[1]}"),
        (Word, "cyclic_reduce", lambda args: "word.cyclic_reduce"),
        (Word, "canonical_cyclic", lambda args: "word.canonical_cyclic"),
        (curve, "class_image", lambda args: "mcg.class_image"),
        (jfilt, "class_image", lambda args: "mcg.class_image"),
        (magnus.TruncatedAction, "compose",
         lambda args: f"magnus.action_compose.cap{args[0].cap}"),
    ]
    originals = []

    def recording(fn, name_of):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if kwargs:
                # recorded and replayed positionally
                args = signature.bind(*args, **kwargs).args
            name = name_of(args)
            if name not in calls:
                calls[name] = (fn, [])
            calls[name][1].append(args)
            return fn(*args)

        return wrapper

    for owner, attr, name_of in patches:
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, recording(fn, name_of))
    try:
        for op in ops:
            c1 = curve.parse_curve_spec(op["genus"], op["c1"])
            c2 = curve.parse_curve_spec(op["genus"], op["c2"])
            jfilt.classify_pair(c1, c2, op["cap"])
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return calls


#: Calls of each leading-term kernel in one replay.
LEAD_CALLS = 50


def lead_term_calls():
    """The leading-term kernels on fixed arguments, at genus 2 and 3.

    The word is the chain twists once each and then squared in reverse
    order, whose homology matrix has 14 of 16 entries nonzero at genus 2
    and 30 of 36 at genus 3.
    """
    calls = {}
    for genus in (2, 3):
        table = mcg.builtin_table(genus)
        chain = table.chain_names
        word = tuple((n, 1) for n in chain) + tuple((n, 2) for n in reversed(chain))
        d = curve.resolve(curve.CurveSpec(genus, "Sep1"))
        term = jfilt._curve_term(d, ())
        moved = jfilt._curve_term(d, word)
        calls[f"magnus.lead_transform.g{genus}"] = (
            jfilt._curve_term, [(d, word)] * LEAD_CALLS
        )
        calls[f"magnus.lead_bracket.g{genus}"] = (
            magnus.Derivation.bracket, [(term, moved)] * LEAD_CALLS
        )
    return calls


#: Passes over the chain brackets of magnus.chain_bracket.g2 in one replay.
CHAIN_CALLS = 2
#: Parsers built in one replay of cli.build_parser.
PARSER_CALLS = 20


def corollary_calls():
    """The corollary's kernels on fixed arguments: the brackets that form
    the leading terms of w_3, w_4 and w_5 at genus 2, each from t_a's
    term and the term before it (jfilt.nested_leading_terms), and the
    build of the CLI's argument parser, without the cache that keeps
    one per process."""
    a, b = (curve.parse_curve_spec(2, cli.COROLLARY_CURVES[k]) for k in "ab")
    d = curve.resolve(a)
    lead_a = jfilt._curve_term(d, d.conjugator_word)
    leads = list(itertools.islice(jfilt.nested_leading_terms(a, b), 4))
    return {
        "magnus.chain_bracket.g2": (
            magnus.Derivation.bracket,
            [(lead_a, lead) for lead in leads[1:]] * CHAIN_CALLS,
        ),
        "cli.build_parser": (inspect.unwrap(cli.build_parser), [()] * PARSER_CALLS),
    }


#: Separating curves whose crossing pairs give the Fox kernels' classes.
FOX_CURVES = 4
#: Passes over the classes of foxrep.jacobian.g2 in one replay.
FOX_CALLS = 10


def fox_calls():
    """The Fox kernels on fixed arguments, at genus 2."""
    curves = itertools.islice(curve.distinct_separating_curves(2), FOX_CURVES)
    crossing = [
        (a.twist, b.twist)
        for (_, a), (_, b) in itertools.combinations(curves, 2)
        if a.crosses(b)
    ]
    classes = [mcg.builtin_table(2).entry("Sep1").twist]
    classes += [f.compose(g) for f, g in crossing]
    matrices = [foxrep.magnus_rep(f) for f in classes]
    products = list(zip(matrices, matrices[1:] + matrices[:1]))
    both_ways = crossing + [(g, f) for f, g in crossing]
    return {
        "foxrep.jacobian.g2": (
            foxrep.magnus_rep, [(f,) for f in classes] * FOX_CALLS
        ),
        "foxrep.same_matrix.g2": (foxrep._same_matrix, both_ways * FOX_CALLS),
        "foxrep.rep_mul.g2": (foxrep.rep_mul, products),
    }


def _letters(args):
    """The letters of the Words in args and in its plain tuples."""
    return sum(
        len(a.letters) if isinstance(a, Word)
        else _letters(a) if type(a) is tuple else 0
        for a in args
    )


#: Passes of the speed loop in one replay.
LOOP_PASSES = 20


def replay(fn, arg_list):
    """Thread CPU seconds of one pass over the calls."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.thread_time()
        for args in arg_list:
            fn(*args)
        return time.thread_time() - t0
    finally:
        gc.enable()


def summary(times):
    """The least, the median and the quartiles of replay times."""
    q1, _, q3 = (statistics.quantiles(times, n=4) if len(times) > 1
                 else (times[0],) * 3)
    return {
        "min_s": round(min(times), 6),
        "median_s": round(statistics.median(times), 6),
        "q1_s": round(q1, 6),
        "q3_s": round(q3, 6),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    reference = workloads.load_reference()
    failed = {(p["genus"], p["c1"], p["c2"])
              for p in reference["pairs"] if p["error"]}
    ops, _ = workloads.build("pair-scan", args.seed, reference)
    ops = [op for op in ops if (op["genus"], op["c1"], op["c2"]) not in failed]
    calls = record(ops)
    calls.update(lead_term_calls())
    calls.update(corollary_calls())
    calls.update(fox_calls())

    speed = Speed()
    times = {name: [] for name in calls}
    ratios = {name: [] for name in calls}
    loop = []
    for _ in range(args.repeats):
        for name in sorted(calls):
            seconds = replay(*calls[name])
            # right after the kernel, so that both run at one host speed
            loop.append(replay(speed.sample, [()] * LOOP_PASSES))
            times[name].append(seconds)
            ratios[name].append(seconds / loop[-1])

    kernels = {}
    for name in sorted(calls):
        arg_list = calls[name][1]
        kernels[name] = {
            "calls": len(arg_list),
            "letters_in": sum(map(_letters, arg_list)),
            **summary(times[name]),
            "median_rel": round(statistics.median(ratios[name]), 4),
        }
    print(json.dumps({"seed": args.seed, "repeats": args.repeats,
                      "pairs": len(ops),
                      "loop": {"passes": LOOP_PASSES, **summary(loop)},
                      "kernels": kernels}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
