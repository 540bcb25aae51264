"""Regenerate benchmarks/reference.json, the correctness gate's reference.

    python3 benchmarks/make_reference.py

Draws the pair pool the way `twistlab scan` draws pairs (a random
essential base curve moved by 0-4 twist factors with exponents +-1 or
+-2) from a fixed pool seed, at genus 2 and 3 alike, and classifies
every pair at cap 3 with the benchmark's own deadline.  Stores for each
pair its verdict, or the error that stopped it, and its work: the
letters produced by automorphism application while classifying it,
which is how the workloads tell heavy pairs from light ones.  Then runs
each CLI operation of the workloads once and stores its `results`.

Run it only when the program's verdicts are meant to change; a failure
is stored as the error it raised, never left out.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import worker
import workloads

# execute() takes out the passes of a speed sampler; this one never runs.
IDLE = worker.Speed()
POOL_SEED = 1504
POOL_SIZE = 600
MAX_CONJUGATOR_FACTORS = 4


def _pool(counter):
    from twistlab.cli import _random_spec
    from twistlab.mcg import builtin_table

    rng = random.Random(POOL_SEED)
    pairs = []
    for index in range(POOL_SIZE):
        genus = rng.choice((2, 3))
        table = builtin_table(genus)
        c1, c2 = (
            _random_spec(rng, genus, table, MAX_CONJUGATOR_FACTORS).to_text()
            for _ in range(2)
        )
        op = {"kind": "pair", "genus": genus, "c1": c1, "c2": c2,
              "cap": workloads.PAIR_CAP,
              "deadline_s": workloads.PAIR_DEADLINE_S}
        counter[0] = 0
        seconds, value, exc = worker.execute(op, IDLE)
        entry = {"genus": genus, "c1": c1, "c2": c2,
                 "work": counter[0], "verdict": None, "error": None}
        if exc is not None:
            entry["error"] = type(exc).__name__
            if isinstance(exc, worker.OpDeadline):
                entry["work"] = None
        elif worker.law_violations(value):
            sys.exit(f"pair {index} violates the laws: {value}")
        else:
            entry["verdict"] = worker.verdict(value)
        pairs.append(entry)
        print(f"pair {index}: {seconds:.3f}s work={entry['work']} "
              f"error={entry['error']}", file=sys.stderr)
    return pairs


def _cli_reference():
    argvs = [
        ["corollary", "--genus", str(g), "--cap", str(cap)]
        for g, cap in workloads.COROLLARY_RUNS
    ]
    argvs.append(list(workloads.FOX_ARGS) + ["--seed", "0"])
    results, failures = {}, {}
    for argv in argvs:
        key = workloads.reference_key(argv)
        op = {"kind": "cli", "argv": argv,
              "deadline_s": workloads.CLI_DEADLINE_S}
        seconds, value, exc = worker.execute(op, IDLE)
        print(f"{key}: {seconds:.3f}s", file=sys.stderr)
        if exc is not None:
            failures[key] = type(exc).__name__
            continue
        if value["rc"] != 0:
            failures[key] = f"Exit{value['rc']}"
            continue
        results[key] = json.loads(value["stdout"])["results"]
    return results, failures


def main():
    worker.setup()
    import twistlab
    from twistlab.mcg import FreeAutomorphism

    counter = [0]
    apply = FreeAutomorphism.__call__

    def counting(self, w):
        image = apply(self, w)
        counter[0] += len(image.letters)
        return image

    FreeAutomorphism.__call__ = counting
    try:
        pairs = _pool(counter)
    finally:
        FreeAutomorphism.__call__ = apply
    cli, failures = _cli_reference()
    doc = {
        "generated_by": "python3 benchmarks/make_reference.py",
        "twistlab_version": twistlab.__version__,
        "pool": {"seed": POOL_SEED, "size": POOL_SIZE,
                 "max_conjugator_factors": MAX_CONJUGATOR_FACTORS,
                 "cap": workloads.PAIR_CAP,
                 "deadline_s": workloads.PAIR_DEADLINE_S},
        "pairs": pairs,
        "cli": cli,
        "cli_failures": failures,
    }
    # one pool pair per line, so that a changed verdict is a one-line diff
    body = json.dumps(doc, sort_keys=True, indent=1)
    rows = ",\n  ".join(json.dumps(p, sort_keys=True) for p in pairs)
    body = body.replace(json.dumps(pairs, indent=1).replace("\n", "\n "),
                        "[\n  " + rows + "\n ]", 1)
    Path(workloads.REFERENCE).write_text(body + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
