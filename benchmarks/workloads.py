"""Operation lists of the benchmark workloads, made from a workload seed.

An operation is a JSON object: the inputs the program receives, plus the
deadline after which the benchmark stops it and counts it as failed.
The expectation list returned beside the operations holds what the
correctness gate compares each result with; the program never sees it.
See WORKLOADS.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

WORKLOADS = ("pair-scan", "corollary-deep", "fox-torelli")

PAIR_CAP = 3
# A few pool pairs run for minutes without hitting the image-length cap
# (the braid label's products cancel as fast as they grow); the deadline
# turns each into a counted failure instead of a stalled run.
PAIR_DEADLINE_S = 5.0
CLI_DEADLINE_S = 60.0
# pair-scan: the pool pairs that do the most work carry most of the time
# of any sample that contains them, so they run for every seed and the
# seed draws the rest.  A plain random sample would swing wall_s by a
# third from seed to seed with how many heavy pairs it happened to draw.
# With 60 of them, the operations above the 90th percentile are the same
# for every seed.  Pairs that failed when the reference was made run for
# every seed too, so every known failure shows in every run.  The seed
# draws most of the light pairs, so that op_p50_ms depends little on
# which: drawing 300 of the 533, it moved by 7% either way between seeds.
HEAVY_PAIRS = 60
LIGHT_PAIRS = 400

COROLLARY_RUNS = ((2, 4), (2, 5), (2, 6), (3, 5))
FOX_ARGS = ("foxcheck", "--genus", "2", "--samples", "100",
            "--torelli-pairs", "20", "--suzuki-budget", "20")


def load_reference(path=REFERENCE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(argv):
    """Reference key of a CLI operation: its argv without `--seed N`.

    The checked results of `foxcheck` do not depend on its seed once
    every check passes, so one stored result serves every seed.
    """
    out = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--seed":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


def _pair_scan(rng, reference):
    pool = reference["pairs"]
    failed = [i for i, p in enumerate(pool) if p["error"]]
    rest = sorted(
        (i for i, p in enumerate(pool) if not p["error"]),
        key=lambda i: (-pool[i]["work"], i),
    )
    # pool order, the order a scan would meet them in: shuffling moved
    # the peak memory with whatever the caches held when a heavy pair ran
    chosen = sorted(failed + rest[:HEAVY_PAIRS]
                    + rng.sample(rest[HEAVY_PAIRS:], LIGHT_PAIRS))
    ops = [
        {"kind": "pair", "genus": pool[i]["genus"], "c1": pool[i]["c1"],
         "c2": pool[i]["c2"], "cap": PAIR_CAP, "deadline_s": PAIR_DEADLINE_S}
        for i in chosen
    ]
    expects = [{"verdict": pool[i]["verdict"]} for i in chosen]
    return ops, expects


def _cli_ops(argvs, flag, reference):
    ops = [
        {"kind": "cli", "argv": list(argv), "flag": flag,
         "deadline_s": CLI_DEADLINE_S}
        for argv in argvs
    ]
    expects = [
        {"results": reference["cli"].get(reference_key(argv))} for argv in argvs
    ]
    return ops, expects


def build(workload, seed, reference):
    """(operations, expectations) of a workload; the same seed, the same lists."""
    rng = random.Random(seed)
    if workload == "pair-scan":
        return _pair_scan(rng, reference)
    if workload == "corollary-deep":
        runs = list(COROLLARY_RUNS)
        rng.shuffle(runs)
        argvs = [
            ["corollary", "--genus", str(g), "--cap", str(cap)]
            for g, cap in runs
        ]
        return _cli_ops(argvs, "all_rows_certified", reference)
    if workload == "fox-torelli":
        argv = list(FOX_ARGS) + ["--seed", str(rng.randrange(2**31))]
        return _cli_ops([argv], "all_passed", reference)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
