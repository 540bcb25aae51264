"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload pair-scan --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The operation list is made from
the seed (see workloads.py).  Every repetition of it runs in a fresh
interpreter (worker.py), because twistlab's caches start cold in every
invocation.  Times are CPU time of the worker's thread (see worker.CLOCK),
scaled to a reference speed by a fixed loop that each worker times while
its operations run (see worker.Speed and REFERENCE_PASS_S).  The raw CPU
and elapsed time of each repetition go to the report beside them.  Set-up
is timed in each of those interpreters and in a few more that do nothing
else.  Repetitions continue while another one fits in `--seconds`; there
is always at least one.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics.  With `--trace 1` each untraced repetition is
followed by a traced one, and the object carries the per-layer metrics
of the traced repetitions, the tracing overhead and the failed share.
The lines before it name each metric with its unit, list every failed
operation by error type, and give the run facts.  The full report goes
to benchmarks/out/.  If the program or the correctness gate cannot run,
the exit code is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_ONLY_RUNS = 15
# Every run must end within 180 s; the rest is margin for the parent.
RUN_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("mcg.call.calls", "count", "lower"),
    ("mcg.call.self_s", "s", "lower"),
    ("mcg.call.letters_out", "letters", "lower"),
    ("mcg.call.peak_letters", "letters", "lower"),
    ("mcg.compose.calls", "count", "lower"),
    ("mcg.compose.self_s", "s", "lower"),
    ("mcg.compose.under_classify_pair_s", "s", "lower"),
    ("mcg.evaluate.hit_ratio", "ratio", "higher"),
    ("magnus.expand.calls", "count", "lower"),
    ("magnus.expand.self_s", "s", "lower"),
    ("magnus.expand.letters_in", "letters", "lower"),
    ("magnus.expand.terms_out", "terms", "lower"),
    ("word.cyclic_reduce.calls", "count", "lower"),
    ("word.cyclic_reduce.self_s", "s", "lower"),
    ("word.cyclic_reduce.letters_in", "letters", "lower"),
    ("curve.resolve.calls", "count", "lower"),
    ("curve.resolve.self_s", "s", "lower"),
    ("curve.resolve.hit_ratio", "ratio", "higher"),
    ("jfilt.classify_pair.self_s", "s", "lower"),
    ("jfilt.commutator_depth.self_s", "s", "lower"),
    ("jfilt.in_Mk.calls", "count", "lower"),
    ("jfilt.in_Mk.self_s", "s", "lower"),
    ("foxrep.fox_derivative.self_s", "s", "lower"),
    ("foxrep.fox_derivative.letters_in", "letters", "lower"),
    ("foxrep.magnus_rep.self_s", "s", "lower"),
    ("foxrep.suzuki_scan.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.bytes_out", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("failed_share", "ratio", "lower"),
)

# metric -> (span name, name of the direct parent its spans are summed under)
UNDER = {"mcg.compose.under_classify_pair_s": ("mcg.compose", "jfilt.classify_pair")}


# CPU seconds one pass of worker.Speed's loop takes at the reference
# speed: about the fastest it ran on the 2-vCPU Xeon virtual machine the
# benchmark was written on.  Every time the benchmark reports is the
# worker's CPU time multiplied by this over the mean pass timed with it,
# so it reads as seconds at that speed.
REFERENCE_PASS_S = 0.001


class BenchError(Exception):
    """The benchmark itself could not run; no result may be printed."""


def percentile(values, q):
    """The mean of the values ranked within two percentiles of the q-th.

    An operation is timed once per repetition, and its time moves with the
    host's speed while it runs.  The mean over its neighbours in rank moves
    less: over the same six repetitions of the pair pool, it narrowed the
    range of the 90th percentile from 13-16% of its median to 5-7%.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    lo, hi = (round((q + d) / 100 * last) for d in (-2, 2))
    return statistics.fmean(ordered[lo:hi + 1])


def speed(samples, start=0, end=None):
    """Factor that turns CPU seconds into reference seconds: from the speed
    samples with indices in [start, end), or from the worker.SAMPLE_WINDOW
    samples nearest to that range when it holds fewer."""
    end = len(samples) if end is None else end
    width = worker.SAMPLE_WINDOW
    if end - start < width:
        start = max(0, min(start - (width - (end - start)) // 2, len(samples) - width))
        end = start + width
    return REFERENCE_PASS_S / statistics.fmean(samples[start:end])


def op_seconds(rep):
    """Reference seconds of each operation of a repetition."""
    return [o["seconds"] * speed(rep["samples"], *o["samples"])
            for o in rep["outcomes"]]


def end_to_end(setups, reps):
    """The end-to-end metrics of untraced repetitions and set-up samples.

    Each operation's time is its median over the repetitions, so a
    slowdown of the machine during one repetition moves it less.
    """
    per_op = [statistics.median(times) for times in zip(*map(op_seconds, reps))]
    wall = sum(per_op)
    return {
        "setup_s": statistics.median(
            s["setup_s"] * speed(s["samples"], 0, 0) for s in setups + reps),
        "wall_s": wall,
        "ops_per_s": statistics.median(
            sum(o["status"] == "ok" for o in r["outcomes"]) for r in reps
        ) / wall,
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_p90_ms": 1000 * percentile(per_op, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def tally(reps):
    """(attempted, failed, wrong) over every operation of every repetition."""
    outcomes = [o for r in reps for o in r["outcomes"]]
    failed = sum(o["status"] != "ok" for o in outcomes)
    wrong = sum(o["status"] == "wrong" for o in outcomes)
    return len(outcomes), failed, wrong


def failed_share(reps):
    attempted, failed, _ = tally(reps)
    return failed / attempted


def _layer_value(name, rep):
    layers = rep["layers"]
    if name in UNDER:
        span, parent = UNDER[name]
        return layers.get(span, {}).get("under", {}).get(parent, 0.0) * speed(rep["samples"])
    if name.endswith(".hit_ratio"):
        hits, misses = rep["cache"][name[: -len(".hit_ratio")]]
        return hits / (hits + misses) if hits + misses else 0.0
    span, field = name.rsplit(".", 1)
    value = layers.get(span, {}).get(field, 0)
    return value * speed(rep["samples"]) if field.endswith("_s") else value


def per_layer(reps, traced):
    """Per-layer metrics: low medians (so counts stay whole) over the
    traced repetitions."""
    out = {}
    for name, _, _ in PER_LAYER:
        if name in ("trace.overhead_s", "failed_share"):
            continue
        out[name] = statistics.median_low(_layer_value(name, r) for r in traced)
    walls = [sum(op_seconds(r)) for r in reps]
    traced_walls = [sum(op_seconds(r)) for r in traced]
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    out["failed_share"] = failed_share(reps + traced)
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_facts(args, n_ops):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "operations": n_ops,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Children:
    """Starts worker interpreters, each waited for, within the run limit."""

    def __init__(self, limit_s):
        self.deadline = time.monotonic() + limit_s
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        # Set-up is timed as an installed twistlab runs: from the bytecode
        # the first worker caches, not by compiling the sources each time.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, payload):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("the run used up its time limit")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps(payload), capture_output=True, text=True,
                cwd=ROOT, env=self.env, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("a worker outlived the run's time limit") from None
        if proc.returncode != 0:
            raise BenchError(
                f"worker exited with code {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        lines = proc.stdout.splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            raise BenchError(f"worker printed no result:\n{proc.stderr[-3000:]}") from None


def measure(args, ops, expects, spans_path):
    children = Children(RUN_LIMIT_S)
    setups = [children.run({"mode": "setup"}) for _ in range(SETUP_ONLY_RUNS)]
    payload = {"mode": "run", "ops": ops, "expects": expects, "trace": False}
    traced_payload = dict(payload, trace=True, spans_path=str(spans_path))
    reps, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(children.run(payload))
        if args.trace:
            traced.append(children.run(traced_payload))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            return setups, reps, traced


def failure_lines(ops, reps):
    """One line per failing operation: its index, error type and reps."""
    seen = {}
    for r in reps:
        for o in r["outcomes"]:
            if o["status"] != "ok":
                key = (o["op"], o["status"], o["error"])
                seen.setdefault(key, [0, o["detail"]])[0] += 1
    lines = []
    for (index, status, error), (count, detail) in sorted(seen.items()):
        op = ops[index]
        what = (f"{op['c1']} | {op['c2']} (genus {op['genus']})"
                if op["kind"] == "pair" else " ".join(op["argv"]))
        lines.append(f"failed op {index} [{status} {error}] x{count}: {what}"
                     f" -- {detail.splitlines()[-1] if detail else ''}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "twistlab" / "__init__.py").is_file():
            raise BenchError(f"no twistlab sources under {ROOT / 'src'}")
        reference = workloads.load_reference()
        ops, expects = workloads.build(args.workload, args.seed, reference)
        facts = run_facts(args, len(ops))
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        setups, reps, traced = measure(
            args, ops, expects, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        )
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted, failed, wrong = tally(reps + traced)
    if args.trace:
        metrics = per_layer(reps, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(setups, reps)
        units = dict(END_TO_END)
    failures = failure_lines(ops, reps + traced)
    report = {
        "facts": facts,
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "op_samples": len(ops),
        "elapsed_s": [sum(o["elapsed"] for o in r["outcomes"]) for r in reps],
        "cpu_s": [sum(o["seconds"] for o in r["outcomes"]) for r in reps],
        "mean_pass_s": [
            REFERENCE_PASS_S / speed(r["samples"]) for r in setups + reps + traced
        ],
        "reference_s": [sum(op_seconds(r)) for r in reps],
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"operations {len(ops)} per repetition (the op_p50_ms/op_p90_ms"
          f" sample count); repetitions {len(reps)} untraced, {len(traced)} traced")
    for line in failures:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
