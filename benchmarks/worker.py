"""One repetition of a workload, in the fresh interpreter that runs this file.

Reads a JSON payload on stdin, imports twistlab from the checkout's
`src/`, loads the built-in twist tables (the timed set-up), then runs the
operations one after another, timing each, sampling the host's speed
while they run and passing each result through the correctness gate.
Writes one JSON object to stdout.  Payload keys: `mode` ("setup" or
"run"), `ops`, `expects`, `trace` and `spans_path`.

Gate outcome of an operation:
  ok     the result passed every check;
  error  no result: an exception escaped, the deadline passed, or the
         CLI exited with a code other than 0 or 1;
  wrong  a result that is not right: a cross-detector law is violated,
         the CLI reported a violation (exit 1) or an uncertified summary,
         or the result differs from the stored reference.
Both error and wrong count as failed.
"""

from __future__ import annotations

# Other imports wait until after the timed set-up, so that set-up pays
# only for what twistlab itself imports.
import json
import os
import sys
import time

# Times are the CPU time of this (only) thread, user plus system.  The
# benchmark runs on shared virtual machines whose hypervisor takes the
# CPU away in bursts (steal time, over half of some 5 s windows);
# elapsed time counts those bursts, CPU time does not.  For this
# single-threaded program, which waits on nothing, the two agree when
# nothing steals.  The thread clock, not the process clock: while the
# deadline's ITIMER_PROF is armed, the process clock advances in 4 ms
# ticks on Linux.
CLOCK = time.thread_time

# CPU time follows the host's speed, and that moves: with nothing stolen,
# the same operations took up to 2.5 times the CPU time, for minutes at
# a time and for fractions of a second.  So the worker samples the speed
# inside the operations: every SAMPLE_EVERY_S of CPU time, a SIGVTALRM
# handler times one pass of a fixed loop that runs no twistlab code (see
# Speed).  The passes' time is taken out of the operations' time, and
# run.py scales each operation by the mean pass during it, or by the
# SAMPLE_WINDOW passes nearest to it when fewer ran during it.  Set-up is
# too short to sample; SAMPLE_WINDOW passes right after it stand in.
SAMPLE_EVERY_S = 0.05
SAMPLE_WINDOW = 8

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class OpDeadline(BaseException):
    """Raised inside an operation whose deadline passed.

    A BaseException, so that no `except Exception` in the program can
    swallow it.
    """


def setup():
    """Import twistlab from the checkout and load its tables; seconds taken."""
    t0 = CLOCK()
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import twistlab.cli
    from twistlab.mcg import builtin_table

    for genus in (1, 2, 3):
        builtin_table(genus)
    elapsed = CLOCK() - t0
    if not os.path.abspath(twistlab.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(
            f"twistlab was imported from {twistlab.cli.__file__}, not from {SRC}"
        )
    return elapsed


class Speed:
    """CPU seconds of passes of a fixed pure-Python loop, the speed samples.

    The loop does in miniature what twistlab spends its time on, without
    calling it: free reduction of a list of signed letters, then counting
    tuple keys in a dict.  So a change to twistlab never moves it.
    """

    def __init__(self):
        import random

        rng = random.Random(0)
        self.letters = [rng.choice((1, -1, 2, -2, 3, -3, 4, -4))
                        for _ in range(3000)]
        self.samples = []
        self.spent = 0.0
        self.sample()  # the first pass runs cold; it is not a sample
        self.samples.clear()
        self.spent = 0.0

    def sample(self, signum=None, frame=None):
        t0 = CLOCK()
        stack = []
        for x in self.letters:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        counts = {}
        for i in range(len(stack) - 2):
            key = tuple(stack[i:i + 3])
            counts[key] = counts.get(key, 0) + 1
        seconds = CLOCK() - t0
        self.samples.append(seconds)
        self.spent += seconds

    def start(self):
        import signal

        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        import signal

        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def _pair(op):
    from twistlab import curve, jfilt

    c1 = curve.parse_curve_spec(op["genus"], op["c1"])
    c2 = curve.parse_curve_spec(op["genus"], op["c2"])
    return jfilt.classify_pair(c1, c2, op["cap"]).as_dict()


def _cli(op):
    import contextlib
    import io

    from twistlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(op["argv"]))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


RUNNERS = {"pair": _pair, "cli": _cli}


def verdict(report):
    """The part of a pair report the reference pins.

    The algebraic intersection number enters by absolute value only: its
    sign follows the arbitrary orientation of the canonical classes.
    """
    return {
        "commuting": report["commuting"],
        "braid": report["braid"],
        "algebraic_abs": abs(report["algebraic"]),
        "ijf_label": report["ijf_label"],
    }


def law_violations(report):
    """The exact cross-detector laws a pair report must satisfy."""
    kind = report["ijf"]["kind"]
    commuting = report["commuting"]
    algebraic = report["algebraic"]
    out = []
    if kind not in ("zero", "one", "exact", "at_least"):
        out.append(f"unknown depth kind {kind!r}")
    if commuting != (kind == "zero"):
        out.append("commuting iff depth zero")
    if (kind in ("exact", "at_least")) != (not commuting and algebraic == 0):
        out.append("depth >= 2 iff crossing with zero algebraic intersection")
    if (kind == "one") != (algebraic != 0):
        out.append("depth one iff nonzero algebraic intersection")
    if report["braid"] and not commuting and kind != "one":
        out.append("a braid pair has depth one")
    return out


def gate(op, value, expect):
    """(status, error type, detail) of a completed operation."""
    if op["kind"] == "pair":
        broken = law_violations(value)
        if broken:
            return "wrong", "LawViolation", "; ".join(broken)
        if expect["verdict"] is not None and verdict(value) != expect["verdict"]:
            return "wrong", "ReferenceMismatch", json.dumps(verdict(value))
        return "ok", None, ""
    rc = value["rc"]
    if rc != 0:
        status = "wrong" if rc == 1 else "error"
        return status, f"Exit{rc}", value["stderr"].strip()[-300:]
    try:
        doc = json.loads(value["stdout"])
    except ValueError as exc:
        return "wrong", "BadOutput", str(exc)
    if not isinstance(doc, dict) or not isinstance(doc.get("summary"), dict):
        return "wrong", "BadOutput", "no summary object in the output"
    if doc["summary"].get(op["flag"]) is not True:
        return "wrong", "NotCertified", f"summary {op['flag']} is not true"
    if expect["results"] is not None and doc.get("results") != expect["results"]:
        return "wrong", "ReferenceMismatch", "results differ from the reference"
    return "ok", None, ""


def _on_deadline(signum, frame):
    raise OpDeadline()


def execute(op, speed):
    """Run one operation under its deadline: (seconds, result, exception).

    The deadline counts CPU seconds too (ITIMER_PROF), so that stolen
    time cannot fail an operation.  The seconds leave out the passes of
    `speed` that ran during the operation.
    """
    import signal

    runner = RUNNERS[op["kind"]]
    previous = signal.signal(signal.SIGPROF, _on_deadline)
    value = exc = None
    spent = speed.spent
    t0 = CLOCK()
    try:
        signal.setitimer(signal.ITIMER_PROF, op["deadline_s"])
        try:
            value = runner(op)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except (Exception, SystemExit, OpDeadline) as caught:
        exc = caught
    seconds = CLOCK() - t0 - (speed.spent - spent)
    signal.signal(signal.SIGPROF, previous)
    return seconds, value, exc


def run_ops(ops, expects, speed):
    """Run and gate every operation in order, sampling the speed as they
    run; one outcome dict each.

    An outcome's `samples` are the [start, end) indices in
    `speed.samples` of the passes that ran during the operation.
    """
    from twistlab.errors import ConsistencyViolation

    outcomes = []
    speed.start()
    for index, (op, expect) in enumerate(zip(ops, expects)):
        first = len(speed.samples)
        t0 = time.perf_counter()
        seconds, value, exc = execute(op, speed)
        elapsed = time.perf_counter() - t0
        samples = [first, len(speed.samples)]
        if exc is None:
            status, error, detail = gate(op, value, expect)
        else:
            wrong = isinstance(exc, ConsistencyViolation)
            status = "wrong" if wrong else "error"
            error = type(exc).__name__
            detail = str(exc)[:300]
        outcomes.append({"op": index, "seconds": seconds, "elapsed": elapsed,
                         "status": status, "error": error, "detail": detail,
                         "samples": samples})
    speed.stop()
    return outcomes


def _cache_counts():
    """(hits, misses) of the lru caches behind `evaluate` and `resolve`."""
    from twistlab import curve, mcg

    counts = {}
    for key, module, word in (("mcg.evaluate", mcg, "evaluate"),
                              ("curve.resolve", curve, "resolve")):
        infos = [obj.cache_info() for name, obj in vars(module).items()
                 if word in name and hasattr(obj, "cache_info")]
        counts[key] = [sum(i.hits for i in infos), sum(i.misses for i in infos)]
    return counts


def run(payload):
    result = {"setup_s": setup()}
    speed = Speed()
    for _ in range(SAMPLE_WINDOW):
        speed.sample()
    result["samples"] = speed.samples
    if payload["mode"] == "setup":
        return result
    recorder = None
    if payload["trace"]:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    import resource

    def cpu_elsewhere():
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() - CLOCK() + children.ru_utime + children.ru_stime

    caches_before = _cache_counts()
    elsewhere = cpu_elsewhere()
    outcomes = run_ops(payload["ops"], payload["expects"], speed)
    elsewhere = cpu_elsewhere() - elsewhere
    caches_after = _cache_counts()
    timed = sum(o["seconds"] for o in outcomes) + speed.spent
    # The thread clock sees only work done on this thread (the process
    # clock's 4 ms ticks give the slack).
    if elsewhere > 0.1 + 0.02 * timed:
        raise RuntimeError(
            f"{elsewhere:.3f} CPU seconds ran in other threads or processes; "
            "the thread clock no longer measures the whole program"
        )

    result["outcomes"] = outcomes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["cache"] = {
        key: [after - before for after, before in zip(caches_after[key], caches_before[key])]
        for key in caches_after
    }
    if recorder is not None:
        result["layers"] = tracer.summarize(recorder.spans)
        recorder.write(payload["spans_path"])
    return result


def main():
    payload = json.load(sys.stdin)
    result = run(payload)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
