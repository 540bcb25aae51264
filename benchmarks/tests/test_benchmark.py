"""Tests of the benchmark's own machinery; they run no workload."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def test_same_seed_gives_byte_identical_operation_list(reference):
    for name in workloads.WORKLOADS:
        first = json.dumps(workloads.build(name, 7, reference), sort_keys=True)
        again = json.dumps(workloads.build(name, 7, reference), sort_keys=True)
        assert first.encode() == again.encode()
    for name in ("pair-scan", "fox-torelli"):
        assert workloads.build(name, 7, reference) != workloads.build(name, 8, reference)


def test_known_failures_run_for_every_seed(reference):
    pool = reference["pairs"]
    failing = {(p["c1"], p["c2"]) for p in pool if p["error"]}
    assert failing, "the reference pool records its failing pairs"
    assert "corollary --genus 2 --cap 6" not in reference["cli"]
    for seed in range(20):
        ops, _ = workloads.build("pair-scan", seed, reference)
        assert failing <= {(op["c1"], op["c2"]) for op in ops}
        ops, _ = workloads.build("corollary-deep", seed, reference)
        assert ["corollary", "--genus", "2", "--cap", "6"] in [op["argv"] for op in ops]


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [
        ["root", -1, 0.0, 10.0, 0, 0, 0, 0],
        ["a", 0, 1.0, 4.0, 0, 0, 0, 0],
        ["c", 1, 2.0, 3.0, 0, 0, 0, 0],
        ["b", 0, 5.0, 9.0, 0, 0, 0, 0],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    summary = tracer.summarize(spans + [["a", 3, 6.0, 6.5, 2, 5, 0, 0]])
    assert summary["a"]["calls"] == 2
    assert summary["a"]["self_s"] == pytest.approx(2.5)
    assert summary["b"]["self_s"] == pytest.approx(3.5)
    assert summary["a"]["under"] == {"root": 3.0, "b": 0.5}
    assert summary["a"]["peak_letters"] == 5


def test_recorder_wraps_every_namespace_and_restores():
    worker.setup()
    from twistlab import cli, jfilt
    from twistlab.curve import parse_curve_spec
    from twistlab.mcg import FreeAutomorphism

    originals = (jfilt.classify_pair, cli.classify_pair, FreeAutomorphism.__call__)
    recorder = tracer.Recorder()
    restore = tracer.install(recorder)
    try:
        assert cli.classify_pair is jfilt.classify_pair is not originals[0]
        c1, c2 = parse_curve_spec(2, "C1"), parse_curve_spec(2, "C2 @ [C3]")
        jfilt.classify_pair(c1, c2, 2)
    finally:
        restore()
    assert (jfilt.classify_pair, cli.classify_pair, FreeAutomorphism.__call__) == originals
    summary = tracer.summarize(recorder.spans)
    assert summary["jfilt.classify_pair"]["calls"] == 1
    assert summary["mcg.compose"]["under"]["jfilt.classify_pair"] > 0
    assert summary["mcg.call"]["letters_out"] > 0
    assert summary["magnus.expand"]["terms_out"] > 0


def test_times_are_scaled_by_the_speed_samples():
    ref, w = run.REFERENCE_PASS_S, worker.SAMPLE_WINDOW

    def rep(seconds, samples, ranges):
        outcomes = [{"seconds": s, "status": "ok", "samples": r}
                    for s, r in zip(seconds, ranges)]
        return {"outcomes": outcomes, "samples": samples,
                "setup_s": seconds[0], "peak_rss_mb": 1.0}

    # the same work on a host at full and at half speed
    unsampled = [[w, w]] * 3
    fast = rep([1.0, 2.0, 9.0], [ref] * w, unsampled)
    slow = rep([2.0, 4.0, 18.0], [2 * ref] * w, unsampled)
    # a host that halves its speed after the set-up samples: the first
    # operation falls between the two speeds, the last is sampled itself
    slowing = rep([1.5, 4.0, 18.0], [ref] * w + [2 * ref] * w,
                  [[w, w], [2 * w, 2 * w], [w, 2 * w]])
    assert run.op_seconds(slowing) == pytest.approx([1.0, 2.0, 9.0])
    metrics = run.end_to_end([slow], [fast, slow, slowing])
    assert metrics["wall_s"] == pytest.approx(12.0)
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert metrics["op_p50_ms"] == pytest.approx(2000.0)
    assert metrics["op_p90_ms"] == pytest.approx(9000.0)
    assert run.percentile([5.0], 90) == 5.0
    # of ranks 0..100, 88 to 92 lie within two percentiles of the 90th;
    # near the top the band is cut off at the last rank
    assert run.percentile(range(101), 90) == pytest.approx(90.0)
    assert run.percentile(range(101), 99) == pytest.approx(98.5)
    assert run.percentile(list(range(100)) + [10**6], 90) == pytest.approx(90.0)


def test_speed_passes_run_inside_operations_and_are_left_out(monkeypatch):
    import time

    def spin(op):
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.3:
            sum(range(10000))  # user time: the sampling timer counts only that
        return {"rc": 0, "stdout": '{"summary": {"flag": true}}', "stderr": ""}

    monkeypatch.setitem(worker.RUNNERS, "spin", spin)
    speed = worker.Speed()
    op = {"kind": "spin", "flag": "flag", "deadline_s": 30.0}
    [outcome] = worker.run_ops([op], [{"results": None}], speed)
    start, end = outcome["samples"]
    assert end - start >= 3 and len(speed.samples) == end
    assert speed.spent == pytest.approx(sum(speed.samples))
    assert outcome["status"] == "ok"
    assert outcome["seconds"] == pytest.approx(0.3 - speed.spent, abs=0.01)


def test_injected_failing_operation_counts_as_failed():
    worker.setup()
    good = {"kind": "pair", "genus": 2, "c1": "C1", "c2": "C3", "cap": 2,
            "deadline_s": 30.0}
    expect = {"verdict": {"commuting": True, "braid": False,
                          "algebraic_abs": 0, "ijf_label": "0"}}
    broken = dict(good, c2="C3 @ [C9]")  # no twist C9 at genus 2
    mismatch = {"verdict": dict(expect["verdict"], ijf_label="1")}
    speed = worker.Speed()
    speed.sample()
    outcomes = worker.run_ops([good, broken, good], [expect, expect, mismatch], speed)
    assert [o["status"] for o in outcomes] == ["ok", "error", "wrong"]
    assert outcomes[1]["error"] == "UnknownTwistName"
    assert outcomes[2]["error"] == "ReferenceMismatch"
    rep = {"outcomes": outcomes, "setup_s": 0.1, "peak_rss_mb": 1.0,
           "samples": speed.samples * worker.SAMPLE_WINDOW}
    assert run.tally([rep]) == (3, 2, 1)
    assert run.failed_share([rep]) == pytest.approx(2 / 3)
    rate = 1 / sum(run.op_seconds(rep))
    assert run.end_to_end([], [rep])["ops_per_s"] == pytest.approx(rate)


def test_gate_sorts_cli_and_law_failures():
    op = {"kind": "cli", "flag": "all_passed"}
    none = {"results": None}
    doc = {"summary": {"all_passed": True}, "results": {"x": 1}}

    def cli(rc, out=""):
        return {"rc": rc, "stdout": out, "stderr": "message\n"}

    assert worker.gate(op, cli(2), none)[:2] == ("error", "Exit2")
    assert worker.gate(op, cli(1), none)[:2] == ("wrong", "Exit1")
    assert worker.gate(op, cli(0, "not json"), none)[:2] == ("wrong", "BadOutput")
    assert worker.gate(op, cli(0, "[]"), none)[:2] == ("wrong", "BadOutput")
    uncertified = json.dumps({"summary": {"all_passed": False}})
    assert worker.gate(op, cli(0, uncertified), none)[:2] == ("wrong", "NotCertified")
    assert worker.gate(op, cli(0, json.dumps(doc)), {"results": {"x": 2}})[:2] == (
        "wrong", "ReferenceMismatch")
    assert worker.gate(op, cli(0, json.dumps(doc)), {"results": {"x": 1}})[0] == "ok"

    report = {"commuting": True, "braid": False, "algebraic": 0,
              "ijf": {"kind": "one", "value": None}, "ijf_label": "1"}
    assert worker.gate({"kind": "pair"}, report, {"verdict": None})[:2] == (
        "wrong", "LawViolation")


def test_work_outside_the_timed_thread_fails_the_run(monkeypatch):
    import threading
    import time

    def burn():
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.2:
            pass

    def threaded(op):
        helper = threading.Thread(target=burn)
        helper.start()
        helper.join(timeout=30)
        assert not helper.is_alive()
        return {"rc": 0, "stdout": '{"summary": {"flag": true}}', "stderr": ""}

    monkeypatch.setitem(worker.RUNNERS, "threaded", threaded)
    op = {"kind": "threaded", "flag": "flag", "deadline_s": 30.0}
    with pytest.raises(RuntimeError, match="other threads"):
        worker.run({"mode": "run", "ops": [op], "expects": [{"results": None}],
                    "trace": False})


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
