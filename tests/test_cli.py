import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twistlab
from twistlab import __version__, cli, magnus, mcg
from twistlab.cli import main


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *args):
    rc, out = run(capsys, *args)
    return rc, json.loads(out)


def test_validate_passes_supported_genera(capsys):
    for g in mcg._SUPPORTED_GENERA:
        rc, doc = run_json(capsys, "validate", "--genus", str(g))
        assert rc == 0
        assert doc["schema"] == 1
        assert doc["version"] == __version__
        assert doc["summary"]["all_passed"] is True
        assert doc["summary"]["failures"] == 0


def test_validate_unsupported_genus_exits_2(capsys):
    rc = main(["validate", "--genus", "9"])
    assert rc == 2


def test_pair_disjoint(capsys):
    rc, doc = run_json(
        capsys, "pair", "--genus", "2", "--c1", "C1", "--c2", "C3"
    )
    assert rc == 0
    assert doc["results"]["ijf_label"] == "0"
    assert doc["results"]["commuting"] is True
    assert doc["config"]["cap"] == 3


def test_pair_adjacent_genus1(capsys):
    rc, doc = run_json(
        capsys, "pair", "--genus", "1", "--c1", "C1", "--c2", "C2"
    )
    assert rc == 0
    assert doc["results"]["ijf_label"] == "1"


def test_pair_separating_cap4(capsys):
    rc, doc = run_json(
        capsys,
        "pair", "--genus", "2",
        "--c1", "Sep1", "--c2", "Sep1 @ [C3]", "--cap", "4",
    )
    assert rc == 0
    assert doc["results"]["ijf_label"] == ">=5"
    assert doc["results"]["commuting"] is False


def test_pair_parse_error_exits_2(capsys):
    rc = main(["pair", "--genus", "2", "--c1", "C1 @ [", "--c2", "C2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "position" in err


def test_pair_non_ascii_exponent_exits_2(capsys):
    # a fullwidth 3 is not an exponent: \d would read it as 3
    rc = main(["pair", "--genus", "2", "--c1", "C1", "--c2", "C2 @ [C3^\uff13]"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at position 9" in captured.err


def test_pair_long_exponent_exits_2(capsys):
    # int() refuses more than 4300 digits by default, with a ValueError
    rc = main(["pair", "--genus", "2", "--c1", "C1 @ [C2^" + "1" * 5000 + "]",
               "--c2", "C2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:")
    assert "at position 9" in captured.err


def test_corollary_cap4(capsys):
    rc, doc = run_json(capsys, "corollary", "--cap", "4")
    assert rc == 0
    rows = doc["results"]
    assert rows[0]["m"] == 1
    assert rows[0]["in_tested_level"] is True
    assert rows[0]["tested_level"] == 4
    assert rows[0]["is_identity"] is False
    nd = doc["summary"]["finite_level_nondetection"]
    assert nd["commutator_in_level_kernel"] is True
    assert nd["commutator_is_identity"] is False
    # levels nondecreasing across nesting depth
    levels = [r["certified_level"] for r in rows if "certified_level" in r]
    assert levels == sorted(levels)


def test_corollary_cap_too_small(capsys):
    rc, doc = run_json(capsys, "corollary", "--cap", "3")
    assert rc == 0
    assert doc["results"] == []
    assert "cap too small" in doc["summary"]["note"]


@pytest.mark.parametrize("cap", ["0", "-2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["pair", "--genus", "2", "--c1", "C1", "--c2", "C2"],
        ["scan", "--genus", "2", "--samples", "2", "--seed", "1"],
        ["corollary", "--genus", "2"],
    ],
    ids=["pair", "scan", "corollary"],
)
def test_cap_below_one_exits_2(capsys, argv, cap):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cap", cap])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --cap: must be >= 1" in captured.err


def test_corollary_needs_genus_at_least_2(capsys):
    rc = main(["corollary", "--genus", "1", "--cap", "4"])
    assert rc == 2


def test_scan_deterministic(capsys):
    args = ["scan", "--genus", "2", "--cap", "2", "--samples", "12", "--seed", "5"]
    rc1, out1 = run(capsys, *args)
    rc2, out2 = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical


def test_long_conjugator_scan_at_genus_2_exits_0(capsys):
    # its pair 696 once passed the letter cap in the braid label's fold
    # of the words of t1 and t2 over the class of c1
    rc, out = run(
        capsys, "scan", "--genus", "2", "--cap", "5", "--samples", "1000",
        "--seed", "11", "--max-conjugator-len", "8",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["summary"]["violations"] == 0
    assert len(doc["results"]) == 1000


def test_scan_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--genus", "2", "--samples", "4"])
    assert exc.value.code == 2


def test_scan_summary_fields(capsys):
    rc, doc = run_json(
        capsys, "scan", "--genus", "2", "--cap", "2",
        "--samples", "10", "--seed", "9",
    )
    assert rc == 0
    assert doc["summary"]["violations"] == 0
    hist = doc["summary"]["ijf_histogram"]
    assert sum(hist.values()) == 10
    assert len(doc["results"]) == 10
    assert [r["index"] for r in doc["results"]] == list(range(10))


def test_foxcheck(capsys):
    rc, doc = run_json(
        capsys, "foxcheck", "--genus", "2", "--samples", "25",
        "--torelli-pairs", "6", "--seed", "1",
    )
    assert rc == 0
    assert doc["summary"]["all_passed"] is True
    assert doc["results"]["sep_twist_matrix_nontrivial"] is True
    assert doc["results"]["suzuki_hits"] == "skipped"


def test_foxcheck_with_suzuki_budget(capsys):
    rc, doc = run_json(
        capsys, "foxcheck", "--genus", "2", "--samples", "5",
        "--torelli-pairs", "2", "--seed", "1", "--suzuki-budget", "3",
    )
    assert rc == 0
    assert isinstance(doc["results"]["suzuki_hits"], list)


@pytest.mark.parametrize("genus", ["2", "3"])
def test_foxcheck_checks_torelli_once_and_composes_nothing(
    capsys, monkeypatch, genus
):
    # the pool is Torelli by construction and magnus_rep rejects any
    # class that is not, so no in_Mk guard; the pool is kept as words,
    # inverted and multiplied as words and read through evaluate, and
    # the Suzuki scan evaluates each twist from its word, so no
    # automorphism is composed, and none holds an inverse
    def forbidden(*args):
        raise AssertionError("called")

    assert not hasattr(cli, "in_Mk") and not hasattr(cli, "resolve")
    assert not hasattr(mcg.FreeAutomorphism, "inverse")
    monkeypatch.setattr(mcg.FreeAutomorphism, "compose", forbidden)
    rc, doc = run_json(
        capsys, "foxcheck", "--genus", genus, "--samples", "5",
        "--torelli-pairs", "6", "--seed", "3", "--suzuki-budget", "6",
    )
    assert rc == 0
    assert doc["summary"]["all_passed"] is True


def test_foxcheck_suzuki_scan_stays_under_the_letter_cap(capsys):
    # pair Sep1 @ [C3] / Sep1 @ [Sep1 C3^-1] has a commutator past the
    # 10^6-letter image cap, while its fg and gf stay short
    rc, doc = run_json(
        capsys, "foxcheck", "--genus", "2", "--samples", "5",
        "--torelli-pairs", "2", "--seed", "1", "--suzuki-budget", "30",
    )
    assert rc == 0
    assert isinstance(doc["results"]["suzuki_hits"], list)


def test_csv_output(capsys, tmp_path):
    out = tmp_path / "report.csv"
    rc = main([
        "pair", "--genus", "2", "--c1", "C1", "--c2", "C3",
        "--format", "csv", "--output", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    header, row = text.strip().splitlines()
    assert "ijf_label" in header.split(",")
    assert "0" in row.split(",")


def test_json_output_to_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["validate", "--genus", "1", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "validate"


@pytest.mark.parametrize(
    "argv",
    [
        ["pair", "--genus", "2", "--c1", "Foo", "--c2", "C1"],
        ["pair", "--genus", "2", "--c1", "Delta", "--c2", "C1"],
        ["pair", "--genus", "2", "--c1", "C1 @ [Foo]", "--c2", "C1"],
        ["scan", "--genus", "2", "--samples", "2", "--seed", "1",
         "--max-conjugator-len", "-1"],
        ["scan", "--genus", "2", "--samples", "2", "--seed", "1",
         "--jobs", "2"],
        ["foxcheck", "--genus", "0", "--samples", "1"],
        ["validate", "--genus", "1", "--output", "/nonexistent/x.json"],
        ["scan", "--genus", "2", "--seed", "1", "--samples", "-3"],
        ["foxcheck", "--genus", "2", "--samples", "-1"],
        ["foxcheck", "--genus", "2", "--torelli-pairs", "-1"],
        ["foxcheck", "--genus", "2", "--suzuki-budget", "-1"],
    ],
)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:  # rejected by argparse
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert [ln for ln in lines if "error:" in ln] == lines[-1:]


@pytest.mark.parametrize(
    "argv",
    [
        # a crossing pair of separating curves starts its depth loop at
        # cap 5, the first degree where its twists' products can differ
        ["pair", "--genus", "2", "--c1", "Sep1", "--c2", "Sep1 @ [C3]",
         "--cap", "5"],
        ["scan", "--genus", "2", "--cap", "4", "--samples", "20",
         "--seed", "3"],
    ],
    ids=["pair", "scan"],
)
def test_pair_depth_past_the_term_cap_exits_2_with_one_error_line(
    capsys, monkeypatch, argv
):
    monkeypatch.setattr(magnus, "MAX_SERIES_TERMS", 10)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: a series degree exceeded 10 terms")
    assert captured.err.count("\n") == 1


COROLLARY_ROW_KEYS = {
    "m", "element", "expected_min_level", "tested_level", "in_tested_level",
    "certified_level", "exact_depth", "is_identity",
    "acts_trivially_up_to_cap",
}


# At genus 2 the leading terms of t_a and t_b hold at most 12 terms per
# value, and the brackets of w_1 and w_2 at most 45 and 178.  So a cap of
# 40 terms per value stops row 1 while w_1's bracket is formed, and a cap
# of 150 certifies row 1 and stops row 2 at w_2's bracket.
@pytest.mark.parametrize("limit, rows_out", [(40, 1), (150, 2)])
def test_corollary_budget_stop_exits_2_with_full_rows(
    capsys, monkeypatch, limit, rows_out
):
    monkeypatch.setattr(magnus, "MAX_SERIES_TERMS", limit)
    rc = main(["corollary", "--genus", "2", "--cap", "6"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    doc = json.loads(captured.out)
    rows = doc["results"]
    assert [r["m"] for r in rows] == list(range(1, rows_out + 1))
    for row in rows[:-1]:
        assert set(row) == COROLLARY_ROW_KEYS
        assert row["in_tested_level"] is True
    stopped = rows[-1]
    assert set(stopped) == COROLLARY_ROW_KEYS | {"note"}
    assert stopped["in_tested_level"] is False
    assert stopped["certified_level"] is None
    assert stopped["exact_depth"] is None
    assert f"{limit} terms" in stopped["note"]
    assert doc["summary"]["all_rows_certified"] is False
    nd = doc["summary"]["finite_level_nondetection"]
    assert nd["commutator_in_level_kernel"] is (rows_out > 1)


def test_corollary_budget_stop_csv_keeps_every_column(capsys, monkeypatch):
    monkeypatch.setattr(magnus, "MAX_SERIES_TERMS", 150)
    rc = main(["corollary", "--genus", "2", "--cap", "6", "--format", "csv"])
    assert rc == 2
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["m"] for r in rows] == ["1", "2"]
    assert set(rows[0]) == COROLLARY_ROW_KEYS | {"note"}
    assert rows[0]["note"] == ""
    assert "not tested" in rows[1]["note"]


def test_corollary_past_the_term_cap_stops_fast_with_a_note_row(capsys):
    # at genus 2 the bracket of w_8 passes 50,000 terms in a value (w_7's
    # hold at most 49,536), so the rows stop at m = 8 of the 500 asked for
    start = time.process_time()
    rc = main(["corollary", "--genus", "2", "--cap", "1000"])
    spent = time.process_time() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: corollary row m=8:")
    assert captured.err.count("\n") == 1
    rows = json.loads(captured.out)["results"]
    assert [r["m"] for r in rows] == list(range(1, 9))
    row = rows[-1]
    assert set(row) == COROLLARY_ROW_KEYS | {"note"}
    assert row["in_tested_level"] is False
    assert row["is_identity"] is None
    assert spent < 10


def test_corollary_uncertified_identity_is_a_note_row(capsys, monkeypatch):
    # with b forged to equal a, w_1 = [t_a, t_a] is the identity: its
    # leading term [D_a, D_a] is zero, which proves only w_1 in M(5), so
    # the row must not read is_identity: false
    from twistlab import cli

    monkeypatch.setattr(cli, "COROLLARY_CURVES", {"a": "Sep1", "b": "Sep1"})
    rc = main(["corollary", "--genus", "2", "--cap", "4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: corollary row m=1:")
    assert captured.err.count("\n") == 1
    doc = json.loads(captured.out)
    [row] = doc["results"]
    assert set(row) == COROLLARY_ROW_KEYS | {"note"}
    assert row["is_identity"] is None
    assert row["certified_level"] == 4
    assert doc["summary"]["all_rows_certified"] is False
    assert doc["summary"]["finite_level_nondetection"][
        "commutator_is_identity"
    ] is None


def test_corollary_factor_outside_level_two_is_a_violation(capsys, monkeypatch):
    # C1 is disjoint from Sep1, so [t_a, C1] = 1, but C1 acts nontrivially
    # on homology: the bracket calculus does not apply and no row is read
    from twistlab import cli

    # a stays Sep1, b becomes C1
    monkeypatch.setattr(cli, "COROLLARY_CURVES", {"a": "Sep1", "b": "C1"})
    rc = main(["corollary", "--genus", "2", "--cap", "6"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("violation: a nested commutator factor")
    assert captured.err.count("\n") == 1


def test_corollary_evaluates_no_twist_and_expands_only_base_twists(
    capsys, monkeypatch
):
    # the corollary's terms are read from the curves' words: each is a
    # closed form in a homology matrix, so no twist is evaluated, no
    # action is built and nothing is expanded
    from twistlab import curve, jfilt, magnus, mcg
    from twistlab.magnus import TruncatedAction

    def no_evaluate(mcw, genus):
        raise AssertionError(f"corollary evaluated {mcw}")

    def no_action(cls, f, cap):
        raise AssertionError(f"corollary built the action of {f} at cap {cap}")

    def no_expand(w, cap):
        raise AssertionError(f"corollary expanded {w} at cap {cap}")

    for module in (mcg, curve, jfilt, twistlab.cli):
        monkeypatch.setattr(module, "evaluate", no_evaluate, raising=False)
    monkeypatch.setattr(TruncatedAction, "of", classmethod(no_action))
    monkeypatch.setattr(magnus, "magnus_expand", no_expand)
    for genus, caps in ((2, range(4, 10)), (3, (5,))):
        for cap in caps:
            curve._resolve_cached.cache_clear()
            rc, doc = run_json(
                capsys, "corollary", "--genus", str(genus), "--cap", str(cap)
            )
            assert rc == 0 and doc["summary"]["all_rows_certified"], (genus, cap)
    assert doc["summary"]["curves"] == {"a": "Sep1", "b": "Sep1 @ [C3]"}


def test_corollary_cap15_reads_every_level_from_brackets(capsys):
    start = time.process_time()
    rc, doc = run_json(capsys, "corollary", "--genus", "2", "--cap", "15")
    spent = time.process_time() - start
    assert rc == 0
    rows = doc["results"]
    assert [r["exact_depth"] for r in rows] == [4, 6, 8, 10, 12, 14, None]
    assert rows[-1]["certified_level"] == 15
    assert all(r["is_identity"] is False for r in rows)
    assert doc["summary"]["all_rows_certified"] is True
    assert spent < 5


def test_corollary_cap7_reaches_exact_depth_6(capsys):
    rc, doc = run_json(capsys, "corollary", "--genus", "2", "--cap", "7")
    assert rc == 0
    assert doc["summary"]["all_rows_certified"] is True
    assert [r["exact_depth"] for r in doc["results"]] == [4, 6, None]
    assert all(r["is_identity"] is False for r in doc["results"])


def test_pair_consistency_violation_exits_1_without_traceback(
    capsys, monkeypatch
):
    from twistlab import jfilt
    from twistlab.errors import ConsistencyViolation

    def broken(report):
        raise ConsistencyViolation(f"commuting <-> depth zero violated: {report}")

    monkeypatch.setattr(jfilt, "check_consistency", broken)
    rc = main(["pair", "--genus", "2", "--c1", "C1", "--c2", "C3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("violation: commuting <-> depth zero")


def test_long_conjugator_braid_pair_ends_within_a_bound():
    # the braid label folds the conjugators' factors over classes and
    # the depth composes the actions of h and t_c h^-1, so this pair
    # builds no twist, whose images cancel down below every letter
    # budget as they are built; it runs in a child process so that a
    # hang fails the test instead of stalling the suite
    src = Path(twistlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [
            sys.executable, "-m", "twistlab.cli", "pair", "--genus", "2",
            "--c1", "C1 @ [C2^9 Sep1^9 C3^9 C4^9 Sep1^-9 C3^9]", "--c2", "C2",
        ],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["ijf_label"] == "1"
    assert (results["braid"], results["algebraic"]) == (True, -1)


@pytest.mark.parametrize("c1", [
    "C1 @ [Delta^99999999999999999999]",
    "C3 @ [Sep1^-99999999999999999999 C3]",
])
def test_huge_twist_exponents_exit_2_at_once(c1):
    # a table twist's power t^k has an image longer than |k| letters, so
    # these pass the letter cap, which is read from the twist's closed
    # form before any image is built.  A child process, so that a hang
    # fails the test instead of stalling the suite
    src = Path(twistlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "twistlab.cli", "pair", "--genus", "2",
         "--c1", c1, "--c2", "C2"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "letters" in proc.stderr


def test_twist_powers_past_nine_run_in_process(capsys):
    # t^k(x_i) = c^(ak) x_i c^(bk) is built from the closed form, not by
    # squaring: Delta^1000 takes linear time, and Delta^100000, whose
    # images pass the letter cap, exits 2 before any is built.  Delta is
    # central, so conjugating by its power moves no curve.
    rc, doc = run_json(
        capsys, "pair", "--genus", "2", "--c1", "C1 @ [Delta^1000]", "--c2", "C2"
    )
    assert rc == 0
    rc, plain = run_json(capsys, "pair", "--genus", "2", "--c1", "C1", "--c2", "C2")
    assert rc == 0
    assert {**doc["results"], "c1": "C1"} == plain["results"]
    rc = main(
        ["pair", "--genus", "2", "--c1", "C1 @ [Delta^100000]", "--c2", "C2"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: Delta^100000 has an image of more than 1000000 letters\n"
    )


# -- fuzz: every call ends in a documented exit code ---------------------------

# names no table has, at any genus
FUZZ_UNKNOWN = ("C0", "C14", "Sep6", "T1", "c1", "Δ")
FUZZ_CHARS = "@[]^- 0x9é"


def _fuzz_spec(rng, genus):
    """A spec text: at most 5 factors with |k| <= 9, of names mostly from
    the genus's table (the nearest supported genus's outside 1..6) and
    otherwise unknown; a quarter of the texts have one character inserted
    or deleted."""
    table = mcg.builtin_table(min(max(genus, 1), 6))

    def name():
        return rng.choice(
            table.names() if rng.random() < 0.9 else FUZZ_UNKNOWN
        )

    factors = []
    for _ in range(rng.randrange(6)):
        k = rng.randint(-9, 9)
        factors.append(name() if k == 1 else f"{name()}^{k}")
    text = name()
    if factors:
        text += f" @ [{' '.join(factors)}]"
    if rng.random() < 0.25:
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5 and at < len(text):
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(FUZZ_CHARS) + text[at:]
    return text


def _fuzz_argv(rng):
    command = rng.choice(("validate", "pair", "corollary", "scan", "foxcheck"))
    genus = rng.randint(0, 7)
    argv = [command, "--genus", str(genus),
            "--format", rng.choice(("json", "csv"))]
    cap = ["--cap", str(rng.randint(0, 7))]
    if command == "pair":
        argv += ["--c1", _fuzz_spec(rng, genus), "--c2", _fuzz_spec(rng, genus)]
        argv += cap
    elif command == "corollary":
        argv += cap
    elif command == "scan":
        argv += cap + ["--samples", str(rng.randint(0, 3)),
                       "--seed", str(rng.randrange(100)),
                       "--max-conjugator-len", str(rng.randint(0, 3))]
    elif command == "foxcheck":
        argv += ["--samples", str(rng.randint(0, 5)),
                 "--torelli-pairs", str(rng.randint(0, 3)),
                 "--seed", str(rng.randrange(100)),
                 "--suzuki-budget", str(rng.randint(0, 4))]
    return argv


def test_fuzzed_cli_calls_exit_0_or_2(capsys):
    # 0 for a result and 2 for usage, parse or budget errors, from main
    # or from argparse; never 1, since no fuzzed input finds a property
    # violation, and never an exception
    rng = random.Random(5)
    codes = {}
    for _ in range(600):
        argv = _fuzz_argv(rng)
        try:
            rc = main(argv)
        except SystemExit as exc:  # rejected by argparse
            rc = exc.code
        capsys.readouterr()
        assert rc in (0, 2), argv
        codes[argv[0], rc] = codes.get((argv[0], rc), 0) + 1
    # every command both ran and was rejected
    assert len(codes) == 10, codes
