"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance here is exact (integer equality);
the runtime limits, in CPU seconds of the test process, are part of the
criteria.
"""

import itertools
import json
import random
import time

import pytest

from twistlab.cli import main
from twistlab.curve import CurveSpec, parse_curve_spec, resolve
from twistlab.errors import ConsistencyViolation
from twistlab.foxrep import LaurentPoly, magnus_rep, rep_identity, rep_mul
from twistlab.jfilt import classify_pair, check_consistency
from twistlab.mcg import (
    FreeAutomorphism,
    builtin_table,
    evaluate,
    inverse_mcw,
    validate_relations,
)
from twistlab.word import Word, abelianized

from references import (
    commutator_mcw,
    distinguishing_witness,
    fact5_instance,
    fox_derivative,
    in_Mk,
    is_central,
    johnson_depth,
    left_fold_evaluate,
    morita_check,
)


class Timer:
    """Process CPU time, which other load on the host does not inflate
    the way it does wall-clock time."""

    def __init__(self, limit_s):
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.process_time()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.process_time() - self.t0
        return False

    def report(self, number, text):
        line = f"criterion {number:02d} PASS ({self.elapsed:.2f}s < {self.limit}s): {text}"
        print(line)
        assert self.elapsed < self.limit, f"runtime limit exceeded: {line}"


def test_criterion_01_relation_gate():
    with Timer(30) as t:
        for genus in (1, 2, 3):
            report = validate_relations(genus)
            assert report.all_passed, [c.description for c in report.failures()]
    t.report(1, "relation suite green for genus 1, 2, 3")


def test_criterion_02_disjointness_commutator_fixtures():
    with Timer(5) as t:
        for genus in (1, 2, 3):
            table = builtin_table(genus)
            chain = [((n, 1),) for n in table.chain_names]
            for i, j in itertools.combinations(range(len(chain)), 2):
                comm = left_fold_evaluate(commutator_mcw(chain[i], chain[j]), genus)
                comm_trivial = comm.is_identity()
                if j == i + 1:
                    assert not comm_trivial, (genus, i, j)
                else:
                    assert comm_trivial, (genus, i, j)
    t.report(2, "chain twist commutators: identity iff non-adjacent")


def test_criterion_03_separating_twist_depth():
    with Timer(60) as t:
        d = johnson_depth(evaluate((("Sep1", 1),), 2), 3)
        assert (d.kind, d.level) == ("exact", 2)
    t.report(3, "separating twist sits exactly two levels deep at cap 3")


def _corollary_doc(cap, capsys):
    rc = main(["corollary", "--genus", "2", "--cap", str(cap)])
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_criterion_04_deep_commutator_exhibit(capsys):
    with Timer(120) as t:
        d_a = resolve(parse_curve_spec(2, "Sep1"))
        d_b = resolve(parse_curve_spec(2, "Sep1 @ [C3]"))
        comm = evaluate(commutator_mcw(d_a.twist_word, d_b.twist_word), 2)
        assert not comm.is_identity()
        assert in_Mk(comm, 4)  # in M(k) for every k <= 4
        doc = _corollary_doc(4, capsys)
        rows = doc["results"]
        assert rows and rows[0]["in_tested_level"] and not rows[0]["is_identity"]
    t.report(4, "separating pair commutator: nontrivial and in M(4)")


def test_criterion_05_relation_scan(capsys):
    with Timer(600) as t:
        rc = main([
            "scan", "--genus", "2", "--cap", "3", "--samples", "100",
            "--seed", "20250809", "--max-conjugator-len", "4",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["summary"]["violations"] == 0
        assert len(doc["results"]) == 100
    t.report(5, "100-pair scan: zero violations of the depth laws")


def test_criterion_06_morita_inclusion():
    with Timer(300) as t:
        rng = random.Random(606)
        table = builtin_table(2)
        names = table.chain_names + table.sep_names
        sep = evaluate((("Sep1", 1),), 2)

        def conj_sep():
            conj = tuple(
                (rng.choice(names), rng.choice((-1, 1)))
                for _ in range(rng.randrange(3))
            )
            g, back = evaluate(conj, 2), left_fold_evaluate(inverse_mcw(conj), 2)
            return g.compose(sep).compose(back)

        def torelli_word():
            f = conj_sep()
            if rng.random() < 0.5:
                f = f.compose(conj_sep())
            return f

        checked = 0
        while checked < 20:
            if checked % 2 == 0:
                f, kf = torelli_word(), 1
            else:
                f, kf = conj_sep(), 2
            g, kg = conj_sep(), 2
            assert morita_check(f, g, kf, kg)
            checked += 1
    t.report(6, "20 bracket samples all landed in the predicted level")


def test_criterion_07_separating_action_instances():
    with Timer(120) as t:
        delta = evaluate((("Delta", 1),), 2)
        assert fact5_instance(delta, 50) is None
        rng = random.Random(707)
        names = builtin_table(2).chain_names
        found = 0
        while found < 10:
            mcw = tuple(
                (rng.choice(names), rng.choice((-1, 1)))
                for _ in range(rng.randrange(1, 4))
            )
            f = evaluate(mcw, 2)
            if f.is_identity() or is_central(f):
                continue
            assert fact5_instance(f, 50) is not None, mcw
            found += 1
    t.report(7, "central class fixes all; 10 non-central classes move a curve")


WITNESS_PAIRS = [
    (2, "C1", "C3"),
    (2, "C1", "C4"),
    (2, "C2", "C4"),
    (2, "C2", "C5"),
    (2, "C1", "C1 @ [C2]"),
    (2, "Sep1", "Sep1 @ [C3]"),
    (2, "C4", "C4 @ [C5]"),
    (3, "C1", "C4"),
    (3, "C2", "C6"),
    (3, "Sep1", "Sep2"),
]


def test_criterion_08_distinguishing_witnesses():
    with Timer(120) as t:
        for genus, a, b in WITNESS_PAIRS:
            c1 = parse_curve_spec(genus, a)
            c2 = parse_curve_spec(genus, b)
            d = distinguishing_witness(c1, c2, 100)
            assert d is not None, (genus, a, b)
            td = resolve(d).twist
            t1 = resolve(c1).twist
            t2 = resolve(c2).twist
            first = t1.compose(td) == td.compose(t1)
            second = t2.compose(td) == td.compose(t2)
            assert first != second
    t.report(8, "witness found for all 10 distinct-curve fixture pairs")


def test_criterion_09_fox_and_magnus_representation():
    with Timer(120) as t:
        rng = random.Random(909)

        def rand_word():
            n = rng.randrange(0, 12)
            return Word(
                2, tuple(rng.choice([1, -1]) * rng.randrange(1, 5) for _ in range(n))
            )

        for _ in range(100):
            u, v = rand_word(), rand_word()
            mono_u = LaurentPoly.monomial(2, abelianized(u))
            for i in range(1, 5):
                assert fox_derivative(u * v, i) == fox_derivative(u, i) + (
                    mono_u * fox_derivative(v, i)
                )
            acc = LaurentPoly(2)
            for i in range(1, 5):
                ti = [0, 0, 0, 0]
                ti[i - 1] = 1
                acc = acc + fox_derivative(u, i) * (
                    LaurentPoly.monomial(2, ti) - LaurentPoly.one(2)
                )
            assert acc == LaurentPoly.monomial(2, abelianized(u)) - LaurentPoly.one(2)

        sep = evaluate((("Sep1", 1),), 2)
        assert magnus_rep(sep) != rep_identity(2)

        table = builtin_table(2)
        names = table.chain_names + table.sep_names
        pool = [sep, left_fold_evaluate((("Sep1", -1),), 2)]
        while len(pool) < 8:
            conj = tuple(
                (rng.choice(names), rng.choice((-1, 1)))
                for _ in range(rng.randrange(3))
            )
            g, back = evaluate(conj, 2), left_fold_evaluate(inverse_mcw(conj), 2)
            f = g.compose(sep).compose(back)
            if not f.is_identity():
                pool.append(f)
        for _ in range(20):
            f, g = rng.choice(pool), rng.choice(pool)
            assert magnus_rep(f.compose(g)) == rep_mul(
                magnus_rep(f), magnus_rep(g)
            )
    t.report(9, "derivative identities, multiplicativity, nontrivial matrix")


def test_criterion_10_finite_level_blindness(capsys):
    with Timer(60) as t:
        doc = _corollary_doc(4, capsys)
        nd = doc["summary"]["finite_level_nondetection"]
        assert nd["level"] == 4
        assert nd["commutator_in_level_kernel"] is True
        assert nd["commutator_is_identity"] is False
    t.report(10, "level-4 action misses a nontrivial commutator (recorded)")


def test_supplement_cap5_degree5_check(capsys):
    # not a numbered criterion: the soft cap-5 target.  The degree-5
    # expansion certifies the base commutator leaves M(5), pinning the
    # pair's depth value at exactly 5.
    with Timer(600) as t:
        doc = _corollary_doc(5, capsys)
        assert doc["results"][0]["exact_depth"] == 4
        assert doc["results"][1]["certified_level"] == 5
    t.report(0, "base commutator depth is exactly 4 at cap 5 (supplement)")


def test_criterion_11_scan_determinism(capsys):
    with Timer(60) as t:
        args = [
            "scan", "--genus", "2", "--cap", "2",
            "--samples", "15", "--seed", "42",
        ]
        rc1 = main(args)
        out1 = capsys.readouterr().out
        rc2 = main(args)
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1 == out2
    t.report(11, "seeded scan output is byte-identical across runs")
