import itertools
import json
import random
from pathlib import Path

import pytest

from twistlab import curve, jfilt, magnus, mcg
from twistlab.cli import _random_spec
from twistlab.curve import (
    CurveSpec,
    distinct_separating_curves,
    enumerate_curve_specs,
    parse_curve_spec,
    resolve,
    symplectic_pairing,
)
from twistlab.errors import (
    ConsistencyViolation,
    PreconditionError,
    SeriesTermLimit,
    WordLengthLimit,
)
from twistlab.jfilt import (
    JFDepth,
    action_depth,
    check_consistency,
    classify_pair,
    nested_leading_terms,
)
from twistlab.magnus import TruncatedAction, magnus_expand
from twistlab.mcg import (
    FreeAutomorphism,
    builtin_table,
    evaluate,
    homology_action,
    identity_matrix,
    inverse_mcw,
)
from twistlab.word import Word

from references import (
    braid_by_whole_word,
    commutator,
    commutator_depth,
    commutator_mcw,
    commutes,
    distinguishing_witness,
    fact5_instance,
    fact5_instance_by_commutes,
    golden_pairs,
    homogeneous_part,
    in_Mk,
    is_central,
    is_central_by_commutes,
    johnson_depth,
    johnson_leading_term,
    leading,
    left_fold_evaluate,
    morita_check,
    moves_by_conjugator,
    pair_depth_from_homology_start,
    pool_pairs,
    separating_term_by_transform,
    table_power,
    transform,
    two_class_depth,
)


def spec(genus, text):
    return parse_curve_spec(genus, text)


def pair_depth(c1, c2, cap):
    """Depth of the twist commutator of a curve pair, from classify_pair."""
    return classify_pair(c1, c2, cap).depth


def sep_twist(genus=2):
    return evaluate((("Sep1", 1),), genus)


# -- membership ----------------------------------------------------------


def test_identity_in_every_level():
    f = evaluate((), 2)
    for k in (1, 2, 3, 5):
        assert in_Mk(f, k)


def test_sep_twist_membership():
    t = sep_twist()
    assert in_Mk(t, 1)
    assert in_Mk(t, 2)      # separating twists act trivially to class 2
    assert not in_Mk(t, 3)  # a degree-3 term survives


def test_chain_twist_not_torelli():
    assert not in_Mk(evaluate((("C1", 1),), 2), 1)


def test_johnson_depth_examples():
    d = johnson_depth(evaluate((("C1", 1),), 2), 3)
    assert d.kind == "not_in_m1"
    d = johnson_depth(sep_twist(), 3)
    assert (d.kind, d.level) == ("exact", 2)
    d = johnson_depth(evaluate((), 2), 3)
    assert d.kind == "identity"


def test_johnson_depth_conjugation_invariant():
    rng = random.Random(71)
    table = builtin_table(2)
    names = table.chain_names + table.sep_names
    t = sep_twist()
    for _ in range(12):
        mcw = tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(3))
        g, back = evaluate(mcw, 2), left_fold_evaluate(inverse_mcw(mcw), 2)
        conj = g.compose(t).compose(back)
        a, b = johnson_depth(t, 3), johnson_depth(conj, 3)
        assert (a.kind, a.level) == (b.kind, b.level)


def test_commutator_depth_matches_direct_computation():
    rng = random.Random(73)
    table = builtin_table(2)
    names = table.chain_names + table.sep_names
    for _ in range(15):
        u, v = (tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(2))
                for _ in range(2))
        via_pair = commutator_depth(evaluate(u, 2), evaluate(v, 2), 3)
        comm = left_fold_evaluate(commutator_mcw(u, v), 2)
        if comm.is_identity():
            assert via_pair.kind == "identity"
        else:
            direct = johnson_depth(comm, 3)
            assert (via_pair.kind, via_pair.level) == (direct.kind, direct.level)


# -- the depth function on curve pairs ------------------------------------


def test_ijf_disjoint_chain_curves_is_zero():
    assert pair_depth(spec(2, "C1"), spec(2, "C3"), 3) == JFDepth("identity")


def test_ijf_adjacent_chain_curves_is_one():
    assert pair_depth(spec(1, "C1"), spec(1, "C2"), 3) == JFDepth("not_in_m1")


def test_ijf_separating_pair_at_least_five():
    v = pair_depth(spec(2, "Sep1"), spec(2, "Sep1 @ [C3]"), 4)
    assert v == JFDepth("at_least", 4)


def test_ijf_separating_pair_exactly_five():
    # at cap 5 the commutator is certified to leave M(5): level exactly 4
    v = pair_depth(spec(2, "Sep1"), spec(2, "Sep1 @ [C3]"), 5)
    assert v == JFDepth("exact", 4)


def test_ijf_symmetric():
    pairs = [
        ("C1", "C2"),
        ("C1", "C3"),
        ("Sep1", "Sep1 @ [C3]"),
        ("C2", "C3 @ [C4]"),
    ]
    for a, b in pairs:
        ab = pair_depth(spec(2, a), spec(2, b), 3)
        assert ab == pair_depth(spec(2, b), spec(2, a), 3)


def test_ijf_invariant_under_simultaneous_conjugation():
    rng = random.Random(79)
    table = builtin_table(2)
    names = table.chain_names + table.sep_names
    base_pairs = [("C1", "C2"), ("C1", "C3"), ("Sep1", "Sep1 @ [C3]")]
    for a, b in base_pairs:
        sa, sb = spec(2, a), spec(2, b)
        v0 = pair_depth(sa, sb, 3)
        for _ in range(4):
            g = tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(2))
            ca = CurveSpec(2, sa.base, g + sa.conjugator)
            cb = CurveSpec(2, sb.base, g + sb.conjugator)
            assert pair_depth(ca, cb, 3) == v0


# -- pair classification ----------------------------------------------------


def test_classify_adjacent_genus1():
    r = classify_pair(spec(1, "C1"), spec(1, "C2"), 3)
    assert not r.commuting
    assert r.braid
    assert abs(r.algebraic) == 1
    assert r.depth == JFDepth("not_in_m1")


def test_classify_disjoint_genus2():
    r = classify_pair(spec(2, "C1"), spec(2, "C3"), 3)
    assert r.commuting
    assert r.algebraic == 0
    assert r.depth == JFDepth("identity")


def test_classify_separating_pair():
    r = classify_pair(spec(2, "Sep1"), spec(2, "Sep1 @ [C3]"), 4)
    assert not r.commuting
    assert r.algebraic == 0
    assert r.depth == JFDepth("at_least", 4)


def test_consistency_checker_rejects_bad_report():
    r = classify_pair(spec(2, "C1"), spec(2, "C3"), 3)
    broken = type(r)(**{**r.__dict__, "commuting": False})
    with pytest.raises(ConsistencyViolation):
        check_consistency(broken)


def test_consistency_messages_name_each_law_in_levels():
    # one forged report per law, each breaking that law alone
    disjoint = classify_pair(spec(2, "C1"), spec(2, "C3"), 3)
    crossing = classify_pair(spec(2, "Sep1"), spec(2, "Sep1 @ [C3]"), 5)
    one_separating = classify_pair(spec(2, "C3"), spec(2, "Sep1 @ [C4^-1]"), 3)
    assert disjoint.commuting and not crossing.commuting
    forged = [
        (disjoint, {"commuting": False},
         "commuting <-> identity commutator violated: "),
        (crossing, {"depth": JFDepth("not_in_m1")},
         "commutator in M(1) <-> (crossing with zero algebraic) violated: "),
        (disjoint, {"algebraic": 1},
         "commutator not in M(1) <-> nonzero algebraic violated: "),
        (crossing, {"braid": True},
         "braid pair must have commutator not in M(1): "),
        (crossing, {"depth": JFDepth("exact", 3)},
         "crossing separating pair must have commutator in M(4): "),
        (one_separating, {"depth": JFDepth("exact", 1)},
         "crossing pair with one separating curve must have commutator "
         "in M(2): "),
    ]
    for r, fields, message in forged:
        broken = type(r)(**{**r.__dict__, **fields})
        with pytest.raises(ConsistencyViolation) as caught:
            check_consistency(broken)
        assert str(caught.value) == message + repr(broken)
        assert "depth=JFDepth(" in str(caught.value)


def test_consistency_checker_rejects_shallow_separating_crossing_pair():
    # separating twists lie in M(2) and [M(2), M(2)] in M(4), so the
    # commutator of two crossing separating twists has level >= 4
    r = classify_pair(spec(2, "Sep1"), spec(2, "Sep1 @ [C3]"), 5)
    assert r.c1_separating and r.c2_separating
    assert r.depth == JFDepth("exact", 4)
    check_consistency(r)
    check_consistency(type(r)(**{**r.__dict__, "depth": JFDepth("at_least", 2)}))
    for forged in (JFDepth("exact", 3), JFDepth("exact", 1)):
        broken = type(r)(**{**r.__dict__, "depth": forged})
        with pytest.raises(ConsistencyViolation, match="separating"):
            check_consistency(broken)
    # the same depth is lawful when one curve is not separating
    check_consistency(
        type(r)(**{**r.__dict__, "depth": JFDepth("exact", 3), "c2_separating": False})
    )
    assert "c1_separating" not in r.as_dict()


def test_consistency_checker_rejects_shallow_pair_with_one_separating_curve():
    # a separating twist lies in M(2), which is normal, so the commutator
    # of a crossing pair with one separating curve has level >= 2
    r = classify_pair(spec(2, "C3"), spec(2, "Sep1 @ [C4^-1]"), 3)
    assert (r.c1_separating, r.c2_separating) == (False, True)
    assert r.depth == JFDepth("exact", 2)
    check_consistency(r)
    shallow = JFDepth("at_least", 1)
    check_consistency(type(r)(**{**r.__dict__, "depth": shallow}))
    broken = type(r)(**{**r.__dict__, "depth": JFDepth("exact", 1)})
    with pytest.raises(ConsistencyViolation, match="one separating curve"):
        check_consistency(broken)
    # the same depth is lawful when neither curve is separating
    check_consistency(type(r)(**{**broken.__dict__, "c2_separating": False}))


def test_random_pair_reports_consistent():
    rng = random.Random(83)
    table = builtin_table(2)
    names = table.chain_names + table.sep_names
    bases = table.essential_base_names()
    for _ in range(60):
        a = CurveSpec(2, rng.choice(bases),
                      tuple((rng.choice(names), rng.choice((-2, -1, 1, 2)))
                            for _ in range(rng.randrange(4))))
        b = CurveSpec(2, rng.choice(bases),
                      tuple((rng.choice(names), rng.choice((-2, -1, 1, 2)))
                            for _ in range(rng.randrange(4))))
        classify_pair(a, b, 3)  # raises on any law violation


def _full_braid(t1, t2):
    """The braid relation t1 t2 t1 = t2 t1 t2, decided on the products."""
    return t1.compose(t2).compose(t1) == t2.compose(t1).compose(t2)


def test_braid_label_matches_full_braid_products():
    # every genus-2 spec with at most one conjugating factor, so equal
    # curves under different specs (C1 and C1 @ [C3]) are included
    specs = list(itertools.takewhile(
        lambda c: len(c.conjugator) <= 1, enumerate_curve_specs(2)
    ))
    equal = 0
    for a, b in itertools.combinations_with_replacement(specs, 2):
        t1, t2 = resolve(a).twist, resolve(b).twist
        assert classify_pair(a, b, 1).braid == _full_braid(t1, t2), (a, b)
        equal += t1 == t2
    assert equal > len(specs)
    r = classify_pair(spec(2, "C1"), spec(2, "C1 @ [C3]"), 3)
    assert (r.commuting, r.braid, r.algebraic) == (True, True, 0)
    # crossing pairs with |algebraic| = 1 drawn the way `scan` draws
    # them, the only pairs whose label is decided on the curve; a pair
    # whose products pass the letter cap has no reference and is counted
    verdicts = []
    excluded = 0
    for genus, seeds in ((2, range(1, 6)), (3, range(1, 3))):
        table = builtin_table(genus)
        for seed in seeds:
            rng = random.Random(seed)
            for _ in range(40):
                a = _random_spec(rng, genus, table, 4)
                b = _random_spec(rng, genus, table, 4)
                r = classify_pair(a, b, 1)
                if r.commuting or abs(r.algebraic) != 1:
                    continue
                try:
                    full = _full_braid(resolve(a).twist, resolve(b).twist)
                except WordLengthLimit:
                    excluded += 1
                    continue
                assert r.braid == full, (a, b)
                verdicts.append(full)
    assert len(verdicts) >= 60
    assert excluded == 1  # the third pair of the test below
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("genus, a, b, commuting, algebraic, label", [
    # each once stopped by the image-length cap or a 5 s deadline while
    # forming t1 t2 t1 and t2 t1 t2
    (3, "C7 @ [C1^-2 C5^-1 C4 Sep2^-2]", "Sep2 @ [C5 C7^2 Sep2^2 C5^2]",
     True, 0, "0"),
    (2, "C1 @ [C5 C1^-2 C2^-2 Sep1^2]", "C3 @ [C3^-2 Sep1^-2]",
     False, 2, "1"),
    (2, "C3 @ [C5^-1 C3^2 C4^2 C2^2]", "C3 @ [Sep1^2 C4^-1 C5]",
     False, 1, "1"),
    # the image of the class of c1 under t1 t2 passes the cap, so only
    # the |algebraic| != 1 shortcut decides the braid flag here
    (2, "C3 @ [C3^2 Sep1^-2 Sep1^-2 Sep1^-2]", "Sep1", False, 0, "3"),
])
def test_formerly_failing_pairs_classify(genus, a, b, commuting, algebraic, label):
    r = classify_pair(spec(genus, a), spec(genus, b), 3)  # checks the laws
    assert r.commuting is commuting
    assert r.braid is False
    assert abs(r.algebraic) == algebraic
    assert r.as_dict()["ijf_label"] == label


def test_braid_label_matches_the_whole_word_fold():
    # the label compares t2(c1) with t1^-1(c2); the reference folds the
    # words of t1 and t2 over c1.  Crossing pairs with |algebraic| = 1
    # from the goldens, the benchmark's pool and scans at conjugator
    # length 8; a pair whose whole-word fold passes the letter cap has
    # no reference
    pairs, scans = golden_pairs() + pool_pairs(), {}
    for genus in (2, 3, 4):
        table = builtin_table(genus)
        rng = random.Random(11)
        scans[genus] = [
            (_random_spec(rng, genus, table, 8), _random_spec(rng, genus, table, 8))
            for _ in range(1000)
        ]
        pairs += scans[genus]
    verdicts, skipped = [], []
    for a, b in pairs:
        d1, d2 = resolve(a), resolve(b)
        algebraic = symplectic_pairing(d1.homology, d2.homology)
        if abs(algebraic) != 1 or not d1.crosses(d2):
            continue
        try:
            full = braid_by_whole_word(a, b)
        except WordLengthLimit:
            skipped.append((a, b))
            continue
        assert classify_pair(a, b, 1).braid == full, (a, b)
        verdicts.append(full)
    assert len(verdicts) >= 500
    assert True in verdicts and False in verdicts
    # the pair that once stopped `scan --genus 2 --cap 5 --samples 1000
    # --seed 11 --max-conjugator-len 8` with exit 2
    assert skipped == [scans[2][696]]


# -- differential test: commutation on curves against the twists -------------

GOLDEN = Path(__file__).parent / "golden"


def test_moves_matches_commutation_of_the_twists():
    # CurveData.moves reads crossing on one curve's class; the reference
    # builds both twists and compares fg with gf, and a commuting pair's
    # braid label (equal classes) is checked against f == g
    pairs = golden_pairs()
    assert len(pairs) > 150
    for genus in (2, 3):
        # every spec with at most one conjugating factor
        specs = list(itertools.takewhile(
            lambda c: len(c.conjugator) <= 1, enumerate_curve_specs(genus)
        ))
        pairs += itertools.combinations_with_replacement(specs, 2)
    seen = set()
    for a, b in pairs:
        d1, d2 = resolve(a), resolve(b)
        f, g = d1.twist, d2.twist
        crossing = not commutes(f, g)
        assert d1.moves(d2) == d2.moves(d1) == crossing, (a, b)
        if not crossing:
            equal = f == g
            assert classify_pair(a, b, 1).braid == equal, (a, b)
            seen.add("equal" if equal else "disjoint")
        else:
            seen.add("crossing")
    assert seen == {"equal", "disjoint", "crossing"}


def _composed_calls(monkeypatch):
    """The (self, other) of every FreeAutomorphism.compose call from now on."""
    calls = []
    compose = FreeAutomorphism.compose

    def counting_compose(self, other):
        calls.append((self, other))
        return compose(self, other)

    monkeypatch.setattr(FreeAutomorphism, "compose", counting_compose)
    return calls


def _golden_pair(name):
    """The report and the two specs of a pair golden, with the curves'
    conjugators evaluated and the resolved curves dropped.

    evaluate's table-twist powers are composed once and cached; building
    them first makes a count of compositions one of what classify_pair
    composes.
    """
    doc = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    config = doc["config"]
    c1, c2 = (spec(config["genus"], config[k]) for k in ("c1", "c2"))
    for c in (c1, c2):
        evaluate(c.conjugator, c.genus)
    curve._resolve_cached.cache_clear()
    return doc, c1, c2


def test_moves_matches_the_evaluated_conjugator_on_the_pool():
    # moves folds h^-1's factors over the other curve's class; the
    # reference applies the automorphism h^-1 built from h's word
    crossing = 0
    for a, b in pool_pairs():
        d1, d2 = resolve(a), resolve(b)
        moved = d1.moves(d2)
        assert moved == moves_by_conjugator(d1, d2), (a, b)
        assert d2.moves(d1) == moves_by_conjugator(d2, d1) == moved, (a, b)
        crossing += moved
    assert 0 < crossing < 600


def test_commuting_pair_builds_no_twist(monkeypatch):
    doc, c1, c2 = _golden_pair("pair_g3_c7_heavy_commuting_cap3.json")
    composed = _composed_calls(monkeypatch)
    assert classify_pair(c1, c2, doc["config"]["cap"]).as_dict() == doc["results"]
    assert composed == []
    for c in (c1, c2):
        assert "twist" not in vars(resolve(c))
        assert "inner" not in vars(resolve(c))
        assert "conjugator" not in vars(resolve(c))


def test_braid_label_composes_only_the_curves_twists(monkeypatch):
    # the braid label reads t2(c1) and t1^-1(c2) on classes, so the only
    # compositions are the inner factors t_c h^-1 that the depth's
    # actions expand; no twist h (t_c h^-1) is built
    doc, c1, c2 = _golden_pair("pair_g3_c4_braid_cap3.json")
    composed = _composed_calls(monkeypatch)
    assert classify_pair(c1, c2, doc["config"]["cap"]).as_dict() == doc["results"]
    assert abs(doc["results"]["algebraic"]) == 1 and composed
    allowed = [
        (d.base.twist, evaluate(inverse_mcw(d.conjugator_word), c1.genus))
        for d in (resolve(c1), resolve(c2))
        if d.conjugator_word
    ]
    for f, g in composed:
        assert any(f is a and g == b for a, b in allowed)


def test_no_pair_builds_a_twist():
    # classify_pair reads the braid label on classes and the depth from
    # the actions of h and t_c h^-1, so no resolved curve of a pair
    # holds a built twist afterwards
    curve._resolve_cached.cache_clear()
    specs = set()
    for a, b in pool_pairs():
        classify_pair(a, b, 3)
        specs.update((a, b))
    for path in sorted(GOLDEN.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc["command"] not in ("pair", "scan"):
            continue
        config = doc["config"]
        rows = doc["results"] if doc["command"] == "scan" else [config]
        for row in rows:
            a, b = (spec(config["genus"], row[k]) for k in ("c1", "c2"))
            classify_pair(a, b, config["cap"])
            specs.update((a, b))
    crossing = [c for c in specs if "inner" in vars(resolve(c))]
    assert len(crossing) > 100
    for c in specs:
        assert "twist" not in vars(resolve(c)), c


# -- leading terms -----------------------------------------------------------


def test_leading_term_identity_is_zero():
    tables = johnson_leading_term(evaluate((), 2), 2)
    assert all(not t for t in tables)


def test_leading_term_sep_twist_nonzero():
    tables = johnson_leading_term(sep_twist(), 2)
    assert any(t for t in tables)
    # degree-3 monomials over four letters
    for t in tables:
        for mono in t:
            assert len(mono) == 3


def test_leading_term_requires_membership():
    with pytest.raises(PreconditionError):
        johnson_leading_term(evaluate((("C1", 1),), 2), 2)


def test_leading_term_decides_next_level():
    t = sep_twist()
    assert any(johnson_leading_term(t, 2))  # nonzero <=> not in M(3)
    assert not in_Mk(t, 3)


# -- Morita inclusion ---------------------------------------------------------


def test_morita_vacuous_pair():
    t = sep_twist()
    assert morita_check(t, t, 2, 2)


def test_morita_conjugate_pair():
    t = sep_twist()
    g, back = evaluate((("C3", 1),), 2), left_fold_evaluate((("C3", -1),), 2)
    assert morita_check(t, g.compose(t).compose(back), 2, 2)


def test_morita_rejects_bad_preconditions():
    t = sep_twist()
    with pytest.raises(PreconditionError):
        morita_check(evaluate((("C1", 1),), 2), t, 1, 2)


def sample_torelli_words(rng, genus, count):
    """The words of nontrivial Torelli classes: products of conjugated
    separating twists."""
    table = builtin_table(genus)
    names = table.chain_names + table.sep_names
    out = []
    while len(out) < count:
        word = ()
        for _ in range(rng.randrange(1, 3)):
            conj = tuple(
                (rng.choice(names), rng.choice((-1, 1)))
                for _ in range(rng.randrange(3))
            )
            word += conj + (("Sep1", rng.choice((-1, 1))),) + inverse_mcw(conj)
        f = evaluate(word, genus)
        if not f.is_identity():
            assert in_Mk(f, 1)
            out.append(word)
    return out


def sample_torelli_classes(rng, genus, count):
    return [evaluate(w, genus) for w in sample_torelli_words(rng, genus, count)]


def test_morita_randomized_never_false():
    rng = random.Random(89)
    t = sep_twist()
    for f in sample_torelli_classes(rng, 2, 6):
        assert morita_check(f, t, 1, 2)


# -- witnesses ----------------------------------------------------------------


def test_witness_disjoint_chain_pair():
    d = distinguishing_witness(spec(2, "C1"), spec(2, "C3"), 100)
    assert d is not None
    td = resolve(d).twist
    t1 = resolve(spec(2, "C1")).twist
    t2 = resolve(spec(2, "C3")).twist
    assert (t1.compose(td) == td.compose(t1)) != (t2.compose(td) == td.compose(t2))


def test_witness_search_evaluates_no_conjugator(monkeypatch):
    # candidates are resolved on their classes and crossing is read on
    # the classes and the conjugators' words, so no conjugator is built
    evaluated = []

    def recording_evaluate(mcw, genus):
        evaluated.append(mcw)
        return evaluate(mcw, genus)

    monkeypatch.setattr(curve, "evaluate", recording_evaluate)
    curve._resolve_cached.cache_clear()
    c1, c2 = spec(2, "C1 @ [C2]"), spec(2, "C3 @ [Sep1]")
    d = distinguishing_witness(c1, c2, 200)
    assert d is not None
    assert evaluated == []
    # the reference reads crossing from the twists themselves
    td, t1, t2 = (resolve(c).twist for c in (d, c1, c2))
    assert commutes(t1, td) != commutes(t2, td)


def test_witness_requires_distinct_curves():
    with pytest.raises(PreconditionError):
        distinguishing_witness(spec(2, "C1"), spec(2, "C1 @ [C1]"), 10)


def test_witness_budget_exhaustion_returns_none():
    assert distinguishing_witness(spec(2, "C1"), spec(2, "C2"), 1) is None


# -- separating-curve action sampling -------------------------------------------


def test_fact5_central_fixes_all():
    assert fact5_instance(evaluate((("Delta", 1),), 2), 50) is None
    assert fact5_instance(evaluate((), 2), 50) is None


def test_fact5_twist_moves_a_separating_curve():
    moved = fact5_instance(evaluate((("C1", 1),), 2), 50)
    assert moved is not None
    td = resolve(moved).twist
    f = evaluate((("C1", 1),), 2)
    assert f.compose(td) != td.compose(f)


def test_fact5_rejects_genus1():
    with pytest.raises(PreconditionError):
        fact5_instance(evaluate((("C1", 1),), 1), 10)


def test_enumeration_is_deterministic_and_separating_only_filter():
    first = [s.to_text() for _, s in zip(range(8), enumerate_curve_specs(2))]
    second = [s.to_text() for _, s in zip(range(8), enumerate_curve_specs(2))]
    assert first == second
    for _, s in zip(range(12), enumerate_curve_specs(2, separating_only=True)):
        assert s.base == "Sep1"


@pytest.mark.parametrize("genus", [2, 3])
def test_distinct_separating_curves_keep_the_first_spec_of_each_curve(genus):
    # reference: the seen-set loop over twists, written out; the
    # enumerator dedupes by class and must yield the same specs, each
    # with its resolved curve
    got = list(itertools.islice(distinct_separating_curves(genus), 40))
    assert all(data is resolve(d) for d, data in got)
    specs = enumerate_curve_specs(genus, separating_only=True)
    expected, seen, drawn = [], set(), 0
    while len(expected) < 40:
        d = next(specs)
        drawn += 1
        t = resolve(d).twist
        if t.images not in seen:
            seen.add(t.images)
            expected.append((d, t))
    assert drawn > len(expected)  # some curves are reached twice
    assert [(d, data.twist) for d, data in got] == expected


@pytest.mark.parametrize("genus", [2, 3])
def test_fact5_centrality_and_separating_stream_build_no_twist(genus, monkeypatch):
    # f commutes with t_d iff f fixes d's class, so none of these
    # compose an automorphism
    table = builtin_table(genus)
    budget = 30
    c1, delta = evaluate((("C1", 1),), genus), evaluate((("Delta", 1),), genus)
    # resolve's conjugators are evaluated once and cached; evaluate them
    # first, so that the count is of what the stream itself composes
    list(itertools.islice(distinct_separating_curves(genus), budget))
    curve._resolve_cached.cache_clear()
    composed = _composed_calls(monkeypatch)
    stream = list(itertools.islice(distinct_separating_curves(genus), budget))
    assert fact5_instance(c1, budget) is not None
    assert fact5_instance(delta, budget) is None
    assert is_central(delta) and not is_central(c1)
    assert not is_central(table.entry("Sep1").twist)
    assert composed == []
    for _, data in stream:
        assert "twist" not in vars(data) and "inner" not in vars(data)


@pytest.mark.parametrize("genus", [2, 3])
def test_fact5_and_centrality_match_commutation_with_twists(genus):
    rng = random.Random(73 + genus)
    table = builtin_table(genus)
    delta = table.entry("Delta").twist
    classes = [table.entry(n).twist for n in table.names()]
    classes += [table_power(genus, "Delta", k) for k in (-2, 2, 3)]
    classes += [_random_curve_twist(rng, genus) for _ in range(10)]
    classes += [delta.compose(f) for f in classes[-3:]]
    classes.append(evaluate((), genus))
    verdicts = set()
    for f in classes:
        central = is_central(f)
        assert central == is_central_by_commutes(f)
        moved = fact5_instance(f, 15)
        assert moved == fact5_instance_by_commutes(f, 15)
        verdicts.add((central, moved is None))
    assert {(True, True), (False, False)} <= verdicts


# -- differential test: the depth routine against full expansions ------------
#
# The reference reads the definitions directly: expand every displacement
# f(x_i) x_i^-1, or both images fg(x_i) and gf(x_i), in full at the top cap
# and compare degree by degree from 1, with no homology step.  Truncation
# commutes with expansion, so the answers at lower caps are read from the
# same top-cap expansions.

TOP_CAP = 5


def _displacements(f):
    return [
        img * Word.generator(f.genus, i, -1)
        for i, img in enumerate(f.images, start=1)
    ]


def _first_difference(p, q):
    """Lowest degree >= 1 where the top-cap expansions of p and q differ."""
    sp, sq = magnus_expand(p, TOP_CAP), magnus_expand(q, TOP_CAP)
    for d in range(1, TOP_CAP + 1):
        if sp.degrees[d] != sq.degrees[d]:
            return d
    return None


def _reference_depths(pairs, identical):
    """JFDepth at every cap 1..TOP_CAP from full expansions of word pairs."""
    found = [d for d in (_first_difference(p, q) for p, q in pairs) if d]
    lowest = min(found, default=None)
    out = {}
    for cap in range(1, TOP_CAP + 1):
        if identical:
            out[cap] = JFDepth("identity")
        elif lowest == 1:
            out[cap] = JFDepth("not_in_m1")
        elif lowest is None or lowest > cap:
            out[cap] = JFDepth("at_least", cap)
        else:
            out[cap] = JFDepth("exact", lowest - 1)
    return out


def _random_class(rng, genus, length):
    table = builtin_table(genus)
    names = table.chain_names + table.sep_names
    return evaluate(
        tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(length)),
        genus,
    )


#: the words of t_a and t_b of the corollary, whose commutator is its w_1
COROLLARY_WORDS = ((("Sep1", 1),), (("C3", 1), ("Sep1", 1), ("C3", -1)))


def _corollary_twists(genus):
    """t_a and t_b of the corollary."""
    return tuple(evaluate(w, genus) for w in COROLLARY_WORDS)


def _corollary_w1(genus):
    """w_1 = [t_a, t_b] of the corollary."""
    return evaluate(commutator_mcw(*COROLLARY_WORDS), genus)


def _corollary_curves(genus):
    """The curves a and b of the corollary, whose twists are t_a and t_b."""
    return CurveSpec(genus, "Sep1"), CurveSpec(genus, "Sep1", (("C3", 1),))


def _shear(genus, moves):
    """The automorphism x_i -> x_i w_i for i in moves, fixing the rest.

    Each w_i is a word in the generators that are not moved, so the map
    is an automorphism: x_i -> x_i w_i^-1 inverts it.
    """
    images = [
        Word.generator(genus, i) * Word(genus, moves.get(i, ()))
        for i in range(1, 2 * genus + 1)
    ]
    return FreeAutomorphism(genus, images)


# Images that differ in a lower degree after one that differs one degree
# higher: x1 is displaced in degree 3 and x2 in degree 2; for the pair,
# the images of x1 differ in degree 2 and those of x2 in degree 1.
SHEAR_CLASS = {1: (3, 4, -3, -4, 3, 4, 3, -4, -3, -3), 2: (3, 4, -3, -4)}
SHEAR_PAIR = ({1: (3, 4, -3, -4), 2: (4,)}, {4: (2,)})


def _single_classes(genus, rng):
    """Random classes, conjugated separating twists and their products,
    the corollary's w_1, and a shear (see above)."""
    out = [evaluate((), genus)]
    out += [_random_class(rng, genus, rng.randrange(1, 4)) for _ in range(6)]
    if genus == 1:
        # no separating curves: the boundary twist is the Torelli sample
        delta = evaluate((("Delta", 1),), 1)
        out += [delta, evaluate((("Delta", -1),), 1), delta.compose(out[1])]
        return out
    out += sample_torelli_classes(rng, genus, 6)
    out.append(_corollary_w1(genus))
    out.append(_shear(genus, SHEAR_CLASS))
    return out


def _random_curve_twist(rng, genus):
    table = builtin_table(genus)
    names = table.chain_names + table.sep_names
    conj = tuple((rng.choice(names), rng.choice((-1, 1)))
                 for _ in range(rng.randrange(3)))
    return resolve(CurveSpec(genus, rng.choice(table.essential_base_names()), conj)).twist


def _class_pairs(genus, rng):
    out = [(_random_class(rng, genus, rng.randrange(1, 3)),
            _random_class(rng, genus, rng.randrange(1, 3))) for _ in range(5)]
    out += [(_random_curve_twist(rng, genus), _random_curve_twist(rng, genus))
            for _ in range(12)]
    if genus > 1:
        s, t, u, v = sample_torelli_classes(rng, genus, 4)
        out += [(sep_twist(genus), s), (sep_twist(genus), t), (u, v)]
        out.append((u, _random_class(rng, genus, 1)))
        out.append(_corollary_twists(genus))
        out.append(tuple(_shear(genus, m) for m in SHEAR_PAIR))
    return out


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_single_class_depths_match_full_expansions(genus):
    rng = random.Random(97 + genus)
    ident = Word(genus)
    for f in _single_classes(genus, rng):
        disp = _displacements(f)
        ref = _reference_depths([(w, ident) for w in disp], f.is_identity())
        for cap in range(1, TOP_CAP + 1):
            assert johnson_depth(f, cap) == ref[cap], (f, cap)
        for k in range(1, 5):
            assert in_Mk(f, k) == (ref[k].kind in ("identity", "at_least")), (f, k)
        for k in range(1, 4):
            if ref[k].kind not in ("identity", "at_least"):
                with pytest.raises(PreconditionError):
                    johnson_leading_term(f, k)
                continue
            full = [
                homogeneous_part(magnus_expand(w, TOP_CAP), k + 1, genus)
                for w in disp
            ]
            assert johnson_leading_term(f, k) == full, (f, k)


def _deep_shear(genus):
    """x1 -> x1 w with w = [x3, [x3, [x3, [x3, [x3, [x3, x4]]]]]].

    w lies in the 7th lower central term and not the 8th, so the shear
    is at exact level 6, the level of the corollary's w_2.
    """
    x3, w = Word.generator(genus, 3), Word.generator(genus, 4)
    for _ in range(6):
        w = commutator(x3, w)
    return _shear(genus, {1: w.letters})


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_johnson_depth_matches_the_two_class_reader(genus):
    # the depth loop, from cap 2 after the homology step, against the
    # reader that compares the whole actions of f and the identity at
    # the cap, at caps 1-7
    rng = random.Random(97 + genus)
    one = evaluate((), genus)
    classes = _single_classes(genus, rng)
    if genus > 1:
        classes.append(_deep_shear(genus))
    kinds = set()
    for f in classes:
        for cap in range(1, 8):
            ref = two_class_depth(f, one, cap)
            assert johnson_depth(f, cap) == ref, (f, cap)
            kinds.add(ref)
    if genus > 1:
        # w_1, exact 4, and the deep shear, exact 6
        assert {JFDepth("exact", 4), JFDepth("exact", 6)} <= kinds


def test_johnson_depth_stops_at_the_first_difference(monkeypatch):
    # w_1 is at exact level 4, so its actions first differ from the
    # identity's in degree 5: a depth at cap 7 expands at caps 2-5 only
    w_1 = _corollary_w1(2)
    caps = _record_expansion_caps(monkeypatch)
    assert johnson_depth(w_1, 7) == JFDepth("exact", 4)
    assert set(caps) == {2, 3, 4, 5}


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_commutator_depths_match_full_expansions(genus):
    rng = random.Random(101 + genus)
    kinds = set()
    for f, g in _class_pairs(genus, rng):
        fg, gf = f.compose(g), g.compose(f)
        ref = _reference_depths(zip(fg.images, gf.images), fg == gf)
        for cap in range(1, TOP_CAP + 1):
            assert commutator_depth(f, g, cap) == ref[cap], (f, g, cap)
            kinds.add(ref[cap].kind)
    assert "not_in_m1" in kinds
    if genus > 1:
        assert {"exact", "at_least"} <= kinds


# genus-2 crossing pairs whose twists have long images (the first has
# 83,787 characters of them), so that composing fg and gf in full costs
# several times a whole classification at cap 2
LONG_CAP_ONE_PAIRS = (
    ("C3 @ [C3^-3 Sep1^-3]", "Sep1 @ [C3^-3 C5^-4 Sep1^4]"),
    ("Sep1 @ [C3^-4]", "C3 @ [C4^3 C3^4 C4^3]"),
    ("Sep1 @ [C4^-4 C3^2]", "Sep1 @ [C5^-3 C3^4 C3^4]"),
)


def _record_expansion_caps(monkeypatch):
    """The caps of every magnus_expand call from now on, in call order."""
    from twistlab import magnus

    caps = []

    def recording_expand(w, cap):
        caps.append(cap)
        return magnus_expand(w, cap)

    monkeypatch.setattr(magnus, "magnus_expand", recording_expand)
    return caps


def _record_action_caps(monkeypatch):
    """The caps of every TruncatedAction.of call from now on, in call
    order."""
    caps = []
    of = TruncatedAction.of.__func__

    def recording_of(cls, f, cap):
        caps.append(cap)
        return of(cls, f, cap)

    monkeypatch.setattr(TruncatedAction, "of", classmethod(recording_of))
    return caps


def test_degree_one_is_read_without_expanding(monkeypatch):
    # a single class decides degree 1 on its homology action, so the
    # Torelli test in_Mk(f, 1) and a depth at cap 1 expand nothing
    caps = _record_expansion_caps(monkeypatch)
    rng = random.Random(103)
    for f in _single_classes(2, rng):
        in_Mk(f, 1)
        johnson_depth(f, 1)
    assert caps == []
    # the degrees that are left are still expanded, from cap 2
    assert johnson_depth(sep_twist(), 3) == JFDepth("exact", 2)
    assert set(caps) == {2, 3}


def test_cap_one_pair_depths_expand_at_cap_one_only(monkeypatch):
    # a commutator depth at cap 1 is the first step of the depth loop:
    # the classes' actions at cap 1, composed both ways
    rng = random.Random(103)
    _single_classes(2, rng)  # skip these draws: the pool is the pairs after them
    caps = _record_expansion_caps(monkeypatch)
    for f, g in _class_pairs(2, rng):
        commutator_depth(f, g, 1)
    assert set(caps) == {1}
    # a crossing curve pair with algebraic 0 is in M(1) by homology, so
    # its loop starts at cap 2 and at cap 1 expands nothing
    caps.clear()
    for c1, c2 in (("Sep1", "Sep1 @ [C3]"),) + LONG_CAP_ONE_PAIRS:
        report = classify_pair(spec(2, c1), spec(2, c2), 1)
        assert report.algebraic == 0
        assert report.depth == JFDepth("at_least", 1)
    assert caps == []


def test_pair_depths_expand_no_higher_than_the_cap_they_stop_at(monkeypatch):
    # the actions of the two twists are composed at caps 1, 2, ... and
    # the loop stops at the first cap where fg and gf differ
    caps = _record_expansion_caps(monkeypatch)
    report = classify_pair(spec(2, "C1"), spec(2, "C2 @ [C3]"), 5)
    assert report.depth == JFDepth("not_in_m1")
    assert set(caps) == {1}
    # with one separating curve the commutator lies in M(2), and its
    # degree-3 term is read in closed form from homology matrices: no
    # action is built, nothing is expanded, and neither curve builds its
    # conjugator or the inner factor of its twist
    actions = _record_action_caps(monkeypatch)
    for c1, c2 in (
        ("C3", "Sep1 @ [C4^-1]"),
        ("C3 @ [C3^2 Sep1^-2 Sep1^-2 Sep1^-2]", "Sep1"),
    ):
        c1, c2 = spec(2, c1), spec(2, c2)
        curve._resolve_cached.cache_clear()
        caps.clear()
        report = classify_pair(c1, c2, 5)
        assert (report.algebraic, report.depth) == (0, JFDepth("exact", 2))
        assert caps == [] and actions == []
        for c in (c1, c2):
            assert not {"conjugator", "inner"} & set(vars(resolve(c)))


def test_separating_pair_below_cap_five_expands_nothing(monkeypatch):
    # two separating twists lie in M(2), so their commutator lies in
    # [M(2), M(2)], inside M(4): at cap 4 the pair expands nothing and
    # builds no twist or conjugator
    c1, c2 = spec(2, "Sep1"), spec(2, "Sep1 @ [C3]")
    curve._resolve_cached.cache_clear()
    caps = _record_expansion_caps(monkeypatch)
    actions = _record_action_caps(monkeypatch)
    report = classify_pair(c1, c2, 4)
    assert (report.commuting, report.algebraic) == (False, 0)
    assert report.depth == JFDepth("at_least", 4)
    assert caps == [] and actions == []
    built = {"twist", "inner", "conjugator"}
    for c in (c1, c2):
        assert not built & set(vars(resolve(c)))
    # at cap 5 the bracket of the two leading terms, each read in
    # closed form from a homology matrix, reads exact(4), and still
    # nothing is expanded or built
    report = classify_pair(c1, c2, 5)
    assert report.depth == JFDepth("exact", 4)
    assert caps == [] and actions == []
    for c in (c1, c2):
        assert not built & set(vars(resolve(c)))


# crossing pairs with a separating curve whose leading term is zero: the
# loop reads them from one degree above the term's
ZERO_TERM_PAIRS = (
    (2, "C3 @ [Sep1 C2]", "Sep1 @ [C5^-1 C3^-1 C1^2]", JFDepth("exact", 4)),
    (3, "Sep2 @ [C5^-1]", "Sep2 @ [C7^-2 Sep2^-1 Sep1 C5^-1]",
     JFDepth("at_least", 6)),
)


def _separating_crossing_pairs():
    """Every crossing pool, golden and scan pair with a separating curve."""
    pairs = []
    for a, b in pool_pairs() + golden_pairs():
        d1, d2 = resolve(a), resolve(b)
        if (d1.separating or d2.separating) and d1.moves(d2):
            pairs.append((a, b))
    return pairs


def _loop_mismatches(pairs, caps):
    """(pair, cap) where classify_pair's depth differs from the loop's
    from degree 2 (references.pair_depth_from_homology_start)."""
    return [
        (a, b, cap)
        for a, b in pairs
        for cap in caps
        if classify_pair(a, b, cap).depth
        != pair_depth_from_homology_start(a, b, cap)
    ]


def test_separating_starts_give_the_depths_of_the_homology_start():
    # a crossing pair with a separating curve reads degree 3 or 5 from
    # its leading term and runs the loop only above a zero term; the
    # reference starts every algebraic-zero pair's loop at cap 2
    pairs = _separating_crossing_pairs()
    assert len(pairs) > 80
    assert sum(resolve(a).separating and resolve(b).separating
               for a, b in pairs) > 5
    names = {(a.to_text(), b.to_text()) for a, b in pairs}
    assert {(a, b) for _, a, b, _ in ZERO_TERM_PAIRS} <= names
    assert _loop_mismatches(pairs, (3, 4, 5, 6)) == []
    for genus, a, b, depth in ZERO_TERM_PAIRS:
        d1, d2 = resolve(spec(genus, a)), resolve(spec(genus, b))
        assert not jfilt._separating_term(d1, d2)
        assert classify_pair(spec(genus, a), spec(genus, b), 6).depth == depth


@pytest.mark.parametrize("forged", [True, False])
def test_a_forged_separating_term_changes_depths(monkeypatch, forged):
    # a term forged always nonzero certifies the zero-term pairs one
    # level too low; one forged always zero leaves every nonzero-term
    # pair at its proven start, where the loop reads nothing
    pairs = _separating_crossing_pairs()
    monkeypatch.setattr(jfilt, "_separating_term", lambda d1, d2: forged)
    assert _loop_mismatches(pairs, (3, 5))


def test_long_conjugator_separating_pairs_build_no_conjugator():
    # the term is read from the base twists and folded homology
    # matrices, so these pairs build no conjugator, inner factor or
    # twist, however long their conjugators' images are
    cases = (
        (3, "Sep2 @ [C5^9 C4^-9 C5^9]", "Sep1 @ [C3^9 C2^-9]", 5, "5"),
        (2, "C2", "Sep1 @ [C3^20 C4^-20 C3^20]", 3, "3"),
    )
    curve._resolve_cached.cache_clear()
    built = {"conjugator", "inner", "twist"}
    for genus, a, b, cap, label in cases:
        c1, c2 = spec(genus, a), spec(genus, b)
        assert classify_pair(c1, c2, cap).as_dict()["ijf_label"] == label
        for c in (c1, c2):
            assert not built & set(vars(resolve(c))), c
    # a pair with |algebraic| = 1 still reads its depth from the actions
    c1, c2 = spec(2, "C1"), spec(2, "C2 @ [C3]")
    assert classify_pair(c1, c2, 2).depth == JFDepth("not_in_m1")
    assert "inner" in vars(resolve(c2))


def test_non_torelli_classes_are_decided_on_homology_at_every_cap(monkeypatch):
    # every action is expanded by TruncatedAction.of, through
    # magnus.magnus_expand
    expansions = []
    expand = magnus.magnus_expand

    def recording_expand(w, cap):
        expansions.append(cap)
        return expand(w, cap)

    monkeypatch.setattr(magnus, "magnus_expand", recording_expand)
    rng = random.Random(113)
    f = _random_class(rng, 2, 3)
    while homology_action(f) == identity_matrix(2):
        f = _random_class(rng, 2, 3)
    for g in (evaluate((("C1", 1),), 2), f):
        for cap in range(2, 6):
            assert johnson_depth(g, cap) == JFDepth("not_in_m1"), (g, cap)
    assert expansions == []


SEP1_CONJUGATORS = (
    (),
    (("C3", 1),),
    (("C2", -1), ("C4", 1)),
    (("C1", 1), ("C3", -1), ("C2", 1)),
)


def test_single_class_depths_stop_at_the_term_budget(monkeypatch):
    # a single-class depth at cap >= 2 reads the class's actions built by
    # TruncatedAction.of at caps 2, 3, ... up to the first difference, so
    # it passes the term budget exactly when building the action at the
    # cap it stops at does.  These twists are at exact level 2, so the
    # loop stops at cap 3 whatever the cap above it.  The Torelli test
    # expands nothing.
    from twistlab import magnus

    monkeypatch.setattr(magnus, "MAX_SERIES_TERMS", 10)
    outcomes = set()
    for conj in SEP1_CONJUGATORS:
        f = resolve(CurveSpec(2, "Sep1", conj)).twist
        for cap in range(2, 7):
            try:
                TruncatedAction.of(f, min(cap, 3))
            except SeriesTermLimit:
                outcomes.add("raised")
                with pytest.raises(SeriesTermLimit):
                    johnson_depth(f, cap)
            else:
                outcomes.add("read")
                level = JFDepth("exact", 2) if cap > 2 else JFDepth("at_least", 2)
                assert johnson_depth(f, cap) == level
        assert in_Mk(f, 1)
    assert outcomes == {"raised", "read"}


# -- differential test: truncated actions against expansions of words --------
#
# A composed action is checked against the expansion of the composed
# automorphism's images, and a depth read from composed actions against
# two_class_depth(fg, gf, cap), which reads the expansions of fg's and
# gf's own images through TruncatedAction.of, not substitution:
# commutator_depth itself composes actions.  Truncation cannot prove the
# identity, so where two_class_depth reads "identity" the actions read
# at_least(cap).


def _reference_action(f, cap):
    """The action of f at the cap, from one full expansion per image."""
    series = [magnus_expand(w, cap).degrees for w in f.images]
    for degrees in series:
        degrees[0].clear()
    return TruncatedAction(f.genus, cap, series)


def _truncated(action, cap):
    return TruncatedAction(
        action.genus, cap, (degrees[: cap + 1] for degrees in action.series)
    )


def _assert_actions_match_words(f, g, top):
    """At every cap up to top: substitution gives the expansions of fg
    and gf, and their depth is the one two_class_depth reads from fg and
    gf."""
    ref_f, ref_g = _reference_action(f, top), _reference_action(g, top)
    assert TruncatedAction.of(f, top) == ref_f
    assert TruncatedAction.of(g, top) == ref_g
    ref_fg = _reference_action(f.compose(g), top)
    ref_gf = _reference_action(g.compose(f), top)
    for cap in range(1, top + 1):
        af, ag = _truncated(ref_f, cap), _truncated(ref_g, cap)
        afg, agf = af.compose(ag), ag.compose(af)
        assert afg == _truncated(ref_fg, cap), (f, g, cap)
        assert agf == _truncated(ref_gf, cap), (f, g, cap)
        words = two_class_depth(f.compose(g), g.compose(f), cap)
        if words.kind == "identity":
            words = JFDepth("at_least", cap)
        assert action_depth(afg, agf) == words, (f, g, cap)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_composed_actions_match_expansions_of_products(genus):
    # random classes, curve twists, Torelli products, the corollary's
    # t_a and t_b, and its w_1 against t_a
    rng = random.Random(107 + genus)
    pairs = _class_pairs(genus, rng)
    if genus > 1:
        pairs.append((_corollary_twists(genus)[0], _corollary_w1(genus)))
    for f, g in pairs:
        _assert_actions_match_words(f, g, TOP_CAP)


def test_composed_actions_match_words_on_scan_golden_pairs():
    for path in sorted((Path(__file__).parent / "golden").glob("scan_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        genus, cap = doc["config"]["genus"], doc["config"]["cap"]
        for row in doc["results"]:
            f = resolve(spec(genus, row["c1"])).twist
            g = resolve(spec(genus, row["c2"])).twist
            _assert_actions_match_words(f, g, cap)


def test_cap_one_pair_depth_matches_the_composed_products():
    # at cap 1 the depth is read from the twists' cap-1 actions composed
    # both ways; the reference compares the homology of fg and gf
    pairs = [(2, c1, c2) for c1, c2 in LONG_CAP_ONE_PAIRS]
    for path in sorted((Path(__file__).parent / "golden").glob("scan_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        pairs += [
            (doc["config"]["genus"], row["c1"], row["c2"])
            for row in doc["results"]
            if not row["commuting"]
        ]
    kinds = set()
    for genus, c1, c2 in pairs:
        f = resolve(spec(genus, c1)).twist
        g = resolve(spec(genus, c2)).twist
        expected = two_class_depth(f.compose(g), g.compose(f), 1)
        assert commutator_depth(f, g, 1) == expected
        kinds.add(expected.kind)
    assert kinds == {"not_in_m1", "at_least"}


# -- differential test: leading-term brackets against composed actions -------
#
# nested_commutators is the action route the corollary's rows were once read
# from: it carries w_m and w_m^-1 as truncated actions at the cap and
# composes them.  It is checked against words below, and the bracket chain
# of nested_leading_terms is checked against it.


def _actions_of_word(mcw, genus, cap):
    """The actions at the cap of the class of mcw and of its inverse,
    folded from the inverse word."""
    f = evaluate(mcw, genus)
    inverse = left_fold_evaluate(inverse_mcw(mcw), genus)
    return TruncatedAction.of(f, cap), TruncatedAction.of(inverse, cap)


def nested_commutators(genus, cap):
    """Depths of the corollary's w_m = [a, w_{m-1}], w_0 = b, for
    m = 1, 2, ..., with a and b the classes of COROLLARY_WORDS.

    Yields, for w = w_0, w_1, ..., the triple (depth of [a, w], action
    of w, action of w^-1) at the cap.  The depth compares a w with w a,
    and the next w is built from the same two products:
    [a, w] = ((a w) a^-1) w^-1 and [a, w]^-1 = [w, a] = ((w a) w^-1) a^-1.
    """
    act_a, act_a_inv = _actions_of_word(COROLLARY_WORDS[0], genus, cap)
    w, w_inv = _actions_of_word(COROLLARY_WORDS[1], genus, cap)
    while True:
        aw, wa = act_a.compose(w), w.compose(act_a)
        yield action_depth(aw, wa), w, w_inv
        w, w_inv = (
            aw.compose(act_a_inv).compose(w_inv),
            wa.compose(w_inv).compose(act_a_inv),
        )


@pytest.mark.parametrize("genus", [2, 3])
def test_nested_commutator_depths_match_words_where_they_fit(genus):
    # rows m = 1, 2 of the corollary: [t_a, t_b] and [t_a, w_1]; the
    # words of w_2 pass a million letters
    t_a, t_b = _corollary_twists(genus)
    w_1 = _corollary_w1(genus)
    for cap in range(2, 7):
        rows = nested_commutators(genus, cap)
        for w in (t_b, w_1):
            depth, _, _ = next(rows)
            words = two_class_depth(t_a.compose(w), w.compose(t_a), cap)
            assert depth == words, (genus, cap, w)


def test_nested_commutators_track_each_inverse():
    # w_0 = t_b and w_1 against their words; w_2 lies in M(6), so at
    # cap 5 its action is the identity's and would show no error
    a, b = COROLLARY_WORDS
    cap = 5
    one = TruncatedAction.of(evaluate((), 2), cap)
    rows = nested_commutators(2, cap)
    for m, w in enumerate((b, commutator_mcw(a, b))):
        _, act, act_inv = next(rows)
        assert (act, act_inv) == _actions_of_word(w, 2, cap), m
        assert act.compose(act_inv) == one, m


@pytest.mark.parametrize("genus, caps", [(2, range(4, 9)), (3, range(4, 7))])
def test_bracket_levels_match_action_depths(genus, caps):
    # rows m = 1, 2, 3; a level at or past the cap reads at_least(cap)
    for cap in caps:
        rows = nested_commutators(genus, cap)
        leads = nested_leading_terms(*_corollary_curves(genus))
        for m in range(1, 4):
            depth, _, _ = next(rows)
            lead = next(leads)
            assert lead and lead.degree == 2 * m + 2, (genus, cap, m)
            if lead.degree < cap:
                assert depth == JFDepth("exact", lead.degree), (genus, cap, m)
            else:
                assert depth == JFDepth("at_least", cap), (genus, cap, m)


@pytest.mark.parametrize("genus, cap, count", [(2, 7, 2), (3, 5, 1)])
def test_brackets_are_the_leading_parts_of_the_actions(genus, cap, count):
    # the action of w_m agrees with the identity's through degree 2m + 2,
    # and its degree-(2m + 3) part is the bracket, term for term
    rows = nested_commutators(genus, cap)
    next(rows)
    leads = nested_leading_terms(*_corollary_curves(genus))
    for m in range(1, count + 1):
        _, action, _ = next(rows)
        lead = next(leads)
        top = _truncated(action, lead.degree + 1)
        one = TruncatedAction.of(evaluate((), genus), top.cap)
        assert action_depth(top, one) == JFDepth("exact", lead.degree), m
        assert lead == leading(top), (genus, m)


def test_corollary_curves_carry_the_corollary_twists():
    for genus in (2, 3):
        twists = tuple(resolve(c).twist for c in _corollary_curves(genus))
        assert twists == _corollary_twists(genus)


def test_zero_brackets_certify_nothing():
    t_a, _ = _corollary_twists(2)
    a, _ = _corollary_curves(2)
    assert not next(nested_leading_terms(a, a))
    # Sep1 and Sep2 bound nested subsurfaces at genus 3, so their twists
    # commute; both lie in M(2) and not M(3)
    s1, s2 = evaluate((("Sep1", 1),), 3), evaluate((("Sep2", 1),), 3)
    assert commutes(s1, s2)
    sep1, sep2 = CurveSpec(3, "Sep1"), CurveSpec(3, "Sep2")
    assert not next(nested_leading_terms(sep1, sep2))
    # C1 is disjoint from Sep1 but outside M(2): no leading term is read,
    # in either position
    c1 = evaluate((("C1", 1),), 2)
    assert commutes(t_a, c1)
    for pair in ((a, CurveSpec(2, "C1")), (CurveSpec(2, "C1"), a)):
        with pytest.raises(ConsistencyViolation):
            next(nested_leading_terms(*pair))


@pytest.mark.parametrize("genus", [2, 3])
def test_brackets_of_torelli_classes_are_the_leading_parts_of_commutators(genus):
    # f, g in M(2): the action of [f, g] at cap 5 has the bracket of their
    # degree-3 parts as its degree-5 part, zero or not, and nothing between
    rng = random.Random(113 + genus)
    words = sample_torelli_words(rng, genus, 3) + list(COROLLARY_WORDS)
    one = TruncatedAction.of(evaluate((), genus), 5)
    kinds = set()
    for u, v in itertools.combinations(words, 2):
        f, g = evaluate(u, genus), evaluate(v, genus)
        lead_f = leading(TruncatedAction.of(f, 3))
        lead_g = leading(TruncatedAction.of(g, 3))
        bracket = lead_f.bracket(lead_g)
        comm = TruncatedAction.of(evaluate(commutator_mcw(u, v), genus), 5)
        assert bracket == leading(comm), (f, g)
        depth = action_depth(_truncated(comm, 4), _truncated(one, 4))
        assert depth.kind == "at_least", (f, g)
        kinds.add(bool(bracket))
    assert kinds == {True, False}


# -- leading terms of conjugated twists ----------------------------------------


@pytest.mark.parametrize("genus", [2, 3])
def test_conjugated_twist_terms_are_transformed_base_terms(genus, monkeypatch):
    # D_{h(c)} = H·D_c for the homology matrix H of h: 40 random (h, c)
    # per genus against the leading term of the expanded twist, for the
    # reference transform of the base twist's expanded term and for the
    # reader that pairs and the corollary share, which folds the one
    # matrix of h and reads the term from it in closed form
    folded = []

    def spy(mcw, g):
        folded.append(mcw)
        return mcg.homology_matrix(mcw, g)

    monkeypatch.setattr(jfilt, "homology_matrix", spy)
    rng = random.Random(211 + genus)
    table = builtin_table(genus)
    names = table.chain_names + table.sep_names
    nonzero = 0
    for _ in range(40):
        h = tuple((rng.choice(names), rng.choice((-2, -1, 1, 2)))
                  for _ in range(rng.randrange(1, 4)))
        c = rng.choice(table.sep_names)
        d = resolve(CurveSpec(genus, c, h))
        direct = leading(TruncatedAction.of(d.twist, 3))
        base = leading(TruncatedAction.of(table.entry(c).twist, 3))
        moved = transform(base, mcg.homology_matrix(h, genus))
        assert moved == direct, (c, h)
        assert jfilt._curve_term(d, h) == direct, (c, h)
        assert folded == [h]
        folded.clear()
        nonzero += moved != base
    assert nonzero >= 5


def test_transform_is_an_action_that_keeps_brackets():
    # (H K)·D = H·(K·D), I·D = D, and H·[D, E] = [H·D, H·E]
    genus = 2
    table = builtin_table(genus)
    rng = random.Random(223)
    names = table.chain_names
    d = leading(TruncatedAction.of(table.entry("Sep1").twist, 3))
    one = identity_matrix(genus)
    assert transform(d, one) == d
    for _ in range(10):
        h, k = (tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(3))
                for _ in range(2))
        matrix = {w: mcg.homology_matrix(w, genus) for w in (h, k, h + k)}
        assert transform(d, matrix[h + k]) == transform(
            transform(d, matrix[k]), matrix[h]
        )
        e = transform(d, matrix[k])
        assert transform(d.bracket(e), matrix[h]) == transform(
            d, matrix[h]
        ).bracket(transform(e, matrix[h]))


def _separating_curves():
    """The resolved separating curves of the pool, the pair and scan
    goldens and the corollary."""
    specs = {c for pair in pool_pairs() + golden_pairs() for c in pair}
    specs.update(c for genus in (2, 3) for c in _corollary_curves(genus))
    return [d for d in map(resolve, sorted(specs, key=str)) if d.separating]


def test_separating_terms_match_the_transformed_base_terms():
    # the closed form against the base twist's term expanded at cap 3
    # and moved by the reference transform: on every separating curve
    # the package reads, by its own conjugator, and on 2,000 seeded
    # (SepJ, word) draws at genus 2-6, with Delta among the letters
    curves = _separating_curves()
    assert len(curves) > 200
    for d in curves:
        word = d.conjugator_word
        assert jfilt._curve_term(d, word) == separating_term_by_transform(
            d, word
        ), word
    rng = random.Random(227)
    nonzero = 0
    for n in range(2000):
        genus = 2 + n % 5
        table = builtin_table(genus)
        d = resolve(CurveSpec(genus, rng.choice(table.sep_names)))
        word = tuple((rng.choice(table.names()), rng.choice((-2, -1, 1, 2)))
                     for _ in range(rng.randrange(6)))
        term = jfilt._curve_term(d, word)
        assert term == separating_term_by_transform(d, word), (d.base, word)
        assert term.degree == 2 and term
        nonzero += term != jfilt._curve_term(d, ())
    assert nonzero > 300


def _stays_split(a, b):
    """For a = h_a(SepJ) separating and b not: is v = H_a^-1[b], the
    class of h_a^-1(b), supported in e_1..e_{2J} alone or outside them
    alone?"""
    genus = a.base.twist.genus
    back = mcg.homology_matrix(inverse_mcw(a.conjugator_word), genus)
    v = [sum(m * x for m, x in zip(row, b.homology)) for row in back]
    split = 2 * a.base.index
    return not any(v[split:]) or not any(v[:split])


# The one-separating law: for a crossing pair with a = h_a(SepJ)
# separating and b not, the term of t_a vanishes exactly on V^⊥, and W
# depends only on V = H_a V_J, with V_J the span of e_1..e_{2J}; so
# D_{c_a} equals the term of t_{b'} t_{c_a} t_{b'}^-1, for
# b' = h_a^-1(b), iff the transvection along v = H_a^-1[b] keeps V_J,
# iff v lies in V_J or in its complement (_stays_split).


def test_one_separating_term_is_zero_iff_the_other_curve_stays_split_on_the_pool():
    kinds = set()
    for c1, c2 in _separating_crossing_pairs():
        a, b = resolve(c1), resolve(c2)
        if a.separating == b.separating:
            continue
        if not a.separating:
            a, b = b, a
        kept = _stays_split(a, b)
        assert jfilt._separating_term(a, b) != kept, (c1, c2)
        kinds.add(kept)
    assert kinds == {True, False}


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_one_separating_term_is_zero_iff_the_other_curve_stays_split(genus):
    # 700 seeded crossing pairs per genus, in both orders
    rng = random.Random(229 + genus)
    table = builtin_table(genus)
    names = table.chain_names + table.sep_names
    kinds, pairs = set(), 0
    while pairs < 700:
        h_a, h_b = (
            tuple((rng.choice(names), rng.choice((-2, -1, 1, 2)))
                  for _ in range(rng.randrange(4)))
            for _ in range(2)
        )
        a = resolve(CurveSpec(genus, rng.choice(table.sep_names), h_a))
        b = resolve(CurveSpec(genus, rng.choice(table.chain_names), h_b))
        if not a.crosses(b):
            continue
        pairs += 1
        kept = _stays_split(a, b)
        assert jfilt._separating_term(a, b) != kept, (a.base, h_a, h_b)
        assert jfilt._separating_term(b, a) != kept
        kinds.add(kept)
    assert kinds == {True, False}
