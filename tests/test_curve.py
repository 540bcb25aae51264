import random
from collections import Counter
from itertools import islice

import pytest

from twistlab import curve, word
from twistlab.cli import _random_spec
from twistlab.curve import (
    CurveSpec,
    enumerate_curve_specs,
    parse_curve_spec,
    resolve,
    same_class,
    symplectic_pairing,
)
from twistlab.errors import (
    GenusMismatch,
    SpecParseError,
    UnknownTwistName,
)
from twistlab.foxrep import suzuki_scan
from twistlab.magnus import TruncatedAction
from twistlab.mcg import (
    builtin_table,
    class_image,
    evaluate,
    format_mcw,
    homology_action,
    homology_matrix,
    identity_matrix,
    inverse_mcw,
)
from twistlab.word import Word

from references import (
    curves_equal,
    distinguishing_witness,
    fact5_instance,
    golden_pairs,
    is_central,
    left_fold_evaluate,
    mat_mul,
    pool_pairs,
    resolve_eagerly,
    transvection,
    twist_by_composition,
)


def spec(genus, text):
    return parse_curve_spec(genus, text)


def algebraic(c1, c2):
    """Algebraic intersection number, as classify_pair reads it."""
    return symplectic_pairing(resolve(c1).homology, resolve(c2).homology)


# -- parsing -----------------------------------------------------------


def test_parse_bare_name():
    s = spec(2, "C1")
    assert s.base == "C1" and s.conjugator == ()
    assert s.to_text() == "C1"


def test_parse_with_conjugator():
    s = spec(2, "Sep1 @ [C3 C4^-1]")
    assert s.base == "Sep1"
    assert s.conjugator == (("C3", 1), ("C4", -1))
    assert s.to_text() == "Sep1 @ [C3 C4^-1]"
    assert spec(2, "Sep1 @ []") == CurveSpec(2, "Sep1", ())


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("C1 @", 4),
        ("C1 @ [C2", 8),
        ("C1 @ [C2^]", 9),
        ("C1 @ [C2^0]", 10),
        # exponents are ASCII digits only: \d would read a fullwidth
        # or Arabic-Indic digit as its value
        ("C1 @ [C2^\uff13]", 9),
        ("C1 @ [C2^-\u0663]", 9),
        ("C1 ] trailing", 3),
        ("@ [C1]", 0),
    ],
)
def test_parse_errors_carry_positions(text, pos):
    with pytest.raises(SpecParseError) as err:
        spec(2, text)
    assert err.value.position == pos


def parse_conjugator(text):
    """The word read as a spec's conjugator: a tuple of factors, or the
    error's position in the word."""
    prefix = "Sep1 @ ["
    try:
        return spec(2, f"{prefix}{text}]").conjugator
    except SpecParseError as err:
        return ("error at", err.position - len(prefix))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("C3^-1C4", (("C3", -1), ("C4", 1))),
        ("C3 ^2", (("C3", 2),)),
        ("C3^+2", ("error at", 3)),
        ("C1^0", ("error at", 4)),
        ("C1^^2", ("error at", 3)),
        ("C1^\uff13", ("error at", 3)),
        ("", ()),
    ],
)
def test_specs_and_mcws_share_one_grammar(text, expected):
    assert parse_conjugator(text) == expected


def test_formatted_words_parse_back_alike():
    rng = random.Random(5)
    names = builtin_table(3).names()
    for _ in range(500):
        mcw = tuple(
            (rng.choice(names), rng.choice((1, -1)) * rng.choice((1, 2, 9, 10**20)))
            for _ in range(rng.randrange(6))
        )
        assert parse_conjugator(format_mcw(mcw)) == mcw, mcw


@pytest.mark.parametrize("genus", [2, 3])
def test_spec_text_round_trip(genus):
    for s in islice(enumerate_curve_specs(genus), 3000):
        assert spec(genus, s.to_text()) == s, s


def test_resolve_rejects_boundary_parallel_base():
    with pytest.raises(UnknownTwistName):
        resolve(spec(2, "Delta"))


def test_resolve_rejects_unknown_base():
    with pytest.raises(UnknownTwistName):
        resolve(spec(2, "Q7"))


# -- resolution --------------------------------------------------------


def test_resolve_identity_conjugator():
    data = resolve(spec(2, "C1"))
    assert data.twist == builtin_table(2).entry("C1").twist
    assert data.homology == (1, 0, 0, 0)
    assert not data.separating


def test_class_only_resolve_matches_the_evaluated_conjugator():
    # resolve folds the table-twist powers over the base word alone; the
    # reference evaluates h and applies it to the base word
    specs = [c for pair in pool_pairs() + golden_pairs() for c in pair]
    assert len(specs) > 1200
    for s in specs:
        data = resolve(s)
        assert (data.pi1_class, data.homology) == resolve_eagerly(s), s
        assert data.conjugator_word == s.conjugator, s


def test_resolve_builds_no_conjugator(monkeypatch):
    # the curve keeps h's word; inner evaluates its inverse word and
    # twist evaluates the twist word on first access (mcg.evaluate
    # caches both by word), and resolving evaluates neither
    evaluated = []

    def recording_evaluate(mcw, genus):
        evaluated.append(mcw)
        return evaluate(mcw, genus)

    monkeypatch.setattr(curve, "evaluate", recording_evaluate)
    curve._resolve_cached.cache_clear()
    data = resolve(spec(2, "Sep1 @ [C3^2 C4^-1]"))
    assert not hasattr(curve.CurveData, "conjugator")
    assert not {"inner", "twist"} & set(vars(data)) and evaluated == []
    h = evaluate((("C3", 2), ("C4", -1)), 2)
    back = left_fold_evaluate((("C4", 1), ("C3", -2)), 2)
    assert data.inner == data.base.twist.compose(back)
    assert data.twist == h.compose(data.inner)
    assert evaluated == [inverse_mcw(data.conjugator_word), data.twist_word]


def test_evaluated_twist_matches_the_composed_conjugation():
    # the twist evaluated from its word h (c, 1) h^-1 against h composed
    # with t_c h^-1, on every golden curve
    specs = dict.fromkeys(c for pair in golden_pairs() for c in pair)
    assert len(specs) > 100
    for s in specs:
        data = resolve(s)
        assert data.twist == twist_by_composition(data), s


def test_class_folds_strip_and_only_canonical_forms_rotate(monkeypatch):
    # the fold behind resolve and moves strips each intermediate word to
    # its cyclically reduced core and rotates nothing: the least rotation
    # is taken only inside canonical_cyclic
    depth, outside, images = [0], [], []
    least_rotation = word._least_rotation
    canonical_cyclic = Word.canonical_cyclic
    class_image = curve.class_image

    def spy_rotation(keys):
        if not depth[0]:
            outside.append(keys)
        return least_rotation(keys)

    def spy_canonical(self):
        depth[0] += 1
        try:
            return canonical_cyclic(self)
        finally:
            depth[0] -= 1

    def spy_class_image(mcw, genus, w):
        images.append(class_image(mcw, genus, w))
        return images[-1]

    monkeypatch.setattr(word, "_least_rotation", spy_rotation)
    monkeypatch.setattr(Word, "canonical_cyclic", spy_canonical)
    monkeypatch.setattr(curve, "class_image", spy_class_image)
    curve._resolve_cached.cache_clear()
    pairs, moved = pool_pairs(), 0
    for a, b in pairs:
        d1, d2 = resolve(a), resolve(b)
        moved += d1.moves(d2) + d2.moves(d1)
    assert 0 < moved < 2 * len(pairs)
    assert outside == []
    # one class per distinct curve resolved, one per moves call
    assert len(images) == len({c for pair in pairs for c in pair}) + 2 * len(pairs)
    for w in images:
        assert not w.letters or w.letters[0] != -w.letters[-1], w


def test_resolve_separating_base():
    data = resolve(spec(2, "Sep1"))
    assert data.separating
    assert data.homology == (0, 0, 0, 0)
    assert homology_action(data.twist) == identity_matrix(2)


def test_resolve_conjugated_twist_genus1():
    data = resolve(spec(1, "C1 @ [C2]"))
    f = evaluate((("C2", 1),), 1)
    base = builtin_table(1).entry("C1").twist
    back = left_fold_evaluate((("C2", -1),), 1)
    assert data.twist == f.compose(base).compose(back)
    m = homology_action(f)
    assert data.homology == tuple(m[i][0] for i in range(2))


def test_conjugation_law_as_executable_identity():
    rng = random.Random(51)
    table = builtin_table(2)
    names = table.chain_names + table.sep_names
    for _ in range(25):
        base = rng.choice(table.essential_base_names())
        conj = tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(rng.randrange(3)))
        extra = (rng.choice(names), rng.choice((-1, 1)))
        plain = resolve(CurveSpec(2, base, conj))
        moved = resolve(CurveSpec(2, base, (extra,) + conj))
        g = evaluate((extra,), 2)
        back = left_fold_evaluate(inverse_mcw((extra,)), 2)
        assert moved.twist == g.compose(plain.twist).compose(back)


def test_separating_iff_zero_homology_on_samples():
    rng = random.Random(53)
    table = builtin_table(2)
    names = table.chain_names + table.sep_names
    for _ in range(40):
        base = rng.choice(table.essential_base_names())
        conj = tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(rng.randrange(4)))
        data = resolve(CurveSpec(2, base, conj))
        assert data.separating == all(c == 0 for c in data.homology)
        if data.separating:
            assert homology_action(data.twist) == identity_matrix(2)


def test_transvection_is_the_twist_on_homology_on_the_pool():
    # the twist's word h (c, 1) h^-1 folds to the twist's matrix, the
    # identity for a separating curve
    curves = {c for pair in pool_pairs() for c in pair}
    checked = separating = 0
    for c in curves:
        d = resolve(c)
        twist = homology_action(d.twist)
        assert homology_matrix(d.twist_word, c.genus) == twist, c
        if d.separating:
            separating += 1
            assert twist == identity_matrix(c.genus), c
            continue
        checked += 1
        assert transvection(d.homology) == twist, c
        inverse = left_fold_evaluate(inverse_mcw(d.twist_word), c.genus)
        assert transvection(d.homology, -1) == homology_action(inverse), c
        assert transvection(d.homology, 3) == mat_mul(
            twist, mat_mul(twist, twist)
        ), c
    assert checked > 500 and separating > 100
    assert transvection((0,) * 4) == identity_matrix(2)


def test_pi1_class_of_moved_base():
    data = resolve(spec(2, "C1 @ [C2]"))
    f = evaluate((("C2", 1),), 2)
    expect = f(builtin_table(2).entry("C1").base_word).canonical_cyclic()
    assert data.pi1_class == expect


# -- homology machinery -------------------------------------------------


def test_homology_action_identity():
    assert homology_action(evaluate((), 2)) == identity_matrix(2)


def test_homology_action_functorial():
    rng = random.Random(57)
    names = builtin_table(2).names()
    for _ in range(30):
        u = tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(2))
        v = tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(2))
        lhs = homology_action(evaluate(u + v, 2))
        rhs = mat_mul(homology_action(evaluate(u, 2)), homology_action(evaluate(v, 2)))
        assert lhs == rhs


def test_homology_action_symplectic():
    # the images of basis vectors (the columns) pair as the basis does
    rng = random.Random(59)
    basis = identity_matrix(2)
    names = builtin_table(2).names()
    for _ in range(40):
        mcw = tuple((rng.choice(names), rng.choice((-2, -1, 1, 2))) for _ in range(3))
        columns = tuple(zip(*homology_action(evaluate(mcw, 2))))
        for i in range(4):
            for k in range(4):
                assert symplectic_pairing(columns[i], columns[k]) == (
                    symplectic_pairing(basis[i], basis[k])
                )


def test_transvection_genus1():
    m = homology_action(builtin_table(1).entry("C1").twist)
    # fixes e1, moves e2 by -e1 under this handedness convention
    assert tuple(m[i][0] for i in range(2)) == (1, 0)
    assert tuple(m[i][1] for i in range(2)) in ((-1, 1), (1, 1))


# -- pairings ------------------------------------------------------------


def test_algebraic_intersection_chain_neighbours():
    assert abs(algebraic(spec(1, "C1"), spec(1, "C2"))) == 1
    assert abs(algebraic(spec(2, "C3"), spec(2, "C4"))) == 1


def test_algebraic_intersection_separating_vanishes():
    assert algebraic(spec(2, "Sep1"), spec(2, "C1")) == 0
    assert algebraic(spec(2, "Sep1"), spec(2, "Sep1 @ [C3]")) == 0


def test_algebraic_intersection_self_and_antisymmetry():
    rng = random.Random(61)
    table = builtin_table(2)
    names = table.chain_names + table.sep_names
    for _ in range(30):
        a = CurveSpec(2, rng.choice(table.essential_base_names()),
                      tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(2)))
        b = CurveSpec(2, rng.choice(table.essential_base_names()),
                      tuple((rng.choice(names), rng.choice((-1, 1))) for _ in range(2)))
        assert algebraic(a, a) == 0
        assert algebraic(a, b) == -algebraic(b, a)


def test_pairing_is_standard_form():
    assert symplectic_pairing((1, 0, 0, 0), (0, 1, 0, 0)) == 1
    assert symplectic_pairing((0, 0, 1, 0), (0, 0, 0, 1)) == 1
    assert symplectic_pairing((0, 1, 0, 0), (1, 0, 0, 0)) == -1


def test_genus_mismatch():
    with pytest.raises(GenusMismatch):
        curves_equal(spec(1, "C1"), spec(2, "C1"))


# -- equality -------------------------------------------------------------


def test_curves_equal_reflexive():
    assert curves_equal(spec(2, "C1"), spec(2, "C1"))


def test_distinct_bases_differ():
    assert not curves_equal(spec(2, "C1"), spec(2, "C2"))


def test_twist_fixes_its_own_curve():
    assert curves_equal(spec(2, "C1 @ [C1]"), spec(2, "C1"))
    assert curves_equal(spec(2, "Sep1 @ [Sep1^-2]"), spec(2, "Sep1"))


def test_disjoint_twist_fixes_curve():
    # C4 is disjoint from C1's curve, so conjugating does nothing
    assert curves_equal(spec(2, "C1 @ [C4]"), spec(2, "C1"))
    assert not curves_equal(spec(2, "C1 @ [C2]"), spec(2, "C1"))


def test_fixes_matches_same_class_on_the_pool():
    # _fixes takes an image equal to u letter for letter as fixed before
    # it compares canonical forms; on the pull-backs of moves over the
    # pool, each of the three outcomes occurs
    outcomes = Counter()
    for c1, c2 in pool_pairs():
        d1, d2 = resolve(c1), resolve(c2)
        for a, b in ((d1, d2), (d2, d1)):
            t = a.base.twist
            back = inverse_mcw(a.conjugator_word)
            u = class_image(back, c1.genus, b.pi1_class)
            v = t(u)
            fixed = same_class(u, v.cyclic_reduce())
            assert curve._fixes(t, u) is fixed, (a, b)
            outcomes[v.letters == u.letters, fixed] += 1
    assert set(outcomes) == {(True, True), (False, True), (False, False)}


def test_fixed_class_questions_read_one_reader(monkeypatch):
    # is_central, fact5_instance and crossing (through moves) each ask
    # whether a class fixes a curve's class, and each asks _fixes
    fixes = curve._fixes
    calls = []

    def spy(f, u):
        calls.append(u)
        return fixes(f, u)

    monkeypatch.setattr(curve, "_fixes", spy)
    t_c1 = evaluate((("C1", 1),), 2)
    d1, d2 = resolve(spec(2, "C1")), resolve(spec(2, "C2 @ [C4]"))
    questions = (
        (lambda: is_central(t_c1), False),
        (lambda: fact5_instance(t_c1, 10) is None, False),
        (lambda: d1.crosses(d2), True),
    )
    for ask, expected in questions:
        calls.clear()
        assert ask() is expected
        assert calls


@pytest.mark.parametrize("budget", [-1, 0])
def test_curve_searches_with_no_budget_find_nothing(budget):
    # a search whose budget is not positive looks at no candidate
    t_c1 = evaluate((("C1", 1),), 2)
    assert fact5_instance(t_c1, budget) is None
    assert distinguishing_witness(spec(2, "C1"), spec(2, "C3"), budget) is None
    assert suzuki_scan(2, budget) == []


# -- truncated actions ------------------------------------------------------


#: w_1 = [Sep1, C3 Sep1 C3^-1] as a mapping class word; the curve
#: Sep1 @ [w_1] is the second curve of the separating pair of depth 9
W1_SPEC = "Sep1 @ [Sep1 C3 Sep1 C3^-1 Sep1^-1 C3 Sep1^-1 C3^-1]"


def test_curve_actions_match_expansions_of_the_twist():
    # action() composes the actions of h and t_c h^-1, and expands t_c
    # for a base curve; either must equal the expansion of h t_c h^-1
    for genus in (2, 3):
        rng = random.Random(41 + genus)
        table = builtin_table(genus)
        for _ in range(40):
            data = resolve(_random_spec(rng, genus, table, 4))
            for cap in range(1, 5):
                assert data.action(cap) == TruncatedAction.of(data.twist, cap), (
                    data, cap,
                )
    for genus in (1, 2, 3):
        for name in builtin_table(genus).essential_base_names():
            data = resolve(CurveSpec(genus, name, ()))
            for cap in range(1, 5):
                assert data.action(cap) == TruncatedAction.of(data.twist, cap), (
                    genus, name, cap,
                )
    # the twists of the two heaviest pairs of the benchmark's pair pool
    for text in (
        "C3 @ [C3^2 Sep1^-2 Sep1^-2 Sep1^-2]",
        "Sep1 @ [C3^2 Sep1^-2 C3^-1]",
    ):
        data = resolve(spec(2, text))
        for cap in (3, 4):
            assert data.action(cap) == TruncatedAction.of(data.twist, cap), text
    data = resolve(spec(2, W1_SPEC))
    for cap in (1, 2, 3):
        assert data.action(cap) == TruncatedAction.of(data.twist, cap)


def _action_calls(monkeypatch):
    """The (automorphism, cap) of every TruncatedAction.of call and the
    cap of every compose call from now on."""
    expanded, composed = [], []
    of, compose = TruncatedAction.of.__func__, TruncatedAction.compose

    def spy_of(cls, f, cap):
        expanded.append((f, cap))
        return of(cls, f, cap)

    def spy_compose(self, other):
        composed.append(self.cap)
        return compose(self, other)

    monkeypatch.setattr(TruncatedAction, "of", classmethod(spy_of))
    monkeypatch.setattr(TruncatedAction, "compose", spy_compose)
    return expanded, composed


def test_composed_action_expands_h_and_inner_and_composes_once(monkeypatch):
    # t_{h(c)} = h (t_c h^-1): action() expands the two factors and
    # substitutes once per cap, for long twists and for short ones such
    # as C2 @ [C3^-2]
    expanded, composed = _action_calls(monkeypatch)
    for text in ("Sep1 @ [C3 Sep1 C3^-1]", "C2 @ [C3^-2]"):
        data = resolve(spec(2, text))
        h, inner = evaluate(data.conjugator_word, 2), data.inner
        assert h != inner
        expanded.clear()
        composed.clear()
        for cap in (1, 2, 3, 4):
            data.action(cap)
        assert expanded == [(f, cap) for cap in (1, 2, 3, 4) for f in (h, inner)]
        assert composed == [1, 2, 3, 4]


def test_identity_conjugator_expands_its_twist(monkeypatch):
    # a base curve's twist is t_c itself: action() expands t_c alone,
    # composes nothing and builds neither h nor t_c h^-1
    curve._resolve_cached.cache_clear()
    expanded, composed = _action_calls(monkeypatch)
    for genus in (1, 2, 3):
        table = builtin_table(genus)
        for name in table.essential_base_names():
            data = resolve(CurveSpec(genus, name, ()))
            expanded.clear()
            for cap in (1, 2, 3):
                data.action(cap)
            assert [cap for _, cap in expanded] == [1, 2, 3]
            assert all(f is data.base.twist for f, _ in expanded)
            assert not {"conjugator", "inner", "twist"} & set(vars(data))
    assert composed == []
