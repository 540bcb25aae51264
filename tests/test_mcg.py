import hashlib
import json
import random
from dataclasses import replace

import pytest

from twistlab import mcg
from twistlab.cli import main
from twistlab.curve import parse_curve_spec
from twistlab.errors import (
    SpecParseError,
    UnknownTwistName,
    UnsupportedGenus,
    WordLengthLimit,
)
from twistlab.mcg import (
    MAX_IMAGE_LETTERS,
    FreeAutomorphism,
    TwistTable,
    builtin_table,
    evaluate,
    _twist_power,
    format_mcw,
    homology_action,
    homology_matrix,
    identity_matrix,
    inverse_mcw,
    validate_relations,
)
from twistlab.word import Word, abelianized, boundary_word

from references import (
    apply_letterwise,
    commutes,
    is_central,
    left_fold_evaluate,
    pool_pairs,
    power_by_squaring,
    table_power,
)

#: every genus with a built-in table
GENERA = list(mcg._SUPPORTED_GENERA)


def test_identity_automorphism():
    f = evaluate((), 2)
    assert f.is_identity()
    w = Word(2, (1, -3, 2))
    assert f(w) == w


def _build_genus1_table_with_c1(monkeypatch, letters, shifts):
    # builtin_table's body is called past its cache, which keeps the
    # true tables
    forms = mcg._twist_forms(1)
    forged = [("C1", "chain", 1, letters, shifts)] + forms[1:]
    monkeypatch.setattr(mcg, "_twist_forms", lambda g: forged)
    try:
        with pytest.raises(ValueError, match="C1"):
            builtin_table.__wrapped__(1)
    finally:
        monkeypatch.undo()
    assert builtin_table.__wrapped__(1).entry("C1") == builtin_table(1).entry("C1")


def test_construction_rejects_non_automorphism(monkeypatch):
    # x1 -> x1 c with c = x1 x2 does not fix c, so c^-1 does not undo
    # it: x1 -> x1 c^-1 is no inverse, and the table refuses the form
    _build_genus1_table_with_c1(monkeypatch, (1, 2), {1: (0, 1)})


def test_construction_rejects_non_bijective_images(monkeypatch):
    # x1 -> c^-1 x1 with c = x1 sends x1 to the empty word: the map is
    # not injective, no inverse can exist, and the table refuses the form
    _build_genus1_table_with_c1(monkeypatch, (1,), {1: (-1, 0)})


@pytest.mark.parametrize("genus", GENERA)
def test_validate_relations_all_pass(genus):
    report = validate_relations(genus)
    assert report.all_passed, [c.description for c in report.failures()]


@pytest.mark.parametrize("genus", GENERA)
def test_validate_relations_neither_composes_nor_compares_by_commutes(
    genus, monkeypatch
):
    # every relation is read as two words folded by evaluate's fold
    def refuse(*args):
        raise AssertionError("the relation suite reads words only")

    mcg._twist_power.cache_clear()
    monkeypatch.setattr(FreeAutomorphism, "compose", refuse)
    assert validate_relations(genus).all_passed


WRONG_TWISTS = {
    "inverse": lambda e: e.inverse,
    "square": lambda e: e.twist.compose(e.twist),
    "identity": lambda e: evaluate((), e.twist.genus),
}

#: (genus, twist, how it is wrong): every twist inverted at genus 1, 2
#: and 3, and each SepJ also squared and removed.
WRONG_TABLES = (
    [(g, n, "inverse") for g in (1, 2, 3) for n in builtin_table(g).names()]
    + [
        (g, s, how)
        for g in (2, 3)
        for s in builtin_table(g).sep_names
        for how in ("square", "identity")
    ]
)


def _clear_table_caches():
    for cache in (mcg._twist_power, mcg._evaluate_cached, mcg._homology_step):
        cache.cache_clear()


@pytest.fixture
def fresh_table_caches():
    _clear_table_caches()
    yield
    _clear_table_caches()


def _use_wrong_table(monkeypatch, genus, name, wrong):
    """Make builtin_table(genus) return its table with one twist wrong."""
    table = builtin_table(genus)
    forged = TwistTable(
        genus,
        [
            replace(e, twist=WRONG_TWISTS[wrong](e)) if e.name == name
            else e
            for e in table.entries.values()
        ],
    )
    monkeypatch.setattr(
        mcg, "builtin_table", lambda g: forged if g == genus else builtin_table(g)
    )
    _clear_table_caches()


@pytest.mark.parametrize("genus,name,wrong", WRONG_TABLES)
def test_a_table_with_one_wrong_twist_fails_validation(
    genus, name, wrong, monkeypatch, capsys, fresh_table_caches
):
    _use_wrong_table(monkeypatch, genus, name, wrong)
    assert not validate_relations(genus).all_passed
    assert main(["validate", "--genus", str(genus)]) == 1


def test_a_relation_past_the_letter_cap_fails_instead_of_raising(
    monkeypatch, capsys, fresh_table_caches
):
    # the true table's chain words fold through images under 40 letters;
    # with C2 inverted the Sep2 word's images pass a cap of 1000
    monkeypatch.setattr(mcg, "MAX_IMAGE_LETTERS", 1000)
    assert validate_relations(3).all_passed
    _use_wrong_table(monkeypatch, 3, "C2", "inverse")
    gens = tuple(Word.generator(3, i) for i in range(1, 7))
    sep2_word = [(f"C{i}", 1) for i in range(1, 5)] * 10
    with pytest.raises(WordLengthLimit):
        mcg._apply_factors(3, sep2_word, gens)
    failures = [c.description for c in validate_relations(3).failures()]
    assert "(t_C1 t_C2 t_C3 t_C4)^10 = t_Sep2" in failures
    assert main(["validate", "--genus", "3"]) == 1


@pytest.mark.parametrize("genus", GENERA)
def test_true_tables_fold_far_under_the_relation_bound(genus, monkeypatch):
    # the longest word of any relation fold of a true table is 10 letters
    # at genus 1 and 16g - 7 above it: the suite passes with exactly that
    # bound and fails with one letter less
    peak = 10 if genus == 1 else 16 * genus - 7
    assert 8 * peak < mcg.RELATION_FOLD_LETTERS
    monkeypatch.setattr(mcg, "RELATION_FOLD_LETTERS", peak)
    assert validate_relations(genus).all_passed
    monkeypatch.setattr(mcg, "RELATION_FOLD_LETTERS", peak - 1)
    assert not validate_relations(genus).all_passed


def test_a_wrong_table_fold_stops_at_the_relation_bound(
    monkeypatch, fresh_table_caches
):
    # with C2 inverted, the Sep2 word's fold passes the relation bound,
    # far below the letter cap
    _use_wrong_table(monkeypatch, 3, "C2", "inverse")
    gens = tuple(Word.generator(3, i) for i in range(1, 7))
    sep2_word = [(f"C{i}", 1) for i in range(1, 5)] * 10
    limit = mcg.RELATION_FOLD_LETTERS
    with pytest.raises(WordLengthLimit, match=f"passed {limit} letters"):
        mcg._apply_factors(3, sep2_word, gens, limit=limit)


def test_unsupported_genus():
    for genus in (0, 7):
        with pytest.raises(UnsupportedGenus):
            builtin_table(genus)


@pytest.mark.parametrize("genus", GENERA)
def test_table_shape(genus):
    table = builtin_table(genus)
    assert len(table.chain_names) == 2 * genus + 1
    assert len(table.sep_names) == genus - 1
    assert "Delta" in table.names()
    with pytest.raises(UnknownTwistName):
        table.entry("C99")


@pytest.mark.parametrize("genus", GENERA)
def test_every_twist_fixes_boundary_word(genus):
    # basepoint on the boundary: mapping classes fix the boundary loop
    table = builtin_table(genus)
    d = boundary_word(genus)
    for name in table.names():
        assert table.entry(name).twist(d) == d, name


@pytest.mark.parametrize("genus", GENERA)
def test_uniform_transvection_law(genus):
    # homology action of each twist is u -> u + <u, v> v along the
    # stored base class, with one global sign convention
    table = builtin_table(genus)
    n = 2 * genus
    for name in table.names():
        entry = table.entry(name)
        v = abelianized(entry.base_word)
        m = homology_action(entry.twist)
        for j in range(n):
            e = [1 if t == j else 0 for t in range(n)]
            pairing = sum(
                e[i] * v[i + 1] - e[i + 1] * v[i] for i in range(0, n, 2)
            )
            expected = [e[t] + pairing * v[t] for t in range(n)]
            got = [m[t][j] for t in range(n)]
            assert got == expected, (name, j)


@pytest.mark.parametrize("genus", GENERA)
def test_homology_matrix_folds_twist_powers(genus):
    # every table twist acts on homology as a transvection or the
    # identity, so its k-th power is I + k (T - I)
    for name in builtin_table(genus).names():
        for k in (-3, -2, -1, 1, 2, 5):
            mcw = ((name, k),)
            expected = homology_action(_twist_power(genus, name, k))
            assert homology_matrix(mcw, genus) == expected, (name, k)
    assert homology_matrix((), genus) == identity_matrix(genus)


def test_homology_matrix_matches_the_evaluated_conjugators_of_the_pool():
    words = {(c.genus, c.conjugator) for pair in pool_pairs() for c in pair}
    assert len(words) > 500
    for genus, mcw in words:
        folded = homology_matrix(mcw, genus)
        assert folded == homology_action(evaluate(mcw, genus)), mcw
        back = homology_matrix(inverse_mcw(mcw), genus)
        inverse = left_fold_evaluate(inverse_mcw(mcw), genus)
        assert back == homology_action(inverse), mcw


def test_inverse_homology_matrix_is_read_from_the_intersection_form():
    # every class preserves <e_{2i-1}, e_{2i}> = 1, so H^-1 = -Ω H^T Ω,
    # which magnus.Derivation.separating reads instead of taking H^-1
    rng = random.Random(331)
    for n in range(500):
        genus = 1 + n % 3
        names = builtin_table(genus).names()
        assert "Delta" in names
        mcw = tuple(
            (rng.choice(names), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randrange(8))
        )
        size = 2 * genus
        omega = [[0] * size for _ in range(size)]
        for i in range(0, size, 2):
            omega[i][i + 1], omega[i + 1][i] = 1, -1
        h = homology_matrix(mcw, genus)
        expected = tuple(
            tuple(
                -sum(
                    omega[j][a] * h[b][a] * omega[b][i]
                    for a in range(size)
                    for b in range(size)
                )
                for i in range(size)
            )
            for j in range(size)
        )
        assert homology_matrix(inverse_mcw(mcw), genus) == expected, mcw


def test_genus1_candidate_images():
    table = builtin_table(1)
    c1 = table.entry("C1").twist
    assert c1(Word.generator(1, 1)) == Word.generator(1, 1)
    assert c1(Word.generator(1, 2)) == Word(1, (2, -1))
    c2 = table.entry("C2").twist
    assert c2(Word.generator(1, 1)) == Word(1, (1, 2))


def test_delta_is_conjugation_by_boundary():
    for genus in (1, 2, 3):
        d = boundary_word(genus)
        delta = builtin_table(genus).entry("Delta").twist
        for i in range(1, 2 * genus + 1):
            x = Word.generator(genus, i)
            assert delta(x) == d * x * d.inverse()


def test_sep_twist_formula_genus2():
    sep = builtin_table(2).entry("Sep1").twist
    d = Word(2, (1, 2, -1, -2))
    for i in (1, 2):
        x = Word.generator(2, i)
        assert sep(x) == d * x * d.inverse()
    for i in (3, 4):
        x = Word.generator(2, i)
        assert sep(x) == x


@pytest.mark.parametrize("genus,subchain,power", [(1, 2, 6), (2, 2, 6), (3, 2, 6), (3, 4, 10)])
def test_sep_twists_equal_subchain_powers(genus, subchain, power):
    # (t_C1 ... t_C{2J})^{4J+2} is the twist along the J-th separating
    # curve; cross-checks the conjugation formulas against the chain
    table = builtin_table(genus)
    j = subchain // 2
    if j >= genus:
        target = table.entry("Delta").twist
    else:
        target = table.entry(f"Sep{j}").twist
    prod = evaluate((), genus)
    for i in range(1, subchain + 1):
        prod = prod.compose(table.entry(f"C{i}").twist)
    assert power_by_squaring(prod, power) == target


def test_evaluate_identity_and_cancellation():
    assert evaluate((), 2).is_identity()
    assert evaluate((("C1", 1), ("C1", -1)), 2).is_identity()


def test_evaluate_braid_relation():
    f = evaluate((("C1", 1), ("C2", 1), ("C1", 1)), 1)
    g = evaluate((("C2", 1), ("C1", 1), ("C2", 1)), 1)
    assert f == g


def test_evaluate_chain_relation_genus1():
    assert power_by_squaring(evaluate((("C1", 1), ("C2", 1)), 1), 6) == evaluate(
        (("Delta", 1),), 1
    )


def test_evaluate_is_monoid_homomorphism():
    rng = random.Random(19)
    table = builtin_table(2)
    names = table.names()
    for _ in range(30):
        u = tuple((rng.choice(names), rng.choice((-2, -1, 1, 2))) for _ in range(3))
        v = tuple((rng.choice(names), rng.choice((-2, -1, 1, 2))) for _ in range(3))
        assert evaluate(u + v, 2) == evaluate(u, 2).compose(evaluate(v, 2))


def test_twist_powers_cancel():
    table = builtin_table(2)
    for name in table.names():
        entry = table.entry(name)
        t = entry.twist
        # a folded word's +-1 factors are the table twist and its inverse
        assert _twist_power(2, name, 1) is t
        assert _twist_power(2, name, -1) is entry.inverse
        assert entry.inverse.compose(t).is_identity()
        for k in (1, 2, 5):
            assert power_by_squaring(t, k).compose(
                power_by_squaring(entry.inverse, k)
            ).is_identity()


def test_evaluate_unknown_name():
    with pytest.raises(UnknownTwistName):
        evaluate((("Sep1", 1),), 1)  # no separating twists at genus 1


def test_is_central():
    assert is_central(evaluate((), 2))
    assert is_central(evaluate((("Delta", 1),), 2))
    assert is_central(evaluate((("Delta", -3),), 2))
    assert not is_central(evaluate((("C1", 1),), 2))
    assert not is_central(evaluate((("Sep1", 1),), 2))


def test_compose_with_identity():
    f = evaluate((("C1", 1), ("C3", -2)), 2)
    assert f.compose(evaluate((), 2)) == f
    assert evaluate((), 2).compose(f) == f


def _random_mcw(rng, names):
    mcw = []
    for _ in range(rng.randrange(7)):
        # repeat the previous name now and then, so factors can cancel
        name = mcw[-1][0] if mcw and rng.random() < 0.3 else rng.choice(names)
        mcw.append((name, rng.choice((-3, -2, -1, 1, 2, 3))))
    return tuple(mcw)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_inside_out_evaluate_matches_the_left_fold(genus):
    rng = random.Random(53 + genus)
    names = builtin_table(genus).names()
    words = [(), (("C1", 2), ("C1", -1), ("C1", 3)), (("C2", 40), ("C1", -1))]
    words += [_random_mcw(rng, names) for _ in range(25)]
    n = 2 * genus
    for mcw in words:
        h = evaluate(mcw, genus)
        assert h.images == left_fold_evaluate(mcw, genus).images, mcw
        # a class is inverted by evaluating its inverse word
        h_inv = evaluate(inverse_mcw(mcw), genus)
        ref = left_fold_evaluate(inverse_mcw(mcw), genus)
        assert h_inv.images == ref.images, mcw
        for i in range(1, n + 1):
            x = Word.generator(genus, i)
            assert h(h_inv(x)) == x == h_inv(h(x)), mcw


def _conjugated_twist(genus, rng):
    table = builtin_table(genus)
    mcw = _random_mcw(rng, table.names())
    h, back = evaluate(mcw, genus), left_fold_evaluate(inverse_mcw(mcw), genus)
    base = table.entry(rng.choice(table.essential_base_names())).twist
    return h.compose(base).compose(back)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_commutes_matches_comparing_the_products(genus):
    table = builtin_table(genus)
    twists = [table.entry(n).twist for n in table.names()]
    pairs = [(f, g) for f in twists for g in twists]  # relation-suite pairs
    delta = table.entry("Delta").twist
    rng = random.Random(59 + genus)
    for _ in range(20):
        f, g = _conjugated_twist(genus, rng), _conjugated_twist(genus, rng)
        pairs += [(f, g), (delta, f), (f, rng.choice(twists))]
    outcomes = set()
    for f, g in pairs:
        expected = f.compose(g) == g.compose(f)
        assert commutes(f, g) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_apply_matches_letterwise_substitution():
    rng = random.Random(37)
    f = evaluate((("C2", 1), ("C3", 1)), 2)
    for _ in range(50):
        letters = [
            rng.choice([1, -1]) * rng.randrange(1, 5) for _ in range(rng.randrange(8))
        ]
        w = Word(2, tuple(letters))
        expect = Word(2)
        for ell in letters:
            img = f(Word.generator(2, abs(ell)))
            expect = expect * (img if ell > 0 else img.inverse())
        assert f(w) == expect


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_images_need_no_reduction_or_range_check(genus):
    # __call__ builds its Word without the checks of Word(...): they
    # must leave its letters as they are
    rng = random.Random(41 + genus)
    names = builtin_table(genus).names()
    n = 2 * genus
    for _ in range(20):
        f = evaluate(
            tuple((rng.choice(names), rng.choice((-2, -1, 1, 2)))
                  for _ in range(rng.randrange(4))),
            genus,
        )
        for _ in range(5):
            w = Word(genus, tuple(
                rng.choice((1, -1)) * rng.randrange(1, n + 1)
                for _ in range(rng.randrange(12))
            ))
            image = f(w)
            checked = Word(genus, image.letters)
            assert checked == image
            assert checked.letters == image.letters
            assert hash(checked) == hash(image)


def _heavy_products(genus, rng, count):
    """The words of products of one or two table-twist powers with |k| up
    to 9.

    Their images are long, and applying one to another's images, or to
    the images of its inverse, cancels most of what it appends.
    """
    names = builtin_table(genus).names()
    return [
        tuple((rng.choice(names), rng.choice((1, -1)) * rng.randrange(1, 10))
              for _ in range(rng.randrange(1, 3)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_block_cancelling_call_matches_the_letterwise_reduction(genus):
    # __call__ cancels a whole image prefix against the end of its output
    # and appends the rest at once; apply_letterwise reduces one letter
    # at a time
    rng = random.Random(61 + genus)
    n = 2 * genus
    products = _heavy_products(genus, rng, 8)
    cancelled = 0
    for mcw in products:
        f = evaluate(mcw, genus)
        words = list(left_fold_evaluate(inverse_mcw(mcw), genus).images)
        words += evaluate(rng.choice(products), genus).images
        words += [
            Word(genus, tuple(rng.choice((1, -1)) * rng.randrange(1, n + 1)
                              for _ in range(rng.randrange(40))))
            for _ in range(5)
        ]
        for w in words:
            image = f(w)
            assert image.letters == apply_letterwise(f, w).letters, (f, w)
            appended = sum(len(f.images[abs(ell) - 1]) for ell in w.letters)
            cancelled += appended - len(image)
    assert cancelled > 0


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_call_raises_the_letter_limit_where_the_letterwise_reduction_does(
    genus, monkeypatch
):
    # the limit is checked after each letter's image: with a limit below
    # the longest partial image, both kernels raise, and at or above it
    # both return the same image.  On the images of f's inverse the
    # partial images are far longer than the generator they end at.
    import twistlab.mcg as mcg

    rng = random.Random(67 + genus)
    u, v = _heavy_products(genus, rng, 2)
    f = evaluate(u, genus)
    words = evaluate(v, genus).images
    words += left_fold_evaluate(inverse_mcw(u), genus).images
    peaks = [
        max(
            len(apply_letterwise(f, Word(genus, w.letters[:k])))
            for k in range(1, len(w) + 1)
        )
        for w in words
    ]
    assert any(peak > len(f(w)) for w, peak in zip(words, peaks))
    for w, peak in zip(words, peaks):
        for limit in (peak - 1, peak):
            monkeypatch.setattr(mcg, "MAX_IMAGE_LETTERS", limit)
            if limit < peak:
                for apply in (f, lambda w: apply_letterwise(f, w)):
                    with pytest.raises(WordLengthLimit):
                        apply(w)
            else:
                assert f(w).letters == apply_letterwise(f, w).letters


def test_mcw_parse_and_format():
    # mapping class words are read as the conjugators of curve specs
    prefix = "Sep1 @ ["

    def parse(text):
        return parse_curve_spec(2, f"{prefix}{text}]").conjugator

    mcw = parse("C1 C2^-3 Sep1 Delta^2")
    assert mcw == (("C1", 1), ("C2", -3), ("Sep1", 1), ("Delta", 2))
    assert format_mcw(mcw) == "C1 C2^-3 Sep1 Delta^2"
    # int() refuses more than 4300 digits by default, with a ValueError
    for text, pos in (
        ("C1^0", 4),
        ("C1^^2", 3),
        ("C1 C2^\uff13", 6),
        ("C1 C2^" + "1" * 5000, 6),
    ):
        with pytest.raises(SpecParseError) as err:
            parse(text)
        assert err.value.position == len(prefix) + pos, text


def test_image_length_cap(monkeypatch):
    import twistlab.mcg as mcg

    monkeypatch.setattr(mcg, "MAX_IMAGE_LETTERS", 50)
    f = evaluate((("C3", 1),), 2)
    big = f
    with pytest.raises(WordLengthLimit):
        for _ in range(10):
            big = big.compose(big)


@pytest.mark.parametrize("genus", GENERA)
def test_twist_powers_have_an_image_longer_than_the_exponent(genus):
    # the premise of _twist_power's guard: t^k has a generator image of
    # more than |k| letters, and the longest image grows exactly
    # linearly in |k|, so an exponent past the letter cap fails at once
    table = builtin_table(genus)
    for name in table.names():
        for sign in (1, -1):
            step = power = table_power(genus, name, sign)
            lengths = []
            for k in range(1, 65):
                if k > 1:
                    power = step.compose(power)
                lengths.append(max(len(w) for w in power.images))
                assert lengths[-1] > k, (name, sign * k)
            slope = lengths[1] - lengths[0]
            assert slope > 0 and all(
                b - a == slope for a, b in zip(lengths, lengths[1:])
            ), (name, sign)
            assert power == _twist_power(genus, name, sign * 64)
        with pytest.raises(WordLengthLimit):
            _twist_power(genus, name, MAX_IMAGE_LETTERS + 1)


def test_sep_homology_trivial():
    for genus in GENERA[1:]:
        table = builtin_table(genus)
        for name in table.sep_names:
            assert homology_action(table.entry(name).twist) == identity_matrix(genus)


#: SHA-256 of the genus 1..3 tables as the text fixtures they were once
#: read from gave them (see _table_rows); the closed forms reproduce them
RETIRED_FIXTURES_SHA256 = (
    "5ef6038dede3384454a058fae3bc542c564d119261c7abced34f9298cde4ba2e"
)


def _table_rows(genus):
    return [
        [genus, e.name, e.role, e.index, list(e.base_word.letters),
         [list(w.letters) for w in e.twist.images],
         [list(w.letters) for w in e.inverse.images]]
        for e in builtin_table(genus).entries.values()
    ]


def test_generated_tables_match_the_retired_fixtures():
    rows = [row for genus in (1, 2, 3) for row in _table_rows(genus)]
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == RETIRED_FIXTURES_SHA256


@pytest.mark.parametrize("genus", GENERA)
def test_every_twist_fixes_its_base_word(genus):
    # the premise of the closed forms: t(c) = c letter for letter, so
    # t^k(x_i) = c^(ak) x_i c^(bk)
    for entry in builtin_table(genus).entries.values():
        c = entry.base_word
        assert c.cyclic_reduce() == c, entry.name
        assert entry.twist(c).letters == c.letters, entry.name


@pytest.mark.parametrize("genus", GENERA)
def test_twist_power_matches_the_power_by_squaring(genus):
    # the closed form gives the same images as squaring, and each image
    # loses as many letters to free cancellation as the image of t or
    # t^-1 does, at most 2: the length _twist_power checks the cap with
    table = builtin_table(genus)
    for name in table.names():
        entry = table.entry(name)
        for k in [s * m for m in range(1, 9) for s in (1, -1)]:
            power = _twist_power(genus, name, k)
            assert power.images == table_power(genus, name, k).images, (name, k)
            unit = _twist_power(genus, name, 1 if k > 0 else -1)
            for w, one, (a, b) in zip(power.images, unit.images, entry.form):
                spread = (abs(a) + abs(b)) * len(entry.base_word)
                assert len(w) == len(one) + (abs(k) - 1) * spread, (name, k)
                assert len(one) >= spread - 1, name


def test_a_large_twist_power_composes_nothing(monkeypatch, fresh_table_caches):
    def refuse(*args):
        raise AssertionError("twist powers are read from their closed forms")

    monkeypatch.setattr(FreeAutomorphism, "compose", refuse)
    power = _twist_power(2, "Delta", 1000)
    d = boundary_word(2)
    assert power(Word.generator(2, 3)) == d**1000 * Word.generator(2, 3) * d**-1000
