import itertools
import random

import pytest

from twistlab import curve, foxrep, jfilt, mcg
from twistlab.curve import enumerate_curve_specs, resolve
from twistlab.errors import GenusMismatch, PreconditionError
from twistlab.foxrep import (
    LaurentPoly,
    fox_jacobian,
    magnus_rep,
    rep_as_json,
    rep_identity,
    rep_mul,
    suzuki_scan,
)
from twistlab.mcg import FreeAutomorphism, builtin_table, evaluate, inverse_mcw
from twistlab.word import Word, abelianized

from references import (
    commutator_mcw,
    commutes,
    fox_derivative,
    fox_derivative_by_letters,
    in_Mk,
    left_fold_evaluate,
    rep_mul_by_products,
)


def random_word(rng, genus, max_len=10):
    n = rng.randrange(0, max_len + 1)
    return Word(
        genus,
        tuple(rng.choice([1, -1]) * rng.randrange(1, 2 * genus + 1) for _ in range(n)),
    )


def t_mono(genus, i, power=1):
    v = [0] * (2 * genus)
    v[i - 1] = power
    return LaurentPoly.monomial(genus, v)


# -- the derivative axioms ------------------------------------------------


def test_derivative_of_generator():
    assert fox_derivative(Word.generator(1, 1), 1) == LaurentPoly.one(1)
    assert not fox_derivative(Word.generator(1, 1), 2).terms


def test_derivative_of_inverse_generator():
    d = fox_derivative(Word.generator(1, 1, -1), 1)
    assert d == -t_mono(1, 1, -1)


def test_product_rule():
    rng = random.Random(97)
    for _ in range(120):
        u = random_word(rng, 2)
        v = random_word(rng, 2)
        mono_u = LaurentPoly.monomial(2, abelianized(u))
        for i in range(1, 5):
            lhs = fox_derivative(u * v, i)
            rhs = fox_derivative(u, i) + mono_u * fox_derivative(v, i)
            assert lhs == rhs


def test_fundamental_identity():
    rng = random.Random(101)
    for _ in range(120):
        w = random_word(rng, 2)
        acc = LaurentPoly(2)
        for i in range(1, 5):
            acc = acc + fox_derivative(w, i) * (t_mono(2, i) - LaurentPoly.one(2))
        assert acc == LaurentPoly.monomial(2, abelianized(w)) - LaurentPoly.one(2)


def test_derivative_rejects_generator_index_out_of_range():
    w = Word(2, (1, 2, -1))
    assert not fox_derivative(w, 4).terms
    for i in (5, 0, -1):
        with pytest.raises(PreconditionError, match="out of range"):
            fox_derivative(w, i)


def _cancelling_words():
    """The empty words, x1 [x2, x3] x1^-1 and relatives, whose
    derivative in x1 has a key reached once with +1 and once with -1,
    and [x1, x2]^2, whose keys are each reached twice."""
    words = [Word(genus, ()) for genus in (1, 2, 3)]
    for genus in (2, 3):
        words += [
            Word(genus, (1, 2, 3, -2, -3, -1)),
            Word(genus, (1, 2, 3, -2, -3, -1, 2)),
            Word(genus, (-1, 2, 3, -2, -3, 1)),
        ]
    words.append(Word(1, (1, 2, -1, -2, 1, 2, -1, -2)))
    return words


def test_jacobian_matches_the_letterwise_derivatives():
    # every column of the one-pass scan is the derivative that scanned
    # the word once per generator, and its final prefix is the word's
    # exponent sum; no column stores a zero coefficient
    rng = random.Random(113)
    words = _cancelling_words()
    while len(words) < 2000:
        words.append(random_word(rng, rng.randrange(1, 4), max_len=14))
    for w in words:
        columns, prefix = fox_jacobian(w)
        assert prefix == abelianized(w)
        assert len(columns) == 2 * w.genus
        for i, column in enumerate(columns, start=1):
            assert column == fox_derivative_by_letters(w, i) == fox_derivative(w, i)
            assert all(column.terms.values())
    # x1 c x1^-1 with c a commutator avoiding x1: the +1 of x1 and the -1
    # of x1^-1 fall on one key and leave no term
    assert fox_jacobian(Word(2, (1, 2, 3, -2, -3, -1)))[0][0].terms == {}
    assert fox_jacobian(Word(1, ()))[0] == (LaurentPoly(1),) * 2


# -- the representation ----------------------------------------------------


def test_identity_matrix():
    m = magnus_rep(evaluate((), 2))
    assert m == rep_identity(2)


def test_sep_twist_entry_matches_hand_computation():
    # f = conjugation by d = [x1,x2] on x1: the derivative of d x1 d^-1
    # with respect to x1 is 2 - t1 - t2 + t1 t2 (since dd/dx1 = 1 - t2)
    m = magnus_rep(evaluate((("Sep1", 1),), 2))
    expect = LaurentPoly(
        2,
        {
            (0, 0, 0, 0): 2,
            (1, 0, 0, 0): -1,
            (0, 1, 0, 0): -1,
            (1, 1, 0, 0): 1,
        },
    )
    assert m[0][0] == expect
    assert m != rep_identity(2)


def test_rejects_non_torelli():
    with pytest.raises(PreconditionError):
        magnus_rep(evaluate((("C1", 1),), 2))


def _moved_columns(f):
    """The generators whose images f moves in homology."""
    n = 2 * f.genus
    return [
        j for j, image in enumerate(f.images)
        if abelianized(image) != tuple(int(i == j) for i in range(n))
    ]


def test_magnus_rep_reads_homology_from_its_own_scans(monkeypatch):
    # one scan per image gives its column and its exponent sum, so the
    # representation runs no Torelli test, homology matrix or
    # per-generator derivative of its own
    def forbidden(name):
        def fail(*args):
            raise AssertionError(f"magnus_rep called {name}")

        return fail

    sep = evaluate((("Sep1", 1),), 2)
    c1 = evaluate((("C1", 1),), 2)
    expected = tuple(
        tuple(fox_derivative_by_letters(sep.images[j], i + 1) for j in range(4))
        for i in range(4)
    )
    non_torelli = [c1, sep.compose(c1), c1.compose(sep)]
    for f in non_torelli:
        assert len(_moved_columns(f)) == 1
    for module, name in (
        (foxrep, "in_Mk"), (jfilt, "in_Mk"), (mcg, "homology_action"),
        (jfilt, "homology_action"), (foxrep, "fox_derivative"),
    ):
        monkeypatch.setattr(module, name, forbidden(name), raising=False)
    assert magnus_rep(sep) == expected
    for f in non_torelli:
        with pytest.raises(
            PreconditionError,
            match="^the Magnus representation is defined on homologically "
            "trivial classes only$",
        ):
            magnus_rep(f)


def _torelli_samples(rng, genus, count):
    """The words of conjugated separating twists and short products of
    them."""
    table = builtin_table(genus)
    names = table.chain_names + table.sep_names
    out = [(("Sep1", 1),), (("Sep1", -1),)]
    while len(out) < count:
        conj = tuple(
            (rng.choice(names), rng.choice((-1, 1))) for _ in range(rng.randrange(3))
        )
        word = conj + (("Sep1", rng.choice((-1, 1))),) + inverse_mcw(conj)
        if rng.random() < 0.5:
            word += rng.choice(out)
        f = evaluate(word, genus)
        if not f.is_identity() and in_Mk(f, 1):
            out.append(word)
    return out


def test_multiplicative_on_torelli_pairs():
    rng = random.Random(103)
    samples = _torelli_samples(rng, 2, 8)
    for _ in range(20):
        f = evaluate(rng.choice(samples), 2)
        g = evaluate(rng.choice(samples), 2)
        assert magnus_rep(f.compose(g)) == rep_mul(
            magnus_rep(f), magnus_rep(g)
        )


@pytest.mark.parametrize("genus", [2, 3])
def test_rep_mul_matches_the_sum_of_products(genus):
    # one dict per entry gives the matrix that summed a LaurentPoly
    # product per k
    rng = random.Random(127)
    matrices = [
        magnus_rep(evaluate(w, genus)) for w in _torelli_samples(rng, genus, 6)
    ]
    for a in matrices:
        for b in matrices:
            product = rep_mul(a, b)
            assert product == rep_mul_by_products(a, b)
            assert all(all(p.terms.values()) for row in product for p in row)
    with pytest.raises(GenusMismatch):
        rep_mul(rep_identity(2), rep_identity(3))


def test_inverse_pairs_multiply_to_identity():
    rng = random.Random(107)
    for w in _torelli_samples(rng, 2, 6):
        inverse = left_fold_evaluate(inverse_mcw(w), 2)
        prod = rep_mul(magnus_rep(evaluate(w, 2)), magnus_rep(inverse))
        assert prod == rep_identity(2)


def test_conjugation_consistency_two_code_paths():
    # the matrix of g f g^-1 computed directly equals the matrix
    # computed from the conjugated images (same object, two routes)
    rng = random.Random(109)
    samples = _torelli_samples(rng, 2, 4)
    table = builtin_table(2)
    for w in samples:
        name = rng.choice(table.chain_names)
        g, back = evaluate(((name, 1),), 2), left_fold_evaluate(((name, -1),), 2)
        conj = g.compose(evaluate(w, 2)).compose(back)
        if not in_Mk(conj, 1):
            continue
        direct = magnus_rep(conj)
        rebuilt = tuple(
            tuple(fox_derivative(conj.images[j], i + 1) for j in range(4))
            for i in range(4)
        )
        assert direct == rebuilt


# -- output forms ------------------------------------------------------------


def test_matrix_json_form():
    m = magnus_rep(evaluate((("Sep1", 1),), 2))
    doc = rep_as_json(m)
    assert len(doc) == 4 and len(doc[0]) == 4
    entry = doc[0][0]
    assert {"exponents": [0, 0, 0, 0], "coeff": "2"} in entry


# -- kernel scan ---------------------------------------------------------------


def test_suzuki_scan_zero_budget():
    assert suzuki_scan(2, 0) == []


def test_suzuki_scan_small_budget_runs_clean():
    hits = suzuki_scan(2, 6)
    # any reported hit must satisfy its own re-verified contract
    for c1, c2 in hits:
        from twistlab.curve import parse_curve_spec, resolve

        d1, d2 = (resolve(parse_curve_spec(2, c)) for c in (c1, c2))
        comm = evaluate(commutator_mcw(d1.twist_word, d2.twist_word), 2)
        assert not comm.is_identity()
        assert magnus_rep(comm) == rep_identity(2)


def _scan_pairs(genus, budget):
    """The separating pairs suzuki_scan(genus, budget) tests, in order."""
    specs, seen = [], set()
    for d in enumerate_curve_specs(genus, separating_only=True):
        if len(specs) == max(3, budget // 2):
            break
        t = resolve(d).twist
        if t.images not in seen:
            seen.add(t.images)
            specs.append((d, t))
    pairs = itertools.combinations(specs, 2)
    return list(itertools.islice(pairs, budget))


@pytest.mark.parametrize("genus,budget", [(2, 20), (3, 10)])
def test_suzuki_scan_matches_the_commutator_rule(genus, budget, monkeypatch):
    # the scan skips pairs whose curves do not cross and compares r(fg)
    # with r(gf); the reference forms fg, gf and [f, g] = fg f^-1 g^-1
    identity = rep_identity(genus)
    expected, crossing = [], set()
    for (da, ta), (db, tb) in _scan_pairs(genus, budget):
        fg, gf = ta.compose(tb), tb.compose(ta)
        words = (resolve(d).twist_word for d in (da, db))
        comm = evaluate(commutator_mcw(*words), genus)
        crosses = resolve(da).crosses(resolve(db))
        assert (fg == gf) == comm.is_identity() == commutes(ta, tb) != crosses
        if crosses:
            crossing |= {(id(ta), id(tb)), (id(tb), id(ta))}
        same_matrix = magnus_rep(fg) == magnus_rep(gf)
        assert same_matrix == (magnus_rep(comm) == identity)
        if not comm.is_identity() and same_matrix:
            expected.append((da.to_text(), db.to_text()))
    if genus == 3:
        assert len(crossing) < 2 * budget  # some tested pairs commute
    # crossing is read on the curves' classes (CurveData.crosses), so the
    # matrices are compared, column by column, for exactly the crossing
    # pairs; no product is composed and no two automorphisms are
    # compared: mcg.commutes and FreeAutomorphism.__eq__ are not called
    composed, compared = [], []
    compose = FreeAutomorphism.compose
    same_matrix = foxrep._same_matrix

    def recording_compose(f, g):
        composed.append((id(f), id(g)))
        return compose(f, g)

    def recording_same_matrix(f, g):
        compared.append((id(f), id(g)))
        return same_matrix(f, g)

    def no_commutes(f, g):
        raise AssertionError("suzuki_scan called mcg.commutes")

    def no_eq(f, g):
        raise AssertionError("suzuki_scan compared two automorphisms")

    monkeypatch.setattr(FreeAutomorphism, "compose", recording_compose)
    monkeypatch.setattr(FreeAutomorphism, "__eq__", no_eq)
    monkeypatch.setattr(foxrep, "_same_matrix", recording_same_matrix)
    for module in (mcg, jfilt, foxrep):
        monkeypatch.setattr(module, "commutes", no_commutes, raising=False)
    assert suzuki_scan(genus, budget) == expected
    assert composed == []
    assert sorted(compared + [(g, f) for f, g in compared]) == sorted(crossing)
    # classify_pair reads the same method; jfilt keeps no copy of it
    assert not hasattr(jfilt, "_crosses")


@pytest.mark.parametrize("genus,budget", [(2, 60), (3, 20)])
def test_same_matrix_is_the_full_matrix_comparison(genus, budget):
    # every scanned pair, commuting pairs included; at genus 3, 11 of the
    # 20 commute, so all 2g columns agree, the branch no scan budget of
    # the goldens reaches
    commuting = 0
    for (_, f), (_, g) in _scan_pairs(genus, budget):
        fg, gf = f.compose(g), g.compose(f)
        assert foxrep._same_matrix(f, g) == (magnus_rep(fg) == magnus_rep(gf))
        commuting += fg == gf
    assert commuting == (11 if genus == 3 else 0)


def test_suzuki_scan_rejects_a_twist_that_is_not_torelli(monkeypatch):
    # the scan checks each twist it reads once, with magnus_rep's message;
    # here the first separating curve's twist is replaced by t_C1
    first = next(curve.distinct_separating_curves(2))[1]
    chain = builtin_table(2).entry("C1").twist
    twist = curve.CurveData.twist

    def swapped(c):
        return chain if c is first else twist.func(c)

    monkeypatch.setattr(curve.CurveData, "twist", property(swapped))
    with pytest.raises(
        PreconditionError,
        match="^the Magnus representation is defined on homologically "
        "trivial classes only$",
    ):
        suzuki_scan(2, 20)
