import math
import random

import pytest

from twistlab import magnus
from twistlab.curve import parse_curve_spec, resolve
from twistlab.errors import SeriesTermLimit
from twistlab.magnus import TruncatedAction, magnus_expand
from twistlab.mcg import builtin_table, evaluate, inverse_mcw
from twistlab.word import Word

from references import (
    commutator,
    homogeneous_part,
    left_fold_evaluate,
    magnus_expand_by_groupby,
)


# -- independent dense oracle -----------------------------------------
#
# A tiny dense noncommutative polynomial: coefficients indexed by the
# monomial written out as a letter tuple.  Deliberately written in the
# most naive style possible so it shares no code with the sparse
# per-degree representation under test.


class DensePoly:
    def __init__(self, genus, cap, coeffs=None):
        self.genus = genus
        self.cap = cap
        self.coeffs = dict(coeffs or {})

    @classmethod
    def one(cls, genus, cap):
        return cls(genus, cap, {(): 1})

    def times(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                if len(m1) + len(m2) > self.cap:
                    continue
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return DensePoly(self.genus, self.cap, {m: c for m, c in out.items() if c})


def dense_letter_series(genus, cap, letter):
    i = abs(letter)
    if letter > 0:
        return DensePoly(genus, cap, {(): 1, (i,): 1})
    coeffs = {(): 1}
    for d in range(1, cap + 1):
        coeffs[(i,) * d] = (-1) ** d
    return DensePoly(genus, cap, coeffs)


def dense_expand(w, cap):
    acc = DensePoly.one(w.genus, cap)
    for ell in w.letters:
        acc = acc.times(dense_letter_series(w.genus, cap, ell))
    return acc


def as_dense_dict(series, genus):
    out = {}
    for d in range(len(series.degrees)):
        for mono, c in homogeneous_part(series, d, genus).items():
            out[mono] = c
    return out


def random_word(rng, genus, max_len):
    n = rng.randrange(0, max_len + 1)
    return Word(
        genus,
        tuple(rng.choice([1, -1]) * rng.randrange(1, 2 * genus + 1) for _ in range(n)),
    )


# -- examples ----------------------------------------------------------


def test_empty_word_is_one():
    s = magnus_expand(Word(2), 3)
    assert s.degrees == [{0: 1}, {}, {}, {}]


def test_generator_image():
    s = magnus_expand(Word.generator(1, 1), 2)
    assert as_dense_dict(s, 1) == {(): 1, (1,): 1}


def test_commutator_cap2():
    # hand product of the four letter series:
    # (1+X1)(1+X2)(1-X1+X1^2)(1-X2+X2^2) = 1 + X1X2 - X2X1 + O(3)
    w = commutator(Word.generator(1, 1), Word.generator(1, 2))
    s = magnus_expand(w, 2)
    assert as_dense_dict(s, 1) == {(): 1, (1, 2): 1, (2, 1): -1}


def test_inverse_pair_mul():
    # the expansions of x and x^-1 are inverse series
    x = magnus_expand(Word.generator(1, 1), 2)
    xinv = magnus_expand(Word.generator(1, 1, -1), 2)
    product = DensePoly(1, 2, as_dense_dict(x, 1)).times(
        DensePoly(1, 2, as_dense_dict(xinv, 1))
    )
    assert product.coeffs == {(): 1}


def test_expand_matches_dense_oracle():
    rng = random.Random(17)
    for _ in range(60):
        w = random_word(rng, 1, 10)
        assert as_dense_dict(magnus_expand(w, 3), 1) == dense_expand(w, 3).coeffs


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_multiplicativity(cap):
    rng = random.Random(100 + cap)
    for _ in range(40):
        u = random_word(rng, 2, 8)
        v = random_word(rng, 2, 8)
        dense = dense_expand(u, cap).times(dense_expand(v, cap))
        assert as_dense_dict(magnus_expand(u * v, cap), 2) == dense.coeffs


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_expand_matches_letter_by_letter_product(genus):
    rng = random.Random(200 + genus)
    n = 2 * genus
    words = [
        Word(genus),
        Word.generator(genus, n, 40),
        Word.generator(genus, 1, -25),
        # long runs of one generator, of both signs, side by side
        Word(genus, (1,) * 9 + (-n,) * 11 + (1,) * 6 + (n,) * 3),
        Word(genus, (-1,) * 8 + (n,) * 12 + (-1,) * 5),
    ]
    for _ in range(4):
        letters = []
        for _ in range(rng.randrange(1, 7)):
            i = rng.randrange(1, n + 1) * rng.choice((1, -1))
            letters.extend([i] * rng.randrange(1, 5))
        words.append(Word(genus, tuple(letters)))
        words.append(random_word(rng, genus, 12))
    for cap in range(1, 6):
        for w in words:
            # dense_expand multiplies one letter series at a time
            expected = dense_expand(w, cap).coeffs
            assert as_dense_dict(magnus_expand(w, cap), genus) == expected, (w, cap)


def _assert_expansions_match_groupby_kernel(w, cap):
    # the same terms, inserted in the same order, so that any reader
    # that iterates a degree sees no difference
    got, ref = magnus_expand(w, cap), magnus_expand_by_groupby(w, cap)
    assert [list(d.items()) for d in got.degrees] == [
        list(d.items()) for d in ref.degrees
    ], (w, cap)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_expand_matches_the_groupby_kernel_on_long_runs(genus):
    rng = random.Random(300 + genus)
    n = 2 * genus
    words = [
        Word.generator(genus, i, m)
        for i in (1, n)
        for m in (-12, -7, -2, -1, 1, 2, 5, 12)
    ]
    for _ in range(6):
        letters = []
        for _ in range(rng.randrange(1, 6)):
            i = rng.randrange(1, n + 1) * rng.choice((1, -1))
            letters.extend([i] * rng.randrange(1, 13))
        words.append(Word(genus, tuple(letters)))
        words.append(random_word(rng, genus, 12))
    for cap in range(1, 7):
        for w in words:
            _assert_expansions_match_groupby_kernel(w, cap)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_expand_matches_the_groupby_kernel_on_twist_images(genus):
    # images of products of table-twist powers with |k| up to 9: mostly
    # runs of one letter, and runs of one letter repeated, which is
    # where the per-call memo of run factors is reused
    rng = random.Random(310 + genus)
    names = builtin_table(genus).names()
    words = []
    for _ in range(8):
        mcw = tuple((rng.choice(names), rng.choice((1, -1)) * rng.randrange(1, 10))
                    for _ in range(rng.randrange(1, 4)))
        words += evaluate(mcw, genus).images
        words += left_fold_evaluate(inverse_mcw(mcw), genus).images
    for cap in range(1, 5):
        for w in words:
            _assert_expansions_match_groupby_kernel(w, cap)


def test_cap_one_keeps_the_key_order_when_a_sum_returns_to_zero():
    # x1 x2 x1^-1 x3 x1: x1's sum returns to 0 between runs, so its key
    # is deleted and comes back last
    w = Word(2, (1, 2, -1, 3, 1))
    assert list(magnus_expand(w, 1).degrees[1].items()) == [
        (1, 1), (2, 1), (0, 1)
    ]
    # x1 x2 x1^-3: x1's sum passes 0 inside one run, so its key stays first
    w = Word(2, (1, 2, -1, -1, -1))
    assert list(magnus_expand(w, 1).degrees[1].items()) == [(0, -2), (1, 1)]
    words = [
        Word(2, (1, 2, -1, 3, 1)),
        Word(2, (1, 2, -1, -1, -1)),
        Word(2, (-2, -2, 1, 2, 2, 2, 2, -3, -2, -2, 4, 2)),
        Word(3, (5, 5, 1, -5, -5, -5, -5, 2, 5, 5, -6, 5)),
    ]
    for w in words:
        _assert_expansions_match_groupby_kernel(w, 1)


def test_cap_one_matches_the_groupby_kernel_on_heavy_pair_images():
    # the crossing pool pairs with |algebraic| != 0 whose images of h and
    # t_c h^-1 hold the most letters: their cap-1 step expands these
    pairs = [
        (2, "C4", "C2 @ [Sep1^2 C3^2 C2^2 Sep1^-2]"),
        (2, "C4 @ [Sep1^-2 C3^-2 C3^-2 C3^-2]", "C3 @ [C2^-2 C2 C3^-2 C3]"),
        (3, "C2 @ [C1^-1 C5^-1 C3^-1 C2]", "C1 @ [C5^-2 Sep2^-2 C3^-2]"),
        (3, "C4 @ [C3 Sep2^2 Sep2]", "C3 @ [C2^-2 Sep1^2 C3^-1 C3^-1]"),
    ]
    words = []
    for genus, *specs in pairs:
        for text in specs:
            d = resolve(parse_curve_spec(genus, text))
            if d.conjugator_word:
                h = evaluate(d.conjugator_word, genus)
                words += h.images + d.inner.images
    assert sum(map(len, words)) > 3000
    for w in words:
        _assert_expansions_match_groupby_kernel(w, 1)


# -- lower central series depth ----------------------------------------


def lowest(w, cap):
    """Smallest d >= 1 with a nonzero degree-d term, else None."""
    s = magnus_expand(w, cap)
    return next((d for d in range(1, cap + 1) if s.degrees[d]), None)


def test_depth_examples():
    x1 = Word.generator(1, 1)
    x2 = Word.generator(1, 2)
    assert lowest(x1, 3) == 1
    c = commutator(x1, x2)
    assert lowest(c, 3) == lowest(c, 2)
    assert lowest(c, 2) == 2
    cc = commutator(c, x1)
    assert lowest(cc, 3) == 3
    assert lowest(Word(1), 4) is None


def test_depth_atleast_when_cap_exhausted():
    c = commutator(
        commutator(Word.generator(1, 1), Word.generator(1, 2)),
        Word.generator(1, 1),
    )
    assert c.letters
    assert lowest(c, 2) is None  # in the 3rd lower central term, at least


def depth_bound(w, cap):
    """Lower-central level of a nontrivial w certified at cap: the lowest
    nonzero degree of its expansion, or cap + 1 when all vanish."""
    d = lowest(w, cap)
    return cap + 1 if d is None else d


def test_filtration_property_of_commutators():
    rng = random.Random(23)
    cap = 4
    for _ in range(120):
        u = random_word(rng, 2, 6)
        v = random_word(rng, 2, 6)
        if not u.letters or not v.letters:
            continue
        c = commutator(u, v)
        if not c.letters:
            continue
        expected = min(depth_bound(u, cap) + depth_bound(v, cap), cap + 1)
        assert depth_bound(c, cap) >= expected


def test_depth_invariant_under_conjugation():
    rng = random.Random(29)
    for _ in range(80):
        w = random_word(rng, 2, 8)
        g = random_word(rng, 2, 6)
        conj = g * w * g.inverse()
        assert (not w.letters) == (not conj.letters)
        assert lowest(w, 3) == lowest(conj, 3)


def test_coefficient_growth_bound():
    # a length-L word expanded at cap D has coefficients bounded by the
    # number of ways to distribute D letter slots over L factors with
    # repetition, i.e. C(L+D-1, D).  (Inverse letters contribute higher
    # powers, so the binomial C(L, D) alone is NOT a bound: x1^-2 at
    # cap 2 already has coefficient 3.)
    rng = random.Random(41)
    for _ in range(60):
        w = random_word(rng, 2, 12)
        L = len(w)
        if L == 0:
            continue
        s = magnus_expand(w, 4)
        for d in range(1, 5):
            bound = math.comb(L + d - 1, d)
            for coeff in s.degrees[d].values():
                assert abs(coeff) <= bound


# -- the term budget of TruncatedAction.of ------------------------------


def _first_term_limit(f, cap, limit):
    """(image, degree) where a budget loop over caps 1..cap first meets
    a top degree of more than `limit` terms, or None."""
    for w in f.images:
        for c in range(1, cap + 1):
            if len(magnus_expand(w, c).degrees[c]) > limit:
                return w, c
    return None


@pytest.mark.parametrize(
    "genus, limit", [(1, 1), (2, 3), (2, 20), (2, 100), (3, 40)]
)
def test_action_budget_stops_where_a_loop_from_cap_1_stops(
    monkeypatch, genus, limit
):
    # TruncatedAction.of skips the degrees whose (2g)^d possible terms
    # fit the budget; it must still stop at the same image and degree
    rng = random.Random(59 + limit + genus)
    table = builtin_table(genus)
    names = table.chain_names + table.sep_names
    classes = [
        evaluate(tuple((rng.choice(names), rng.choice((-1, 1)))
                       for _ in range(rng.randrange(1, 4))), genus)
        for _ in range(8)
    ]
    calls = []

    def recording_expand(w, cap):
        calls.append((w, cap))
        return magnus_expand(w, cap)

    monkeypatch.setattr(magnus, "MAX_SERIES_TERMS", limit)
    monkeypatch.setattr(magnus, "magnus_expand", recording_expand)
    stopped = set()
    for f in classes:
        for cap in range(1, 7):
            expected = _first_term_limit(f, cap, limit)
            calls.clear()
            if expected is None:
                TruncatedAction.of(f, cap)
            else:
                with pytest.raises(
                    SeriesTermLimit,
                    match=f"exceeded {limit} terms; expansion aborted",
                ):
                    TruncatedAction.of(f, cap)
                assert calls[-1] == expected, (f, cap)
            stopped.add(expected is not None)
    assert stopped == {True, False}
