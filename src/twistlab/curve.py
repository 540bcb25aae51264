"""Essential simple closed curves as (base curve, conjugating word) pairs.

A curve is only ever presented as a built-in base curve moved by a
mapping class word, which guarantees it is a genuine essential simple
closed curve.  The stored fundamental-group class of a curve is
canonical up to loop orientation, and algebraic intersection numbers
consequently carry a global sign ambiguity; consumers use absolute
values or zero tests only.

A curve is resolved on its class alone: the table-twist powers of the
conjugating word are applied to the base curve's word from the inside
out, stripping the word to its cyclically reduced core after each
factor (mcg.class_image), so the conjugator's generator images are
never built to resolve a curve.  The stored class is that core's
canonical form (Word.canonical_cyclic), the only rotation made.

Curves are compared and tested for crossing on that class.  Twists
along essential curves are equal iff the curves are isotopic
(Farb-Margalit, Primer, ch. 3), and freely homotopic essential simple
closed curves are isotopic (Epstein, Acta Math. 115, 1966), so two
curves are equal iff their classes are, and t_a commutes with t_b iff
t_a(b) = b, iff the twist along a fixes the class of b
(CurveData.moves, and CurveData.crosses, which every caller that asks
whether two twists commute reads).  More generally a mapping class f
commutes with t_c iff f fixes the class of c, since f t_c f^-1 =
t_{f(c)} (Primer, ch. 3).  One reader, same_class, compares two
classes, and _fixes asks with it whether a class fixes a curve's class,
so crossing asks whether a twist fixes the other curve's class, not
whether the two twists commute, and builds neither twist nor either
conjugator.

The twist along h(c) is h t_c h^-1 by the conjugation law, so it is
the mapping class word h (c, 1) h^-1 (CurveData.twist_word), which mcg
folds like any other: class_image reads its value on a class, as the
braid label of a pair does, and homology_matrix its action on
homology, as a separating curve's leading term does.  The expansion is
a ring homomorphism (Magnus-Karrass-Solitar, ch. 5), so the truncated
Magnus action (magnus.TruncatedAction) of the twist is that of h
composed with that of t_c h^-1 (CurveData.action), so a pair's depth
builds only h and t_c h^-1 (CurveData.inner), on first read, and only
when its leading term does not decide it.  h is evaluated from its word
and h^-1 from the inverse word (mcg.evaluate, which caches both by
word; mcg.inverse_mcw), so no automorphism is inverted.  The twist
itself (CurveData.twist), whose images grow with h, is evaluated from
its word like any other mapping class, and only for callers that need
the automorphism.

Spec text form: `Sep1 @ [C3 C4^-1]`, with `@ [...]` optional.  The
bracketed word is a mapping class word, read by mcg's scanner, and
homology matrices are mcg's too (homology_action, homology_matrix);
this module keeps the pairing of curves' homology vectors
(symplectic_pairing).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property, lru_cache

from .errors import SpecParseError, UnknownTwistName
from .magnus import TruncatedAction
from .mcg import (
    _scan_mcw,
    _scan_name,
    _skip_space,
    builtin_table,
    class_image,
    evaluate,
    format_mcw,
    inverse_mcw,
)
from .word import abelianized


class CurveSpec(namedtuple("CurveSpec", "genus base conjugator", defaults=((),))):
    __slots__ = ()

    def to_text(self):
        if not self.conjugator:
            return self.base
        return f"{self.base} @ [{format_mcw(self.conjugator)}]"


class CurveData(
    namedtuple(
        "CurveData",
        "pi1_class homology separating conjugator_word base twist_word",
    )
):
    """Resolved curve h(c): its class, homology and separating flag,
    with the word of the conjugator h, the table entry of the base
    curve c (base: the twist t_c, and for c = SepJ the J that a
    separating curve's leading term reads) and the word h (c, 1) h^-1
    of the twist along the curve.

    Resolving reads the class alone (mcg.class_image), so the twist
    along the curve, evaluated from twist_word, and the inner factor
    t_c h^-1, t_c composed with h^-1 evaluated from the inverse word,
    are built on first access (mcg.evaluate caches both words).  A pair
    reads the twist on classes (crosses, moves, and class_image of
    twist_word) and its depth from leading terms and homology matrices
    folded from the words when a curve is separating, or else from the
    actions of h and t_c h^-1 (action), so it never builds the twist,
    and a pair that its leading term decides builds neither h nor
    t_c h^-1; callers that need the automorphism itself, such as
    suzuki_scan, read it.  A concurrent first access only repeats work.
    The cached automorphisms live in the instance's __dict__, which is
    why the record has one.  It holds the base curve's automorphisms,
    which are not hashable, so neither is the record.
    """

    __hash__ = None

    @cached_property
    def inner(self):
        """t_c h^-1, the inner factor of the twist h (t_c h^-1)."""
        # t_c's short images substitute into those of h^-1, evaluated
        # from the inverse word
        back = evaluate(inverse_mcw(self.conjugator_word), self.base.twist.genus)
        return self.base.twist.compose(back)

    @cached_property
    def twist(self):
        """The twist h t_c h^-1 along the curve, evaluated from its word
        (twist_word) on first access."""
        return evaluate(self.twist_word, self.base.twist.genus)

    def moves(self, other):
        """Does the twist along this curve move the curve of other?

        With u = h^-1(b) for the class b of other, t_{h(c)}(b) = b up to
        conjugacy iff t_c(u) = u, since h carries conjugacy classes to
        conjugacy classes.  u is folded from b by the factors of h^-1
        (mcg.class_image), so h^-1 is not built.  The whole twist word is
        not folded: carrying t_c(u) back through h can make classes that
        pass the letter cap.  t_c fixes the class of u or not (_fixes).
        The answer is exact: the twist fixes the curve iff it commutes
        with the twist along it (see the module docstring), so
        a.moves(b) == b.moves(a).
        """
        back = inverse_mcw(self.conjugator_word)
        u = class_image(back, self.base.twist.genus, other.pi1_class)
        return not _fixes(self.base.twist, u)

    def crosses(self, other):
        """Do the twists along this curve and other fail to commute?

        a.moves(b) == b.moves(a), so the direction taken is the cheaper
        one by the words alone: the shorter conjugator word (exponents
        counted with their size) times the length of the other curve's
        class.  No conjugator is built.
        """
        mine = sum(abs(k) for _, k in self.conjugator_word) * len(other.pi1_class)
        theirs = sum(abs(k) for _, k in other.conjugator_word) * len(self.pi1_class)
        return other.moves(self) if theirs < mine else self.moves(other)

    def action(self, cap):
        """The TruncatedAction of the twist at the cap.

        Equal to TruncatedAction.of(self.twist, cap), and the twist is
        not built: the expansion is a ring homomorphism, so the action of
        h (t_c h^-1) is that of h composed with that of t_c h^-1, two
        expansions and one substitution whose cost follows numbers of
        terms, not the twist's letters.  A base curve's twist is t_c,
        which is expanded.  Raises SeriesTermLimit when a series passes
        MAX_SERIES_TERMS.
        """
        if not self.conjugator_word:
            return TruncatedAction.of(self.base.twist, cap)
        h = evaluate(self.conjugator_word, self.base.twist.genus)
        return TruncatedAction.of(h, cap).compose(
            TruncatedAction.of(self.inner, cap)
        )


def parse_curve_spec(genus, text):
    """Parse  NAME ('@' '[' word ']')?, the word a mapping class word."""
    base, pos = _scan_name(text, 0)
    factors = ()
    pos = _skip_space(text, pos)
    if pos < len(text):
        for ch in "@[":
            pos = _skip_space(text, pos)
            if not text.startswith(ch, pos):
                raise SpecParseError(f"expected {ch!r}", position=pos)
            pos += 1
        factors, pos = _scan_mcw(text, pos)
        pos = _skip_space(text, pos)
        if pos != len(text):
            raise SpecParseError("trailing input", position=pos)
    return CurveSpec(genus, base, factors)


@lru_cache(maxsize=8192)
def _resolve_cached(spec):
    table = builtin_table(spec.genus)
    entry = table.entry(spec.base)
    if not entry.essential:
        raise UnknownTwistName(
            f"{spec.base} is boundary-parallel and cannot serve as a curve base"
        )
    h = spec.conjugator
    moved = class_image(h, spec.genus, entry.base_word)
    # not from the canonical class, whose orientation may be reversed;
    # a conjugate has the same exponent sums
    hom = abelianized(moved)
    return CurveData(
        pi1_class=moved.canonical_cyclic(),
        homology=hom,
        separating=all(c == 0 for c in hom),
        conjugator_word=h,
        base=entry,
        # t_{h(c)} = h t_c h^-1 (Farb-Margalit, Primer, ch. 3)
        twist_word=h + ((spec.base, 1),) + inverse_mcw(h),
    )


def resolve(spec):
    """Resolve a spec; results are memoized (thread-safe via lru_cache)."""
    return _resolve_cached(spec)


# -- homology ----------------------------------------------------------


def symplectic_pairing(u, v):
    """Standard form with <e_{2i-1}, e_{2i}> = 1 on homology vectors."""
    total = 0
    for i in range(0, len(u), 2):
        total += u[i] * v[i + 1] - u[i + 1] * v[i]
    return total


# -- fixed classes -----------------------------------------------------


def same_class(u, v):
    """Are the cyclically reduced words u and v one curve class, that is,
    conjugate up to inversion?

    Cyclically reduced length is a conjugacy invariant, so the lengths
    are compared first; words of equal length are compared by their
    canonical forms, which forget the base point and the orientation, as
    an unoriented curve class does.
    """
    return len(u) == len(v) and u.canonical_cyclic() == v.canonical_cyclic()


def _fixes(f, u):
    """Does the automorphism f fix the class of the cyclically reduced
    word u (same_class)?"""
    return same_class(u, f(u).cyclic_reduce())


# -- curve searches ----------------------------------------------------


def enumerate_curve_specs(genus, separating_only=False):
    """Deterministic stream of curve specs: bases in table order,
    conjugators by length then lexicographically."""
    table = builtin_table(genus)
    bases = [
        n
        for n in table.essential_base_names()
        if not separating_only or table.entry(n).separating
    ]
    alphabet = [
        (n, e)
        for n in table.chain_names + table.sep_names
        for e in (1, -1)
    ]
    length = 0
    while True:
        for conj in itertools.product(alphabet, repeat=length):
            for base in bases:
                yield CurveSpec(genus, base, conj)
        length += 1


def distinct_separating_curves(genus):
    """The separating specs of enumerate_curve_specs, one per curve.

    Yields (spec, CurveData) for each spec whose curve no earlier spec
    had: curves are equal iff their classes are (see the module
    docstring), so a curve reached again by a different word is skipped.
    No twist is built; a caller that needs one reads CurveData.twist.
    """
    seen = set()
    for d in enumerate_curve_specs(genus, separating_only=True):
        data = resolve(d)
        if data.pi1_class not in seen:
            seen.add(data.pi1_class)
            yield d, data
