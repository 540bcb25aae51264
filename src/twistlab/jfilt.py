"""Johnson filtration depths of the commutators of curve twists.

M(k) is the kernel of the mapping class action on the free group modulo
the (k+1)-st lower central term.  Every depth here is a JFDepth:
identity, not_in_m1, exact(k) (in M(k) and not in M(k+1)), or
at_least(k) when the cap runs out.  The depth of the commutator [f, g]
of the twists f and g along two curves is the lowest degree at which fg
and gf act differently on Z<<X>> / (deg > cap) (Magnus-Karrass-Solitar,
Combinatorial Group Theory, ch. 5).  Whether f and g commute is decided
first and exactly, and commuting twists get the identity: t_a and t_b
commute iff t_a(b) = b (CurveData.crosses; see the curve module), so a
commuting pair builds neither twist nor either conjugator.  For a
crossing pair one loop, _pair_depth, reads the depth: it compares the
truncated actions (magnus.TruncatedAction) of fg and gf with
action_depth at caps c = start, start + 1, ... and returns at the first
cap where they differ, so no depth expands above the cap it stops at.
Below start, fg and gf are known to agree (_pair_start).  The loop
starts at cap 1, or at cap 2 when the algebraic intersection is 0: on
homology, T_a T_b - T_b T_a = <a,b>(<b,.>a + <a,.>b), so then fg and gf
agree in degree 1.  A twist along a separating curve lies in M(2),
which is normal, so with one separating curve the commutator lies in
M(2); with two it lies in [M(2), M(2)], inside M(4) (Morita), so below
cap 3 or cap 5 such a pair expands nothing.  Its degree 3 or 5 is then
read from leading terms, not from actions: the term of the twist along
a separating curve h(c) is a closed form in the homology matrix of h
(Morita), read by one reader from the curve's words (_curve_term), so
the pair's term costs a few integer matrices, nothing is expanded and
no conjugator is built.  A nonzero term gives exact(2) or exact(4); a
zero one starts the loop at cap 4 or 6.  The actions of fg and gf at
each cap are composed from those of f and g, and the long images of fg
and gf are never built for a depth.  The action of a curve twist
h (t_c h^-1) is itself composed from those of its two factors
(CurveData.action), so no pair builds a twist.
Nested commutators, whose actions pass the term budget at high caps,
are read from leading terms instead: the leading term of a class in
M(k) is a derivation (magnus.Derivation), and the leading term of
[f, g] is the bracket of those of f and g (Morita), so
nested_leading_terms gives the exact levels of nested commutators of
two separating twists from their curves' terms, read from words by the
same reader as a pair's, so no twist is evaluated and nothing is
expanded.

The depth of a curve pair is the depth of the commutator of the two
twists (PairReport.depth).  The JSON reports write it as the pair's
ijf value, one above the level:

  * 0     -- identity: the twists commute (decided exactly: the only
             class lying in every M(k) is the identity);
  * 1     -- not_in_m1: the commutator acts nontrivially on homology,
             equivalently the algebraic intersection number is nonzero;
  * k+1   -- exact(k): the commutator lies in M(k) but not M(k+1);
  * >=k+1 -- at_least(k): the degree cap is exhausted.

The braid flag reported for pairs is exact: for twists along two
curves, t1 t2 t1 = t2 t1 t2 holds iff the curves are equal or meet
exactly once (Farb-Margalit, Primer, ch. 3).  Commuting twists satisfy
it iff they are equal, iff the curves' classes are; crossing twists
only if |algebraic| = 1.  For those, the relation reads
(t1 t2) t1 (t1 t2)^-1 = t2, that is, the twist along t1 t2 (c1) is the
twist along c2, so the flag holds iff t1 t2 maps the class of c1 to
that of c2 (see the curve module), iff t2 maps the class of c1 to
t1^-1 of the class of c2.  Each twist t_{h(c)} = h t_c h^-1 is the
mapping class word h (c, 1) h^-1 (CurveData.twist_word), so the two
sides meet in the middle: t2's word is folded over the class of c1 and
the inverse of t1's over that of c2 (mcg.class_image), and neither the
product t1 t2 nor either twist is built.  Each side folds one twist
word, so it stays short where the fold of both words over one class can
pass the letter cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import resolve, same_class, symplectic_pairing
from .errors import ConsistencyViolation, GenusMismatch, PreconditionError
from .magnus import Derivation
from .mcg import class_image, homology_matrix, inverse_mcw


@dataclass(frozen=True)
class JFDepth:
    """Filtration depth of a mapping class, or of a commutator, up to a cap.

    kind: "identity" | "not_in_m1" | "exact" | "at_least".
    exact(k): in M(k) and not in M(k+1); at_least(k): in M(k), cap hit.
    """

    kind: str
    level: int | None = None


def action_depth(f, g):
    """Filtration depth of g^-1 f from two TruncatedActions.

    The series are compared degree by degree from 1, and the first
    degree d where any pair differs gives exact(d - 1), or not_in_m1 at
    d = 1.  Equal actions give at_least(cap): truncation never proves
    the identity.
    """
    if f.cap != g.cap:
        raise PreconditionError(f"cap mismatch: {f.cap} vs {g.cap}")
    for d in range(1, f.cap + 1):
        if any(s[d] != t[d] for s, t in zip(f.series, g.series)):
            # in M(d - 1) and not in M(d)
            return JFDepth("not_in_m1") if d == 1 else JFDepth("exact", d - 1)
    return JFDepth("at_least", f.cap)


def nested_leading_terms(a, b):
    """Leading terms D_{w_1}, D_{w_2}, ... of w_m = [t_a, w_{m-1}],
    w_0 = t_b, for curve specs a and b.

    t_a and t_b must lie in M(2) and not M(3): both curves must be
    separating, so that their twists lie in M(2), with nonzero leading
    terms, read from words as a separating pair's are (_curve_term);
    otherwise ConsistencyViolation is raised.  For f in M(k) and g in
    M(l), the degree-(k+l+1) part of [f, g] is [D_f, D_g]
    (magnus.Derivation), so w_m lies in M(2m+2) and D_{w_m} =
    [D_a, D_{w_{m-1}}] is its degree-(2m+2) leading term.  A nonzero one
    proves that w_m is not in M(2m+3), so not the identity; a zero one
    proves w_m in M(2m+3) and no more.  No twist is evaluated and
    nothing is expanded.  Raises SeriesTermLimit when a bracket passes
    MAX_SERIES_TERMS.
    """
    leads = []
    for spec in (a, b):
        d = resolve(spec)
        term = d.separating and _curve_term(d, d.conjugator_word)
        if not term:
            raise ConsistencyViolation(
                "a nested commutator factor is not at exact level 2"
            )
        leads.append(term)
    lead_a, lead = leads
    while True:
        lead = lead_a.bracket(lead)
        yield lead


@dataclass(frozen=True)
class PairReport:
    """Full classification of a curve pair at a given depth cap.

    depth is the depth of the twist commutator; as_dict writes it as the
    pair's ijf value, one above its level (see the module docstring).
    """

    genus: int
    c1: str
    c2: str
    commuting: bool
    braid: bool
    algebraic: int
    depth: JFDepth
    depth_cap: int
    # read by the separating-pair law of check_consistency; as_dict
    # leaves them out, so the JSON reports do not depend on them
    c1_separating: bool
    c2_separating: bool

    def as_dict(self):
        kind, level = self.depth.kind, self.depth.level
        value = None if level is None else level + 1
        if kind == "identity":
            kind, label = "zero", "0"
        elif kind == "not_in_m1":
            kind, label = "one", "1"
        else:
            label = str(value) if kind == "exact" else f">={value}"
        return {
            "genus": self.genus,
            "c1": self.c1,
            "c2": self.c2,
            "commuting": self.commuting,
            "braid": self.braid,
            "algebraic": self.algebraic,
            "ijf": {"kind": kind, "value": value},
            "ijf_label": label,
            "depth_cap": self.depth_cap,
        }


def check_consistency(report):
    """Raise unless the report satisfies the exact cross-detector laws."""
    r = report
    kind = r.depth.kind
    if r.commuting != (kind == "identity"):
        raise ConsistencyViolation(
            f"commuting <-> identity commutator violated: {r}"
        )
    if (kind in ("exact", "at_least")) != ((not r.commuting) and r.algebraic == 0):
        raise ConsistencyViolation(
            f"commutator in M(1) <-> (crossing with zero algebraic) violated: {r}"
        )
    if (kind == "not_in_m1") != (r.algebraic != 0):
        raise ConsistencyViolation(
            f"commutator not in M(1) <-> nonzero algebraic violated: {r}"
        )
    if r.braid and not r.commuting and kind != "not_in_m1":
        raise ConsistencyViolation(
            f"braid pair must have commutator not in M(1): {r}"
        )
    # a separating twist lies in M(2), which is normal, so the
    # commutator of a crossing pair with one separating curve has level
    # >= 2
    if (
        r.c1_separating != r.c2_separating
        and not r.commuting
        and kind != "at_least"
        and not (kind == "exact" and r.depth.level >= 2)
    ):
        raise ConsistencyViolation(
            f"crossing pair with one separating curve must have commutator "
            f"in M(2): {r}"
        )
    # separating twists lie in M(2) and [M(2), M(2)] lies in M(4)
    # (Morita), so the commutator of two crossing separating twists has
    # level >= 4
    if (
        r.c1_separating
        and r.c2_separating
        and not r.commuting
        and kind != "at_least"
        and not (kind == "exact" and r.depth.level >= 4)
    ):
        raise ConsistencyViolation(
            f"crossing separating pair must have commutator in M(4): {r}"
        )


def _pair_start(d1, d2, algebraic):
    """First degree in which fg and gf can differ for crossing twists.

    1 when algebraic is nonzero.  2 when it is 0, since on homology
    T_a T_b - T_b T_a = <a,b>(<b,.>a + <a,.>b), so fg and gf agree in
    degree 1.  3 when one curve is separating: its twist conjugates the
    generators it moves by the curve's class, which lies in the second
    lower central term, so the twist lies in M(2); M(2) is normal, so
    [f, g] lies in it too.  5 when both are, since [M(2), M(2)] lies in
    M(4) (Morita).  A separating curve has zero homology, so algebraic
    is 0 in the last two cases, and there the leading term of [f, g] in
    degree start decides that degree (_separating_term).
    """
    if algebraic:
        return 1
    if d1.separating and d2.separating:
        return 5
    if d1.separating or d2.separating:
        return 3
    return 2


def _curve_term(d, word):
    """D_{h(c)}, the leading term of the twist along the separating
    curve h(c), for the resolved curve d with base c = SepJ and the
    word h.

    The term is a closed form in H, the homology matrix of h
    (magnus.Derivation.separating; Morita, Topology 28, 1989), and H is
    folded from the word h (mcg.homology_matrix), so nothing is expanded
    and no conjugator and no twist is built.
    """
    genus = d.base.twist.genus
    return Derivation.separating(genus, d.base.index, homology_matrix(word, genus))


def _separating_term(d1, d2):
    """Is the leading term of [t_a, t_b] nonzero, for crossing curves
    a = h_a(c_a), separating, and b?

    Conjugating by h_a^-1 carries [t_a, t_b] to [t_{c_a}, t_{b'}], with
    b' = h_a^-1(b), and its leading term to that term moved by H_a^-1,
    which is zero iff the term is.  So the term is read in that frame,
    where D_{c_a} is read at the identity matrix, and each term from a
    word (_curve_term).  When b is not separating, the level-2 term is
    D_{c_a} - D', with D' the term of t_{b'} t_{c_a} t_{b'}^-1, the
    twist along the curve h_a^-1 t_b h_a (c_a), with t_b's word
    h_b (c_b, 1) h_b^-1 (CurveData.twist_word).  When b = h_b(c_b) is
    separating too, the level-4 term is [D_{c_a}, D_{b'}] (Morita).  No
    conjugator and no twist is built, and nothing is expanded.
    """
    if not d1.separating:
        d1, d2 = d2, d1
    h = d1.conjugator_word
    back, term = inverse_mcw(h), _curve_term(d1, ())
    if d2.separating:
        return bool(term.bracket(_curve_term(d2, back + d2.conjugator_word)))
    return term != _curve_term(d1, back + d2.twist_word + h)


def _pair_depth(d1, d2, algebraic, cap):
    """Filtration depth of [t_a, t_b] for crossing curves a and b.

    [t_a, t_b] lies in M(k) iff t_a t_b and t_b t_a act alike on
    Z<<X>> / (deg > k) (Magnus), so the actions of the two twists
    (CurveData.action) are composed both ways at caps c = start,
    start + 1, ... and compared by action_depth, and neither product is
    built.  The degree-d part of an action does not depend on the cap
    above d, and substitution is exact modulo degree > c, so the first
    cap c at which the products differ finds the difference in degree c,
    and the depth is exact(c - 1), or not_in_m1 at c = 1.  No difference
    through the cap gives at_least(cap).  start is _pair_start.  With a
    separating curve that start is 3 or 5 and the pair's leading term
    decides the degree first: a nonzero term gives exact(start - 1) with
    nothing expanded, and a zero one puts the commutator in M(start),
    so the loop starts one degree later.
    Below that start the cap is reached with nothing read.  The work at
    a cap grows geometrically with it, so the loop costs a small
    multiple of the work at the cap it stops at.  Raises SeriesTermLimit
    when a series passes MAX_SERIES_TERMS.
    """
    start = _pair_start(d1, d2, algebraic)
    if start > 2 and cap >= start:
        if _separating_term(d1, d2):
            return JFDepth("exact", start - 1)
        start += 1
    for c in range(start, cap + 1):
        a, b = d1.action(c), d2.action(c)
        depth = action_depth(a.compose(b), b.compose(a))
        if depth.kind != "at_least":
            return depth
    return JFDepth("at_least", cap)


def classify_pair(c1, c2, cap, check=True):
    """Classify a pair; with check=True the consistency laws are enforced."""
    if c1.genus != c2.genus:
        raise GenusMismatch("curve specs of different genus")
    if cap < 1:
        raise PreconditionError("cap must be >= 1")
    d1, d2 = resolve(c1), resolve(c2)
    commuting = not d1.crosses(d2)
    algebraic = symplectic_pairing(d1.homology, d2.homology)
    # Commuting is read on one curve's class (CurveData.crosses), so a
    # commuting pair builds neither twist: commuting twists braid iff equal
    # (f^2 g = g^2 f forces f = g), iff the curves' classes are.
    # Crossing twists braid only along curves meeting once, which forces
    # |algebraic| = 1, so the classes are folded only for those.  That
    # shortcut is needed as well as fast: for C3 @ [C3^2 Sep1^-2 Sep1^-2
    # Sep1^-2] and Sep1, with algebraic 0, the image of the class of c1
    # under fg passes the letter cap.  Otherwise fgf = gfg iff
    # fg f (fg)^-1 = g, which holds iff g(c1) is the class of f^-1(c2)
    # (see the module docstring), each folded from one twist's word
    # (CurveData.twist_word), so no twist is built, and compared as
    # curve classes (same_class).  The depth starts at the first degree
    # in which fg and gf can differ (_pair_start).  With a separating
    # curve that degree is read from leading terms, so no conjugator is
    # built unless the term is zero; other pairs, and pairs above a zero
    # term, compose the actions of each curve's h and t_c h^-1
    # (CurveData.action, _pair_depth).
    if commuting:
        braid, depth = d1.pi1_class == d2.pi1_class, JFDepth("identity")
    else:
        braid = False
        if abs(algebraic) == 1:
            u = class_image(d2.twist_word, c1.genus, d1.pi1_class)
            v = class_image(inverse_mcw(d1.twist_word), c1.genus, d2.pi1_class)
            braid = same_class(u, v)
        depth = _pair_depth(d1, d2, algebraic, cap)
    report = PairReport(
        genus=c1.genus,
        c1=c1.to_text(),
        c2=c2.to_text(),
        commuting=commuting,
        braid=braid,
        algebraic=algebraic,
        depth=depth,
        depth_cap=cap,
        c1_separating=d1.separating,
        c2_separating=d2.separating,
    )
    if check:
        check_consistency(report)
    return report
