"""Johnson filtration membership and the intersection depth of curve pairs.

M(k) is the kernel of the mapping class action on the free group modulo
the (k+1)-st lower central term.  Every depth here, of one class or of
a twist commutator, is the lowest degree at which two automorphisms (f
and the identity, or fg and gf) act differently on Z<<X>> / (deg > cap)
(Magnus-Karrass-Solitar, Combinatorial Group Theory, ch. 5), and one
comparison, action_depth, reads it from their truncated actions
(magnus.TruncatedAction).  Degree 1 of the Magnus expansion of a word is
its exponent-sum vector, so the depth of one class, and a pair depth at
cap 1, decide degree 1 by comparing homology actions, with no
expansion; above it the action of the class at the cap is compared
with the identity's.  Whether f and g commute is decided first and
exactly, by mcg.commutes, which compares f(g(x_i)) with g(f(x_i)) one
generator at a time and composes neither product.  The depth of a
commutator [f, g] that is not the identity comes from the truncated
actions of f and g, composed both ways at caps 1, 2, ... up to the
first cap where fg and gf differ, or at cap 1 from the products of
the homology matrices of f and g.  So the images of fg and gf, about as
long as the products of the lengths of those of f and g, are never
composed for a depth.  For a curve twist t_{h(c)} = h t_c h^-1 whose
images are long against those of h, the action itself is composed from
the actions of h, t_c and h^-1, exactly, since the expansion is a ring
homomorphism (CurveData.action; curve.COMPOSE_MULTIPLE sets how long is
long, because composing costs more than expanding a short twist's
images).  Nested commutators, whose actions pass the term budget at
high caps, are read from leading terms instead: the leading term of a
class in M(k) is a derivation (magnus.Derivation, also behind
johnson_leading_term), and the leading term of [f, g] is the bracket of
those of f and g (Morita), so nested_leading_terms gives exact levels
from actions at cap 3 alone.

The depth function on a curve pair measures how far the commutator of
the two twists sinks into the filtration:

  * 0   -- the twists commute (decided exactly: the only class lying in
           every M(k) is the identity);
  * 1   -- the commutator acts nontrivially on homology, equivalently
           the algebraic intersection number is nonzero;
  * k+1 -- the commutator lies in M(k) but not M(k+1);
  * at-least values when the degree cap is exhausted.

The braid flag reported for pairs is exact: for twists along two
curves, t1 t2 t1 = t2 t1 t2 holds iff the curves are equal or meet
exactly once (Farb-Margalit, Primer, ch. 3).  Commuting twists satisfy
it iff they are equal; crossing twists only if |algebraic| = 1.  For
those, the relation reads (t1 t2) t1 (t1 t2)^-1 = t2, that is, the twist
along t1 t2 (c1) is the twist along c2.  Twists along essential curves
are equal iff the curves are isotopic (Primer, ch. 3), and freely
homotopic essential simple closed curves are isotopic (Epstein, Acta
Math. 115, 1966), so the flag holds iff t1 t2 maps the free homotopy
class of c1 to that of c2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .curve import (
    CurveSpec,
    curves_equal,
    homology_action,
    mat_mul,
    resolve,
    symplectic_pairing,
)
from .errors import ConsistencyViolation, GenusMismatch, PreconditionError
from .magnus import Derivation, TruncatedAction
from .mcg import (
    FreeAutomorphism,
    builtin_table,
    commutes,
)


@dataclass(frozen=True)
class JFDepth:
    """Filtration depth of a single mapping class, up to a cap.

    kind: "identity" | "not_in_m1" | "exact" | "at_least".
    exact(k): in M(k) and not in M(k+1); at_least(k): in M(k), cap hit.
    """

    kind: str
    level: int | None = None

    def __str__(self):
        if self.kind in ("identity", "not_in_m1"):
            return self.kind
        return f"{self.kind}({self.level})"


@dataclass(frozen=True)
class JFValue:
    """Depth of a curve pair: zero | one | exact(k>=2) | at_least(k)."""

    kind: str
    value: int | None = None

    def label(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "one":
            return "1"
        if self.kind == "exact":
            return str(self.value)
        return f">={self.value}"

    def at_least_two(self):
        return self.kind in ("exact", "at_least")

    def __str__(self):
        return self.label()


def _depth(f, g, cap):
    """Filtration depth of g^-1 f, read from the actions of f and g.

    g^-1 f lies in M(k) iff f and g agree on the free group mod its
    (k+1)-st term, i.e. iff the expansions of f(x_i) and g(x_i) agree
    through degree k.  Degree 1 of an expansion is the word's exponent
    sum, so the homology actions decide degree 1 at every cap with
    nothing expanded; above it the truncated actions of f and g at the
    cap are compared by action_depth.  Raises SeriesTermLimit when a
    series passes MAX_SERIES_TERMS.
    """
    if cap < 1:
        raise PreconditionError("cap must be >= 1")
    if f == g:
        return JFDepth("identity")
    if homology_action(f) != homology_action(g):
        return JFDepth("not_in_m1")
    if cap == 1:
        return JFDepth("at_least", 1)
    return action_depth(TruncatedAction.of(f, cap), TruncatedAction.of(g, cap))


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
        if any(s.degrees[d] != t.degrees[d] for s, t in zip(f.series, g.series)):
            # in M(d - 1) and not in M(d)
            return JFDepth("not_in_m1") if d == 1 else JFDepth("exact", d - 1)
    return JFDepth("at_least", f.cap)


def nested_leading_terms(a, b):
    """Leading terms D_{w_1}, D_{w_2}, ... of w_m = [a, w_{m-1}], w_0 = b.

    a and b must lie in M(2) and not M(3), which their actions at cap 3
    decide; otherwise ConsistencyViolation is raised.  For f in M(k) and
    g in M(l), the degree-(k+l+1) part of [f, g] is [D_f, D_g]
    (magnus.Derivation), so w_m lies in M(2m+2) and D_{w_m} =
    [D_a, D_{w_{m-1}}] is its degree-(2m+2) leading term.  A nonzero one
    proves that w_m is not in M(2m+3), so not the identity; a zero one
    proves w_m in M(2m+3) and no more.  Raises SeriesTermLimit when a
    bracket passes MAX_SERIES_TERMS.
    """
    one = TruncatedAction.of(FreeAutomorphism.identity(a.genus), 3)
    leads = []
    for t in (a, b):
        action = TruncatedAction.of(t, 3)
        if action_depth(action, one) != JFDepth("exact", 2):
            raise ConsistencyViolation(
                "a nested commutator factor is not at exact level 2"
            )
        leads.append(Derivation.leading(action))
    lead_a, lead = leads
    while True:
        lead = lead_a.bracket(lead)
        yield lead


def in_Mk(f, k):
    """Does f act trivially on the free group mod its (k+1)-st term?"""
    if k < 1:
        raise PreconditionError("filtration level must be >= 1")
    depth = _depth(f, FreeAutomorphism.identity(f.genus), k)
    return depth.kind in ("identity", "at_least")


def johnson_depth(f, cap):
    """Certified filtration depth of f using degree-cap expansions."""
    return _depth(f, FreeAutomorphism.identity(f.genus), cap)


def _commutator_depth(f, g, commuting, act_f, act_g, cap):
    """Filtration depth of [f, g], given whether f and g commute.

    act_f and act_g map a cap c to the TruncatedAction of f and of g at
    c: TruncatedAction.of for plain automorphisms, CurveData.action for
    curve twists, which composes the actions of h, t_c and h^-1 for a
    twist h t_c h^-1 with long images (see the curve module).  Commuting
    classes give the identity.  At cap 1 the homology actions of fg and
    gf decide, as in _depth, each read as the product of the matrices of
    f and g.  Otherwise the actions of f and g are composed both ways at
    caps c = 1, 2, ..., stopping at the first cap where fg and gf act
    differently.  The degree-d part of an action does not depend on the
    cap above d, and substitution is exact modulo degree > c, so that
    first difference lies in degree c and the depth is exact(c - 1), or
    not_in_m1 at c = 1.  The work at a cap grows geometrically with it,
    so the loop costs a small multiple of the work at the cap it stops
    at, and neither product is built.
    """
    if cap < 1:
        raise PreconditionError("cap must be >= 1")
    if commuting:
        return JFDepth("identity")
    if cap == 1:
        hf, hg = homology_action(f), homology_action(g)
        if mat_mul(hf, hg) != mat_mul(hg, hf):
            return JFDepth("not_in_m1")
        return JFDepth("at_least", 1)
    for c in range(1, cap + 1):
        a, b = act_f(c), act_g(c)
        depth = action_depth(a.compose(b), b.compose(a))
        if depth.kind != "at_least":
            return depth
    return depth


def commutator_depth(f, g, cap):
    """Filtration depth of [f, g] without forming the commutator.

    [f,g] lies in M(k) iff fg and gf induce the same action on the
    class-(k) nilpotent quotient, i.e. iff their truncated actions on
    Z<<X>> / (deg > k) agree (Magnus).  Those actions are composed from
    the actions of f and g, one cap at a time (_commutator_depth).
    Raises SeriesTermLimit when a series passes MAX_SERIES_TERMS.
    """
    return _commutator_depth(
        f,
        g,
        commutes(f, g),
        lambda c: TruncatedAction.of(f, c),
        lambda c: TruncatedAction.of(g, c),
        cap,
    )


def ijf(c1, c2, cap):
    """Filtration depth of the twist commutator of a curve pair.

    Zero is decided exactly via automorphism triviality, never by cap
    exhaustion.
    """
    if c1.genus != c2.genus:
        raise GenusMismatch("curve specs of different genus")
    d1, d2 = resolve(c1), resolve(c2)
    f, g = d1.twist, d2.twist
    return _pair_value(
        _commutator_depth(f, g, commutes(f, g), d1.action, d2.action, cap)
    )


def _pair_value(depth):
    """Pair depth of a curve pair from the depth of its twist commutator."""
    if depth.kind == "identity":
        return JFValue("zero")
    if depth.kind == "not_in_m1":
        return JFValue("one")
    if depth.kind == "exact":
        return JFValue("exact", depth.level + 1)
    return JFValue("at_least", depth.level + 1)


@dataclass(frozen=True)
class PairReport:
    """Full classification of a curve pair at a given depth cap."""

    genus: int
    c1: str
    c2: str
    commuting: bool
    braid: bool
    algebraic: int
    ijf: JFValue
    depth_cap: int
    # read by the separating-pair law of check_consistency; as_dict
    # leaves them out, so the JSON reports do not depend on them
    c1_separating: bool
    c2_separating: bool

    def as_dict(self):
        return {
            "genus": self.genus,
            "c1": self.c1,
            "c2": self.c2,
            "commuting": self.commuting,
            "braid": self.braid,
            "algebraic": self.algebraic,
            "ijf": {"kind": self.ijf.kind, "value": self.ijf.value},
            "ijf_label": self.ijf.label(),
            "depth_cap": self.depth_cap,
        }


def check_consistency(report):
    """Raise unless the report satisfies the exact cross-detector laws."""
    r = report
    if r.commuting != (r.ijf.kind == "zero"):
        raise ConsistencyViolation(
            f"commuting <-> depth zero violated: {r}"
        )
    if r.ijf.at_least_two() != ((not r.commuting) and r.algebraic == 0):
        raise ConsistencyViolation(
            f"depth >= 2 <-> (crossing with zero algebraic) violated: {r}"
        )
    if (r.ijf.kind == "one") != (r.algebraic != 0):
        raise ConsistencyViolation(
            f"depth one <-> nonzero algebraic violated: {r}"
        )
    if r.braid and not r.commuting and r.ijf.kind != "one":
        raise ConsistencyViolation(
            f"braid pair must have depth one: {r}"
        )
    # separating twists lie in M(2) and [M(2), M(2)] lies in M(4)
    # (Morita), so two crossing separating curves have pair depth >= 5
    if (
        r.c1_separating
        and r.c2_separating
        and not r.commuting
        and r.ijf.kind != "at_least"
        and not (r.ijf.kind == "exact" and r.ijf.value >= 5)
    ):
        raise ConsistencyViolation(
            f"crossing separating pair must have depth >= 5: {r}"
        )


def classify_pair(c1, c2, cap, check=True):
    """Classify a pair; with check=True the consistency laws are enforced."""
    if c1.genus != c2.genus:
        raise GenusMismatch("curve specs of different genus")
    d1, d2 = resolve(c1), resolve(c2)
    f, g = d1.twist, d2.twist
    commuting = commutes(f, g)
    algebraic = symplectic_pairing(d1.homology, d2.homology)
    # Commuting twists braid iff equal (f^2 g = g^2 f forces f = g);
    # crossing twists braid only along curves meeting once, which forces
    # |algebraic| = 1, so fg is composed only for those.  That shortcut
    # is needed as well as fast: for C3 @ [C3^2 Sep1^-2 Sep1^-2 Sep1^-2]
    # and Sep1, with algebraic 0, the image of the class of c1 under fg
    # passes the letter cap.  Otherwise fgf = gfg iff fg f (fg)^-1 = g,
    # which holds iff fg maps the class of c1 to that of c2 (see the
    # module docstring).
    if commuting:
        braid = f == g
    elif abs(algebraic) != 1:
        braid = False
    else:
        braid = f.compose(g)(d1.pi1_class).canonical_cyclic() == d2.pi1_class
    report = PairReport(
        genus=c1.genus,
        c1=c1.to_text(),
        c2=c2.to_text(),
        commuting=commuting,
        braid=braid,
        algebraic=algebraic,
        ijf=_pair_value(
            _commutator_depth(f, g, commuting, d1.action, d2.action, cap)
        ),
        depth_cap=cap,
        c1_separating=d1.separating,
        c2_separating=d2.separating,
    )
    if check:
        check_consistency(report)
    return report


def johnson_leading_term(f, k):
    """Degree-(k+1) parts of the generator displacements of f in M(k).

    Returns one {monomial tuple: coefficient} table per generator; all
    tables are zero iff f also lies in M(k+1).  With d_i = f(x_i) x_i^-1,
    M(f(x_i)) = M(d_i)(1 + X_i) and M(d_i) - 1 starts in degree k+1 >= 2,
    so the degree-(k+1) part of M(f(x_i)) is that of M(d_i): the value
    D_f(X_i) of the leading term of f (magnus.Derivation), read from the
    action of f at cap k + 1, which raises SeriesTermLimit when a series
    passes MAX_SERIES_TERMS.
    """
    if not in_Mk(f, k):
        raise PreconditionError(f"automorphism is not in M({k})")
    return Derivation.leading(TruncatedAction.of(f, k + 1)).parts()


def morita_check(f, g, kf, kg, cap):
    """Check [f, g] lands in M(kf+kg); a False return is an implementation bug."""
    if kf + kg > cap:
        raise PreconditionError("kf + kg exceeds the cap")
    if not in_Mk(f, kf):
        raise PreconditionError(f"first argument is not in M({kf})")
    if not in_Mk(g, kg):
        raise PreconditionError(f"second argument is not in M({kg})")
    # at cap kf+kg an exact depth is at most kf+kg-1, so only the
    # identity and an exhausted cap certify membership in M(kf+kg)
    return commutator_depth(f, g, kf + kg).kind in ("identity", "at_least")


# -- spec enumeration (witness searches, sampling) ---------------------


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


def distinguishing_witness(c1, c2, budget):
    """Search for a curve meeting exactly one of two distinct curves.

    Enumerates candidate specs (skipping those isotopic to either
    input) and returns the first d with the twist of d commuting with
    one input's twist and not the other's.  None after `budget`
    candidates is not a disproof.
    """
    if curves_equal(c1, c2):
        raise PreconditionError("inputs are the same curve")
    t1 = resolve(c1).twist
    t2 = resolve(c2).twist
    tested = 0
    for d in enumerate_curve_specs(c1.genus):
        if tested >= budget:
            return None
        tested += 1
        td = resolve(d).twist
        if td == t1 or td == t2:
            continue
        c1d = commutes(t1, td)
        c2d = commutes(t2, td)
        if c1d != c2d:
            return d
    return None


@dataclass(frozen=True)
class Fact5Verdict:
    """Outcome of sampling separating curves against a mapping class."""

    moved: CurveSpec | None

    @property
    def fixes_all_sampled(self):
        return self.moved is None


def fact5_instance(f, budget):
    """Look for a separating curve moved by f.

    Central classes fix every curve, so the verdict for them is always
    FixesAllSampled; for non-central classes a moved separating curve
    exists and the sampler reports the first one found within budget.
    """
    if f.genus < 2:
        raise PreconditionError(
            "no essential separating curves exist at genus 1"
        )
    seen = set()
    tested = 0
    for d in enumerate_curve_specs(f.genus, separating_only=True):
        if tested >= budget:
            break
        td = resolve(d).twist
        if td in seen:
            continue  # same curve reached by a different word
        seen.add(td)
        tested += 1
        # f moves the curve iff f t_d f^-1 != t_d iff they fail to commute
        if not commutes(f, td):
            return Fact5Verdict(moved=d)
    return Fact5Verdict(moved=None)
