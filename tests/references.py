"""Slow exact constructions that tests compare the package against."""

import json
from itertools import groupby, islice
from pathlib import Path

from twistlab import curve, mcg
from twistlab.curve import (
    distinct_separating_curves,
    enumerate_curve_specs,
    parse_curve_spec,
    resolve,
    symplectic_pairing,
)
from twistlab.errors import GenusMismatch, PreconditionError, WordLengthLimit
from twistlab.foxrep import LaurentPoly, fox_jacobian
from twistlab.jfilt import JFDepth, action_depth
from twistlab.magnus import Derivation, TruncatedAction, TruncatedSeries
from twistlab.mcg import (
    evaluate,
    homology_action,
    homology_matrix,
    identity_matrix,
    inverse_mcw,
)
from twistlab.word import Word, abelianized

GOLDEN = Path(__file__).parent / "golden"
POOL = Path(__file__).parents[1] / "benchmarks" / "reference.json"


def golden_pairs():
    """The (c1, c2) specs of every pair in the scan and pair goldens."""
    pairs = []
    for path in sorted(GOLDEN.glob("scan_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        genus = doc["config"]["genus"]
        pairs += [(genus, row["c1"], row["c2"]) for row in doc["results"]]
    for path in sorted(GOLDEN.glob("pair_*.json")):
        config = json.loads(path.read_text(encoding="utf-8"))["config"]
        pairs.append((config["genus"], config["c1"], config["c2"]))
    return [
        (parse_curve_spec(g, a), parse_curve_spec(g, b)) for g, a, b in pairs
    ]


def pool_pairs():
    """The (c1, c2) specs of the benchmark's 600-pair pool, in pool order."""
    with open(POOL, encoding="utf-8") as fh:
        pairs = json.load(fh)["pairs"]
    return [
        tuple(parse_curve_spec(p["genus"], p[k]) for k in ("c1", "c2"))
        for p in pairs
    ]


def resolve_eagerly(spec):
    """The class and homology of a curve as curve.resolve read them
    before it folded the class alone: from the full image of the base
    word under the evaluated conjugator h."""
    entry = mcg.builtin_table(spec.genus).entry(spec.base)
    moved = mcg.evaluate(spec.conjugator, spec.genus)(entry.base_word)
    return moved.canonical_cyclic(), abelianized(moved)


def moves_by_conjugator(d, other):
    """CurveData.moves as it was: h^-1 applied to the other curve's class
    as an automorphism, built from the inverse of h's word."""
    back = left_fold_evaluate(inverse_mcw(d.conjugator_word), d.base.twist.genus)
    u = back(other.pi1_class).cyclic_reduce()
    v = d.base.twist(u).cyclic_reduce()
    return len(u) != len(v) or u.canonical_cyclic() != v.canonical_cyclic()


def pair_depth_from_homology_start(c1, c2, cap):
    """The depth of a crossing pair as classify_pair read it before it
    used separating curves: the loop starts at degree 2 when the
    algebraic intersection is 0 and at degree 1 otherwise."""
    d1, d2 = resolve(c1), resolve(c2)
    start = 2 if symplectic_pairing(d1.homology, d2.homology) == 0 else 1
    return _commutator_depth(d1.action, d2.action, start, cap)


def braid_by_whole_word(c1, c2):
    """The braid label of a crossing pair with |algebraic| = 1 as
    classify_pair read it before its two sides met in the middle: the
    words of t1 and t2 folded, one after the other, over the class of c1
    and compared with the class of c2.  Raises WordLengthLimit when the
    fold passes the letter cap."""
    d1, d2 = resolve(c1), resolve(c2)
    fg = d1.twist_word + d2.twist_word
    image = mcg.class_image(fg, c1.genus, d1.pi1_class)
    return image.canonical_cyclic() == d2.pi1_class


def twist_by_composition(data):
    """The twist h (t_c h^-1) along a resolved curve, h evaluated from
    its word and composed with CurveData.inner, as CurveData.twist was
    built before it was evaluated from its word."""
    h = evaluate(data.conjugator_word, data.base.twist.genus)
    return h.compose(data.inner)


def commutator_mcw(u, v):
    """[u, v] = u v u^-1 v^-1 as a mapping class word."""
    return u + v + inverse_mcw(u) + inverse_mcw(v)


def power_by_squaring(f, k):
    """f^k for k >= 1 by square-and-multiply, as FreeAutomorphism.power
    built twist powers before mcg read them from their closed forms.  The
    power 1 is f itself."""
    if k < 1:
        raise ValueError("power_by_squaring takes k >= 1")
    if k == 1:
        return f
    result = evaluate((), f.genus)
    square = f
    while k:
        if k & 1:
            result = result.compose(square)
        square = square.compose(square) if k > 1 else square
        k >>= 1
    return result


def table_power(genus, name, k):
    """t^k for the table twist t called name, by squaring t for k > 0
    and its inverse (TableEntry.inverse) for k < 0."""
    entry = mcg.builtin_table(genus).entry(name)
    return power_by_squaring(entry.twist if k > 0 else entry.inverse, abs(k))


def left_fold_evaluate(mcw, genus):
    """evaluate without its inside-out fold: the product so far composed
    with each factor's power (table_power), from the left.  The inverse
    of a class is this fold of its inverse word (inverse_mcw)."""
    acc = evaluate((), genus)
    for name, k in mcw:
        acc = acc.compose(table_power(genus, name, k))
    return acc


def is_central_by_commutes(f):
    """is_central as it was: f commutes with every chain twist."""
    table = mcg.builtin_table(f.genus)
    return all(commutes(f, table.entry(n).twist) for n in table.chain_names)


def fact5_instance_by_commutes(f, budget):
    """fact5_instance as it was: f moves a separating curve iff it
    fails to commute with the twist along it."""
    for d, data in islice(distinct_separating_curves(f.genus), budget):
        if not commutes(f, data.twist):
            return d
    return None


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def transvection(v, k=1):
    """Homology matrix of t^k, for t the twist along a curve of class v.

    t acts as x -> x - <v, x> v (symplectic_pairing), and since
    <v, v> = 0 its k-th power acts as x -> x - k <v, x> v.  A separating
    curve has v = 0 and gives the identity.  The reference for the
    twist's homology matrix folded from its word (mcg.homology_matrix).
    """
    n = len(v)
    # <v, e_j> for each j
    pairings = [
        symplectic_pairing(v, tuple(int(i == j) for i in range(n)))
        for j in range(n)
    ]
    return tuple(
        tuple(int(i == j) - k * p * v[i] for j, p in enumerate(pairings))
        for i in range(n)
    )


def two_class_depth(f, g, cap):
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


def apply_letterwise(f, w):
    """f(w), freely reduced one image letter at a time.

    The stack reduction FreeAutomorphism.__call__ used before it
    cancelled whole image blocks; the letter cap is checked after each
    letter's image, as there.
    """
    table = {}
    for i, img in enumerate(f.images, start=1):
        table[i] = img.letters
        table[-i] = tuple(-ell for ell in reversed(img.letters))
    out = []
    limit = mcg.MAX_IMAGE_LETTERS
    for ell in w.letters:
        for img in table[ell]:
            if out and out[-1] == -img:
                out.pop()
            else:
                out.append(img)
        if len(out) > limit:
            raise WordLengthLimit(
                f"image exceeded {limit} letters; composition aborted"
            )
    return Word(f.genus, tuple(out))


def fold_by_words(genus, factors, words, cyclic=False):
    """The words after each factor of the fold behind mcg._apply_factors,
    innermost factor first, one tuple of Words a factor.

    Each word is rebuilt by one Word(...) reduction of its letters'
    images under the factor's power, one letter at a time, and with
    cyclic=True stripped to its core (Word.cyclic_reduce), as the fold
    was run before its words were kept as letter lists.
    """
    steps = []
    for name, k in reversed(factors):
        images = mcg._twist_power(genus, name, k).images
        words = tuple(
            Word(genus, [
                x
                for ell in w.letters
                for x in (images[ell - 1] if ell > 0
                          else images[-ell - 1].inverse()).letters
            ])
            for w in words
        )
        if cyclic:
            words = tuple(w.cyclic_reduce() for w in words)
        steps.append(words)
    return steps


def magnus_expand_by_groupby(w, cap):
    """magnus.magnus_expand as it was before runs were scanned by index.

    Runs come from itertools.groupby, each run's factors are rebuilt, and
    the term from the constant 1 goes through the same loop as the rest.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    base = 2 * w.genus
    degrees = [{0: 1}] + [{} for _ in range(cap)]
    shifts = [base**j for j in range(cap + 1)]
    for ell, run in groupby(w.letters):
        i, m = abs(ell), len(list(run))
        if ell < 0:
            m = -m
        factors = []
        rep, cj = 0, 1
        for j in range(1, cap + 1):
            cj = cj * (m - j + 1) // j
            if not cj:
                break
            rep = rep * base + (i - 1)
            factors.append((j, cj, shifts[j], rep))
        for d in range(cap, 0, -1):
            target = degrees[d]
            for j, cj, shift, rep in factors:
                if j > d:
                    break
                for key, c in degrees[d - j].items():
                    nk = key * shift + rep
                    nc = target.get(nk, 0) + c * cj
                    if nc:
                        target[nk] = nc
                    else:
                        del target[nk]
    return TruncatedSeries(degrees)


def fox_derivative_by_letters(w, i):
    """foxrep.fox_derivative as it was: one scan of w per derivative,
    keeping only the letters x_i and x_i^-1."""
    terms = {}
    prefix = [0] * (2 * w.genus)
    for ell in w.letters:
        j = abs(ell)
        if ell > 0:
            if j == i:
                key = tuple(prefix)
                terms[key] = terms.get(key, 0) + 1
            prefix[j - 1] += 1
        else:
            prefix[j - 1] -= 1
            if j == i:
                key = tuple(prefix)
                terms[key] = terms.get(key, 0) - 1
    return LaurentPoly(w.genus, terms)


def rep_mul_by_products(a, b):
    """foxrep.rep_mul as it was: each entry a sum of LaurentPoly
    products, one intermediate polynomial per term of the sum."""
    n = len(a)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j])
            for j in range(n)
        )
        for i in range(n)
    )


# -- readers that no command runs --------------------------------------
#
# The depth of one class and of the commutator of two classes, membership
# in M(k) and leading terms, centrality and the curve searches, single
# free derivatives and the commutator of two words.  The package reads
# depths on curve pairs only (jfilt._pair_depth); tests compare it, and
# the laws of the paper, against these.


def commutator(u, v):
    """[u, v] = u v u^-1 v^-1, freely reduced."""
    u._check_genus(v)
    return u * v * u.inverse() * v.inverse()


def commutes(f, g):
    """Does f g = g f?

    Compares f(g(x_i)) with g(f(x_i)) one generator at a time and stops
    at the first difference; neither product is built as an automorphism.
    """
    if f.genus != g.genus:
        raise GenusMismatch("automorphisms of different genus")
    return all(
        f(u).letters == g(v).letters for u, v in zip(g.images, f.images)
    )


def in_Mk(f, k):
    """Does f act trivially on the free group mod its (k+1)-st term?"""
    if k < 1:
        raise PreconditionError("filtration level must be >= 1")
    return johnson_depth(f, k).kind in ("identity", "at_least")


def _depth(actions, start, cap):
    """Filtration depth read from pairs of actions at caps start..cap.

    actions(c) returns two TruncatedActions at cap c that agree below
    degree start.  The degree-d part of an action does not depend on the
    cap above d, and substitution is exact modulo degree > c, so the
    first cap c at which action_depth finds a difference finds it in
    degree c, and the depth is exact(c - 1), or not_in_m1 at c = 1.  No
    difference through the cap gives at_least(cap), and a start above
    the cap expands nothing.  start is 1 for the commutator of two
    classes, and 2 for one class, whose agreement in degree 1 homology
    decides.
    """
    for c in range(start, cap + 1):
        depth = action_depth(*actions(c))
        if depth.kind != "at_least":
            return depth
    return JFDepth("at_least", cap)


def johnson_depth(f, cap):
    """Certified filtration depth of f using degree-cap expansions.

    f lies in M(k) iff the expansions of f(x_i) and x_i agree through
    degree k.  Degree 1 of an expansion is the word's exponent sum, so
    the homology action decides degree 1 with nothing expanded, and the
    actions of f and the identity are compared from cap 2 (_depth).
    Raises SeriesTermLimit when a series passes MAX_SERIES_TERMS.
    """
    if cap < 1:
        raise PreconditionError("cap must be >= 1")
    if f.is_identity():
        return JFDepth("identity")
    if homology_action(f) != identity_matrix(f.genus):
        return JFDepth("not_in_m1")
    one = evaluate((), f.genus)
    return _depth(
        lambda c: (TruncatedAction.of(f, c), TruncatedAction.of(one, c)), 2, cap
    )


def _commutator_depth(act_f, act_g, start, cap):
    """Filtration depth of [f, g] for classes f and g that do not commute.

    act_f and act_g map a cap c to the TruncatedAction of f and of g at
    c: TruncatedAction.of for plain automorphisms, CurveData.action for
    curve twists.  The actions are composed both ways at caps start,
    start + 1, ... (_depth), so neither fg nor gf is built.  start is 1,
    or the first degree in which fg and gf can differ when they are
    known to agree below it.
    """

    def products(c):
        a, b = act_f(c), act_g(c)
        return a.compose(b), b.compose(a)

    return _depth(products, start, cap)


def commutator_depth(f, g, cap):
    """Filtration depth of [f, g] without forming the commutator.

    [f,g] lies in M(k) iff fg and gf induce the same action on the
    class-(k) nilpotent quotient, i.e. iff their truncated actions on
    Z<<X>> / (deg > k) agree (Magnus).  Commuting classes give the
    identity, decided exactly by commutes; otherwise the actions are
    composed from those of f and g, one cap at a time
    (_commutator_depth).  Raises SeriesTermLimit when a series passes
    MAX_SERIES_TERMS.
    """
    if cap < 1:
        raise PreconditionError("cap must be >= 1")
    if commutes(f, g):
        return JFDepth("identity")
    return _commutator_depth(
        lambda c: TruncatedAction.of(f, c),
        lambda c: TruncatedAction.of(g, c),
        1,
        cap,
    )


def _unpack(key, d, base):
    """The letters (1-based) of a packed degree-d monomial."""
    digits = []
    for _ in range(d):
        key, digit = divmod(key, base)
        digits.append(digit + 1)
    return tuple(reversed(digits))


def homogeneous_part(series, d, genus):
    """The degree-d terms of a magnus.TruncatedSeries of the given genus,
    as {unpacked monomial tuple: coefficient}."""
    base = 2 * genus
    return {_unpack(key, d, base): c for key, c in series.degrees[d].items()}


def derivation_parts(derivation):
    """The values D(X_i) of a magnus.Derivation as {unpacked monomial
    tuple: coefficient}."""
    base, d = 2 * derivation.genus, derivation.degree + 1
    return [
        {_unpack(key, d, base): c for key, c in v.items()}
        for v in derivation.values
    ]


def apply_by_letters(values, poly):
    """D(poly), for the derivation D with D(X_i) = values[i - 1] and a
    polynomial poly, all as {unpacked monomial tuple: coefficient}: each
    letter of each monomial replaced in turn by its value, in place."""
    out = {}
    for mono, c in poly.items():
        for p, letter in enumerate(mono):
            for value, v in values[letter - 1].items():
                key = mono[:p] + value + mono[p + 1 :]
                out[key] = out.get(key, 0) + c * v
    return out


def bracket_by_letters(d, e):
    """The values [D, E](X_i) = D(E(X_i)) - E(D(X_i)) of the bracket of
    two magnus.Derivations, as {unpacked monomial tuple: coefficient}
    with no zero coefficients, each applied letter by letter
    (apply_by_letters), with no packed keys and no shifted values."""
    dv, ev = derivation_parts(d), derivation_parts(e)
    values = []
    for u, v in zip(dv, ev):
        out = apply_by_letters(dv, v)
        for key, c in apply_by_letters(ev, u).items():
            out[key] = out.get(key, 0) - c
        values.append({key: c for key, c in out.items() if c})
    return values


def leading(action):
    """D_f from the action of f at cap k + 1, for f in M(k): the
    degree-(k+1) parts of its series (magnus.Derivation)."""
    top = action.cap
    return Derivation(action.genus, top - 1, (s[top] for s in action.series))


def transform(derivation, matrix):
    """H·D = L_H ∘ D ∘ L_H^-1, for H = matrix, as magnus.Derivation
    moved a base twist's expanded term before the term of a separating
    twist was read in closed form.

    H is a 2g x 2g integer matrix whose column k is the image of e_k, as
    a class acts on homology, and L_H is the ring automorphism of Z<X>
    with X_k -> sum_l H[l][k] X_l.  So (H·D)(X_i) =
    sum_j H^-1[j][i] L_H(D(X_j)).  H must preserve the intersection form
    <e_{2i-1}, e_{2i}> = 1, as the homology matrix of every mapping class
    does; then H^-1 = -Ω H^T Ω, so entry (j, i) of H^-1 is
    s_i s_j H[i^1][j^1], with s_k = (-1)^k for 0-based k.  For f in M(k)
    with leading term D_f and a class h acting on homology by H, the
    leading term of h f h^-1 is H·D_f (Johnson, Math. Ann. 249, 1980;
    Morita, Duke Math. J. 70, 1993).
    """
    base, e = 2 * derivation.genus, derivation.degree + 1
    columns = [
        [(i, row[k]) for i, row in enumerate(matrix) if row[k]]
        for k in range(base)
    ]
    images = []
    for value in derivation.values:
        for p in range(e):
            shift, out = base**p, {}
            for key, c in value.items():
                k = key // shift % base
                rest = key - k * shift
                for i, m in columns[k]:
                    nk = rest + i * shift
                    out[nk] = out.get(nk, 0) + c * m
            value = {key: c for key, c in out.items() if c}
        images.append(value)
    values = []
    for i in range(base):
        out = {}
        for j, image in enumerate(images):
            # H^-1[j][i], read from H
            c = matrix[i ^ 1][j ^ 1]
            if c:
                if (i ^ j) & 1:
                    c = -c
                for key, v in image.items():
                    out[key] = out.get(key, 0) + c * v
        values.append({key: c for key, c in out.items() if c})
    return Derivation(derivation.genus, derivation.degree, values)


def separating_term_by_transform(d, mcw):
    """D_{h(c)} for the resolved separating curve d with base c and the
    mapping class word h, as jfilt read it before its closed form: the
    leading term of the table twist t_c, expanded at cap 3, moved by the
    homology matrix of h (transform)."""
    genus = d.base.twist.genus
    base = leading(TruncatedAction.of(d.base.twist, 3))
    return transform(base, homology_matrix(mcw, genus))


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
    return derivation_parts(leading(TruncatedAction.of(f, k + 1)))


def morita_check(f, g, kf, kg):
    """Check [f, g] lands in M(kf+kg); a False return is an implementation bug."""
    if not in_Mk(f, kf):
        raise PreconditionError(f"first argument is not in M({kf})")
    if not in_Mk(g, kg):
        raise PreconditionError(f"second argument is not in M({kg})")
    # at cap kf+kg an exact depth is at most kf+kg-1, so only the
    # identity and an exhausted cap certify membership in M(kf+kg)
    return commutator_depth(f, g, kf + kg).kind in ("identity", "at_least")


def curves_equal(c1, c2):
    """Exact isotopy test: the curves agree iff their classes do."""
    if c1.genus != c2.genus:
        raise GenusMismatch("curve specs of different genus")
    return resolve(c1).pi1_class == resolve(c2).pi1_class


def distinguishing_witness(c1, c2, budget):
    """Search for a curve meeting exactly one of two distinct curves.

    Enumerates candidate specs (skipping those isotopic to either
    input, by class) and returns the first d whose curve crosses one
    input and not the other, read on the curves (CurveData.crosses), so
    no twist and no conjugator is built.  None after `budget` candidates
    is not a disproof.
    """
    if curves_equal(c1, c2):
        raise PreconditionError("inputs are the same curve")
    d1, d2 = resolve(c1), resolve(c2)
    candidates = enumerate_curve_specs(c1.genus)
    for d in islice(candidates, max(budget, 0)):
        dd = resolve(d)
        if dd.pi1_class in (d1.pi1_class, d2.pi1_class):
            continue
        if d1.crosses(dd) != d2.crosses(dd):
            return d
    return None


def fact5_instance(f, budget):
    """The spec of the first sampled separating curve moved by f, or None.

    Central classes fix every curve, so for them this is always None;
    for non-central classes a moved separating curve exists, and the
    sampler returns the first one found within budget.
    f commutes with the twist along d iff f fixes d's class, since
    f t_d f^-1 = t_{f(d)} (see the curve module), so each curve costs
    one application of f to its class (curve._fixes), and no twist is
    built.
    """
    if f.genus < 2:
        raise PreconditionError(
            "no essential separating curves exist at genus 1"
        )
    curves = distinct_separating_curves(f.genus)
    for d, data in islice(curves, max(budget, 0)):
        if not curve._fixes(f, data.pi1_class):
            return d
    return None


def is_central(f):
    """Centrality test: fixes every chain curve.

    A mapping class commutes with the twist along a curve c iff it fixes
    c up to isotopy, since f t_c f^-1 = t_{f(c)} (Farb-Margalit, Primer,
    ch. 3), and freely homotopic essential simple closed curves are
    isotopic, so that is read on the class of c (curve._fixes) and no
    twist is applied.  Sufficient as well as necessary: a class fixing
    every chain curve commutes with every chain twist, and the chain
    fills the surface, so by the Alexander method the class is a power
    of the boundary twist.
    """
    table = mcg.builtin_table(f.genus)
    chain = (table.entry(n).base_word for n in table.chain_names)
    return all(curve._fixes(f, c.canonical_cyclic()) for c in chain)


def fox_derivative(w, i):
    """Abelianized free derivative of w with respect to x_i, i in 1..2g:
    one column of foxrep.fox_jacobian."""
    if not 1 <= i <= 2 * w.genus:
        raise PreconditionError(
            f"generator index {i} out of range for genus {w.genus}"
            f" (generators are 1..{2 * w.genus})"
        )
    return fox_jacobian(w)[0][i - 1]
