"""Slow exact constructions that tests compare the package against."""

import json
from itertools import groupby, islice
from pathlib import Path

from twistlab import mcg
from twistlab.curve import (
    distinct_separating_curves,
    parse_curve_spec,
    resolve,
    symplectic_pairing,
)
from twistlab.errors import PreconditionError, WordLengthLimit
from twistlab.foxrep import LaurentPoly
from twistlab.jfilt import (
    JFDepth,
    _commutator_depth,
    action_depth,
)
from twistlab.magnus import TruncatedAction, TruncatedSeries
from twistlab.mcg import homology_action
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
    as an automorphism, built from h's word."""
    h = mcg.evaluate(d.conjugator_word, d.base_twist.genus)
    u = h.inverse()(other.pi1_class).cyclic_reduce()
    v = d.base_twist(u).cyclic_reduce()
    return len(u) != len(v) or u.canonical_cyclic() != v.canonical_cyclic()


def pair_depth_from_homology_start(c1, c2, cap):
    """The depth of a crossing pair as classify_pair read it before it
    used separating curves: the loop starts at degree 2 when the
    algebraic intersection is 0 and at degree 1 otherwise."""
    d1, d2 = resolve(c1), resolve(c2)
    start = 2 if symplectic_pairing(d1.homology, d2.homology) == 0 else 1
    return _commutator_depth(d1.action, d2.action, start, cap)


def commutator_auto(f, g):
    """[f, g] = f g f^-1 g^-1 as a mapping class."""
    return f.compose(g).compose(f.inverse()).compose(g.inverse())


def power_by_squaring(f, k):
    """f^k by square-and-multiply, as FreeAutomorphism.power built twist
    powers before mcg read them from their closed forms.  The power 1 is
    f itself."""
    if k < 0:
        return power_by_squaring(f.inverse(), -k)
    if k == 1:
        return f
    result = mcg.FreeAutomorphism.identity(f.genus)
    square = f
    while k:
        if k & 1:
            result = result.compose(square)
        square = square.compose(square) if k > 1 else square
        k >>= 1
    return result


def is_central_by_commutes(f):
    """mcg.is_central as it was: f commutes with every chain twist."""
    table = mcg.builtin_table(f.genus)
    return all(mcg.commutes(f, table.twist(n)) for n in table.chain_names)


def fact5_instance_by_commutes(f, budget):
    """jfilt.fact5_instance as it was: f moves a separating curve iff it
    fails to commute with the twist along it."""
    for d, data in islice(distinct_separating_curves(f.genus), budget):
        if not mcg.commutes(f, data.twist):
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


def magnus_expand_by_groupby(w, cap):
    """magnus.magnus_expand as it was before runs were scanned by index.

    Runs come from itertools.groupby, each run's factors are rebuilt, and
    the term from the constant 1 goes through the same loop as the rest.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    base = 2 * w.genus
    out = TruncatedSeries.one(w.genus, cap)
    degrees = out.degrees
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
    return out


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
