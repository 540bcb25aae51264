"""Abelianized Fox calculus and the Magnus representation of Torelli classes.

The free derivative is taken with coefficients pushed down to the
group ring of the abelianization, i.e. Laurent polynomials in
t1..t{2g}: d(x_j)/d(x_i) = delta_ij and d(uv) = du + ab(u) dv.  For a
mapping class acting trivially on homology the matrix of derivatives
of generator images is multiplicative, which is the representation
exercised here.  Only this abelianized version is implemented; full
group-ring coefficients are never needed.

One scanner computes every derivative: fox_jacobian walks a word once,
carrying the prefix's exponent-sum vector, and files each letter's
term under its own generator, so it returns all 2g derivatives and,
as the final prefix, the word's image in homology.  magnus_rep builds
each column of its matrix, and checks that the class acts trivially on
homology, from one scan of a generator image.

A matrix is a tuple of row tuples of LaurentPoly, so two matrices are
equal, shape included, iff they compare equal with ==.

Multiplicativity is what the kernel-element scan rests on: for Torelli
classes f and g, r([f, g]) = r(fg) r(gf)^-1, so the commutator has
identity matrix iff r(fg) == r(gf).  A hit of suzuki_scan is a pair of
separating twists that do not commute (the curves cross, read on their
classes as classify_pair reads it) with r(fg) == r(gf) (the
representation does not see it), the phenomenon Suzuki exhibited for
the Magnus representation of the Torelli group.  Column j of r(fg) is
the Jacobian of f(g(x_j)), so _same_matrix compares r(fg) with r(gf)
one column at a time and stops at the first column that differs; the
scan composes neither product.
"""

from __future__ import annotations

import itertools
from operator import add

from .curve import distinct_separating_curves
from .errors import GenusMismatch, PreconditionError
from .mcg import homology_action, identity_matrix


class LaurentPoly:
    """Integer Laurent polynomial in t1..t{2g}, sparse and immutable."""

    __slots__ = ("genus", "terms")

    def __init__(self, genus, terms=None):
        self.genus = genus
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def one(cls, genus):
        return cls(genus, {(0,) * (2 * genus): 1})

    @classmethod
    def monomial(cls, genus, exps):
        return cls(genus, {tuple(exps): 1})

    def _check(self, other):
        if self.genus != other.genus:
            raise GenusMismatch("polynomials of different genus")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly(self.genus, terms)

    def __neg__(self):
        return LaurentPoly(self.genus, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return LaurentPoly(self.genus, _mul_into({}, self, other))

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.genus == other.genus and self.terms == other.terms

    def as_json(self):
        return [
            {"exponents": list(e), "coeff": str(c)}
            for e, c in sorted(self.terms.items())
        ]


def _mul_into(terms, p, q):
    """Add the terms of p * q into the dict terms and return it."""
    right = q.terms.items()
    for e1, c1 in p.terms.items():
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return terms


def fox_jacobian(w):
    """All abelianized free derivatives of w, from one scan of it.

    Returns (d, ab): d[i - 1] is dw/dx_i for i = 1..2g, and ab is the
    final prefix, the exponent-sum vector of w.  A letter x_j adds
    t^prefix to dw/dx_j before the prefix moves; x_j^-1 moves the prefix
    first and then subtracts t^prefix.
    """
    genus = w.genus
    n = 2 * genus
    columns = [{} for _ in range(n)]
    prefix = [0] * n
    for ell in w.letters:
        if ell > 0:
            j = ell - 1
            column = columns[j]
            key = tuple(prefix)
            column[key] = column.get(key, 0) + 1
            prefix[j] += 1
        else:
            j = -ell - 1
            prefix[j] -= 1
            column = columns[j]
            key = tuple(prefix)
            column[key] = column.get(key, 0) - 1
    return (
        tuple(LaurentPoly(genus, column) for column in columns),
        tuple(prefix),
    )


# -- matrices ----------------------------------------------------------


_NOT_TORELLI = (
    "the Magnus representation is defined on homologically trivial "
    "classes only"
)


def magnus_rep(f):
    """Matrix (d f(x_j) / d x_i)_{ij} for a homologically trivial class.

    Multiplicative on such classes because no coefficient twisting
    occurs.  Column j is fox_jacobian of the image of x_j, one scan per
    image, and that scan's exponent-sum vector must be e_j: a class
    moving any generator in homology is not Torelli and is rejected.
    """
    n = 2 * f.genus
    columns = []
    for j, image in enumerate(f.images):
        column, ab = fox_jacobian(image)
        if ab != tuple(int(i == j) for i in range(n)):
            raise PreconditionError(_NOT_TORELLI)
        columns.append(column)
    return tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))


def _same_matrix(f, g):
    """Is magnus_rep(f.compose(g)) == magnus_rep(g.compose(f))?

    Column j of r(fg) is fox_jacobian of f(g(x_j)), the very image that
    f.compose(g) would hold, so the matrices are compared one column at
    a time, from the images of x_j alone, and the first column that
    differs decides: neither product is built.  f and g must be Torelli
    classes; nothing here checks it.
    """
    return all(
        fox_jacobian(f(u))[0] == fox_jacobian(g(v))[0]
        for u, v in zip(g.images, f.images)
    )


def rep_identity(genus):
    n = 2 * genus
    return tuple(
        tuple(
            LaurentPoly.one(genus) if i == j else LaurentPoly(genus)
            for j in range(n)
        )
        for i in range(n)
    )


def rep_mul(a, b):
    """Matrix product; each entry's sum over k of a_ik * b_kj is
    accumulated in one dict."""
    genus = a[0][0].genus
    if b[0][0].genus != genus:
        raise GenusMismatch("matrices of different genus")
    n = len(a)
    out = []
    for row in a:
        products = []
        for j in range(n):
            terms = {}
            for k in range(n):
                _mul_into(terms, row[k], b[k][j])
            products.append(LaurentPoly(genus, terms))
        out.append(tuple(products))
    return tuple(out)


def rep_as_json(m):
    return [[entry.as_json() for entry in row] for row in m]


# -- kernel-element scan -------------------------------------------------


def suzuki_scan(genus, budget):
    """Enumerate separating curve pairs hunting for twists that cross
    while their Magnus matrices commute.

    For each pair of distinct separating curves, whether the twists f, g
    commute is read on the curves' classes (CurveData.crosses), as
    classify_pair reads it, so a commuting pair is skipped with nothing
    composed.  A crossing pair is a hit when magnus_rep(fg) ==
    magnus_rep(gf), which _same_matrix decides one column at a time from
    the images of f and g, stopping at the first column that differs, so
    no product is built.  Each twist is checked to be Torelli the first
    time the scan reads it, and fg and gf, products of Torelli classes,
    lie in the Torelli group, where magnus_rep is multiplicative: r([f,
    g]) = r(fg) r(gf)^-1, and a hit certifies a nontrivial commutator
    [f, g] with identity Magnus matrix, returned as the pair (c1, c2) of
    the curves' spec texts.  The commutator itself, a product of four
    twists, is never formed: its images can pass the letter cap while
    those of fg and gf stay short.

    Best effort within the pair budget; an empty result is not a
    disproof.
    """
    if genus < 2:
        raise PreconditionError("separating curves require genus >= 2")
    if budget <= 0:
        return []

    specs = list(
        itertools.islice(
            distinct_separating_curves(genus), max(3, budget // 2)
        )
    )
    identity = identity_matrix(genus)
    checked = set()

    def torelli_twist(c):
        t = c.twist
        if id(c) not in checked:
            if homology_action(t) != identity:
                raise PreconditionError(_NOT_TORELLI)
            checked.add(id(c))
        return t

    hits = []
    pairs = itertools.islice(itertools.combinations(specs, 2), budget)
    for (da, a), (db, b) in pairs:
        if a.crosses(b) and _same_matrix(torelli_twist(a), torelli_twist(b)):
            hits.append((da.to_text(), db.to_text()))
    return hits
