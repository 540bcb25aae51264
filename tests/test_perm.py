"""A finite-quotient check that the corollary's classes are not the identity.

The corollary proves w_m != 1 from a nonzero leading-term bracket
(jfilt.nested_leading_terms).  This file keeps an independent witness:
a mapping class f acts on the homomorphisms phi: F_2g -> S3 by
phi -> phi o f, which sends x_i to phi(f(x_i)).  This is a right action
(phi o (f g) = (phi o f) o g), so a point phi with phi o f != phi proves
f != 1, while a class that moves no point is not thereby the identity.
S3 is not nilpotent, so the action sees classes deep in the Johnson
filtration, where a class-c nilpotent quotient is fixed by all of M(c).

A point is a tuple of 2g elements of S3, each an index into the six
permutations of (0, 1, 2).  There are 6^(2g) points (46,656 at genus
3), so actions are evaluated one point at a time, never as tables.
"""

import itertools
from functools import lru_cache

import pytest

from twistlab.curve import CurveSpec
from twistlab.jfilt import nested_leading_terms
from twistlab.mcg import evaluate, inverse_mcw

from references import commutator_mcw, left_fold_evaluate


@lru_cache(maxsize=None)
def _s3():
    """Multiplication and inverse tables of S3; element 0 is the identity."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(
        tuple(index[tuple(p[q[k]] for k in range(3))] for q in perms)
        for p in perms
    )
    inv = tuple(index[tuple(sorted(range(3), key=p.__getitem__))] for p in perms)
    return mul, inv


def points(genus):
    """Every homomorphism F_2g -> S3 once, with x_1's image varying fastest."""
    for images in itertools.product(range(6), repeat=2 * genus):
        yield images[::-1]


def act(phi, f):
    """phi o f for a FreeAutomorphism f: x_i goes to phi(f(x_i))."""
    mul, inv = _s3()
    out = []
    for w in f.images:
        p = 0
        for ell in w.letters:
            p = mul[p][phi[ell - 1] if ell > 0 else inv[phi[-ell - 1]]]
        out.append(p)
    return tuple(out)


class NestedCommutatorAction:
    """phi -> phi o w_m for w_0 = b and w_m = [a, w_{m-1}] = a w a^-1 w^-1,
    for a and b the classes of two mapping class words.

    Each point is evaluated through the commutator recursion,
    phi o w_m = (((phi o a) o w_{m-1}) o a^-1) o w_{m-1}^-1 and
    phi o w_m^-1 = (((phi o w_{m-1}) o a) o w_{m-1}^-1) o a^-1,
    with a memo per (m, sign), so w_m is never built as a word.  a^-1
    and b^-1 are folded from the inverse words.
    """

    def __init__(self, a, b, genus):
        self._gens = {1: evaluate(a, genus), -1: _inverse(a, genus)}
        self._base = {1: evaluate(b, genus), -1: _inverse(b, genus)}
        self._memo = {}

    def _a(self, phi, sign):
        return act(phi, self._gens[sign])

    def image(self, phi, m, sign=1):
        """phi o w_m, or phi o w_m^-1 for sign -1."""
        key = (m, sign, phi)
        out = self._memo.get(key)
        if out is None:
            if m == 0:
                out = act(phi, self._base[sign])
            elif sign == 1:
                out = self.image(
                    self._a(self.image(self._a(phi, 1), m - 1), -1),
                    m - 1, -1,
                )
            else:
                out = self._a(
                    self.image(self._a(self.image(phi, m - 1), 1), m - 1, -1),
                    -1,
                )
            self._memo[key] = out
        return out

    def moved_point(self, m):
        """The first point that w_m moves, or None if it moves none."""
        for phi in points(self._gens[1].genus):
            if self.image(phi, m) != phi:
                return phi
        return None


def _inverse(mcw, genus):
    return left_fold_evaluate(inverse_mcw(mcw), genus)


#: the words of the corollary's twists t_a and t_b
COROLLARY_WORDS = ((("Sep1", 1),), (("C3", 1), ("Sep1", 1), ("C3", -1)))


def corollary_curves(genus):
    """The curves whose twists are those of COROLLARY_WORDS."""
    return CurveSpec(genus, "Sep1"), CurveSpec(genus, "Sep1", (("C3", 1),))


def test_points_cover_every_homomorphism_once_x1_fastest():
    pts = list(points(1))
    assert len(pts) == len(set(pts)) == 36
    assert pts[:2] == [(0, 0), (1, 0)]


def test_identity_fixes_every_point():
    one = evaluate((), 2)
    assert all(act(phi, one) == phi for phi in points(2))


def test_action_is_a_right_action():
    u = (("C1", 1), ("Sep1", -1))
    f, f_inv = evaluate(u, 2), _inverse(u, 2)
    g = evaluate((("C3", 1), ("C2", 1)), 2)
    for phi in points(2):
        assert act(act(phi, f), g) == act(phi, f.compose(g))
        assert act(act(phi, f), f_inv) == phi


def test_braid_and_commutation_relations_hold_in_the_action():
    c1, c2, c3 = (evaluate(((n, 1),), 2) for n in ("C1", "C2", "C3"))

    def along(phi, *fs):
        for f in fs:
            phi = act(phi, f)
        return phi

    for phi in points(2):
        assert along(phi, c1, c2, c1) == along(phi, c2, c1, c2)
        assert along(phi, c1, c3) == along(phi, c3, c1)


@pytest.mark.parametrize("sign", [1, -1])
def test_recursion_matches_the_direct_action_of_w1(sign):
    w_1 = commutator_mcw(*COROLLARY_WORDS)
    direct = evaluate(w_1, 2) if sign == 1 else _inverse(w_1, 2)
    action = NestedCommutatorAction(*COROLLARY_WORDS, 2)
    for phi in points(2):
        assert action.image(phi, 1, sign) == act(phi, direct)


@pytest.mark.parametrize("genus", [2, 3])
def test_nested_commutators_move_a_point(genus):
    # the S3 witness agrees with the bracket certificate the corollary
    # reads: both say w_m != 1 for every m checked
    action = NestedCommutatorAction(*COROLLARY_WORDS, genus)
    leads = nested_leading_terms(*corollary_curves(genus))
    for m in range(1, 6):
        phi = action.moved_point(m)
        assert phi is not None
        assert action.image(phi, m) != phi
        lead = next(leads)
        assert lead and lead.degree == 2 * m + 2


def test_identity_classes_are_never_certified():
    # [t_a, t_a] = 1, and twists along disjoint curves commute
    t_a, c1 = (("Sep1", 1),), (("C1", 1),)
    for a, b in ((t_a, t_a), (t_a, c1)):
        assert evaluate(commutator_mcw(a, b), 2).is_identity()
        action = NestedCommutatorAction(a, b, 2)
        for m in (1, 2):
            assert action.moved_point(m) is None


def test_moved_point_is_the_first_in_order():
    action = NestedCommutatorAction(*COROLLARY_WORDS, 2)
    phi = action.moved_point(1)
    w_1 = evaluate(commutator_mcw(*COROLLARY_WORDS), 2)
    before = itertools.takewhile(lambda p: p != phi, points(2))
    assert all(act(p, w_1) == p for p in before)
