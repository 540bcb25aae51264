"""A finite-quotient certificate that a mapping class is not the identity.

A mapping class f acts on the homomorphisms phi: F_2g -> S3 by
phi -> phi o f, which sends x_i to phi(f(x_i)).  This is a right action
(phi o (f g) = (phi o f) o g), so a point phi with phi o f != phi proves
f != 1, while a class that moves no point is not thereby the identity.
S3 is not nilpotent, so the action can see classes deep in the Johnson
filtration: a class-c nilpotent group would be fixed by all of M(c).

A point is a tuple of 2g elements of S3, each an index into the six
permutations of (0, 1, 2).  There are 6^(2g) points (46,656 at genus
3), so actions are evaluated one point at a time, never as tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


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
    """phi -> phi o w_m for w_0 = b and w_m = [a, w_{m-1}] = a w a^-1 w^-1.

    Each point is evaluated through the commutator recursion,
    phi o w_m = (((phi o a) o w_{m-1}) o a^-1) o w_{m-1}^-1 and
    phi o w_m^-1 = (((phi o w_{m-1}) o a) o w_{m-1}^-1) o a^-1,
    with a memo per (m, sign), so w_m is never built as a word.
    """

    def __init__(self, a, b):
        self._gens = {1: a, -1: a.inverse()}
        self._base = {1: b, -1: b.inverse()}
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
