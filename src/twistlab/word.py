"""Words in the free fundamental group of a one-boundary surface.

The genus-g surface with one boundary component has free fundamental
group of rank 2g, generated by x1..x{2g}; its boundary word is the
product of commutators [x1,x2][x3,x4]...[x{2g-1},x{2g}].  A letter is a
nonzero signed integer: +i stands for x_i, -i for its inverse.  Words
are kept freely reduced at all times and are immutable, so values may
be shared between threads without locking.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import GenusMismatch


def _reduced(letters):
    out = []
    for ell in letters:
        if out and out[-1] == -ell:
            out.pop()
        else:
            out.append(ell)
    return tuple(out)


def _least_rotation(letters):
    """First start index of the least rotation of a tuple, in O(n).

    Duval's Lyndon factorization run over the doubled tuple: the least
    rotation starts at the last Lyndon factor that begins in the first
    copy (Duval, J. Algorithms 4, 1983).
    """
    s = letters + letters
    n = len(letters)
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


class Word(namedtuple("Word", "genus letters")):
    """A freely reduced word; the empty word is the identity.

    len(word) is its number of letters, not of fields, so the
    namedtuple methods _make and _replace are unsupported: they check
    that length against the two fields and raise TypeError, and for a
    two-letter result they return a Word that skipped the checks and
    the reduction of __new__.  Build words with Word(genus, letters).
    """

    __slots__ = ()

    def __new__(cls, genus, letters=()):
        if genus < 1:
            raise ValueError(f"genus must be >= 1, got {genus}")
        n = 2 * genus
        letters = tuple(letters)
        for ell in letters:
            if not isinstance(ell, int) or ell == 0 or abs(ell) > n:
                raise ValueError(
                    f"letter {ell!r} out of range for genus {genus}"
                    f" (generators are 1..{n}, signed)"
                )
        return tuple.__new__(cls, (genus, _reduced(letters)))

    # -- constructors ------------------------------------------------

    @classmethod
    def _trusted(cls, genus, letters):
        """A Word from a tuple of letters already in range and freely
        reduced, without the range check and reduction of __new__."""
        return tuple.__new__(cls, (genus, letters))

    @classmethod
    def generator(cls, genus, i, power=1):
        sign = 1 if power > 0 else -1
        return cls(genus, (sign * i,) * abs(power))

    # -- queries -----------------------------------------------------

    def __len__(self):
        return len(self.letters)

    # -- group operations --------------------------------------------

    def _check_genus(self, other):
        if self.genus != other.genus:
            raise GenusMismatch(
                f"cannot combine words of genus {self.genus} and {other.genus}"
            )

    def __mul__(self, other):
        self._check_genus(other)
        return Word(self.genus, self.letters + other.letters)

    def inverse(self):
        # the inverse of a reduced word is reduced
        return Word._trusted(
            self.genus, tuple(-ell for ell in reversed(self.letters))
        )

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.genus, self.letters * k)

    # -- cyclic structure --------------------------------------------

    def cyclic_reduce(self):
        """The cyclically reduced core: self with its matching end
        letters stripped, so self = u * core * u^-1 for a prefix u of
        self.  The core keeps its position in self and is not rotated.

        Linear in the length of the word.  A subword of a reduced word
        is reduced, so the core is not reduced again.
        """
        letters = self.letters
        lo, hi = 0, len(letters)
        while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
            lo += 1
            hi -= 1
        if not lo:
            return self
        return Word._trusted(self.genus, letters[lo:hi])

    def canonical_cyclic(self):
        """Canonical representative of the cyclic word up to inversion.

        The lexicographically least rotation of the core or of its
        inverse, in the order of the signed integer letters, which
        forgets the orientation of the underlying loop as well as the
        base point: the right notion for an unoriented curve class.  Any
        total order on letters gives a canonical form, and this one is
        read from the letters themselves.  Linear in the length of the
        word.  The inverse of a cyclically reduced word and its rotations
        are cyclically reduced, so the core is stripped once.
        """
        core = self.cyclic_reduce().letters
        rotations = []
        for letters in (core, tuple(-ell for ell in reversed(core))):
            r = _least_rotation(letters)
            rotations.append(letters[r:] + letters[:r])
        return Word._trusted(self.genus, min(rotations))


# -- free functions ---------------------------------------------------


def abelianized(w):
    """Exponent vector of a word in the abelianization."""
    v = [0] * (2 * w.genus)
    for ell in w.letters:
        v[abs(ell) - 1] += 1 if ell > 0 else -1
    return tuple(v)


def boundary_word(genus):
    """[x1,x2][x3,x4]...[x{2g-1},x{2g}] -- the surface boundary."""
    letters = []
    for i in range(1, 2 * genus, 2):
        letters.extend((i, i + 1, -i, -(i + 1)))
    return Word(genus, tuple(letters))
