"""Words in the free fundamental group of a one-boundary surface.

The genus-g surface with one boundary component has free fundamental
group of rank 2g, generated by x1..x{2g}; its boundary word is the
product of commutators [x1,x2][x3,x4]...[x{2g-1},x{2g}].  A letter is a
nonzero signed integer: +i stands for x_i, -i for its inverse.  Words
are kept freely reduced at all times and are immutable, so values may
be shared between threads without locking.

Text form: whitespace-separated tokens `x3` or `x3^-2`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import GenusMismatch, WordParseError

_TOKEN = re.compile(r"x([0-9]+)(?:\^(-?[0-9]+))?$")


def _parse_int(digits, position, error=WordParseError):
    """int(digits), or a parse error at the position of the digits when
    they pass Python's limit on the digits int() converts."""
    try:
        return int(digits)
    except ValueError:
        raise error("number too long", position=position) from None


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


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty word is the identity."""

    genus: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError(f"genus must be >= 1, got {self.genus}")
        n = 2 * self.genus
        letters = tuple(self.letters)
        for ell in letters:
            if not isinstance(ell, int) or ell == 0 or abs(ell) > n:
                raise ValueError(
                    f"letter {ell!r} out of range for genus {self.genus}"
                    f" (generators are 1..{n}, signed)"
                )
        object.__setattr__(self, "letters", _reduced(letters))

    # -- constructors ------------------------------------------------

    @classmethod
    def _trusted(cls, genus, letters):
        """A Word from a tuple of letters already in range and freely
        reduced, without the range check and reduction of __post_init__."""
        w = object.__new__(cls)
        object.__setattr__(w, "genus", genus)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def identity(cls, genus):
        return cls(genus, ())

    @classmethod
    def generator(cls, genus, i, power=1):
        sign = 1 if power > 0 else -1
        return cls(genus, (sign * i,) * abs(power))

    @classmethod
    def from_text(cls, genus, text):
        """Parse `x1 x2^-1 x1`; exponents expand to letter runs."""
        letters = []
        end = 0
        for tok in text.split():
            start = text.find(tok, end)
            end = start + len(tok)
            m = _TOKEN.match(tok)
            if not m:
                raise WordParseError(f"bad word token {tok!r}")
            i = _parse_int(m.group(1), start + 1)
            k = _parse_int(m.group(2), start + m.start(2)) if m.group(2) else 1
            if i < 1 or i > 2 * genus:
                raise WordParseError(
                    f"generator x{i} out of range for genus {genus}"
                )
            if k == 0:
                raise WordParseError(f"zero exponent in token {tok!r}")
            letters.extend([i if k > 0 else -i] * abs(k))
        return cls(genus, tuple(letters))

    # -- queries -----------------------------------------------------

    def is_identity(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def to_text(self):
        if not self.letters:
            return "1"
        parts = []
        run_letter, run = self.letters[0], 0
        for ell in self.letters + (0,):
            if ell == run_letter:
                run += 1
                continue
            i, k = abs(run_letter), run * (1 if run_letter > 0 else -1)
            parts.append(f"x{i}" if k == 1 else f"x{i}^{k}")
            run_letter, run = ell, 1
        return " ".join(parts)

    def __str__(self):
        return self.to_text()

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

    def conjugate(self, g):
        """g * self * g^-1."""
        self._check_genus(g)
        return g * self * g.inverse()

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
