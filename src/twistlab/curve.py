"""Essential simple closed curves as (base curve, conjugating word) pairs.

A curve is only ever presented as a built-in base curve moved by a
mapping class word, which guarantees it is a genuine essential simple
closed curve.  Resolving the spec uses the conjugation law for twists:
the twist along f(c) equals f t_c f^{-1}.  The stored fundamental-group
class of a curve is canonical up to loop orientation, and algebraic
intersection numbers consequently carry a global sign ambiguity;
consumers use absolute values or zero tests only.

Spec text form: `Sep1 @ [C3 C4^-1]`, with `@ [...]` optional.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import GenusMismatch, SpecParseError, UnknownTwistName
from .mcg import FreeAutomorphism, builtin_table, evaluate, format_mcw
from .word import Word, abelianized


@dataclass(frozen=True)
class CurveSpec:
    genus: int
    base: str
    conjugator: tuple[tuple[str, int], ...] = ()

    def to_text(self):
        if not self.conjugator:
            return self.base
        return f"{self.base} @ [{format_mcw(self.conjugator)}]"

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class CurveData:
    """Resolved curve: its twist, class, homology and separating flag."""

    twist: FreeAutomorphism
    pi1_class: Word
    homology: tuple[int, ...]
    separating: bool


_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_INT = re.compile(r"-?\d+")


def parse_curve_spec(genus, text):
    """Recursive-descent parse of  NAME ('@' '[' (NAME ('^' INT)?)* ']')?"""
    s = text
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= len(s) or s[pos] != ch:
            raise SpecParseError(f"expected {ch!r}", position=pos)
        pos += 1

    def name():
        nonlocal pos
        skip_ws()
        m = _NAME.match(s, pos)
        if not m:
            raise SpecParseError("expected a twist name", position=pos)
        pos = m.end()
        return m.group(0)

    base = name()
    factors = []
    skip_ws()
    if pos < len(s):
        expect("@")
        expect("[")
        while True:
            skip_ws()
            if pos < len(s) and s[pos] == "]":
                pos += 1
                break
            if pos >= len(s):
                raise SpecParseError("unterminated conjugator", position=pos)
            n = name()
            k = 1
            skip_ws()
            if pos < len(s) and s[pos] == "^":
                pos += 1
                m = _INT.match(s, pos)
                if not m:
                    raise SpecParseError("expected an exponent", position=pos)
                k = int(m.group(0))
                pos = m.end()
                if k == 0:
                    raise SpecParseError("zero exponent", position=pos)
            factors.append((n, k))
        skip_ws()
        if pos != len(s):
            raise SpecParseError("trailing input", position=pos)
    return CurveSpec(genus, base, tuple(factors))


@lru_cache(maxsize=8192)
def _resolve_cached(spec):
    table = builtin_table(spec.genus)
    entry = table.entry(spec.base)
    if not entry.essential:
        raise UnknownTwistName(
            f"{spec.base} is boundary-parallel and cannot serve as a curve base"
        )
    f = evaluate(spec.conjugator, spec.genus)
    twist = f.compose(entry.twist).compose(f.inverse())
    moved = f(entry.base_word)
    # not from the canonical class, whose orientation may be reversed
    hom = abelianized(moved)
    return CurveData(
        twist=twist,
        pi1_class=moved.canonical_cyclic(),
        homology=hom,
        separating=all(c == 0 for c in hom),
    )


def resolve(spec):
    """Resolve a spec; results are memoized (thread-safe via lru_cache)."""
    return _resolve_cached(spec)


# -- homology ----------------------------------------------------------


def homology_action(f):
    """Matrix of f on first homology; column j is the image of e_j."""
    return tuple(zip(*(abelianized(w) for w in f.images)))


def identity_matrix(genus):
    n = 2 * genus
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def symplectic_pairing(u, v):
    """Standard form with <e_{2i-1}, e_{2i}> = 1 on homology vectors."""
    total = 0
    for i in range(0, len(u), 2):
        total += u[i] * v[i + 1] - u[i + 1] * v[i]
    return total


def standard_form_matrix(genus):
    n = 2 * genus
    j = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        j[i][i + 1] = 1
        j[i + 1][i] = -1
    return tuple(tuple(row) for row in j)


# -- pairings and equality ---------------------------------------------


def _check_same_genus(c1, c2):
    if c1.genus != c2.genus:
        raise GenusMismatch("curve specs of different genus")


def algebraic_intersection(c1, c2):
    """Symplectic pairing of the two homology classes.

    The sign depends on the orientations baked into the canonical
    classes; use abs() or a zero test.
    """
    _check_same_genus(c1, c2)
    return symplectic_pairing(resolve(c1).homology, resolve(c2).homology)


def curves_equal(c1, c2):
    """Exact isotopy test: twists agree iff the curves agree."""
    _check_same_genus(c1, c2)
    return resolve(c1).twist == resolve(c2).twist
