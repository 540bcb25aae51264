"""Mapping classes of the one-boundary surface as free-group automorphisms.

For one boundary component the action of a mapping class on the
fundamental group is faithful, so a mapping class IS its automorphism
and equality of mapping classes is exact equality of reduced generator
images.  Every table automorphism fixes the boundary word on the nose.

The built-in generator twists are built from closed forms: the chain
twists C1..C{2g+1} along a chain of curves (consecutive ones meet once,
the rest are disjoint), the standard separating twists SepJ around the
first J handles, and the boundary twist Delta.  Each twist t fixes its
base word c letter for letter and sends each generator x_i to
c^a x_i c^b, with a, b in {-1, 0, 1}, so t^k sends x_i to
c^(ak) x_i c^(bk) and no power is composed.  The formulas are pinned by
validate_relations(), not trusted constants: braid relations for
adjacent chain twists, commutation for disjoint pairs, the chain
relation (C1 C2)^6 = Delta at genus 1 and (C1..C{2g+1})^{2g+2} = Delta
above it, the chain relations (C1..C{2J})^{4J+2} = SepJ that pin each
separating twist, centrality of Delta, and homological triviality of
the separating twists.  Each group relation is an identity between two
words of table names, read by the same fold as evaluate.  The
handedness convention is global; supplying the opposite convention
would flip every twist at once and change nothing downstream (all
detectors depend only on commutators and filtration membership).

Mapping class words, such as `C1 C2^-3 Sep1 Delta^2`, are owned here.
One scanner reads their grammar, NAME ('^' INT)? factors, for the
conjugators of curve specs (curve.parse_curve_spec).
Their folds are here too: evaluate builds the automorphism, class_image
its value on a conjugacy class, homology_images its values on homology
classes and homology_matrix its action on homology, whose convention
homology_action fixes for any automorphism.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

from .errors import (
    GenusMismatch,
    SpecParseError,
    UnknownTwistName,
    UnsupportedGenus,
    WordLengthLimit,
)
from .word import Word, abelianized, boundary_word

#: Hard cap on automorphism image length; compositions past this abort.
MAX_IMAGE_LETTERS = 10**6

# the forms hold at every genus; these are the genera the relation suite
# and the power tests run on
_SUPPORTED_GENERA = range(1, 7)


class FreeAutomorphism:
    """An automorphism of the rank-2g free group, stored as the images of
    the generators.

    Every automorphism the package builds is a word in the table twists,
    each checked against its inverse when the table is built
    (builtin_table), so the images are not checked here; the inverse of
    a class is the class of its inverse word (inverse_mcw).  The letter
    table that applying the map reads is built on the first call, so
    automorphisms that are only compared pay nothing for it.  Instances
    are immutable.
    """

    __slots__ = ("genus", "images", "_letter_images")

    def __init__(self, genus, images):
        images = tuple(images)
        if len(images) != 2 * genus:
            raise ValueError(f"expected {2 * genus} generator images")
        for w in images:
            if w.genus != genus:
                raise GenusMismatch("image word of wrong genus")
        self.genus = genus
        self.images = images
        self._letter_images = None

    # -- action --------------------------------------------------------

    def __call__(self, w):
        if w.genus != self.genus:
            raise GenusMismatch("word of wrong genus")
        out = []
        table = self._letter_images
        if table is None:
            # letter -> image letters, for +-1..+-2g
            table = {}
            for i, img in enumerate(self.images, start=1):
                table[i] = img.letters
                table[-i] = tuple(-ell for ell in reversed(img.letters))
            self._letter_images = table
        limit = MAX_IMAGE_LETTERS
        for ell in w.letters:
            # cancel the longest prefix of the image against the end of
            # `out`, then append the rest in one block: each image is
            # freely reduced, so once img[k] fails to cancel, no later
            # letter of it can, and `out` stays freely reduced.  Replayed
            # on the calls of a seed-13 pair-scan pass, this takes about
            # a quarter less time than appending or popping one letter
            # at a time (BENCH_kernels.json)
            img = table[ell]
            k, n = 0, len(img)
            while k < n and out and out[-1] == -img[k]:
                out.pop()
                k += 1
            out.extend(img[k:] if k else img)
            if len(out) > limit:
                raise WordLengthLimit(
                    f"image exceeded {limit} letters; composition aborted"
                )
        # `out` is freely reduced as it is built, and its letters come
        # from images that were checked when the table was made
        return Word._trusted(self.genus, tuple(out))

    def compose(self, other):
        """self after other: (self.compose(other))(w) = self(other(w))."""
        if other.genus != self.genus:
            raise GenusMismatch("automorphisms of different genus")
        return FreeAutomorphism(self.genus, tuple(self(w) for w in other.images))

    # -- comparison ----------------------------------------------------

    def is_identity(self):
        return all(
            w.letters == (i,) for i, w in enumerate(self.images, start=1)
        )

    def __eq__(self, other):
        if not isinstance(other, FreeAutomorphism):
            return NotImplemented
        return self.genus == other.genus and self.images == other.images

    def __repr__(self):
        imgs = ", ".join(
            f"x{i}->{w.letters}" for i, w in enumerate(self.images, 1)
        )
        return f"<auto g={self.genus}: {imgs}>"


# -- generator tables ------------------------------------------------


class TableEntry(
    namedtuple(
        "TableEntry",
        "name role index twist inverse base_word form separating essential",
    )
):
    """One named twist: its automorphism and inverse, and its curve's
    invariants.

    role is "chain", "sep" or "boundary"; index is the chain position,
    or J for SepJ, and 0 for Delta.  form holds (a, b) for each
    generator x_i: the twist sends x_i to c^a x_i c^b, for c the base
    word, which it fixes letter for letter.  An entry holds
    automorphisms, which are not hashable, so neither is the entry.
    """

    __slots__ = ()
    __hash__ = None


class TwistTable:
    """The built-in twists of one genus, immutable after construction."""

    def __init__(self, genus, entries):
        self.genus = genus
        self.entries = {e.name: e for e in entries}
        self.chain_names = tuple(
            e.name for e in entries if e.role == "chain"
        )
        self.sep_names = tuple(e.name for e in entries if e.role == "sep")

    def names(self):
        return tuple(self.entries)

    def entry(self, name):
        try:
            return self.entries[name]
        except KeyError:
            raise UnknownTwistName(
                f"unknown twist {name!r} at genus {self.genus}"
            ) from None

    def essential_base_names(self):
        return tuple(e.name for e in self.entries.values() if e.essential)


def _twist_forms(g):
    """(name, role, index, base letters, {i: (a, b)}) for each twist of
    the genus-g table, in table order; generators not listed are fixed.

    Along the chain, C1 and C{2k} for k >= 2 twist along the generator
    x{2k-1}, C3 and C{2k+1} for 2 <= k < g along the connector from
    handle k into handle k + 1, and C{2g+1} along x{2g}.  SepJ and Delta
    conjugate each generator inside their curve by its boundary word.
    """
    first = ((1,), {2: (0, -1)})
    last = ((2 * g,), {2 * g - 1: (0, 1)})
    if g == 1:
        chain = [first, last, first]
    else:
        chain = [first, ((-2,), {1: (0, -1)})]
        chain.append(((2, -1, -2, 3, 4, -3), {2: (1, 0), 3: (1, 0)}))
        for i in range(4, 2 * g + 1, 2):
            chain.append(((i - 1,), {i: (0, -1)}))
            if i < 2 * g:
                shifts = {i - 1: (0, -1), i: (1, -1), i + 1: (1, 0)}
                chain.append(((-i, i + 1, i + 2, -i - 1), shifts))
        chain.append(last)
    forms = [(f"C{n}", "chain", n, c, s) for n, (c, s) in enumerate(chain, 1)]
    for j in range(1, g + 1):
        shifts = {i: (1, -1) for i in range(1, 2 * j + 1)}
        named = (f"Sep{j}", "sep", j) if j < g else ("Delta", "boundary", 0)
        forms.append((*named, boundary_word(j).letters, shifts))
    return forms


def _form_images(genus, c, form, k):
    """The generator images c^(ak) x_i c^(bk) of the k-th power of the
    twist with base word c and form ((a, b) per generator)."""
    return tuple(
        c ** (a * k) * Word.generator(genus, i) * c ** (b * k)
        for i, (a, b) in enumerate(form, start=1)
    )


@lru_cache(maxsize=None)
def builtin_table(genus):
    """The twist table of a supported genus, built from its closed forms.

    Each twist t and its inverse are read from the form, and the table
    checks both round trips, t(t^-1(x_i)) = x_i = t^-1(t(x_i)) for every
    generator, which makes t an automorphism: it raises ValueError for a
    form that fails them.  Every other class is a word in these twists.
    """
    if genus not in _SUPPORTED_GENERA:
        raise UnsupportedGenus(
            f"no built-in table for genus {genus}; supported: "
            f"{_SUPPORTED_GENERA[0]}..{_SUPPORTED_GENERA[-1]}"
        )
    entries = []
    for name, role, index, letters, shifts in _twist_forms(genus):
        c = Word(genus, letters)
        form = tuple(shifts.get(i, (0, 0)) for i in range(1, 2 * genus + 1))
        twist = FreeAutomorphism(genus, _form_images(genus, c, form, 1))
        inverse = FreeAutomorphism(genus, _form_images(genus, c, form, -1))
        for i in range(1, 2 * genus + 1):
            x = Word.generator(genus, i)
            if twist(inverse(x)) != x or inverse(twist(x)) != x:
                raise ValueError(f"the closed form of {name} is not invertible")
        entries.append(TableEntry(
            name=name, role=role, index=index, twist=twist, inverse=inverse,
            base_word=c, form=form, separating=role != "chain",
            essential=role != "boundary",
        ))
    return TwistTable(genus, entries)


# -- mapping class words ----------------------------------------------

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")
# ASCII digits only: \d would read a fullwidth or Arabic-Indic digit as
# its value
_EXPONENT = re.compile(r"-?[0-9]+")


def _skip_space(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _scan_name(text, pos):
    """The twist name after the blanks at text[pos:], and the position
    after it."""
    pos = _skip_space(text, pos)
    m = _NAME.match(text, pos)
    if not m:
        raise SpecParseError("expected a twist name", position=pos)
    return m.group(0), m.end()


def _scan_mcw(text, pos):
    """The factors NAME ('^' INT)? of the mapping class word at text[pos:],
    and the position after the ']' that closes it.

    Blanks may stand between tokens but not after '^'.  Errors are
    raised as SpecParseError, with their position in the text.
    """
    factors = []
    while True:
        pos = _skip_space(text, pos)
        if text.startswith("]", pos):
            return tuple(factors), pos + 1
        if pos == len(text):
            raise SpecParseError("unterminated conjugator", position=pos)
        name, pos = _scan_name(text, pos)
        k = 1
        pos = _skip_space(text, pos)
        if text.startswith("^", pos):
            m = _EXPONENT.match(text, pos + 1)
            if not m:
                raise SpecParseError("expected an exponent", position=pos + 1)
            try:
                k = int(m.group(0))
            except ValueError:
                # past Python's limit on the digits int() converts
                raise SpecParseError(
                    "number too long", position=pos + 1
                ) from None
            pos = m.end()
            if k == 0:
                raise SpecParseError("zero exponent", position=pos)
        factors.append((name, k))


def format_mcw(mcw):
    return " ".join(n if k == 1 else f"{n}^{k}" for n, k in mcw)


# bounded: a genus has at most 16 names, but exponents are unbounded
@lru_cache(maxsize=1024)
def _twist_power(genus, name, k):
    """t^k for the table twist t called name, read from its closed form:
    nothing is composed, and a power past the letter cap fails before an
    image is built."""
    entry = builtin_table(genus).entry(name)
    # a +-1 factor of a folded word is the table twist or its inverse
    unit = entry.twist if k > 0 else entry.inverse
    if abs(k) == 1:
        return unit
    c, form = entry.base_word, entry.form
    # t^k(x_i) = c^(ak) x_i c^(bk) loses as many letters to free
    # cancellation as t^(+-1)(x_i) does (tested at every supported
    # genus), so the length of its longest image is known before any
    # image is built
    longest = max(
        len(w) + (abs(k) - 1) * (abs(a) + abs(b)) * len(c)
        for w, (a, b) in zip(unit.images, form)
    )
    if longest > MAX_IMAGE_LETTERS:
        raise WordLengthLimit(
            f"{name}^{k} has an image of more than {MAX_IMAGE_LETTERS} letters"
        )
    return FreeAutomorphism(genus, _form_images(genus, c, form, k))


def _apply_factors(genus, factors, words, cyclic=False, limit=None):
    """Images of `words` under the product of `factors`, leftmost applied
    last, built from the inside out: each factor's short images
    substitute into the words built so far.  With cyclic=True each word
    is stripped to its cyclically reduced core after each factor, which
    keeps its conjugacy class, since an automorphism carries conjugates
    to conjugates, and keeps the words from carrying conjugators that
    later factors would only lengthen.  Nothing is rotated.  With a
    limit, a word longer than `limit` letters after any factor raises
    WordLengthLimit."""
    for name, k in reversed(factors):
        p = _twist_power(genus, name, k)
        words = tuple(p(w) for w in words)
        if cyclic:
            words = tuple(w.cyclic_reduce() for w in words)
        if limit is not None and any(len(w) > limit for w in words):
            raise WordLengthLimit(f"a fold passed {limit} letters")
    return words


def _checked_mcw(mcw, genus):
    mcw = tuple((str(n), int(k)) for n, k in mcw)
    for name, k in mcw:
        if k == 0:
            raise ValueError("zero exponent in mapping class word")
        builtin_table(genus).entry(name)  # raises UnknownTwistName early
    return mcw


def inverse_mcw(mcw):
    """The mapping class word of the inverse: factors reversed, exponents
    negated."""
    return tuple((name, -k) for name, k in reversed(mcw))


@lru_cache(maxsize=8192)
def _evaluate_cached(genus, mcw):
    gens = tuple(Word.generator(genus, i) for i in range(1, 2 * genus + 1))
    return FreeAutomorphism(genus, _apply_factors(genus, mcw, gens))


def evaluate(mcw, genus):
    """Composite of named twists, leftmost applied last.

    evaluate(((A,1),(B,1))) sends w to t_A(t_B(w)).  The images are
    built from the inside out, by applying each table-twist power to the
    images of the factors right of it.  A table twist's images are
    short, so every step substitutes short words into long ones, and the
    result is one flat automorphism.  The inverse class is evaluated
    from the inverse word (inverse_mcw), and cached under it.
    """
    return _evaluate_cached(genus, _checked_mcw(mcw, genus))


def class_image(mcw, genus, w):
    """The conjugacy class of evaluate(mcw, genus)(w), cyclically reduced.

    The same fold as evaluate's, applied to w alone and cyclically
    reduced after each factor, so no generator image of the composite is
    built: the cost follows the lengths of w's intermediate classes, not
    those of the composite's images.  The result is a cyclically reduced
    conjugate of the image of w, not rotated to the canonical
    representative (Word.canonical_cyclic).
    """
    (image,) = _apply_factors(genus, _checked_mcw(mcw, genus), (w,), cyclic=True)
    return image


def homology_action(f):
    """Matrix of f on first homology; column j is the image of e_j."""
    return tuple(zip(*(abelianized(w) for w in f.images)))


def identity_matrix(genus):
    n = 2 * genus
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


@lru_cache(maxsize=None)
def _homology_step(genus, name):
    """The nonzero entries (i, j, m) of T - I, for T the homology matrix
    of a table twist."""
    t = homology_action(builtin_table(genus).entry(name).twist)
    return tuple(
        (i, j, m - (i == j))
        for i, row in enumerate(t)
        for j, m in enumerate(row)
        if m != (i == j)
    )


def homology_images(mcw, genus, vectors):
    """The images of the homology classes in vectors under
    evaluate(mcw, genus), as lists.

    Folded from the inside out, like class_image, so no image is built.
    A twist acts on homology as a transvection or as the identity, so
    its T has (T - I)^2 = 0 and T^k = I + k (T - I): a factor costs the
    few nonzero entries of T - I per vector, whatever its exponent.
    """
    columns = [list(v) for v in vectors]
    for name, k in reversed(_checked_mcw(mcw, genus)):
        step = _homology_step(genus, name)
        for x in columns:
            delta = [(i, k * m * x[j]) for i, j, m in step]
            for i, d in delta:
                x[i] += d
    return columns


def homology_matrix(mcw, genus):
    """The homology matrix of evaluate(mcw, genus); column j is the
    image of e_j (homology_images), as in homology_action."""
    return tuple(zip(*homology_images(mcw, genus, identity_matrix(genus))))


# -- relation validation ----------------------------------------------


RelationCheck = namedtuple("RelationCheck", "kind description passed")


class RelationReport(namedtuple("RelationReport", "genus checks")):
    __slots__ = ()

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


#: Letter bound of the relation folds of validate_relations.  The true
#: tables (genus 1..6) fold every relation through words of at most 10
#: letters at genus 1 and 16g - 7 above it, 89 at genus 6, so a fold
#: past this bound means a wrong table; without it, a wrong table's
#: folds can grow to images of 10^5-10^6 letters before they compare.
RELATION_FOLD_LETTERS = 4096


def validate_relations(genus):
    """Run the relation suite that pins the generator table.

    Every group relation is an identity u = v between two words of table
    names, each with exponent 1, and one reader decides them all: do the
    images of the generators under the fold behind evaluate agree?
    Checks (a) braid relations for adjacent chain twists, (b) commutation
    for disjoint pairs (chain twists two or more apart; SepJ against
    every chain twist except the connector C{2J+1} it crosses; SepJ
    against SepK), (c) the chain relations: the one for Delta, then
    (t_C1 ... t_C{2J})^{4J+2} = t_SepJ for each separating twist, (d)
    centrality of Delta, and (e) that separating twists act trivially
    on homology, read from homology_matrix.  Failures are report
    entries, not errors: a side whose fold passes RELATION_FOLD_LETTERS
    (or the letter cap) fails its relation.
    """
    table = builtin_table(genus)
    gens = tuple(Word.generator(genus, i) for i in range(1, 2 * genus + 1))
    names = table.chain_names
    checks = []

    def fold(word):
        factors = [(n, 1) for n in word]
        return _apply_factors(genus, factors, gens, limit=RELATION_FOLD_LETTERS)

    def holds(u, v):
        try:
            return fold(u) == fold(v)
        except WordLengthLimit:
            # a side whose fold passes the letter bound is not
            # established, so the relation fails rather than stopping
            # the suite
            return False

    def check(kind, description, *identities):
        ok = all(holds(u, v) for u, v in identities)
        checks.append(RelationCheck(kind, description, ok))

    for a, b in zip(names, names[1:]):
        check("braid", f"{a} {b} braid relation", ((a, b, a), (b, a, b)))

    for i, a in enumerate(names):
        for b in names[i + 2:]:
            check("commute", f"[{a}, {b}] = 1", ((a, b), (b, a)))

    for s in table.sep_names:
        crossing = f"C{2 * table.entry(s).index + 1}"
        for c in names:
            if c != crossing:
                check("commute", f"[{s}, {c}] = 1 (disjoint)", ((s, c), (c, s)))
        for t in table.sep_names:
            if t > s:
                check("commute", f"[{s}, {t}] = 1 (nested)", ((s, t), (t, s)))

    # (t_C1 t_C2)^6 = t_Delta at genus 1 and the full odd chain
    # (t_C1 ... t_C{2g+1})^{2g+2} = t_Delta above it, then the even chain
    # around each separating curve, (t_C1 ... t_C{2J})^{4J+2} = t_SepJ
    length, power = (2, 6) if genus == 1 else (2 * genus + 1, 2 * genus + 2)
    chains = [(length, power, "Delta")]
    for s in table.sep_names:
        j = table.entry(s).index
        chains.append((2 * j, 4 * j + 2, s))
    for length, power, target in chains:
        chain = names[:length]
        text = " ".join(f"t_{n}" for n in chain)
        check("chain", f"({text})^{power} = t_{target}", (chain * power, (target,)))

    check(
        "central",
        "t_Delta is central",
        *((("Delta", n), (n, "Delta")) for n in table.names() if n != "Delta"),
    )

    for s in table.sep_names:
        ok = homology_matrix(((s, 1),), genus) == identity_matrix(genus)
        checks.append(
            RelationCheck("homology", f"{s} acts trivially on homology", ok)
        )

    return RelationReport(genus, tuple(checks))
