import random

import pytest

from twistlab.errors import GenusMismatch
from twistlab.word import Word, boundary_word

from references import commutator


def naive_reduce(letters):
    """Independent oracle: repeated single-pair cancellation scans."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] == -letters[i + 1]:
                del letters[i : i + 2]
                changed = True
                break
    return tuple(letters)


def random_letters(rng, genus, n):
    return [rng.choice([1, -1]) * rng.randrange(1, 2 * genus + 1) for _ in range(n)]


def test_cancellation_to_identity():
    assert not Word(1, (1, -1)).letters


def test_inner_cancellation():
    assert Word(1, (1, 2, -2, 1)).letters == (1, 1)


def test_word_times_formal_inverse_is_identity():
    rng = random.Random(11)
    for _ in range(200):
        letters = random_letters(rng, 2, rng.randrange(0, 30))
        w = Word(2, tuple(letters))
        assert not (w * w.inverse()).letters
        # raw concatenation with the formal inverse also reduces to nothing
        raw = letters + [-l for l in reversed(letters)]
        assert not Word(2, tuple(raw)).letters


def test_reduce_matches_naive_oracle():
    rng = random.Random(5)
    for _ in range(300):
        letters = random_letters(rng, 2, rng.randrange(0, 24))
        assert Word(2, tuple(letters)).letters == naive_reduce(letters)


def test_reduce_idempotent_and_length_nonincreasing():
    rng = random.Random(7)
    for _ in range(200):
        letters = random_letters(rng, 3, rng.randrange(0, 20))
        w = Word(3, tuple(letters))
        assert len(w) <= len(letters)
        assert Word(3, w.letters).letters == w.letters


def test_out_of_range_letter_rejected():
    with pytest.raises(ValueError):
        Word(1, (3,))
    with pytest.raises(ValueError):
        Word(1, (0,))


def test_genus_mismatch():
    with pytest.raises(GenusMismatch):
        Word(1, (1,)) * Word(2, (1,))


def test_multiply_associative_invert_involution():
    rng = random.Random(13)
    for _ in range(100):
        u, v, w = (
            Word(2, tuple(random_letters(rng, 2, rng.randrange(0, 12))))
            for _ in range(3)
        )
        assert (u * v) * w == u * (v * w)
        assert u.inverse().inverse() == u


def test_commutator_basics():
    x1 = Word.generator(1, 1)
    x2 = Word.generator(1, 2)
    assert commutator(x1, x2).letters == (1, 2, -1, -2)
    u = Word(2, (1, 2, -3))
    assert not commutator(u, u).letters
    assert not commutator(u, Word(2)).letters


def test_commutator_trivial_iff_commuting():
    rng = random.Random(3)
    for _ in range(150):
        u = Word(2, tuple(random_letters(rng, 2, rng.randrange(0, 8))))
        v = Word(2, tuple(random_letters(rng, 2, rng.randrange(0, 8))))
        assert (not commutator(u, v).letters) == (u * v == v * u)


def test_conjugate_by_identity():
    u, g = Word(2, (1, 2, 3)), Word(2)
    assert g * u * g.inverse() == u


def test_inverse_antihomomorphism():
    w = Word(1, (1, 2))
    assert w.inverse().letters == (-2, -1)


def strip_ends(letters):
    """Independent oracle: strip matching ends repeatedly."""
    letters = list(letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return tuple(letters)


def stripped_prefix(w, core):
    """The prefix u of w with w = u * core * u^-1, for the core of w."""
    return Word(w.genus, w.letters[: (len(w) - len(core)) // 2])


def test_cyclic_reduce_simple():
    u = Word(1, (1, 2, -1))
    core = u.cyclic_reduce()
    assert core.letters == (2,) == strip_ends(u.letters)
    conj = stripped_prefix(u, core)
    assert conj.letters == (1,)
    assert conj * core * conj.inverse() == u


def test_cyclic_reduce_already_reduced():
    u = Word(2, (1, 2))
    core = u.cyclic_reduce()
    assert core == u
    assert not stripped_prefix(u, core).letters


def test_cyclic_reduce_nested_conjugation():
    rng = random.Random(2)
    for _ in range(200):
        u = Word(2, tuple(random_letters(rng, 2, rng.randrange(0, 10))))
        g = Word(2, tuple(random_letters(rng, 2, rng.randrange(0, 6))))
        h = Word(2, tuple(random_letters(rng, 2, rng.randrange(0, 6))))
        nested = g * (h * u * h.inverse()) * g.inverse()
        core = nested.cyclic_reduce()
        conj = stripped_prefix(nested, core)
        assert conj * core * conj.inverse() == nested
        assert len(core) <= len(nested)
        # the core is the fully end-stripped word, not rotated
        assert core.letters == strip_ends(nested.letters)


def rotation_search_cyclic_reduce(w):
    """Reference: strip the ends, then compare every rotation's letters.

    Returns the least rotation of the core and its conjugator.
    Quadratic; kept as the oracle for the linear Word.canonical_cyclic.
    """
    core = list(w.letters)
    conj = []
    while len(core) >= 2 and core[0] == -core[-1]:
        conj.append(core.pop(0))
        core.pop()
    if core:
        rotations = [tuple(core[r:] + core[:r]) for r in range(len(core))]
        r = rotations.index(min(rotations))
        conj.extend(core[:r])
        core = core[r:] + core[:r]
    return Word(w.genus, tuple(core)), Word(w.genus, tuple(conj))


def test_cyclic_reduce_matches_rotation_search():
    rng = random.Random(5)
    words = [
        Word(2, (1, 2) * 3),  # (x1 x2)^3: the first minimal rotation is 0
        Word(2, (2, 1) * 3),  # ... and here it is 1
        Word(2, (-1, 3, -1, 3)),
        Word(1, (1,) * 7),
        Word(3, (2, -5, 2, -5, 2)),
    ]
    for _ in range(400):
        genus = rng.randrange(1, 4)
        # small alphabets make ties between rotations common
        size = rng.randrange(1, 2 * genus + 1)
        u = Word(genus, tuple(
            rng.choice((1, -1)) * rng.randrange(1, size + 1)
            for _ in range(rng.randrange(0, 9))
        ))
        g = Word(genus, tuple(random_letters(rng, genus, rng.randrange(0, 4))))
        words.append(g * u * g.inverse())
        words.append(g * u ** rng.randrange(2, 5) * g.inverse())
    for w in words:
        # the oracle's decomposition is the core rotated by r, with the
        # first r letters of the core moved into the conjugator
        core = w.cyclic_reduce()
        least, conj = rotation_search_cyclic_reduce(w)
        prefix = stripped_prefix(w, core).letters
        r = len(conj) - len(prefix)
        assert conj.letters == prefix + core.letters[:r], w
        assert least.letters == core.letters[r:] + core.letters[:r], w
        # canonical_cyclic is the least rotation in either orientation
        alt, _ = rotation_search_cyclic_reduce(w.inverse())
        assert w.canonical_cyclic().letters == min(least.letters, alt.letters), w
        assert w.inverse().canonical_cyclic() == w.canonical_cyclic(), w


def test_canonical_cyclic_rotation_deterministic():
    # all rotations of the same cyclic word canonicalize identically
    w = Word(2, (3, 1, 2))
    forms = {
        Word(2, (1, 2, 3)).canonical_cyclic(),
        Word(2, (2, 3, 1)).canonical_cyclic(),
        w.canonical_cyclic(),
    }
    assert len(forms) == 1


def test_boundary_word():
    assert boundary_word(1).letters == (1, 2, -1, -2)
    assert boundary_word(2).letters == (1, 2, -1, -2, 3, 4, -3, -4)
