"""Truncated Magnus expansion into noncommutative integer power series.

A word maps multiplicatively into Z<<X1..X{2g}>> / (degree > cap) by
x_i -> 1 + X_i and x_i^-1 -> 1 - X_i + X_i^2 - ...  The classical fact
driving everything here: a word lies in the k-th lower central series
term iff its expansion is 1 plus terms of degree >= k, so the lowest
nonvanishing degree of (expansion - 1) certifies lower-central depth.

Series are sparse: one dict per homogeneous degree, keyed by a packed
monomial (base-2g digits, most significant letter first).  Coefficients
are plain Python ints, so there is no overflow at any cap.  Caps are
explicit everywhere; the cost of a cap-D expansion at genus g grows
like (2g)^D, which callers must be able to see.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import GenusMismatch, SeriesTermLimit

#: Hard cap on the terms in one degree of a series of a TruncatedAction;
#: building or composing an action past it aborts.
MAX_SERIES_TERMS = 50_000


def _nonzero(terms):
    return {key: c for key, c in terms.items() if c}


def _term_limit(limit, what):
    return SeriesTermLimit(
        f"a series degree exceeded {limit} terms; {what} aborted"
    )


def _mul_into(out, a, b, base, limit):
    """Add the product of two series, given as degree-indexed dicts of
    packed keys, to `out`, truncated above degree len(out) - 1.

    Zero coefficients are left in place.  A degree of `out` holding more
    than `limit` terms raises SeriesTermLimit.  It is checked after each
    term of `a`, and the terms one term of `a` adds to a degree are all
    distinct, so the work done before the check fires is bounded.
    """
    top = len(out) - 1
    for da, terms_a in enumerate(a[: top + 1]):
        if not terms_a:
            continue
        for db, terms_b in enumerate(b[: top - da + 1]):
            if not terms_b:
                continue
            shift = base**db
            target = out[da + db]
            for ka, ca in terms_a.items():
                kbase = ka * shift
                for kb, cb in terms_b.items():
                    key = kbase + kb
                    target[key] = target.get(key, 0) + ca * cb
                if len(target) > limit:
                    raise _term_limit(limit, "composition")


class TruncatedSeries:
    """The expansion of a word through a cap: degrees[d] maps the packed
    degree-d monomials to their coefficients, for d = 0..cap."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        self.degrees = degrees


def magnus_expand(w, cap):
    """Expand a word at the given degree cap, as a TruncatedSeries.

    Multiplicative: the expansion of u*v is the truncated product of
    those of u and v.  Runs of a single generator are folded into one
    sparse product with binomial coefficients, so cost scales with the
    run count.

    Each run right-multiplies the series by (1 + X_i)^m in place, from
    the top degree down: degree d gains terms from degrees below d only,
    and those are still unchanged when d is updated.  The constant term
    is never touched, and the top degree is only ever a target.  The
    term X_i^d that degree d gains from the constant 1 is written to its
    key directly, and a run's factors are built once per (letter, m)
    in a call.  Twist images are mostly runs of length one (44,044 runs
    over the 45,685 letters that one seed-13 pair-scan pass expands), so
    the per-run overhead is much of the cost at low caps: on those calls
    this takes 26-36% less time at caps 2-3 than building the runs with
    groupby and every run's factors anew (BENCH_kernels.json).

    Degree 1 is the exponent-sum vector, so cap 1 only adds each run's
    signed length to its letter's key, with no factors and no degree
    loop.  A key whose sum returns to 0 is deleted, as in the general
    loop, so the keys land in the same order.  Cap 1 is most calls (2,438
    of 2,546 in a seed-29 pair-scan pass), and on those this takes about
    two thirds less time than the general loop (BENCH_cap_one.json).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    degrees = [{0: 1}] + [{} for _ in range(cap)]
    # a Word is freely reduced, so a run repeats one signed letter
    letters = w.letters
    n, pos = len(letters), 0
    if cap == 1:
        target = degrees[1]
        while pos < n:
            ell, end = letters[pos], pos + 1
            while end < n and letters[end] == ell:
                end += 1
            if ell > 0:
                key, nc = ell - 1, end - pos
            else:
                key, nc = -ell - 1, pos - end
            pos = end
            nc += target.get(key, 0)
            if nc:
                target[key] = nc
            else:
                del target[key]
        return TruncatedSeries(degrees)
    base = 2 * w.genus
    shifts = [base**j for j in range(cap + 1)]
    memo = {}
    while pos < n:
        ell, end = letters[pos], pos + 1
        while end < n and letters[end] == ell:
            end += 1
        m, pos = end - pos, end
        factors = memo.get((ell, m))
        if factors is None:
            # C(sm, j) X_i^j for j >= 1, with sm the signed run length
            # and the packed digits of X_i^j; C(sm, j) is stepped from
            # C(sm, j - 1) and, for sm > 0, is zero from j = sm + 1 on
            i, sm = abs(ell), m if ell > 0 else -m
            factors = memo[ell, m] = []
            rep, cj = 0, 1
            for j in range(1, cap + 1):
                cj = cj * (sm - j + 1) // j
                if not cj:
                    break
                rep = rep * base + (i - 1)
                factors.append((j, cj, shifts[j], rep))
        for d in range(cap, 0, -1):
            target = degrees[d]
            for j, cj, shift, rep in factors:
                if j == d:
                    # from the constant term: degrees[0] is {0: 1}
                    nc = target.get(rep, 0) + cj
                    if nc:
                        target[rep] = nc
                    else:
                        del target[rep]
                    break
                for key, c in degrees[d - j].items():
                    nk = key * shift + rep
                    nc = target.get(nk, 0) + c * cj
                    if nc:
                        target[nk] = nc
                    else:
                        del target[nk]
    return TruncatedSeries(degrees)


def _substitute(degrees, subs, top, base, limit):
    """The series `degrees` at X_j = subs[j], through degree `top`.

    `degrees` and each subs[j] are degree-indexed dicts of packed keys;
    no subs[j] has a constant term.  Horner along the first letter: the
    terms X_j P_j contribute subs[j] * P_j(subs), and since subs[j]
    starts in degree 1, P_j is needed through degree top - 1 only.  At
    top 1 each P_j is a constant c_j, so degree 1 is the sum of
    c_j subs[j][1], read without recursing.
    """
    out = [dict() for _ in range(top + 1)]
    if degrees[0]:
        out[0][0] = degrees[0][0]
    if top == 1:
        target = out[1]
        for j, c in degrees[1].items():
            for key, v in subs[j][1].items():
                target[key] = target.get(key, 0) + c * v
        return [_nonzero(d) for d in out]
    tails = {}
    for d in range(1, min(top, len(degrees) - 1) + 1):
        shift = base ** (d - 1)
        for key, c in degrees[d].items():
            j, rest = divmod(key, shift)
            tail = tails.get(j)
            if tail is None:
                tail = tails[j] = [dict() for _ in range(top)]
            tail[d - 1][rest] = c
    for j, tail in tails.items():
        value = _substitute(tail, subs, top - 1, base, limit)
        _mul_into(out, subs[j], value, base, limit)
    return [_nonzero(d) for d in out]


class TruncatedAction:
    """The action of a free-group automorphism f on Z<<X>> / (deg > cap).

    Holds the 2g series M(f(x_i)) - 1 as degree-indexed lists of dicts
    of packed keys, through degree cap, none with a constant term.  Two
    automorphisms act alike on the free group modulo its (k+1)-st lower
    central term iff their series agree through degree k (Magnus), so
    this is all of f that filtration depths up to the cap can see.
    Actions compose by substitution, at a cost set by their numbers of
    terms rather than by the lengths of the words they come from.
    """

    __slots__ = ("genus", "cap", "series")

    def __init__(self, genus, cap, series):
        self.genus = genus
        self.cap = cap
        self.series = tuple(series)

    @classmethod
    def of(cls, f, cap):
        """The action of a FreeAutomorphism, from its image expansions.

        Each image is expanded at caps start, start + 1, ..., cap, and
        each new top degree is checked against MAX_SERIES_TERMS.  A
        degree-d part holds at most (2g)^d terms, so no degree up to the
        largest `start` with (2g)^start within the budget can pass it;
        at g <= 3 and cap <= 6 that is one expansion per image.  Above
        it, expansion cost grows geometrically with the cap, so this
        costs a bounded multiple of the last expansion, and an image far
        past the budget stops at the first degree that passes it instead
        of at the cap.
        """
        if cap < 1:
            raise ValueError("cap must be >= 1")
        limit, base = MAX_SERIES_TERMS, 2 * f.genus
        start = max((c for c in range(1, cap + 1) if base**c <= limit), default=1)
        series = []
        for w in f.images:
            for c in range(start, cap + 1):
                degrees = magnus_expand(w, c).degrees
                if len(degrees[c]) > limit:
                    raise _term_limit(limit, "expansion")
            del degrees[0][0]
            series.append(degrees)
        return cls(f.genus, cap, series)

    def compose(self, other):
        """self after other: each series of other at X_j = series j of self.

        M(f(g(x_i))) is M(g(x_i)) with every X_j replaced by
        M(f(x_j)) - 1, because the expansion is a ring homomorphism.
        """
        if other.genus != self.genus:
            raise GenusMismatch("actions of different genus")
        if other.cap != self.cap:
            raise ValueError(f"cap mismatch: {self.cap} vs {other.cap}")
        base, limit = 2 * self.genus, MAX_SERIES_TERMS
        return TruncatedAction(
            self.genus,
            self.cap,
            (
                _substitute(s, self.series, self.cap, base, limit)
                for s in other.series
            ),
        )

    def __eq__(self, other):
        if not isinstance(other, TruncatedAction):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.cap == other.cap
            and self.series == other.series
        )


class Derivation(namedtuple("Derivation", "genus degree values")):
    """The leading term of a class in M(k), as a derivation of Z<X>.

    For f in M(k), M(f(x_i)) = 1 + X_i + D(X_i) + (degree > k + 1), and
    since the expansion is a ring homomorphism, the part of its action
    that raises degrees by exactly k is a derivation D_f: it is held by
    its 2g values D_f(X_i), degree-(k+1) dicts of packed keys.  For f in
    M(k) and g in M(l), the degree-(k+l+1) part of [f, g] = f g f^-1 g^-1
    is [D_f, D_g] = D_f D_g - D_g D_f, and D_f = 0 iff f lies in M(k+1)
    (Morita, Duke Math. J. 70, 1993).  So a chain of brackets reads exact
    filtration levels from leading terms alone, whose terms are a small
    share of those of the actions through the same degree.  The terms
    the package starts from are those of separating twists, each a
    closed form in the homology matrix of its conjugator (separating).
    """

    __slots__ = ()

    def __new__(cls, genus, degree, values):
        return tuple.__new__(cls, (genus, degree, tuple(values)))

    @classmethod
    def separating(cls, genus, j, matrix):
        """D_{h(c)}, the leading term of the twist along h(c) for
        c = SepJ, from H = matrix, the homology matrix of h.

        SepJ sends x_i to c x_i c^-1 for i <= 2J and fixes the other
        generators, and M(c) = 1 + ω + (degree > 2) with
        ω = sum_{k <= J} [X_{2k-1}, X_{2k}], so D_c(X_i) = ωX_i - X_iω
        for i <= 2J and 0 otherwise.  Conjugating a class by h moves its
        leading term to L_H ∘ D ∘ L_H^-1, with L_H the ring automorphism
        X_k -> sum_l H[l][k] X_l (Johnson, Math. Ann. 249, 1980; Morita,
        Duke Math. J. 70, 1993).  So D_{h(c)}(X_i) = W q_i - q_i W, with
        W = L_H(ω), read from columns 2k - 1 and 2k of H, and
        q_i = sum_{m <= 2J} H^-1[m][i] L_H(X_m), a linear form: the whole
        term is read from H, and nothing is expanded.  H preserves the
        intersection form <e_{2i-1}, e_{2i}> = 1, as the homology matrix
        of every class does, so H^-1 = -Ω H^T Ω: entry (m, i) of H^-1
        is s_i s_m H[i^1][m^1], with s_k = (-1)^k for 0-based k.
        """
        base = 2 * genus
        w = {}
        for k in range(0, 2 * j, 2):
            u = [row[k] for row in matrix]
            v = [row[k + 1] for row in matrix]
            for a in range(base):
                for b in range(base):
                    c = u[a] * v[b] - v[a] * u[b]
                    if c:
                        w[a * base + b] = w.get(a * base + b, 0) + c
        w = _nonzero(w)
        high, values = base**2, []
        for i in range(base):
            # H^-1[m][i], read from H
            inverse = [(-1) ** (i + m) * matrix[i ^ 1][m ^ 1] for m in range(2 * j)]
            q = [sum(h * r for h, r in zip(row, inverse)) for row in matrix]
            out = {}
            for key, c in w.items():
                for x, r in enumerate(q):
                    if r:
                        right, left = key * base + x, x * high + key
                        out[right] = out.get(right, 0) + c * r
                        out[left] = out.get(left, 0) - c * r
            values.append(_nonzero(out))
        return cls(genus, 2, values)

    def __bool__(self):
        return any(self.values)

    def _apply_into(self, out, poly, n, sign):
        """Add sign * D(poly) to `out`, for poly homogeneous of degree n.

        D replaces each letter of a monomial in turn by its value.  With
        p letters after the replaced one, the value is shifted p digits
        left, so the shifted values are built once per (p, letter).
        Zero coefficients are left in place.
        """
        base, e = 2 * self.genus, self.degree + 1
        shifted = [
            [[(kv * base**p, cv) for kv, cv in v.items()] for v in self.values]
            for p in range(n)
        ]
        highs = [base ** (e + p) for p in range(n)]
        for key, c in poly.items():
            c *= sign
            head, tail, low = key, 0, 1
            for p in range(n):
                head, j = divmod(head, base)
                terms = shifted[p][j]
                if terms:
                    hk = head * highs[p] + tail
                    for kv, cv in terms:
                        nk = hk + kv
                        out[nk] = out.get(nk, 0) + c * cv
                tail += j * low
                low *= base

    def bracket(self, other):
        """[self, other] = self other - other self, of degree k + l.

        A value holding more than MAX_SERIES_TERMS nonzero terms raises
        SeriesTermLimit.  The two products share most of their terms and
        cancel, so the limit is checked on each finished value, not on
        the terms touched; a value costs at most its inputs' terms times
        their degree and their values' terms, so it is finite either way.
        """
        if other.genus != self.genus:
            raise GenusMismatch("derivations of different genus")
        limit, values = MAX_SERIES_TERMS, []
        for u, v in zip(self.values, other.values):
            out = {}
            self._apply_into(out, v, other.degree + 1, 1)
            other._apply_into(out, u, self.degree + 1, -1)
            out = _nonzero(out)
            if len(out) > limit:
                raise _term_limit(limit, "bracket")
            values.append(out)
        return Derivation(self.genus, self.degree + other.degree, values)
