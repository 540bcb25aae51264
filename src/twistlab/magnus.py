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

from itertools import groupby

from .errors import GenusMismatch


class TruncatedSeries:
    """Integer power series truncated above a fixed degree cap."""

    __slots__ = ("genus", "cap", "degrees")

    def __init__(self, genus, cap, degrees=None):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.genus = genus
        self.cap = cap
        if degrees is None:
            degrees = [dict() for _ in range(cap + 1)]
        self.degrees = degrees

    @classmethod
    def one(cls, genus, cap):
        s = cls(genus, cap)
        s.degrees[0][0] = 1
        return s

    def _check_compat(self, other):
        if self.genus != other.genus:
            raise GenusMismatch("series of different genus")
        if self.cap != other.cap:
            raise ValueError(
                f"cap mismatch: {self.cap} vs {other.cap}"
            )

    def constant_term(self):
        return self.degrees[0].get(0, 0)

    def is_one(self):
        if self.constant_term() != 1:
            return False
        return all(not d for d in self.degrees[1:])

    def lowest_nonzero_degree(self):
        """Smallest d >= 1 with a nonzero degree-d term, else None."""
        for d in range(1, self.cap + 1):
            if self.degrees[d]:
                return d
        return None

    def homogeneous_part(self, d):
        """Degree-d terms as {unpacked monomial tuple: coefficient}."""
        return {self._unpack(key, d): c for key, c in self.degrees[d].items()}

    def _unpack(self, key, d):
        base = 2 * self.genus
        digits = []
        for _ in range(d):
            digits.append(key % base + 1)
            key //= base
        return tuple(reversed(digits))

    def mul(self, other):
        """Truncated product of two series with equal caps."""
        self._check_compat(other)
        out = TruncatedSeries(self.genus, self.cap)
        base = 2 * self.genus
        for da, terms_a in enumerate(self.degrees):
            if not terms_a:
                continue
            for db in range(0, self.cap - da + 1):
                terms_b = other.degrees[db]
                if not terms_b:
                    continue
                shift = base**db
                target = out.degrees[da + db]
                for ka, ca in terms_a.items():
                    kbase = ka * shift
                    for kb, cb in terms_b.items():
                        key = kbase + kb
                        c = target.get(key, 0) + ca * cb
                        if c:
                            target[key] = c
                        elif key in target:
                            del target[key]
        return out

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.cap == other.cap
            and self.degrees == other.degrees
        )

    def __str__(self):
        parts = []
        for d, terms in enumerate(self.degrees):
            for key in sorted(terms):
                c = terms[key]
                mono = "".join(f"X{i}" for i in self._unpack(key, d))
                if d == 0:
                    parts.append((("+ " if c > 0 else "- "), f"{abs(c)}"))
                else:
                    parts.append(
                        (("+ " if c > 0 else "- "), f"{abs(c)}·{mono}")
                    )
        if not parts:
            body = "0"
        else:
            sign, first = parts[0]
            body = ("-" if sign == "- " else "") + first
            for sign, chunk in parts[1:]:
                body += f" {sign.strip()} {chunk}"
        return f"{body} + O(deg {self.cap + 1})"


def magnus_expand(w, cap):
    """Expand a word at the given degree cap.

    Multiplicative: magnus_expand(u*v) == magnus_expand(u).mul(...(v)).
    Runs of a single generator are folded into one sparse product with
    binomial coefficients, so cost scales with the run count.

    Each run right-multiplies the series by (1 + X_i)^m in place, from
    the top degree down: degree d gains terms from degrees below d only,
    and those are still unchanged when d is updated.  The constant term
    is never touched, and the top degree is only ever a target.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    base = 2 * w.genus
    out = TruncatedSeries.one(w.genus, cap)
    degrees = out.degrees
    shifts = [base**j for j in range(cap + 1)]
    # a Word is freely reduced, so a run repeats one signed letter
    for ell, run in groupby(w.letters):
        i, m = abs(ell), len(list(run))
        if ell < 0:
            m = -m
        # C(m, j) X_i^j for j >= 1, with the packed digits of X_i^j;
        # C(m, j) is stepped from C(m, j - 1) and, for m > 0, is zero
        # from j = m + 1 on
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
