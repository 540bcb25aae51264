"""Slow exact constructions that tests compare the package against."""

from twistlab.curve import homology_action
from twistlab.errors import PreconditionError
from twistlab.jfilt import JFDepth, action_depth
from twistlab.magnus import TruncatedAction


def commutator_auto(f, g):
    """[f, g] = f g f^-1 g^-1 as a mapping class."""
    return f.compose(g).compose(f.inverse()).compose(g.inverse())


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def two_class_depth(f, g, cap):
    """Filtration depth of g^-1 f, read from the actions of f and g.

    g^-1 f lies in M(k) iff f and g agree on the free group mod its
    (k+1)-st term, i.e. iff the expansions of f(x_i) and g(x_i) agree
    through degree k.  Degree 1 of an expansion is the word's exponent
    sum, so the homology actions decide degree 1 at every cap with
    nothing expanded; above it the truncated actions of f and g at the
    cap are compared by action_depth.  Raises SeriesTermLimit when a
    series passes MAX_SERIES_TERMS.
    """
    if cap < 1:
        raise PreconditionError("cap must be >= 1")
    if f == g:
        return JFDepth("identity")
    if homology_action(f) != homology_action(g):
        return JFDepth("not_in_m1")
    if cap == 1:
        return JFDepth("at_least", 1)
    return action_depth(TruncatedAction.of(f, cap), TruncatedAction.of(g, cap))
