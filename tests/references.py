"""Slow exact constructions that tests compare the package against."""


def commutator_auto(f, g):
    """[f, g] = f g f^-1 g^-1 as a mapping class."""
    return f.compose(g).compose(f.inverse()).compose(g.inverse())
