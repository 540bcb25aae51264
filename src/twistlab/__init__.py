"""twistlab: exact intersection detectors for curves on a one-boundary surface.

Everything is computed exactly over the integers: free group words,
twist automorphisms, truncated Magnus expansions, filtration depths,
and Fox-calculus matrices.  All public values are immutable and safe
for concurrent use.
"""

__version__ = "0.1.0"

from .word import Word, boundary_word
from .magnus import magnus_expand
from .mcg import (
    FreeAutomorphism,
    builtin_table,
    evaluate,
    homology_action,
    validate_relations,
)
from .curve import CurveSpec, CurveData, parse_curve_spec, resolve
from .jfilt import JFDepth, PairReport, classify_pair
from .foxrep import LaurentPoly, magnus_rep, suzuki_scan
