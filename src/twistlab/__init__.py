"""twistlab: exact intersection detectors for curves on a one-boundary surface.

Everything is computed exactly over the integers: free group words,
twist automorphisms, truncated Magnus expansions, filtration depths,
and Fox-calculus matrices.  All public values are immutable and safe
for concurrent use.
"""

__version__ = "0.1.0"

from .word import Word, boundary_word, commutator
from .magnus import TruncatedSeries, magnus_expand
from .mcg import (
    FreeAutomorphism,
    builtin_table,
    evaluate,
    homology_action,
    validate_relations,
    parse_mcw,
)
from .curve import (
    CurveSpec,
    CurveData,
    parse_curve_spec,
    resolve,
    curves_equal,
    distinguishing_witness,
    fact5_instance,
    is_central,
)
from .jfilt import (
    JFDepth,
    PairReport,
    in_Mk,
    johnson_depth,
    commutator_depth,
    classify_pair,
    johnson_leading_term,
    morita_check,
)
from .foxrep import LaurentPoly, fox_derivative, magnus_rep, suzuki_scan
