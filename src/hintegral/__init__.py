"""Exact arithmetic for dimension/measure value pairs, h-measure
spaces, the generalized integral of pair-valued functions, and the
deficiency functionals built on it."""

from .errors import (
    HIntegralError,
    NonDisjointError,
    ParseError,
    UndefinedSumError,
    UnknownSetError,
    UnsupportedExpressionError,
    UnsupportedScenarioError,
)
from .hvalue import (
    INF,
    NEG_INF,
    ZERO,
    ExtRat,
    HValue,
    SeqDescriptor,
    add,
    mul,
    scalar_mul,
    sum_described,
    sum_finite,
)
from .space import (
    AtomSet,
    AtomSpace,
    IntervalSet,
    IntervalSpace,
    scaled_embedding,
)
from .integral import (
    PiecewiseFn,
    SimpleFn,
    T4Certificate,
    integrate,
    integrate_simple,
    pointwise_add_fn,
    restrict,
    sublevel_set,
    verify_certificate,
)
from .deficiency import (
    ClusterScenario,
    ConvexityScenario,
    LinenessScenario,
    defi_continuity,
    defi_convexity,
    defi_lineness,
)

__version__ = "0.1.0"
