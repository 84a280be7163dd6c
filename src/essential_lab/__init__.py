"""Average number of real solutions of the five-point relative-pose problem.

Library and CLI for counting real intersections of the essential variety
with random linear spaces, the determinant-ensemble estimator of the
correspondence average, numerical verification of the underlying
differential-geometric constants, and the convex-body lower bound.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateInput,
    DegeneratePencil,
    DomainError,
    EssentialLabError,
    RankDeficient,
)
from .geometry import (
    E0,
    EssentialMatrix,
    cross_matrix,
    demazure_residuals,
    half_trace_inner,
    tangent_basis_E0,
)
from .solver import (
    CountResult,
    LinearSpace,
    solve_five_point,
)

__all__ = [
    "__version__",
    "DegenerateInput", "DegeneratePencil",
    "DomainError", "EssentialLabError", "RankDeficient",
    "E0", "EssentialMatrix",
    "cross_matrix", "demazure_residuals", "half_trace_inner", "tangent_basis_E0",
    "CountResult", "LinearSpace", "solve_five_point",
]
