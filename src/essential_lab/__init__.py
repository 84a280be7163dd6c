"""Average number of real solutions of the five-point relative-pose problem.

Library and CLI for counting real intersections of the essential variety
with random linear spaces, the determinant-ensemble estimator of the
correspondence average, numerical verification of the underlying
differential-geometric constants, and the convex-body lower bound.
"""

__version__ = "0.1.0"

from .errors import (
    AssertionFailure,
    CrossCheckFailed,
    DegenerateInput,
    DegeneratePencil,
    DomainError,
    EigenNoConvergence,
    EliminationFailed,
    EssentialLabError,
    RankDeficient,
)
from .geometry import (
    E0,
    EssentialMatrix,
    Rotation,
    UnitVec3,
    cross_matrix,
    demazure_residuals,
    essential_from_pose,
    half_trace_inner,
    recover_poses,
    tangent_basis_E0,
    twisted_pair,
)
from .solver import (
    CountResult,
    LinearSpace,
    solve_five_point,
)

__all__ = [
    "__version__",
    "AssertionFailure", "CrossCheckFailed", "DegenerateInput", "DegeneratePencil",
    "DomainError", "EigenNoConvergence", "EliminationFailed", "EssentialLabError",
    "RankDeficient",
    "E0", "EssentialMatrix", "Rotation", "UnitVec3",
    "cross_matrix", "demazure_residuals", "essential_from_pose",
    "half_trace_inner", "recover_poses", "tangent_basis_E0", "twisted_pair",
    "CountResult", "LinearSpace", "solve_five_point",
]
