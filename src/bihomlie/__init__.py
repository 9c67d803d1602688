"""Exact-arithmetic workbench for BiHom-Lie, Nijenhuis BiHom-Lie and
differential Lie structures: identity checkers, constructions, equivalence
harnesses and structure-finding solvers over exact rationals."""

from .exact import Matrix, Tensor3, Scalar, scalar
from .bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CoalgebraBundle,
    FormBundle,
    MatchedPairBundle,
    Report,
    RepresentationBundle,
    abelian,
    aff2,
    bihom2,
    load,
    dumps,
    sl2,
)

__all__ = [
    "AlgebraBundle",
    "BialgebraBundle",
    "CoalgebraBundle",
    "FormBundle",
    "MatchedPairBundle",
    "Matrix",
    "Report",
    "RepresentationBundle",
    "Scalar",
    "Tensor3",
    "abelian",
    "aff2",
    "bihom2",
    "dumps",
    "load",
    "scalar",
    "sl2",
]
