"""Two-level abstract Schwarz preconditioners with spectral coarse spaces.

Modules: :mod:`geneo.linalg` (factorizations and eigensolvers),
:mod:`geneo.elasticity` (the 2D P1 testbed), :mod:`geneo.partitioning`,
:mod:`geneo.schwarz` (preconditioners), :mod:`geneo.coarse` (coarse-space
construction), :mod:`geneo.krylov` (PCG/PPCG), :mod:`geneo.oracle`
(brute-force spectral verification), and :mod:`geneo.cli`.
"""

from . import errors
from .coarse import GenEOConfig, build_Ms, build_coarse_space
from .elasticity import assemble, assemble_local_neumann, build_mesh, young_field
from .krylov import KrylovConfig, SolveReport, pcg, ppcg, ritz_bounds
from .linalg import (
    GenEigResult,
    PivotedFactor,
    gen_eig,
    incomplete_cholesky0,
    orthonormalize_columns,
    pivoted_cholesky,
    split_threshold,
)
from .partitioning import (
    PartitionSpec,
    RestrictionMap,
    build_restrictions,
    partition_elements,
    pou_matrices,
)
from .schwarz import (
    CoarseSpace,
    LocalSolverSet,
    PreconditionedOperator,
    build_local_solvers,
    coloring_constant,
)

__version__ = "0.1.0"
