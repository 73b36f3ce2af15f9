"""Space-time discontinuous Galerkin solver for the Allen-Cahn equation.

dG(k) time stepping on a partition of (0, T] combined with conforming
Lagrange elements of degree l on structured interval or unit-square meshes,
plus the companion solvers (backward dual, auxiliary psi problem, parabolic
and slab-local projections) and diagnostics (exact discrete identities,
spectrum traces, convergence and stability studies) used to verify it.
"""

from .mesh import Mesh, build_interval_mesh, build_square_mesh
from .space import FeSpace, build_space
from .assembly import SpaceOperators
from .linalg import (
    LinearSolveConfig,
    LinearSolveError,
    EigenResult,
    factorize,
    smallest_generalized_eigenvalue,
)
from .timebase import TimePartition, TimeBasis, make_time_basis
from .characteristic import (
    CharacteristicPoly,
    discrete_characteristic,
    characteristic_transfer_matrix,
    sup_norm_scan,
)
from .problems import (
    ManufacturedSolution,
    InitialProfile,
    ProblemSpec,
    MANUFACTURED,
    PROFILES,
    make_problem,
)
from .forward import (
    NewtonConfig,
    NewtonError,
    SlabSolution,
    DgSolution,
    l2_project,
    solve_slab,
    solve_forward,
    save_checkpoint,
    load_checkpoint,
)
from .companions import (
    IdentityReport,
    solve_backward_dual,
    duality_identity_report,
    dual_stability_report,
    solve_backward_psi,
    psi_chain_report,
    solve_parabolic_projection,
    local_projection,
)
from .diagnostics import (
    NormReport,
    SpectrumTrace,
    RatioReport,
    UnsupportedConfigurationError,
    compute_norms,
    energy_trace,
    stability_identity_report,
    spectrum_along_solution,
    best_approximation_ratio,
)
from .config import (
    RunConfig,
    ConfigError,
    load_config,
    parse_config,
    config_hash,
    instantiate,
)

__all__ = [
    "Mesh", "build_interval_mesh", "build_square_mesh", "FeSpace",
    "build_space", "SpaceOperators", "LinearSolveConfig", "LinearSolveError",
    "EigenResult", "factorize", "smallest_generalized_eigenvalue",
    "TimePartition", "TimeBasis", "make_time_basis", "CharacteristicPoly",
    "discrete_characteristic", "characteristic_transfer_matrix",
    "sup_norm_scan", "ManufacturedSolution",
    "InitialProfile", "ProblemSpec", "MANUFACTURED", "PROFILES",
    "make_problem", "NewtonConfig", "NewtonError", "SlabSolution",
    "DgSolution", "l2_project", "solve_slab", "solve_forward",
    "save_checkpoint", "load_checkpoint", "IdentityReport",
    "solve_backward_dual", "duality_identity_report", "dual_stability_report",
    "solve_backward_psi", "psi_chain_report", "solve_parabolic_projection",
    "local_projection", "NormReport", "SpectrumTrace", "RatioReport",
    "UnsupportedConfigurationError", "compute_norms", "energy_trace",
    "stability_identity_report", "spectrum_along_solution",
    "best_approximation_ratio", "RunConfig", "ConfigError", "load_config",
    "parse_config", "config_hash", "instantiate",
]
__version__ = "0.1.0"
