"""Online weighted tree augmentation: solvers, oracles, and harness."""

from .decomposition import (RootedPathDecomposition, decompose,
                            default_width_bound, project, width)
from .errors import (BadInputError, InfeasibleInstanceError,
                     InvariantViolationError, OracleSizeError, WtapError)
from .fractional import FractionalPathSolver, band_cap, phase_of
from .instance import (Link, Request, TreeInstance, format_instance,
                       load_instance, parse_instance)
from .oracles import (OracleResult, hat_dual, opt_path_dp, opt_tree_enum,
                      verify_dual_feasible, verify_nice)
from .path_online import PathSolver, ServeRecord
from .pruning import (MinimalPathInstance, PathLink, build_minimal_instance,
                      path_instance_from_tree, replacement, replacement_cover)
from .tree_online import PairReport, TreeSolver

__version__ = "0.1.0"

__all__ = [
    "BadInputError",
    "FractionalPathSolver",
    "InfeasibleInstanceError",
    "InvariantViolationError",
    "Link",
    "MinimalPathInstance",
    "OracleResult",
    "OracleSizeError",
    "PairReport",
    "PathLink",
    "PathSolver",
    "Request",
    "RootedPathDecomposition",
    "ServeRecord",
    "TreeInstance",
    "TreeSolver",
    "WtapError",
    "band_cap",
    "build_minimal_instance",
    "decompose",
    "default_width_bound",
    "format_instance",
    "hat_dual",
    "load_instance",
    "opt_path_dp",
    "opt_tree_enum",
    "parse_instance",
    "path_instance_from_tree",
    "phase_of",
    "project",
    "replacement",
    "replacement_cover",
    "verify_dual_feasible",
    "verify_nice",
    "width",
]
