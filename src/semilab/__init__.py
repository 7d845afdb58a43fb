"""semilab: a numerical laboratory for maximal regularity and analytic
semigroups on finite-dimensional operators."""

from . import errors
from .cauchy import CauchySolver, MaxRegEstimate, estimate_M
from .contour import Contour, ContourResult, build_contour, semigroup_apply_contour
from .forcing import (
    ExpForcing,
    Forcing,
    PolyForcing,
    ZeroForcing,
    default_probes,
    load_probes,
    parse_probe_line,
)
from .operators import (
    OperatorPair,
    diagonal_operator,
    jordan_block,
    laplacian_1d,
    load_operator,
    parse_operator_text,
    random_normal_operator,
)
from .theorem import (
    HalfPlaneScan,
    RPlusVerdict,
    SurjectivityData,
    assemble_U_V,
    assemble_U_V_batch,
    halfplane_scan,
    maxreg_inequality_check,
    omega1,
    omega1_weighted,
    omega2_search,
    resolvent_from_solver,
    rplus_verdict,
    surjectivity_identity_check,
    vnorm_decay,
)
from .timegrid import GridFunction, TimeGrid, e0_norm_J, e1_norm_J
from .weighted import (
    theta_sweep,
    trace_norm_upper,
    weighted_maxreg_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
