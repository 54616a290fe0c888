"""Convex operator-splitting toolkit with exact rate certification.

Douglas-Rachford splitting and relaxed ADMM, closed-form proximal
operators, tight linear convergence certificates with optimal step-size and
relaxation selection, diagonal metric (preconditioner) selection, the
extremal instances on which the certified rates are attained exactly, and
benchmark generators reproducing the reference experiments at desk scale.
"""

from .admm import (
    AdmmEngine,
    EqConstrainedProblem,
    admm_solve,
    verify_dual_equivalence,
)
from .bench import (
    LassoSpec,
    MpcSpec,
    SweepResult,
    gen_lasso,
    gen_mpc,
    run_sweep,
)
from .errors import (
    CapabilityError,
    DimensionMismatchError,
    EigenConvergenceError,
    InfeasibleConstraintError,
    NonSymmetricError,
    ProxsplitError,
    RankDeficiencyError,
    SingularKktError,
    UnboundedIterationError,
)
from .linmetric import (
    DiagonalMetric,
    SpectralSummary,
    kkt_p11,
    spectral_summary,
)
from .metric import (
    MetricObjective,
    dual_condition_number,
    gamma_from_metric,
    select_diagonal_metric,
)
from .prox import (
    Box,
    IndicatorAffine,
    IndicatorZero,
    ProxFn,
    PwlPenalty,
    Quadratic,
    QuadraticAffine,
    Separable,
    WeightedL1,
    Zero,
)
from .rates import (
    DualRegularity,
    RateCertificate,
    Regularity,
    certificate,
    competing_rates,
    contraction_factor,
    dual_regularity,
    feasible_alpha_interval,
    iteration_bound,
    optimal_parameters,
    rate_bound,
)
from .splitting import SolveTrace, dr_solve, dr_step
from .worstcase import (
    WorstCaseInstance,
    adversarial_case,
    build,
    exact_rate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
