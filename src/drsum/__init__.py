"""Distributionally robust finite-sum optimization via composite variance reduction."""

from .composite import (
    CompositeProblem,
    JacobianReport,
    OracleCounter,
    check_jacobians,
    evaluate_psi,
    full_phi_gradient,
    gradient_mapping,
    per_index,
)
from .constraints import (
    ConstraintSet,
    ProjectionError,
    max_violation,
    project_feasible,
)
from .proxlib import (
    AffineTerm,
    BoxTerm,
    ConstantTerm,
    CustomTerm,
    L1Term,
    NoClosedFormProxError,
    SimpleTerm,
    SquaredNormTerm,
    ZeroTerm,
    prox_step,
)
from .reductions import (
    Chi2Config,
    DivergenceError,
    KlConfig,
    NumericalRangeError,
    OuterDomainError,
    WassersteinConfig,
    WorstCaseWeights,
    brute_force_penalized_max,
    build_chi2,
    build_dr_logistic,
    build_kl,
    build_mean,
    build_wasserstein,
    chi2_worst_case_weights,
    convexify_constraints,
    kl_worst_case_weights,
    restart_gamma,
    wasserstein_penalty,
    wasserstein_stages,
)
from .solver import (
    SolverConfig,
    Schedule,
    SolverReport,
    TrajectoryRecord,
    expected_oracle_calls,
    run_epoch,
    solve_restarted,
)
from .distributed import (
    DistConfig,
    dist_expected_oracle_calls,
    dist_run_epoch,
    dist_solve,
    split_batch,
)
from .problems import (
    FairnessSpec,
    MeanLossObjective,
    TabularDataset,
    build_fairness_constraints,
    error_rate,
    group_true_positive_rates,
    ingest_csv,
    make_losses,
    make_synthetic,
    make_xor_dataset,
    max_fairness_violation,
    surrogate_tpr,
)
from .diagnostics import (
    ConstantEstimates,
    RateFit,
    baseline_solve,
    estimate_constants,
    fit_rate,
)

__version__ = "0.1.0"
