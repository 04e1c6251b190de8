"""Row-action solvers for overdetermined linear systems.

Greedy max-residual selection (Motzkin's rule), randomized Kaczmarz, and a
one-way hybrid of the two, together with system generators, convergence
bound curves, and MPS benchmark ingestion.
"""

from .bounds import (
    BoundCurve,
    BoundInputs,
    bound_inputs_from_system,
    final_error_bounds,
    gamma_expectation_bound,
    gaussian_rate_bound,
    motzkin_bound_empirical_gamma,
    motzkin_bound_worst_case,
    rk_bound,
    sigma_min_gaussian_estimate,
)
from .linalg import (
    RankError,
    frobenius_norm_sq,
    least_norm,
    least_squares,
    matvec,
    min_singular_value,
    norm_inf,
)
from .mps import MpsParseError, MpsProblem, TransformSpec, extract_system, load_mps, overdetermine, parse_mps
from .solvers import (
    IterationRecord,
    RunResult,
    SelectionRule,
    SolverState,
    StopRule,
    TimingSummary,
    project_step,
    run,
    run_trials,
    select_motzkin,
    time_to_threshold,
)
from .systems import (
    DegenerateRowError,
    GeneratorSpec,
    LinearSystem,
    generate,
    load_system,
    normalize_rows,
    save_system,
)

__version__ = "0.1.0"
