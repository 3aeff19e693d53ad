"""Numerical solvers for mean-field backward stochastic differential
equations driven by Brownian motion and compensated Poisson jumps.

Two independent solution routes cross-validate each other: a
least-squares Monte Carlo Picard solver for general mean-coupled
drivers, and a closed-form pipeline for linear equations built from the
exponential propagator and a Volterra system for the means.  On top of
those sit an ordering (comparison) harness and a recursive-utility
consumption optimiser.
"""

__version__ = "0.1.0"

from .comparison import (
    ComparisonReport,
    ComparisonScenario,
    HypothesisReport,
    run_comparison,
    verify_hypotheses,
)
from .core import (
    DriverForm,
    DriverSpec,
    LinearCoefficients,
    MeanForm,
    MeanFunctional,
    SolutionGrid,
    TerminalCondition,
    affine_driver,
    brownian_linear,
    constant,
    default_beta,
    derivative_terms,
    jump_linear,
    malliavin_b,
    malliavin_n,
    mean_functional_eval,
    mean_y,
    mean_y_squared,
    mean_yzk,
    mean_yzk_avg,
    poly_of_jump_linear,
    smooth_of_brownian,
    terminal_value,
    wealth_linear,
)
from .errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    MfbsdeError,
    NumericalError,
)
from .levy_paths import (
    LevyMeasure,
    PathEnsemble,
    TimeGrid,
    build_grid,
    girsanov_density,
    shift_to_q,
    simulate_ensemble,
)
from .linear import (
    GammaEnsemble,
    MeanVector,
    QSpecialResult,
    VolterraSystem,
    assemble_system,
    direct_solve,
    mean_gamma,
    neumann_solve,
    operator_norm_estimate,
    q_special_solve,
    simulate_gamma,
    solve_linear_y0,
    y_closed_formula,
)
from .picard import (
    PicardReport,
    RegressionBasis,
    contraction_check,
    picard_full_freeze,
    picard_mean_freeze,
)
from .utility import (
    AdjointState,
    ControlProcess,
    UtilityCoefficients,
    WealthParams,
    adjoint_lambda,
    adjoint_p,
    dh_dpi,
    evaluate_j,
    hamiltonian,
    optimal_pi,
    picard_utility_y0,
    simulate_wealth,
    solve_adjoints,
)
