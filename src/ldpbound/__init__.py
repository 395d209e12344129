"""Upper confidence bounds for default probability in low-default portfolios.

The package covers two estimation models: independent obligors (the bound
reduces to a beta quantile) and a one-factor Gaussian model where all
obligors share an asset correlation. Both report the largest default
probability still compatible, at a chosen confidence level, with observing
at most k defaults among n obligors.
"""

from .binomial import (
    BoundQuery,
    BoundResult,
    binomial_cdf,
    pd_upper_bound_independent,
    pd_upper_bound_zero_defaults,
)
from .conservatism import (
    Grade,
    GradeBound,
    GradeBoundReport,
    Portfolio,
    allocate,
    estimate_grades,
    remediate_reversal,
)
from .errors import DegenerateModelError, DomainError, NumericError
from .mc import (
    McConfig,
    McEstimate,
    PROP3_FORMS,
    simulate_copula_diagonal,
    simulate_default_count_tail,
    simulate_prop3_form,
)
from .mixture import (
    DEFAULT_QUADRATURE,
    FactorModelParams,
    MixtureShape,
    QuadratureSpec,
    conditional_pd,
    copula_diagonal,
    equicorr_density,
    f_cdf,
    f_cdf_unit_interval,
    f_quantile,
    mixture_mgf,
    mixture_pmf,
    mixture_tail_prob,
    pd_upper_bound_correlated,
    tilde_f_cdf,
    vasicek_cdf,
)
from .specfun import (
    beta_cdf,
    beta_quantile,
    log_beta,
    log_gamma,
    std_normal_cdf,
    std_normal_quantile,
)
from .tables import (
    BENCHMARK_RHO,
    EXAMPLE_PORTFOLIO_ONE,
    EXAMPLE_PORTFOLIO_TWO,
    GAMMAS,
    TABLE_IDS,
    TableSpec,
    compute_table,
    max_abs_deviation,
    table_spec,
)

# The former settings type's name, kept outside __all__ for its one reader,
# bench/record.py, which builds one with node_count=4096.
NumericConfig = QuadratureSpec

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DomainError",
    "NumericError",
    "DegenerateModelError",
    # special functions
    "std_normal_cdf",
    "std_normal_quantile",
    "log_gamma",
    "log_beta",
    "beta_cdf",
    "beta_quantile",
    # independent model
    "BoundQuery",
    "BoundResult",
    "binomial_cdf",
    "pd_upper_bound_independent",
    "pd_upper_bound_zero_defaults",
    # correlated model
    "FactorModelParams",
    "MixtureShape",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "conditional_pd",
    "vasicek_cdf",
    "mixture_tail_prob",
    "mixture_pmf",
    "mixture_mgf",
    "copula_diagonal",
    "equicorr_density",
    "f_cdf",
    "f_cdf_unit_interval",
    "f_quantile",
    "tilde_f_cdf",
    "pd_upper_bound_correlated",
    # portfolio estimation
    "Grade",
    "Portfolio",
    "GradeBound",
    "GradeBoundReport",
    "allocate",
    "estimate_grades",
    "remediate_reversal",
    # simulation
    "McConfig",
    "McEstimate",
    "PROP3_FORMS",
    "simulate_default_count_tail",
    "simulate_copula_diagonal",
    "simulate_prop3_form",
    # benchmark tables
    "GAMMAS",
    "BENCHMARK_RHO",
    "TABLE_IDS",
    "TableSpec",
    "EXAMPLE_PORTFOLIO_ONE",
    "EXAMPLE_PORTFOLIO_TWO",
    "table_spec",
    "compute_table",
    "max_abs_deviation",
]
