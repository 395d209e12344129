"""Upper confidence bounds for default probability in low-default portfolios.

The package covers two estimation models: independent obligors (the bound
reduces to a beta quantile) and a one-factor Gaussian model where all
obligors share an asset correlation. Both report the largest default
probability still compatible, at a chosen confidence level, with observing
at most k defaults among n obligors.
"""

# each module's __all__ is the one list of its public names
from . import binomial, conservatism, mc, mixture, specfun, tables
from .binomial import *  # noqa: F401,F403
from .conservatism import *  # noqa: F401,F403
from .errors import DegenerateModelError, DomainError, NumericError
from .mc import *  # noqa: F401,F403
from .mixture import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .tables import *  # noqa: F401,F403

# The former settings type's name, kept outside __all__ for its one reader,
# bench/record.py, which builds one with node_count=4096.
NumericConfig = QuadratureSpec  # noqa: F405

__version__ = "0.1.0"

__all__ = ["__version__", "DomainError", "NumericError", "DegenerateModelError"] + [
    name
    for module in (specfun, binomial, mixture, conservatism, mc, tables)
    for name in module.__all__
]
