"""Partially regularized least squares interpolation for wide designs.

The package splits a wide design ``X = [W | T]`` and studies the
interpolating fit whose W-block coefficients have minimum l2 norm while the
T-block stays unpenalized: closed-form coefficients and their algebraic
cross-checks, long/short/auxiliary omitted-variable identities, exact
leave-one-out refits and residuals, four homoskedastic noise-variance
estimators with exact bias formulas, and a deterministic simulation harness
for finite-sample bias studies of those estimators.
"""

from . import cochran, dgp, exceptions, interpolators, linalg, loo, simharness, variance
from .cochran import *
from .dgp import *
from .exceptions import *
from .interpolators import *
from .linalg import *
from .loo import *
from .simharness import *
from .variance import *

__version__ = "0.1.0"

__all__ = [
    *cochran.__all__,
    *dgp.__all__,
    *exceptions.__all__,
    *interpolators.__all__,
    *linalg.__all__,
    *loo.__all__,
    *simharness.__all__,
    *variance.__all__,
]
