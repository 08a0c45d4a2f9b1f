"""Free noncommutative functional calculus over matrix tuples.

Polynomials in noncommuting letters, sublevel domains cut out by polynomial
matrices, transfer-function models (colligations) with linear-fractional
evaluation and homogeneous series, a certified sharp evaluation at operator
points, and randomized spectral-set experiments on top.

Each module's ``__all__`` declares its share of the public surface; this
package re-exports those names and its ``__all__`` is their concatenation.
"""

from . import errors, freepoly, funcalc, matrix_core, realization, spectral
from .errors import *  # noqa: F403
from .freepoly import *  # noqa: F403
from .funcalc import *  # noqa: F403
from .matrix_core import *  # noqa: F403
from .realization import *  # noqa: F403
from .spectral import *  # noqa: F403
from .version import VERSION as __version__

__all__ = [
    *errors.__all__,
    *freepoly.__all__,
    *funcalc.__all__,
    *matrix_core.__all__,
    *realization.__all__,
    *spectral.__all__,
    "__version__",
]
