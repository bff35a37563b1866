"""tsums: exact computation and verification of sums of multiple t-values.

t(s_1,...,s_d) is the nested series over odd denominators
sum_{n_1 > ... > n_d >= 1} prod 1/(2n_i - 1)**s_i, and T(2n,d) is the sum
of all such values with even arguments, weight 2n, and depth d.  The
library computes T(2n,d) exactly (as rational multiples of pi**(2n)) by
several routes, verifies the identities connecting them, and
cross-checks everything against a brute-force evaluation of the defining
series.

Every layer loads with the package.  The oracle imports mpmath inside the
functions that compute with it, so ``import tsums`` and the exact
computations, the symmetric-function checks included, never import mpmath.
"""

# Each layer module declares its public names once, in its __all__.
from . import exact, formulas, oracle, series, symfunc
from .exact import *
from .series import *
from .formulas import *
from .symfunc import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [*exact.__all__, *series.__all__, *formulas.__all__, *symfunc.__all__,
           *oracle.__all__, "__version__"]
