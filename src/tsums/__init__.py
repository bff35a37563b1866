"""tsums: exact computation and verification of sums of multiple t-values.

t(s_1,...,s_d) is the nested series over odd denominators
sum_{n_1 > ... > n_d >= 1} prod 1/(2n_i - 1)**s_i, and T(2n,d) is the sum
of all such values with even arguments, weight 2n, and depth d.  The
library computes T(2n,d) exactly (as rational multiples of pi**(2n)) by
several independent routes, verifies the identities connecting them, and
cross-checks everything against a brute-force evaluation of the defining
series.

The exact layers (``exact``, ``series``, ``formulas``) load with the
package.  The numeric layers (``symfunc``, ``oracle``), and mpmath with
them, load on first use: the first lookup of a name the package does not
hold yet, ``__all__`` included, imports both and copies their public names
here.  ``import tsums`` and the exact computations never import mpmath.
"""

import importlib

# Each layer module declares its public names once, in its __all__.
from . import exact, formulas, series
from .exact import *
from .series import *
from .formulas import *

__version__ = "0.1.0"

_NUMERIC = ("symfunc", "oracle")


def __getattr__(name):
    """Load the numeric layers on the first miss (PEP 562): copy each name
    of their __all__ as the layer holds it now, complete __all__, and
    remove this hook, so that no later lookup comes here."""
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module rather than ``from . import``, whose check of the
    # package's attributes would come back to this hook.
    layers = [importlib.import_module(f"{__name__}.{layer}") for layer in _NUMERIC]
    names = globals()
    for mod in layers:
        names.update((attr, getattr(mod, attr)) for attr in mod.__all__)
    names["__all__"] = [*exact.__all__, *series.__all__, *formulas.__all__,
                        *(attr for mod in layers for attr in mod.__all__), "__version__"]
    names.pop("__getattr__", None)  # another thread's miss may have run this too
    try:
        return names[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
