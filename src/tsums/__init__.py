"""tsums: exact computation and verification of sums of multiple t-values.

t(s_1,...,s_d) is the nested series over odd denominators
sum_{n_1 > ... > n_d >= 1} prod 1/(2n_i - 1)**s_i, and T(2n,d) is the sum
of all such values with even arguments, weight 2n, and depth d.  The
library computes T(2n,d) exactly (as rational multiples of pi**(2n)) by
several independent routes, verifies the identities connecting them, and
cross-checks everything against a brute-force evaluation of the defining
series.
"""

from .exact import PiPower, bernoulli, binomial, euler_number, t_even, zeta_even
from .formulas import (
    BernoulliEulerResult,
    CoeffRow,
    DepthSumResult,
    TTable,
    T_from_bernoulli,
    T_from_euler,
    T_from_t_values,
    T_table_from_genfunc,
    bernoulli_euler_check,
    bernoulli_euler_lhs,
    coeff_row,
    depth_sum_identity,
    t_all_twos,
)
from .oracle import (
    DivergentSeriesError,
    PrecReal,
    TruncationParams,
    T_numeric,
    pi_power_eval,
    t_numeric,
)
from .series import (
    cos_sqrt_series,
    genfunc_biseries,
    series_quotient,
    sin_sqrt_series,
    tan_link_series,
)
from .symfunc import (
    GenExpr,
    SymPoly,
    check_bivariate_factorization,
    check_monomial_expansion,
    complete,
    elementary,
    monomial_depth_expr,
    monomial_depth_sum,
    power_sum,
    specialize_odd_squares,
)

__version__ = "0.1.0"

__all__ = [
    "PiPower",
    "bernoulli",
    "binomial",
    "euler_number",
    "zeta_even",
    "t_even",
    "series_quotient",
    "cos_sqrt_series",
    "sin_sqrt_series",
    "genfunc_biseries",
    "tan_link_series",
    "TTable",
    "CoeffRow",
    "DepthSumResult",
    "BernoulliEulerResult",
    "t_all_twos",
    "T_from_t_values",
    "T_from_bernoulli",
    "T_from_euler",
    "T_table_from_genfunc",
    "coeff_row",
    "depth_sum_identity",
    "bernoulli_euler_lhs",
    "bernoulli_euler_check",
    "SymPoly",
    "elementary",
    "complete",
    "power_sum",
    "monomial_depth_sum",
    "check_bivariate_factorization",
    "check_monomial_expansion",
    "GenExpr",
    "monomial_depth_expr",
    "specialize_odd_squares",
    "DivergentSeriesError",
    "PrecReal",
    "TruncationParams",
    "t_numeric",
    "T_numeric",
    "pi_power_eval",
    "__version__",
]
