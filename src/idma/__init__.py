"""Stationary infinitely divisible moving-average fields with antipersistent kernels.

Analytic characteristic functions, covariances, and integrability
diagnostics; exact shot-noise simulation of window integrals; and a
verification harness that tests which candidate limit law the window
integrals actually approach as the window grows.
"""

from .analytic import (ConditionsReport, FddSpec, check_conditions, covariance,
                       covariance_integral, covariance_integral_quadrature,
                       fdd_spec, j_t, log_cf_limit, log_cf_limits,
                       log_cf_stationary, log_cf_window, shift_constant,
                       variance_window, variance_window_quadrature)
from .errors import (ConfigError, DivergentMomentError, EmptyTruncationError,
                     IdmaError, NonConvergenceError, NotAvailableError)
from .kernels import (Kernel1D, ProductKernel, as_product, check_derivative,
                      gauss_deriv, persistent_control, signed_ou, user_table,
                      user_table_from_csv)
from .levy import (LevyMeasure, dickman, inner_truncated_stable, truncated_stable,
                   two_point)
from .quadrature import QuadResult, integrate_line
from .simulate import (CfEvaluation, JumpSet, SimConfig, SimResult,
                       empirical_cf, eval_field, jump_set, limit_sum,
                       mirrored_limit_sum, monte_carlo, sample_jumps,
                       sample_limit, stream_for, window_integral,
                       window_integral_grid)
from .verify import (ConvergenceReport, HyperReport, KsResult, McReport,
                     cf_convergence, hyperuniformity, ks_two_sample,
                     mc_consistency, variance_se)

__version__ = "0.1.0"
