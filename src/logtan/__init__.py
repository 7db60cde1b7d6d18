"""Log-tangent integrals: exact zeta-value closed forms with verified numerics.

The central object is the functional ``L(f) = integral_0^{pi/2} f(x) log(tan x) dx``.
For polynomial-type integrands ``L`` evaluates exactly to rational
combinations of pi powers and ``zeta`` at odd integers; for general
square-integrable integrands it is approximated through shifted-Legendre
projections and series identities.  Every closed form is checkable against a
singularity-aware tanh-sinh quadrature oracle.
"""

import importlib

from . import core, quadrature  # noqa: F401  (every entry point needs both)

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  A submodule is
# imported on the first access to one of its names (PEP 562), so a CLI
# request compiles only the modules it runs.
_SUBMODULE_NAMES = {
    "closed_forms": "MomentResult byerly_coeff cos_lemma euler_integral euler_integral_half "
                    "euler_translated exact_L legendre_L_coeff moment",
    "constants": "EULER_GAMMA LOG2 NumericValue catalan digamma eval_pi_expr eval_zeta_expr "
                 "zeta_even_exact zeta_int",
    "core": "PiExpr Polynomial ZetaExpr bernoulli bernoulli_table euler_poly euler_poly_scaled "
            "format_pi_expr format_zeta_expr parse_pi_expr parse_zeta_expr poly_derivative_at "
            "shifted_legendre shifted_legendre_deriv_at_zero shifted_legendre_rodrigues",
    "projection": "ApproxL LegendreCoeffs approx_L approx_L_direct catalan_series expand "
                  "legendre_values logtan_expansion_value "
                  "logtan_reconstruction_error parseval_defect sqrt_approx_L_exact "
                  "sqrt_legendre_rationals",
    "quadrature": "FunctionSpec QuadratureError QuadratureResult inner_product integrate_logtan "
                  "integrate_plain",
    "series": "SeriesPartialSum bradley_primitive cos_integral_F euler_zeta3_series "
              "exp_integral_series logtan_power_series partial_sum_S sinh_identity_check "
              "smooth_L_series",
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items()
              for name in names.split()}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
