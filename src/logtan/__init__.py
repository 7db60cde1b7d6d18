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

# The public names, by the submodule that defines them: what the README and
# the benchmark read.  Every other function is imported from its submodule.
# A submodule is imported on the first access to one of its names (PEP 562),
# so a CLI request compiles only the modules it runs.
_SUBMODULE_NAMES = {
    "closed_forms": "euler_integral exact_L legendre_L_coeff",
    "constants": "NumericValue eval_zeta_expr zeta_int",
    "core": "Polynomial euler_poly_scaled format_zeta_expr parse_zeta_expr shifted_legendre",
    "projection": "approx_L approx_L_direct expand sqrt_legendre_rationals",
    "quadrature": "FunctionSpec integrate_logtan",
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
