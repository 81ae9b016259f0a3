"""rhomix: exact maximal correlation on small systems and everything that bounds it.

The public names resolve on first access (PEP 562): ``import rhomix`` loads
no submodule, and reading ``rhomix.maxcorr_pair`` imports ``rhomix.discrete``.
Each access looks the name up in its module again and nothing is cached here,
so a name rebound in its module is the name seen through the package.
"""

import importlib

_MODULE_OF = {name: module for module, names in (
    ("discrete", "FinitePair FiniteSystem conditional_maxcorr density_bound event_extremes "
                 "maxcorr_blocks maxcorr_pair mixing_coefficients subjective_maxcorr"),
    ("errors", "CapExceededError IntegratorError ValidationError"),
    ("events", "ChogosovModel NuModel chogosov_cdf chogosov_opnorm chogosov_quantile chogosov_sample "
               "chogosov_zone lambda_fn lambda_integral_identity lstar_identity nu_event_ratio"),
    ("gaussian", "GaussianSystem OUChainParams build_banded_zz build_optimal_simple condition "
                 "maxcorr_gaussian ou_chain_joint three_lines"),
    ("glauber", "exact_gap gap_lower_bounds glauber_simulate sublattice_gap"),
    ("convdecay", "ToeplitzKernel banded_inverse_constants conv_inverse decay_fit"),
    ("lattice", "IsingTorus QuadraticModel clt_experiment ising_epsilon ising_exact "
                "quadratic_covariance quadratic_rho_report"),
    ("tensor_bounds", "LatticeKernel TailModel distance_bound nm_bound operator_norm simple_bound "
                      "sublattice_k zn_bound zz_bound"),
) for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
