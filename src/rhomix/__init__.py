"""rhomix: exact maximal correlation on small systems and everything that bounds it."""

from .discrete import (
    FinitePair,
    FiniteSystem,
    conditional_maxcorr,
    density_bound,
    event_extremes,
    maxcorr_blocks,
    maxcorr_pair,
    mixing_coefficients,
    subjective_maxcorr,
)
from .errors import CapExceededError, IntegratorError, ValidationError
from .events import (
    ChogosovModel,
    NuModel,
    chogosov_cdf,
    chogosov_opnorm,
    chogosov_quantile,
    chogosov_sample,
    chogosov_zone,
    lambda_fn,
    lambda_integral_identity,
    lstar_identity,
    nu_event_ratio,
)
from .gaussian import (
    GaussianSystem,
    OUChainParams,
    build_banded_zz,
    build_optimal_simple,
    condition,
    maxcorr_gaussian,
    ou_chain_joint,
    three_lines,
)
from .glauber import exact_gap, gap_lower_bounds, glauber_simulate, sublattice_gap
from .convdecay import ToeplitzKernel, banded_inverse_constants, conv_inverse, decay_fit
from .lattice import (
    IsingTorus,
    QuadraticModel,
    clt_experiment,
    ising_epsilon,
    ising_exact,
    quadratic_covariance,
    quadratic_rho_report,
)
from .tensor_bounds import (
    LatticeKernel,
    TailModel,
    distance_bound,
    nm_bound,
    operator_norm,
    simple_bound,
    sublattice_k,
    zn_bound,
    zz_bound,
)

__version__ = "0.1.0"
