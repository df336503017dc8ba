"""Transport-cost vs. Fisher-information toolkit for finite Markov models.

Importing the package sets OPENBLAS_NUM_THREADS=1 unless the caller has set
it.  A process that loaded numpy first keeps numpy's thread pool, and child
processes started afterwards inherit the variable (README, "Threads").
"""

import os

# Must run before numpy loads.  The bundled models' BLAS calls are small, and
# an idle OpenBLAS worker spins after each; a caller's own value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .chains import (
    Density,
    LineMetric,
    Metric,
    MetricMatrix,
    ReversibleChain,
    build_chain,
    chain_from_json,
    dirichlet_energy,
    fisher_information,
    lipschitz_norm,
    line_metric,
    oscillation,
    poisson_solve,
    product_chain,
    relative_entropy,
    spectral_gap,
    trivial_metric,
    tv_weighted,
)
from .transport import (
    CostMatrix,
    Coupling,
    RateFunction,
    alpha_conjugate,
    alpha_infconv,
    kantorovich_dual,
    ot_cost,
    tensor_cost,
    w1,
    w2,
    w2_quantile_1d,
)
from .feynman_kac import (
    BestConstantReport,
    PhiPair,
    best_w1i,
    best_w2i,
    fk_norm,
    lambda_max,
    legendre_of_info,
    lsi_ratio_scan,
    verify_tphi_dual,
    w2i_dual_check,
)
from .trivial_metric import (
    JumpSpectrum,
    build_jump_chain,
    ckp_extremal,
    ckp_gap,
    fk_growth_mc,
    hellinger_check,
    jump_spectrum,
    rho,
    rho_sup_scan,
)
# importing the submodule above rebinds the package attribute trivial_metric
# to it; the package exports the metric constructor under that name
from .chains import trivial_metric  # noqa: E402
from .diffusion1d import (
    DiffusionSpec1D,
    Grid1D,
    Warp,
    c_rho,
    check_nonexplosion,
    discretize,
    dissipativity_margin,
    lip_poisson_ratio,
    normalize,
    ou_sigma2,
    ou_spec,
    ou_tail_lograte,
    rho_a,
    scale_speed,
)
from .lyapunov import (
    LyapunovCertificate,
    beta_potential_example,
    certify_H,
    cor52_alpha,
    drift_info_bound_check,
    drift_ratio,
    lsi_constant_from_lyapunov,
    mminf_generator,
    thm51_bounds,
    verify_thm51,
)
from .simulate import (
    DeviationEstimate,
    EnsembleConfig,
    OUModel,
    hoeffding_bound,
    lipschitz_gauss_bound,
    sample_time_average,
    tail_estimate,
    tensor_deviation_demo,
)

__version__ = "0.1.0"
