"""Every argument check in the library raises ModelValidation, which is also a ValueError.

One row per check that rejects a caller's argument, with its message; the
only bare ValueErrors left in the package are bug guards.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from transinfo import chains, diffusion1d, feynman_kac, lyapunov, rng, simulate
from transinfo import transport, trivial_metric
from transinfo.catalog import bernoulli_chain
from transinfo.errors import ModelValidation, TransinfoError
from transinfo.transport import RateFunction

Q = RateFunction.quadratic(1.0)


def _config():
    chain = bernoulli_chain()
    return simulate.EnsembleConfig(model=chain, beta=chain.mu, t=1.0, n_paths=1, master_seed=0)


SITES = [
    # transport
    (lambda: RateFunction.quadratic(0.0), "quadratic rate function needs c > 0"),
    (lambda: RateFunction.power(1.0, 1.0), "power rate function needs kappa > 0, p > 1"),
    (lambda: RateFunction.tabulated([0.0, 1.0], [0.0]),
     "knots and values must be 1-D of one length, not shapes (2,) and (1,)"),
    (lambda: RateFunction.tabulated([0.0, math.inf], [0.0, 1.0]),
     "knots and values must be finite"),
    (lambda: RateFunction.tabulated([1.0, 2.0], [0.0, 1.0]),
     "tabulated rate function must start at (0, 0)"),
    (lambda: RateFunction.tabulated([0.0, 0.0], [0.0, 1.0]),
     "knots must increase strictly, values non-decreasingly"),
    (lambda: Q(-0.2), "rate functions are defined on r >= 0"),
    (lambda: transport.alpha_conjugate(Q, -0.5), "monotone conjugate is defined for lambda >= 0"),
    (lambda: transport.alpha_infconv([Q, Q], -1.0), "inf-convolution needs r >= 0"),
    (lambda: transport.alpha_infconv([], 1.0), "need at least one rate function"),
    # trivial_metric
    (lambda: trivial_metric.ckp_extremal(0.0, [0.5, 0.5]), "p must lie in (0, 1)"),
    (lambda: trivial_metric.jump_spectrum(1.0, 0.5), "p must lie in (0, 1)"),
    (lambda: trivial_metric.fk_growth_mc(0.5, 0.5, 60.0, 10, 0),
     "horizon t must lie in (0, 50] for this estimator, not 60.0"),
    (lambda: trivial_metric.fk_growth_mc(0.0, 0.5, 1.0, 10, 0), "p must lie in (0, 1)"),
    (lambda: trivial_metric.fk_growth_mc(0.5, math.nan, 1.0, 10, 0),
     "lambda must be finite, not nan"),
    (lambda: trivial_metric.fk_growth_mc(0.5, 0.5, 1.0, 1, 0),
     "a standard error needs at least 2 paths, not 1"),
    # lyapunov
    (lambda: lyapunov.certify_H(bernoulli_chain(), np.ones(2), [-1.0, 0.0], 0.0),
     "phi and b must be nonnegative"),
    (lambda: lyapunov.thm51_bounds(1.0, 1.0, 1.0, 1.5, 1.0), "a must be at least 2"),
    (lambda: lyapunov.thm51_bounds(-1.0, 1.0, 1.0, 2.0, 1.0), "all arguments must be nonnegative"),
    (lambda: lyapunov.lsi_constant_from_lyapunov(1.0, 1.0, 0.0, 0.0, 1.0),
     "this route takes a nonpositive curvature bound"),
    (lambda: lyapunov.lsi_constant_from_lyapunov(0.0, 0.0, 0.0, 0.0, 1.0), "c must be positive"),
    (lambda: lyapunov.mminf_generator(0.0, 40), "need lambda_rate > 0 and n_max >= 2"),
    # feynman_kac
    (lambda: feynman_kac.fk_norm(bernoulli_chain(), [0.0, 1.0], -1.0),
     "t must be nonnegative"),
    (lambda: feynman_kac.legendre_of_info(bernoulli_chain(), [0.0, 1.0], math.inf),
     "array must not contain infs or NaNs"),
    (lambda: feynman_kac.legendre_of_info(bernoulli_chain(), [0.0, 1.0], 1.0, multistarts=0),
     "multistarts must be at least 1"),
    (lambda: feynman_kac.w2i_dual_check(bernoulli_chain(), chains.trivial_metric(2), 0.0, []),
     "c must be positive"),
    (lambda: feynman_kac.lsi_ratio_scan(bernoulli_chain(), samples=99),
     "need at least 100 samples"),
    # chains
    (lambda: chains.dirichlet_energy(bernoulli_chain(), [0.0, math.nan]), "g must be finite"),
    (lambda: chains.dirichlet_energy(bernoulli_chain(), [0.0, 1.0, 2.0]),
     "expected a vector of length 2, got shape (3,)"),
    (lambda: chains.tv_weighted(bernoulli_chain(), [1.0, 1.0], [-1.0, 1.0]),
     "phi must be nonnegative"),
    (lambda: feynman_kac.lambda_max(bernoulli_chain(), [math.nan, 0.0]),
     "array must not contain infs or NaNs"),
    # simulate
    (lambda: simulate.hoeffding_bound(0.0, 1.0, 1.0, 1.0), "all arguments must be positive"),
    (lambda: simulate.lipschitz_gauss_bound(-1.0, 1.0, 1.0, 1.0),
     "C, lip_u, t must be positive and r nonnegative"),
    (lambda: simulate.tail_estimate(_config(), [0.0, 1.0], [0.0, 1.0], 0.0, Q),
     "r must be positive"),
    # diffusion1d
    (lambda: diffusion1d.ou_sigma2(0.0), "t must be positive"),
    (lambda: diffusion1d.dissipativity_margin(abs, abs, np.zeros((999, 2))),
     "need at least 1000 sampled pairs"),
    # rng, directly and through EnsembleConfig
    (lambda: rng.check_seed(-1), "master seed must be an integer in [0, 2**64), not -1"),
    (lambda: rng.check_count(0), "path count must be an integer >= 1, not 0"),
    (lambda: simulate.EnsembleConfig(model=bernoulli_chain(), beta=[0.5, 0.5], t=1.0,
                                     n_paths=0, master_seed=0),
     "path count must be an integer >= 1, not 0"),
]


@pytest.mark.parametrize("call, message", SITES)
def test_rejected_argument_raises_model_validation(call, message):
    with pytest.raises(ModelValidation) as info:
        call()
    assert isinstance(info.value, ValueError) and isinstance(info.value, TransinfoError)
    assert str(info.value) == message


def test_only_bug_guards_raise_a_bare_value_error():
    src = Path(chains.__file__).parent
    raises = sorted(f"{path.name}: {line.strip()}" for path in src.glob("*.py")
                    for line in path.read_text().splitlines() if "raise ValueError" in line)
    assert raises == [
        'chains.py: raise ValueError(f"illegal value in argument {-info} of {routine}")',
        'cli.py: raise ValueError(f"{path.name}: an unquoted field holds a comma, a quote or a '
        'newline")',
    ]

