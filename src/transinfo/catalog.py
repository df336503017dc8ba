"""Bundled example models the CLI can run experiments against."""

from __future__ import annotations

import math

import numpy as np

from .chains import ReversibleChain, build_chain, line_metric, product_chain, trivial_metric
from .diffusion1d import DiffusionSpec1D, Grid1D, discretize, ou_spec
from .errors import ConfigParse
from .exprutil import compile_expression
from .lyapunov import beta_potential_example, mminf_generator
from .trivial_metric import build_jump_chain


def bernoulli_chain() -> ReversibleChain:
    """Two states with rates 1/0.7, 1/0.3: mu = (0.7, 0.3), E(g,g) = (Dg)^2."""
    return build_chain(np.array([[0.0, 1.0 / (1.0 - 0.3)], [1.0 / 0.3, 0.0]]))


def quartic_spec() -> DiffusionSpec1D:
    return DiffusionSpec1D(x0=-math.inf, y0=math.inf,
                           a=lambda x: 1.0, b=lambda x: -x ** 3, c_ref=0.0)


def gauss_shift_density(chain: ReversibleChain, grid: Grid1D) -> np.ndarray:
    """Density of N(0.5, 1) against the discretized standard Gaussian."""
    f = np.exp(0.5 * grid.nodes - 0.125)
    return f / float(np.dot(chain.mu, f))


def product_3x3() -> tuple[ReversibleChain, list[ReversibleChain]]:
    r1 = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 1.0], [0.0, 3.0, 0.0]])
    r2 = np.array([[0.0, 0.5, 0.0], [1.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
    c1, c2 = build_chain(r1), build_chain(r2)
    return product_chain([c1, c2]), [c1, c2]


_CATALOG = {
    "bernoulli": "two-state chain with rates 1/0.7, 1/0.3, mu = (0.7, 0.3)",
    "jump2": "rate-1 resampling chain on two points, mu = (0.25, 0.75)",
    "ou": "mean-reverting unit diffusion (a = 1, b = -x), standard normal measure",
    "quartic": "quartic-well diffusion (a = 1, b = -x^3)",
    "mminf": "truncated service queue, Poisson(1) measure, n_max = 40",
    "beta-potential": "|x|^beta potential diffusion with drift certificate (beta = 2)",
    "gauss-shift": "discretized N(0.5, 1) vs N(0, 1) density pair on a line grid",
    "product-3x3": "independent product of two 3-state chains",
}


def list_examples() -> dict:
    """Stable name -> description catalog of the bundled models."""
    return dict(_CATALOG)


def load_example(name: str, grid_nodes: int = 400):
    """Instantiate a bundled model; every entry validates on load."""
    if name == "bernoulli":
        return {"chain": bernoulli_chain(), "metric": trivial_metric(2)}
    if name == "jump2":
        return {"chain": build_jump_chain(np.array([0.25, 0.75])),
                "metric": trivial_metric(2)}
    if name == "ou":
        spec = ou_spec()
        grid = Grid1D.uniform(-6.0, 6.0, grid_nodes)
        return {"spec": spec, "grid": grid, "chain": discretize(spec, grid),
                "metric": line_metric(grid.nodes)}
    if name == "quartic":
        spec = quartic_spec()
        grid = Grid1D.uniform(-4.0, 4.0, grid_nodes)
        return {"spec": spec, "grid": grid, "chain": discretize(spec, grid),
                "metric": line_metric(grid.nodes)}
    if name == "mminf":
        chain, mu = mminf_generator(1.0, 40)
        return {"chain": chain, "mu": mu}
    if name == "beta-potential":
        model = beta_potential_example(2.0)
        return {"model": model, "chain": model.chain}
    if name == "gauss-shift":
        spec = ou_spec()
        grid = Grid1D.uniform(-8.0, 8.0, grid_nodes)
        chain = discretize(spec, grid)
        return {"spec": spec, "grid": grid, "chain": chain,
                "metric": line_metric(grid.nodes),
                "density": gauss_shift_density(chain, grid)}
    if name == "product-3x3":
        prod, factors = product_3x3()
        return {"chain": prod, "factors": factors}
    raise ConfigParse(f"unknown example {name!r}; see list-examples")


def diffusion_from_json(obj: dict) -> DiffusionSpec1D:
    """Build a diffusion from {"a": expr, "b": expr, "interval": [x0,y0], "c_ref": c}."""
    try:
        a = compile_expression(str(obj["a"]))
        b = compile_expression(str(obj["b"]))
        x0, y0 = obj["interval"]
        c_ref = float(obj.get("c_ref", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParse(f"bad diffusion spec: {exc}") from exc
    x0 = -math.inf if x0 in (None, "-inf") else float(x0)
    y0 = math.inf if y0 in (None, "inf") else float(y0)
    return DiffusionSpec1D(x0=x0, y0=y0, a=a, b=b, c_ref=c_ref)
