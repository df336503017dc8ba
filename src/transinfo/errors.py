"""Exception types shared across the package.

Model validation failures are errors, not warnings: every downstream
identity assumes a validated reversible chain, so a silently accepted
bad input would poison all later checks.
"""


class TransinfoError(Exception):
    """Base class for all package errors."""


class ModelValidation(TransinfoError):
    """A model object failed its structural invariants."""


class NotIrreducible(ModelValidation):
    """The rate graph is not strongly connected."""


class DetailedBalanceViolated(ModelValidation):
    """mu_x q(x,y) != mu_y q(y,x) beyond tolerance; carries the worst pair."""

    def __init__(self, pair, residual):
        self.pair = pair
        self.residual = residual
        super().__init__(
            f"detailed balance violated at pair {pair}: relative residual {residual:.3e}"
        )


class DegenerateMeasure(ModelValidation):
    """A reference measure has a nonpositive or non-normalizable entry."""


class MeanNotZero(TransinfoError):
    """Poisson right-hand side must be centered: |mu(g)| <= 1e-10."""


class SingularSystem(TransinfoError):
    """Linear solve failed on a system that should be regular (internal error)."""


class InfeasibleMarginals(TransinfoError):
    """Transport marginals do not carry equal mass."""


class UnsortedGrid(TransinfoError):
    """1-D grid nodes must be strictly increasing."""


class ProductTooLarge(TransinfoError):
    """Tensorized object exceeds the desk-scale size guard."""


class PhiConstraintViolated(TransinfoError):
    """An observable pair (u, v) falls outside its declared test-function class."""


class HorizonOverflow(TransinfoError):
    """exp(t * growth) would overflow double precision."""


class QuadratureFailure(TransinfoError):
    """Adaptive quadrature did not reach the requested tolerance."""


class DivergentSpeedMeasure(TransinfoError):
    """The speed-measure density does not decay at a truncated boundary."""


class DivergenceDetected(TransinfoError):
    """A Lipschitz-Poisson constant evaluated to a non-finite value."""


class StepTooCoarse(TransinfoError):
    """Grid discretization produced an invalid (non-reversible) generator."""


class StepTooLarge(TransinfoError):
    """SDE step violates the stability heuristic."""


class UBelowOne(TransinfoError):
    """Drift test functions must satisfy U >= 1 everywhere."""


class NotCertified(TransinfoError):
    """Operation requires a certified drift certificate."""


class TruncationTooSmall(TransinfoError):
    """Truncated state space leaves more than the allowed tail mass."""


class EstimatorOverflow(TransinfoError):
    """An exponential-moment estimate would overflow."""


class NoExactSplit(TransinfoError):
    """No subset of the support carries the requested measure weight."""


class ConfigParse(TransinfoError):
    """Experiment specification file could not be parsed."""
