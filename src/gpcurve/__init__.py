"""Joint Bayesian smoothing of noisy curves sharing one Gaussian-process law.

The package simulates functional datasets, smooths them with two Gibbs
samplers (a full-grid hierarchical sampler and a basis-approximated one),
checks the fits, and feeds the smoothed curves into penalized functional
regression.
"""

from gpcurve.stochastic import (
    FactorizationError,
    RngStream,
    SpdMatrix,
    pseudo_inverse,
    sample_gamma,
    sample_inverse_wishart,
)

__all__ = [
    "FactorizationError",
    "RngStream",
    "SpdMatrix",
    "pseudo_inverse",
    "sample_gamma",
    "sample_inverse_wishart",
]

__version__ = "0.1.0"
