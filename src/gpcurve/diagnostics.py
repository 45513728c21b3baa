"""Convergence, goodness-of-fit, and accuracy checks for sampler output."""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "accuracy",
    "coverage",
    "interpret_pmin",
    "monitored_indices",
    "monitored_scalars",
    "pdm_pvalues",
    "psrf",
]

# Evidence-of-inadequacy bands for the goodness-of-fit p-values.
PMIN_NONE = 0.25
PMIN_STRONG = 0.05

# Grid quantiles at which the mean and the covariance diagonal are monitored.
MONITORED_QUANTILES = (0.25, 0.5, 0.75)


def psrf(chains) -> float:
    """Potential scale reduction factor across parallel chains.

    ``chains`` is a sequence of equal-length scalar chains (or a 2-d array,
    one row per chain).  Values near 1 indicate the chains mix over the
    same distribution.  Constant chains have no within-variance to compare
    against; they warn and return exactly 1.
    """
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 2:
        raise ValueError("chains must be a 2-d array-like, one row per chain")
    n_chains, length = arr.shape
    if n_chains < 2:
        raise ValueError(f"need at least 2 chains, got {n_chains}")
    if length < 10:
        raise ValueError(f"need at least 10 draws per chain, got {length}")
    within = float(np.mean(np.var(arr, axis=1, ddof=1)))
    between_over_l = float(np.var(np.mean(arr, axis=1), ddof=1))
    if within == 0.0:
        warnings.warn("all chains are constant; PSRF is reported as 1", stacklevel=2)
        return 1.0
    pooled = (length - 1) / length * within + between_over_l
    return float(np.sqrt(pooled / within))


def interpret_pmin(p: float) -> str:
    if p > PMIN_NONE:
        return "no evidence of model inadequacy"
    if p < PMIN_STRONG:
        return "strong evidence of model inadequacy"
    return "some evidence of model inadequacy"


def pdm_pvalues(resid) -> np.ndarray:
    """Posterior-discrepancy p-values from standardized residual draws.

    ``resid`` holds one array per curve, shaped (draws, points on that
    curve).  For each retained draw the squared-residual sum is referred to
    its chi-square reference; the per-curve p-value is the smallest one
    across draws, Bonferroni-adjusted by the number of draws and capped
    at 1.  Returns the per-curve p-values, one per curve in order.
    """
    if not resid:
        raise ValueError("no residual draws; was the sampler run with residuals enabled?")
    # chdtrc(df, x) is the chi-square survival function itself, without the
    # import cost of scipy.stats; imported here, so `diagnose` loads no scipy.
    from scipy.special import chdtrc

    pmins = np.empty(len(resid))
    for i, r in enumerate(resid):
        r = np.asarray(r, dtype=float)
        if r.ndim != 2 or r.shape[0] == 0:
            raise ValueError(
                f"curve {i} has no residual draws; rerun with a smaller resid_thin"
            )
        ndraws, npts = r.shape
        discrepancy = np.sum(r * r, axis=1)
        pvals = chdtrc(npts, discrepancy)
        pmins[i] = min(1.0, ndraws * float(np.min(pvals)))
    return pmins


def accuracy(est, truth) -> dict:
    """Root-mean-square and mean-square error between two arrays."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {truth.shape}")
    mse = float(np.mean((est - truth) ** 2))
    return {"rmse": float(np.sqrt(mse)), "mse": mse}


def coverage(lower, upper, truth) -> float:
    """Fraction of points whose truth lies inside [lower, upper]."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if not (lower.shape == upper.shape == truth.shape):
        raise ValueError("lower, upper, and truth must share one shape")
    if np.any(lower > upper):
        raise ValueError("band is inverted: some lower values exceed upper values")
    return float(np.mean((truth >= lower) & (truth <= upper)))


def monitored_indices(p: int) -> list[int]:
    """Grid indices, ascending, at which :func:`monitored_scalars` tracks
    the mean and the covariance diagonal of a p-point grid."""
    return sorted({int(round(q * (p - 1))) for q in MONITORED_QUANTILES})


def monitored_scalars(
    precision: np.ndarray,
    sigma_s2: np.ndarray,
    mu: np.ndarray,
    sigma_diag: np.ndarray,
) -> dict[str, np.ndarray]:
    """Named scalar chains used for convergence monitoring.

    Tracks the noise precision, the covariance scale, and the mean and
    covariance diagonal at three grid quantiles. ``mu`` holds the mean draws
    on the whole p-point grid, (ndraws, p); ``sigma_diag`` the covariance
    diagonal at the monitored points alone, (ndraws, len(monitored_indices(p))),
    as ``Draws.grid_sigma_diag(monitored_indices(p))`` returns it.
    """
    mu = np.asarray(mu, dtype=float)
    sig = np.asarray(sigma_diag, dtype=float)
    idx = monitored_indices(mu.shape[1])
    if sig.shape[1] != len(idx):
        raise ValueError(
            f"covariance diagonal has {sig.shape[1]} columns; expected the "
            f"{len(idx)} monitored grid points {idx}"
        )
    out = {
        "noise_precision": np.asarray(precision, dtype=float),
        "sigma_s2": np.asarray(sigma_s2, dtype=float),
    }
    for j in idx:
        out[f"mu[{j}]"] = mu[:, j]
    for j, col in zip(idx, sig.T):
        out[f"Sigma[{j},{j}]"] = col
    return out
