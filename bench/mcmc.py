"""Chain statistics computed by the benchmark itself, apart from the program.

``ess`` is Geyer's initial monotone sequence estimator (Geyer 1992,
Statistical Science 7:473); ``psrf`` is the plain Gelman-Rubin potential
scale reduction factor.
"""

from __future__ import annotations

import numpy as np


def autocorrelation(x) -> np.ndarray:
    """Sample autocorrelation at lags 0..n-1 (biased divisor n), by FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n
    if acov[0] <= 0.0:
        raise ValueError("chain is constant; its ESS is undefined")
    return acov / acov[0]


def ess(x) -> float:
    """Effective sample size of one scalar chain.

    Sums the autocorrelations in adjacent pairs, stops before the first
    pair sum that is not positive, and forces the pair sums to be
    non-increasing before adding them up.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 draws, got {n}")
    rho = autocorrelation(x)
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: nonpositive[0] if nonpositive.size else pairs.size]
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * float(pairs.sum())
    return n / max(tau, 1.0 / np.log10(n))


def psrf(chains) -> float:
    """Gelman-Rubin potential scale reduction factor, one row per chain."""
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need a 2-d array with at least two chains")
    length = arr.shape[1]
    within = float(np.mean(np.var(arr, axis=1, ddof=1)))
    between_over_l = float(np.var(np.mean(arr, axis=1), ddof=1))
    pooled = (length - 1) / length * within + between_over_l
    return float(np.sqrt(pooled / within))
