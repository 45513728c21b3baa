"""Retained draws and posterior summary containers shared by both samplers."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Draws",
    "SmoothResult",
    "check_retained",
    "credible_band",
    "physical_memory_bytes",
    "retained_bytes",
    "scalar_summary",
    "summarize_draws",
    "unpack_lower",
]

BAND_PROBS = (0.025, 0.975)

# Working memory for one block of draws: the band work buffer.
CHUNK_BYTES = 1 << 24


@lru_cache(maxsize=32)
def _pack_index(K: int) -> np.ndarray:
    """Flat positions in a K x K matrix of its lower triangle, row by row
    (the order of ``np.tril_indices``)."""
    rows, cols = np.tril_indices(K)
    index = rows * K + cols
    index.setflags(write=False)
    return index


@lru_cache(maxsize=32)
def _unpack_index(K: int) -> np.ndarray:
    """Packed position of every entry of a K x K symmetric matrix."""
    rows, cols = np.tril_indices(K)
    index = np.empty((K, K), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    index = index.ravel()
    index.setflags(write=False)
    return index


def _packed_dim(size: int) -> int:
    K = (math.isqrt(8 * size + 1) - 1) // 2
    if K * (K + 1) // 2 != size:
        raise ValueError(f"{size} entries are not a packed lower triangle")
    return K


def unpack_lower(packed) -> np.ndarray:
    """Symmetric (..., K, K) matrices from their lower triangles packed row
    by row, as :meth:`Draws.record` keeps them; bit for bit the matrices
    recorded."""
    packed = np.asarray(packed)
    K = _packed_dim(packed.shape[-1])
    full = np.take(packed, _unpack_index(K), axis=-1, mode="clip")
    return full.reshape(*packed.shape[:-1], K, K)


def physical_memory_bytes() -> int | None:
    """This machine's physical memory, or ``None`` where the OS does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


@lru_cache(maxsize=64)
def _extreme_counts(ndraws: int) -> tuple[int, int]:
    """How many of the smallest and of the largest of ``ndraws`` values hold
    every order statistic that a 95% band reads.  ``np.quantile``'s linear
    method reads ranks floor(v) and floor(v) + 1 at the virtual index
    v = (ndraws - 1) q."""
    lo = math.floor((ndraws - 1) * BAND_PROBS[0]) + 2
    hi = ndraws - math.floor((ndraws - 1) * BAND_PROBS[1])
    return lo, hi


def _extreme_rows(ndraws: int) -> int:
    """Rows of the order-statistics buffer of ``ndraws`` draws: every draw
    when the kept extremes reach ``ndraws``, else room for them twice over,
    so that a merge keeps them once per as many new draws."""
    lo, hi = _extreme_counts(ndraws)
    return min(ndraws, 2 * (lo + hi))


def retained_bytes(
    n: int, K: int, curve_sizes, ndraws: int, n_resid: int, *, order_stats: bool,
    summarize: bool = True,
) -> int:
    """Bytes :meth:`Draws.allocate` keeps.

    Every chain keeps per draw the K mean, two scalars and the covariance:
    its K diagonal with ``order_stats`` (a design without an evaluation
    basis), else its K(K+1)/2 packed lower triangle.  With ``summarize`` it
    also keeps the thinned residuals, and either the order statistics of
    the n K + K(K+1)/2 coefficient and packed covariance cells (their sums
    and :func:`_extreme_rows` rows) or, without them, the n x K coefficients
    of every draw.
    """
    packed = K * (K + 1) // 2
    doubles = ndraws * (K + 2 + (K if order_stats else packed))
    if summarize:
        doubles += n_resid * sum(curve_sizes)
        if order_stats:
            doubles += (n * K + packed) * (1 + _extreme_rows(ndraws))
        else:
            doubles += ndraws * n * K
    return 8 * doubles


def check_retained(
    n: int, K: int, curve_sizes, M: int, burnin: int, resid_thin: int, *,
    order_stats: bool, summarize: bool = True,
) -> None:
    """Refuse with ``ValueError`` the counts :meth:`Draws.allocate` cannot
    keep: ``M > burnin >= 0`` and ``resid_thin >= 1`` must hold, and the
    retained bytes (:func:`retained_bytes`) must fit in the machine's
    physical memory.  Needs only the sizes, so a run can be refused before
    any work."""
    if burnin < 0 or M <= burnin:
        raise ValueError(f"need M > burnin >= 0, got M={M}, burnin={burnin}")
    if resid_thin < 1:
        raise ValueError(f"resid_thin must be at least 1, got {resid_thin}")
    ndraws = M - burnin
    need = retained_bytes(
        n, K, curve_sizes, ndraws, ndraws // resid_thin,
        order_stats=order_stats, summarize=summarize,
    )
    limit = physical_memory_bytes()
    if limit is not None and need > limit:
        raise ValueError(
            f"keeping {ndraws} draws (--M {M} minus --Burnin {burnin}) needs "
            f"{need / 2**30:.1f} GiB, more than this machine's "
            f"{limit / 2**30:.1f} GiB of memory; lower --M or raise --Burnin"
        )


@dataclass
class Draws:
    """What a chain keeps of its post-burn-in sweeps, in coefficient space.

    Every chain keeps per draw the mean ``mu`` (ndraws, K), the noise
    ``precision`` and the covariance scale ``sigma_s2``, and enough of the
    covariance for its grid diagonal (:meth:`grid_sigma_diag`).

    Draws without order statistics (a design that reports through an
    evaluation basis, ``basis`` E x K: babf) keep the draws themselves:
    each curve's coefficients ``coef`` (ndraws, n, K) and each covariance
    draw as its packed lower triangle, ``Sigma`` (ndraws, K(K+1)/2), which
    :func:`unpack_lower` restores.  Grid-space draws are their images
    through the basis (``None``: the identity).

    Draws with order statistics (a design that reports on the grid it
    samples, without a basis: bhm, whose coefficients are the pooled-grid
    values) keep per draw only the covariance diagonal, ``Sigma_diag``
    (ndraws, K).  Of the n K coefficient cells and the K(K+1)/2 packed
    covariance cells they keep ``cell_sums``, their sums in sweep order,
    and ``extremes``, a buffer of :func:`_extreme_rows` rows by those
    cells: each sweep writes one row, and when the buffer is full one
    partition per side keeps each cell's smallest and largest values
    (:func:`_extreme_counts`).  The means and bands of those cells follow
    exactly (:func:`summarize_draws`).

    Without summaries (``allocate(..., summarize=False)``) a chain keeps
    only what its monitored scalars read: no coefficients, residuals or
    order statistics.  ``resid`` holds the thinned standardized residuals
    of each curve, or nothing.
    """

    mu: np.ndarray
    precision: np.ndarray
    sigma_s2: np.ndarray
    M: int
    burnin: int
    resid_thin: int
    basis: np.ndarray | None = None
    coef: np.ndarray | None = None
    Sigma: np.ndarray | None = None
    Sigma_diag: np.ndarray | None = None
    resid: list[np.ndarray] = field(default_factory=list)
    cell_sums: np.ndarray | None = None
    extremes: np.ndarray | None = None
    # Rows of ``extremes`` in use.
    _filled: int = field(default=0, repr=False)

    @classmethod
    def allocate(
        cls, n: int, K: int, curve_sizes, M: int, burnin: int, resid_thin: int, *,
        order_stats: bool, basis=None, summarize: bool = True,
    ) -> "Draws":
        """Empty draws for sweeps ``burnin`` .. ``M - 1``, keeping order
        statistics or the draws themselves; with ``summarize`` False, only
        the monitored ones.  The design says which
        (:attr:`gpcurve.bhm.Design.keeps_order_stats`).

        Refuses with ``ValueError`` before allocating what
        :func:`check_retained` refuses, and order statistics through a
        basis: a band of images needs the draws.
        """
        if order_stats and basis is not None:
            raise ValueError("draws kept through a basis cannot be order statistics")
        check_retained(
            n, K, curve_sizes, M, burnin, resid_thin,
            order_stats=order_stats, summarize=summarize,
        )
        ndraws = M - burnin
        packed = K * (K + 1) // 2
        draws = cls(
            mu=np.empty((ndraws, K)),
            precision=np.empty(ndraws),
            sigma_s2=np.empty(ndraws),
            M=M,
            burnin=burnin,
            resid_thin=resid_thin,
            basis=basis,
        )
        if order_stats:
            draws.Sigma_diag = np.empty((ndraws, K))
        else:
            draws.Sigma = np.empty((ndraws, packed))
        if summarize:
            draws.resid = [np.empty((ndraws // resid_thin, m)) for m in curve_sizes]
            if order_stats:
                draws.cell_sums = np.zeros(n * K + packed)
                draws.extremes = np.empty((_extreme_rows(ndraws), n * K + packed))
            else:
                draws.coef = np.empty((ndraws, n, K))
        return draws

    def record(self, it: int, coef, mu, Sigma, precision, sigma_s2, resid) -> None:
        """Keep sweep ``it``'s state unless it is a burn-in sweep.

        ``resid`` returns the per-curve standardized residuals; it is called
        on every ``resid_thin``-th retained sweep only, when residuals are
        kept.  ``Sigma`` must be symmetric, as :attr:`SpdMatrix.mat` is:
        only its lower triangle is kept.
        """
        k = it - self.burnin
        if k < 0:
            return
        self.mu[k] = mu
        self.precision[k] = precision
        self.sigma_s2[k] = sigma_s2
        if self.Sigma is not None:
            np.take(Sigma, _pack_index(Sigma.shape[0]), out=self.Sigma[k], mode="clip")
        else:
            self.Sigma_diag[k] = Sigma.diagonal()
        if self.coef is not None:
            self.coef[k] = coef
        if self.extremes is not None:
            self._keep_extremes(coef, Sigma)
        if self.resid and (k + 1) % self.resid_thin == 0:
            slot = (k + 1) // self.resid_thin - 1
            for out, r in zip(self.resid, resid()):
                out[slot] = r

    def _keep_extremes(self, coef: np.ndarray, Sigma: np.ndarray) -> None:
        """Write this sweep's cells as one row of the buffer, merging it first
        when full, and add them to the running sums."""
        if self._filled == self.extremes.shape[0]:
            self._merge_extremes()
        row = self.extremes[self._filled]
        split = coef.size
        np.copyto(row[:split].reshape(coef.shape), coef)
        np.take(Sigma, _pack_index(Sigma.shape[0]), out=row[split:], mode="clip")
        np.add(self.cell_sums, row, out=self.cell_sums)
        self._filled += 1

    def _merge_extremes(self) -> None:
        """Keep each cell's ``lo`` smallest values in the buffer's first rows
        and its ``hi`` largest in the next, dropping the rows between: a
        dropped value can hold no rank that a band reads."""
        lo, hi = _extreme_counts(self.mu.shape[0])
        buf = self.extremes
        buf.partition(lo - 1, axis=0)
        rest = buf[lo:]
        rest.partition(rest.shape[0] - hi, axis=0)
        buf[lo : lo + hi] = buf[buf.shape[0] - hi :]
        self._filled = lo + hi

    def grid_mu(self) -> np.ndarray:
        """Mean draws on the evaluation grid, (ndraws, E)."""
        return self.mu if self.basis is None else self.mu @ self.basis.T

    def grid_sigma_diag(self, columns) -> np.ndarray:
        """Covariance diagonal at the evaluation points ``columns`` per draw,
        (ndraws, len(columns)).

        Through a basis, point e's variance b_e Sigma b_e^T is a weighted sum
        of the packed cells, weight b_ek b_el (doubled off the diagonal), so
        the columns are one product of the packed draws with those weights
        and no draw is unpacked.
        """
        columns = np.asarray(columns, dtype=np.intp)
        if self.Sigma_diag is not None:
            return self.Sigma_diag[:, columns]
        if self.basis is None:
            # Diagonal entry k is packed at k (k + 3) / 2.
            return self.Sigma[:, columns * (columns + 3) // 2]
        B = self.basis[columns]
        rows, cols = np.tril_indices(self.mu.shape[1])
        weights = B[:, rows] * B[:, cols]
        weights[:, rows != cols] *= 2.0
        return self.Sigma @ weights.T


def _block_shape(ndraws: int, R: int, C: int, inner: int) -> tuple[int, int]:
    """Rows and columns of one block of band cells, about CHUNK_BYTES of
    image draws."""
    cells = max(1, CHUNK_BYTES // (8 * ndraws))
    cols = min(C, cells)
    # A row of the operand (the draws, or a left image of them) holds
    # ``inner`` cells per draw.
    rows = min(R, max(1, cells // max(cols, inner)))
    return rows, cols


def _band_work(ndraws: int, cells: int) -> np.ndarray:
    """One band work buffer: room for the largest block of a band over at
    most ``cells`` cells."""
    return np.empty(ndraws * min(cells, max(1, CHUNK_BYTES // (8 * ndraws))))


def _block(work: np.ndarray, ndraws: int, rows: int, cols: int) -> np.ndarray:
    return work[: ndraws * rows * cols].reshape(ndraws, rows, cols)


def _band_of_block(block: np.ndarray):
    # The block is a fresh copy, so the quantile may reorder it in place.
    return np.quantile(block, BAND_PROBS, axis=0, overwrite_input=True)


def credible_band(draws: np.ndarray, right=None, work=None):
    """Pointwise 95% credible band of the draws ``draws[k] @ right.T``.

    ``draws`` is (ndraws, R, C); ``None`` for ``right`` is the identity.
    The image draws are formed block by block in ``work``, a flat buffer
    of about :data:`CHUNK_BYTES` (allocated when not given), so no more
    than one block of them exists at once.
    """
    ndraws, R, inner = draws.shape
    C = inner if right is None else right.shape[0]
    rows, cols = _block_shape(ndraws, R, C, inner)
    if work is None:
        work = np.empty(ndraws * rows * cols)
    lo, hi = np.empty((R, C)), np.empty((R, C))
    for r in range(0, R, rows):
        rs = slice(r, r + rows)
        part = draws[:, rs]
        for c in range(0, C, cols):
            cs = slice(c, c + cols)
            block = _block(work, ndraws, part.shape[1], min(cols, C - c))
            if right is None:
                np.copyto(block, part[:, :, cs])
            else:
                np.matmul(part, right[cs].T, out=block)
            lo[rs, cs], hi[rs, cs] = _band_of_block(block)
    return lo, hi


def _sigma_band(packed: np.ndarray, basis, work):
    """Pointwise 95% band of the covariance draws ``B Sigma_k B^T`` from
    their packed lower triangles; ``None`` for ``basis`` is the identity.

    Without a basis the band runs over the packed cells and is mirrored.
    With one, each row block's images ``B[rows] Sigma_k`` come from a few
    unpacked draws at a time, so the full K x K draws never exist together.
    """
    if basis is None:
        lo, hi = credible_band(packed[:, None, :], work=work)
        return unpack_lower(lo[0]), unpack_lower(hi[0])
    ndraws = packed.shape[0]
    E, K = basis.shape
    rows, cols = _block_shape(ndraws, E, E, K)
    # Draws unpacked at once: a sixteenth of a block.
    step = max(1, CHUNK_BYTES // (16 * 8 * K * K))

    def left_images(rs):
        for d in range(0, ndraws, step):
            yield slice(d, d + step), basis[rs] @ unpack_lower(packed[d : d + step])

    lo, hi = np.empty((E, E)), np.empty((E, E))
    for r in range(0, E, rows):
        rs = slice(r, r + rows)
        nrows = min(rows, E - r)
        images = left_images(rs)
        if cols < E:
            # Every column block reuses this row block's left images.
            part = np.empty((ndraws, nrows, K))
            for ds, image in images:
                part[ds] = image
            images = [(slice(None), part)]
        for c in range(0, E, cols):
            cs = slice(c, c + cols)
            block = _block(work, ndraws, nrows, min(cols, E - c))
            for ds, image in images:
                np.matmul(image, basis[cs].T, out=block[ds])
            lo[rs, cs], hi[rs, cs] = _band_of_block(block)
    return lo, hi


def _quantile_of_extremes(kept: np.ndarray, ndraws: int, q: float) -> np.ndarray:
    """``np.quantile(draws, q, axis=0)`` of each cell's ``ndraws`` values, bit
    for bit, from ``kept``: rows holding each cell's smallest and largest
    values, its ``ndraws - len(kept)`` middle values dropped
    (:meth:`Draws._merge_extremes`).  Reorders each cell's rows.

    numpy's linear method: the virtual index v = (ndraws - 1) q lies between
    ranks floor(v) and floor(v) + 1, gamma = v - floor(v), and the value is
    a + (b - a) gamma, or b - (b - a)(1 - gamma) when gamma >= 0.5.  At or
    past the last rank numpy reads the last value twice and counts gamma
    from index -1.
    """
    rows = kept.shape[0]
    v = (ndraws - 1) * q
    below = math.floor(v)
    if v >= ndraws - 1:
        ranks, gamma = (ndraws - 1, ndraws - 1), v + 1
    else:
        ranks, gamma = (below, below + 1), v - below
    # Ranks past the kept smallest values count from the top.
    lo_kept, _ = _extreme_counts(ndraws)
    first, second = (r if r < lo_kept else r - (ndraws - rows) for r in ranks)
    kept.partition(second, axis=0)
    b = kept[second]
    a = b if first == second else kept[:second].max(axis=0)
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def _cell_summaries(draws: Draws):
    """Means and bands of the curve and covariance cells from the running
    sums and order statistics: the curve means, lower and upper bands
    (n, K), then the covariance's (K, K)."""
    ndraws, K = draws.mu.shape
    split = draws.cell_sums.size - K * (K + 1) // 2
    kept = draws.extremes[: draws._filled]
    # The sums add the draws in sweep order, as mean(axis=0) does.
    cells = [draws.cell_sums / ndraws]
    cells += [_quantile_of_extremes(kept, ndraws, q) for q in BAND_PROBS]
    return (
        *(c[:split].reshape(-1, K) for c in cells),
        *(unpack_lower(c[split:]) for c in cells),
    )


def summarize_draws(draws: Draws, basis=None) -> dict[str, np.ndarray]:
    """Posterior means, 95% bands and the cross-curve SE covariance of the
    curve, mean and covariance draws, keyed by their :class:`SmoothResult`
    field names.

    Draws that keep order statistics (no basis) give the curve and
    covariance means and bands from them, bit for bit as ``mean`` and
    ``np.quantile`` over the draws would; only the mean's band reads its
    draws.  Draws that keep their coefficients give every band from the
    draws.  With ``basis`` (E x K) these summarize the grid-space draws
    B zeta, B mu and B Sigma B^T: means exactly as B times the coefficient
    means, bands from the image draws in blocks.  Every band shares one
    work buffer of about :data:`CHUNK_BYTES`.
    """
    ndraws, K = draws.mu.shape
    mu = draws.mu.mean(axis=0)
    if draws.coef is None:
        if draws.extremes is None:
            raise ValueError("these draws keep no summaries: they were allocated without them")
        if basis is not None:
            raise ValueError("bands through a basis need the draws; these keep order statistics")
        z, z_cl, z_ul, sigma, sigma_cl, sigma_ul = _cell_summaries(draws)
        mu_cl, mu_ul = credible_band(draws.mu[:, None, :])
    else:
        n = draws.coef.shape[1]
        E = K if basis is None else basis.shape[0]
        z = draws.coef.mean(axis=0)
        sigma = unpack_lower(draws.Sigma.mean(axis=0))
        if basis is not None:
            z = z @ basis.T
            mu = basis @ mu
            sigma = basis @ sigma @ basis.T
        work = _band_work(ndraws, max(n, E) * E)
        z_cl, z_ul = credible_band(draws.coef, right=basis, work=work)
        mu_cl, mu_ul = credible_band(draws.mu[:, None, :], right=basis, work=work)
        sigma_cl, sigma_ul = _sigma_band(draws.Sigma, basis, work)
    dev = z - z.mean(axis=0)
    return dict(
        Z=z,
        Z_CL=z_cl,
        Z_UL=z_ul,
        mu=mu,
        mu_CI=np.concatenate([mu_cl, mu_ul]),
        Sigma=sigma,
        Sigma_CL=sigma_cl,
        Sigma_UL=sigma_ul,
        Sigma_SE=dev.T @ dev / max(z.shape[0] - 1, 1),
    )


def scalar_summary(draws: np.ndarray):
    """Posterior mean and 95% interval of a scalar chain."""
    draws = np.asarray(draws, dtype=float)
    return float(draws.mean()), np.quantile(draws, BAND_PROBS)


@dataclass
class SmoothResult:
    """Posterior estimates from one smoothing run.

    Curve-level summaries live on ``grid``: the pooled grid for the
    full-grid sampler, the evaluation grid for the basis-approximated one.
    The basis-approximated sampler additionally fills the observed-grid and
    coefficient-space fields, the working grid ``tau`` and the ``knots``
    from which basis rows at any points can be rebuilt.
    """

    method: str
    grid: np.ndarray
    Z: np.ndarray
    Z_CL: np.ndarray
    Z_UL: np.ndarray
    mu: np.ndarray
    mu_CI: np.ndarray
    Sigma: np.ndarray
    Sigma_CL: np.ndarray
    Sigma_UL: np.ndarray
    Sigma_SE: np.ndarray
    rn: float
    rn_CI: np.ndarray
    rs: float
    rs_CI: np.ndarray
    rho: float | None = None
    nu: float | None = None
    pmin_vec: np.ndarray | None = None
    runtime_seconds: float = 0.0

    # Basis-approximated sampler only: observed-grid and coefficient-space
    # summaries, the working grid and the knots.
    tau: np.ndarray | None = None
    Zt: list[np.ndarray] | None = None
    Zt_CL: list[np.ndarray] | None = None
    Zt_UL: list[np.ndarray] | None = None
    Zeta: np.ndarray | None = None
    Zeta_CL: np.ndarray | None = None
    Zeta_UL: np.ndarray | None = None
    Sigma_zeta: np.ndarray | None = None
    Sigma_zeta_CL: np.ndarray | None = None
    Sigma_zeta_UL: np.ndarray | None = None
    Sigma_zeta_SE: np.ndarray | None = None
    mu_zeta: np.ndarray | None = None
    mu_zeta_CI: np.ndarray | None = None
    knots: np.ndarray | None = None
