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
    "row_bands",
    "scalar_summary",
    "summarize_draws",
    "unpack_lower",
]

BAND_PROBS = (0.025, 0.975)

# Bytes of the band block: every draw of as many band cells as fit, one row
# of draws per cell (at least one cell), reused by every band of a summary.
CHUNK_BYTES = 1 << 21


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
    order statistics.  Otherwise ``resid_matrix`` holds the thinned
    standardized residuals, one row per kept sweep and each curve's points
    side by side, (ndraws // resid_thin, sum of the curve sizes), and
    ``resid`` is each curve's block of its columns, a view; without
    summaries ``resid`` is empty.
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
    resid_matrix: np.ndarray | None = None
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
            draws.resid_matrix = np.empty((ndraws // resid_thin, sum(curve_sizes)))
            ends = np.cumsum(curve_sizes)
            draws.resid = np.hsplit(draws.resid_matrix, ends[:-1])
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


def _band_block(ndraws: int, cells: int) -> np.ndarray:
    """The block that every band of one summary fills in turn: one whole
    row of draws per cell, (cells, ndraws), for at most ``cells`` cells and
    at most :data:`CHUNK_BYTES` (one cell at least)."""
    return np.empty((min(cells, max(1, CHUNK_BYTES // (8 * ndraws))), ndraws))


def _draw_slices(ndraws: int, width: int):
    """Slices of the draws, each of images that take about an eighth of
    :data:`CHUNK_BYTES` at ``width`` values per draw, and of at least two
    draws when there are two: a product over one draw is a vector-matrix
    product, rounded differently."""
    step = max(2, CHUNK_BYTES // (64 * width))
    for d in range(0, ndraws, step):
        stop = d + step if ndraws - d - step != 1 else ndraws
        yield slice(d, stop)
        if stop == ndraws:
            return


def _tile_shape(R: int, C: int, cap: int, max_rows: int) -> tuple[int, int]:
    """Rows and columns of the tiles of R x C cells of at most ``cap`` cells
    and ``max_rows`` rows: whole rows when one fits, else parts of one row."""
    if C <= cap:
        return max(1, min(R, cap // C, max_rows)), C
    return 1, cap


def _two_columns(cs: slice, C: int) -> tuple[slice, slice]:
    """``cs`` widened to two columns when it holds one of two or more, and
    the part of the widened columns that ``cs`` is."""
    if cs.stop - cs.start > 1 or C < 2:
        return cs, slice(None)
    start = min(cs.start, C - 2)
    return slice(start, start + 2), slice(cs.start - start, cs.start - start + 1)


def _products(left: np.ndarray, right: np.ndarray, rs: slice, cs: slice, rows: np.ndarray) -> None:
    """Write the images ``left[k] @ right.T`` of rows ``rs`` and columns
    ``cs`` into ``rows``, one row of draws per cell, a few draws at a time.

    Every element is the one the whole-array product ``left @ right.T``
    gives.  That product forms each image as one matrix product, whose
    elements do not depend on how its rows and columns are split, so each
    row's images are one product over the draws, of at least two columns
    and two draws.  An image of one row or one column is a vector-matrix or
    matrix-vector product instead, whose elements depend on their
    position, so such images are formed whole, draw by draw.
    """
    ndraws, R, _ = left.shape
    C = right.shape[0]
    nc = cs.stop - cs.start
    if R == 1 or C == 1 or ndraws == 1:
        for ds in _draw_slices(ndraws, R * C):
            image = np.matmul(left[ds], right.T)
            for j in range(rs.stop - rs.start):
                rows[j * nc : (j + 1) * nc, ds] = image[:, rs.start + j, cs].T
            # Free this chunk before the next one is formed.
            del image
        return
    cols, keep = _two_columns(cs, C)
    for ds in _draw_slices(ndraws, cols.stop - cols.start):
        for j in range(rs.stop - rs.start):
            rows[j * nc : (j + 1) * nc, ds] = (left[ds, rs.start + j] @ right[cols].T)[:, keep].T


def _image_band(block: np.ndarray, R: int, C: int, fill, max_rows: int | None = None):
    """Pointwise 95% band (R, C) of image cells, tile by tile, row by row
    (:func:`_tile_shape`): ``fill(rs, cs, rows)`` writes the draws of the
    tile of rows ``rs`` and columns ``cs`` into ``rows``, a part of
    ``block``, one row per cell, as :func:`_products` does.  Each cell's
    band comes from its order statistics (:func:`_quantile_of_extremes`),
    bit for bit ``np.quantile`` of its draws."""
    cap, ndraws = block.shape
    tile_rows, tile_cols = _tile_shape(R, C, cap, max_rows or R)
    lo, hi = np.empty((R, C)), np.empty((R, C))
    for r in range(0, R, tile_rows):
        for c in range(0, C, tile_cols):
            rs, cs = slice(r, min(r + tile_rows, R)), slice(c, min(c + tile_cols, C))
            nc = cs.stop - cs.start
            rows = block[: (rs.stop - rs.start) * nc]
            fill(rs, cs, rows)
            lo[rs, cs], hi[rs, cs] = (
                _quantile_of_extremes(rows.T, ndraws, q).reshape(-1, nc) for q in BAND_PROBS
            )
    return lo, hi


def credible_band(draws: np.ndarray, right=None, block=None):
    """Pointwise 95% credible band of the draws ``draws[k] @ right.T``.

    ``draws`` is (ndraws, R, C); ``None`` for ``right`` is the identity.
    The band runs tile by tile through ``block``, every draw of at most
    :data:`CHUNK_BYTES` of cells, one row per cell (allocated when not
    given).  The images are formed a few draws at a time
    (:func:`_products`), so neither they nor a draws-first copy of them
    exist whole.  Each cell is bit for bit ``np.quantile`` of the images
    that the whole-array product gives.
    """
    ndraws, R, inner = draws.shape
    C = inner if right is None else right.shape[0]
    if block is None:
        block = _band_block(ndraws, R * C)
    if right is not None:
        return _image_band(block, R, C, lambda rs, cs, rows: _products(draws, right, rs, cs, rows))

    def copy(rs, cs, rows):
        nc = cs.stop - cs.start
        for j in range(rs.stop - rs.start):
            rows[j * nc : (j + 1) * nc] = draws[:, rs.start + j, cs].T

    return _image_band(block, R, C, copy)


def row_bands(draws: np.ndarray, rights) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pointwise 95% bands of each row of ``draws`` (ndraws, R, K) through
    its own matrix, row i's draws ``draws[k, i] @ rights[i].T``, as
    :func:`credible_band` gives them, all through one block."""
    block = _band_block(draws.shape[0], max(r.shape[0] for r in rights))
    bands = []
    for i, right in enumerate(rights):
        lo, hi = credible_band(draws[:, i : i + 1], right=right, block=block)
        bands.append((lo[0], hi[0]))
    return bands


def _sigma_band(packed: np.ndarray, basis, block: np.ndarray):
    """Pointwise 95% band of the covariance draws ``B Sigma_k B^T`` from
    their packed lower triangles; ``None`` for ``basis`` is the identity.

    Without a basis the band runs over the packed cells and is mirrored.
    With one, each image is ``(B Sigma_k) B^T``: the left images
    ``B Sigma_k`` of a group of at least two rows (one row's is a
    vector-matrix product, rounded differently) are kept for every draw
    while the tiles of those rows are formed, and they come from a few
    unpacked draws at a time, so the K x K draws never exist together.
    Tiles hold at most ``cap // K`` rows, so the kept left images take no
    more than the block, or two rows.
    """
    if basis is None:
        lo, hi = credible_band(packed[:, None, :], block=block)
        return unpack_lower(lo[0]), unpack_lower(hi[0])
    ndraws = packed.shape[0]
    E, K = basis.shape
    max_rows = max(1, block.shape[0] // K)
    tile_rows, _ = _tile_shape(E, E, block.shape[0], max_rows)
    buffer = np.empty(ndraws * max(min(2, E), tile_rows) * K)
    held, left = None, None

    def fill(rs, cs, rows):
        nonlocal held, left
        group = rs
        if rs.stop - rs.start < min(2, E):
            start = min(rs.start - rs.start % 2, E - 2)
            group = slice(start, start + 2)
        if held != (group.start, group.stop):
            left = buffer[: ndraws * (group.stop - group.start) * K].reshape(ndraws, -1, K)
            for ds in _draw_slices(ndraws, K * K):
                np.matmul(basis[group], unpack_lower(packed[ds]), out=left[ds])
            held = (group.start, group.stop)
        _products(left, basis, slice(rs.start - group.start, rs.stop - group.start), cs, rows)

    return _image_band(block, E, E, fill, max_rows)


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
    means, bands from the image draws tile by tile.  Every band fills one
    block of at most :data:`CHUNK_BYTES` in turn (:func:`credible_band`).
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
        block = _band_block(ndraws, max(n, E) * E)
        z_cl, z_ul = credible_band(draws.coef, right=basis, block=block)
        mu_cl, mu_ul = credible_band(draws.mu[:, None, :], right=basis, block=block)
        sigma_cl, sigma_ul = _sigma_band(draws.Sigma, basis, block)
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
