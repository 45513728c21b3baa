"""Seeded sampling primitives and SPD-matrix plumbing shared by the samplers.

Every stochastic routine in the package draws through :class:`RngStream`,
so a (seed, stream id) pair pins the full output of a run.  Dense
covariance matrices travel as :class:`SpdMatrix`, which carries the lower
Cholesky factor and records any diagonal ridge that was needed to factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import get_lapack_funcs

__all__ = [
    "FactorizationError",
    "RngStream",
    "SpdMatrix",
    "cholesky_with_jitter",
    "pseudo_inverse",
    "sample_gamma",
    "sample_inverse_wishart",
    "sample_mvn",
    "sample_mvn_canonical",
]

# Ridge schedule, relative to the mean diagonal of the target matrix.
JITTER_BASE = 1e-10
JITTER_MAX = 1e-4

# Raw LAPACK Cholesky solve; the scipy wrappers' per-call input checks cost
# more than the solve itself at the sizes the samplers batch over.
(_potrs,) = get_lapack_funcs(("potrs",), dtype=np.float64)


class FactorizationError(np.linalg.LinAlgError):
    """A matrix stayed non-positive-definite through the full ridge schedule."""


class RngStream:
    """Deterministic random stream keyed by ``(seed, stream_id)``.

    Two streams built from the same key replay bit-identical draw
    sequences.  Distinct stream ids give statistically independent
    streams; by convention stream id indexes the MCMC chain.

    Parameters
    ----------
    seed : int
        Root seed shared by every stream of one study.
    stream_id : int
        Index of this stream, e.g. the chain number.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._key: tuple[int, ...] = (self.stream_id,)
        self.generator = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=self._key)
        )

    def substream(self, *key: int) -> "RngStream":
        """Independent child stream, e.g. one per curve or per replicate.

        Children are derived from the key, not from generator state, so a
        child is the same no matter how many draws the parent has made.
        """
        child = RngStream.__new__(RngStream)
        child.seed = self.seed
        child.stream_id = self.stream_id
        child._key = self._key + tuple(int(k) for k in key)
        child.generator = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=child._key)
        )
        return child

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self._key})"


def _generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


def cholesky_with_jitter(mat: np.ndarray, name: str = "matrix"):
    """Lower Cholesky factor of ``mat``, ridging the diagonal on failure.

    The ridge starts at ``1e-10 * mean(diag)`` and escalates tenfold up to
    ``1e-4 * mean(diag)``.  A matrix that still fails raises
    :class:`FactorizationError` quoting the leading minor LAPACK flagged.

    Returns
    -------
    (L, ridge) : (ndarray, float)
        Lower-triangular factor of ``mat + ridge * I`` and the ridge used.
    """
    mat = np.asarray(mat, dtype=float)
    scale = float(np.mean(np.diag(mat)))
    if not scale > 0.0:
        scale = 1.0
    ridges = [0.0] + [10.0**e * scale for e in range(-10, -3)]
    eye = np.eye(mat.shape[0])
    failure = None
    for ridge in ridges:
        attempt = mat + ridge * eye if ridge else mat
        try:
            return sla.cholesky(attempt, lower=True), ridge
        except sla.LinAlgError as err:
            failure = err
    raise FactorizationError(
        f"{name} is not positive definite even with ridge "
        f"{ridges[-1]:.3g}: {failure}"
    ) from failure


@dataclass
class SpdMatrix:
    """Dense SPD matrix with its lower Cholesky factor.

    ``mat`` stores the (possibly ridged) matrix so that
    ``chol @ chol.T == mat`` up to rounding; ``jitter`` records the ridge
    that was added to make the factorization succeed.
    """

    mat: np.ndarray
    chol: np.ndarray
    jitter: float = 0.0

    @classmethod
    def from_matrix(cls, mat, name: str = "matrix", sym_tol: float = 1e-12) -> "SpdMatrix":
        """Validate symmetry, symmetrize, and factor with the ridge schedule."""
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"{name} must be a square 2-d array, got shape {mat.shape}")
        scale = max(float(np.max(np.abs(mat))), 1.0)
        asym = float(np.max(np.abs(mat - mat.T)))
        if asym > sym_tol * scale:
            raise ValueError(
                f"{name} is not symmetric: max |mat - mat.T| = {asym:.3g} "
                f"exceeds {sym_tol:g} relative"
            )
        sym = (mat + mat.T) / 2.0
        chol, jitter = cholesky_with_jitter(sym, name=name)
        if jitter:
            sym = sym + jitter * np.eye(sym.shape[0])
        return cls(mat=sym, chol=chol, jitter=jitter)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``mat @ x = b`` through the cached factor."""
        return sla.cho_solve((self.chol, True), b)

    def inverse(self) -> np.ndarray:
        inv = sla.cho_solve((self.chol, True), np.eye(self.dim))
        return (inv + inv.T) / 2.0

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


def sample_mvn(mean: np.ndarray, cov, rng, size: int | None = None) -> np.ndarray:
    """Draw from MVN(mean, cov) as ``mean + L @ z`` with L the lower factor.

    ``cov`` may be an :class:`SpdMatrix` or a raw symmetric array (factored
    on the fly).  With ``size`` given, returns ``(size, dim)`` draws.
    """
    gen = _generator(rng)
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 1:
        raise ValueError("mean must be a vector")
    if not isinstance(cov, SpdMatrix):
        cov = SpdMatrix.from_matrix(cov, name="covariance")
    if cov.dim != mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: mean has {mean.shape[0]} entries, "
            f"covariance is {cov.dim}x{cov.dim}"
        )
    if size is None:
        z = gen.standard_normal(cov.dim)
        return mean + cov.chol @ z
    z = gen.standard_normal((size, cov.dim))
    return mean + z @ cov.chol.T


def sample_mvn_canonical(prec: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Batched Gaussian draws given in canonical (precision) form.

    For each ``i`` returns ``prec[i]^-1 (b[i] + L_i z[i])`` with
    ``prec[i] = L_i L_i^T``, which equals the mean ``prec[i]^-1 b[i]`` plus
    the perturbation ``L_i^-T z[i]``: a draw from N(prec^-1 b, prec^-1) when
    ``z[i]`` is standard normal (Rue 2001).  One Cholesky per precision,
    batched, then one Cholesky solve per row.

    Raises :class:`numpy.linalg.LinAlgError` when a precision is not
    positive definite.
    """
    chol = np.linalg.cholesky(prec)
    rhs = b + np.matmul(chol, z[..., None])[..., 0]
    for i in range(rhs.shape[0]):
        # chol[i].T is a Fortran-ordered view of the upper factor L_i^T.
        rhs[i], info = _potrs(chol[i].T, rhs[i], lower=0, overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError(f"Cholesky solve failed for row {i}: LAPACK info {info}")
    return rhs


def sample_inverse_wishart(delta: float, scale: SpdMatrix, rng) -> SpdMatrix:
    """Inverse-Wishart draw in the grid-size-free shape parameterization.

    ``delta`` controls tail weight independently of the dimension: the
    draw has mean ``scale.mat / (delta - 2)`` whenever ``delta > 2``, for
    any dimension.  Internally the draw uses degrees of freedom
    ``delta + p - 1`` through a Bartlett factor.
    """
    gen = _generator(rng)
    if not isinstance(scale, SpdMatrix):
        scale = SpdMatrix.from_matrix(scale, name="inverse-Wishart scale")
    if not delta > 2.0:
        raise ValueError(f"delta must exceed 2 so the mean exists, got {delta}")
    p = scale.dim
    dof = delta + p - 1.0
    # Bartlett factor A of a Wishart(dof, I) draw: X = (L A^{-T}) (L A^{-T})^T
    # is then inverse-Wishart with the requested scale, L = chol(scale).
    a = np.zeros((p, p))
    diag_df = dof - np.arange(p)
    a[np.diag_indices(p)] = np.sqrt(gen.chisquare(diag_df))
    if p > 1:
        rows, cols = np.tril_indices(p, k=-1)
        a[rows, cols] = gen.standard_normal(rows.size)
    # Y = A^{-1} L^T, so X = Y^T Y.
    y = sla.solve_triangular(a, scale.chol.T, lower=True)
    draw = y.T @ y
    draw = (draw + draw.T) / 2.0
    return SpdMatrix.from_matrix(draw, name="inverse-Wishart draw")


def sample_gamma(shape: float, rate: float, rng, size: int | None = None):
    """Gamma draw in the shape/rate parameterization (mean = shape / rate)."""
    gen = _generator(rng)
    if not shape > 0.0:
        raise ValueError(f"shape must be positive, got {shape}")
    if not rate > 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    return gen.gamma(shape, 1.0 / rate, size=size)


def pseudo_inverse(mat: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse, zeroing singular values below
    ``tol * max(singular values)``."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError("pseudo_inverse expects a 2-d array")
    return np.linalg.pinv(mat, rcond=tol)
