"""Seeded sampling primitives and SPD-matrix plumbing shared by the samplers.

Every stochastic routine in the package draws through :class:`RngStream`,
so a (seed, stream id) pair pins the full output of a run.  Dense
covariance matrices travel as :class:`SpdMatrix`, which carries the lower
Cholesky factor, records any diagonal ridge that was needed to factor, and
caches its inverse once asked for it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

__all__ = [
    "FactorizationError",
    "RngStream",
    "SpdMatrix",
    "cho_factor_lower",
    "cho_solve_batched",
    "cho_solve_lower",
    "cholesky_with_jitter",
    "pseudo_inverse",
    "sample_gamma",
    "sample_inverse_wishart",
    "sample_mvn_canonical",
]

# Ridge schedule, relative to the mean diagonal of the target matrix: the
# powers of ten from JITTER_BASE to JITTER_MAX.
JITTER_BASE = 1e-10
JITTER_MAX = 1e-4

# The largest asymmetry SpdMatrix.from_matrix accepts, relative to the
# largest magnitude of the matrix (at least 1).
SYM_TOL = 1e-12


_FLAPACK = "scipy.linalg._flapack"
_LAPACK_ROUTINES = ("potrf", "potrs", "trtrs", "trtri", "gtsv", "pbtrf", "pbtrs")


def _flapack_spec():
    """Where scipy keeps its compiled LAPACK module, or None if not found."""
    import scipy

    paths = [os.path.join(path, "linalg") for path in scipy.__path__]
    return importlib.machinery.PathFinder.find_spec(_FLAPACK, paths)


def _flapack():
    """scipy's compiled LAPACK module, ``scipy.linalg._flapack``.

    It is executed by itself, without the scipy.linalg package around it
    (which also loads scipy.sparse): that costs a few MB of memory and
    milliseconds, not tens of each.  The module is registered under its
    own name, so a later ``import scipy.linalg`` finds and reuses it.  A
    scipy whose module cannot be located is imported the ordinary way.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    spec = _flapack_spec()
    if spec is None:
        return importlib.import_module(_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_FLAPACK]
        raise
    return module


@lru_cache(maxsize=1)
def _lapack() -> SimpleNamespace:
    """The package's LAPACK routines in double precision: Cholesky factor
    and solve, triangular solve and inverse, tridiagonal solve, and banded
    Cholesky factor and solve.

    They are the objects ``scipy.linalg.lapack.get_lapack_funcs`` returns,
    called with the arguments scipy.linalg would pass, so the same bits
    come out; callers do scipy's input checks themselves (finite inputs,
    the ``info`` codes).  The scipy.linalg wrappers' per-call dispatch costs
    more than the arithmetic at the sizes a Gibbs sweep works on.  Resolved
    on first use, so that a command that factors nothing (``diagnose``)
    loads no scipy, and through :func:`_flapack`, so that none loads
    scipy.linalg.
    """
    module = _flapack()
    return SimpleNamespace(**{name: getattr(module, "d" + name) for name in _LAPACK_ROUTINES})


class FactorizationError(np.linalg.LinAlgError):
    """A matrix stayed non-positive-definite through the full ridge schedule."""


def _check_finite(*arrays) -> None:
    """Raise ``ValueError`` as scipy.linalg does when an array holds an inf or NaN."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _lapack_info(info: int, routine: str) -> None:
    """Raise on a negative LAPACK ``info``: an argument the caller got wrong."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")


def cho_factor_lower(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a finite SPD ``mat`` (Fortran-ordered, upper
    triangle zeroed), bit-identical to ``scipy.linalg.cholesky(mat, lower=True)``.

    Raises :class:`numpy.linalg.LinAlgError` when ``mat`` is not positive
    definite; no ridge is tried (see :func:`cholesky_with_jitter`).
    """
    _check_finite(mat)
    chol, info = _lapack().potrf(mat, lower=1, clean=1)
    _lapack_info(info, "potrf")
    if info:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    return chol


def cho_solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(chol chol^T) x = b`` for a lower factor ``chol``, bit-identical
    to ``scipy.linalg.cho_solve((chol, True), b)``."""
    _check_finite(chol, b)
    x, info = _lapack().potrs(chol, b, lower=1)
    _lapack_info(info, "potrs")
    return x


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


def cholesky_with_jitter(mat: np.ndarray, name: str = "matrix", factor=cho_factor_lower):
    """Lower Cholesky factor of ``mat``, ridging the diagonal on failure.

    The ridge starts at ``JITTER_BASE * mean(diag)`` and escalates tenfold
    up to ``JITTER_MAX * mean(diag)``.  A matrix that still fails raises
    :class:`FactorizationError` quoting the factorization's last error.
    ``factor`` computes each attempt and raises
    :class:`numpy.linalg.LinAlgError` on a matrix that is not positive
    definite; :func:`numpy.linalg.cholesky` factors without scipy.

    Returns
    -------
    (L, ridge) : (ndarray, float)
        Lower-triangular factor of ``mat + ridge * I`` and the ridge used.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {mat.shape}")
    try:
        return factor(mat), 0.0
    except np.linalg.LinAlgError as err:
        failure = err
    scale = float(np.mean(np.diag(mat)))
    if not scale > 0.0:
        scale = 1.0
    first, last = round(math.log10(JITTER_BASE)), round(math.log10(JITTER_MAX))
    ridges = [10.0**e * scale for e in range(first, last + 1)]
    eye = np.eye(mat.shape[0])
    for ridge in ridges:
        try:
            return factor(mat + ridge * eye), ridge
        except np.linalg.LinAlgError as err:
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

    :meth:`inverse` is computed from ``chol`` on first use and cached on
    the instance, so an instance must not be mutated: a changed ``mat`` or
    ``chol`` needs a new :class:`SpdMatrix`.
    """

    mat: np.ndarray
    chol: np.ndarray
    jitter: float = 0.0
    _inverse: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_matrix(cls, mat, name: str = "matrix", factor=cho_factor_lower) -> "SpdMatrix":
        """Validate symmetry, symmetrize, and factor with the ridge schedule
        (see :func:`cholesky_with_jitter` for ``factor``)."""
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"{name} must be a square 2-d array, got shape {mat.shape}")
        _check_finite(mat)
        scale = max(float(np.max(np.abs(mat))), 1.0)
        asym = float(np.max(np.abs(mat - mat.T)))
        if asym > SYM_TOL * scale:
            raise ValueError(
                f"{name} is not symmetric: max |mat - mat.T| = {asym:.3g} "
                f"exceeds {SYM_TOL:g} relative"
            )
        sym = (mat + mat.T) / 2.0
        chol, jitter = cholesky_with_jitter(sym, name=name, factor=factor)
        if jitter:
            sym = sym + jitter * np.eye(sym.shape[0])
        return cls(mat=sym, chol=chol, jitter=jitter)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def inverse(self) -> np.ndarray:
        """``mat^-1`` as ``G^T G`` with ``G = chol^-1`` (LAPACK ``trtri``),
        exactly symmetric.  Computed once; every call returns the same
        read-only array."""
        if self._inverse is None:
            _check_finite(self.chol)
            g, info = _lapack().trtri(self.chol, lower=1)
            _lapack_info(info, "trtri")
            if info:
                raise np.linalg.LinAlgError(f"singular factor: zero at diagonal {info - 1}")
            inv = g.T @ g
            inv.setflags(write=False)
            self._inverse = inv
        return self._inverse


def cho_solve_batched(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``chol[i] chol[i]^T x[i] = rhs[i]`` for every row ``i``, in place.

    ``chol`` is a stack of lower factors as :func:`numpy.linalg.cholesky`
    returns them (C-ordered), ``rhs`` an ``(n, m)`` array that is
    overwritten with the solutions and returned.  One LAPACK ``potrs`` call
    per row.
    """
    potrs = _lapack().potrs
    for i in range(rhs.shape[0]):
        # chol[i].T is a Fortran-ordered view of the upper factor L_i^T.
        rhs[i], info = potrs(chol[i].T, rhs[i], lower=0, overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError(f"Cholesky solve failed for row {i}: LAPACK info {info}")
    return rhs


def sample_mvn_canonical(prec: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Batched Gaussian draws given in canonical (precision) form.

    For each row ``i`` returns ``P_i^-1 (b[i] + L_i z[i])`` with
    ``P_i = L_i L_i^T``, which equals the mean ``P_i^-1 b[i]`` plus the
    perturbation ``L_i^-T z[i]``: a draw from N(P^-1 b, P^-1) when ``z[i]``
    is standard normal (Rue 2001).  ``prec`` is one (dim, dim) precision
    shared by every row, factored once and solved for all rows in one
    LAPACK call, or an (n, dim, dim) stack, factored in one batched
    Cholesky and solved one row at a time.

    Raises :class:`numpy.linalg.LinAlgError` when a precision is not
    positive definite.
    """
    if prec.ndim == 2:
        chol = cho_factor_lower(prec)
        return cho_solve_lower(chol, (b + z @ chol.T).T).T
    chol = np.linalg.cholesky(prec)
    return cho_solve_batched(chol, b + np.matmul(chol, z[..., None])[..., 0])


def sample_inverse_wishart(delta: float, scale: SpdMatrix, rng) -> SpdMatrix:
    """Inverse-Wishart draw in the grid-size-free shape parameterization,
    returned with its exact lower Cholesky factor.

    ``delta`` controls tail weight independently of the dimension: the
    draw has mean ``scale.mat / (delta - 2)`` whenever ``delta > 2``, for
    any dimension.  Internally the draw uses degrees of freedom
    ``dof = delta + p - 1``.

    The draw goes through the upper Bartlett factor U of W ~ Wishart(dof, I),
    W = U U^T (Smith & Hocking 1972, with the coordinates reversed): U has
    the diagonal sqrt(chi2(dof - p + 1 + k)), k = 0 .. p - 1, drawn first in
    one call, then one standard normal per entry above the diagonal, row by
    row.  With L the lower factor of the scale, T = L U^-T (one triangular
    solve) is lower-triangular with a positive diagonal and
    Sigma = T T^T ~ IW(dof, L L^T), so T is Sigma's Cholesky factor and no
    factorization is needed.  ``mat`` is formed as ``chol @ chol.T``, which
    is exactly symmetric.
    """
    gen = _generator(rng)
    if not isinstance(scale, SpdMatrix):
        scale = SpdMatrix.from_matrix(scale, name="inverse-Wishart scale")
    if not delta > 2.0:
        raise ValueError(f"delta must exceed 2 so the mean exists, got {delta}")
    p = scale.dim
    dof = delta + p - 1.0
    u = np.zeros((p, p), order="F")
    u[np.diag_indices(p)] = np.sqrt(gen.chisquare(dof - p + 1.0 + np.arange(p)))
    if p > 1:
        rows, cols = _strict_upper_indices(p)
        u[rows, cols] = gen.standard_normal(rows.size)
    # U T^T = L^T, so T^T = U^-1 L^T is upper-triangular: one LAPACK trtrs.
    chol_t, info = _lapack().trtrs(u, scale.chol.T, lower=0, trans=0)
    _lapack_info(info, "trtrs")
    if info:
        raise np.linalg.LinAlgError(f"singular Bartlett factor: zero at diagonal {info - 1}")
    chol = chol_t.T
    _check_finite(chol)
    return SpdMatrix(mat=chol @ chol.T, chol=chol)


@lru_cache(maxsize=32)
def _strict_upper_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(p, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


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
