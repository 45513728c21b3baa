"""Property tests of the averaged-knot cubic B-spline bases."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gpcurve.bsplines import WorkingGrid, build_basis, coeff_transform, eval_basis  # noqa: E402

EPS = np.finfo(float).eps


def _random_basis(L: int, seed: int, margin_lo: float, margin_hi: float):
    # Sites with gaps within a factor 20 of each other keep the collocation
    # matrix far from the conditioning limit that build_basis enforces.
    gen = np.random.default_rng(seed)
    tau = gen.uniform(-5.0, 5.0) + np.cumsum(gen.uniform(0.05, 1.0, L))
    domain = (tau[0] - margin_lo, tau[-1] + margin_hi)
    return build_basis(WorkingGrid(tau=tau, source="percentile"), domain=domain), tau


basis_args = dict(
    L=st.integers(4, 30),
    seed=st.integers(0, 2**32 - 1),
    margin_lo=st.floats(0.0, 1.0),
    margin_hi=st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**basis_args, npts=st.integers(1, 50))
def test_basis_functions_are_a_partition_of_unity(L, seed, margin_lo, margin_hi, npts):
    basis, _ = _random_basis(L, seed, margin_lo, margin_hi)
    lo, hi = basis.domain
    gen = np.random.default_rng(seed + 1)
    # Random interior points plus both ends and every distinct knot.
    at = np.concatenate([gen.uniform(lo, hi, npts), [lo, hi], np.unique(basis.knots)])
    design = eval_basis(basis, at)
    assert design.shape == (at.size, L)
    assert np.all(design >= 0.0)
    np.testing.assert_allclose(design.sum(axis=1), 1.0, rtol=0.0, atol=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**basis_args)
def test_collocation_inverse_undoes_the_collocation_matrix(L, seed, margin_lo, margin_hi):
    basis, tau = _random_basis(L, seed, margin_lo, margin_hi)
    forward, inverse = coeff_transform(basis, tau)
    assert forward.shape == inverse.shape == (L, L)
    # Backward-stable inversion leaves errors of order cond * eps.
    tol = 10.0 * L * np.linalg.cond(forward) * EPS
    np.testing.assert_allclose(inverse @ forward, np.eye(L), rtol=0.0, atol=tol)
    np.testing.assert_allclose(forward @ inverse, np.eye(L), rtol=0.0, atol=tol)
