"""Property tests of the smoothing spline: the fit is affine-equivariant, and
the banded kernels give the doubles of the scipy.sparse/scipy.linalg
formulation in `css_reference.py`."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import css_reference  # noqa: E402
from gpcurve import css  # noqa: E402
from gpcurve.css import css_fit, default_lambda_grid  # noqa: E402


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(4, 40),
    seed=st.integers(0, 2**32 - 1),
    lamb=st.floats(0.05, 0.995),
    a=st.floats(-20.0, 20.0),
    b=st.floats(-100.0, 100.0),
)
def test_fitting_an_affine_image_gives_the_affine_image_of_the_fit(n, seed, lamb, a, b):
    # The smoother is linear and reproduces constants, so fitting a*y + b
    # gives a*fit(y) + b up to rounding.
    gen = np.random.default_rng(seed)
    grid = np.cumsum(gen.uniform(0.05, 1.0, n))
    y = np.sin(grid) + gen.standard_normal(n)
    fit = css_fit(grid, y, lamb).fitted
    image = css_fit(grid, a * y + b, lamb).fitted
    scale = abs(a) * np.abs(y).max() + abs(b)
    np.testing.assert_allclose(image, a * fit + b, rtol=0.0, atol=1e-10 * max(scale, 1.0))


def _grid(gen, n, unit):
    grid = np.cumsum(gen.uniform(0.05, 1.0, n))
    return (grid - grid[0]) / (grid[-1] - grid[0]) if unit else grid


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(4, 600), seed=st.integers(0, 2**32 - 1), unit=st.booleans())
# Q^T Q's columns are solved 256 at a time: a one-column last chunk, two
# full chunks and three chunks.
@example(n=259, seed=1, unit=True)
@example(n=514, seed=2, unit=False)
@example(n=600, seed=3, unit=True)
def test_banded_kernels_equal_the_sparse_formulation_bit_for_bit(n, seed, unit):
    gen = np.random.default_rng(seed)
    grid = _grid(gen, n, unit)
    y = np.sin(6.0 * grid / grid[-1]) + gen.standard_normal(n)
    q, r = css._spline_system(grid)
    qtq = css._gram(q)
    ref_q, ref_r = css_reference.spline_system(grid)
    ref_qtq = css_reference.gram(ref_q)
    candidates = default_lambda_grid()
    for lamb in candidates:
        alpha = (1.0 - lamb) / lamb
        fitted, factor = css._penalized_solve(y, alpha, q, r, qtq)
        ref_fitted, ref_factor = css_reference.penalized_solve(y, alpha, ref_q, ref_r, ref_qtq)
        np.testing.assert_array_equal(fitted, ref_fitted)
        np.testing.assert_array_equal(factor, ref_factor)
        assert css._smoother_trace(n, alpha, factor, qtq) == css_reference.smoother_trace(
            n, alpha, ref_factor, ref_qtq
        )
    scores = css_reference.css_gcv_scores(grid, y, candidates)
    best = int(np.argmin([score for _, score in scores]))
    fit, lamb = css.css_gcv(grid, y, candidates)
    assert lamb == candidates[best] and fit.gcv == scores[best][1]
    np.testing.assert_array_equal(fit.fitted, scores[best][0])
    np.testing.assert_array_equal(
        css.NaturalCubic(grid, y).coeffs, css_reference.natural_cubic_coeffs(grid, y)
    )
