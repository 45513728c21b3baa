"""Property test of the smoothing spline: the fit is affine-equivariant."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gpcurve.css import css_fit  # noqa: E402


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
