"""Property test of the regression design: a curve's rows do not depend on
which other curves are fitted with it."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gpcurve.fregress import (  # noqa: E402
    concurrent_design,
    fit_concurrent,
    fit_scalar_on_function,
    predict,
    scalar_design,
)

GRID = np.linspace(0.0, 1.5, 40)
N = 30
_GEN = np.random.default_rng(7)
X = np.cumsum(_GEN.standard_normal((N, GRID.size)), axis=1) / 5.0 + np.sin(3.0 * GRID)
Y_SCALAR = _GEN.standard_normal(N)
Y_FUNC = X * GRID**2 + _GEN.standard_normal(X.shape)

MODELS = {
    "scalar": (scalar_design, fit_scalar_on_function, Y_SCALAR),
    "concurrent": (concurrent_design, fit_concurrent, Y_FUNC),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(MODELS)),
    train=st.sets(st.integers(0, N - 1), min_size=4, max_size=N).map(sorted),
    lamb=st.floats(0.01, 1.0),
)
def test_fit_on_selected_rows_equals_fit_on_a_design_of_the_selected_curves(kind, train, lamb):
    build, fit_model, y = MODELS[kind]
    design = build(GRID, X)
    train = np.asarray(train)
    taken = fit_model(design.take(train), y[train], lamb=lamb)
    rebuilt = fit_model(build(GRID, X[train]), y[train], lamb=lamb)
    # The scalar design's projection solves over another number of columns,
    # so the two agree to rounding, not bit for bit.
    np.testing.assert_allclose(taken.alpha, rebuilt.alpha, rtol=1e-10)
    np.testing.assert_allclose(taken.fitted, rebuilt.fitted, rtol=1e-10)
    np.testing.assert_allclose(predict(taken, design.take(train)), taken.fitted, rtol=1e-10)
