"""Property test of bhm's pathwise signal draw on grid subsets.

With the prior-path and noise normals set to zero, Matheron's rule returns
the conditional mean, so the step must reproduce the canonical-form
posterior mean ``(Sigma^-1 + D_i / s2)^-1 (Sigma^-1 mu + x_i / s2)``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gpcurve.bhm import GibbsState, bhm_step_signals, build_context  # noqa: E402
from gpcurve.datagen import Curve, FunctionalDataset  # noqa: E402
from gpcurve.empirical import HyperParams  # noqa: E402
from gpcurve.kernels import CovarianceModel  # noqa: E402
from gpcurve.stochastic import SpdMatrix  # noqa: E402

# Stands in for an RngStream: every standard normal it hands out is zero.
ZERO_NORMALS = SimpleNamespace(generator=SimpleNamespace(standard_normal=np.zeros))


@st.composite
def ragged_subsets(draw):
    """Observation index sets on a pooled grid of p points: one curve sees
    every point, one sees a single point, the others random subsets."""
    p = draw(st.integers(2, 9))
    points = st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True)
    others = draw(st.lists(points, min_size=0, max_size=4))
    single = draw(st.integers(0, p - 1))
    subsets = [list(range(p)), [single]] + others
    order = draw(st.permutations(range(len(subsets))))
    return p, [np.array(sorted(subsets[k])) for k in order]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    layout=ragged_subsets(),
    seed=st.integers(0, 2**32 - 1),
    noise_var=st.sampled_from([1e-3, 0.05, 1.0, 7.0]),
)
def test_zeroed_normals_give_the_canonical_posterior_mean(layout, seed, noise_var):
    p, subsets = layout
    gen = np.random.default_rng(seed)
    grid = np.cumsum(gen.uniform(0.1, 1.0, p))
    values = gen.standard_normal((len(subsets), p))
    data = FunctionalDataset(
        curves=[Curve(grid=grid[idx], raw=v[idx]) for idx, v in zip(subsets, values)]
    )
    a = gen.standard_normal((p, p))
    sigma = SpdMatrix.from_matrix(a @ a.T / p + 0.5 * np.eye(p))
    hyper = HyperParams(
        grid=grid,
        mu0=np.zeros(p),
        A=CovarianceModel(kind="empirical", s2=1.0, base=sigma, grid=grid),
        c=1.0,
        delta=5.0,
        a_eps=1.0,
        b_eps=1.0,
        a_s=1.0,
        b_s=1.0,
    )
    ctx = build_context(data, hyper)
    assert not ctx.common
    mu = gen.standard_normal(p)
    state = GibbsState(
        coef=np.zeros((ctx.n, p)), mu=mu, Sigma=sigma, sigma_eps2=noise_var, sigma_s2=1.0
    )

    got = bhm_step_signals(state, ctx, ZERO_NORMALS)

    sig_inv = np.linalg.inv(sigma.mat)
    for i, idx in enumerate(subsets):
        mask = np.zeros(p)
        mask[idx] = 1.0
        x = np.zeros(p)
        x[idx] = values[i, idx]
        want = np.linalg.solve(sig_inv + np.diag(mask) / noise_var, sig_inv @ mu + x / noise_var)
        np.testing.assert_allclose(got[i], want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
