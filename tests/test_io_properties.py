"""Property tests of the file formats: datasets, sidecar matrices and
results estimates survive a write and a read bit for bit, signed zeros,
subnormals and values near the largest double included."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gpcurve.datagen import Curve, FunctionalDataset  # noqa: E402
from gpcurve.io import (  # noqa: E402
    RunConfig,
    load_dataset,
    load_results,
    read_matrix,
    save_dataset,
    save_results,
    write_matrix,
)
from gpcurve.results import SmoothResult  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308, 1.7976931348623157e308]
finite = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
# Sidecars are raw doubles, so every bit pattern must come back.
any_double = st.one_of(finite, st.sampled_from([np.inf, -np.inf, np.nan]))


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(bits(got), bits(want))


def vectors(size, elements=finite):
    return st.lists(elements, min_size=size, max_size=size).map(np.array)


@st.composite
def curves(draw):
    grid = np.unique(draw(st.lists(finite, min_size=1, max_size=6)))
    truth = draw(st.one_of(st.none(), vectors(grid.size)))
    return Curve(grid=grid, raw=draw(vectors(grid.size)), truth=truth)


@SETTINGS
@given(st.lists(curves(), min_size=1, max_size=4), st.booleans())
def test_dataset_round_trip_is_bit_exact(tmp_path_factory, curve_list, with_mean):
    path = tmp_path_factory.mktemp("io") / "d.json"
    data = FunctionalDataset(curves=curve_list)
    if with_mean:
        data.true_mean = -data.pooled_grid
    save_dataset(path, data, domain=(-1e308, 1e308))
    back, meta = load_dataset(path)
    assert meta["domain"] == [-1e308, 1e308]
    assert len(back.curves) == len(curve_list)
    for got, want in zip(back.curves, curve_list):
        assert_bits_equal(got.grid, want.grid)
        assert_bits_equal(got.raw, want.raw)
        assert (got.truth is None) == (want.truth is None)
        if want.truth is not None:
            assert_bits_equal(got.truth, want.truth)
    assert_bits_equal(back.pooled_grid, data.pooled_grid)
    if with_mean:
        assert_bits_equal(back.true_mean, data.true_mean)


@SETTINGS
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.data(),
)
def test_matrix_round_trip_is_bit_exact_and_a_cut_file_is_refused(
    tmp_path_factory, rows, cols, data
):
    path = tmp_path_factory.mktemp("io") / "m.bin"
    mat = data.draw(vectors(rows * cols, any_double)).reshape(rows, cols)
    write_matrix(path, mat)
    assert_bits_equal(read_matrix(path), mat)

    raw = path.read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError, match="truncated|not a matrix sidecar"):
        read_matrix(path)


@SETTINGS
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4), st.data())
def test_results_estimates_round_trip_bit_exact(tmp_path_factory, n, p, data):
    path = tmp_path_factory.mktemp("io") / "res.json"

    def array(*shape):
        return data.draw(vectors(int(np.prod(shape)))).reshape(shape)

    result = SmoothResult(
        method="bhm",
        grid=np.arange(p, dtype=float),
        Z=array(n, p),
        Z_CL=array(n, p),
        Z_UL=array(n, p),
        mu=array(p),
        mu_CI=array(2, p),
        Sigma=array(p, p),
        Sigma_CL=array(p, p),
        Sigma_UL=array(p, p),
        Sigma_SE=array(p, p),
        rn=data.draw(finite),
        rn_CI=array(2),
        rs=data.draw(finite),
        rs_CI=array(2),
        rho=data.draw(finite),
        nu=data.draw(finite),
        pmin_vec=array(n),
    )
    fitted = FunctionalDataset([Curve(grid=result.grid, raw=np.zeros(p)) for _ in range(n)])
    save_results(path, result, RunConfig(smethod="bhm"), fitted)
    est = load_results(path)["estimates"]
    for key, value in est.items():
        want = getattr(result, key)
        assert_bits_equal(np.asarray(value, dtype=float), want)
