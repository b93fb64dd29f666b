"""Multi-scale init: branch semantics and block-diagonal independence."""

import numpy as np
import pytest

from perigate import autodiff as ad
from perigate import multiscale
from perigate.autodiff import ParamStore
from perigate.errors import ConfigurationError
from perigate.rng import INIT, stream


def build(channels=6, scales=(3, 5, 7), seed=0):
    store = ParamStore()
    params = multiscale.init_params(
        store, "ms", channels, scales, stream(seed, INIT), np.float64
    )
    return store, params


def test_zero_kernels_identity_branch():
    store, params = build()
    b = params[0]
    b.sep_h.value = np.zeros_like(b.sep_h.value)
    b.sep_v.value = np.zeros_like(b.sep_v.value)
    b.dw.value = np.zeros_like(b.dw.value)
    z = np.random.default_rng(0).random((6, 5, 5))
    out = multiscale.branch_forward(ad.Var(z), b)
    assert np.array_equal(out.value, z)


def test_identity_separable_doubles():
    store, params = build(scales=(3,), channels=3)
    b = params[0]
    ident = np.zeros_like(b.sep_h.value)
    ident[:, 1] = 1.0
    b.sep_h.value = ident.copy()
    b.sep_v.value = ident.copy()
    b.dw.value = np.zeros_like(b.dw.value)
    z = np.random.default_rng(1).random((3, 4, 4))
    out = multiscale.branch_forward(ad.Var(z), b)
    np.testing.assert_allclose(out.value, 2.0 * z, atol=1e-15)


def test_branch_matches_composed_primitives():
    from perigate import ops

    store, params = build(channels=4, scales=(3, 5))
    b = params[1]
    z = np.random.default_rng(2).standard_normal((4, 6, 6))
    got = multiscale.branch_forward(ad.Var(z), b).value
    sep = ops.sep_conv_parts(z, b.sep_h.value, b.sep_v.value)[0]
    want = sep + ops.dwconv_2d(z, b.dw.value) + z
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_forward_shapes_and_blocks():
    store, params = build(channels=48, scales=(3, 5, 7))
    z = np.random.default_rng(3).random((48, 4, 4))
    out = multiscale.forward(ad.Var(z), params)
    assert out.value.shape == (48, 4, 4)


def test_single_branch_identity_projection():
    store, params = build(channels=3, scales=(3,))
    b = params[0]
    b.sep_h.value = np.zeros_like(b.sep_h.value)
    b.sep_v.value = np.zeros_like(b.sep_v.value)
    b.dw.value = np.zeros_like(b.dw.value)
    b.proj_w.value = np.eye(3)
    b.proj_b.value = np.zeros(3)
    z = np.random.default_rng(4).random((3, 4, 4))
    out = multiscale.forward(ad.Var(z), params)
    np.testing.assert_allclose(out.value, z, atol=1e-15)


def test_output_block_depends_only_on_its_branch():
    store, params = build(channels=6, scales=(3, 5, 7))
    z = np.random.default_rng(5).random((6, 5, 5))
    base = multiscale.forward(ad.Var(z), params).value.copy()
    params[1].proj_w.value = params[1].proj_w.value + 0.5
    perturbed = multiscale.forward(ad.Var(z), params).value
    out_c = 2  # 6 channels over 3 branches
    assert np.array_equal(base[:out_c], perturbed[:out_c])
    assert not np.array_equal(base[out_c : 2 * out_c], perturbed[out_c : 2 * out_c])
    assert np.array_equal(base[2 * out_c :], perturbed[2 * out_c :])


def test_cross_branch_gradients_zero():
    store, params = build(channels=4, scales=(3, 5))
    z = np.random.default_rng(6).standard_normal((4, 4, 4))
    out, tape = ad.forward_traced(lambda v: multiscale.forward(v, params), [z])
    seed = np.zeros(out.value.shape)
    seed[:2] = 1.0  # only branch 0's output block
    ad.backward(tape, seed)
    assert params[0].sep_h.grad is not None
    assert params[1].sep_h.grad is None or np.all(params[1].sep_h.grad == 0)


def test_all_zero_learnables_zero_output():
    store, params = build(channels=4, scales=(3, 5))
    for b in params:
        for v in (b.sep_h, b.sep_v, b.dw, b.proj_w, b.proj_b):
            v.value = np.zeros_like(v.value)
        # identity term survives inside the branch, but zero projection kills it
    z = np.random.default_rng(7).random((4, 4, 4))
    out = multiscale.forward(ad.Var(z), params)
    assert np.all(out.value == 0.0)


def test_invalid_scales():
    with pytest.raises(ConfigurationError):
        build(channels=6, scales=(5, 3))  # not increasing
    with pytest.raises(ConfigurationError):
        build(channels=6, scales=(3, 4))  # even size
    with pytest.raises(ConfigurationError):
        build(channels=5, scales=(3, 5))  # indivisible channels


def test_gradients():
    store, params = build(channels=4, scales=(3, 5))
    z = np.random.default_rng(8).standard_normal((4, 5, 5))
    err = ad.grad_check(
        lambda v, *ps: multiscale.forward(v, params), [z] + store.variables()
    )
    assert err < 1e-6
