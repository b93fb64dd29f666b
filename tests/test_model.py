"""Model assembly: shapes, protocol conformance, determinism, accounting."""

import numpy as np
import pytest

from perigate import autodiff as ad
from perigate.errors import ConfigurationError, InputError
from perigate.model import (
    Model,
    ModelConfig,
    count_flops,
    count_params,
    dense_scale_params,
    encoder_strides,
    micro_config,
    sep_scale_params,
)


def frames_for(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random((cfg.c_in, cfg.height, cfg.width)).astype(np.float32)
            for _ in range(cfg.t_in)]


# benchmark-shaped configurations (resolution, horizons, depths per the
# standard setups; latent width is free and chosen small for speed)
SHAPE_CONFIGS = {
    "mmnist": ModelConfig(t_in=10, t_out=10, c_in=1, c_out=1, height=64, width=64,
                          latent_c=6, n_s=4, n_t=2, kernels=(9, 15, 31), drop_path=0.0),
    "taxibj": ModelConfig(t_in=4, t_out=4, c_in=2, c_out=2, height=32, width=32,
                          latent_c=6, n_s=2, n_t=2, kernels=(9, 15, 31), drop_path=0.1),
    "kth": ModelConfig(t_in=10, t_out=20, c_in=1, c_out=1, height=128, width=128,
                       latent_c=6, n_s=2, n_t=2, kernels=(9, 15, 31), drop_path=0.1),
    "kth40": ModelConfig(t_in=10, t_out=40, c_in=1, c_out=1, height=128, width=128,
                         latent_c=6, n_s=2, n_t=1, kernels=(9, 15, 31), drop_path=0.1),
    "human": ModelConfig(t_in=4, t_out=4, c_in=3, c_out=3, height=256, width=256,
                         latent_c=6, n_s=4, n_t=1, kernels=(9, 15, 31), drop_path=0.1),
}


class TestConfig:
    def test_latent_defaults(self):
        assert ModelConfig(height=32, width=32).latent == 16
        assert ModelConfig(height=64, width=64).latent == 32

    def test_downsample(self):
        assert ModelConfig(n_s=2).downsample == 2
        assert ModelConfig(n_s=4).downsample == 4
        assert ModelConfig(n_s=1).downsample == 1

    def test_encoder_strides(self):
        assert encoder_strides(4) == [1, 2, 1, 2]
        assert encoder_strides(1) == [1]

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(n_s=0).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(height=10, width=10, n_s=2).validate()  # not divisible by 2
        with pytest.raises(ConfigurationError):
            ModelConfig(latent_c=5).validate()  # odd latent
        with pytest.raises(ConfigurationError):
            ModelConfig(latent_c=16, t_in=2).validate()  # 32 channels vs 3 branches
        with pytest.raises(ConfigurationError):
            micro_config(kernels=(4,)).validate()


class TestEncoder:
    def test_taxibj_latent_shape(self):
        cfg = ModelConfig(t_in=4, c_in=2, height=32, width=32, latent_c=6, n_s=2)
        model = Model.build(cfg)
        feat, skip = model.encode_frame(np.zeros((2, 32, 32), dtype=np.float32))
        assert feat.value.shape == (6, 16, 16)
        assert skip.value.shape == (6, 32, 32)

    def test_mmnist_latent_shape(self):
        cfg = ModelConfig(t_in=10, c_in=1, height=64, width=64, latent_c=6, n_s=4, n_t=1)
        model = Model.build(cfg)
        feat, _ = model.encode_frame(np.zeros((1, 64, 64), dtype=np.float32))
        assert feat.value.shape == (6, 16, 16)

    def test_encoder_shared_across_frames(self):
        cfg = micro_config()
        model = Model.build(cfg)
        x = np.random.default_rng(0).random((1, 8, 8)).astype(np.float32)
        a, _ = model.encode_frame(x)
        model.store.var("encoder/block0/w").value = (
            model.store.value("encoder/block0/w") + 1.0
        )
        b, _ = model.encode_frame(x)
        assert not np.array_equal(a.value, b.value)  # one weight set drives every frame


class TestTranslate:
    def test_depth_zero_is_msinit_only(self):
        from perigate import multiscale

        cfg = micro_config(n_t=0)
        model = Model.build(cfg)
        z = np.random.default_rng(1).standard_normal((4, 4, 4)).astype(np.float32)
        got = model.translate(ad.Var(z))
        want = multiscale.forward(ad.Var(z), model.params.msinit)
        assert np.array_equal(got.value, want.value)

    def test_zero_layerscales_reduce_to_msinit(self):
        from perigate import multiscale

        cfg = micro_config(n_t=2)
        model = Model.build(cfg)
        for blk in model.params.blocks:
            blk.layerscale.value = np.zeros_like(blk.layerscale.value)
        z = np.random.default_rng(2).standard_normal((4, 4, 4)).astype(np.float32)
        got = model.translate(ad.Var(z))
        want = multiscale.forward(ad.Var(z), model.params.msinit)
        assert np.array_equal(got.value, want.value)

    def test_shape_preserved_depth8(self):
        cfg = micro_config(n_t=8)
        model = Model.build(cfg)
        z = np.random.default_rng(3).standard_normal((4, 4, 4)).astype(np.float32)
        assert model.translate(ad.Var(z)).value.shape == (4, 4, 4)


class TestPredictProtocol:
    @pytest.mark.parametrize("name", list(SHAPE_CONFIGS))
    def test_output_shapes(self, name):
        cfg = SHAPE_CONFIGS[name].validate()
        model = Model.build(cfg)
        preds = model.predict(frames_for(cfg))
        assert len(preds) == cfg.t_out
        for p in preds:
            assert p.value.shape == (cfg.c_out, cfg.height, cfg.width)

    def test_eval_deterministic_bitwise(self):
        cfg = micro_config()
        model = Model.build(cfg)
        frames = frames_for(cfg, seed=4)
        a = model.predict(frames)
        b = model.predict(frames)
        for x, y in zip(a, b):
            assert np.array_equal(x.value, y.value)

    def test_rollout_prefix_matches_single_pass(self):
        base = micro_config(t_out=2)
        model = Model.build(base)
        frames = frames_for(base, seed=5)
        short = model.predict(frames)
        long_model = Model(micro_config(t_out=4), model.store, model.params, model.dtype)
        extended = long_model.predict(frames)
        assert len(extended) == 4
        for a, b in zip(short, extended[:2]):
            assert np.array_equal(a.value, b.value)

    def test_slicing_matches_prefix(self):
        base = micro_config(t_out=2)
        model = Model.build(base)
        frames = frames_for(base, seed=6)
        full = model.predict(frames)
        sliced_model = Model(micro_config(t_out=1), model.store, model.params, model.dtype)
        sliced = sliced_model.predict(frames)
        assert len(sliced) == 1
        assert np.array_equal(sliced[0].value, full[0].value)

    def test_kth_rollout_is_one_extra_pass(self):
        # t_out = 2 * t_in: exactly two passes, prefix equal to the single pass
        cfg = micro_config(t_in=2, t_out=4)
        model = Model.build(cfg)
        preds = model.predict(frames_for(cfg, seed=7))
        assert len(preds) == 4

    def test_wrong_frame_count(self):
        cfg = micro_config()
        model = Model.build(cfg)
        with pytest.raises(InputError):
            model.predict(frames_for(cfg)[:1])

    def test_uneven_rollout(self):
        cfg = micro_config(t_in=2, t_out=3)
        model = Model.build(cfg)
        preds = model.predict(frames_for(cfg, seed=8))
        assert len(preds) == 3


class TestDecoder:
    def test_zero_readout_gives_constant_bias(self):
        cfg = micro_config()
        model = Model.build(cfg)
        model.store.var("decoder/readout/w").value = np.zeros_like(
            model.store.value("decoder/readout/w")
        )
        model.store.var("decoder/readout/b").value = np.full(1, 0.25, dtype=np.float32)
        preds = model.predict(frames_for(cfg, seed=11))
        for p in preds:
            assert np.all(p.value == np.float32(0.25))


class TestGateMap:
    def test_shape_and_simplex(self):
        cfg = micro_config(n_t=2)
        model = Model.build(cfg)
        alpha = model.gate_map(frames_for(cfg, seed=9), 1)
        assert alpha.shape == (2, 4, 4)
        np.testing.assert_allclose(alpha.sum(axis=0), 1.0, atol=1e-6)

    def test_bad_index(self):
        cfg = micro_config()
        model = Model.build(cfg)
        with pytest.raises(InputError):
            model.gate_map(frames_for(cfg), 5)


class TestCounting:
    def test_separable_vs_dense_scale(self):
        assert sep_scale_params(31, 1) == 62
        assert dense_scale_params(31, 1) == 961
        assert dense_scale_params(31, 1) / sep_scale_params(31, 1) == 15.5

    def test_param_count_matches_store(self):
        cfg = micro_config()
        model = Model.build(cfg)
        assert count_params(cfg) == model.store.num_scalars()

    def test_doubling_width_quadruples_pointwise(self):
        # pointwise Cout x Cin cost is quadratic in the packed width
        a = micro_config(latent_c=2)
        b = micro_config(latent_c=4)
        pa = 2 * a.packed_channels * (a.expansion * a.packed_channels)
        pb = 2 * b.packed_channels * (b.expansion * b.packed_channels)
        assert pb == 4 * pa

    def test_zero_translator_depth_sum_of_parts(self):
        whole = count_params(micro_config(n_t=0))
        one_block = count_params(micro_config(n_t=1))
        two_blocks = count_params(micro_config(n_t=2))
        per_block = one_block - whole
        assert two_blocks == whole + 2 * per_block

    def test_flops_positive_and_monotonic(self):
        small = count_flops(micro_config())
        wider = count_flops(micro_config(latent_c=4))
        deeper = count_flops(micro_config(n_t=3))
        assert 0 < small < wider
        assert small < deeper

    def test_flops_scale_with_horizon(self):
        base = count_flops(micro_config(t_out=1))
        double = count_flops(micro_config(t_out=2))
        assert double > base


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_computes_in_its_dtype(self, dtype):
        cfg = micro_config(n_t=2)
        model = Model.build(cfg, seed=0, dtype=dtype)
        frames = [f.astype(dtype) for f in frames_for(cfg, seed=5)]

        def loss(*fs):
            preds = model.predict(list(fs), mode="eval")
            return ad.mean_all(ad.mul(preds[-1], preds[-1]))

        out, tape = ad.forward_traced(loss, frames)
        assert {node.value.dtype for node in tape.nodes} == {np.dtype(dtype)}
        ad.backward(tape, np.asarray(1.0, dtype=dtype))
        for name in model.store.names():
            assert model.store.grad(name).dtype == dtype, name
        assert {p.value.dtype for p in model.predict(frames)} == {np.dtype(dtype)}


class TestEndToEndGradients:
    def test_micro_model_grad_check(self):
        cfg = micro_config()
        model = Model.build(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(10)
        f0 = ad.Var(rng.random((1, 8, 8)))
        f1 = ad.Var(rng.random((1, 8, 8)))
        err = ad.grad_check(
            lambda a, b, *ps: ad.concat_channels(model.predict([a, b], mode="eval")),
            [f0, f1] + model.store.variables(),
        )
        assert err < 1e-5
