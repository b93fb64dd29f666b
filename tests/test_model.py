"""Model assembly: shapes, protocol conformance, determinism, accounting."""

import numpy as np
import pytest

from perigate import autodiff as ad
from perigate import block as gate_block
from perigate import harness, multiscale
from perigate.errors import ConfigurationError, InputError
from perigate.model import (
    Model,
    ModelConfig,
    count_flops,
    count_params,
    encoder_strides,
)

from helpers import dense_scale_params, glu_params, micro_config, sep_scale_params


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
        # 16 (<=32px) or 32, rounded up to the next even width whose t_in
        # frames split over the three msinit branches
        assert ModelConfig(height=32, width=32).latent == 18
        assert ModelConfig(height=64, width=64).latent == 36
        assert ModelConfig(t_in=3, height=32, width=32).latent == 16
        assert ModelConfig(t_in=3, height=64, width=64).latent == 32
        assert ModelConfig(t_in=2, msinit_scales=(3, 5)).latent == 16

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
            ModelConfig(height=9, width=9, n_s=2).validate()  # not divisible by 2
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


def hand_built_alpha(model, frames, block_index):
    """Gate weights of one block on the first pass, by the explicit chain:
    encode each frame, pack, multi-scale init, then blocks 0..block_index."""
    settings = model.config
    feats = [model.encode_frame(f)[0] for f in frames]
    x = multiscale.forward(ad.pack_time(feats), model.params.msinit)
    for i in range(block_index):
        x = gate_block.forward(x, model.params.blocks[i], settings, mode="eval")
    internals = gate_block.BlockInternals()
    gate_block.forward(x, model.params.blocks[block_index], settings, mode="eval",
                       internals=internals)
    return internals.alpha.value


def rollout_model():
    """t_out > t_in (three passes) and input-dependent gates (random gate weights)."""
    cfg = micro_config(n_t=2, t_out=5)
    model = Model.build(cfg, seed=3)
    rng = np.random.default_rng(12)
    for blk in model.params.blocks:
        blk.gate_w.value = rng.standard_normal(blk.gate_w.value.shape).astype(np.float32)
    return cfg, model


class TestGateMap:
    def test_shape_and_simplex(self):
        cfg = micro_config(n_t=2)
        model = Model.build(cfg)
        internals = []
        model.predict(frames_for(cfg, seed=9), internals=internals)
        alpha = internals[1].alpha.value
        assert alpha.shape == (2, 4, 4)
        np.testing.assert_allclose(alpha.sum(axis=0), 1.0, atol=1e-6)

    def test_first_pass_matches_hand_built_chain(self):
        cfg, model = rollout_model()
        frames = frames_for(cfg, seed=10)
        internals = []
        preds = model.predict(frames, internals=internals)
        assert len(preds) == 5
        assert len(internals) == cfg.n_t  # one record per block, from pass 0 only
        for b in range(cfg.n_t):
            want = hand_built_alpha(model, frames, b)
            assert internals[b].alpha.value.dtype == want.dtype
            assert np.array_equal(internals[b].alpha.value, want)
        assert not np.array_equal(internals[0].alpha.value, internals[1].alpha.value)

    def test_dump_gates_writes_first_pass_alpha(self, tmp_path):
        cfg, model = rollout_model()
        seq = np.stack(frames_for(cfg, seed=11))
        for b in range(cfg.n_t):
            want = hand_built_alpha(model, list(seq), b)
            csv_path, _ = harness.dump_gates(model, seq, b, tmp_path / f"g{b}")
            rows = csv_path.read_text().strip().splitlines()[1:]
            expected = [",".join([str(y), str(x)] + [f"{a:.10g}" for a in want[:, y, x]])
                        for y in range(want.shape[1]) for x in range(want.shape[2])]
            assert rows == expected

    def test_bad_index(self, tmp_path, monkeypatch):
        cfg = micro_config()
        model = Model.build(cfg)

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward ran before the block index was checked")

        monkeypatch.setattr(Model, "encode_frame", no_forward)
        with pytest.raises(InputError):
            harness.dump_gates(model, np.stack(frames_for(cfg)), 5, tmp_path / "g")


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


class TestBatchAxis:
    """One graph over a minibatch equals the per-sample graphs it replaces."""

    # drop uniforms per block (rows) and sample (columns): with rate 0.3,
    # sample 0 drops block 0, sample 1 drops block 1, sample 2 keeps both
    DRAWS = np.array([[0.1, 0.9, 0.5], [0.8, 0.2, 0.95]])

    def test_batched_loss_and_grads_equal_per_sample_mean(self):
        from perigate import harness
        from perigate.data import gen_bouncing

        cfg = micro_config(n_t=2, drop_path=0.3)
        model = Model.build(cfg, seed=3, dtype=np.float64)
        seqs = gen_bouncing(seed=6, num_sequences=3, frames=4, height=8, width=8)
        assert (self.DRAWS < 0.3).any() and (self.DRAWS >= 0.3).any()

        def loss_and_grads(batch, draw):
            model.store.zero_grads()
            out, tape = ad.forward_traced(lambda: harness._batch_loss(model, batch, draw), [])
            ad.backward(tape, np.asarray(1.0))
            return float(out.value), {n: model.store.grad(n).copy() for n in model.store.names()}

        loss, grads = loss_and_grads(seqs, lambda p, b: self.DRAWS[b])
        singles = [loss_and_grads(seqs[j], lambda p, b, j=j: float(self.DRAWS[b, j]))
                   for j in range(3)]
        want_loss = np.mean([s[0] for s in singles])
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for name in model.store.names():
            want = np.mean([s[1][name] for s in singles], axis=0)
            # relative to the gradient's largest entry, so cancelled entries do not count
            assert np.abs(grads[name] - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_scaling_one_sample_leaves_others_bitwise(self):
        from perigate import block as gate_block
        from perigate import ops
        from perigate.rng import INIT, stream

        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 4, 6, 6))
        scaled = x.copy()
        scaled[1] *= 100.0
        gamma, beta = rng.standard_normal(4), rng.standard_normal(4)
        glu = glu_params(rng, 4, 8)
        settings = ModelConfig(kernels=(3, 5))
        params = gate_block.init_params(ad.ParamStore(), "blk", 4, settings,
                                        stream(0, INIT), np.float64)
        for fn in (lambda a: ops.group_norm_parts(a, gamma, beta, 2)[0],
                   lambda a: ops.glu(a, *glu)[0],
                   lambda a: ad.group_norm(a, gamma, beta, 2).value,
                   lambda a: ad.glu(a, *glu).value,
                   lambda a: gate_block.forward(ad.Var(a), params, settings).value):
            before, after = fn(x), fn(scaled)
            assert not np.array_equal(before[1], after[1])
            for j in (0, 2):
                assert before[j].tobytes() == after[j].tobytes()

    def test_predict_accepts_batched_frames(self):
        cfg = micro_config()
        model = Model.build(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(13)
        batch = [rng.random((2, 1, 8, 8)) for _ in range(cfg.t_in)]
        preds = model.predict(batch)
        assert [p.value.shape for p in preds] == [(2, 1, 8, 8)] * cfg.t_out
        for j in range(2):
            single = model.predict([f[j] for f in batch])
            for p, s in zip(preds, single):
                np.testing.assert_allclose(p.value[j], s.value, rtol=1e-13, atol=1e-13)

    def test_rejects_bad_frame_rank(self):
        cfg = micro_config()
        model = Model.build(cfg, seed=0, dtype=np.float64)
        with pytest.raises(InputError):
            model.predict([np.zeros((1, 2, 1, 8, 8))] * cfg.t_in)
