"""Model assembly: shapes, protocol conformance, determinism, accounting."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigate import autodiff as ad
from perigate import block as gate_block
from perigate import harness, multiscale, ops
from perigate.data import gen_bouncing
from perigate.errors import ConfigurationError, InputError
from perigate.model import (
    Model,
    ModelConfig,
    count_flops,
    count_params,
    encoder_strides,
    frame_blocks,
)

import naive
from helpers import (
    README_MICRO,
    dense_scale_params,
    glu_params,
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
        with pytest.raises(ConfigurationError, match=r"unknown cues \['f9'\]"):
            ModelConfig(cues=("f9",)).validate()

    def test_rollout_needs_c_out_equal_to_c_in(self):
        # pass 2 would encode c_out-channel predictions with a c_in-channel encoder
        with pytest.raises(ConfigurationError, match="needs c_out 2 equal to c_in 1"):
            ModelConfig(t_in=2, t_out=3, c_in=1, c_out=2).validate()
        ModelConfig(t_in=2, t_out=2, c_in=1, c_out=2).validate()  # one pass: any c_out


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
        model.params.encoder[0].w.value = model.params.encoder[0].w.value + 1.0
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

    @pytest.mark.parametrize("n_t", [0, 2])
    def test_unknown_mode_is_refused_before_any_op(self, n_t):
        # with no gating block no drop_path runs, so the check must not rest on one
        cfg = micro_config(n_t=n_t)
        model = Model.build(cfg)
        with mock.patch.object(ad, "stack_frames", side_effect=AssertionError("op ran")), \
                pytest.raises(ConfigurationError, match="unknown mode 'bogus'"):
            model.predict(frames_for(cfg), mode="bogus")


class TestDecoder:
    def test_zero_readout_gives_constant_bias(self):
        cfg = micro_config()
        model = Model.build(cfg)
        model.params.readout_w.value = np.zeros_like(model.params.readout_w.value)
        model.params.readout_b.value = np.full(1, 0.25, dtype=np.float32)
        preds = model.predict(frames_for(cfg, seed=11))
        for p in preds:
            assert np.all(p.value == np.float32(0.25))


def hand_built_alpha(model, frames, block_index):
    """Gate weights of one block on the first pass, by the explicit chain:
    encode each frame, pack, multi-scale init, then blocks 0..block_index."""
    settings = model.config
    feats = [model.encode_frame(f)[0] for f in frames]
    x = multiscale.forward(naive.pack_time(feats), model.params.msinit)
    for i in range(block_index):
        x = gate_block.forward(x, model.params.blocks[i], settings, mode="eval")
    internals = []
    gate_block.forward(x, model.params.blocks[block_index], settings, mode="eval",
                       internals=internals)
    return internals[0].value


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
        alpha = internals[1].value
        assert alpha.shape == (2, 4, 4)
        np.testing.assert_allclose(alpha.sum(axis=0), 1.0, atol=1e-6)

    def test_first_pass_matches_hand_built_chain(self):
        cfg, model = rollout_model()
        frames = frames_for(cfg, seed=10)
        internals = []
        preds = model.predict(frames, internals=internals)
        assert len(preds) == 5
        assert len(internals) == cfg.n_t  # one map per block, from pass 0 only
        for b in range(cfg.n_t):
            want = hand_built_alpha(model, frames, b)
            assert internals[b].value.dtype == want.dtype
            assert np.array_equal(internals[b].value, want)
        assert not np.array_equal(internals[0].value, internals[1].value)

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

    def test_flops_count_the_papers_upsampled_conv(self):
        # the README micro config and the 128x128 benchmark config (t_out = t_in = 10)
        micro = ModelConfig(t_in=2, t_out=2, height=16, width=16, latent_c=6, n_s=2, n_t=2)
        kth = ModelConfig(t_in=10, t_out=10, height=128, width=128, latent_c=6, n_s=2, n_t=2)
        assert count_flops(micro) == 2_304_768
        assert count_flops(kth) == 1_326_759_936
        # a decoded frame: the 3x3 conv over the 2x upsampled map, 9 * 6 * 6 multiply-adds
        # a pixel (ops.upsample_conv2d spends 4 * 6 * 6 on its parity planes), the last
        # conv over 12 channels with the skip, and the readout
        frame = count_flops(replace(kth, t_out=2)) - count_flops(replace(kth, t_out=1))
        assert frame == 2 * (9 * 6 * 6 + 9 * 12 * 6 + 6) * 128 * 128


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
        for fn in (lambda a: ops.group_norm_act(a, gamma, beta)[0],
                   lambda a: ops.glu(a, *glu)[0],
                   lambda a: ad.group_norm_act(a, gamma, beta).value,
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


class TestFrameBlocks:
    """The encoder and decoder run on frame blocks, one call per block; every op takes
    the frame axis as more samples, so the values are those of the per-frame loop
    (``naive.model_predict``)."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_eval_bitwise_equal_to_per_frame_loop(self, data):
        t_in = data.draw(st.integers(2, 3), label="t_in")
        cfg = micro_config(t_in=t_in, t_out=data.draw(st.integers(1, 3 * t_in), label="t_out"),
                           n_s=data.draw(st.integers(1, 4), label="n_s"), n_t=2)
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        batch = data.draw(st.sampled_from([None, 1, 2, 3]), label="batch")
        n_blocks = data.draw(st.sampled_from([1, 2, t_in]), label="blocks")
        model = Model.build(cfg, seed=data.draw(st.integers(0, 3), label="seed"), dtype=dtype)
        for blk in model.params.blocks:  # input-dependent gates
            blk.gate_w.value = np.random.default_rng(1).standard_normal(
                blk.gate_w.value.shape).astype(dtype)
        rng = np.random.default_rng(2)
        shape = (cfg.c_in, cfg.height, cfg.width) if batch is None else \
            (batch, cfg.c_in, cfg.height, cfg.width)
        frames = [rng.random(shape).astype(dtype) for _ in range(t_in)]
        frame_bytes = cfg.latent * cfg.height * cfg.width * np.dtype(dtype).itemsize
        with mock.patch.object(ops, "BLOCK_BYTES", -(-t_in // n_blocks) * frame_bytes):
            assert len(frame_blocks(cfg, dtype)) == n_blocks
            got_internals, want_internals = [], []
            got = model.predict(frames, internals=got_internals)
            want = naive.model_predict(model, frames, internals=want_internals)
        assert len(got) == len(want) == cfg.t_out
        for g, w in zip(got, want):
            assert g.value.shape == w.value.shape and g.value.dtype == w.value.dtype
            assert g.value.tobytes() == w.value.tobytes()
        assert len(got_internals) == len(want_internals) == cfg.n_t
        for g, w in zip(got_internals, want_internals):
            assert g.value.tobytes() == w.value.tobytes()

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 2e-6), (np.float64, 1e-12)])
    def test_minibatch_gradients_match_per_frame_loop(self, dtype, rtol):
        # weight and affine gradients sum frames and samples in one reduction, so they
        # move by rounding only; the forward, and so the loss, is bitwise
        model = Model.build(README_MICRO, seed=7, dtype=dtype)
        seqs = gen_bouncing(seed=5, num_sequences=8, frames=4, height=16, width=16)

        def loss_and_grads():
            model.store.zero_grads()
            out, tape = ad.forward_traced(lambda: harness._batch_loss(model, seqs, None), [])
            ad.backward(tape, np.asarray(1.0, dtype=dtype))
            return out.value, {n: model.store.grad(n).copy() for n in model.store.names()}

        loss, grads = loss_and_grads()
        with mock.patch.object(Model, "predict", naive.model_predict):
            want_loss, want = loss_and_grads()
        assert loss.tobytes() == want_loss.tobytes()
        for name, w in want.items():
            assert np.abs(grads[name] - w).max() <= rtol * np.abs(w).max(), name

    def test_partitions_of_both_regimes(self):
        # one block of both frames at the README micro config, and one frame a block at
        # 128 x 128, where one call per frame is the faster form (ROADMAP)
        assert frame_blocks(README_MICRO, np.float32) == [slice(0, 2)]
        assert frame_blocks(README_MICRO, np.float64) == [slice(0, 2)]
        for cfg in (SHAPE_CONFIGS["kth"], replace(SHAPE_CONFIGS["kth"], t_out=10)):
            assert frame_blocks(cfg, np.float32) == [slice(t, t + 1) for t in range(10)]

    def test_one_encoder_and_decoder_call_per_block(self, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(Model, name)

            def wrapper(self, block, *rest):
                calls.append((name, block.shape[0]))
                return original(self, block, *rest)

            return wrapper

        for name in ("encode_frame", "decode_frame"):
            monkeypatch.setattr(Model, name, counted(name))
        model = Model.build(replace(README_MICRO, t_out=3), seed=0)
        model.predict([np.zeros((4, 1, 16, 16))] * 2)
        # two passes of two frames each; the second decodes the one frame still needed
        assert calls == [("encode_frame", 2), ("decode_frame", 2), ("encode_frame", 2),
                         ("decode_frame", 1)]

    def test_micro_step_tape_nodes(self):
        # 81 with one encoder and one decoder call per frame
        model = Model.build(README_MICRO, seed=7)
        seqs = gen_bouncing(seed=5, num_sequences=8, frames=4, height=16, width=16)
        _, tape = ad.forward_traced(lambda: harness._batch_loss(model, seqs, None), [])
        assert len(tape.nodes) == 72

    def test_rejects_frames_of_different_shapes(self):
        cfg = micro_config()
        model = Model.build(cfg, seed=0)
        with pytest.raises(InputError, match="differ in shape"):
            model.predict([np.zeros((2, 1, 8, 8)), np.zeros((3, 1, 8, 8))])
