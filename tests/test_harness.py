"""Training loop, evaluation report, checkpoints, introspection dumps."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigate import autodiff as ad
from perigate import harness, ops, spectral
from perigate.cli import main
from perigate.config import TrainConfig, parse_config_text, serialize_config
from perigate.data import gen_bouncing
from perigate.errors import ConfigParseError, ConfigurationError, InputError, NumericError
from perigate.model import FUSIONS, GATE_ACTS, Model, ModelConfig, frame_blocks

import naive
from helpers import README_MICRO, micro_config, param, traced_peak
from naive import adam_step


def micro_train_config(**overrides):
    model = ModelConfig(t_in=2, t_out=2, c_in=1, c_out=1, height=8, width=8,
                        latent_c=6, n_s=2, n_t=1, kernels=(3, 5), drop_path=0.0)
    base = dict(model=model, epochs=2, lr=1e-3, batch=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def micro_data():
    return gen_bouncing(seed=0, num_sequences=16, frames=4, height=8, width=8)


class TestTraining:
    def test_zero_lr_leaves_params_bitwise(self, micro_data):
        cfg = micro_train_config(lr=0.0, epochs=1)

        init = dict(Model.build(cfg.model, seed=cfg.seed, dtype=np.float32).store.items())
        model, _ = harness.train(cfg, micro_data)
        for name, arr in model.store.items():
            assert arr.tobytes() == init[name].tobytes(), name

    def test_deterministic_given_seed(self, micro_data, tmp_path):
        cfg = micro_train_config(epochs=2)
        m1, h1 = harness.train(cfg, micro_data)
        m2, h2 = harness.train(cfg, micro_data)
        assert [r.loss for r in h1] == [r.loss for r in h2]
        p1, p2 = tmp_path / "a.pfgc", tmp_path / "b.pfgc"
        harness.save_model(p1, cfg, m1)
        harness.save_model(p2, cfg, m2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loss_finite_and_decreasing_trend(self, micro_data):
        cfg = micro_train_config(epochs=3)
        _, history = harness.train(cfg, micro_data)
        losses = [r.loss for r in history]
        assert all(np.isfinite(losses))
        assert losses[-1] < losses[0]

    def test_drop_path_training_runs(self, micro_data):
        cfg = micro_train_config(epochs=1)
        cfg.model.drop_path = 0.2
        _, history = harness.train(cfg, micro_data)
        assert np.isfinite(history[0].loss)

    def test_input_frames_get_no_input_gradient(self, micro_data):
        # the stacked input frames are a constant: the encoder's first conv (the one conv
        # with one input channel) computes no input gradient, and every other conv2d does.
        # An input gradient is, run by backward with a [Ci, Co, k, k] kernel, ops.conv2d
        # at stride 1 and ops.upsample_conv2d at stride 2 (the micro encoder's second conv)
        in_channels, in_backward, backward = [], [], harness.backward
        conv2d, upsample_conv2d = ops.conv2d, ops.upsample_conv2d

        def recorded_conv2d(x, w, stride=1):
            if in_backward:
                in_channels.append(("conv2d", w.shape[0]))
            return conv2d(x, w, stride)

        def recorded_upsample_conv2d(x, w, *fold):
            if in_backward:
                in_channels.append(("upsample_conv2d", w.shape[0]))
            return upsample_conv2d(x, w, *fold)

        def recorded_backward(*args):
            in_backward.append(True)
            try:
                return backward(*args)
            finally:
                in_backward.clear()

        with mock.patch.object(ops, "conv2d", recorded_conv2d), \
                mock.patch.object(ops, "upsample_conv2d", recorded_upsample_conv2d), \
                mock.patch.object(harness, "backward", recorded_backward):
            harness.train(micro_train_config(epochs=1, batch=16), micro_data)  # one step
        assert sorted(in_channels) == [("conv2d", 12), ("upsample_conv2d", 6)]

    def test_wrong_arity_drop_draw_raises_its_own_type_error(self, micro_data):
        # a TypeError inside a training step is the caller's, not an operator on a Var
        cfg = micro_train_config()
        cfg.model.drop_path = 0.2
        model = Model.build(cfg.model, seed=0)
        with pytest.raises(TypeError, match="positional argument"):
            harness._loss_and_grads(model, micro_data[:2], lambda p: np.ones(2), "step 0")

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_stochastic_depth_draws_only_when_used(self, micro_data, monkeypatch, rate):
        calls = []

        def counting_uniform(*args):
            calls.append(args)
            return harness_uniform(*args)

        harness_uniform = harness.counter_uniform
        monkeypatch.setattr(harness, "counter_uniform", counting_uniform)
        cfg = micro_train_config(epochs=1)
        cfg.model.drop_path = rate
        model, _ = harness.train(cfg, micro_data)
        # t_out <= t_in: one translator pass, one uniform per sequence and block
        expected = len(micro_data) * len(model.params.blocks) if rate > 0 else 0
        assert len(calls) == expected

    def test_data_shape_mismatch(self, micro_data):
        cfg = micro_train_config()
        cfg.model.height = 16
        cfg.model.width = 16
        with pytest.raises(InputError):
            harness.train(cfg, micro_data)

    def test_too_few_frames(self):
        cfg = micro_train_config()
        short = gen_bouncing(seed=0, num_sequences=4, frames=3, height=8, width=8)
        with pytest.raises(InputError):
            harness.train(cfg, short)

    def test_history_csv(self, micro_data, tmp_path):
        cfg = micro_train_config(epochs=2)
        _, history = harness.train(cfg, micro_data)
        path = tmp_path / "hist.csv"
        harness.write_history_csv(path, history)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 3


ADAM_SHAPES = {"b": (5,), "taps": (5, 9), "w": (4, 5, 3, 3), "unused": (3, 2)}


def adam_store(dtype):
    rng = np.random.default_rng(4)
    store = ad.ParamStore()
    for name, shape in ADAM_SHAPES.items():
        store.add(name, rng.standard_normal(shape).astype(dtype))
    return store


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_step_bitwise_equal_to_per_parameter_rule(self, dtype):
        flat, ref = adam_store(dtype), adam_store(dtype)
        opt = harness.Adam(flat, lr=3e-3)
        m = {name: np.zeros(shape, dtype=dtype) for name, shape in ADAM_SHAPES.items()}
        v = {name: np.zeros(shape, dtype=dtype) for name, shape in ADAM_SHAPES.items()}
        rng = np.random.default_rng(5)
        for t in range(1, 5):
            flat.zero_grads()
            ref.zero_grads()
            for name in ("b", "taps", "w"):  # "unused" never gets a gradient
                g = rng.standard_normal(ADAM_SHAPES[name]) * 10.0 ** rng.integers(-6, 3)
                param(flat, name).grad = g.astype(dtype)
                param(ref, name).grad = g.astype(dtype)
            opt.step()
            adam_step(ref, m, v, t, lr=3e-3)
            for name in ADAM_SHAPES:
                got, want = flat.value(name), ref.value(name)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), (t, name)
            for flat_moment, moments in ((opt.m, m), (opt.v, v)):
                want = np.concatenate(list(moments.values()), axis=None)
                assert flat_moment.dtype == dtype
                assert flat_moment.tobytes() == want.tobytes(), t

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_state_keeps_parameters_bound(self, dtype):
        # every parameter is bound once to its slice of the parameter vector; a
        # load_state writes values in place, so they stay views of it and the
        # next step starts from them
        flat, ref = adam_store(dtype), adam_store(dtype)
        opt = harness.Adam(flat, lr=3e-3)
        m = {name: np.zeros(shape, dtype=dtype) for name, shape in ADAM_SHAPES.items()}
        v = {name: np.zeros(shape, dtype=dtype) for name, shape in ADAM_SHAPES.items()}
        rng = np.random.default_rng(6)
        for t in range(1, 7):
            if t == 4:
                state = {name: rng.standard_normal(shape).astype(dtype)
                         for name, shape in ADAM_SHAPES.items()}
                flat.load_state(state)
                ref.load_state(state)
            flat.zero_grads()
            ref.zero_grads()
            for name in ("b", "taps", "w"):
                g = rng.standard_normal(ADAM_SHAPES[name]).astype(dtype)
                param(flat, name).grad = g
                param(ref, name).grad = g.copy()
            opt.step()
            adam_step(ref, m, v, t, lr=3e-3)
            for name in ADAM_SHAPES:
                assert np.shares_memory(flat.value(name), opt.params), (t, name)
                assert flat.value(name).tobytes() == ref.value(name).tobytes(), (t, name)
            assert opt.params.tobytes() == np.concatenate(
                [flat.value(name) for name in ADAM_SHAPES], axis=None).tobytes()

    def test_mixed_dtype_store_refused(self):
        store = ad.ParamStore()
        store.add("a", np.zeros(3, dtype=np.float32))
        store.add("b", np.zeros(3, dtype=np.float64))
        with pytest.raises(ConfigurationError, match="one dtype"):
            harness.Adam(store, lr=1e-3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_built_model_store_has_one_dtype(self, dtype):
        assert harness.Adam(Model.build(micro_config(), dtype=dtype).store, 1e-3).dtype == dtype


class TestAtomicCsv:
    def test_failed_history_write_keeps_target(self, tmp_path):
        path = tmp_path / "hist.csv"
        harness.write_history_csv(path, [harness.EpochRecord(1, 0.5)])
        before = path.read_bytes()
        bad = [harness.EpochRecord(1, 0.25), harness.EpochRecord(2, "not a number")]
        with pytest.raises(ValueError):
            harness.write_history_csv(path, bad)  # fails after the first row
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["hist.csv"]

    def test_failed_metrics_write_keeps_target(self, tmp_path):
        path = tmp_path / "metrics.csv"
        report = {name: 1.0 for name in harness.METRIC_NAMES}
        harness.write_metrics_csv(path, report)
        before = path.read_bytes()
        del report["flops"]  # the last row raises
        with pytest.raises(KeyError):
            harness.write_metrics_csv(path, report)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_failed_snr_sweep_write_keeps_target(self, tmp_path):
        path = tmp_path / "sweep.csv"
        spectral.write_snr_sweep_csv(path, [0.0, 0.5], [1.0, 2.0])
        before = path.read_bytes()
        with pytest.raises(ValueError):
            spectral.write_snr_sweep_csv(path, [0.0, 0.5], [3.0, "nan?"])  # second row raises
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


class TestCheckpointRoundtrip:
    def test_save_load_predict_identical(self, micro_data, tmp_path):
        cfg = micro_train_config(epochs=1)
        model, _ = harness.train(cfg, micro_data)
        path = tmp_path / "m.pfgc"
        harness.save_model(path, cfg, model)
        cfg2, model2 = harness.load_model(path)
        assert serialize_config(cfg2) == serialize_config(cfg)
        a = harness.predict_batch(model, micro_data[:2])
        b = harness.predict_batch(model2, micro_data[:2])
        assert a.tobytes() == b.tobytes()


class TestEvaluation:
    def test_report_names_and_csv(self, micro_data, tmp_path):
        cfg = micro_train_config(epochs=1)
        cfg.model.height = cfg.model.width = 16
        data = gen_bouncing(seed=1, num_sequences=6, frames=4, height=16, width=16)
        model, _ = harness.train(cfg, data)
        report = harness.evaluate(cfg, model, data)
        assert tuple(report) == harness.METRIC_NAMES
        assert len(report) == 7
        path = tmp_path / "metrics.csv"
        harness.write_metrics_csv(path, report)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 7

    def test_params_counted_on_the_live_model(self, monkeypatch):

        cfg = micro_train_config()
        cfg.model.height = cfg.model.width = 16
        model = Model.build(cfg.model, seed=0, dtype=np.float32)
        data = gen_bouncing(seed=5, num_sequences=2, frames=4, height=16, width=16)

        def no_build(*args, **kwargs):
            raise AssertionError("evaluate built a second model")

        monkeypatch.setattr(Model, "build", no_build)
        report = harness.evaluate(cfg, model, data)
        assert report["params"] == model.store.num_scalars()

    def test_identity_stub_perfect_scores(self):
        # evaluating ground truth against itself through the metric path
        from perigate import metrics

        data = gen_bouncing(seed=2, num_sequences=2, frames=4, height=16, width=16)
        gt = data[:, 2:4].astype(np.float64)
        assert metrics.mse(gt, gt) == 0.0
        assert metrics.ssim(gt, gt) == 1.0
        assert metrics.psnr(gt, gt) == metrics.PSNR_CAP_DB

    def test_report_consistent_with_direct_metric_calls(self, tmp_path):
        from perigate import metrics

        cfg = micro_train_config(epochs=1)
        cfg.model.height = cfg.model.width = 16
        data = gen_bouncing(seed=3, num_sequences=4, frames=4, height=16, width=16)
        model, _ = harness.train(cfg, data)
        report = harness.evaluate(cfg, model, data)
        preds = harness.predict_batch(model, data).astype(np.float64)
        gt = data[:, 2:4].astype(np.float64)
        assert report["mse"] == metrics.mse(preds, gt)
        assert report["mae"] == metrics.mae(preds, gt)
        assert report["ssim"] == metrics.ssim(preds, gt)


def predict_one_by_one(model, data):
    """One Model.predict per sequence on unbatched [c_in, H, W] frames."""
    m = model.config
    return np.stack([
        np.stack([p.value for p in model.predict([seq[t] for t in range(m.t_in)])])
        for seq in data
    ])


class TestBatchedPrediction:
    """predict_batch runs chunks of sequences as one graph; each prediction is
    bitwise the one its sequence gets alone."""

    @pytest.mark.parametrize("case", ["readme_micro", "rollout", "t_out_1", "one_sequence",
                                      "float64_data", "small_blocks"])
    def test_bitwise_equal_to_one_call_per_sequence(self, case):
        cfg = {"rollout": replace(README_MICRO, t_out=5),
               "t_out_1": replace(README_MICRO, t_out=1)}.get(case, README_MICRO)
        n = 1 if case == "one_sequence" else 16
        data = gen_bouncing(seed=4, num_sequences=n, frames=cfg.t_in, height=16, width=16)
        if case == "float64_data":
            data = data.astype(np.float64) + 1e-9  # not representable in float32
        # 20 channels of one 8x8 float32 latent map a block: the GLU's 48 hidden channels
        # run in blocks of 20, 20 and 8 for the batch and for each sequence alone, and
        # the decoder's last conv2d (12 input channels, 16 x 18 flat output columns) in
        # pixel blocks of 106, 106 and 76 columns, while the batch of 16 cuts dwconv_2d's
        # and the descriptor's blocks to one channel
        plane = 8 * 8 * 4
        block_bytes = 20 * plane if case == "small_blocks" else ops.BLOCK_BYTES
        with mock.patch.object(ops, "BLOCK_BYTES", block_bytes):
            if case == "small_blocks":
                assert len(ops.index_blocks(48, plane)) == 3
                assert len(ops.index_blocks(16 * 18, 12 * 4)) == 3
                assert len(ops.index_blocks(12, n * plane)) == 12
            model = harness.Model.build(cfg, seed=2)
            assert harness.eval_chunk(cfg, model.dtype) >= n
            got = harness.predict_batch(model, data)
            want = predict_one_by_one(model, data)
        assert got.shape == (n, cfg.t_out, 1, 16, 16) and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_conv_pixel_blocks_depend_on_one_sample(self):
        # every tap GEMM sum of a batch's forward takes the same column blocks as the
        # same forward on each of its samples: the blocks depend on one sample's channels
        partitions, tap_gemms, index_blocks = [], ops._tap_gemms, ops.index_blocks

        def recorded_gemms(*args):
            partitions[-1].append(None)  # marks the blocks that follow as a GEMM's
            return tap_gemms(*args)

        def recorded_blocks(count, item_bytes):
            blocks = index_blocks(count, item_bytes)
            if partitions[-1] and partitions[-1][-1] is None:
                partitions[-1][-1] = (count, blocks)
            return blocks

        data = gen_bouncing(seed=5, num_sequences=3, frames=2, height=16, width=16)
        model = harness.Model.build(README_MICRO, seed=3)
        with mock.patch.object(ops, "BLOCK_BYTES", 2048), \
                mock.patch.object(ops, "_tap_gemms", recorded_gemms), \
                mock.patch.object(ops, "index_blocks", recorded_blocks):
            for frames in [[data[:, t] for t in range(2)]] + [[seq[0], seq[1]] for seq in data]:
                partitions.append([])
                model.predict(frames)
        assert len(partitions) == 4 and all(p == partitions[0] for p in partitions)
        # the decoder's last conv: 16 x 18 columns in blocks of 2048 // (12 * 4) = 42
        assert max(len(blocks) for _, blocks in partitions[0]) == 7

    def test_eval_chunk_unchanged(self):
        from test_model import SHAPE_CONFIGS

        # the largest feature map a sample adds: the GLU's gate and value rows at micro,
        # mmnist, taxibj and both 128 x 128 shapes, the decoder's last input without
        # gating blocks
        shapes_96 = ModelConfig(t_in=2, t_out=3, height=96, width=96, latent_c=6, n_s=2,
                                n_t=1, kernels=(3, 5))
        shapes_128 = ModelConfig(t_in=2, t_out=1, height=128, width=128, latent_c=12, n_s=2,
                                 n_t=1, kernels=(3, 5))
        cases = [(README_MICRO, np.float32, 170), (README_MICRO, np.float64, 85),
                 (replace(README_MICRO, n_t=0), np.float32, 170),
                 (SHAPE_CONFIGS["mmnist"], np.float32, 8),
                 (SHAPE_CONFIGS["taxibj"], np.float32, 21),
                 (SHAPE_CONFIGS["kth"], np.float32, 1), (SHAPE_CONFIGS["kth"], np.float64, 1),
                 (shapes_96, np.float32, 4), (shapes_128, np.float32, 1)]
        assert [harness.eval_chunk(cfg, dtype) for cfg, dtype, _ in cases] == \
            [chunk for _, _, chunk in cases]

    def test_predict_batch_does_not_validate_again(self):
        # Model.build validated the config; the chunk rule reads it as it stands
        model = harness.Model.build(README_MICRO, seed=2)
        data = gen_bouncing(seed=4, num_sequences=2, frames=2, height=16, width=16)
        with mock.patch.object(ModelConfig, "validate", side_effect=AssertionError("again")):
            assert harness.predict_batch(model, data).shape == (2, 2, 1, 16, 16)

    def test_last_chunk_shorter(self):
        # 96x96 frames: the GLU's 2E-channel bound, 2 * 48 * 48 * 48, is ~0.9 MB
        cfg = ModelConfig(t_in=2, t_out=3, height=96, width=96, latent_c=6, n_s=2, n_t=1,
                          kernels=(3, 5))
        chunk = harness.eval_chunk(cfg, np.float32)
        assert 2 <= chunk <= 4
        n = 2 * chunk + 1
        data = gen_bouncing(seed=9, num_sequences=n, frames=2, height=96, width=96)
        model = harness.Model.build(cfg, seed=1)
        assert harness.predict_batch(model, data).tobytes() == \
            predict_one_by_one(model, data).tobytes()

    def test_chunk_rule(self):
        from test_model import SHAPE_CONFIGS

        from perigate.model import per_sample_bytes

        assert harness.eval_chunk(SHAPE_CONFIGS["kth"], np.float32) == 1
        assert harness.eval_chunk(README_MICRO, np.float32) >= 16
        # the GLU's gate and value rows, 2E x h x w with E = 4 * 12
        assert per_sample_bytes(README_MICRO, np.float32) == 2 * 48 * 8 * 8 * 4
        # without gating blocks the decoder's last input, the latent map and its skip
        # over the block of both frames, 2 * F * latent * H * W
        assert per_sample_bytes(replace(README_MICRO, n_t=0), np.float32) == \
            2 * 2 * 6 * 16 * 16 * 4
        # at 128 x 128 the GLU's rows, 2 * 4 * 60 * 64 * 64
        assert per_sample_bytes(SHAPE_CONFIGS["kth"], np.float32) == 2 * 240 * 64 * 64 * 4
        assert per_sample_bytes(README_MICRO, np.float64) == \
            2 * per_sample_bytes(README_MICRO, np.float32)

    def test_chunk_ignores_kernel_scratch(self):
        # one input frame, so each frame block is one frame whatever BLOCK_BYTES is: cutting
        # it splits the GLU's 24 hidden channels (and every other blocked kernel's scratch)
        # into more blocks, and the chunk stays where the feature maps put it
        cfg = replace(README_MICRO, t_in=1, t_out=1)
        plane = 8 * 8 * 4
        chunks = []
        for per_block in (1, 5, 24):
            with mock.patch.object(ops, "BLOCK_BYTES", per_block * plane):
                assert len(ops.index_blocks(24, plane)) == -(-24 // per_block)
                assert frame_blocks(cfg, np.float32) == [slice(0, 1)]
                chunks.append(harness.eval_chunk(cfg, np.float32))
        assert chunks == [harness.EVAL_CHUNK_BYTES // (2 * 24 * 8 * 8 * 4)] * 3

    def test_memory_of_chunk_one_does_not_grow_with_n(self):
        # the GLU's 2E-channel bound, 2 * 4 * 24 * 64 * 64, is ~3.1 MB per sample
        cfg = ModelConfig(t_in=2, t_out=1, height=128, width=128, latent_c=12, n_s=2, n_t=1,
                          kernels=(3, 5))
        assert harness.eval_chunk(cfg, np.float32) == 1
        model = harness.Model.build(cfg, seed=0)
        data = gen_bouncing(seed=1, num_sequences=8, frames=2, height=128, width=128)
        peaks = {}
        for n in (1, 8):
            out, peaks[n] = traced_peak(lambda: harness.predict_batch(model, data[:n]))
        assert peaks[8] <= peaks[1] + out.nbytes


class TestEvalTransient:
    """An eval forward releases each map after its last reader, so what one call holds
    at its peak stays within a small multiple of ``per_sample_bytes``."""

    def test_kth_sequence_within_two_samples(self):
        from test_model import SHAPE_CONFIGS

        from perigate.model import per_sample_bytes

        cfg = replace(SHAPE_CONFIGS["kth"], t_out=10)
        model = Model.build(cfg, seed=0)
        data = gen_bouncing(seed=3, num_sequences=1, frames=cfg.t_in, height=128, width=128)
        _, peak = traced_peak(lambda: harness.predict_batch(model, data))
        # at the peak, inside a block's GLU: the block input, the fused and the gated
        # maps, the padded operand, the encoder skips and the output; 2.61 x while the
        # block's responses, the encoded features and the packed map stayed named
        assert peak <= 2 * per_sample_bytes(cfg, np.float32)

    @pytest.mark.parametrize("frames_per_block", [1, 2])
    def test_rollout_equals_per_frame_loop(self, frames_per_block):
        # two passes; the second encodes the blocks that the first decoded
        cfg = replace(README_MICRO, t_in=3, t_out=6)
        model = Model.build(cfg, seed=5)
        data = gen_bouncing(seed=6, num_sequences=2, frames=cfg.t_in, height=16, width=16)
        frame_bytes = cfg.latent * cfg.height * cfg.width * 4
        with mock.patch.object(ops, "BLOCK_BYTES", frames_per_block * frame_bytes):
            assert len(frame_blocks(cfg, np.float32)) == -(-cfg.t_in // frames_per_block)
            got = harness.predict_batch(model, data)
        want = naive.model_predict(model, [data[:, t] for t in range(cfg.t_in)])
        assert got.tobytes() == np.stack([w.value for w in want], axis=1).tobytes()


class TestDumps:
    def test_gate_dump_files(self, micro_data, tmp_path):
        cfg = micro_train_config(epochs=1)
        model, _ = harness.train(cfg, micro_data)
        csv_path, pgm_path = harness.dump_gates(model, micro_data[0], 0, tmp_path / "g")
        raw = pgm_path.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")  # latent 4x4 for 8x8 input, n_s=2
        assert len(raw) == len(b"P5\n4 4\n255\n") + 16
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "h,w,alpha_0,alpha_1"
        assert len(lines) == 1 + 16
        for line in lines[1:]:
            parts = line.split(",")
            assert abs(float(parts[2]) + float(parts[3]) - 1.0) < 1e-6

    def test_zero_init_gate_constant_argmax(self, tmp_path):

        cfg = micro_train_config()
        model = Model.build(cfg.model, seed=0, dtype=np.float32)
        seq = gen_bouncing(seed=4, num_sequences=1, frames=2, height=8, width=8)[0]
        _, pgm_path = harness.dump_gates(model, seq, 0, tmp_path / "g")
        payload = pgm_path.read_bytes().split(b"255\n", 1)[1]
        assert set(payload) == {0}  # uniform gate: ties break to scale index 0

    def test_beta_dump(self, micro_data, tmp_path):
        cfg = micro_train_config(epochs=1)
        model, _ = harness.train(cfg, micro_data)
        path = tmp_path / "betas.csv"
        harness.dump_betas(model, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "block,scale,channel,value"
        assert len(lines) == 1 + 1 * 2 * 12  # blocks * scales * channels
        values = [float(l.split(",")[-1]) for l in lines[1:]]
        assert all(-1.0 < v < 1.0 for v in values)

    def test_fixed_beta_dump(self, tmp_path):
        beta_fixed = 0.1234567890123
        cfg = micro_config(beta_mode="fixed", beta_fixed=beta_fixed)
        model = Model.build(cfg, seed=0, dtype=np.float32)
        path = tmp_path / "betas.csv"
        harness.dump_betas(model, path)
        lines = path.read_text().strip().splitlines()
        blocks, scales = cfg.n_t, len(cfg.kernels)
        assert len(lines) == 1 + blocks * scales * cfg.packed_channels
        assert {l.split(",")[-1] for l in lines[1:]} == {f"{beta_fixed:.10g}"}

    def test_bad_block_index(self, micro_data, tmp_path):
        cfg = micro_train_config(epochs=1)

        model = Model.build(cfg.model, seed=0, dtype=np.float32)
        with pytest.raises(InputError):
            harness.dump_gates(model, micro_data[0], 3, tmp_path / "g")


class TestConfigFile:
    def test_parse_and_serialize_roundtrip(self):
        text = (
            "# micro run\n"
            "t_in = 2\n"
            "t_out = 2\n"
            "height = 8\n"
            "width = 8\n"
            "latent_c = 6\n"
            "n_s = 2\n"
            "n_t = 1\n"
            "kernels = 3,5\n"
            "lr = 0.001\n"
            "epochs = 10\n"
            "batch = 8\n"
            "seed = 0\n"
        )
        cfg = parse_config_text(text)
        assert cfg.model.kernels == (3, 5)
        assert cfg.lr == 0.001
        back = parse_config_text(serialize_config(cfg))
        assert serialize_config(back) == serialize_config(cfg)

    def test_unknown_key_line_number(self):
        from perigate.errors import ConfigParseError

        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config_text("t_in = 2\nbogus = 1\n")

    def test_duplicate_key(self):
        from perigate.errors import ConfigParseError

        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config_text("t_in = 2\nt_in = 3\n")

    def test_bad_value(self):
        from perigate.errors import ConfigParseError

        with pytest.raises(ConfigParseError, match="line 1"):
            parse_config_text("t_in = soup\n")

    def test_beta_mode_grammar(self):
        cfg = parse_config_text("beta_mode = fixed:0.5\n")
        assert cfg.model.beta_mode == "fixed"
        assert cfg.model.beta_fixed == 0.5
        cfg = parse_config_text("beta_mode = learnable\n")
        assert cfg.model.beta_mode == "learnable"
        from perigate.errors import ConfigParseError

        with pytest.raises(ConfigParseError):
            parse_config_text("beta_mode = sometimes\n")

    def test_cue_subset(self):
        cfg = parse_config_text("cues = f1,f3\n")
        assert cfg.model.cues == ("f1", "f3")
        from perigate.errors import ConfigParseError

        with pytest.raises(ConfigParseError):
            parse_config_text("cues = f1,f9\n")

    def test_repeated_cue_refused_at_its_line(self):
        with pytest.raises(ConfigParseError, match="line 2: .*duplicate frequency cues"):
            parse_config_text("epochs = 3\ncues = f1,f1\n")

    @pytest.mark.parametrize("key, options", [("fusion", FUSIONS), ("gate_act", GATE_ACTS)])
    def test_choice_keys_take_the_config_options(self, key, options):
        # the parser and ModelConfig.validate read one option set; a bad value fails at its line
        for value in options:
            assert getattr(parse_config_text(f"{key} = {value}\n").validate().model, key) == value
        with pytest.raises(ConfigParseError, match=f"line 2: bad value for '{key}': expected"):
            parse_config_text(f"epochs = 3\n{key} = relu\n")
        with pytest.raises(ConfigurationError):
            replace(ModelConfig(), **{key: "relu"}).validate()

    def test_serialized_text_golden(self):
        micro = TrainConfig(model=README_MICRO, epochs=5, lr=0.002, batch=8, seed=7)
        assert serialize_config(micro) == (
            "t_in = 2\nt_out = 2\nc_in = 1\nc_out = 1\nheight = 16\nwidth = 16\n"
            "latent_c = 6\nn_s = 2\nn_t = 2\nkernels = 9,15,31\nexpansion = 4\n"
            "center_size = 3\nfusion = softmax\nbeta_mode = learnable\ngate_act = tanh\n"
            "cues = f1,f2,f3\ndrop_path = 0.0\nmsinit = 3,5,7\n"
            "epochs = 5\nlr = 0.002\nbatch = 8\nseed = 7\n"
        )
        ablation = replace(micro, model=replace(
            README_MICRO, n_s=3, fusion="mean", beta_mode="fixed", beta_fixed=0.3,
            gate_act="sigmoid", cues=("f1", "f3"), drop_path=0.2, center_size=5))
        assert serialize_config(ablation) == (
            "t_in = 2\nt_out = 2\nc_in = 1\nc_out = 1\nheight = 16\nwidth = 16\n"
            "latent_c = 6\nn_s = 3\nn_t = 2\nkernels = 9,15,31\nexpansion = 4\n"
            "center_size = 5\nfusion = mean\nbeta_mode = fixed:0.3\ngate_act = sigmoid\n"
            "cues = f1,f3\ndrop_path = 0.2\nmsinit = 3,5,7\n"
            "epochs = 5\nlr = 0.002\nbatch = 8\nseed = 7\n"
        )
        assert parse_config_text(serialize_config(ablation)) == ablation

    def test_every_config_field_has_a_key(self):
        from dataclasses import fields

        from perigate.config import _KEYS

        reachable = {(owner, attr) for _, owner, attr in _KEYS.values()}
        reachable.add(("model", "beta_fixed"))  # written and read by the beta_mode row
        for owner, cls in (("model", ModelConfig), ("train", TrainConfig)):
            for f in fields(cls):
                assert f.name == "model" or (owner, f.name) in reachable, f.name


# a valid micro config, some of whose values the fuzzer replaces
BASE_CONFIG = dict(
    line.split(" = ") for line in serialize_config(TrainConfig(model=micro_config())).splitlines()
)
CONFIG_VALUES = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(-(10**6), 10**6).map(str),
    st.floats().map(repr),
    st.lists(st.integers(-2, 40), max_size=4).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["softmax", "mean", "tanh", "sigmoid", "learnable", "fixed:0.5",
                     "fixed:nan", "f1,f2", "f1,f1", "f2", ""]),
    st.text(max_size=12),
)
CONFIG_TEXT = st.tuples(
    st.dictionaries(st.sampled_from(sorted(BASE_CONFIG)), CONFIG_VALUES, max_size=4),
    st.lists(st.text(max_size=20), max_size=1),
).map(lambda t: "\n".join([f"{k} = {v}" for k, v in {**BASE_CONFIG, **t[0]}.items()] + t[1]))


class TestConfigValues:
    """Values that parse but cannot make a model are refused up front."""

    @pytest.mark.parametrize("line", ["lr = nan", "lr = inf", "drop_path = -inf",
                                      "beta_mode = fixed:nan", "beta_mode = fixed:inf"])
    def test_nonfinite_float_rejected_with_line(self, line):
        with pytest.raises(ConfigParseError, match="line 2: .*not a finite number"):
            parse_config_text(f"t_in = 2\n{line}\n")

    def test_validate_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError, match="learning rate"):
            TrainConfig(model=micro_config(), lr=float("nan")).validate()
        with pytest.raises(ConfigurationError, match="fixed beta"):
            micro_config(beta_mode="fixed", beta_fixed=float("inf")).validate()

    def test_duplicate_cues(self):
        with pytest.raises(ConfigurationError, match="duplicate frequency cues"):
            micro_config(cues=("f1", "f1")).validate()

    def test_encoder_deeper_than_the_frame(self):
        with pytest.raises(ConfigurationError, match="below a pixel"):
            micro_config(n_s=10**6).validate()
        micro_config(n_s=7, height=8, width=8).validate()  # 2^3 = 8 still fits

    @settings(max_examples=200, deadline=None)
    @given(text=CONFIG_TEXT)
    @example(text="n_s = 1000000")
    def test_random_text_parses_or_is_refused(self, text):
        try:
            cfg = parse_config_text(text).validate()
        except (ConfigParseError, ConfigurationError):
            return
        assert isinstance(cfg, TrainConfig)

    @pytest.mark.parametrize("line", ["kernels = 9,,15", "kernels = 9,15,", "kernels =",
                                      "cues = f1,,f2", "cues = f1,", "msinit = ,3,5,7"])
    def test_empty_list_item_refused_with_line(self, line, tmp_path, capsys):
        # an empty item is an error, not dropped: 9,,15 does not read as 9,15
        with pytest.raises(ConfigParseError, match="line 2: bad value for"):
            parse_config_text(f"t_in = 2\n{line}\n")
        path = tmp_path / "bad.cfg"
        path.write_text(f"t_in = 2\n{line}\n")
        assert main(["inspect", "params", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 2: bad value for")


class TestRolloutTraining:
    def test_training_through_rollout_converges(self):
        # t_out > t_in: the tape spans re-encoded predictions
        data = gen_bouncing(seed=5, num_sequences=8, frames=6, height=8, width=8)
        cfg = micro_train_config(epochs=2, batch=4)
        cfg.model.t_out = 4
        model, history = harness.train(cfg, data)
        assert all(np.isfinite(r.loss) for r in history)
        assert history[-1].loss < history[0].loss


class TestDivergenceAbort:
    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_loss_aborts_with_diagnostic(self, micro_data):

        cfg = micro_train_config(lr=1e12, epochs=2)
        with pytest.raises(NumericError, match="non-finite"):
            harness.train(cfg, micro_data)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_parameter_after_step_named(self, micro_data):
        # lr * update overflows float32 in step 0's update while its loss is finite
        cfg = micro_train_config(lr=1e39, epochs=1)
        with pytest.raises(NumericError) as info:
            harness.train(cfg, micro_data)
        assert str(info.value) == (
            "non-finite values in parameter 'encoder/block0/w' after epoch 1 step 0"
        )

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_input_names_first_op(self, micro_data):
        # train refuses such data up front (below); the graph's own diagnostic
        # is reached by handing it the minibatch directly

        data = micro_data.copy()
        data[3, 0, 0, 2, 2] = np.inf
        model = Model.build(micro_train_config().model, seed=0)
        with pytest.raises(NumericError, match=r"first non-finite op: 'conv2d' \(tape node 0 of"):
            harness._loss_and_grads(model, data[:8], None, "epoch 1 step 0")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sequence_data_refused(self, micro_data, value):
        data = micro_data.copy()
        data[3, 2, 0, 2, 2] = value
        cfg = micro_train_config(epochs=1)
        with pytest.raises(InputError, match="sequence 3 frame 2 holds a non-finite value"):
            harness.train(cfg, data)
        with pytest.raises(InputError, match="sequence 3 frame 2"):
            harness.evaluate(cfg, harness.Model.build(cfg.model), data)
        # prediction reads only the first t_in = 2 frames
        assert np.isfinite(harness.predict_batch(harness.Model.build(cfg.model), data)).all()
