"""Gating block: gate simplex, center suppression, fusion, GLU, residual."""

import numpy as np
import pytest

from perigate import autodiff as ad
from perigate import block as gate_block
from perigate.autodiff import ParamStore, Var
from perigate.errors import ConfigurationError
from perigate.model import ModelConfig
from perigate.rng import INIT, stream


def build(channels=4, scales=(3, 5), seed=0, **kw):
    settings = ModelConfig(kernels=scales, **kw)
    store = ParamStore()
    params = gate_block.init_params(store, "blk", channels, settings, stream(seed, INIT), np.float64)
    return store, params, settings


class TestGateWeights:
    def test_zero_gate_uniform(self):
        rng = np.random.default_rng(0)
        freq = rng.random((3, 5, 5))
        alpha = gate_block.gate_weights(freq, np.zeros((3, 3)), np.zeros(3))
        assert np.all(alpha.value == 1.0 / 3.0)

    def test_bias_only_closed_form(self):
        freq = np.random.default_rng(1).random((3, 4, 4))
        alpha = gate_block.gate_weights(freq, np.zeros((2, 3)), np.array([np.log(2.0), 0.0]))
        np.testing.assert_allclose(alpha.value[0], 2.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(alpha.value[1], 1.0 / 3.0, rtol=1e-15)

    def test_zero_weights_invariant_to_descriptor_scale(self):
        freq = np.random.default_rng(2).random((3, 4, 4))
        b = np.array([0.3, -0.2])
        a1 = gate_block.gate_weights(freq, np.zeros((2, 3)), b)
        a2 = gate_block.gate_weights(17.0 * freq, np.zeros((2, 3)), b)
        assert np.array_equal(a1.value, a2.value)

    def test_wrong_descriptor_width(self):
        with pytest.raises(ConfigurationError):
            gate_block.gate_weights(np.zeros((2, 4, 4)), np.zeros((3, 3)), np.zeros(3))

    def test_simplex_on_random_forwards(self):
        store, params, settings = build()
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal((4, 6, 6))
            internals = gate_block.BlockInternals()
            gate_block.forward(Var(x), params, settings, internals=internals)
            alpha = internals.alpha.value
            assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0)
            np.testing.assert_allclose(alpha.sum(axis=0), 1.0, atol=1e-6)


class TestPeripheralAndSuppression:
    def test_identity_kernels_pass_input(self):
        store, params, settings = build()
        for k in params.scales:
            ident = np.zeros_like(params.sep_h[k].value)
            ident[:, k // 2] = 1.0
            params.sep_h[k].value = ident.copy()
            params.sep_v[k].value = ident.copy()
        x = np.random.default_rng(3).random((4, 5, 5))
        out = gate_block.peripheral_response(Var(x), params, 3)
        assert np.array_equal(out.value, x)

    def test_unknown_scale(self):
        store, params, settings = build()
        with pytest.raises(ConfigurationError):
            gate_block.peripheral_response(Var(np.zeros((4, 5, 5))), params, 7)

    def test_zero_beta_reproduces_peripheral_bitwise(self):
        store, params, settings = build()
        x = np.random.default_rng(4).standard_normal((4, 6, 6))
        p_k = gate_block.peripheral_response(Var(x), params, 3)
        center = ad.dwconv_2d(Var(x), params.center)
        coeff = gate_block.suppression_coefficient(params, settings, 3)  # beta_raw = 0
        out = gate_block.center_suppress(p_k, center, coeff)
        assert np.array_equal(out.value, p_k.value)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_saturated_beta_matches_limit(self, sign):
        store, params, settings = build()
        params.beta_raw[3].value = np.full(4, sign * 20.0)
        x = np.random.default_rng(5).standard_normal((4, 6, 6))
        p_k = gate_block.peripheral_response(Var(x), params, 3)
        center = ad.dwconv_2d(Var(x), params.center)
        coeff = gate_block.suppression_coefficient(params, settings, 3)
        out = gate_block.center_suppress(p_k, center, coeff)
        limit = p_k.value - sign * center.value
        np.testing.assert_allclose(out.value, limit, atol=1e-8)

    def test_negative_beta_adds_center(self):
        store, params, settings = build()
        params.beta_raw[3].value = np.full(4, -1.0)
        x = np.abs(np.random.default_rng(6).standard_normal((4, 5, 5)))
        p_k = gate_block.peripheral_response(Var(x), params, 3)
        center = ad.dwconv_2d(Var(x), params.center)
        coeff = gate_block.suppression_coefficient(params, settings, 3)
        out = gate_block.center_suppress(p_k, center, coeff)
        # coefficient tanh(-1) < 0 flips suppression into addition
        np.testing.assert_allclose(
            out.value - p_k.value, -np.tanh(-1.0) * center.value, atol=1e-12
        )


class TestFusion:
    def test_single_scale_passthrough(self):
        store, params, settings = build(scales=(3,))
        y = Var(np.random.default_rng(7).random((4, 5, 5)))
        alpha = Var(np.random.default_rng(8).random((1, 5, 5)))
        out = gate_block.fuse(alpha, [y])
        # any single-scale gate map is a simplex of ones
        np.testing.assert_allclose(out.value, y.value * alpha.value, atol=1e-15)

    def test_one_hot_selects_response(self):
        rng = np.random.default_rng(9)
        ys = [Var(rng.random((3, 4, 4))) for _ in range(2)]
        hot = np.zeros((2, 4, 4))
        hot[1] = 1.0
        out = gate_block.fuse(Var(hot), ys)
        np.testing.assert_allclose(out.value, ys[1].value, atol=1e-15)

    def test_identical_responses_any_alpha(self):
        rng = np.random.default_rng(10)
        y = rng.random((3, 4, 4))
        logits = rng.standard_normal((2, 4, 4))
        from perigate import ops

        alpha = ops.softmax_channels(logits)
        out = gate_block.fuse(Var(alpha), [Var(y.copy()), Var(y.copy())])
        np.testing.assert_allclose(out.value, y, rtol=1e-12)

    def test_convex_bounds(self):
        rng = np.random.default_rng(11)
        ys = [rng.standard_normal((3, 5, 5)) for _ in range(3)]
        from perigate import ops

        alpha = ops.softmax_channels(rng.standard_normal((3, 5, 5)))
        out = gate_block.fuse(Var(alpha), [Var(y) for y in ys]).value
        stack = np.stack(ys)
        assert np.all(out <= stack.max(axis=0) + 1e-12)
        assert np.all(out >= stack.min(axis=0) - 1e-12)

    def test_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            gate_block.fuse(Var(np.ones((2, 3, 3))), [Var(np.ones((1, 3, 3)))])

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_fuse_gradients(self, lead):
        # gate maps broadcast over channels; their gradient sums over that axis
        rng = np.random.default_rng(13)
        alpha = rng.random(lead + (2, 4, 5))
        ys = [rng.standard_normal(lead + (3, 4, 5)) for _ in range(2)]
        err = ad.grad_check(lambda a, y0, y1: gate_block.fuse(a, [y0, y1]), [alpha, *ys])
        assert err < 1e-6

    def test_fuse_records_no_channel_copies(self):
        rng = np.random.default_rng(14)
        alpha = ad.Var(rng.random((2, 4, 4)))
        ys = [ad.Var(rng.random((6, 4, 4))) for _ in range(2)]
        out, tape = ad.forward_traced(lambda: gate_block.fuse(alpha, ys), [])
        # two gate slices, two products, one sum
        assert len(tape.nodes) == 5


class TestChannelMixGlu:
    def test_zero_expand_gives_bias_map(self):
        store, params, settings = build()
        params.glu_expand_w.value = np.zeros_like(params.glu_expand_w.value)
        params.glu_expand_b.value = np.zeros_like(params.glu_expand_b.value)
        x = np.random.default_rng(12).random((4, 5, 5))
        out = gate_block.channel_mix_glu(Var(x), params)
        # sigmoid(0) * dw(0) = 0 -> GRN(0) = beta = 0 -> projection bias broadcast
        want = np.broadcast_to(params.glu_project_b.value[:, None, None], out.value.shape)
        np.testing.assert_allclose(out.value, want, atol=1e-15)

    def test_sigmoid_zero_passes_half(self):
        store, params, settings = build()
        c = 4
        hidden = settings.expansion * c
        params.glu_expand_b.value = np.concatenate([np.zeros(hidden), np.ones(hidden)])
        params.glu_expand_w.value = np.zeros_like(params.glu_expand_w.value)
        params.grn_gamma.value = np.zeros(hidden)
        params.grn_beta.value = np.zeros(hidden)
        dw_out = ad.dwconv_2d(Var(np.ones((hidden, 3, 3))), params.glu_dw).value
        x = np.zeros((c, 3, 3))
        out_var = gate_block.channel_mix_glu(Var(x), params)
        from perigate import ops

        want = ops.pwconv(0.5 * dw_out, params.glu_project_w.value, params.glu_project_b.value)
        np.testing.assert_allclose(out_var.value, want, atol=1e-12)

    def test_expansion_widths(self):
        store, params, settings = build(channels=8, expansion=4)
        assert params.glu_expand_w.value.shape == (64, 8)
        assert params.glu_dw.value.shape == (32, 3, 3)
        assert params.glu_project_w.value.shape == (8, 32)


class TestBlockForward:
    def test_zero_layerscale_exact_identity(self):
        store, params, settings = build()
        params.layerscale.value = np.zeros(4)
        x = np.random.default_rng(13).standard_normal((4, 6, 6))
        out = gate_block.forward(Var(x), params, settings)
        assert np.array_equal(out.value, x)

    def test_zero_gate_equals_mean_fusion_bitwise(self):
        store, params, settings = build()
        x = np.random.default_rng(14).standard_normal((4, 6, 6))
        soft = gate_block.forward(Var(x), params, settings)
        mean_settings = ModelConfig(kernels=(3, 5), fusion="mean")
        mean = gate_block.forward(Var(x), params, mean_settings)
        assert np.array_equal(soft.value, mean.value)

    def test_gradients(self):
        store, params, settings = build()
        x = np.random.default_rng(15).standard_normal((4, 8, 8))
        err = ad.grad_check(
            lambda v, *ps: gate_block.forward(v, params, settings), [x] + store.variables()
        )
        assert err < 1e-6

    def test_gradients_three_scales(self):
        store, params, settings = build(scales=(3, 5, 7))
        x = np.random.default_rng(19).standard_normal((4, 8, 8))
        err = ad.grad_check(
            lambda v, *ps: gate_block.forward(v, params, settings), [x] + store.variables()
        )
        assert err < 1e-6

    def test_center_size_five(self):
        store, params, settings = build(center_size=5)
        assert params.center.value.shape == (4, 5, 5)
        x = np.random.default_rng(16).standard_normal((4, 7, 7))
        out = gate_block.forward(Var(x), params, settings)
        assert out.value.shape == x.shape

    def test_fixed_beta_mode(self):
        store, params, settings = build(beta_mode="fixed", beta_fixed=0.5)
        assert params.beta_raw is None
        x = np.random.default_rng(17).standard_normal((4, 5, 5))
        out = gate_block.forward(Var(x), params, settings)
        assert out.value.shape == x.shape

    def test_sigmoid_beta_activation(self):
        store, params, settings = build(gate_act="sigmoid")
        coeff = gate_block.suppression_coefficient(params, settings, 3)
        assert np.all(coeff.value == 0.5)  # sigmoid(0)

    def test_cue_subset_forward(self):
        store, params, settings = build(cues=("f2",))
        assert params.gate_w.value.shape == (2, 1)
        x = np.random.default_rng(18).standard_normal((4, 5, 5))
        out = gate_block.forward(Var(x), params, settings)
        assert out.value.shape == x.shape

    def test_settings_validation(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(kernels=(4,)).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(fusion="max").validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(center_size=7).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(drop_path=1.0).validate()


class TestSpatialStageIdentity:
    def test_identity_kernels_zero_beta_fuse_to_input(self):
        # identity peripherals with no suppression give identical responses,
        # and any convex gate over identical responses reproduces them
        store, params, settings = build()
        for k in params.scales:
            ident = np.zeros_like(params.sep_h[k].value)
            ident[:, k // 2] = 1.0
            params.sep_h[k].value = ident.copy()
            params.sep_v[k].value = ident.copy()
        x = np.random.default_rng(20).standard_normal((4, 6, 6))
        from perigate import descriptor

        freq = descriptor.frequency_descriptor(Var(x), settings.cues)
        alpha = gate_block.gate_weights(freq, params.gate_w, params.gate_b)
        responses = []
        for k in params.scales:
            p_k = gate_block.peripheral_response(Var(x), params, k)
            coeff = gate_block.suppression_coefficient(params, settings, k)
            center = ad.dwconv_2d(Var(x), params.center)
            responses.append(gate_block.center_suppress(p_k, center, coeff))
        fused = gate_block.fuse(alpha, responses)
        np.testing.assert_allclose(fused.value, x, rtol=1e-12, atol=1e-12)


def test_mean_fusion_never_computes_the_descriptor(monkeypatch):
    from perigate import descriptor

    def fail(*args, **kwargs):
        raise AssertionError("frequency descriptor computed under mean fusion")

    store, params, settings = build(fusion="mean")
    x = np.random.default_rng(22).standard_normal((2, 4, 6, 6))
    monkeypatch.setattr(descriptor, "frequency_descriptor", fail)
    monkeypatch.setattr(ad, "freq_descriptor", fail)
    out, _ = ad.forward_traced(lambda v: gate_block.forward(v, params, settings), [x])
    assert out.value.shape == x.shape


def test_block_traced_matches_untraced_bitwise():
    store, params, settings = build()
    x = np.random.default_rng(21).standard_normal((4, 6, 6))
    plain = gate_block.forward(Var(x), params, settings).value
    traced, tape = ad.forward_traced(
        lambda v: gate_block.forward(v, params, settings), [x]
    )
    assert len(tape.nodes) > 10
    assert np.array_equal(plain, traced.value)
