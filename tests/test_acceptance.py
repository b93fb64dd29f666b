"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Each criterion is independent; tolerances are pinned here and
nowhere else.
"""

import math
import time

import numpy as np

from perigate import autodiff as ad
from perigate import block as gate_block
from perigate import harness, metrics, ops, spectral
from perigate.autodiff import ParamStore, Var
from perigate.config import TrainConfig
from perigate.data import gen_bouncing
from perigate.model import Model, ModelConfig
from perigate.rng import INIT, stream
from perigate.spectral import (
    ExpDecay,
    GaussianDecay,
    QuadCoeffs,
    composite,
    find_ring,
    optimal_beta,
    quad_coeffs,
    response_from_function,
    snr,
    snr_advantage,
    stationary_betas,
)

from helpers import dense_scale_params, glu_params, micro_config, sep_scale_params


def report(num, ok, label):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


# -- 1: separable equivalence ------------------------------------------------


def test_criterion_01_separable_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for case in range(50):
        c = int(rng.integers(1, 5))
        k = int(rng.choice([3, 9, 15, 31]))
        h_ext = int(rng.integers(max(4, k // 2), 33))
        w_ext = int(rng.integers(max(4, k // 2), 33))
        x = rng.standard_normal((c, h_ext, w_ext))
        h = rng.standard_normal((c, k))
        v = rng.standard_normal((c, k))
        dense_kernel = np.einsum("ci,cj->cij", v, h)
        got = ops.sep_conv_parts(x, h, v)[0]
        want = ops.dwconv_2d(x, dense_kernel)
        denom = np.abs(want).max() or 1.0
        worst = max(worst, float(np.abs(got - want).max() / denom))
    elapsed = time.monotonic() - t0
    report(1, worst < 1e-12 and elapsed < 10.0,
           f"50 random sep-vs-dense cases, max rel err {worst:.2e} in {elapsed:.1f}s")


# -- 2: complexity claim -----------------------------------------------------


def test_criterion_02_complexity_ratio():
    sep = sep_scale_params(31, 1)
    dense = dense_scale_params(31, 1)
    ok = sep == 62 and dense == 961 and dense / sep == 15.5
    report(2, ok, f"k=31 per-channel cost: dense {dense} vs separable {sep} (ratio {dense/sep})")


# -- 3: gating simplex -------------------------------------------------------


def test_criterion_03_gating_simplex():
    settings = ModelConfig(kernels=(9, 15, 31))
    ok = True
    for trial in range(100):
        rng = np.random.default_rng(300 + trial)
        store = ParamStore()
        params = gate_block.init_params(store, "b", 6, settings, stream(trial, INIT), np.float64)
        params.gate_w.value = 0.5 * rng.standard_normal(params.gate_w.value.shape)
        params.gate_b.value = 0.5 * rng.standard_normal(params.gate_b.value.shape)
        x = rng.standard_normal((6, 6, 6))
        internals = []
        gate_block.forward(Var(x), params, settings, internals=internals)
        alpha = internals[0].value
        ok &= bool(np.all(alpha >= 0.0) and np.all(alpha <= 1.0))
        ok &= bool(np.abs(alpha.sum(axis=0) - 1.0).max() < 1e-6)
    # zero-initialized gate: exactly uniform
    store = ParamStore()
    params = gate_block.init_params(store, "z", 6, settings, stream(0, INIT), np.float64)
    internals = []
    gate_block.forward(Var(np.random.default_rng(0).standard_normal((6, 6, 6))),
                       params, settings, internals=internals)
    uniform = np.float64(1.0) / 3.0
    ok &= bool(np.all(internals[0].value == uniform))
    report(3, ok, "alpha simplex on 100 random forwards; zero-init gate exactly 1/K")


# -- 4: center-suppression semantics ------------------------------------------


def test_criterion_04_center_suppression():
    settings = ModelConfig(kernels=(3, 5))
    store = ParamStore()
    params = gate_block.init_params(store, "b", 4, settings, stream(4, INIT), np.float64)
    x = np.random.default_rng(400).standard_normal((4, 8, 8))
    p_k = gate_block.peripheral_response(Var(x), params, 5)
    center = ad.dwconv_2d(Var(x), params.center)
    # beta_raw = 0: bitwise identity with the peripheral response
    coeff = gate_block.suppression_coefficient(params, settings, 5)
    zero_case = gate_block.center_suppress(p_k, center, coeff)
    ok = np.array_equal(zero_case.value, p_k.value)
    # saturated limits
    for sign in (1.0, -1.0):
        params.beta_raw[5].value = np.full(4, sign * 20.0)
        coeff = gate_block.suppression_coefficient(params, settings, 5)
        got = gate_block.center_suppress(p_k, center, coeff).value
        limit = p_k.value - sign * center.value
        ok &= bool(np.abs(got - limit).max() < 1e-8)
    report(4, ok, "beta=0 bitwise; beta_raw=+-20 within 1e-8 of saturated limits")


# -- 5: gradient correctness ---------------------------------------------------


def test_criterion_05_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(500)
    x = rng.random((2, 6, 6)) + 0.1
    primitives = {
        "sep_conv_k5": (
            lambda a, b, c: ad.sep_conv(a, b, c),
            [x, rng.standard_normal((2, 5)), rng.standard_normal((2, 5))],
        ),
        "sep_conv": (
            lambda a, b, c: ad.sep_conv(a, b, c),
            [x, rng.standard_normal((2, 3)), rng.standard_normal((2, 3))],
        ),
        "dwconv_2d": (lambda a, b: ad.dwconv_2d(a, b), [x, rng.standard_normal((2, 3, 3))]),
        "conv2d": (lambda a, w: ad.conv2d(a, w, 1), [x, rng.standard_normal((3, 2, 3, 3))]),
        "pwconv": (
            lambda a, w, b: ad.pwconv(a, w, b),
            [x, rng.standard_normal((3, 2)), rng.standard_normal(3)],
        ),
        "freq_descriptor": (lambda a: ad.freq_descriptor(a, ops.CUE_NAMES), [x]),
        "softmax": (lambda a: ad.softmax_channels(a), [rng.standard_normal((3, 5, 5))]),
        "tanh": (lambda a: ad.tanh(a), [x]),
        "sigmoid": (lambda a: ad.sigmoid(a), [x]),
        "glu": (lambda a, *ps: ad.glu(a, *ps), [x] + glu_params(rng, 2, 3)),
        "group_norm_act": (
            lambda a, g, b: ad.group_norm_act(a, g, b),
            [x, rng.standard_normal(2), rng.standard_normal(2)],
        ),
        "upsample_conv2d": (
            lambda a, w: ad.upsample_conv2d(a, w), [x, rng.standard_normal((3, 2, 3, 3))]
        ),
        "mul": (lambda a, b: ad.mul(a, b), [x, rng.standard_normal(2)]),
    }
    worst_prim = 0.0
    for name, (fn, point) in primitives.items():
        err = ad.grad_check(fn, point)
        worst_prim = max(worst_prim, err)
        assert err < 1e-5, f"primitive {name}: {err:.2e}"

    settings = ModelConfig(kernels=(3, 5), expansion=4)
    store = ParamStore()
    params = gate_block.init_params(store, "b", 4, settings, stream(5, INIT), np.float64)
    xb = np.random.default_rng(501).standard_normal((4, 8, 8))
    err_block = ad.grad_check(
        lambda v, *ps: gate_block.forward(v, params, settings), [xb] + store.variables()
    )

    model = Model.build(micro_config(), seed=0, dtype=np.float64)
    r2 = np.random.default_rng(502)
    f0, f1 = Var(r2.random((1, 8, 8))), Var(r2.random((1, 8, 8)))
    err_model = ad.grad_check(
        lambda a, b, *ps: ad.concat_channels(model.predict([a, b], mode="eval")),
        [f0, f1] + model.store.variables(),
        eps=1e-6,
    )
    elapsed = time.monotonic() - t0
    ok = worst_prim < 1e-5 and err_block < 1e-5 and err_model < 1e-5 and elapsed < 120
    report(5, ok,
           f"grad errors: primitives {worst_prim:.2e}, block {err_block:.2e}, "
           f"model {err_model:.2e}, in {elapsed:.1f}s")


# -- 6: ring detection ---------------------------------------------------------


def scan_oracle(fn, n):
    r = np.linspace(0.0, math.pi, n)
    v = np.asarray(fn(r), dtype=np.float64)
    runs, i = [], 0
    while i < n:
        if v[i] > 0:
            j = i
            while j + 1 < n and v[j + 1] > 0:
                j += 1
            if i > 0 and j < n - 1:
                lo = r[i - 1] + (0 - v[i - 1]) * (r[i] - r[i - 1]) / (v[i] - v[i - 1])
                hi = r[j] + (0 - v[j]) * (r[j + 1] - r[j]) / (v[j + 1] - v[j])
                runs.append((lo, hi))
            i = j + 1
        else:
            i += 1
    return max(runs, key=lambda b: b[1] - b[0]) if runs else None


def test_criterion_06_ring_detection():
    n = 1024
    h_l = response_from_function(np.sin, n)
    h_s = response_from_function(np.ones_like, n)  # analytic, so the band is bisected
    band = find_ring(composite(h_l, h_s, 0.5))
    ok = band is not None
    ok &= abs(band.r1 - math.pi / 6) < 1e-6 and abs(band.r2 - 5 * math.pi / 6) < 1e-6

    negative = response_from_function(
        lambda r: np.full_like(np.asarray(r, dtype=np.float64), -0.5), n
    )
    ok &= find_ring(negative) is None

    rng = np.random.default_rng(600)
    agreements = 0
    for _ in range(100):
        if rng.random() < 0.5:
            big = GaussianDecay(rng.uniform(0.3, 1.5), rng.uniform(0.4, 1.2))
            small = ExpDecay(rng.uniform(0.5, 2.5))
        else:
            big = ExpDecay(rng.uniform(0.2, 2.0))
            small = GaussianDecay(rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0))
        beta = rng.uniform(-0.95, 0.95)
        resp = composite(response_from_function(big, n), response_from_function(small, n), beta)
        band = find_ring(resp)
        oracle = scan_oracle(resp.fn, 8 * n)
        if (band is None) != (oracle is None):
            continue
        if band is not None and (
            abs(band.r1 - oracle[0]) > 1e-3 or abs(band.r2 - oracle[1]) > 1e-3
        ):
            continue
        agreements += 1
    ok &= agreements == 100
    report(6, ok, f"sine fixture band within 1e-6; {agreements}/100 oracle agreements")


# -- 7: cubic stationarity -----------------------------------------------------


def random_coeffs(rng, n=512):
    h_l = response_from_function(ExpDecay(rng.uniform(0.2, 1.5)), n)
    h_s = response_from_function(
        GaussianDecay(rng.uniform(0.5, 4.0), rng.uniform(0.7, 2.0)), n
    )
    p_s = spectral.band_spectrum(rng.uniform(0.0, 1.2), rng.uniform(1.6, 3.1), n)
    return quad_coeffs(h_l, h_s, p_s, rng.uniform(0.5, 2.0))


def test_criterion_07_cubic_stationarity():
    fixture = QuadCoeffs(a=2.0, b=1.0, c=1.0, at=1.0, bt=0.0, ct=1.0, sigma2=1.0)
    roots = stationary_betas(fixture)
    want = sorted([(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2])
    ok = len(roots) == 2 and all(abs(r - w) < 1e-10 for r, w in zip(roots, want))

    rng = np.random.default_rng(700)
    grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 100_000)
    for _ in range(50):
        q = random_coeffs(rng)
        for root in stationary_betas(q):
            h = 1e-6
            d = (snr(root + h, q) - snr(root - h, q)) / (2 * h)
            ok &= abs(d) < 1e-8
        beta_star, snr_star = optimal_beta(q)
        ok &= snr_star >= float(np.max(snr(grid, q))) - 1e-9
    report(7, ok, "golden-ratio fixture roots at 1e-10; 50 random sets match 1e5-point grid")


# -- 8: SNR-advantage lemma ------------------------------------------------------


def test_criterion_08_snr_advantage():
    rng = np.random.default_rng(800)
    ok = True
    for _ in range(50):
        q = random_coeffs(rng)
        beta = snr_advantage(q)
        ok &= beta is not None and snr(beta, q) > snr(0.0, q)
    # proportional pair: absent, and the sweep is flat
    n = 512
    base = response_from_function(GaussianDecay(2.0, 1.0), n)
    scaled = response_from_function(GaussianDecay(2.0, 0.5), n)
    q = quad_coeffs(base, scaled, spectral.flat_spectrum(n), 1.0)
    ok &= snr_advantage(q) is None
    sweep = snr(np.linspace(-1 + 1e-9, 1 - 1e-9, 4096), q)
    ok &= float(sweep.max() - sweep.min()) < 1e-9 * max(1.0, float(np.abs(sweep).max()))
    report(8, ok, "50 independent pairs strictly improve; proportional pair absent + flat sweep")


# -- 9: metric identities ---------------------------------------------------------


def test_criterion_09_metric_identities():
    rng = np.random.default_rng(900)
    pred = rng.random((2, 3, 2, 12, 12))
    gt = rng.random((2, 3, 2, 12, 12))
    s = 2 * 12 * 12
    ratio = metrics.mse(pred, gt) / metrics.mse(pred, gt, normalized=True)
    ok = abs(ratio - s) / s < 1e-10

    black = np.zeros((1, 1, 1, 12, 12))
    white = np.ones((1, 1, 1, 12, 12))
    ok &= metrics.psnr(black, white) == 0.0

    ok &= metrics.ssim(pred, pred.copy()) == 1.0

    levels = rng.integers(0, 255, size=(1, 1, 1, 12, 12)).astype(np.float64)
    one_off = metrics.psnr((levels + 1) / 255.0, levels / 255.0)
    ok &= abs(one_off - 20 * math.log10(255.0)) < 1e-9
    report(9, ok, "MSE S-ratio, 0dB black/white, SSIM(identical)=1, 1/255-step PSNR")


# -- 10: micro-training -------------------------------------------------------------


def micro_train_config():
    return TrainConfig(
        model=ModelConfig(t_in=2, t_out=2, c_in=1, c_out=1, height=8, width=8,
                          latent_c=6, n_s=2, n_t=1, kernels=(3, 5), drop_path=0.0),
        epochs=10, lr=1e-3, batch=8, seed=0,
    )


def test_criterion_10_micro_training(tmp_path):
    data = gen_bouncing(seed=0, num_sequences=64, frames=4, height=8, width=8, num_objects=2)
    cfg = micro_train_config()
    t0 = time.monotonic()
    model, history = harness.train(cfg, data)
    elapsed = time.monotonic() - t0
    ratio = history[-1].loss / history[0].loss
    ok = len(history) == 10 and ratio < 0.5 and elapsed < 300

    model2, _ = harness.train(cfg, data)
    p1, p2 = tmp_path / "run1.pfgc", tmp_path / "run2.pfgc"
    harness.save_model(p1, cfg, model)
    harness.save_model(p2, cfg, model2)
    ok &= p1.read_bytes() == p2.read_bytes()
    report(10, ok,
           f"epoch10/epoch1 = {ratio:.3f} (< 0.5) in {elapsed:.1f}s; reruns bitwise identical")


# -- 11: protocol conformance ----------------------------------------------------------


def test_criterion_11_protocol_conformance():
    base = micro_config(t_out=2)
    model = Model.build(base, seed=0, dtype=np.float32)
    rng = np.random.default_rng(1100)
    frames = [rng.random((1, 8, 8)).astype(np.float32) for _ in range(2)]
    short = [p.value for p in model.predict(frames)]

    doubled = Model(micro_config(t_out=4), model.store, model.params, model.dtype)
    long_preds = [p.value for p in doubled.predict(frames)]
    ok = len(long_preds) == 4
    ok &= all(np.array_equal(a, b) for a, b in zip(short, long_preds[:2]))

    sliced = Model(micro_config(t_out=1), model.store, model.params, model.dtype)
    one = [p.value for p in sliced.predict(frames)]
    ok &= len(one) == 1 and np.array_equal(one[0], short[0])
    report(11, ok, "rollout prefix and slicing both bitwise-consistent")


# -- 12: ablation-mode parity ------------------------------------------------------------


def test_criterion_12_ablation_parity():
    settings_soft = ModelConfig(kernels=(9, 15, 31), fusion="softmax")
    settings_mean = ModelConfig(kernels=(9, 15, 31), fusion="mean")
    store = ParamStore()
    params = gate_block.init_params(store, "b", 6, settings_soft, stream(12, INIT), np.float64)
    ok = np.all(params.gate_w.value == 0.0) and np.all(params.gate_b.value == 0.0)
    for trial in range(5):
        x = np.random.default_rng(1200 + trial).standard_normal((6, 8, 8))
        soft = gate_block.forward(Var(x), params, settings_soft)
        mean = gate_block.forward(Var(x), params, settings_mean)
        ok &= np.array_equal(soft.value, mean.value)
    report(12, ok, "zero-init softmax fusion bitwise-equal to mean fusion at initialization")
