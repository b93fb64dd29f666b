"""CLI surface: subcommands, exit codes, file outputs."""

import contextlib
import io
import math
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigate import container, harness
from perigate.cli import build_parser, main
from perigate.config import TrainConfig
from perigate.model import Model

from helpers import fresh_interpreter, micro_config

MICRO_CONFIG = """
t_in = 2
t_out = 2
c_in = 1
c_out = 1
height = 8
width = 8
latent_c = 6
n_s = 2
n_t = 1
kernels = 3,5
drop_path = 0.0
epochs = 2
lr = 0.001
batch = 8
seed = 0
"""


@pytest.fixture()
def workspace(tmp_path):
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICRO_CONFIG)
    data = tmp_path / "train.pfgt"
    assert main(["gen-data", "--out", str(data), "--seed", "0", "--num", "12",
                 "--frames", "4", "--size", "8"]) == 0
    return tmp_path, cfg, data


class TestGenData:
    def test_writes_magic_and_dims(self, tmp_path, capsys):
        out = tmp_path / "d.pfgt"
        code = main(["gen-data", "--out", str(out), "--seed", "3", "--num", "5",
                     "--frames", "4", "--size", "8"])
        assert code == 0
        assert out.read_bytes()[:4] == b"PFGT"
        arr = container.load_tensor(out)
        assert arr.shape == (5, 4, 1, 8, 8)

    def test_repeat_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.pfgt", tmp_path / "b.pfgt"
        for path in (a, b):
            main(["gen-data", "--out", str(path), "--seed", "9", "--num", "3",
                  "--frames", "2", "--size", "8"])
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_2(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "no/such/dir/x.pfgt"),
                     "--num", "1", "--frames", "1", "--size", "8"]) == 2


class TestTrainEvalPredict:
    def test_full_cycle(self, workspace, capsys):
        tmp_path, cfg, data = workspace
        ckpt = tmp_path / "model.pfgc"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "final loss" in out
        assert ckpt.read_bytes()[:4] == b"PFGC"
        assert (tmp_path / "model.pfgc.history.csv").exists()

        pred_out = tmp_path / "pred.pfgt"
        assert main(["predict", "--ckpt", str(ckpt), "--input", str(data),
                     "--output", str(pred_out)]) == 0
        preds = container.load_tensor(pred_out)
        assert preds.shape == (12, 2, 1, 8, 8)

    def test_eval_csv_rows(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MICRO_CONFIG.replace("height = 8", "height = 16")
                       .replace("width = 8", "width = 16"))
        data = tmp_path / "d.pfgt"
        main(["gen-data", "--out", str(data), "--num", "6", "--frames", "4",
              "--size", "16"])
        ckpt = tmp_path / "m.pfgc"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(ckpt)]) == 0
        csv_out = tmp_path / "metrics.csv"
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--out-csv", str(csv_out)]) == 0
        lines = csv_out.read_text().strip().splitlines()
        assert len(lines) == 7

    def test_train_determinism(self, workspace):
        tmp_path, cfg, data = workspace
        c1, c2 = tmp_path / "m1.pfgc", tmp_path / "m2.pfgc"
        main(["train", "--config", str(cfg), "--data", str(data), "--out", str(c1)])
        main(["train", "--config", str(cfg), "--data", str(data), "--out", str(c2)])
        assert c1.read_bytes() == c2.read_bytes()

    def test_zero_lr_warning(self, workspace, capsys):
        tmp_path, cfg, data = workspace
        cfg0 = tmp_path / "zero.cfg"
        cfg0.write_text(MICRO_CONFIG.replace("lr = 0.001", "lr = 0.0"))
        assert main(["train", "--config", str(cfg0), "--data", str(data),
                     "--out", str(tmp_path / "z.pfgc")]) == 0
        assert "learning rate is 0" in capsys.readouterr().err

    def test_invalid_config_key_exits_2(self, workspace, capsys):
        tmp_path, _, data = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text("t_in = 2\nwat = 9\n")
        assert main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "x.pfgc")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_config_data_mismatch_exits_2(self, workspace):
        tmp_path, cfg, _ = workspace
        other = tmp_path / "wide.pfgt"
        main(["gen-data", "--out", str(other), "--num", "4", "--frames", "4",
              "--size", "16"])
        assert main(["train", "--config", str(cfg), "--data", str(other),
                     "--out", str(tmp_path / "x.pfgc")]) == 2

    def test_rollout_prefix_bitwise(self, workspace):
        tmp_path, cfg, data = workspace
        ckpt = tmp_path / "m.pfgc"
        main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt)])
        # same weights, longer horizon: re-write checkpoint with t_out = 4
        text, tensors = container.load_checkpoint(ckpt)
        long_ckpt = tmp_path / "long.pfgc"
        container.save_checkpoint(long_ckpt, text.replace("t_out = 2", "t_out = 4"), tensors)
        p_short = tmp_path / "short.pfgt"
        p_long = tmp_path / "long.pfgt"
        main(["predict", "--ckpt", str(ckpt), "--input", str(data), "--output", str(p_short)])
        main(["predict", "--ckpt", str(long_ckpt), "--input", str(data), "--output", str(p_long)])
        short = container.load_tensor(p_short)
        long = container.load_tensor(p_long)
        assert long.shape[1] == 4
        assert short.tobytes() == long[:, :2].copy().tobytes()


class TestAnalyze:
    def test_ring_parametric_prints_oracle_result(self, tmp_path, capsys):
        out_csv = tmp_path / "ring.csv"
        code = main(["analyze", "ring", "--hl", "exp:0.6", "--hs", "gauss:2.5,gain=1.6",
                     "--beta", "0.75", "--out-csv", str(out_csv)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed == "none"  # composite stays negative on [0, pi]
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "r,H_L,H_S,H_beta,ring_flag"
        assert all(line.endswith(",0") for line in lines[1:])

    def test_ring_present_case(self, capsys):
        # fast-decaying gaussian surround minus a slow exponential center:
        # negative at DC (gain 0.5 < beta), positive mid-band, negative by pi
        code = main(["analyze", "ring", "--hl", "gauss:0.5,gain=0.5", "--hs", "exp:1.5",
                     "--beta", "0.75"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("ring ")

    def test_kernel_spectrum(self, tmp_path, capsys):
        kfile = tmp_path / "k.pfgt"
        container.save_tensor(kfile, np.ones(3, dtype=np.float64))
        assert main(["analyze", "ring", "--hl", f"kernel:{kfile}", "--hs", "gauss:1.0",
                     "--beta", "0.5"]) == 0

    def test_kernel_spectrum_hv_rows(self, tmp_path):
        kfile = tmp_path / "hv.pfgt"
        container.save_tensor(kfile, np.stack([np.ones(5), np.array([0, 0, 1.0, 0, 0])]))
        assert main(["analyze", "ring", "--hl", f"kernel:{kfile}", "--hs", "gauss:1.0",
                     "--beta", "0.5"]) == 0

    def test_kernel_spectrum_bad_shape(self, tmp_path):
        kfile = tmp_path / "bad.pfgt"
        container.save_tensor(kfile, np.ones((3, 3), dtype=np.float64))
        assert main(["analyze", "ring", "--hl", f"kernel:{kfile}", "--hs", "gauss:1.0",
                     "--beta", "0.5"]) == 2

    def test_kernel_crafted_header_exits_2(self, tmp_path, capsys):
        kfile = tmp_path / "huge.pfgt"
        header = b"PFGT" + struct.pack("<BBHI", 1, 1, 0, 2)
        kfile.write_bytes(header + struct.pack("<2Q", 2**32, 2**32))
        assert main(["analyze", "ring", "--hl", f"kernel:{kfile}", "--hs", "gauss:1.0",
                     "--beta", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_snr_sweep_constant_for_proportional(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        assert main(["analyze", "snr-sweep", "--hl", "gauss:2.0,gain=1.0",
                     "--hs", "gauss:2.0,gain=0.5", "--ps", "flat", "--sigma2", "2.0",
                     "--out-csv", str(out_csv)]) == 0
        rows = out_csv.read_text().strip().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        assert values.max() - values.min() < 1e-9

    def test_beta_star_fixture(self, capsys):
        code = main(["analyze", "beta-star", "--coeffs", "2,1,1,1,0,1"])
        assert code == 0
        out = capsys.readouterr().out
        beta_line = [l for l in out.splitlines() if l.startswith("beta_star")][0]
        assert math.isclose(float(beta_line.split()[1]), (1 - math.sqrt(5)) / 2, abs_tol=1e-4)
        assert "grid_ok true" in out

    def test_beta_star_from_spectra(self, capsys):
        code = main(["analyze", "beta-star", "--hl", "exp:0.6", "--hs", "gauss:2.5",
                     "--ps", "band:0.5,2.5", "--sigma2", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "snr_at_zero" in out and "grid_ok true" in out

    def test_beta_star_below_grid_exits_1(self, capsys, monkeypatch):
        from perigate import spectral

        # an "optimum" at beta = 0.9 falls short of the grid maximum near -0.618
        monkeypatch.setattr(spectral, "optimal_beta",
                            lambda coeffs: (0.9, spectral.snr(0.9, coeffs)))
        code = main(["analyze", "beta-star", "--coeffs", "2,1,1,1,0,1"])
        assert code == 1
        assert "grid_ok false" in capsys.readouterr().out

    def test_malformed_grammar_exits_2(self, capsys):
        assert main(["analyze", "ring", "--hl", "exp:fast", "--hs", "gauss:1"]) == 2
        assert main(["analyze", "ring", "--hl", "blob:1", "--hs", "gauss:1"]) == 2
        assert main(["analyze", "snr-sweep", "--hl", "exp:1", "--hs", "gauss:1",
                     "--ps", "band:2"]) == 2


@pytest.mark.parametrize("spec", ["gauss:1,gain=2,gain=3", "gauss:1,gain=2,", "gauss:1,"])
def test_malformed_gauss_exits_2(spec, capsys):
    err = _exits_2_with_one_error_line(["analyze", "ring", "--hl", spec, "--hs", "exp:1"], capsys)
    assert "gauss:VAR[,gain=G]" in err


def _exits_2_with_one_error_line(argv, capsys):
    # outside pytest, a warning raised here would print to stderr before the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    return err


NONFINITE_ANALYZE = {
    "coeffs_nan": ["beta-star", "--coeffs", "1,2,3,4,5,nan"],
    "coeffs_inf": ["beta-star", "--coeffs", "1,2,3,4,5,inf"],
    "kernel_nan": ["beta-star", "--hl", "kernel:{kfile}", "--hs", "gauss:2.5"],
    "hl_exp_nan": ["ring", "--hl", "exp:nan", "--hs", "gauss:2.5"],
    "hl_exp_inf": ["beta-star", "--hl", "exp:inf", "--hs", "gauss:2.5"],
    "hl_exp_neg_inf": ["snr-sweep", "--hl", "exp:-inf", "--hs", "gauss:2.5"],
    "hs_gauss_inf": ["ring", "--hl", "exp:0.6", "--hs", "gauss:inf"],
    "gain_inf": ["beta-star", "--hl", "exp:0.6", "--hs", "gauss:2.5,gain=inf"],
    "hs_gauss_nan": ["ring", "--hl", "exp:0.6", "--hs", "gauss:nan"],
    "hs_gauss_zero": ["ring", "--hl", "exp:0.6", "--hs", "gauss:0"],
    "hs_gauss_negative": ["snr-sweep", "--hl", "exp:0.6", "--hs", "gauss:-1"],
    "gain_nan": ["ring", "--hl", "exp:0.6", "--hs", "gauss:2.5,gain=nan"],
    "beta_nan": ["ring", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--beta", "nan"],
    "beta_inf": ["ring", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--beta", "inf"],
    "beta_neg_inf": ["ring", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--beta=-inf"],
    "sigma2_nan": ["snr-sweep", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--sigma2", "nan"],
    "sigma2_inf": ["beta-star", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--sigma2", "inf"],
    "band_edge_inf": ["snr-sweep", "--hl", "exp:1", "--hs", "gauss:2", "--ps", "band:1,1e400"],
    "band_edge_nan": ["beta-star", "--hl", "exp:1", "--hs", "gauss:2", "--ps", "band:nan,2"],
}


@pytest.mark.parametrize("case", sorted(NONFINITE_ANALYZE))
def test_nonfinite_analyze_input_exits_2(case, tmp_path, capsys):
    kfile = tmp_path / "k.pfgt"
    container.save_tensor(kfile, np.array([0.25, np.nan, 0.25]))
    argv = [a.format(kfile=kfile) for a in NONFINITE_ANALYZE[case]]
    _exits_2_with_one_error_line(["analyze"] + argv, capsys)


# a value that starts with '-' after a flag, which argparse alone reads as a flag unless
# it is a plain negative decimal: each query answers as its '--flag=value' form
DASHED_VALUES = {
    "beta_exponent": (["ring", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--beta", "-1e-3"], 0),
    "beta_neg_inf": (["ring", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--beta", "-inf"], 2),
    "coeffs_list": (["beta-star", "--coeffs", "-2,1,1,1,0,1"], 0),
}


@pytest.mark.parametrize("case", sorted(DASHED_VALUES))
def test_dashed_value_after_a_flag_is_its_value(case, capsys):
    spaced, code = DASHED_VALUES[case]
    attached = spaced[:-2] + [f"{spaced[-2]}={spaced[-1]}"]
    assert main(["analyze"] + attached) == code
    want = capsys.readouterr()
    assert main(["analyze"] + spaced) == code
    assert capsys.readouterr() == want
    assert want.err == ("error: beta must be finite, got -inf\n" if code else "")


# Sizes numpy refuses to allocate before touching any memory: 373 TiB and 284 PiB
# of frames, and 728 TiB of float64 samples (beyond a 47-bit address space).
TOO_LARGE = {
    "gen_num": ["gen-data", "--out", "{out}", "--num", "100000000000"],
    "gen_size": ["gen-data", "--out", "{out}", "--num", "2", "--size", "100000000"],
    "analyze_samples": ["analyze", "ring", "--hl", "exp:1", "--hs", "exp:2",
                        "--samples", "100000000000000"],
}


@pytest.mark.parametrize("case", sorted(TOO_LARGE))
def test_size_beyond_memory_exits_2(case, tmp_path, capsys):
    out = tmp_path / "a.pfgt"
    _exits_2_with_one_error_line([a.format(out=out) for a in TOO_LARGE[case]], capsys)
    assert not out.exists()


STRAY_ANALYZE_FLAGS = {
    "snr_sweep_beta": ["snr-sweep", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--beta", "nan"],
    "beta_star_beta": ["beta-star", "--coeffs", "2,1,1,1,0,1", "--beta", "0.5"],
    "ring_sigma2_ps": ["ring", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--sigma2", "nan",
                       "--ps", "band:9,1"],
    "ring_ps": ["ring", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--ps", "flat"],
}


@pytest.mark.parametrize("case", sorted(STRAY_ANALYZE_FLAGS))
def test_flag_the_analysis_does_not_use_exits_2(case, capsys):
    # --beta belongs to ring only; --ps and --sigma2 to snr-sweep and beta-star only
    with pytest.raises(SystemExit) as exc:
        main(["analyze"] + STRAY_ANALYZE_FLAGS[case])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


SHORT_SAMPLES = {
    "ring": ["ring", "--hl", "exp:0.6", "--hs", "gauss:2.5"],
    "snr_sweep": ["snr-sweep", "--hl", "exp:0.6", "--hs", "gauss:2.5"],
    "beta_star": ["beta-star", "--hl", "exp:0.6", "--hs", "gauss:2.5"],
    "beta_star_coeffs": ["beta-star", "--coeffs", "2,1,3,1,0,1"],
}


@pytest.mark.parametrize("samples", ["-5", "0", "1", "63"])
@pytest.mark.parametrize("case", sorted(SHORT_SAMPLES))
def test_too_few_samples_exits_2(case, samples, tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["analyze"] + SHORT_SAMPLES[case] + ["--samples", samples, "--out-csv", str(out)]
    err = _exits_2_with_one_error_line(argv, capsys)
    assert f"need at least 64 samples, got {samples}" in err
    assert not out.exists()


@pytest.mark.parametrize("sigma2", ["0", "-0", "-1"])
def test_nonpositive_noise_power_exits_2(sigma2, capsys):
    argv = ["analyze", "beta-star", "--coeffs", "2,1,3,1,0,1", "--sigma2", sigma2]
    assert "noise power must be positive" in _exits_2_with_one_error_line(argv, capsys)


@pytest.mark.parametrize("coeffs", ["2,1,1,1,1,1", "2,1,1,1,-1,1"])
def test_beta_star_pole_in_domain_exits_2(coeffs, capsys):
    # At*Ct = Bt^2: the noise energy has a double root at beta = +-1
    _exits_2_with_one_error_line(["analyze", "beta-star", "--coeffs", coeffs], capsys)


def test_beta_star_pole_outside_domain(capsys):
    # the noise energy's double root at beta = 2 solves the stationary
    # equation but is a pole, not a stationary point; beta = 0 is one
    assert main(["analyze", "beta-star", "--coeffs", "2,1,1,1,0.5,0.25"]) == 0
    assert "grid_ok true" in capsys.readouterr().out


def test_beta_star_root_on_a_fine_snr_scale(capsys):
    # a central difference of step 1e-6 reads 1.06e-8 at this stationary root, where the
    # closed-form derivative is -4.7e-13
    assert main(["analyze", "beta-star", "--hl", "exp:0.4211", "--hs", "gauss:3.2908",
                 "--ps", "band:0.6232,2.5683", "--sigma2", "0.5465"]) == 0
    out = capsys.readouterr().out
    assert "beta_star 0.937437" in out and "grid_ok true" in out


@pytest.mark.parametrize("query", [
    ["--hl", "exp:0.6", "--hs", "gauss:2.5", "--ps", "band:0.5,2.5", "--sigma2", "1"],
    ["--coeffs", "2,1,1,1,0,1"],
])
def test_beta_star_solves_its_quadratic_without_an_eigensolve(query, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the stationary equation went to an eigensolver")

    monkeypatch.setattr(np, "roots", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert main(["analyze", "beta-star"] + query) == 0
    assert "grid_ok true" in capsys.readouterr().out


EXTREME_COEFFS = {
    # the terms of 2P overflow at the caller's scale
    "overflowing_terms": ["--coeffs=-1.14e-138,2.62e+168,1.45e+85,2.61e+150,-1.4e+142,2.57e+144",
                          "--sigma2=9.22e-45"],
    # the bound is below the rounding of 2P's own terms at the caller's scale
    "rounding_terms": ["--coeffs=-5.75e+15,-8.6e+122,9.42e+183,3.48e+121,3.54e-09,4.27e-56",
                       "--sigma2=5.55e-15"],
}


@pytest.mark.parametrize("case", sorted(EXTREME_COEFFS))
def test_beta_star_roots_at_extreme_coeffs(case, capsys):
    assert main(["analyze", "beta-star"] + EXTREME_COEFFS[case]) == 0
    out = capsys.readouterr()
    assert "fails the derivative check" not in out.err
    assert out.out.startswith("beta_star -1.000000\n") and out.out.endswith("grid_ok true\n")


def test_beta_star_negative_noise_energy_below_unit_scale(capsys):
    # At < 0 is 1e-367 of Ct, so scaling the noise triple by its largest magnitude
    # flushes it to -0: the sign is read from the raw coefficient
    err = _exits_2_with_one_error_line(
        ["analyze", "beta-star", "--coeffs=-2.63e-97,7.1e-32,7.16e-167,-2.58e-173,-1.48e-199,"
         "2.86e+194", "--sigma2=8.22e+194"], capsys)
    assert err == "error: noise energy At - 2 beta Bt + beta^2 Ct is negative for some beta\n"


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    ring = ["analyze", "ring", "--hl", "gauss:0.5,gain=0.5", "--hs", "exp:1.5", "--beta", "0.75"]
    assert main(ring) == 0
    assert capsys.readouterr().out == "ring 0.353723718 1.146276282\n"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "ring", "--sigma2", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: perigate") and "unrecognized arguments: --sigma2 1" in err
    assert main(ring) == 0
    assert capsys.readouterr().out == "ring 0.353723718 1.146276282\n"
    assert build_parser() is build_parser()


@pytest.mark.parametrize("spectrum", ["exp:1e308", "gauss:1e-320"])
def test_closed_form_past_float64_is_its_limit(spectrum, capsys):
    # exp(-rate r) and exp(-r^2 / 2 var) past float64 are 0 away from r = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["analyze", "ring", "--hl", spectrum, "--hs", "exp:1.5", "--beta", "0.5"])
    assert code == 0 and [str(w.message) for w in caught] == []
    out = capsys.readouterr()
    assert out.out == "none\n" and out.err == ""


ANALYZE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e308, -1e308, 0.5, 1.0, 2.5]),
)


@st.composite
def analyze_queries(draw):
    """argv of one ``analyze`` query; every number a drawn float, finite or not, then a
    drawn ``--samples`` and, maybe, a bare ``--out-csv`` for the test to give a path.
    Values are attached with '=' so that '-inf' or '-1e+308' is never read as a flag."""
    num = lambda: repr(draw(ANALYZE_FLOATS))  # noqa: E731
    tail = [f"--samples={draw(st.one_of(st.integers(64, 100), st.integers(-8, 63)))}"]
    if draw(st.booleans()):
        tail.append("--out-csv")

    def spectrum():
        if draw(st.booleans()):
            return f"exp:{num()}"
        return f"gauss:{num()}" + (f",gain={num()}" if draw(st.booleans()) else "")

    kind = draw(st.sampled_from(["ring", "snr-sweep", "beta-star"]))
    argv = ["analyze", kind]
    if kind == "beta-star" and draw(st.booleans()):
        return argv + ["--coeffs=" + ",".join(num() for _ in range(6)), f"--sigma2={num()}"] + tail
    argv += [f"--hl={spectrum()}", f"--hs={spectrum()}"]
    if kind == "ring":
        return argv + [f"--beta={num()}"] + tail
    if draw(st.booleans()):
        argv.append(f"--ps=band:{num()},{num()}")
    return argv + [f"--sigma2={num()}"] + tail


@settings(max_examples=200, deadline=None)
@given(argv=analyze_queries())
@example(argv=["analyze", "ring", "--hl=exp:1e308", "--hs=exp:1.5", "--beta=0.5"])
@example(argv=["analyze", "beta-star", "--coeffs=1e308,1e308,1e308,1e308,1,1e308"])
@example(argv=["analyze", "snr-sweep", "--hl=exp:1", "--hs=gauss:1,gain=1e300",
               "--sigma2=1e-300"])
@example(argv=["analyze", "beta-star", "--coeffs=-4.7e16,-3e16,-3e16,0.5,0,1"])
@example(argv=["analyze", "beta-star", "--coeffs=0,6.6e16,0,5e-324,5e-221,7.1e16"])
@example(argv=["analyze", "beta-star", "--coeffs=2,1,3,1,0,1", "--samples=-5", "--out-csv"])
def test_analyze_answers_or_refuses_every_query(argv):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        out = os.path.join(tmp, "q.csv")
        code = main([f"--out-csv={out}" if a == "--out-csv" else a for a in argv])
    assert code in (0, 2)
    assert [str(w.message) for w in caught] == []
    text = err.getvalue()
    assert text == "" or (text.startswith("error:") and text.count("\n") == 1)


NONFINITE_SEQUENCES = {"nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("value", sorted(NONFINITE_SEQUENCES))
@pytest.mark.parametrize("command", ["train", "eval", "predict", "gates"])
def test_nonfinite_sequence_data_exits_2(command, value, workspace, capsys):
    tmp, cfg, data = workspace
    ckpt = tmp / "m.pfgc"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt)]) == 0
    seqs = container.load_tensor(data)
    seqs[3, 1, 0, 2, 5] = NONFINITE_SEQUENCES[value]
    if command == "gates":  # the gate dump reads the first sequence
        seqs[0] = seqs[3]
    bad = tmp / "bad.pfgt"
    container.save_tensor(bad, seqs)
    capsys.readouterr()
    argv = {
        "train": ["train", "--config", str(cfg), "--data", str(bad), "--out", str(tmp / "b.pfgc")],
        "eval": ["eval", "--ckpt", str(ckpt), "--data", str(bad),
                 "--out-csv", str(tmp / "m.csv")],
        "predict": ["predict", "--ckpt", str(ckpt), "--input", str(bad),
                    "--output", str(tmp / "p.pfgt")],
        "gates": ["inspect", "gates", "--ckpt", str(ckpt), "--input", str(bad), "--block", "0",
                  "--out-prefix", str(tmp / "g")],
    }[command]
    _exits_2_with_one_error_line(argv, capsys)
    assert not any(tmp.glob("b.pfgc*")) and not any(tmp.glob("p.pfgt")) and not any(tmp.glob("g_*"))


CKPT_DAMAGE = {  # offset into the checkpoint -> replacement bytes
    "name_byte_ff": (11, b"\xff"),
    "config_value_255": (37, struct.pack("<d", 255.0)),
    "config_value_nan": (37, struct.pack("<d", math.nan)),
}


@pytest.mark.parametrize("command", ["betas", "eval", "predict"])
@pytest.mark.parametrize("case", sorted(CKPT_DAMAGE))
def test_malformed_checkpoint_text_exits_2(case, command, tmp_path, capsys):
    cfg = TrainConfig(model=micro_config())
    ckpt, data = tmp_path / "m.pfgc", tmp_path / "d.pfgt"
    harness.save_model(ckpt, cfg, Model.build(cfg.model))
    container.save_tensor(data, np.zeros((1, 4, 1, 8, 8), dtype=np.float32))
    raw = bytearray(ckpt.read_bytes())
    at, patch = CKPT_DAMAGE[case]
    raw[at : at + len(patch)] = patch
    ckpt.write_bytes(raw)
    argv = {
        "betas": ["inspect", "betas", "--ckpt", str(ckpt), "--out-csv", str(tmp_path / "b.csv")],
        "eval": ["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--out-csv", str(tmp_path / "m.csv")],
        "predict": ["predict", "--ckpt", str(ckpt), "--input", str(data),
                    "--output", str(tmp_path / "p.pfgt")],
    }[command]
    _exits_2_with_one_error_line(argv, capsys)


@pytest.mark.parametrize("line", ["lr = nan", "lr = inf", "beta_mode = fixed:nan",
                                  "beta_mode = fixed:inf", "cues = f1,f1", "n_s = 1000000"])
def test_unusable_config_value_exits_2(line, workspace, capsys):
    tmp_path, cfg, _ = workspace
    key = line.split(" = ")[0]
    kept = [l for l in MICRO_CONFIG.splitlines() if l.split(" = ")[0] != key]
    cfg.write_text("\n".join(kept + [line]) + "\n")
    _exits_2_with_one_error_line(["inspect", "params", "--config", str(cfg)], capsys)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_nonpositive_latent_c_exits_2_naming_it(value, workspace, capsys):
    tmp_path, cfg, _ = workspace
    kept = [l for l in MICRO_CONFIG.splitlines() if not l.startswith("latent_c")]
    cfg.write_text("\n".join(kept + [f"latent_c = {value}"]) + "\n")
    err = _exits_2_with_one_error_line(["inspect", "params", "--config", str(cfg)], capsys)
    assert "latent_c" in err


def test_rollout_with_other_output_channels_exits_2(workspace, capsys):
    # a rollout feeds its predictions back as inputs
    tmp_path, cfg, _ = workspace
    kept = [l for l in MICRO_CONFIG.splitlines() if l.split(" = ")[0] not in ("t_out", "c_out")]
    cfg.write_text("\n".join(kept + ["t_out = 3", "c_out = 2"]) + "\n")
    err = _exits_2_with_one_error_line(["inspect", "params", "--config", str(cfg)], capsys)
    assert "c_out 2" in err and "c_in 1" in err


class TestInspect:
    def test_params_prints_two_integers(self, workspace, capsys):
        tmp_path, cfg, _ = workspace
        assert main(["inspect", "params", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(int(l) > 0 for l in lines)

    def test_params_of_an_empty_config(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")  # every key is optional
        assert main(["inspect", "params", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and all(int(l) > 0 for l in lines)

    def test_gates_and_betas(self, workspace, capsys):
        tmp_path, cfg, data = workspace
        ckpt = tmp_path / "m.pfgc"
        main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt)])
        prefix = tmp_path / "gates"
        assert main(["inspect", "gates", "--ckpt", str(ckpt), "--input", str(data),
                     "--block", "0", "--out-prefix", str(prefix)]) == 0
        pgm = (tmp_path / "gates_argmax.pgm").read_bytes()
        assert pgm.startswith(b"P5\n4 4\n255\n")  # latent 4x4
        betas_csv = tmp_path / "betas.csv"
        assert main(["inspect", "betas", "--ckpt", str(ckpt),
                     "--out-csv", str(betas_csv)]) == 0
        values = [float(l.split(",")[-1])
                  for l in betas_csv.read_text().strip().splitlines()[1:]]
        assert all(-1 < v < 1 for v in values)

    def test_bad_block_index_exits_2(self, workspace):
        tmp_path, cfg, data = workspace
        ckpt = tmp_path / "m.pfgc"
        main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt)])
        assert main(["inspect", "gates", "--ckpt", str(ckpt), "--input", str(data),
                     "--block", "7", "--out-prefix", str(tmp_path / "g")]) == 2


class TestExitCodes:
    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert main(["eval", "--ckpt", str(tmp_path / "nope.pfgc"),
                     "--data", str(tmp_path / "nope.pfgt"),
                     "--out-csv", str(tmp_path / "m.csv")]) == 2

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required flags
        assert exc.value.code == 2


def test_import_leaves_the_model_stack_unloaded():
    """A fresh interpreter importing the CLI, as every ``perigate`` command starts,
    loads none of the model stack and builds no kernel-spectrum basis table,
    beta grid or argument parser: ``analyze`` never pays for the first, closed-form
    queries not for the second, and the last two are built on first use."""
    code = ("import sys, perigate.cli; print([m for m in ('perigate.model', "
            "'perigate.autodiff', 'perigate.harness') if m in sys.modules], "
            "len(perigate.spectral._tables), "
            "perigate.spectral._check_tables.cache_info().currsize, "
            "perigate.cli.build_parser.cache_info().currsize)")
    assert fresh_interpreter(code).strip() == "[] 0 0 0"


def test_kernel_overflow_leaves_later_queries_unchanged(tmp_path, capsys):
    huge, surround, center = (tmp_path / f"{n}.pfgt" for n in ("huge", "surround", "center"))
    container.save_tensor(huge, np.full(31, 1e300))
    container.save_tensor(surround, np.cos(np.linspace(0.0, 3.0, 31)))
    container.save_tensor(center, np.array([0.25, 0.5, 0.25]))
    for _ in range(2):
        err = _exits_2_with_one_error_line(
            ["analyze", "ring", "--hl", f"kernel:{huge}", "--hs", "gauss:1.0"], capsys)
        assert err.startswith("error: analysis leaves the float64 range (")
        assert err.endswith(")\n")
    argv = ["analyze", "beta-star", "--hl", f"kernel:{surround}", "--hs", f"kernel:{center}",
            "--ps", "band:0.5,2.5"]
    assert main(argv) == 0
    fresh = fresh_interpreter("import sys; from perigate.cli import main; main(sys.argv[1:])",
                               *argv)
    assert capsys.readouterr().out == fresh
