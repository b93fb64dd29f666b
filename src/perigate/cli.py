"""Command-line interface.

Exit codes: 0 success, 2 usage or input error, 1 internal error. Results go
to stdout, diagnostics to stderr. All file outputs are deterministic
functions of the flags (no timestamps in payloads).

The model stack (``harness``, ``config``, ``model`` and what they import) is
imported inside the commands that use it, so that ``analyze`` starts without it.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import container, spectral
from .errors import (
    ConfigParseError,
    ConfigurationError,
    DegeneracyError,
    InputError,
    NumericError,
    PerigateError,
)

USAGE_ERRORS = (ConfigurationError, ConfigParseError, InputError, DegeneracyError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perigate",
        description="Frequency-gated peripheral convolution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate bouncing-square sequences")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--num", type=int, default=64)
    gen.add_argument("--frames", type=int, default=4)
    gen.add_argument("--size", type=int, default=16)
    gen.add_argument("--objects", type=int, default=2)

    tr = sub.add_parser("train", help="train a model from a config file")
    tr.add_argument("--config", required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--history", default=None, help="history CSV (default: <out>.history.csv)")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out-csv", required=True)

    pr = sub.add_parser("predict", help="predict future frames")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--input", required=True)
    pr.add_argument("--output", required=True)

    an = sub.add_parser("analyze", help="spectral analysis of composite filters")
    an_sub = an.add_subparsers(dest="analysis", required=True)
    for name in ("ring", "snr-sweep", "beta-star"):
        p = an_sub.add_parser(name)
        p.add_argument("--hl", help="exp:RATE | gauss:VAR[,gain=G] | kernel:FILE")
        p.add_argument("--hs", help="same grammar as --hl")
        if name == "ring":
            p.add_argument("--beta", type=float, default=0.75)
        else:
            p.add_argument("--ps", default="flat", help="flat | band:LO,HI")
            p.add_argument("--sigma2", type=float, default=1.0)
        p.add_argument("--samples", type=int, default=spectral.DEFAULT_SAMPLES)
        p.add_argument("--out-csv", default=None)
        if name == "beta-star":
            p.add_argument(
                "--coeffs",
                default=None,
                help="A,B,C,At,Bt,Ct: bypass spectra and use raw quadratic coefficients",
            )

    ins = sub.add_parser("inspect", help="inspect a checkpoint or config")
    ins_sub = ins.add_subparsers(dest="inspection", required=True)
    g = ins_sub.add_parser("gates")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--input", required=True)
    g.add_argument("--block", type=int, required=True)
    g.add_argument("--out-prefix", required=True)
    b = ins_sub.add_parser("betas")
    b.add_argument("--ckpt", required=True)
    b.add_argument("--out-csv", required=True)
    p = ins_sub.add_parser("params")
    p.add_argument("--config", required=True)
    return parser


def _check_finite(raw: str, *values: float):
    """Reject a non-finite closed-form parameter before the response is
    evaluated (inf * 0 at r = 0 would warn on stderr first)."""
    if not all(np.isfinite(values)):
        raise InputError(f"spectrum '{raw}' has a non-finite parameter")


def _parse_spectrum(raw: str, samples: int) -> spectral.FreqResponse:
    if raw is None:
        raise InputError("missing spectrum specification")
    kind, _, rest = raw.partition(":")
    if kind == "exp":
        try:
            rate = float(rest)
        except ValueError:
            raise InputError(f"bad exp spectrum '{raw}'; expected exp:RATE") from None
        _check_finite(raw, rate)
        return spectral.response_from_function(spectral.ExpDecay(rate), samples)
    if kind == "gauss":
        parts = rest.split(",")
        try:
            variance = float(parts[0])
            gain = 1.0
            for extra in parts[1:]:
                key, _, value = extra.partition("=")
                if key.strip() != "gain":
                    raise ValueError(extra)
                gain = float(value)
        except ValueError:
            raise InputError(
                f"bad gauss spectrum '{raw}'; expected gauss:VAR[,gain=G]"
            ) from None
        _check_finite(raw, variance, gain)
        return spectral.response_from_function(spectral.GaussianDecay(variance, gain), samples)
    if kind == "kernel":
        arr = container.load_tensor(rest)
        if arr.ndim == 1:
            sk = spectral.SepKernel(arr, arr)
        elif arr.ndim == 2 and arr.shape[0] == 2:
            sk = spectral.SepKernel(arr[0], arr[1])
        else:
            raise InputError(
                f"kernel file must hold [k] (h=v) or [2,k] (h,v rows), got {arr.shape}"
            )
        return spectral.response_from_kernel(sk, samples)
    raise InputError(f"unknown spectrum kind '{kind}'; use exp:, gauss: or kernel:")


def _parse_signal(raw: str, samples: int) -> spectral.FreqResponse:
    if raw == "flat":
        return spectral.flat_spectrum(samples)
    if raw.startswith("band:"):
        try:
            lo, hi = (float(x) for x in raw[len("band:") :].split(","))
        except ValueError:
            raise InputError(f"bad signal spectrum '{raw}'; expected band:LO,HI") from None
        return spectral.band_spectrum(lo, hi, samples)
    raise InputError(f"unknown signal spectrum '{raw}'; use flat or band:LO,HI")


def _cmd_gen_data(args) -> int:
    from .data import gen_bouncing

    data = gen_bouncing(args.seed, args.num, args.frames, args.size, args.size, args.objects)
    container.save_tensor(args.out, data)
    print(f"wrote {args.out}: dims {list(data.shape)}")
    return 0


def _cmd_train(args) -> int:
    from . import harness
    from .config import load_config

    cfg = load_config(args.config)
    data = container.load_tensor(args.data)
    model, history = harness.train(
        cfg, data, log=lambda rec: print(f"epoch {rec.epoch}: loss {rec.loss:.6g}", file=sys.stderr)
    )
    harness.save_model(args.out, cfg, model)
    history_path = args.history or (args.out + ".history.csv")
    harness.write_history_csv(history_path, history)
    if cfg.lr == 0:
        print("warning: learning rate is 0; checkpoint equals the initialization", file=sys.stderr)
    print(f"final loss {history[-1].loss:.10g}")
    return 0


def _cmd_eval(args) -> int:
    from . import harness
    from .metrics import PSNR_CAP_DB

    cfg, model = harness.load_model(args.ckpt)
    data = container.load_tensor(args.data)
    report = harness.evaluate(cfg, model, data)
    harness.write_metrics_csv(args.out_csv, report)
    for name in harness.METRIC_NAMES:
        print(f"{name} {report[name]:.10g}")
    if report["psnr"] >= PSNR_CAP_DB:
        print(f"note: zero-error frames score the {PSNR_CAP_DB} dB PSNR cap", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    from . import harness

    _, model = harness.load_model(args.ckpt)
    data = container.load_tensor(args.input)
    preds = harness.predict_batch(model, data)
    container.save_tensor(args.output, preds)
    print(f"wrote {args.output}: dims {list(preds.shape)}")
    return 0


def _cmd_analyze(args) -> int:
    """Run one analysis; arithmetic that leaves the float64 range refuses the
    query (exit 2) instead of printing a numpy warning."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            return _analyze(args)
        except FloatingPointError as exc:
            raise InputError(f"analysis leaves the float64 range ({exc})") from None


def _analyze(args) -> int:
    if args.analysis == "beta-star" and args.coeffs is not None:
        try:
            a, b, c, at, bt, ct = (float(x) for x in args.coeffs.split(","))
        except ValueError:
            raise InputError("bad --coeffs; expected six comma-separated numbers") from None
        coeffs = spectral.QuadCoeffs(a, b, c, at, bt, ct, args.sigma2)
        return _beta_star(coeffs, args)
    h_l = _parse_spectrum(args.hl, args.samples)
    h_s = _parse_spectrum(args.hs, args.samples)
    if args.analysis == "ring":
        h_beta = spectral.composite(h_l, h_s, args.beta)
        band = spectral.find_ring(h_beta)
        if args.out_csv:
            spectral.write_ring_csv(args.out_csv, h_l, h_s, h_beta, band)
        if band is None:
            print("none")
        else:
            extra = " (multiple bands; widest shown)" if band.multiple else ""
            print(f"ring {band.r1:.9f} {band.r2:.9f}{extra}")
        return 0
    p_s = _parse_signal(args.ps, args.samples)
    coeffs = spectral.quad_coeffs(h_l, h_s, p_s, args.sigma2)
    if args.analysis == "snr-sweep":
        # open interval: beta = +-1 can zero the noise energy for dependent spectra
        betas = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, args.samples)
        values = spectral.snr(betas, coeffs)
        if args.out_csv:
            spectral.write_snr_sweep_csv(args.out_csv, betas, values)
        print(f"snr range [{values.min():.9g}, {values.max():.9g}] over beta in (-1, 1)")
        return 0
    return _beta_star(coeffs, args)


def _beta_star(coeffs: spectral.QuadCoeffs, args) -> int:
    beta_star, snr_star = spectral.optimal_beta(coeffs, verify=False)
    grid_ok, _ = spectral.grid_check(coeffs, snr_star)
    print(f"beta_star {beta_star:.6f}")
    print(f"snr_star {snr_star:.9g}")
    print(f"snr_at_zero {spectral.snr(0.0, coeffs):.9g}")
    print(f"grid_ok {str(grid_ok).lower()}")
    if args.out_csv:
        betas = np.linspace(-1.0, 1.0, args.samples)
        spectral.write_snr_sweep_csv(args.out_csv, betas, spectral.snr(betas, coeffs))
    return 0 if grid_ok else 1


def _cmd_inspect(args) -> int:
    from . import harness

    if args.inspection == "params":
        from .config import load_config
        from .model import count_flops, count_params

        cfg = load_config(args.config)
        print(count_params(cfg.model))
        print(count_flops(cfg.model))
        return 0
    cfg, model = harness.load_model(args.ckpt)
    if args.inspection == "betas":
        harness.dump_betas(model, args.out_csv)
        print(f"wrote {args.out_csv}")
        return 0
    data = container.load_tensor(args.input)
    if data.ndim == 5:
        data = data[0]
    csv_path, pgm_path = harness.dump_gates(model, data, args.block, args.out_prefix)
    print(f"wrote {csv_path}")
    print(f"wrote {pgm_path}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "analyze": _cmd_analyze,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:  # MemoryError: a size flag too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, PerigateError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
