"""Golden outputs: sha256 digests of the README CLI tour, two predictions and one
training step's gradients.

The tour (gen-data, train, eval, predict, the four analyze queries with their CSV
tables, inspect params, gates and betas), then six snr-sweep and beta-star queries
with theirs, runs in process through ``cli.main`` in a temporary directory; each
command's exit code and stdout, and every file it writes, is one artifact. The
predictions are one seeded kth 10→10 ``harness.predict_batch`` call (128×128, a
model built at seed 7, the ``gen_bouncing(0, 1, 10, 128, 128)`` input) and one
micro 2→5 rollout. The gradients are those of two ``harness._loss_and_grads`` steps:
one at micro on the paths the tour never trains (mean fusion, a fixed β, a 2→5
rollout and stochastic depth), and one at 32×32 with n_s = 4, whose encoder has two
stride-2 convs and whose decoder has two upsampling stages.

Outputs are bitwise functions of the flags only on one Python, numpy and BLAS build
and one machine, so the manifest records that fingerprint beside the digests. A change
that moves a digest states how far its artifacts moved: dump them from both trees, then
compare, which prints max |Δ| / max |x| for each artifact, x the first tree's values
(a text's numbers, a checkpoint's tensors), and the worst move of one number against
itself, max |Δ_i| / |x_i|, or "bytes differ" where its text does.

    python tests/golden.py                 # compare with tests/golden_micro.json
    python tests/golden.py --record        # rewrite it from this tree
    python tests/golden.py --dump DIR      # save each artifact's arrays in DIR
    python tests/golden.py --compare A B   # how far the artifacts dumped in B moved from A
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import pathlib
import platform
import re
import sys
import tempfile

import numpy as np

MANIFEST = pathlib.Path(__file__).with_name("golden_micro.json")

MICRO_CFG = """t_in = 2
t_out = 2
height = 16
width = 16
latent_c = 6
n_s = 2
n_t = 2
kernels = 9,15,31
epochs = 5
lr = 0.002
batch = 8
seed = 7
"""

TOUR = [
    ["gen-data", "--out", "train.pfgt", "--seed", "7", "--num", "48", "--frames", "4",
     "--size", "16"],
    ["train", "--config", "micro.cfg", "--data", "train.pfgt", "--out", "model.pfgc"],
    ["eval", "--ckpt", "model.pfgc", "--data", "train.pfgt", "--out-csv", "metrics.csv"],
    ["predict", "--ckpt", "model.pfgc", "--input", "train.pfgt", "--output", "pred.pfgt"],
    ["analyze", "ring", "--hl", "gauss:0.5,gain=0.5", "--hs", "exp:1.5", "--beta", "0.75",
     "--out-csv", "ring.csv"],
    ["analyze", "snr-sweep", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--ps", "band:0.5,2.5",
     "--sigma2", "1", "--out-csv", "sweep.csv"],
    ["analyze", "beta-star", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--ps", "band:0.5,2.5",
     "--sigma2", "1", "--out-csv", "beta_star_readme.csv"],
    ["analyze", "beta-star", "--coeffs", "2,1,1,1,0,1", "--out-csv", "beta_star_coeffs.csv"],
    ["inspect", "params", "--config", "micro.cfg"],
    ["inspect", "gates", "--ckpt", "model.pfgc", "--input", "train.pfgt", "--block", "0",
     "--out-prefix", "gates"],
    ["inspect", "betas", "--ckpt", "model.pfgc", "--out-csv", "betas.csv"],
]

# the seed-1 beta-star pairs of perfbench's analyze-analytic cycle
SEEDED_PAIRS = [
    ["--hl", "exp:0.5893", "--hs", "gauss:2.9622", "--ps", "band:0.3674,2.3862",
     "--sigma2", "1.0578"],
    ["--hl", "exp:0.7034", "--hs", "gauss:2.5583", "--ps", "band:0.5036,1.9898",
     "--sigma2", "1.5405"],
]

# snr-sweep and beta-star with their SNR tables beyond the tour's: the seeded pairs,
# a 4,097-sample sweep and coefficients at 1e±300
SNR_QUERIES = [
    *(["analyze", kind, *pair, "--out-csv", f"{kind}_seeded{i}.csv"]
      for i, pair in enumerate(SEEDED_PAIRS) for kind in ("snr-sweep", "beta-star")),
    ["analyze", "snr-sweep", "--hl", "exp:0.6", "--hs", "gauss:2.5", "--ps", "band:0.5,2.5",
     "--sigma2", "1", "--samples", "4097", "--out-csv", "sweep_4097.csv"],
    ["analyze", "beta-star", "--coeffs=1e-300,1e-300,1e300,1e300,1e-300,1e-300",
     "--out-csv", "beta_star_extreme.csv"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _openblas_core() -> dict:
    """The core OpenBLAS picked at run time, when numpy bundles it. Its thread count is
    left out: one and two threads give the same digests on an x86_64 SkylakeX build."""
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return {"core": corename().decode()}
    return {}


def fingerprint() -> dict:
    """What the digests depend on besides the code: Python, numpy, BLAS and machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"),
                 **_openblas_core()},
        "machine": f"{platform.system()} {platform.machine()}",
    }


def _tour(workdir: pathlib.Path) -> dict[str, bytes]:
    from perigate.cli import main

    artifacts = {}
    (workdir / "micro.cfg").write_text(MICRO_CFG)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for i, argv in enumerate(TOUR + SNR_QUERIES):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            key = f"stdout:{i:02d} {argv[0]} {argv[1]}"
            artifacts[key] = f"{code}\n{out.getvalue()}".encode()
    finally:
        os.chdir(cwd)
    for path in sorted(workdir.iterdir()):
        if path.name != "micro.cfg":
            artifacts["file:" + path.name] = path.read_bytes()
    return artifacts


def _kth_prediction() -> np.ndarray:
    from perigate import data, harness
    from perigate.model import Model, ModelConfig

    cfg = ModelConfig(t_in=10, t_out=10, height=128, width=128, latent_c=6, n_s=2, n_t=2,
                      kernels=(9, 15, 31))
    return harness.predict_batch(Model.build(cfg, seed=7), data.gen_bouncing(0, 1, 10, 128, 128))


def _micro_rollout() -> np.ndarray:
    from perigate import data, harness
    from perigate.model import Model, ModelConfig

    cfg = ModelConfig(t_in=2, t_out=5, height=16, width=16, latent_c=6, n_s=2, n_t=2,
                      kernels=(9, 15, 31))
    return harness.predict_batch(Model.build(cfg, seed=7), data.gen_bouncing(7, 4, 2, 16, 16))


def _gradients(cfg, seqs) -> dict[str, np.ndarray]:
    """Every parameter's gradient after one ``harness._loss_and_grads`` step on ``seqs``,
    in store order."""
    from perigate import harness
    from perigate.model import Model
    from perigate.rng import DROP, stream

    model = Model.build(cfg, seed=7)
    n = seqs.shape[0]
    harness._loss_and_grads(model, seqs, lambda p, b: stream(7, DROP, p * 4096 + b).random(n),
                            "golden")
    return {name: model.store.grad(name) for name in model.store.names()}


def _step_gradients() -> dict[str, np.ndarray]:
    """Micro, 8 sequences: mean fusion, a fixed β, a 2→5 rollout and stochastic depth."""
    from perigate import data
    from perigate.model import ModelConfig

    cfg = ModelConfig(t_in=2, t_out=5, height=16, width=16, latent_c=6, n_s=2, n_t=2,
                      kernels=(9, 15, 31), fusion="mean", beta_mode="fixed", beta_fixed=0.3,
                      drop_path=0.2)
    return _gradients(cfg, data.gen_bouncing(7, 8, 7, 16, 16))


def _deep_step_gradients() -> dict[str, np.ndarray]:
    """32×32, 4 sequences, n_s = 4: two stride-2 encoder convs, two upsampling stages."""
    from perigate import data
    from perigate.model import ModelConfig

    cfg = ModelConfig(t_in=2, t_out=2, height=32, width=32, latent_c=6, n_s=4, n_t=1,
                      kernels=(9, 15, 31))
    return _gradients(cfg, data.gen_bouncing(7, 4, 4, 32, 32))


def artifacts() -> dict:
    """Every artifact, computed on this tree: the tour's bytes, each prediction's array
    and each step's gradients by parameter name, in store order."""
    with tempfile.TemporaryDirectory() as tmp:
        arts = _tour(pathlib.Path(tmp))
    arts["predict_batch:kth 10->10"] = _kth_prediction()
    arts["predict_batch:micro 2->5"] = _micro_rollout()
    arts["gradients:micro step, mean fusion, fixed beta, 2->5, drop path"] = _step_gradients()
    arts["gradients:32x32 step, n_s 4"] = _deep_step_gradients()
    return arts


def _digest(art) -> str:
    if isinstance(art, bytes):
        return _sha(art)
    if isinstance(art, np.ndarray):
        return _sha(f"{art.dtype} {art.shape}\n".encode() + art.tobytes())
    return _sha(b"".join(f"{name} {g.shape}\n".encode() + g.tobytes() for name, g in art.items()))


def compute() -> dict[str, str]:
    """Every artifact's sha256, computed on this tree."""
    return {name: _digest(art) for name, art in artifacts().items()}


# a number in a text artifact: CSV cells, printed metrics and the like
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _arrays(name: str, art, tmp: pathlib.Path) -> dict[str, np.ndarray]:
    """An artifact as named arrays: a step's gradients by parameter name; a prediction
    or a tensor file as ``value``; a checkpoint's tensors by name; a text's numbers as
    ``numbers`` beside the rest of it as ``text`` (uint8); other bytes as ``bytes``."""
    from perigate import container

    if isinstance(art, dict):
        return art
    if isinstance(art, np.ndarray):
        return {"value": art}
    if name.endswith((".pfgc", ".pfgt")):
        path = tmp / "artifact"
        path.write_bytes(art)
        if name.endswith(".pfgc"):
            return container.load_checkpoint(path)[1]
        return {"value": container.load_tensor(path)}
    try:
        art.decode()
    except UnicodeDecodeError:
        return {"bytes": np.frombuffer(art, dtype=np.uint8)}
    return {"numbers": np.array([float(m) for m in NUMBER.findall(art)]),
            "text": np.frombuffer(NUMBER.sub(b"#", art), dtype=np.uint8)}


def dump(arts: dict, directory: pathlib.Path) -> None:
    """One ``.npz`` per artifact in ``directory``, named after it, of its
    :func:`_arrays`."""
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, art in arts.items():
            np.savez(directory / (re.sub(r"[^\w.-]+", "_", name) + ".npz"),
                     **_arrays(name, art, pathlib.Path(tmp)))


def _worst_relative(x: np.ndarray, y: np.ndarray) -> float:
    """max over i of |y_i - x_i| / |x_i|: 0 where both are 0, inf where only x_i is."""
    d = np.abs(y - x)
    return np.divide(d, np.abs(x), out=np.where(d > 0, np.inf, 0.0), where=x != 0).max(
        initial=0.0)


def moved(a: pathlib.Path, b: pathlib.Path) -> list[str]:
    """One line per artifact dumped in ``a`` or ``b``: max |Δ| / max |x| over its
    numeric arrays, x those in ``a``, then "each" and max |Δ_i| / |x_i|, so that a move
    small beside the largest number (a flop count) still shows; or why no such figure
    holds: its arrays' names or shapes differ ("layout differs"), or its text or other
    bytes do ("bytes differ")."""
    lines = []
    for name in sorted({p.name for p in a.glob("*.npz")} | {p.name for p in b.glob("*.npz")}):
        if not (a / name).exists() or not (b / name).exists():
            lines.append(f"only in {a if (a / name).exists() else b}: {name[:-4]}")
            continue
        with np.load(a / name) as fa, np.load(b / name) as fb:
            xs, ys = dict(fa), dict(fb)
        exact = [k for k in xs if xs[k].dtype == np.uint8]
        if list(xs) != list(ys) or any(xs[k].shape != ys[k].shape for k in xs):
            verdict = "layout differs"
        elif any(not np.array_equal(xs[k], ys[k]) for k in exact):
            verdict = "bytes differ"
        else:
            x64 = {k: xs[k].astype(np.float64) for k in xs if k not in exact}
            delta = max((np.abs(x - ys[k]).max(initial=0.0) for k, x in x64.items()),
                        default=0.0)
            scale = max((np.abs(x).max(initial=0.0) for x in x64.values()), default=0.0)
            each = max((_worst_relative(x, ys[k]) for k, x in x64.items()), default=0.0)
            verdict = f"{delta / scale if scale else delta:.3g}, each {each:.3g}"
        lines.append(f"{verdict}: {name[:-4]}")
    return lines


def differences(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """The artifacts whose digests differ, or that only one side has."""
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite the manifest")
    parser.add_argument("--dump", metavar="DIR", type=pathlib.Path,
                        help="save each artifact's arrays in DIR")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), type=pathlib.Path,
                        help="max |Δ| / max |x| and max |Δ_i| / |x_i| of each artifact"
                        " dumped in B against A")
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(moved(*args.compare)))
        return 0
    arts = artifacts()
    if args.dump:
        dump(arts, args.dump)
        print(f"dumped {len(arts)} artifacts in {args.dump}")
        return 0
    digests = {name: _digest(art) for name, art in arts.items()}
    if args.record:
        MANIFEST.write_text(json.dumps({"fingerprint": fingerprint(), "digests": digests},
                                       indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(digests)} digests in {MANIFEST.name}")
        return 0
    manifest = json.loads(MANIFEST.read_text())
    if manifest["fingerprint"] != fingerprint():
        print(f"fingerprint differs: recorded {manifest['fingerprint']}, here {fingerprint()}")
        return 1
    diff = differences(manifest["digests"], digests)
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(digests) - len(diff)} of {len(manifest['digests'])} artifacts match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
