"""Define-by-run reverse-mode differentiation over the operation vocabulary.

Each traced function computes its value and, while a tape is active,
records a node holding the backward closure; without an active tape the same
functions run as plain forwards. Convolutions, the frequency descriptor, the
GLU, normalizations, softmax and the broadcasting arithmetic call their
kernel in :mod:`perigate.ops` (group normalization with its LeakyReLU is one
op, ``group_norm_act``); the elementwise maths (scaling, tanh, sigmoid,
upsampling, the loss mean) is one numpy expression here, beside its
derivative.

Kernel arguments may be ``Var`` (gradients flow) or plain arrays (treated as
constants: gradients flow *through* them to other inputs but none are
produced for the constant itself).
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import (
    ConfigurationError,
    InputError,
    NumericError,
    UnsupportedOperationError,
)

__all__ = [
    "Var", "Tape", "ParamStore", "tape_active", "forward_traced", "backward",
    "grad_check", "add", "sub", "mul", "scale", "tanh", "sigmoid",
    "sep_conv", "dwconv_2d", "conv2d", "pwconv", "freq_descriptor",
    "glu", "softmax_channels", "group_norm_act", "upsample2x", "concat_channels",
    "split_channels", "pack_time", "unpack_time", "mean_all", "drop_path",
]


class Var:
    """A value in the computation graph; leaves carry parameters or inputs."""

    __slots__ = ("value", "grad", "parents", "vjp", "name")

    def __init__(self, value, name: str = ""):
        self.value = np.asarray(value)
        self.grad = None
        self.parents = ()
        self.vjp = None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = f" '{self.name}'" if self.name else ""
        return f"Var{tag}(shape={self.value.shape}, dtype={self.value.dtype})"


class Tape:
    """Ordered record of graph nodes; backward walks it in exact reverse order."""

    def __init__(self):
        self.nodes: list[Var] = []
        self.outputs: tuple[Var, ...] = ()

    def __enter__(self):
        _stack.append(self)
        return self

    def __exit__(self, *exc):
        _stack.pop()
        return False


_stack: list[Tape] = []


def tape_active() -> Tape | None:
    return _stack[-1] if _stack else None


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x)


def _track(value: np.ndarray, parents: tuple, vjp) -> Var:
    out = Var(value)
    tape = tape_active()
    if tape is not None:
        out.parents = parents
        out.vjp = vjp
        tape.nodes.append(out)
    return out


def _accumulate(parent, grad):
    if not isinstance(parent, Var) or grad is None:
        return
    parent.grad = grad if parent.grad is None else parent.grad + grad


def backward(tape: Tape, seed_grad: np.ndarray):
    """Propagate ``seed_grad`` from the tape's single output back to all leaves."""
    if len(tape.outputs) != 1:
        raise InputError(f"backward needs exactly one recorded output, got {len(tape.outputs)}")
    out = tape.outputs[0]
    seed = np.asarray(seed_grad, dtype=out.value.dtype)
    if seed.shape != out.value.shape:
        raise ConfigurationError(f"seed shape {seed.shape} != output shape {out.value.shape}")
    _accumulate(out, seed)
    for node in reversed(tape.nodes):
        if node.grad is None or node.vjp is None:
            continue
        grads = node.vjp(node.grad)
        for parent, g in zip(node.parents, grads):
            _accumulate(parent, g)
        node.grad = None  # free intermediate adjoints


def forward_traced(graph_fn, inputs, params=None):
    """Run ``graph_fn`` under a fresh tape.

    ``inputs`` is a sequence of arrays or Vars; arrays are wrapped as leaves.
    ``params`` (a :class:`ParamStore` or anything graph_fn closes over) is
    passed through as the trailing argument when given.
    """
    wrapped = [x if isinstance(x, Var) else Var(x) for x in inputs]
    tape = Tape()
    with tape:
        try:
            if params is None:
                out = graph_fn(*wrapped)
            else:
                out = graph_fn(*wrapped, params)
        except TypeError as exc:
            # e.g. applying python/numpy operators directly to Var
            raise UnsupportedOperationError(
                f"graph_fn used an operation outside the traced vocabulary: {exc}"
            ) from exc
    tape.outputs = tuple(out) if isinstance(out, (tuple, list)) else (out,)
    return out, tape


class ParamStore:
    """Named learnable tensors with parallel gradient storage.

    Names are unique '/'-separated paths; gradient arrays always match their
    parameter's shape, and parameters untouched by a backward pass read back
    as zero gradients.
    """

    def __init__(self):
        self._vars: dict[str, Var] = {}

    def add(self, name: str, value: np.ndarray) -> Var:
        if name in self._vars:
            raise ConfigurationError(f"duplicate parameter name '{name}'")
        v = Var(np.asarray(value), name=name)
        self._vars[name] = v
        return v

    def var(self, name: str) -> Var:
        return self._vars[name]

    def value(self, name: str) -> np.ndarray:
        return self._vars[name].value

    def grad(self, name: str) -> np.ndarray:
        v = self._vars[name]
        return np.zeros_like(v.value) if v.grad is None else v.grad

    def zero_grads(self):
        for v in self._vars.values():
            v.grad = None

    def names(self) -> list[str]:
        return list(self._vars)

    def variables(self) -> list[Var]:
        return list(self._vars.values())

    def items(self):
        return ((k, v.value) for k, v in self._vars.items())

    def num_scalars(self) -> int:
        return sum(v.value.size for v in self._vars.values())

    def state(self) -> dict[str, np.ndarray]:
        return {k: v.value.copy() for k, v in self._vars.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        """Replace every parameter; entries must match names, shapes and dtypes exactly."""
        missing = set(self._vars) - set(state)
        if missing:
            raise InputError(f"missing parameters in state: {sorted(missing)}")
        unknown = [k for k in state if k not in self._vars]
        if unknown:
            raise InputError(f"unknown parameter '{unknown[0]}' in state")
        for k, v in self._vars.items():
            arr = np.asarray(state[k])
            if arr.shape != v.value.shape:
                raise InputError(
                    f"parameter '{k}' shape {arr.shape} != expected {v.value.shape}"
                )
            if arr.dtype != v.value.dtype:
                raise InputError(
                    f"parameter '{k}' dtype {arr.dtype} != expected {v.value.dtype}"
                )
            v.value = arr.copy()


# ---------------------------------------------------------------------------
# Traced operations
# ---------------------------------------------------------------------------


def _sum_to_channels(g: np.ndarray) -> np.ndarray:
    """[..., C, H, W] -> [C]: sum over every axis but the channel axis."""
    return g.sum(axis=tuple(i for i in range(g.ndim) if i != g.ndim - 3))


def _matmul_nt_summed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the leading axes of ``a @ b.T`` for [..., m, p] and [..., n, p]."""
    out = a @ np.swapaxes(b, -1, -2)
    return out.sum(axis=tuple(range(out.ndim - 2)))


def _sum_to_operand(grad_full: np.ndarray, operand_value: np.ndarray) -> np.ndarray:
    """Reduce a full-shape gradient back to a broadcast operand's shape."""
    if operand_value.shape == grad_full.shape:
        return grad_full
    if operand_value.ndim == 0:
        return grad_full.sum()
    if operand_value.ndim == 1:  # per-channel [C] broadcast over [..., C, H, W]
        return _sum_to_channels(grad_full)
    return grad_full.sum(axis=-3, keepdims=True)  # [..., 1, H, W] map over channels


def add(a, b):
    av, bv = _val(a), _val(b)
    y = ops.add(av, bv)

    def vjp(g):
        return g, _sum_to_operand(g, bv)

    return _track(y, (a, b), vjp)


def sub(a, b):
    av, bv = _val(a), _val(b)
    y = ops.sub(av, bv)

    def vjp(g):
        return g, -_sum_to_operand(g, bv)

    return _track(y, (a, b), vjp)


def mul(a, b):
    av, bv = _val(a), _val(b)
    y = ops.mul(av, bv)

    def vjp(g):
        bb = ops._broadcast_operand(av, bv)
        return g * bb, _sum_to_operand(g * av, bv)

    return _track(y, (a, b), vjp)


def scale(x, s: float):
    y = _val(x) * s
    return _track(y, (x,), lambda g: (g * s,))


def tanh(x):
    y = np.tanh(_val(x))
    return _track(y, (x,), lambda g: (g * (1.0 - y * y),))


def sigmoid(x):
    y = 1.0 / (1.0 + np.exp(-_val(x)))
    return _track(y, (x,), lambda g: (g * y * (1.0 - y),))


def _band_sums(m: np.ndarray, k: int) -> np.ndarray:
    """[C, k] sums of the k central diagonals of [..., C, n, n] matrices, summed
    over the leading axes: ``out[c, t] = sum_j m[..., c, j + t - p, j]``.

    The matrices are summed into a buffer with p zero rows above and below,
    whose diagonals are one strided view of it (so k > n needs no special
    case): diagonal t of channel c starts t rows in and steps one row and one
    column, n + 1 items, at a time.
    """
    c, n = m.shape[-3:-1]
    p = (k - 1) // 2
    mp = np.zeros((c, n + 2 * p, n), dtype=m.dtype)
    np.sum(m.reshape((-1, c, n, n)), axis=0, out=mp[:, p : p + n])
    # mp[c, j + t, j] lies t*n + j*(n + 1) items into channel c
    step = mp.itemsize
    diagonals = np.ndarray((c, k, n), mp.dtype, mp, 0, (mp.strides[0], n * step, (n + 1) * step))
    return diagonals.sum(axis=-1)


def _dwconv_1d_vjp(g, xv, kv, kernel, axis: int):
    """Input and kernel gradients of one 1-D depthwise pass along ``axis``;
    the kernel gradient sums over the leading axes.

    The input gradient is the same pass with the flipped kernel. Tap t of the
    kernel gradient sums the diagonal at offset t - p of ``M_c = x_c g_c^T``,
    whose rows and columns index the pass axis."""
    gk = None
    if isinstance(kernel, Var):  # first, so M and the gx pass are never held together
        xr, gr = (xv, g) if axis == -2 else (np.swapaxes(xv, -1, -2), np.swapaxes(g, -1, -2))
        gk = _band_sums(xr @ np.swapaxes(gr, -1, -2), kv.shape[-1])
        if kv.ndim == 1:  # shared kernel: sum channels
            gk = gk.sum(axis=0)
    gx = ops._dwconv_1d(g, ops._per_channel(kv, g.shape[-3], 1)[:, ::-1], axis)
    return gx, gk


def sep_conv(x, h, v):
    """Separable depthwise correlation recorded as one node; its vjp undoes the
    vertical pass (from the kept horizontal output), then the horizontal one."""
    xv, hv, vv = _val(x), _val(h), _val(v)
    y, mid = ops.sep_conv_parts(xv, hv, vv)

    def vjp(g):
        g_mid, gv = _dwconv_1d_vjp(g, mid, vv, v, -2)
        gx, gh = _dwconv_1d_vjp(g_mid, xv, hv, h, -1)
        return gx, gh, gv

    return _track(y, (x, h, v), vjp)


def _dwconv_kernel_grad(g: np.ndarray, xv: np.ndarray, k: int) -> np.ndarray:
    """[C, k, k] per-channel kernel gradient of a k x k depthwise correlation of
    ``xv``, summed over the leading axes: tap (u, v) dots ``g``, zero in the wrapped
    columns, with the forward's window."""
    lead = (-1,) + xv.shape[-3:]
    gf = ops.wrap_padded(g.reshape(lead), k)
    gk = np.empty((xv.shape[-3], k, k), dtype=np.result_type(g, xv))
    for u, v, win in ops.tap_windows(xv.reshape(lead), k):
        gk[:, u, v] = np.einsum("ncj,ncj->c", gf, win)
    return gk


def dwconv_2d(x, kernel):
    xv, kv = _val(x), _val(kernel)
    y = ops.dwconv_2d(xv, kv)

    def vjp(g):
        k2 = ops._per_channel(kv, xv.shape[-3], 2)
        gx = ops.dwconv_2d(g, k2[:, ::-1, ::-1])
        gk = None
        if isinstance(kernel, Var):
            gk = _dwconv_kernel_grad(g, xv, k2.shape[1])
            if kv.ndim == 2:  # shared kernel: sum channel contributions
                gk = gk.sum(axis=0)
        return gx, gk

    return _track(y, (x, kernel), vjp)


def conv2d(x, w, b=None, stride: int = 1):
    xv, wv = _val(x), _val(w)
    y = ops.conv2d(xv, wv, None if b is None else _val(b), stride)

    def vjp(g):
        k = wv.shape[-1]
        gb = _sum_to_channels(g) if isinstance(b, Var) else None
        gx = ops.conv2d_input_grad(g, wv, xv.shape[-2:], stride)
        gw = None
        if isinstance(w, Var):
            # tap (u, v): g, zero in wrapped columns, times the forward's window transposed
            gf = ops.wrap_padded(g, k, stride)
            gw = np.empty(wv.shape, dtype=np.result_type(g, xv))
            for u, v, win in ops.tap_windows(xv, k, stride):
                gw[:, :, u, v] = _matmul_nt_summed(gf, win)
        return gx, gw, gb

    return _track(y, (x, w, b), vjp)


def pwconv(x, w, b):
    xv, wv, bv = _val(x), _val(w), _val(b)
    y = ops.pwconv(xv, wv, bv)

    def vjp(g):
        lead, (c, hh, ww) = xv.shape[:-3], xv.shape[-3:]
        g2 = g.reshape(lead + (g.shape[-3], hh * ww))
        gx = (wv.T @ g2).reshape(xv.shape)
        gw = None
        if isinstance(w, Var):
            gw = _matmul_nt_summed(g2, xv.reshape(lead + (c, hh * ww)))
        gb = _sum_to_channels(g) if isinstance(b, Var) else None
        return gx, gw, gb

    return _track(y, (x, w, b), vjp)


def freq_descriptor(x, cues):
    """:func:`perigate.ops.freq_descriptor` as one node. The filters are constants: the
    vjp returns the gradient for x only. Per channel block it recomputes the cue maps
    and writes each adjoint's input, zero in the wrapped columns, into one padded
    buffer read by the flipped stencil (the box mean is its own adjoint). With d the
    cue's gradient over C: f1 d sx / mag and d sy / mag, f2 d sign(lap), and f3
    2x box(d') - box(2 box(x) d') with d' = d [var > 0]."""
    xv = _val(x)
    y = ops.freq_descriptor(xv, cues)

    def vjp(g):
        wp = xv.shape[-1] + 2
        d = ops.wrap_padded(g / xv.shape[-3], 3)
        gx = np.empty(xv.shape, dtype=xv.dtype)
        for sl in ops.index_blocks(xv.shape[-3], xv[..., 0, :, :].nbytes):
            f = ops.flat_rows(xv[..., sl, :, :], 3)[..., 0, :, :]
            pad = np.zeros_like(f)
            inner = pad[..., wp + 1 : 1 - 2 * wp]  # where x sits in the padded rows

            def adjoint(q, kernel=None):  # of the correlation with kernel, or of the box mean
                inner[...] = q
                return ops.box_mean3(pad, wp) if kernel is None else ops.stencil3(
                    pad, kernel[::-1, ::-1], wp)

            acc = np.zeros_like(inner)
            for i, name in enumerate(c for c in ops.CUE_NAMES if c in cues):
                di = d[..., i : i + 1, :]
                cue, saved = ops.cue_maps(f, wp, name)
                if name == "f1":
                    acc += adjoint(di / cue * saved[0], ops.SOBEL_X)
                    acc += adjoint(di / cue * saved[1], ops.SOBEL_Y)
                elif name == "f2":
                    acc += adjoint(di * np.sign(saved[0]), ops.LAPLACIAN)
                else:
                    dvar2 = 2 * di * (cue > 0)
                    acc += f[..., wp + 1 : 1 - 2 * wp] * adjoint(dvar2) - adjoint(saved[0] * dvar2)
            gx[..., sl, :, :] = acc.reshape(acc.shape[:-1] + (-1, wp))[..., :-2]
        return (gx,)

    return _track(y, (x,), vjp)


def glu(x, w_e, b_e, dw, gamma, beta, w_p, b_p):
    """:func:`perigate.ops.glu` as one node, saving what its vjp reads only while a tape
    is active. The vjp takes the projection's gradients from M = g z^T per sample, the
    normalization's from M and n, then per hidden channel block (the forward's) the
    gated map's adjoint (w_p diag(gamma n + 1))^T g + coef z, with coef the adjoint of
    n through G = |z|_2 as in GRN; the value half is recomputed from x."""
    vals = [_val(a) for a in (x, w_e, b_e, dw, gamma, beta, w_p, b_p)]
    xv, wev, bev, dwv, gav, bv, wpv, _ = vals
    y, saved = ops.glu(*vals, keep=tape_active() is not None)

    def vjp(g):
        sig, d, z, norms, denom, n = saved
        lead, (c, hh, ww), e = xv.shape[:-3], xv.shape[-3:], dwv.shape[0]

        def summed(a):  # over the leading axes
            return a.reshape((-1,) + a.shape[len(lead):]).sum(axis=0)

        x2, g2 = xv.reshape(lead + (c, hh * ww)), g.reshape(lead + (c, hh * ww))
        z2 = z.reshape(lead + (e, hh * ww))
        g_sum = g2.sum(axis=-1)  # [..., C]
        m = g2 @ np.swapaxes(z2, -1, -2)  # [..., C, E]
        scale = gav * n + 1
        q = (m * wpv).sum(axis=-2)  # per sample: the gated map's adjoint dotted with z
        dn = q * gav
        dnorms = dn / denom - (dn * norms).sum(axis=-1, keepdims=True) / (denom * denom * e)
        coef = np.where(norms > 0, dnorms / np.where(norms > 0, norms, 1.0), 0.0)
        w_t = np.swapaxes(wpv * scale[..., None, :], -1, -2)  # [..., E, C]
        gx2 = np.zeros(x2.shape, dtype=np.result_type(g, xv))
        gw_e, gb_e, gdw = np.empty_like(wev), np.empty_like(bev), np.empty_like(dwv)
        for sl in ops.index_blocks(e, hh * ww * xv.itemsize):
            shape = lead + (sl.stop - sl.start, hh, ww)
            vsl = slice(e + sl.start, e + sl.stop)
            dz2 = w_t[..., sl, :] @ g2 + coef[..., sl, None] * z2[..., sl, :]
            dz, s_b = dz2.reshape(shape), sig[..., sl, :, :]
            dd = dz * s_b  # the depthwise output's adjoint
            du = (dz * d[..., sl, :, :] * s_b * (1.0 - s_b)).reshape(dz2.shape)
            v = (wev[vsl] @ x2 + bev[vsl, None]).reshape(shape)
            dv = ops.dwconv_2d(dd, dwv[sl, ::-1, ::-1]).reshape(dz2.shape)
            gdw[sl] = _dwconv_kernel_grad(dd, v, 3)
            gw_e[sl], gw_e[vsl] = _matmul_nt_summed(du, x2), _matmul_nt_summed(dv, x2)
            gb_e[sl], gb_e[vsl] = summed(du.sum(axis=-1)), summed(dv.sum(axis=-1))
            gx2 += wev[sl].T @ du
            gx2 += wev[vsl].T @ dv
        gw_p = summed(m * scale[..., None, :] + g_sum[..., None] * bv)
        return (gx2.reshape(xv.shape), gw_e, gb_e, gdw, summed(q * n), summed(g_sum @ wpv),
                gw_p, summed(g_sum))

    return _track(y, (x, w_e, b_e, dw, gamma, beta, w_p, b_p), vjp)


def softmax_channels(x):
    y = ops.softmax_channels(_val(x))

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-3, keepdims=True)),)

    return _track(y, (x,), vjp)


def group_norm_act(x, gamma, beta, groups: int = 2, slope: float = 0.2):
    """:func:`perigate.ops.group_norm_act` as one node, saving xhat and 1 / std only
    while a tape is active. The vjp passes g through the LeakyReLU by the sign of the
    output (slope where it is not positive), then through the group normalization."""
    xv, gav = _val(x), _val(gamma)
    y, saved = ops.group_norm_act(xv, gav, _val(beta), groups, slope,
                                  keep=tape_active() is not None)

    def vjp(g):
        xhat_g, inv = saved
        g = np.where(y > 0, g, slope * g)
        dgamma = (
            _sum_to_channels(g * xhat_g.reshape(xv.shape)) if isinstance(gamma, Var) else None
        )
        dbeta = _sum_to_channels(g) if isinstance(beta, Var) else None
        gh = (g * gav[:, None, None]).reshape(xhat_g.shape)
        m1 = gh.mean(axis=(-3, -2, -1), keepdims=True)
        m2 = (gh * xhat_g).mean(axis=(-3, -2, -1), keepdims=True)
        dx = (inv * (gh - m1 - xhat_g * m2)).reshape(xv.shape)
        return dx, dgamma, dbeta

    return _track(y, (x, gamma, beta), vjp)


def upsample2x(x):
    """Nearest-neighbour 2x spatial upsampling."""
    xv = _val(x)
    y = np.repeat(np.repeat(xv, 2, axis=-2), 2, axis=-1)

    def vjp(g):
        c, h, w = xv.shape[-3:]
        return (g.reshape(xv.shape[:-3] + (c, h, 2, w, 2)).sum(axis=(-3, -1)),)

    return _track(y, (x,), vjp)


def concat_channels(xs):
    vals = [_val(x) for x in xs]
    y = ops.concat_channels(vals)
    sizes = [v.shape[-3] for v in vals]

    def vjp(g):
        return tuple(ops.split_channels(g, sizes))

    return _track(y, tuple(xs), vjp)


def _slice_channels(x, lo: int, hi: int):
    xv = _val(x)
    y = xv[..., lo:hi, :, :]

    def vjp(g):
        gx = np.zeros_like(xv)
        gx[..., lo:hi, :, :] = g
        return (gx,)

    return _track(y, (x,), vjp)


def split_channels(x, sizes):
    c_total = _val(x).shape[-3]
    if sum(sizes) != c_total:
        raise ConfigurationError(f"split sizes {tuple(sizes)} do not sum to {c_total}")
    out, lo = [], 0
    for s in sizes:
        out.append(_slice_channels(x, lo, lo + s))
        lo += s
    return out


def pack_time(frames):
    return concat_channels(frames)


def unpack_time(z, t: int):
    c_total = _val(z).shape[-3]
    return split_channels(z, [c_total // t] * t)


def mean_all(x):
    """Scalar mean over all elements (loss reduction)."""
    xv = _val(x)
    y = np.asarray(xv.mean())

    def vjp(g):
        return (np.full(xv.shape, g / xv.size, dtype=xv.dtype),)

    return _track(y, (x,), vjp)


def drop_path(x, rate: float, mode: str, keep_u=None):
    """Stochastic depth on a residual branch, decided per sample.

    Eval mode is the identity. In train mode ``keep_u`` holds one pre-drawn
    uniform per sample (a float for one [C,H,W] sample, an array over the
    leading axes of a batch): a sample's branch is zeroed when its uniform
    < rate, otherwise scaled by 1/(1-rate).
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"drop_path rate must lie in [0,1), got {rate}")
    if mode not in ("train", "eval"):
        raise ConfigurationError(f"unknown mode '{mode}'")
    if mode == "eval" or rate == 0.0:
        return x
    if keep_u is None:
        raise ConfigurationError("train-mode drop_path needs a pre-drawn uniform")
    xv = _val(x)
    u = np.asarray(keep_u)
    if u.shape != xv.shape[:-3]:
        raise ConfigurationError(f"{u.shape} uniforms for samples of shape {xv.shape[:-3]}")
    factor = np.where(u < rate, 0.0, 1.0 / (1.0 - rate)).astype(xv.dtype)[..., None, None, None]
    return _track(xv * factor, (x,), lambda g: (g * factor,))


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def grad_check(graph_fn, point, eps: float = 1e-5, probe_seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``point`` is a sequence covering every differentiable argument of
    ``graph_fn``: plain float64 arrays are wrapped as fresh leaves, existing
    ``Var`` leaves are used as-is (their values are perturbed in place), which
    lets ``graph_fn`` close over a parameter store. Vector-valued graphs are
    probed through a fixed random linear functional so the comparison reduces
    to one scalar per input coordinate: err = |a - d| / (|a| + |d| + 1e-12).

    Finite-difference evaluations run in extended precision where the
    platform provides it; deep graphs otherwise drown small gradient
    coordinates in float64 cancellation noise.
    """
    if not 1e-6 <= eps <= 1e-4:
        raise ConfigurationError(f"eps {eps} outside [1e-6, 1e-4]")
    leaves = []
    for p in point:
        leaf = p if isinstance(p, Var) else Var(np.asarray(p, dtype=np.float64).copy())
        if leaf.value.dtype != np.float64:
            raise ConfigurationError("grad_check requires float64 inputs")
        leaf.grad = None
        leaves.append(leaf)
    out, tape = forward_traced(graph_fn, leaves)
    if isinstance(out, (tuple, list)):
        raise InputError("grad_check expects a single-output graph")
    if not np.all(np.isfinite(out.value)):
        raise NumericError("graph produced non-finite values")
    probe = np.random.Generator(np.random.Philox(key=np.uint64(probe_seed))).standard_normal(
        out.value.shape
    )
    backward(tape, probe)
    analytic = [
        leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.value)
        for leaf in leaves
    ]

    fd_dtype = np.longdouble
    saved = [leaf.value for leaf in leaves]
    for leaf in leaves:
        leaf.value = leaf.value.astype(fd_dtype)
    probe_fd = probe.astype(fd_dtype)
    step = fd_dtype(eps)

    def eval_scalar():
        y = graph_fn(*leaves)
        return (probe_fd * y.value).sum()

    try:
        worst = 0.0
        for leaf, grad in zip(leaves, analytic):
            flat = leaf.value.reshape(-1)
            a_flat = grad.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                f_plus = eval_scalar()
                flat[j] = orig - step
                f_minus = eval_scalar()
                flat[j] = orig
                numeric = float((f_plus - f_minus) / (2.0 * step))
                if not np.isfinite(numeric):
                    raise NumericError("non-finite finite-difference value")
                a = float(a_flat[j])
                err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
                worst = max(worst, err)
    finally:
        for leaf, value in zip(leaves, saved):
            leaf.value = value
    return worst
