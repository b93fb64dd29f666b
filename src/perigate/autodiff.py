"""Define-by-run reverse-mode differentiation over the operation vocabulary.

Each traced function computes its value and, while a tape is active,
records a node holding the backward closure; without an active tape the same
functions run as plain forwards. Convolutions, the frequency descriptor, the
GLU, normalizations, softmax, the broadcasting arithmetic, center suppression
and the gated sum call their kernel in :mod:`perigate.ops` (group
normalization with its LeakyReLU is one op, ``group_norm_act``, and the
decoder's nearest 2x upsampling with the 3 x 3 conv after it is one op,
``upsample_conv2d``); the elementwise maths (scaling, tanh, sigmoid, the loss
mean) is one numpy expression here, beside its derivative.

Every vjp returns a gradient for each operand, and ``_accumulate`` alone drops those
of constants, plain arrays or floats (gradients flow *through* them to the other
operands). Two vjps skip a gradient no caller keeps: ``conv2d``'s for a constant
input (the input frames) and ``suppress``'s for a float (a fixed coefficient).
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
    "grad_check", "add", "sub", "mul", "scale", "suppress", "gated_sum", "tanh", "sigmoid",
    "sep_conv", "dwconv_2d", "conv2d", "pwconv", "freq_descriptor",
    "glu", "softmax_channels", "group_norm_act", "upsample_conv2d", "concat_channels",
    "stack_frames", "take_frames", "pack_frames", "unpack_frames",
    "mean_all", "drop_path",
]


def _unsupported(symbol: str):
    def refuse(self, *args, **kwargs):
        raise UnsupportedOperationError(
            f"operator {symbol} on a Var is outside the traced vocabulary; use the autodiff ops")
    return refuse


class Var:
    """A value in the computation graph; leaves carry parameters or inputs.

    Python's operators and numpy's ufuncs would act on a Var without recording it,
    so each one raises :class:`UnsupportedOperationError` naming itself.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "name")

    __add__ = __radd__ = _unsupported("+")
    __sub__ = __rsub__ = _unsupported("-")
    __mul__ = __rmul__ = _unsupported("*")
    __truediv__ = __rtruediv__ = _unsupported("/")
    __floordiv__ = __rfloordiv__ = _unsupported("//")
    __mod__ = __rmod__ = _unsupported("%")
    __pow__ = __rpow__ = _unsupported("**")
    __matmul__ = __rmatmul__ = _unsupported("@")
    __neg__ = _unsupported("unary -")
    __pos__ = _unsupported("unary +")
    __abs__ = _unsupported("abs()")

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        raise UnsupportedOperationError(
            f"numpy ufunc {ufunc.__name__} on a Var is outside the traced vocabulary;"
            " use the autodiff ops")

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
    """Propagate ``seed_grad`` from the tape's single output back to all leaves. Each
    node but the output drops its vjp and value, and the maps they held, once run."""
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
        if node is not out:
            node.vjp = node.value = None


def forward_traced(graph_fn, inputs):
    """Run ``graph_fn`` under a fresh tape on ``inputs``, arrays or Vars (arrays are
    wrapped as leaves); parameters reach ``graph_fn`` through its closure."""
    wrapped = [x if isinstance(x, Var) else Var(x) for x in inputs]
    tape = Tape()
    with tape:
        out = graph_fn(*wrapped)
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

    def load_state(self, state: dict[str, np.ndarray]):
        """Overwrite every parameter's value in place, so that a view of it (an
        optimizer's slice) stays bound; entries must match names, shapes and dtypes
        exactly."""
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
            v.value[...] = arr


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


def suppress(p, center, coef):
    """:func:`perigate.ops.suppress` as one node with the gradients of the composed
    ``sub(p, mul(center, coef))``: g for p, (-g) coef for the center and (-g) center
    summed to coef's shape. ``coef`` is a [C] vector (a Var, or a constant array) or a
    constant float, as ``sub(p, scale(center, coef))``."""
    pv, cv = _val(p), _val(center)
    kv = coef.value if isinstance(coef, Var) else coef
    y = ops.suppress(pv, cv, kv)

    def vjp(g):
        neg = -g
        gk = _sum_to_operand(neg * cv, kv) if isinstance(coef, Var) else None
        return g, neg * (kv if np.ndim(kv) == 0 else ops._broadcast_operand(cv, kv)), gk

    return _track(y, (p, center, coef), vjp)


def gated_sum(alpha, ys):
    """:func:`perigate.ops.gated_sum` as one node with the gradients of the composed
    chain (alpha's channel slices, ``mul``, ``add``): g alpha_k for ys[k], and for
    alpha_k the channel sum of g ys[k], plus zero (a -0 reads +0) when there are more
    maps than one, as the chain's sum of zero-filled slice gradients gives it."""
    av, yvs = _val(alpha), [_val(y) for y in ys]
    out = ops.gated_sum(av, yvs)

    def vjp(g):
        ga = np.zeros_like(av)
        for k, yv in enumerate(yvs):
            s = _sum_to_operand(g * yv, ga[..., k : k + 1, :, :])
            if len(yvs) == 1:
                ga[...] = s
            else:
                ga[..., k : k + 1, :, :] += s
        return (ga,) + tuple(g * av[..., k : k + 1, :, :] for k in range(len(yvs)))

    return _track(out, (alpha, *ys), vjp)


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


def _dwconv_1d_vjp(g, xv, kv, axis: int):
    """Input and kernel gradients of one 1-D depthwise pass along ``axis``;
    the kernel gradient sums over the leading axes.

    The input gradient is the same pass with the flipped kernel. Tap t of the
    kernel gradient sums the diagonal at offset t - p of ``M_c = x_c g_c^T``,
    whose rows and columns index the pass axis."""
    xr, gr = (xv, g) if axis == -2 else (np.swapaxes(xv, -1, -2), np.swapaxes(g, -1, -2))
    gk = _band_sums(xr @ np.swapaxes(gr, -1, -2), kv.shape[-1])  # first: M dies before gx
    gx = ops._dwconv_1d(g, kv[:, ::-1], axis)
    return gx, gk


def sep_conv(x, h, v):
    """Separable depthwise correlation recorded as one node; its vjp undoes the
    vertical pass (from the kept horizontal output), then the horizontal one."""
    xv, hv, vv = _val(x), _val(h), _val(v)
    y, mid = ops.sep_conv_parts(xv, hv, vv)

    def vjp(g):
        g_mid, gv = _dwconv_1d_vjp(g, mid, vv, -2)
        gx, gh = _dwconv_1d_vjp(g_mid, xv, hv, -1)
        return gx, gh, gv

    return _track(y, (x, h, v), vjp)


def _dwconv_kernel_grad(g: np.ndarray, windows, k: int) -> np.ndarray:
    """[C, k, k] per-channel kernel gradient of a k x k depthwise correlation, summed
    over the leading axes: tap (u, v) dots ``g``, zero in the wrapped columns, with the
    forward's window, one of the ``(u, v, window)`` ``windows`` [N, C, H (W + k - 1)]
    (the leading axes flattened)."""
    gf = ops.wrap_padded(g.reshape((-1,) + g.shape[-3:]), k)
    gk = np.empty((g.shape[-3], k, k), dtype=np.result_type(g, windows[0][2]))
    for u, v, win in windows:
        gk[:, u, v] = np.einsum("ncj,ncj->c", gf, win)
    return gk


def dwconv_2d(x, kernel):
    xv, kv = _val(x), _val(kernel)
    y = ops.dwconv_2d(xv, kv)

    def vjp(g):
        gx = ops.dwconv_2d(g, kv[:, ::-1, ::-1])
        k = kv.shape[1]
        windows = ops.tap_windows(xv.reshape((-1,) + xv.shape[-3:]), k)
        return gx, _dwconv_kernel_grad(g, windows, k)

    return _track(y, (x, kernel), vjp)


def conv2d(x, w, stride: int = 1):
    xv, wv = _val(x), _val(w)
    y = ops.conv2d(xv, wv, stride)

    def vjp(g):
        k, gx = wv.shape[-1], None
        if stride == 1 and isinstance(x, Var):  # conv2d of g on the flipped kernel
            gx = ops.conv2d(g, wv[:, :, ::-1, ::-1].swapaxes(0, 1))
        elif isinstance(x, Var):  # the sub-pixel conv of g, cropped to x's H x W
            gx = ops.upsample_conv2d(g, wv.swapaxes(0, 1), ops.stride2_adjoint_fold(k))
            gx = gx[..., : xv.shape[-2], : xv.shape[-1]]
        # tap (u, v): g, zero in wrapped columns, times the forward's window transposed
        gf = ops.wrap_padded(g, k, stride)
        gw = np.empty(wv.shape, dtype=np.result_type(g, xv))
        for u, v, win in ops.tap_windows(xv, k, stride):
            gw[:, :, u, v] = _matmul_nt_summed(gf, win)
        return gx, gw

    return _track(y, (x, w), vjp)


def pwconv(x, w, b):
    xv, wv, bv = _val(x), _val(w), _val(b)
    y = ops.pwconv(xv, wv, bv)

    def vjp(g):
        lead, (c, hh, ww) = xv.shape[:-3], xv.shape[-3:]
        g2 = g.reshape(lead + (g.shape[-3], hh * ww))
        gx = (wv.T @ g2).reshape(xv.shape)
        gw = _matmul_nt_summed(g2, xv.reshape(lead + (c, hh * ww)))
        return gx, gw, _sum_to_channels(g)

    return _track(y, (x, w, b), vjp)


def freq_descriptor(x, cues):
    """:func:`perigate.ops.freq_descriptor` as one node, keeping the maps its vjp reads
    only while a tape is active. The filters are constants: the vjp returns the
    gradient for x only. Per channel block it writes each adjoint's input, zero in the
    wrapped columns, into one padded buffer read by the flipped stencil (the box mean
    is its own adjoint). With d the cue's gradient over C: f1 d sx / mag and d sy / mag
    (mag recomputed from sx and sy), f2 d sign(lap), and f3 2x box(d') - box(2 box(x) d')
    with d' = d [var > 0]."""
    xv = _val(x)
    y, saved = ops.freq_descriptor(xv, cues, keep=tape_active() is not None)

    def vjp(g):
        wp = xv.shape[-1] + 2
        d = ops.wrap_padded(g / xv.shape[-3], 3)
        gx = np.empty(xv.shape, dtype=xv.dtype)
        names = [c for c in ops.CUE_NAMES if c in cues]
        for sl, kept in zip(ops.index_blocks(xv.shape[-3], xv[..., 0, :, :].nbytes), saved):
            xb = xv[..., sl, :, :]
            pad = np.zeros(xb.shape[:-2] + ((xb.shape[-2] + 3) * wp,), dtype=xv.dtype)
            inner = pad[..., wp + 1 : 1 - 2 * wp]  # where x sits in the padded rows

            def adjoint(q, kernel=None):  # of the correlation with kernel, or of the box mean
                inner[...] = q
                return ops.box_mean3(pad, wp) if kernel is None else ops.stencil3(
                    pad, kernel[::-1, ::-1], wp)

            acc = np.zeros_like(inner)
            for i, (name, maps) in enumerate(zip(names, kept)):
                di = d[..., i : i + 1, :]
                if name == "f1":
                    sx, sy = maps
                    mag = ops.sobel_magnitude(sx, sy)
                    acc += adjoint(di / mag * sx, ops.SOBEL_X)
                    acc += adjoint(di / mag * sy, ops.SOBEL_Y)
                elif name == "f2":
                    acc += adjoint(di * np.sign(maps[0]), ops.LAPLACIAN)
                else:
                    positive, mean = maps
                    dvar2 = 2 * di * positive
                    acc += ops.wrap_padded(xb, 3) * adjoint(dvar2) - adjoint(mean * dvar2)
            gx[..., sl, :, :] = acc.reshape(acc.shape[:-1] + (-1, wp))[..., :-2]
        return (gx,)

    return _track(y, (x,), vjp)


def glu(x, w_e, b_e, dw, gamma, beta, w_p, b_p):
    """:func:`perigate.ops.glu` as one node, saving what its vjp reads only while a tape
    is active. The vjp takes the projection's gradients from M = g z^T per sample, the
    normalization's from M and n, then per hidden channel block (the forward's) the
    gated map's adjoint (w_p diag(gamma n + 1))^T g + coef z, with coef the adjoint of
    n through G = |z|_2 as in GRN; the value half is recomputed from x as the forward
    computes it, zero-padded by one GEMM against the :func:`perigate.ops.glu_operands`
    (with the block's last gate row, so that a block of one channel is a matrix product
    as in the forward, bitwise its value rows)."""
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
        xp, wb = ops.glu_operands(xv, wev, bev)
        xp = xp.reshape((-1,) + xp.shape[-2:])
        for sl in ops.index_blocks(e, hh * ww * xv.itemsize):
            eb = sl.stop - sl.start
            shape, vsl = lead + (eb, hh, ww), slice(e + sl.start, e + sl.stop)
            dz2 = w_t[..., sl, :] @ g2 + coef[..., sl, None] * z2[..., sl, :]
            dz, s_b = dz2.reshape(shape), sig[..., sl, :, :]
            dd = dz * s_b  # the depthwise output's adjoint
            du = (dz * d[..., sl, :, :] * s_b * (1.0 - s_b)).reshape(dz2.shape)
            v = (wb[:, sl].reshape(2 * eb, -1)[eb - 1 :] @ xp)[:, 1:]
            dv = ops.dwconv_2d(dd, dwv[sl, ::-1, ::-1]).reshape(dz2.shape)
            gdw[sl] = _dwconv_kernel_grad(dd, ops.padded_windows(v, hh, ww), 3)
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


def group_norm_act(x, gamma, beta):
    """:func:`perigate.ops.group_norm_act` as one node, saving xhat and 1 / std only
    while a tape is active. The vjp passes g through the LeakyReLU by the sign of the
    output (the slope where it is not positive), then through the group normalization."""
    xv, gav = _val(x), _val(gamma)
    y, saved = ops.group_norm_act(xv, gav, _val(beta), keep=tape_active() is not None)

    def vjp(g):
        xhat_g, inv = saved
        g = g * np.maximum(y > 0, g.dtype.type(ops.LEAKY_SLOPE))  # 1 or the slope
        dgamma, dbeta = _sum_to_channels(g * xhat_g.reshape(xv.shape)), _sum_to_channels(g)
        gh = (g * gav[:, None, None]).reshape(xhat_g.shape)
        m1 = gh.mean(axis=(-3, -2, -1), keepdims=True)
        m2 = (gh * xhat_g).mean(axis=(-3, -2, -1), keepdims=True)
        dx = (inv * (gh - m1 - xhat_g * m2)).reshape(xv.shape)
        return dx, dgamma, dbeta

    return _track(y, (x, gamma, beta), vjp)


def upsample_conv2d(x, w):
    """:func:`perigate.ops.upsample_conv2d` as one node. Its vjp stacks g's parity planes
    (a, b) from g's stride-2 :func:`perigate.ops.flat_rows` (rows W + 1 wide): each meets
    input pixel m = r (W + 1) + s through folded tap (i, j) at m + (1 - i)(W + 1) + 1 - j.
    The input gradient is the tap GEMMs of those windows with the transposed
    :func:`perigate.ops.upsample_taps`, as a stride-2 ``conv2d`` reads its input; each
    folded tap's gradient, its window dotted with x, folds back by UPSAMPLE_FOLD^T."""
    xv, wv = _val(x), _val(w)
    y = ops.upsample_conv2d(xv, wv)

    def vjp(g):
        (hh, ww), wq = xv.shape[-2:], xv.shape[-1] + 1
        planes = ops.flat_rows(g, 3, 2)[..., ::-1, :, :]  # plane (a, b) is 3 - 2a - b
        planes = planes.reshape(xv.shape[:-3] + (-1, planes.shape[-1]))  # [..., (a, b, o), m]
        windows = [(i, j, planes[..., (1 - i) * wq + 1 - j :][..., : hh * wq])
                   for i in range(2) for j in range(2)]
        taps = np.ascontiguousarray(ops.upsample_taps(wv).swapaxes(-1, -2))  # [2, 2, Ci, 4 Co]
        xf, fold = ops.wrap_padded(xv, 2), ops.UPSAMPLE_FOLD.reshape(16, 9)
        gt = np.stack([_matmul_nt_summed(win, xf) for _, _, win in windows])  # [4, 4 Co, Ci]
        gw = (gt.reshape(16, -1).T @ fold.astype(gt.dtype)).reshape(wv.shape)
        return ops._cut(ops._tap_gemms(windows, taps), hh, ww), gw

    return _track(y, (x, w), vjp)


def concat_channels(xs):
    vals = [_val(x) for x in xs]
    y = ops.concat_channels(vals)
    sizes = [v.shape[-3] for v in vals]

    def vjp(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=-3))

    return _track(y, tuple(xs), vjp)


def stack_frames(frames):
    """Frames [..., C, H, W] stacked along a new leading axis: one frame block
    [F, ..., C, H, W], a view of a lone frame. Plain arrays stack into a plain array
    (a constant); with a Var among them the stack is a node, and each frame's gradient
    is its slice of g."""
    vals = [_val(f) for f in frames]
    y = np.stack(vals) if len(vals) > 1 else vals[0][None]
    if not any(isinstance(f, Var) for f in frames):
        return y
    return _track(y, tuple(frames), lambda g: tuple(g))


def take_frames(x, index):
    """``x[index]`` of a frame block [F, ..., C, H, W]: one frame for an int, a shorter
    block for a slice."""
    xv = _val(x)

    def vjp(g):
        gx = np.zeros_like(xv)
        gx[index] = g
        return (gx,)

    return _track(xv[index], (x,), vjp)


def pack_frames(blocks):
    """:func:`perigate.ops.pack_frames` of frame blocks as one node; each block's
    gradient is its frames' channels of g."""
    vals = [_val(b) for b in blocks]
    y = ops.pack_frames(vals)

    def vjp(g):
        ends = np.cumsum([v.shape[0] for v in vals])
        frames = ops.unpack_frames(g, int(ends[-1]))
        return tuple(frames[hi - v.shape[0] : hi] for v, hi in zip(vals, ends))

    return _track(y, tuple(blocks), vjp)


def unpack_frames(z, t: int, blocks):
    """The frame blocks [F, ..., C, H, W] of z [..., t C, H, W] that ``blocks``, slices
    of range(t), select (:func:`perigate.ops.unpack_frames`): one node per block, whose
    gradient is g in its frames' channels and zero in the others."""
    zv = _val(z)
    frames = ops.unpack_frames(zv, t)

    def block(sl):
        def vjp(g):
            gz = np.zeros_like(zv)
            ops.unpack_frames(gz, t)[sl] = g
            return (gz,)

        return _track(frames[sl], (z,), vjp)

    return [block(sl) for sl in blocks]


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
