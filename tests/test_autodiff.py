"""Reverse-mode engine: traced forwards, VJPs, tape mechanics."""

import ast
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

from perigate import autodiff as ad
from perigate import ops
from perigate.errors import ConfigurationError, InputError

from helpers import glu_params


def leaf(rng, *shape):
    return ad.Var(rng.standard_normal(shape))


class TestTracing:
    def test_single_node_graph(self):
        x = np.random.default_rng(0).random((2, 3, 3))
        out, tape = ad.forward_traced(lambda v: ad.scale(v, 1.0), [x])
        assert np.array_equal(out.value, x)
        assert len(tape.nodes) == 1

    def test_traced_matches_untraced_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 6, 6))
        h = rng.standard_normal((3, 5))
        v = rng.standard_normal((3, 5))
        plain = ops.sep_conv_parts(x, h, v)[0]
        traced, _ = ad.forward_traced(lambda a: ad.sep_conv(a, h, v), [x])
        assert np.array_equal(plain, traced.value)

    def test_no_tape_no_recording(self):
        y = ad.tanh(ad.Var(np.ones(3)))
        assert y.vjp is None and ad.tape_active() is None


class TestBackward:
    def test_scale_by_two(self):
        x = np.ones((2, 2))
        out, tape = ad.forward_traced(lambda v: ad.scale(v, 2.0), [x])
        ad.backward(tape, np.ones((2, 2)))
        leaf_var = tape.nodes[0].parents[0]
        assert np.array_equal(leaf_var.grad, 2.0 * np.ones((2, 2)))

    def test_product_rule_fanout(self):
        xv = np.random.default_rng(2).standard_normal((2, 3, 3))
        x = ad.Var(xv.copy())
        out, tape = ad.forward_traced(lambda v: ad.mul(v, v), [x])
        ad.backward(tape, np.ones_like(xv))
        np.testing.assert_allclose(x.grad, 2.0 * xv, atol=1e-15)

    def test_unused_parameter_reads_zero_grad(self):
        store = ad.ParamStore()
        used = store.add("used", np.ones(2))
        store.add("unused", np.ones(3))
        out, tape = ad.forward_traced(lambda: ad.scale(used, 3.0), [])
        ad.backward(tape, np.ones(2))
        assert np.array_equal(store.grad("used"), np.full(2, 3.0))
        assert np.array_equal(store.grad("unused"), np.zeros(3))

    def test_seed_shape_mismatch(self):
        out, tape = ad.forward_traced(lambda v: ad.tanh(v), [np.ones((2, 2))])
        with pytest.raises(ConfigurationError):
            ad.backward(tape, np.ones(3))

    def test_gradient_accumulates_across_branches(self):
        xv = np.random.default_rng(3).standard_normal((2, 2, 2))
        x = ad.Var(xv.copy())
        out, tape = ad.forward_traced(lambda v: ad.add(ad.scale(v, 2.0), ad.scale(v, 3.0)), [x])
        ad.backward(tape, np.ones_like(xv))
        np.testing.assert_allclose(x.grad, 5.0 * np.ones_like(xv))

    def test_nodes_drop_vjp_and_value_once_run(self):
        xv = np.random.default_rng(5).standard_normal((2, 3, 3))
        x = ad.Var(xv.copy())
        out, tape = ad.forward_traced(
            lambda v: ad.mean_all(ad.mul(ad.tanh(ad.scale(v, 2.0)), ad.sigmoid(v))), [x])
        parents = [node.parents for node in tape.nodes]
        ad.backward(tape, np.ones(()))
        assert [node.parents for node in tape.nodes] == parents
        for node in tape.nodes[:-1]:
            assert node.vjp is None and node.value is None
        assert tape.nodes[-1] is out and out.vjp is not None and out.value is not None
        t, s = np.tanh(2.0 * xv), 1.0 / (1.0 + np.exp(-xv))
        want = (2.0 * (1.0 - t * t) * s + t * s * (1.0 - s)) / xv.size
        np.testing.assert_allclose(x.grad, want, rtol=1e-12)


class TestSoftmaxJacobian:
    def test_rows_sum_to_zero(self):
        # simplex tangency: per pixel the backward output sums to zero
        rng = np.random.default_rng(4)
        x = ad.Var(rng.standard_normal((4, 3, 3)))
        out, tape = ad.forward_traced(lambda v: ad.softmax_channels(v), [x])
        upstream = rng.standard_normal(out.value.shape)
        ad.backward(tape, upstream)
        np.testing.assert_allclose(x.grad.sum(axis=0), 0.0, atol=1e-12)


# ``autodiff.__all__`` entries that are infrastructure, not traced ops
NOT_OPS = {"Var", "Tape", "ParamStore", "tape_active", "forward_traced", "backward", "grad_check"}


def _module_calls(tree, module: str, in_module: bool) -> set:
    """Names of ``module``'s functions a module calls, through ``module.`` or its
    alias (``ad.``), a ``from .module import``, or (in ``module`` itself) by plain
    name; in ``module`` itself, a call anywhere inside the outermost function of the
    same name does not count."""
    modules, imported = {module}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            modules |= {a.asname or a.name for a in node.names if a.name == module}
    called = set()

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef) and owner is None:
            owner = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                name = f.attr if f.value.id in modules else None
            elif isinstance(f, ast.Name):
                name = f.id if in_module or f.id in imported else None
            else:
                name = None
            if name is not None and not (in_module and name == owner):
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return called


def _method_calls(tree) -> set:
    """Names called as an attribute, ``obj.name(...)``, anywhere in a module except
    inside a function or method of that name."""
    called = set()

    def visit(node, owners):
        if isinstance(node, ast.FunctionDef):
            owners = owners | {node.name}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr not in owners:
                called.add(node.func.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return called


def primitive_cases():
    """One grad_check case per traced op (several for ops with more than one form)."""
    rng = np.random.default_rng(5)
    x = rng.random((2, 6, 6)) + 0.1
    return {
        "add": (lambda a, b: ad.add(a, b), [x, rng.standard_normal((2, 6, 6))]),
        "add_chan": (lambda a, b: ad.add(a, b), [x, rng.standard_normal(2)]),
        "sub": (lambda a, b: ad.sub(a, b), [x, rng.standard_normal((2, 6, 6))]),
        "mul_chan": (lambda a, b: ad.mul(a, b), [x, rng.standard_normal(2)]),
        "scale": (lambda a: ad.scale(a, -1.7), [x]),
        "suppress": (
            lambda a, c, k: ad.suppress(a, c, k),
            [x, rng.standard_normal((2, 6, 6)), rng.standard_normal(2)],
        ),
        "suppress_fixed": (
            lambda a, c: ad.suppress(a, c, -0.6),
            [x, rng.standard_normal((2, 6, 6))],
        ),
        "gated_sum": (
            lambda a, y0, y1, y2: ad.gated_sum(a, [y0, y1, y2]),
            [rng.random((3, 6, 6))] + [rng.standard_normal((2, 6, 6)) for _ in range(3)],
        ),
        "tanh": (lambda a: ad.tanh(a), [x]),
        "sigmoid": (lambda a: ad.sigmoid(a), [x]),
        "sep_k5": (
            lambda a, h, v: ad.sep_conv(a, h, v),
            [x, rng.standard_normal((2, 5)), rng.standard_normal((2, 5))],
        ),
        "dw2": (lambda a, b: ad.dwconv_2d(a, b), [x, rng.standard_normal((2, 3, 3))]),
        "conv_s1": (
            lambda a, w: ad.conv2d(a, w, 1),
            [x, rng.standard_normal((3, 2, 3, 3))],
        ),
        "conv_s2": (
            lambda a, w: ad.conv2d(a, w, 2),
            [x, rng.standard_normal((3, 2, 3, 3))],
        ),
        "pw": (
            lambda a, w, b: ad.pwconv(a, w, b),
            [x, rng.standard_normal((4, 2)), rng.standard_normal(4)],
        ),
        "freq_descriptor": (lambda a: ad.freq_descriptor(a, ops.CUE_NAMES), [x]),
        "freq_descriptor_f3": (lambda a: ad.freq_descriptor(a, ("f3",)), [x]),
        "softmax": (lambda a: ad.softmax_channels(a), [rng.standard_normal((3, 4, 4))]),
        "glu": (lambda a, *ps: ad.glu(a, *ps), [x] + glu_params(rng, 2, 3)),
        "group_norm_act": (
            lambda a, g, b: ad.group_norm_act(a, g, b),
            [x, rng.standard_normal(2), rng.standard_normal(2)],
        ),
        "up_conv": (
            lambda a, w: ad.upsample_conv2d(a, w), [x, rng.standard_normal((3, 2, 3, 3))]
        ),
        "concat": (
            lambda a, b: ad.concat_channels([a, b]),
            [x, rng.standard_normal((1, 6, 6))],
        ),
        "stack_frames": (
            lambda a, b: ad.stack_frames([a, b]), [x, rng.standard_normal((2, 6, 6))]
        ),
        "take_frame": (lambda a: ad.take_frames(a, 1), [rng.standard_normal((3, 2, 2, 4, 4))]),
        "take_frames": (
            lambda a: ad.take_frames(a, slice(0, 2)), [rng.standard_normal((3, 2, 2, 4, 4))]
        ),
        "pack_frames": (
            lambda a, b: ad.pack_frames([a, b]),
            [rng.standard_normal((2, 3, 2, 4, 4)), rng.standard_normal((1, 3, 2, 4, 4))],
        ),
        "unpack_frames": (
            lambda a: ad.add(*ad.unpack_frames(a, 3, [slice(0, 1), slice(2, 3)])),
            [rng.standard_normal((2, 6, 4, 4))],
        ),
        "meanall": (lambda a: ad.mean_all(a), [x]),
        "drop_path": (lambda a: ad.drop_path(a, 0.3, "train", 0.9), [x]),
    }


class TestGradCheckPrimitives:
    """Every vocabulary op differentiates correctly at random points."""

    def test_all_ops(self):
        for name, (fn, point) in primitive_cases().items():
            err = ad.grad_check(fn, point)
            assert err < 1e-6, f"{name}: gradient error {err:.3e}"

    def test_every_op_has_a_case(self, monkeypatch):
        """Each traced op in ``autodiff.__all__`` is the outermost op of some case."""
        op_names = [name for name in ad.__all__ if name not in NOT_OPS]
        called, depth = set(), [0]

        def recorder(name, original):
            def wrapper(*args, **kwargs):
                if depth[0] == 0:
                    called.add(name)
                depth[0] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return wrapper

        for name in op_names:
            monkeypatch.setattr(ad, name, recorder(name, getattr(ad, name)))
        for fn, point in primitive_cases().values():
            fn(*[ad.Var(p) for p in point])
        assert sorted(set(op_names) - called) == []

    def test_every_op_has_a_caller_in_src(self):
        """Each public function of every :mod:`perigate` module, and each public method of
        its classes, is called somewhere in the library other than inside its own
        definition: no op, kernel, helper or method is kept for the tests alone. The two
        exceptions are release criteria's own tools. A method counts as called when any
        ``obj.name(...)`` call in the library names it."""
        kept = {("autodiff", "grad_check"),  # criterion 5: gradient checks
                ("spectral", "snr_advantage")}  # criterion 8: an SNR gain over beta = 0
        package = pathlib.Path(ad.__file__).parent
        trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
        uncalled = []
        for module in trees:
            mod = importlib.import_module(f"perigate.{module}")
            public = {name for name, f in vars(mod).items() if inspect.isfunction(f)
                      and f.__module__ == mod.__name__ and not name.startswith("_")}
            called = set().union(*(_module_calls(t, module, m == module)
                                   for m, t in trees.items()))
            uncalled += [(module, name) for name in sorted(public - called)]
        method_calls = set().union(*(_method_calls(t) for t in trees.values()))
        for module in trees:
            mod = importlib.import_module(f"perigate.{module}")
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                    methods = {name for name, f in vars(cls).items() if not name.startswith("_")
                               and inspect.isfunction(getattr(f, "__func__", f))}
                    uncalled += [(module, f"{cls.__name__}.{name}")
                                 for name in sorted(methods - method_calls)]
        assert sorted(set(uncalled) - kept) == []
        assert sorted(kept - set(uncalled)) == []

    def test_five_random_points_per_op(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((2, 5, 5))
            h = rng.standard_normal((2, 3))
            k2 = rng.standard_normal((2, 3, 3))
            w = rng.standard_normal((3, 2))
            g2 = rng.standard_normal(2)
            cases = [
                (lambda a, b: ad.sep_conv(a, b, h), [x, h]),
                (lambda a, b: ad.dwconv_2d(a, b), [x, k2]),
                (lambda a: ad.softmax_channels(a), [x]),
                (lambda a, b: ad.pwconv(a, b, np.zeros(3)), [x, w]),
                (lambda a: ad.freq_descriptor(a, ops.CUE_NAMES), [x]),
                (lambda a: ad.tanh(a), [x]),
                (lambda a: ad.sigmoid(a), [x]),
                (lambda a, *ps: ad.glu(a, *ps), [x] + glu_params(rng, 2, 3)),
                (lambda a, g, b: ad.group_norm_act(a, g, b),
                 [x, g2, rng.standard_normal(2)]),
                (lambda a, k3: ad.upsample_conv2d(a, k3),
                 [x, rng.standard_normal((3, 2, 3, 3))]),
                (lambda a: ad.mean_all(a), [x]),
            ]
            for fn, point in cases:
                assert ad.grad_check(fn, point) < 1e-6

    @pytest.mark.parametrize("weight_is_var", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv2d_gemm_vjp(self, k, stride, weight_is_var):
        rng = np.random.default_rng(200 + k)
        x = rng.standard_normal((2, 5, 6))
        w = rng.standard_normal((3, 2, k, k))
        if weight_is_var:
            fn, point = (lambda a, ww: ad.conv2d(a, ww, stride)), [x, w]
        else:
            fn, point = (lambda a: ad.conv2d(a, w, stride)), [x]
        assert ad.grad_check(fn, point) < 1e-6

    @pytest.mark.parametrize("weight_is_var", [True, False])
    def test_pwconv_gemm_vjp(self, weight_is_var):
        rng = np.random.default_rng(210)
        x = rng.standard_normal((3, 4, 7))
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        if weight_is_var:
            fn, point = (lambda a, ww, bb: ad.pwconv(a, ww, bb)), [x, w, b]
        else:
            fn, point = (lambda a: ad.pwconv(a, w, b)), [x]
        assert ad.grad_check(fn, point) < 1e-6

    @pytest.mark.parametrize("name", [
        "conv_s1", "conv_s2", "up_conv", "pw", "dw2", "sep", "group_norm_act",
        "glu", "softmax",
        "drop_path", "mul_map", "add_chan",
    ])
    def test_batched_vjp(self, name):
        """Every kernel with a leading batch axis N = 2, gradients summed over it."""
        rng = np.random.default_rng(220)
        x = rng.standard_normal((2, 4, 5, 6))
        cases = {
            "conv_s1": (lambda a, w: ad.conv2d(a, w, 1), [x, rng.standard_normal((3, 4, 3, 3))]),
            "conv_s2": (lambda a, w: ad.conv2d(a, w, 2),
                        [x, rng.standard_normal((3, 4, 3, 3))]),
            "pw": (lambda a, w, b: ad.pwconv(a, w, b),
                   [x, rng.standard_normal((3, 4)), rng.standard_normal(3)]),
            "dw2": (lambda a, k: ad.dwconv_2d(a, k), [x, rng.standard_normal((4, 3, 3))]),
            "sep": (lambda a, h, v: ad.sep_conv(a, h, v),
                    [x, rng.standard_normal((4, 5)), rng.standard_normal((4, 3))]),
            "group_norm_act": (lambda a, g, b: ad.group_norm_act(a, g, b),
                               [x, rng.standard_normal(4), rng.standard_normal(4)]),
            "glu": (lambda a, *ps: ad.glu(a, *ps), [x] + glu_params(rng, 4, 3)),
            "softmax": (lambda a: ad.softmax_channels(a), [x]),
            # one sample dropped (0.1 < 0.3), one kept
            "drop_path": (lambda a: ad.drop_path(ad.tanh(a), 0.3, "train", np.array([0.1, 0.9])),
                          [x]),
            "mul_map": (lambda a, m: ad.mul(a, m), [x, rng.standard_normal((2, 1, 5, 6))]),
            "add_chan": (lambda a, b: ad.add(a, b), [x, rng.standard_normal(4)]),
            "up_conv": (lambda a, w: ad.upsample_conv2d(a, w),
                        [x, rng.standard_normal((3, 4, 3, 3))]),
        }
        fn, point = cases[name]
        assert ad.grad_check(fn, point) < 1e-6

    def test_linear_map_near_exact(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 4))
        w = rng.standard_normal((2, 3))
        err = ad.grad_check(lambda a: ad.pwconv(a, w, np.zeros(2)), [x])
        assert err < 1e-10

    def test_tanh_chain(self):
        x = np.random.default_rng(7).standard_normal((2, 4, 4))
        err = ad.grad_check(lambda a: ad.tanh(ad.scale(ad.tanh(a), 0.5)), [x])
        assert err < 1e-7

    def test_eps_bounds(self):
        with pytest.raises(ConfigurationError):
            ad.grad_check(lambda a: a, [np.ones(2)], eps=1e-3)


class TestUnsupportedOperations:
    def test_python_operator_on_var_raises(self):
        from perigate.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            ad.forward_traced(lambda v: v + v, [np.ones((2, 2))])

    OPERATORS = {
        "operator -": lambda v: v - 1.0, "operator *": lambda v: 2.0 * v,
        "operator @": lambda v: v @ v, "operator unary -": lambda v: -v,
        "operator abs()": abs, "ufunc add": lambda v: np.ones((2, 2)) + v,
        "ufunc exp": np.exp,
    }

    @pytest.mark.parametrize("name", OPERATORS)
    def test_each_operator_names_itself(self, name):
        from perigate.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError, match=re.escape(name)):
            ad.forward_traced(self.OPERATORS[name], [np.ones((2, 2))])


def operand_ops(rng):
    """(name, op, operands) of every op taking a kernel, weight, bias, affine, gate or
    coefficient operand, run as ``op(x, *operands)`` on a [2, 4, 6, 6] input x."""
    r = rng.standard_normal
    return [
        ("sep_conv", ad.sep_conv, [r((4, 5)), r((4, 3))]),
        ("dwconv_2d", ad.dwconv_2d, [np.stack([ops.LAPLACIAN] * 4)]),
        ("conv2d", lambda x, w: ad.conv2d(x, w, stride=2), [r((3, 4, 3, 3))]),
        ("pwconv", ad.pwconv, [r((3, 4)), r(3)]),
        ("group_norm_act", ad.group_norm_act, [r(4), r(4)]),
        ("upsample_conv2d", ad.upsample_conv2d, [r((3, 4, 3, 3))]),
        ("glu", ad.glu, glu_params(rng, 4, 8)),
        ("mul", ad.mul, [r(4)]),
        ("suppress", lambda x, coef: ad.suppress(x, ad.tanh(x), coef), [r(4)]),
        ("gated_sum", lambda x, alpha: ad.gated_sum(alpha, [x, ad.tanh(x)]), [r((2, 2, 6, 6))]),
    ]


class TestConstantsGetNoGradients:
    def test_fixed_kernel_passes_gradient_through(self):
        # each vjp returns every operand's gradient; backward keeps none for a constant
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 6, 6))
        for name, op, operands in operand_ops(rng):

            def run(constant):
                leaf = ad.Var(x)
                args = [a if i == constant else ad.Var(a) for i, a in enumerate(operands)]
                out, tape = ad.forward_traced(lambda v: op(v, *args), [leaf])
                ad.backward(tape, np.cos(np.arange(out.value.size)).reshape(out.value.shape))
                return [leaf] + args

            want = run(None)
            for i, operand in enumerate(operands):
                kept = operand.copy()
                got = run(i)
                assert got[1 + i] is operand and not hasattr(operand, "grad"), name
                assert np.array_equal(operand, kept), name
                for j, (g, w) in enumerate(zip(got, want)):
                    if j != 1 + i:  # the input's and the other operands' gradients
                        assert g.grad.tobytes() == w.grad.tobytes(), (name, i, j)


class TestDropPath:
    def test_rate_zero_identity(self):
        x = ad.Var(np.ones((2, 2, 2)))
        assert ad.drop_path(x, 0.0, "train", keep_u=0.9) is x
        assert ad.drop_path(x, 0.0, "eval") is x

    def test_eval_identity_any_rate(self):
        x = ad.Var(np.ones((2, 2, 2)))
        assert ad.drop_path(x, 0.1, "eval") is x

    def test_train_keeps_scaled(self):
        x = ad.Var(np.ones((1, 2, 2)))
        out = ad.drop_path(x, 0.2, "train", keep_u=0.5)
        np.testing.assert_allclose(out.value, 1.0 / 0.8)

    def test_train_drops_to_zero(self):
        x = ad.Var(np.ones((1, 2, 2)))
        out = ad.drop_path(x, 0.5, "train", keep_u=0.2)
        assert np.all(out.value == 0.0)

    def test_eval_gradient_identity(self):
        x = np.random.default_rng(9).standard_normal((2, 3, 3))
        err = ad.grad_check(lambda a: ad.drop_path(ad.tanh(a), 0.3, "eval"), [x])
        assert err < 1e-7

    def test_per_sample_decisions(self):
        x = ad.Var(np.ones((3, 1, 2, 2)))
        out = ad.drop_path(x, 0.5, "train", keep_u=np.array([0.2, 0.7, 0.5]))
        np.testing.assert_array_equal(out.value[:, 0, 0, 0], [0.0, 2.0, 2.0])

    def test_one_uniform_per_sample(self):
        with pytest.raises(ConfigurationError):
            ad.drop_path(ad.Var(np.ones((3, 1, 2, 2))), 0.5, "train", keep_u=0.2)

    def test_bad_rate(self):
        with pytest.raises(ConfigurationError):
            ad.drop_path(ad.Var(np.ones(2)), 1.0, "train", keep_u=0.5)

    def test_expectation_matches_identity(self):
        # Monte Carlo over many draws: mean output approximates the input
        rate = 0.3
        x = ad.Var(np.full((1, 1, 1), 2.0))
        rng = np.random.default_rng(10)
        n = 10_000
        draws = np.array(
            [ad.drop_path(x, rate, "train", keep_u=float(u)).value[0, 0, 0] for u in rng.random(n)]
        )
        sigma = 2.0 * np.sqrt(rate / (1 - rate) / n)
        assert abs(draws.mean() - 2.0) < 3 * sigma


class TestParamStore:
    def test_unique_paths(self):
        store = ad.ParamStore()
        store.add("a/b", np.zeros(2))
        with pytest.raises(ConfigurationError):
            store.add("a/b", np.zeros(2))

    def test_state_roundtrip(self):
        store = ad.ParamStore()
        store.add("w", np.arange(4.0))
        state = {name: value.copy() for name, value in store.items()}
        store.value("w")[...] = 0.0
        store.load_state(state)
        assert np.array_equal(store.value("w"), np.arange(4.0))

    def test_load_shape_mismatch(self):
        store = ad.ParamStore()
        store.add("w", np.zeros(3))
        with pytest.raises(Exception):
            store.load_state({"w": np.zeros(4)})

    def test_load_unknown_entry(self):
        store = ad.ParamStore()
        store.add("w", np.zeros(3))
        with pytest.raises(InputError, match="'extra'"):
            store.load_state({"w": np.zeros(3), "extra": np.zeros(1)})

    def test_load_dtype_mismatch(self):
        store = ad.ParamStore()
        store.add("w", np.zeros(3, dtype=np.float32))
        with pytest.raises(InputError, match="'w'"):
            store.load_state({"w": np.zeros(3, dtype=np.float64)})
        assert store.value("w").dtype == np.float32

    def test_grad_shape_matches_param(self):
        store = ad.ParamStore()
        w = store.add("w", np.ones((2, 3)))
        out, tape = ad.forward_traced(lambda: ad.mean_all(w), [])
        ad.backward(tape, np.asarray(1.0))
        assert store.grad("w").shape == (2, 3)
