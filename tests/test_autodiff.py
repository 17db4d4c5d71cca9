"""Forward-value and gradient tests for the tensor engine.

Forward values are checked against the loop oracles in oracles.py; gradients
are checked against central finite differences via the built-in checker.
"""

import contextlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resemotenet import autodiff as ad
from resemotenet.autodiff import Graph, Tensor
from resemotenet.errors import GraphError, ShapeError
from resemotenet.optim import cross_entropy
from resemotenet.verification import grad_check

import oracles

rng = np.random.default_rng(42)


def t(arr, req=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=req)


def _windowed(monkeypatch) -> list:
    """Patch ``ad._windows`` to record the sample count of each array it
    takes windows of, in call order; returns that record."""
    windows, seen = ad._windows, []
    monkeypatch.setattr(ad, "_windows", lambda a, *rest: seen.append(len(a)) or windows(a, *rest))
    return seen


class TestForwardAgainstOracles:
    def test_conv2d_matches_loop_reference(self):
        x = rng.standard_normal((2, 3, 7, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = ad.conv2d(t(x), t(w), t(b), stride=1, padding=1)
        want = oracles.conv2d_loops(x, w, b, stride=1, padding=1)
        npt.assert_allclose(got.data, want, atol=1e-12)

    def test_conv2d_stride2_no_padding(self):
        x = rng.standard_normal((1, 2, 9, 9))
        w = rng.standard_normal((3, 2, 3, 3))
        got = ad.conv2d(t(x), t(w), None, stride=2, padding=0)
        want = oracles.conv2d_loops(x, w, None, stride=2, padding=0)
        assert got.shape == (1, 3, 4, 4)
        npt.assert_allclose(got.data, want, atol=1e-12)

    def test_conv2d_1x1(self):
        x = rng.standard_normal((2, 4, 5, 5))
        w = rng.standard_normal((6, 4, 1, 1))
        got = ad.conv2d(t(x), t(w), None, stride=2, padding=0)
        want = oracles.conv2d_loops(x, w, None, stride=2, padding=0)
        npt.assert_allclose(got.data, want, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv2d_forward_blocks_match_one_block(self, monkeypatch, dtype):
        r = np.random.default_rng(7)
        x0, w0 = r.standard_normal((7, 2, 5, 5)), r.standard_normal((3, 2, 3, 3))
        b0, c0 = r.standard_normal(3), r.standard_normal((7, 3, 5, 5))
        calls = _windowed(monkeypatch)

        def run(block):
            monkeypatch.setattr(ad, "CONV_BLOCK", block)
            x, w, b = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x0, w0, b0))
            calls.clear()
            with Graph():
                out = ad.conv2d(x, w, b, stride=1, padding=1)
                blocks = len(calls)
                ad.tensor_sum(ad.mul(out, Tensor(c0, dtype=dtype))).backward()
            return blocks, [a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)], out

        # a sample's patches are (2*3*3) x (5*5) = 450 elements: 3 + 3 + 1 samples
        blocks, blocked, out = run(3 * 450)
        assert blocks == 3
        assert run(1 << 20)[:2] == (1, blocked)
        assert out.dtype == dtype
        if dtype == np.float64:
            npt.assert_allclose(out.data, oracles.conv2d_loops(x0, w0, b0, 1, 1), atol=1e-12)

    def test_max_pool_matches_loop_reference(self):
        x = rng.standard_normal((2, 3, 8, 8))
        got = ad.max_pool2d(t(x), k=2, stride=2)
        want = oracles.max_pool2d_loops(x, 2, 2)
        npt.assert_allclose(got.data, want, atol=0)

    def test_adaptive_avg_pool_matches_loop_reference(self):
        x = rng.standard_normal((2, 3, 7, 5))
        got = ad.adaptive_avg_pool(t(x), 3, 2)
        want = oracles.adaptive_avg_pool_loops(x, 3, 2)
        npt.assert_allclose(got.data, want, atol=1e-12)

    def test_adaptive_avg_pool_to_1x1_is_global_mean(self):
        x = rng.standard_normal((2, 4, 6, 6))
        got = ad.adaptive_avg_pool(t(x), 1, 1)
        npt.assert_allclose(got.data[:, :, 0, 0], x.mean(axis=(2, 3)), atol=1e-12)

    def test_linear_matches_loop_reference(self):
        x = rng.standard_normal((4, 7))
        w = rng.standard_normal((5, 7))
        b = rng.standard_normal(5)
        got = ad.linear(t(x), t(w), t(b))
        want = oracles.linear_loops(x, w, b)
        npt.assert_allclose(got.data, want, atol=1e-12)

    def test_batch_norm_train_matches_loop_reference(self):
        x = rng.standard_normal((3, 2, 4, 4))
        g = rng.standard_normal(2) + 1.0
        b = rng.standard_normal(2)
        got, mean, var = ad.batch_norm2d_train(t(x), t(g), t(b), eps=1e-5)
        want = oracles.batch_norm_loops(x, g, b, 1e-5)
        npt.assert_allclose(got.data, want, atol=1e-10)
        npt.assert_allclose(mean, x.mean(axis=(0, 2, 3)), atol=1e-12)
        npt.assert_allclose(var, x.var(axis=(0, 2, 3)), atol=1e-12)

    def test_sigmoid_extremes_are_finite(self):
        x = t(np.array([[-1000.0, -30.0, 0.0, 30.0, 1000.0]]))
        s = ad.sigmoid(x)
        assert np.all(np.isfinite(s.data))
        npt.assert_allclose(s.data[0, 2], 0.5, atol=1e-15)
        assert s.data[0, 0] >= 0.0 and s.data[0, 4] <= 1.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3), cin=st.integers(1, 3), cout=st.integers(1, 3),
    h=st.integers(3, 8), w=st.integers(3, 8),
    k=st.sampled_from([1, 3]), stride=st.integers(1, 2), padding=st.integers(0, 1),
)
def test_conv_output_shape_formula(n, cin, cout, h, w, k, stride, padding):
    if h + 2 * padding < k or w + 2 * padding < k:
        return
    x = Tensor(np.zeros((n, cin, h, w)))
    wt = Tensor(np.zeros((cout, cin, k, k)))
    out = ad.conv2d(x, wt, None, stride=stride, padding=padding)
    eh = (h + 2 * padding - k) // stride + 1
    ew = (w + 2 * padding - k) // stride + 1
    assert out.shape == (n, cout, eh, ew)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 12), st.integers(1, 12))
def test_adaptive_pool_of_constant_is_constant(n, c, h, w):
    x = Tensor(np.full((n, c, h, w), 3.25))
    oh, ow = min(3, h), min(2, w)
    out = ad.adaptive_avg_pool(x, oh, ow)
    npt.assert_allclose(out.data, 3.25, atol=1e-12)


def _pushed_back(r, op, *inputs):
    """Run `op` on a graph and push a random output gradient back through
    it; returns that gradient."""
    with Graph():
        out = op(*inputs)
        g = r.standard_normal(out.shape).astype(out.dtype)
        g[r.random(g.shape) < 0.1] = -0.0
        out.node.backward_fn(g.copy())
    return g


class TestBackwardAgainstOracles:
    """The windowed kernels' gradients against the loop oracles."""

    @pytest.mark.parametrize("kh, kw", [(1, 1), (3, 3), (1, 3)])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_conv2d_input_and_weight_gradients(self, stride, padding, kh, kw):
        r = np.random.default_rng(100 * stride + 10 * padding + kh * kw)
        x0, w0 = r.standard_normal((2, 3, 7, 6)), r.standard_normal((4, 3, kh, kw))
        x, w, b = t(x0), t(w0), t(r.standard_normal(4))
        g = _pushed_back(r, lambda: ad.conv2d(x, w, b, stride, padding))
        want_x, want_w = oracles.conv2d_backward_loops(x0, w0, g, stride, padding)
        npt.assert_allclose(x.grad, want_x, rtol=0, atol=1e-12)
        npt.assert_allclose(w.grad, want_w, rtol=0, atol=1e-12)
        npt.assert_allclose(b.grad, g.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_max_pool_routes_to_first_maximum_summing_windows_in_order(
            self, k, stride, dtype):
        r = np.random.default_rng(10 * k + stride)
        # few distinct values, so windows tie; half the zeros are -0.0, and
        # some windows hold one or more NaNs
        x0 = r.integers(-2, 3, (2, 3, 8, 7)).astype(dtype)
        x0[(x0 == 0) & (r.random(x0.shape) < 0.5)] = -0.0
        x0[r.random(x0.shape) < 0.05] = np.nan
        x = Tensor(x0, requires_grad=True, dtype=dtype)
        g = _pushed_back(r, lambda: ad.max_pool2d(x, k, stride))
        want = oracles.max_pool2d_backward_loops(x0, g, k, stride)
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == want.tobytes()


class TestGradients:
    """Analytic vs central-difference gradients for every primitive."""

    def check(self, f, inputs):
        oracles.assert_gradients_match(f, inputs)

    def test_conv2d(self):
        x = t(rng.standard_normal((2, 2, 5, 5)))
        w = t(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        b = t(rng.standard_normal(3))
        self.check(
            lambda x, w, b: ad.tensor_sum(ad.mul(ad.conv2d(x, w, b, 1, 1),
                                                 ad.conv2d(x, w, b, 1, 1))),
            [("x", x), ("w", w), ("b", b)])

    def test_conv2d_strided(self):
        x = t(rng.standard_normal((1, 2, 6, 6)))
        w = t(rng.standard_normal((2, 2, 3, 3)) * 0.5)
        self.check(lambda x, w: ad.tensor_sum(ad.relu(ad.conv2d(x, w, None, 2, 1))),
                   [("x", x), ("w", w)])

    def test_max_pool(self):
        # distinct values so the argmax is stable under the probe step
        x = t(rng.permutation(64).reshape(1, 1, 8, 8) * 1.0)
        self.check(lambda x: ad.tensor_sum(ad.mul(ad.max_pool2d(x, 2, 2),
                                                  ad.max_pool2d(x, 2, 2))),
                   [("x", x)])

    def test_max_pool_tie_routes_to_first_window_slot(self):
        x = Tensor(np.full((1, 1, 2, 2), 5.0), requires_grad=True)
        with Graph():
            out = ad.max_pool2d(x, 2, 2)
            ad.tensor_sum(out).backward()
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0  # row-major first among the tied maxima
        npt.assert_array_equal(x.grad, expected)

    @staticmethod
    def _pooled(rows, stride, weights):
        """Forward and backward of sum(max_pool2d(x, 2, stride) * weights)
        over a (1, 1, 2, W) input; the output's bits must not depend on
        whether a graph records the op."""
        x = Tensor(np.array([[rows]]), requires_grad=True)
        with Graph():
            out = ad.max_pool2d(x, 2, stride)
            ad.tensor_sum(ad.mul(out, Tensor(np.array(weights).reshape(out.shape)))).backward()
        assert ad.max_pool2d(Tensor(x.data), 2, stride).data.tobytes() == out.data.tobytes()
        return out.data.reshape(-1), x.grad

    def test_max_pool_nan_and_ties_route_to_the_first_hit(self):
        nan = np.nan
        # five side-by-side windows [a b; c d]: a NaN pair, NaN in the first
        # slot, an equal-value tie, then -0.0/+0.0 ties each way round; an
        # infinite upstream gradient reaches only its window's first NaN
        out, grad = self._pooled([[1, nan, nan, 2, 2, 7, -0.0, 0.0, -1, 0.0],
                                  [nan, 0.5, 3, nan, 7, 7, 0.0, -1, -0.0, -0.0]],
                                 2, [10, np.inf, 30, 40, 50])
        assert np.isnan(out[:2]).all()
        npt.assert_array_equal(out[2:], [7, 0, 0])
        assert np.signbit(out[2:]).tolist() == [False, True, False]
        npt.assert_array_equal(grad, [[[[0, 10, np.inf, 0, 0, 30, 40, 0, 0, 50],
                                        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]]]])
        assert not np.signbit(grad).any()

    def test_max_pool_overlapping_windows_sum_at_the_first_hit(self):
        nan = np.nan
        out, grad = self._pooled([[1, nan, 3, -0.0, 0.0], [nan, 0.5, 2, 0.0, -0.0]],
                                 1, [10, 20, 30, 40])
        assert np.isnan(out[:2]).all()
        npt.assert_array_equal(out[2:], [3, 0])
        assert np.signbit(out[2:]).tolist() == [False, True]
        npt.assert_array_equal(grad, [[[[0, 30, 30, 40, 0], [0, 0, 0, 0, 0]]]])
        assert not np.signbit(grad).any()

    def test_adaptive_avg_pool(self):
        x = t(rng.standard_normal((1, 2, 7, 5)))
        self.check(lambda x: ad.tensor_sum(ad.mul(ad.adaptive_avg_pool(x, 3, 2),
                                                  ad.adaptive_avg_pool(x, 3, 2))),
                   [("x", x)])

    def test_linear(self):
        x = t(rng.standard_normal((3, 4)))
        w = t(rng.standard_normal((5, 4)))
        b = t(rng.standard_normal(5))
        self.check(lambda x, w, b: ad.tensor_sum(ad.mul(ad.linear(x, w, b),
                                                        ad.linear(x, w, b))),
                   [("x", x), ("w", w), ("b", b)])

    def test_relu(self):
        # keep values away from the kink at zero
        x = t(rng.standard_normal((3, 4)) + np.sign(rng.standard_normal((3, 4))) * 0.5)
        self.check(lambda x: ad.tensor_sum(ad.mul(ad.relu(x), ad.relu(x))), [("x", x)])

    def test_sigmoid(self):
        x = t(rng.standard_normal((2, 5)))
        self.check(lambda x: ad.tensor_sum(ad.mul(ad.sigmoid(x), ad.sigmoid(x))),
                   [("x", x)])

    def test_add_mul(self):
        a = t(rng.standard_normal((3, 3)))
        b = t(rng.standard_normal((3, 3)))
        self.check(lambda a, b: ad.tensor_sum(ad.mul(ad.add(a, b), ad.mul(a, b))),
                   [("a", a), ("b", b)])

    def test_mul_broadcast(self):
        x = t(rng.standard_normal((2, 3, 4, 4)))
        s = t(rng.standard_normal((2, 3, 1, 1)))
        self.check(lambda x, s: ad.tensor_sum(ad.mul(ad.mul(x, s), ad.mul(x, s))),
                   [("x", x), ("s", s)])

    def test_mul_broadcast_along_any_axes(self):
        a = t(rng.standard_normal((2, 3, 4, 5)))
        b = t(rng.standard_normal((1, 3, 1, 5)))
        self.check(lambda a, b: ad.tensor_sum(ad.mul(ad.mul(a, b), ad.mul(a, b))),
                   [("a", a), ("b", b)])

    def test_reshape(self):
        x = t(rng.standard_normal((2, 3, 4)))
        self.check(lambda x: ad.tensor_sum(ad.mul(ad.reshape(x, (6, 4)),
                                                  ad.reshape(x, (6, 4)))), [("x", x)])

    def test_batch_norm_train(self):
        # scalarize via a fixed random projection: sum(bn(x)^2) is nearly
        # invariant to x (its x-gradient is O(eps)), which starves the
        # finite-difference comparison of signal
        x = t(rng.standard_normal((4, 3, 3, 3)))
        g = t(rng.standard_normal(3) + 1.0)
        b = t(rng.standard_normal(3))
        c = Tensor(rng.standard_normal((4, 3, 3, 3)))
        self.check(lambda x, g, b: ad.tensor_sum(
            ad.mul(ad.batch_norm2d_train(x, g, b, 1e-5)[0], c)),
            [("x", x), ("g", g), ("b", b)])

    def test_batch_norm_eval(self):
        x = t(rng.standard_normal((2, 3, 3, 3)))
        g = t(rng.standard_normal(3) + 1.0)
        b = t(rng.standard_normal(3))
        rm = rng.standard_normal(3) * 0.1
        rv = rng.random(3) + 0.5
        self.check(lambda x, g, b: ad.tensor_sum(
            ad.mul(ad.batch_norm2d_eval(x, g, b, rm, rv, 1e-5),
                   ad.batch_norm2d_eval(x, g, b, rm, rv, 1e-5))),
            [("x", x), ("g", g), ("b", b)])


class TestGraphSemantics:
    def test_gradient_accumulates_across_multiple_uses(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Graph():
            y = ad.add(ad.mul(x, x), ad.mul(x, x))  # 2x^2 -> dy/dx = 4x
            ad.tensor_sum(y).backward()
        npt.assert_allclose(x.grad, [12.0], atol=1e-12)

    def test_gradient_accumulates_across_graphs_until_cleared(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        for _ in range(2):
            with Graph():
                ad.tensor_sum(ad.mul(x, x)).backward()
        npt.assert_allclose(x.grad, [8.0], atol=1e-12)  # 2 passes x 2x
        x.grad = None
        assert x.grad is None

    def test_no_graph_records_nothing(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        out = ad.relu(x)
        assert out.node is None and not out.requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Graph():
            y = ad.relu(x)
            with pytest.raises(GraphError, match="scalar"):
                y.backward()

    def test_backward_twice_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with Graph():
            s = ad.tensor_sum(ad.mul(x, x))
            s.backward()
            with pytest.raises(GraphError, match="single-use"):
                s.backward()

    def test_backward_without_graph_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = ad.tensor_sum(x)
        with pytest.raises(GraphError):
            y.backward()

    def test_constant_inputs_receive_no_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        c = Tensor(np.array([5.0]))
        with Graph():
            ad.tensor_sum(ad.mul(x, c)).backward()
        npt.assert_allclose(x.grad, [5.0])
        assert c.grad is None

    @pytest.mark.parametrize("op", [ad.relu, lambda x: ad.adaptive_avg_pool(x, 1, 1)])
    def test_input_cleared_after_forward_receives_no_gradient(self, op):
        """A single-input op's backward tests no ``requires_grad``:
        `_accumulate` skips an input that no longer requires a gradient."""
        x = t(rng.standard_normal((2, 3, 4, 4)))
        with Graph():
            loss = ad.tensor_sum(op(x))
            x.requires_grad = False
            loss.backward()
        assert x.grad is None


def _small_net(x, w, b, v):
    """conv -> relu -> pool -> linear -> sum: every saved-buffer kind."""
    h = ad.relu(ad.conv2d(x, w, b, stride=1, padding=1))
    h = ad.max_pool2d(h, 2, 2)
    return ad.tensor_sum(ad.linear(ad.reshape(h, (h.shape[0], -1)), v)), h


def _small_leaves():
    r = np.random.default_rng(7)
    return (t(r.standard_normal((2, 2, 4, 4))), t(r.standard_normal((3, 2, 3, 3))),
            t(r.standard_normal(3)), t(r.standard_normal((5, 12))))


class TestHandOverBuffers:
    """Only an array handed over with ``out=`` is ever written by a forward."""

    def _inputs(self):
        r = np.random.default_rng(13)
        x, y = t(r.standard_normal((2, 3, 4, 4))), t(r.standard_normal((2, 3, 4, 4)))
        gamma, beta = t(r.uniform(0.5, 1.5, 3)), t(r.standard_normal(3))
        stats = r.standard_normal(3), r.uniform(0.5, 2.0, 3)
        return x, y, gamma, beta, stats

    @pytest.mark.parametrize("graph", [False, True])
    def test_calls_without_out_leave_their_inputs_untouched(self, graph):
        x, y, gamma, beta, (mean, var) = self._inputs()
        arrays = [x.data, y.data, gamma.data, beta.data, mean, var]
        before = [a.tobytes() for a in arrays]
        with Graph() if graph else contextlib.nullcontext():
            outs = [ad.relu(x), ad.add(x, y),
                    ad.batch_norm2d_eval(x, gamma, beta, mean, var, 1e-5)]
        assert [a.tobytes() for a in arrays] == before
        for out in outs:
            assert not any(np.shares_memory(out.data, a) for a in arrays)

    def test_relu_and_add_write_into_out(self):
        x, y, *_ = self._inputs()
        want_sum, want_relu = x.data + y.data, np.maximum(x.data + y.data, 0)
        s = ad.add(x, y, out=x.data)
        assert s.data is x.data and s.data.tobytes() == want_sum.tobytes()
        r = ad.relu(s, out=s.data)
        assert r.data is x.data and r.data.tobytes() == want_relu.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_batch_norm_writes_out_only_when_unrecorded(self, dtype):
        x, _, gamma, beta, (mean, var) = self._inputs()
        x = Tensor(x.data, requires_grad=True, dtype=dtype)
        want = ad.batch_norm2d_eval(x, gamma, beta, mean, var, 1e-5)
        kept = x.data.copy()
        with Graph():
            recorded = ad.batch_norm2d_eval(x, gamma, beta, mean, var, 1e-5, out=x.data)
        assert x.data.tobytes() == kept.tobytes()  # its backward reads x
        got = ad.batch_norm2d_eval(x, gamma, beta, mean, var, 1e-5, out=x.data)
        # float32 input, float64 statistics: a float64 result, in a new array
        assert (got.data is x.data) == (dtype == np.float64)
        assert got.data.tobytes() == recorded.data.tobytes() == want.data.tobytes()

    def test_relu_backward_masks_the_gradient_it_was_handed(self):
        r = np.random.default_rng(5)
        x = Tensor(r.standard_normal((4, 16, 64, 64)), requires_grad=True, dtype=np.float32)
        with Graph():
            out = ad.relu(x)
        gout = r.standard_normal(x.shape).astype(np.float32)
        want = gout * (x.data > 0) + np.float32(0.0)  # a first gradient has no -0.0
        tracemalloc.start()
        try:
            out.node.backward_fn(gout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is gout and gout.tobytes() == want.tobytes()
        assert peak <= x.size + (64 << 10)  # its bool mask, plus slack


class TestTapeRelease:
    def test_graph_is_empty_and_non_leaf_grads_dropped(self):
        leaves = _small_leaves()
        with Graph() as graph:
            loss, h = _small_net(*leaves)
            recorded = [node.out for node in graph.nodes]
            loss.backward()
        assert graph.nodes == []
        assert all(out.grad is None for out in recorded)
        assert h.grad is None and loss.grad is None
        assert all(leaf.grad is not None for leaf in leaves)

    def test_leaf_gradients_match_a_retaining_walk(self):
        released = _small_leaves()
        with Graph():
            _small_net(*released)[0].backward()
        retained = _small_leaves()
        with Graph() as graph:
            loss = _small_net(*retained)[0]
            # the walk without release: every node kept, nothing dropped
            loss.grad = np.ones_like(loss.data)
            for node in reversed(graph.nodes):
                if node.out.grad is not None:
                    node.backward_fn(node.out.grad)
        for a, b in zip(released, retained):
            npt.assert_array_equal(a.grad, b.grad)

    def test_second_backward_still_raises(self):
        with Graph():
            loss = _small_net(*_small_leaves())[0]
            loss.backward()
            with pytest.raises(GraphError, match="single-use"):
                loss.backward()

    def test_activations_freed_while_loss_is_alive(self):
        import gc
        import weakref
        leaves = _small_leaves()
        gc.disable()  # freed by reference counting alone, not by a cycle sweep
        try:
            with Graph():
                loss, h = _small_net(*leaves)
                activation = weakref.ref(h.data)
                del h
                assert activation() is not None  # the tape holds it until backward
                loss.backward()
            assert activation() is None
            assert np.isfinite(loss.item())
        finally:
            gc.enable()


class TestOnGrad:
    """``Graph(on_grad=...)``: each leaf is reported once, when its gradient
    is final, with the same gradient a plain backward leaves."""

    def _record(self, graph_box, calls):
        def on_grad(leaf):
            still_used = any(leaf is t for node in graph_box[0].nodes
                             for t in node.inputs)
            calls.append((leaf, leaf.grad.copy(), still_used))
        return on_grad

    def test_fires_once_per_leaf_after_its_last_consumer(self):
        plain = _small_leaves()
        with Graph():
            _small_net(*plain)[0].backward()
        leaves = _small_leaves()
        calls, box = [], []
        with Graph(on_grad=self._record(box, calls)) as graph:
            box.append(graph)
            _small_net(*leaves)[0].backward()
        assert sorted(map(id, (c[0] for c in calls))) == sorted(map(id, leaves))
        assert not any(still_used for _, _, still_used in calls)
        for leaf, grad, _ in calls:
            want = plain[[id(x) for x in leaves].index(id(leaf))].grad
            npt.assert_array_equal(grad, want)

    def test_leaf_used_by_two_ops_gets_one_call_with_the_summed_gradient(self):
        x = t([3.0, -2.0])
        calls, box = [], []
        with Graph(on_grad=self._record(box, calls)) as graph:
            box.append(graph)
            ad.tensor_sum(ad.add(ad.mul(x, x), ad.relu(x))).backward()
        assert len(calls) == 1 and calls[0][0] is x
        npt.assert_array_equal(calls[0][1], [7.0, -4.0])  # 2x + (x > 0)

    def test_leaves_without_requires_grad_or_unreached_are_not_reported(self):
        x, c, unused = t([2.0]), t([5.0], req=False), t([1.0])
        calls, box = [], []
        with Graph(on_grad=self._record(box, calls)) as graph:
            box.append(graph)
            ad.relu(unused)  # recorded, but the loss does not depend on it
            ad.tensor_sum(ad.mul(x, c)).backward()
        assert [leaf for leaf, _, _ in calls] == [x]
        assert c.grad is None and unused.grad is None

    def test_callback_may_update_the_leaf_in_place(self):
        # what training does: step each parameter as soon as it is final
        leaves = _small_leaves()
        before = [leaf.data.copy() for leaf in leaves]
        plain = _small_leaves()
        with Graph():
            _small_net(*plain)[0].backward()

        def step(leaf):
            leaf.data -= 0.1 * leaf.grad
            leaf.grad = None

        with Graph(on_grad=step):
            _small_net(*leaves)[0].backward()
        for leaf, start, ref in zip(leaves, before, plain):
            npt.assert_array_equal(leaf.data, start - 0.1 * ref.grad)
            assert leaf.grad is None


def _wide_leaves():
    """`_small_net`'s leaves with a conv of Cout = N*L = 8, whose weight
    gradient is as large as its patches."""
    r = np.random.default_rng(7)
    return (t(r.standard_normal((2, 2, 2, 2))), t(r.standard_normal((8, 2, 3, 3))),
            t(r.standard_normal(8)), t(r.standard_normal((5, 8))))


def _assert_shared_weight_summed_once(x0, w0):
    """A weight used by two convs is reported once, holding the summed
    gradient as an array, with a plain backward's bits."""
    def net(x, w):
        a = ad.conv2d(x, w, None, stride=1, padding=1)
        b = ad.conv2d(ad.relu(a), w, None, stride=1, padding=1)
        return ad.tensor_sum(ad.mul(b, b))

    x, w = t(x0), t(w0)
    with Graph():
        net(x, w).backward()
    calls = []
    x2, w2 = t(x0), t(w0)
    with Graph(on_grad=lambda leaf: calls.append((leaf, type(leaf._grad),
                                                  leaf.grad.copy()))):
        net(x2, w2).backward()
    got = dict((id(leaf), (kind, grad)) for leaf, kind, grad in calls)
    assert len(calls) == 2
    assert got[id(w2)][0] is np.ndarray  # a second use adds a whole array
    assert got[id(w2)][1].tobytes() == w.grad.tobytes()
    assert got[id(x2)][1].tobytes() == x.grad.tobytes()


class TestDeferredConvWeightGrad:
    """In every graph the first gradient of a conv weight with Cout >= N*L
    is stored as a `DeferredGrad`; reading ``.grad`` gives the eager
    product's bits."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # two rows of a (C, 2, 3, 3) weight per block, one of a (C, 8, 3, 3);
        # one sample's patches a conv block
        monkeypatch.setattr(ad, "GRAD_BLOCK", 40)
        monkeypatch.setattr(ad, "CONV_BLOCK", 1)
        seen = _windowed(monkeypatch)
        yield
        # a test that runs a two-sample conv sees it in one-sample blocks
        assert not seen or seen.count(1) >= 2, seen

    @pytest.mark.parametrize("with_callback", [False, True])
    def test_weight_gradient_is_deferred_with_the_eager_bits(self, with_callback):
        # a weight that already holds a gradient gets the product added at
        # once; starting from zeros, that is the eager product
        eager = _wide_leaves()
        eager[1].grad = np.zeros(eager[1].shape)
        with Graph():
            _small_net(*eager)[0].backward()
        leaves = _wide_leaves()
        seen = {}

        def on_grad(leaf):
            seen[id(leaf)] = (type(leaf._grad), leaf.grad.copy())

        with Graph(on_grad=on_grad if with_callback else None):
            _small_net(*leaves)[0].backward()
        if not with_callback:  # held until read
            seen[id(leaves[1])] = (type(leaves[1]._grad), leaves[1].grad)
        kind, grad = seen[id(leaves[1])]
        assert kind is ad.DeferredGrad
        assert type(eager[1]._grad) is np.ndarray
        assert grad.tobytes() == eager[1].grad.tobytes()

    def test_blocks_cover_the_gradient_in_order(self):
        r = np.random.default_rng(3)
        go_t, patches = r.standard_normal((5, 8)), r.standard_normal((8, 18))
        deferred = ad.DeferredGrad(go_t, patches, (5, 2, 3, 3), np.float64)
        pieces = [(start, block.copy()) for start, block in deferred.blocks()]
        assert [start for start, _ in pieces] == [0, 36, 72]
        flat = np.concatenate([block for _, block in pieces])
        assert flat.tobytes() == deferred.materialize().reshape(-1).tobytes()
        npt.assert_allclose(flat.reshape(5, 18), go_t @ patches, rtol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_block_holds_at_most_grad_block_elements(self, monkeypatch, dtype, order):
        # the product buffer and the copy of go_t's transposed rows
        # together: 1000 elements of the gradient's dtype; matmul copies
        # neither C-ordered patches nor the F-ordered (CKK, N*L).T view
        # conv2d passes
        monkeypatch.setattr(ad, "GRAD_BLOCK", 1000)
        r = np.random.default_rng(8)
        go_t = r.standard_normal((4, 64, 9)).astype(dtype).transpose(1, 0, 2)  # (Cout, N, L)
        patches = r.standard_normal((36, 8 * 4)).astype(dtype)  # a 2x2 kernel of 8 channels
        patches = patches if order == "C" else np.ascontiguousarray(patches.T).T
        assert patches.flags[f"{order}_CONTIGUOUS"]
        deferred = ad.DeferredGrad(go_t, patches, (64, 8, 2, 2), dtype)
        tracemalloc.start()
        try:
            starts = [start for start, _ in deferred.blocks()]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = 1000 // (32 + 36)
        assert starts == [r * 32 for r in range(0, 64, rows)] and rows > 1
        assert peak <= 1000 * np.dtype(dtype).itemsize + 2048, peak
        got = deferred.materialize().reshape(64, -1)
        assert got.dtype == dtype
        a, b = go_t.reshape(64, -1).astype(np.float64), patches.astype(np.float64)
        if dtype == np.float64:
            npt.assert_allclose(got, a @ b, rtol=1e-12)
        else:  # within the GEMM rounding bound (terms + 1) * 2**-24 * sum |product|
            assert np.all(np.abs(got - a @ b) <= 37 * 2.0 ** -24 * (np.abs(a) @ np.abs(b)))

    def test_shared_weight_gets_the_summed_gradient_once(self):
        r = np.random.default_rng(5)
        # 2 samples of a 2x2 output: N*L = 8 = Cout
        _assert_shared_weight_summed_once(r.standard_normal((2, 8, 2, 2)),
                                          r.standard_normal((8, 8, 3, 3)))


class TestEagerConvWeightGrad:
    """A conv weight whose gradient, one product of its size and one
    sample's patches are smaller than its whole patch matrix (2*Cout + L <
    N*L) gets that gradient as one array, summed sample by sample in blocks
    of at most `CONV_BLOCK` patch elements that keep it so."""

    @pytest.mark.parametrize("with_callback", [False, True])
    def test_gradient_is_an_array_matching_the_loop_oracle(self, monkeypatch,
                                                           with_callback):
        monkeypatch.setattr(ad, "CONV_BLOCK", 2 * 18 * 16)  # two samples a block
        blocks = _windowed(monkeypatch)
        r = np.random.default_rng(17)
        x0, w0 = r.standard_normal((5, 2, 4, 4)), r.standard_normal((3, 2, 3, 3))
        x, w = t(x0), t(w0)
        seen = []
        with Graph(on_grad=(lambda leaf: seen.append(type(leaf._grad)))
                   if with_callback else None):
            out = ad.conv2d(x, w, None, stride=1, padding=1)
            g = r.standard_normal(out.shape)
            ad.tensor_sum(ad.mul(out, t(g, req=False))).backward()
        assert type(w._grad) is np.ndarray
        assert seen == ([np.ndarray, np.ndarray] if with_callback else [])
        # the forward, the input gradient's columns and the weight gradient's
        # patches, each in blocks of 2, 2 and 1 of the 5 samples
        assert blocks == [2, 2, 1] * 3
        want_x, want_w = oracles.conv2d_backward_loops(x0, w0, g, 1, 1)
        npt.assert_allclose(w.grad, want_w, rtol=0, atol=1e-12)
        npt.assert_allclose(x.grad, want_x, rtol=0, atol=1e-12)

    def test_shared_weight_gets_the_summed_gradient_once(self):
        r = np.random.default_rng(5)
        _assert_shared_weight_summed_once(r.standard_normal((2, 3, 4, 4)),
                                          r.standard_normal((3, 3, 3, 3)))

    @pytest.mark.parametrize("x_shape, cout, block", [
        ((8, 16, 32, 32), 32, 1 << 14),        # Cout < L: one sample a block
        ((32, 64, 3, 3), 64, 4 * 9 * 576),     # L < Cout < N*L: four samples a block
    ])
    def test_backward_never_holds_the_whole_patch_matrix(self, monkeypatch, x_shape,
                                                         cout, block):
        monkeypatch.setattr(ad, "CONV_BLOCK", block)
        blocks = _windowed(monkeypatch)
        r = np.random.default_rng(19)
        n, cin, h, w_ = x_shape
        x = Tensor(r.standard_normal(x_shape), requires_grad=True, dtype=np.float32)
        w = Tensor(r.standard_normal((cout, cin, 3, 3)), requires_grad=True,
                   dtype=np.float32)
        with Graph():
            out = ad.conv2d(x, w, None, stride=1, padding=1)
        gout = r.standard_normal(out.shape).astype(np.float32)
        whole = n * h * w_ * cin * 9 * 4  # the (N*L, CKK) float32 patch matrix
        tracemalloc.start()
        try:
            out.node.backward_fn(gout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole, (peak, whole)
        assert type(w._grad) is np.ndarray
        assert len(blocks) > 3 and max(blocks) < n, blocks  # several blocks each way

    def test_a_gradient_whose_sum_would_hold_more_is_deferred(self):
        # Cout = 16 < N*L = 36, but two gradient-sized arrays and one
        # sample's patches (2*16 + 9 rows) are more than all 36 patch rows
        x, w = t(np.ones((4, 8, 3, 3))), t(np.ones((16, 8, 3, 3)))
        with Graph():
            out = ad.conv2d(x, w, None, stride=1, padding=1)
        out.node.backward_fn(np.ones(out.shape))
        assert isinstance(w._grad, ad.DeferredGrad)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 5), st.integers(1, 4), st.integers(0, 4))
def test_live_taps_span_the_taps_that_read_the_input(in_size, k, stride, padding):
    assume(in_size + 2 * padding >= k)
    live = oracles.live_taps_loops(in_size, k, stride, padding)
    window = ad.live_taps(in_size, k, stride, padding)
    if any(live):
        first, last = live.index(True), k - 1 - live[::-1].index(True)
        assert window == slice(first, last + 1)
    else:  # every tap reads only padding: all are kept
        assert window == slice(0, k)


#: a pad-1 conv whose outer taps read only padding, by weight-gradient
#: path: (x shape, w shape, stride).  Deferred: 2*Cout + L >= N*L, a 1x1
#: input; eager: 2*Cout + L < N*L, a 2x2 input at stride 2
DEAD_TAPS = {
    "deferred": ((2, 8, 1, 1), (16, 8, 3, 3), 1),
    "eager": ((32, 8, 2, 2), (8, 8, 3, 3), 2),
}


class TestDeadTapWeightGrad:
    """A conv computes every tap's weight gradient, those of taps that read
    only padding included: +0.0, as the loop oracle has it."""

    @pytest.mark.parametrize("path", DEAD_TAPS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_loop_oracle_with_positive_zero_on_dead_taps(self, path, dtype):
        # float64 within 1e-12 of the oracle; float32 within the GEMM
        # rounding bound (terms + 1) * 2**-24 * sum |product| per element,
        # the oracle run in float64 on the float32 values
        x_shape, w_shape, stride = DEAD_TAPS[path]
        r = np.random.default_rng(0)
        x = Tensor(r.standard_normal(x_shape), requires_grad=True, dtype=dtype)
        w = Tensor(r.standard_normal(w_shape), requires_grad=True, dtype=dtype)
        with Graph():
            out = ad.conv2d(x, w, None, stride=stride, padding=1)
        gout = r.standard_normal(out.shape).astype(dtype)
        out.node.backward_fn(gout.copy())
        assert type(w._grad) is (ad.DeferredGrad if path == "deferred" else np.ndarray)
        assert w.grad.dtype == dtype and x.grad.dtype == dtype
        x64, w64, g64 = (a.astype(np.float64) for a in (x.data, w.data, gout))
        want_x, want_w = oracles.conv2d_backward_loops(x64, w64, g64, stride, 1)
        if dtype == np.float64:
            npt.assert_allclose(w.grad, want_w, rtol=0, atol=1e-12)
            npt.assert_allclose(x.grad, want_x, rtol=0, atol=1e-12)
        else:
            abs_x, abs_w = oracles.conv2d_backward_loops(
                np.abs(x64), np.abs(w64), np.abs(g64), stride, 1)
            w_terms = x_shape[0] * out.shape[2] * out.shape[3]
            x_terms = w_shape[0] * w_shape[2] * w_shape[3]
            assert np.all(np.abs(w.grad - want_w) <= (w_terms + 1) * 2.0 ** -24 * abs_w)
            assert np.all(np.abs(x.grad - want_x) <= (x_terms + 1) * 2.0 ** -24 * abs_x)
        dead = np.ones(w.shape[2:], dtype=bool)
        live = ad.live_taps(x_shape[2], 3, stride, 1)
        dead[live, live] = False
        assert not w.grad[:, :, dead].view(f"u{w.grad.itemsize}").any()

    @pytest.mark.parametrize("path", DEAD_TAPS)
    def test_gradients_match_central_differences(self, path):
        x_shape, w_shape, stride = DEAD_TAPS[path]
        r = np.random.default_rng(4)
        x = t(r.standard_normal((4,) + x_shape[1:]) if path == "deferred"
              else r.standard_normal(x_shape))
        w, b = t(r.standard_normal(w_shape)), t(r.standard_normal(w_shape[0]))
        oracles.assert_gradients_match(
            lambda x, w, b: ad.conv2d(x, w, b, stride=stride, padding=1),
            [("x", x), ("weight", w), ("bias", b)])


class TestBatchNormTrainBackward:
    """The train-mode batch-norm backward takes two per-channel sums, of g
    and of g * x-hat, reading the x-hat its forward kept (or rebuilt), the
    second in sample blocks (one block for a single channel, which numpy
    sums as one run): it gives the bits of the whole-array two-sum
    formula, matches the chain-rule loop oracle and allocates no
    input-sized array but a rebuilt x-hat."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 3, 5, 6), (2, 4, 16, 24), (16, 512, 4, 4),
                                       (4, 1, 5, 6), (3, 1, 40, 40)])
    @pytest.mark.parametrize("needs", [("x", "gamma", "beta"), ("x",), ("gamma",)])
    @pytest.mark.parametrize("block", [1, ad.CONV_BLOCK], ids=["one_sample", "default"])
    def test_bitwise_equal_to_the_whole_array_formula(self, monkeypatch, dtype, shape,
                                                      needs, block):
        monkeypatch.setattr(ad, "CONV_BLOCK", block)
        r = np.random.default_rng(23)
        c = shape[1]
        arrays = {"x": 3.0 * r.standard_normal(shape) + 1.0,
                  "gamma": r.uniform(0.5, 1.5, c), "beta": r.standard_normal(c)}
        leaves = {name: Tensor(a, requires_grad=name in needs, dtype=dtype)
                  for name, a in arrays.items()}
        with Graph():
            out = ad.batch_norm2d_train(leaves["x"], leaves["gamma"], leaves["beta"],
                                        1e-5)[0]
        gout = r.standard_normal(shape).astype(dtype)
        want = oracles.batch_norm_train_backward_formula(
            leaves["x"].data, leaves["gamma"].data, gout, 1e-5)
        out.node.backward_fn(gout.copy())
        for name, expected in zip(("x", "gamma", "beta"), want):
            leaf = leaves[name]
            if name in needs:
                assert leaf.grad.dtype == dtype
                assert leaf.grad.tobytes() == expected.tobytes(), name
            else:
                assert leaf.grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_handed_over_input_keeps_the_bits(self, dtype):
        """With ``out=x.data`` x-hat is kept in x's own array: the output
        and the x, gamma and beta gradients have the bits of a call without
        `out`, which leaves x as it was."""
        r = np.random.default_rng(37)
        shape = (4, 3, 5, 6)
        arrays = [a.astype(dtype) for a in (3.0 * r.standard_normal(shape) + 1.0,
                                            r.uniform(0.5, 1.5, 3), r.standard_normal(3))]
        gout = r.standard_normal(shape).astype(dtype)
        runs = []
        for handed in (False, True):
            x, gamma, beta = (Tensor(a.copy(), requires_grad=True, dtype=dtype)
                              for a in arrays)
            with Graph():
                out = ad.batch_norm2d_train(x, gamma, beta, 1e-5,
                                            out=x.data if handed else None)[0]
            assert (x.data.tobytes() == arrays[0].tobytes()) != handed
            out.node.backward_fn(gout.copy())
            runs.append([a.tobytes() for a in (out.data, x.grad, gamma.grad, beta.grad)])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (3, 2, 1, 1)])
    def test_matches_the_loop_oracle(self, shape):
        r = np.random.default_rng(29)
        x = t(3.0 * r.standard_normal(shape) + 1.0)
        gamma, beta = t(r.uniform(0.5, 1.5, shape[1])), t(r.standard_normal(shape[1]))
        gout = r.standard_normal(shape)
        with Graph():
            out = ad.batch_norm2d_train(x, gamma, beta, 1e-5)[0]
        want = oracles.batch_norm_train_backward_loops(x.data, gamma.data, gout, 1e-5)
        out.node.backward_fn(gout.copy())
        for got, expected in zip((x.grad, gamma.grad, beta.grad), want):
            npt.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rebuilt", [False, True], ids=["kept", "rebuilt"])
    def test_allocates_no_input_sized_scratch(self, dtype, rebuilt):
        """Beside a rebuilt x-hat, backward allocates one block of g * x-hat
        products, of at most `CONV_BLOCK` elements, and per-sample sums of
        each channel: bound one block plus 128 KiB, and one input more when
        x-hat is rebuilt, on an (8, 32, 64, 64) batch of four blocks.  The gradients
        keep the whole-array formula's bits."""
        r = np.random.default_rng(30)
        shape = (8, 32, 64, 64)
        x = Tensor(r.standard_normal(shape), requires_grad=True, dtype=dtype)
        gamma = Tensor(r.uniform(0.5, 1.5, 32), requires_grad=True, dtype=dtype)
        beta = Tensor(r.standard_normal(32), requires_grad=True, dtype=dtype)
        with Graph():
            out = ad.batch_norm2d_train(x, gamma, beta, 1e-5,
                                        rebuild=x.data.copy if rebuilt else None)[0]
        gout = r.standard_normal(shape).astype(dtype)
        want = oracles.batch_norm_train_backward_formula(x.data, gamma.data, gout, 1e-5)
        block = ad.CONV_BLOCK * x.data.itemsize
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out.node.backward_fn(gout)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert x.grad is gout
        bound = block + 128 * 1024 + (x.data.nbytes if rebuilt else 0)
        assert peak <= bound, f"peak {peak} bytes, bound {bound}"
        for got, expected in zip((x.grad, gamma.grad, beta.grad), want):
            assert got.tobytes() == expected.tobytes()


class TestBatchNormTrainStatistics:
    """The train-mode forward takes its variance about the mean it has
    already taken, not a second one: its mean, variance and output keep
    the bits of the two-pass formula and of numpy's own ``var``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 5, 7, 7), (32, 8, 48, 48), (16, 512, 4, 4),
                                       (16, 64, 64, 64)])
    def test_bitwise_equal_to_the_two_pass_formula(self, dtype, shape):
        r = np.random.default_rng(41)
        n, c, h, w = shape
        m = n * h * w
        axes, per_channel = (0, 2, 3), (None, slice(None), None, None)
        x = (3.0 * r.standard_normal(shape) + 1.0).astype(dtype)
        gamma = r.uniform(0.5, 1.5, c).astype(dtype)
        beta = r.standard_normal(c).astype(dtype)
        got, mean, var = ad.batch_norm2d_train(*(Tensor(a, dtype=dtype) for a in (x, gamma, beta)),
                                               1e-5)
        want_mean = x.sum(axis=axes) / m
        want_var = np.square(x - want_mean[per_channel]).sum(axis=axes) / m
        inv_std = 1.0 / np.sqrt(want_var + 1e-5)
        want = ((x - want_mean[per_channel]) * inv_std[per_channel] * gamma[per_channel]
                + beta[per_channel])
        assert mean.dtype == var.dtype == got.data.dtype == dtype
        assert mean.tobytes() == want_mean.tobytes()
        assert var.tobytes() == want_var.tobytes() == x.var(axis=axes).tobytes()
        assert got.data.tobytes() == want.tobytes()


def _leaf_fed_net():
    """Leaves fed straight into each op that hands gradients to its inputs;
    returns the scalar loss and every leaf."""
    r = np.random.default_rng(11)

    def leaf(*shape):
        return t(r.standard_normal(shape))

    a, b, m1, m2 = (leaf(2, 3) for _ in range(4))
    s = leaf(2, 3, 1, 1)
    scaled, pooled, adaptive, conv_in = (leaf(2, 3, 4, 4) for _ in range(4))
    flat, squashed, logits = leaf(2, 3), leaf(2, 3), leaf(2, 7)
    norm_train, norm_eval = leaf(2, 3, 4, 4), leaf(2, 3, 4, 4)
    gamma_t, beta_t, gamma_e, beta_e = (leaf(3) for _ in range(4))
    weight, bias = leaf(4, 3, 3, 3), leaf(4)
    parts = [
        ad.add(a, b),
        ad.mul(m1, m2),
        ad.mul(scaled, s),
        ad.reshape(flat, (6,)),
        ad.sigmoid(squashed),
        ad.adaptive_avg_pool(pooled, 1, 1),
        ad.adaptive_avg_pool(adaptive, 2, 2),
        ad.batch_norm2d_train(norm_train, gamma_t, beta_t, 1e-5)[0],
        ad.batch_norm2d_eval(norm_eval, gamma_e, beta_e, np.zeros(3), np.ones(3), 1e-5),
        ad.conv2d(conv_in, weight, bias, stride=2, padding=1),
    ]
    loss = cross_entropy(logits, np.array([1, 5])).loss
    for part in parts:
        loss = ad.add(loss, ad.tensor_sum(ad.mul(part, t(r.standard_normal(part.shape),
                                                           req=False))))
    leaves = [a, b, m1, m2, s, scaled, flat, squashed, pooled, adaptive,
              norm_train, gamma_t, beta_t, norm_eval, gamma_e, beta_e,
              conv_in, weight, bias, logits]
    return loss, leaves


class TestAdoptedGradients:
    def test_no_gradient_shares_memory_with_another(self):
        small = _small_leaves()
        x = t(rng.standard_normal(3))
        with Graph():
            loss = ad.add(_small_net(*small)[0], ad.tensor_sum(ad.add(x, x)))
            loss.backward()
        npt.assert_array_equal(x.grad, np.full(3, 2.0))
        with Graph():
            loss, fed = _leaf_fed_net()
            loss.backward()
        for tensors in ([*small, x], fed):
            for i, a in enumerate(tensors):
                assert a.grad is not None and a.grad.flags.writeable
                assert not np.shares_memory(a.grad, a.data)
                for b in tensors[i + 1:]:
                    assert not np.shares_memory(a.grad, b.grad)

    def test_adopting_matches_a_zero_buffer_bitwise(self):
        grad = np.array([-0.0, 0.0, -1.5, np.inf, -np.inf, 2.0 ** -1074])
        target = t(np.ones(6))
        expected = np.zeros_like(target.data) + grad
        ad._accumulate(target, grad)
        assert target.grad is grad  # adopted, not copied
        assert target.grad.tobytes() == expected.tobytes()
        assert not np.signbit(target.grad[0])

    def test_other_dtype_is_copied_not_adopted(self):
        target = Tensor(np.zeros(3), requires_grad=True, dtype=np.float32)
        grad = np.array([1.0 / 3.0, -0.0, 1e-40])  # float64
        expected = np.zeros_like(target.data)
        expected += grad
        ad._accumulate(target, grad)
        assert target.grad.dtype == np.float32
        assert not np.shares_memory(target.grad, grad)
        assert target.grad.tobytes() == expected.tobytes()


class TestShapeErrors:
    def test_conv_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channels"):
            ad.conv2d(Tensor(np.zeros((1, 3, 5, 5))), Tensor(np.zeros((2, 4, 3, 3))), None)

    def test_conv_kernel_exceeds_input(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), None)

    def test_linear_feature_mismatch(self):
        with pytest.raises(ShapeError, match="features"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_channel_scale_mismatch(self):
        with pytest.raises(ShapeError):
            ad.mul(Tensor(np.zeros((2, 3, 4, 4))), Tensor(np.zeros((2, 4))))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4, 4), (2, 4, 1, 1)),     # an extent neither a's nor 1
        ((2, 3, 4, 4), (3, 1, 1)),        # rank below a's
        ((2, 3, 4, 4), (2, 3, 4, 4, 1)),  # rank above a's
        ((2, 3, 1, 1), (2, 3, 4, 4)),     # stretching a, not b
    ])
    def test_mul_factor_that_does_not_broadcast(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="does not broadcast"):
            ad.mul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))

    def test_pool_window_too_large(self):
        with pytest.raises(ShapeError):
            ad.max_pool2d(Tensor(np.zeros((1, 1, 3, 3))), k=4, stride=1)


class TestGradCheckHarness:
    def test_detects_injected_fault(self):
        # both relu outputs' gradients doubled: analytic 2n against numeric n
        x = t(rng.standard_normal((2, 3)))
        errors = grad_check(lambda x: ad.tensor_sum(ad.mul(ad.relu(x), ad.relu(x))),
                            [("x", x)], fault="relu")
        assert errors == {"x": pytest.approx(1 / 3)}

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gradient_fails_its_input(self, value):
        # one poisoned element among correct ones; `y` stays correct
        x, y = t(rng.standard_normal((2, 3))), t(rng.standard_normal(4))
        named = [("x", x), ("y", y)]

        def f(x, y):
            return ad.add(ad.tensor_sum(oracles.poisoned(x, value)), ad.tensor_sum(y))

        with pytest.raises(AssertionError, match=r"\{'x': nan\}"):
            oracles.assert_gradients_match(f, named)

    def test_rejects_float32_inputs(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda x: ad.tensor_sum(x), [("x", x)])

    def test_rejects_non_finite_inputs(self):
        bad = np.ones((2, 2))
        bad[1, 0] = np.nan
        x = Tensor(bad, requires_grad=True)
        with pytest.raises(ValueError, match="flat index 2"):
            grad_check(lambda x: ad.tensor_sum(x), [("x", x)])


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert Tensor(np.zeros(3)).dtype == np.float64

    def test_context_manager_switches_and_restores(self):
        with ad.using_dtype(np.float32):
            assert Tensor([1.0]).dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_rejects_integer_dtype(self):
        with ad.using_dtype(np.float32):
            with pytest.raises(ValueError, match="int32"):
                with ad.using_dtype(np.int32):
                    pass
            assert ad.default_dtype() is np.float32
        assert ad.default_dtype() is np.float64
