"""Forward-value and gradient tests for the tensor engine.

Forward values are checked against the loop oracles in oracles.py; gradients
are checked against central finite differences via the built-in checker.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resemotenet import autodiff as ad
from resemotenet.autodiff import Graph, Tensor
from resemotenet.errors import GraphError, ShapeError
from resemotenet.optim import cross_entropy

import oracles

rng = np.random.default_rng(42)


def t(arr, req=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=req)


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

    def test_global_avg_pool_value(self):
        x = rng.standard_normal((2, 3, 5, 5))
        got = ad.global_avg_pool(t(x))
        npt.assert_allclose(got.data, x.mean(axis=(2, 3)), atol=1e-12)

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


class TestGradients:
    """Analytic vs central-difference gradients for every primitive."""

    def check(self, f, inputs):
        report = ad.grad_check(f, inputs)
        assert report.passed, f"\n{report!r}"

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

    def test_global_avg_pool(self):
        x = t(rng.standard_normal((2, 3, 4, 4)))
        self.check(lambda x: ad.tensor_sum(ad.mul(ad.global_avg_pool(x),
                                                  ad.global_avg_pool(x))), [("x", x)])

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

    def test_mul_broadcast_channel(self):
        x = t(rng.standard_normal((2, 3, 4, 4)))
        s = t(rng.standard_normal((2, 3)))
        self.check(lambda x, s: ad.tensor_sum(
            ad.mul(ad.mul_broadcast_channel(x, s), ad.mul_broadcast_channel(x, s))),
            [("x", x), ("s", s)])

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
        x.zero_grad()
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


def _small_net(x, w, b, v):
    """conv -> relu -> pool -> linear -> sum: every saved-buffer kind."""
    h = ad.relu(ad.conv2d(x, w, b, stride=1, padding=1))
    h = ad.max_pool2d(h, 2, 2)
    return ad.tensor_sum(ad.linear(ad.reshape(h, (h.shape[0], -1)), v)), h


def _small_leaves():
    r = np.random.default_rng(7)
    return (t(r.standard_normal((2, 2, 4, 4))), t(r.standard_normal((3, 2, 3, 3))),
            t(r.standard_normal(3)), t(r.standard_normal((5, 12))))


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


class TestDeferredConvWeightGrad:
    """In a graph with ``on_grad`` a conv weight's gradient is handed over
    as a `DeferredGrad`; reading ``.grad`` gives the plain backward's bits."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # two rows of a (C, 2, 3, 3) weight per block, one of a (C, 3, 3, 3)
        monkeypatch.setattr(ad, "GRAD_BLOCK", 40)

    def test_callback_sees_a_deferred_gradient_with_the_plain_bits(self):
        plain = _small_leaves()
        with Graph():
            _small_net(*plain)[0].backward()
        leaves = _small_leaves()
        seen = {}

        def on_grad(leaf):
            seen[id(leaf)] = (type(leaf._grad), leaf.grad.copy())

        with Graph(on_grad=on_grad):
            _small_net(*leaves)[0].backward()
        kind, grad = seen[id(leaves[1])]
        assert kind is ad.DeferredGrad
        assert grad.tobytes() == plain[1].grad.tobytes()

    def test_blocks_cover_the_gradient_in_order(self):
        r = np.random.default_rng(3)
        go_t, patches = r.standard_normal((5, 8)), r.standard_normal((8, 18))
        deferred = ad.DeferredGrad(go_t, patches, (5, 2, 3, 3), np.float64)
        pieces = [(start, block.copy()) for start, block in deferred.blocks()]
        assert [start for start, _ in pieces] == [0, 36, 72]
        flat = np.concatenate([block for _, block in pieces])
        assert flat.tobytes() == deferred.materialize().reshape(-1).tobytes()
        npt.assert_allclose(flat.reshape(5, 18), go_t @ patches, rtol=1e-12)

    def test_shared_weight_gets_the_summed_gradient_once(self):
        r = np.random.default_rng(5)

        def net(x, w):
            a = ad.conv2d(x, w, None, stride=1, padding=1)
            b = ad.conv2d(ad.relu(a), w, None, stride=1, padding=1)
            return ad.tensor_sum(ad.mul(b, b))

        x0, w0 = r.standard_normal((2, 3, 4, 4)), r.standard_normal((3, 3, 3, 3))
        x, w = t(x0), t(w0)
        with Graph():
            net(x, w).backward()
        calls = []
        x2, w2 = t(x0), t(w0)
        with Graph(on_grad=lambda leaf: calls.append((leaf, leaf.grad.copy()))):
            net(x2, w2).backward()
        got = dict((id(leaf), grad) for leaf, grad in calls)
        assert len(calls) == 2
        assert got[id(w2)].tobytes() == w.grad.tobytes()
        assert got[id(x2)].tobytes() == x.grad.tobytes()


def _leaf_fed_net():
    """Leaves fed straight into each op that hands gradients to its inputs;
    returns the scalar loss and every leaf."""
    r = np.random.default_rng(11)

    def leaf(*shape):
        return t(r.standard_normal(shape))

    a, b, m1, m2, s = (leaf(2, 3) for _ in range(5))
    scaled, pooled, adaptive, conv_in = (leaf(2, 3, 4, 4) for _ in range(4))
    flat, squashed, logits = leaf(2, 3), leaf(2, 3), leaf(2, 7)
    norm_train, norm_eval = leaf(2, 3, 4, 4), leaf(2, 3, 4, 4)
    gamma_t, beta_t, gamma_e, beta_e = (leaf(3) for _ in range(4))
    weight, bias = leaf(4, 3, 3, 3), leaf(4)
    parts = [
        ad.add(a, b),
        ad.mul(m1, m2),
        ad.mul_broadcast_channel(scaled, s),
        ad.reshape(flat, (6,)),
        ad.sigmoid(squashed),
        ad.global_avg_pool(pooled),
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
            ad.mul_broadcast_channel(Tensor(np.zeros((2, 3, 4, 4))),
                                     Tensor(np.zeros((2, 4))))

    def test_pool_window_too_large(self):
        with pytest.raises(ShapeError):
            ad.max_pool2d(Tensor(np.zeros((1, 1, 3, 3))), k=4, stride=1)


class TestGradCheckHarness:
    def test_detects_injected_fault(self):
        x = t(rng.standard_normal((2, 3)))
        with ad.inject_gradient_fault("relu"):
            report = ad.grad_check(
                lambda x: ad.tensor_sum(ad.mul(ad.relu(x), ad.relu(x))), [("x", x)])
        assert not report.passed
        assert report.failures[0].name == "x"

    def test_rejects_float32_inputs(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            ad.grad_check(lambda x: ad.tensor_sum(x), [("x", x)])

    def test_rejects_non_finite_inputs(self):
        bad = np.ones((2, 2))
        bad[1, 0] = np.nan
        x = Tensor(bad, requires_grad=True)
        with pytest.raises(ValueError, match="flat index 2"):
            ad.grad_check(lambda x: ad.tensor_sum(x), [("x", x)])


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert Tensor(np.zeros(3)).dtype == np.float64

    def test_context_manager_switches_and_restores(self):
        with ad.using_dtype(np.float32):
            assert Tensor([1.0]).dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_rejects_integer_dtype(self):
        with pytest.raises(ValueError):
            ad.set_default_dtype(np.int32)


def test_dump_format():
    x = Tensor(np.array([[1.0, 2.5], [3.0, 4.125]]))
    text = x.dump()
    lines = text.splitlines()
    assert lines[0] == "shape: 2 2"
    assert lines[1].split() == ["1", "2.5"]
    assert lines[2].split() == ["3", "4.125"]


def test_dump_nine_significant_digits():
    x = Tensor(np.array([np.pi]))
    assert "3.14159265" in x.dump()
