"""Loss values, optimizer updates, and plateau schedule behavior."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resemotenet import autodiff as ad
from resemotenet.autodiff import Graph, Tensor
from resemotenet.data import make_batches
from resemotenet.errors import ConfigError, DataError, OptimizerError
from resemotenet.layers import TRAIN
from resemotenet.model import ModelConfig, build_model
from resemotenet.optim import (
    PlateauScheduler,
    SgdState,
    cross_entropy,
    scheduler_step,
    sgd_step,
    softmax,
    zero_velocity,
)
from resemotenet.synthetic import make_synthetic_manifest
from resemotenet.training import train_one_epoch

import oracles

rng = np.random.default_rng(99)

# frozen from an independent 64-bit softmax+log evaluation
CE_123_LABEL2 = 0.4076059644443806
LN_7 = 1.9459101490553132


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        out = cross_entropy(Tensor(np.zeros((4, 7))), [0, 3, 5, 6])
        npt.assert_allclose(out.loss.item(), LN_7, atol=1e-12)

    def test_saturated_correct_prediction_is_free(self):
        logits = np.zeros((1, 7))
        logits[0, 2] = 1000.0
        out = cross_entropy(Tensor(logits), [2])
        assert 0.0 <= out.loss.item() <= 1e-9

    def test_matches_frozen_direct_formula(self):
        out = cross_entropy(Tensor(np.array([[1.0, 2.0, 3.0]])), [2])
        npt.assert_allclose(out.loss.item(), CE_123_LABEL2, atol=1e-15)

    def test_matches_loop_oracle_on_random_batches(self):
        logits = rng.standard_normal((8, 5)) * 3.0
        labels = rng.integers(0, 5, size=8)
        out = cross_entropy(Tensor(logits), labels)
        want = oracles.softmax_cross_entropy_loops(logits, labels)
        npt.assert_allclose(out.loss.item(), want, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0, 500.0], [-2000.0, 2000.0, 0.0]])
        out = cross_entropy(Tensor(logits), [0, 1])
        assert np.isfinite(out.loss.item())
        assert np.all(np.isfinite(out.probabilities))

    def test_probability_rows_sum_to_one_and_positive(self):
        out = cross_entropy(Tensor(rng.standard_normal((6, 9)) * 10), rng.integers(0, 9, 6))
        npt.assert_allclose(out.probabilities.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out.probabilities > 0.0)

    def test_backward_is_softmax_minus_onehot_over_n(self):
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        labels = np.array([2, 0, 1, 1])
        with Graph():
            out = cross_entropy(logits, labels)
            out.loss.backward()
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), labels] = 1.0
        want = (softmax(logits.data) - onehot) / 4
        npt.assert_allclose(logits.grad, want, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        labels = [1, 3, 0]
        oracles.assert_gradients_match(lambda t: cross_entropy(t, labels).loss,
                                       [("logits", logits)])

    def test_out_of_range_label_names_index(self):
        with pytest.raises(DataError, match="label 7 at index 1"):
            cross_entropy(Tensor(np.zeros((3, 7))), [0, 7, 2])
        with pytest.raises(DataError, match="label -1 at index 0"):
            cross_entropy(Tensor(np.zeros((2, 4))), [-1, 0])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(2, 9), st.integers(0, 10 ** 6))
def test_loss_nonnegative_and_rows_normalized(n, k, seed):
    r = np.random.default_rng(seed)
    logits = r.standard_normal((n, k)) * 5
    labels = r.integers(0, k, n)
    out = cross_entropy(Tensor(logits), labels)
    assert out.loss.item() >= 0.0
    npt.assert_allclose(out.probabilities.sum(axis=1), 1.0, atol=1e-9)


class TestSgd:
    def _param(self, value):
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        return t

    def test_vanilla_step(self):
        w = self._param([1.0])
        w.grad = np.array([0.5])
        sgd_step(SgdState(lr=0.1, momentum=0.0), [("w", w)])
        npt.assert_allclose(w.data, [0.95], atol=1e-15)

    def test_momentum_recurrence(self):
        w = self._param([0.0])
        state = SgdState(lr=1.0, momentum=0.9)
        g = np.array([2.0])
        w.grad = g.copy()
        sgd_step(state, [("w", w)])
        w.grad = g.copy()
        sgd_step(state, [("w", w)])
        npt.assert_allclose(state.velocity["w"], 1.9 * g, atol=1e-15)

    def test_momentum_zero_changes_by_exactly_lr_grad(self):
        w = self._param(rng.standard_normal(5))
        before = w.data.copy()
        grad = rng.standard_normal(5)
        w.grad = grad.copy()
        sgd_step(SgdState(lr=0.03, momentum=0.0), [("w", w)])
        npt.assert_allclose(w.data, before - 0.03 * grad, atol=1e-15)

    def test_quadratic_bowl_convergence(self):
        # f(w) = ||w||^2, grad = 2w; start within [-0.1, 0.1]
        r = np.random.default_rng(0)
        w = self._param(r.uniform(-0.1, 0.1, size=10))
        state = SgdState(lr=0.1, momentum=0.9)
        for _ in range(100):
            w.grad = 2.0 * w.data
            sgd_step(state, [("w", w)])
        assert np.linalg.norm(w.data) < 1e-3

    def test_grads_cleared_after_step(self):
        w = self._param([1.0])
        w.grad = np.array([1.0])
        sgd_step(SgdState(lr=0.1), [("w", w)])
        assert w.grad is None

    def test_missing_grad_names_parameter(self):
        w = self._param([1.0])
        w.grad = np.array([1.0])
        u = self._param([2.0])  # no grad
        with pytest.raises(OptimizerError, match="'u'"):
            sgd_step(SgdState(), [("w", w), ("u", u)])
        # the error must fire before any parameter moves
        npt.assert_array_equal(w.data, [1.0])

    def test_weight_decay_pulls_toward_zero(self):
        w = self._param([10.0])
        w.grad = np.array([0.0])
        sgd_step(SgdState(lr=0.1, momentum=0.0, weight_decay=0.5), [("w", w)])
        npt.assert_allclose(w.data, [10.0 - 0.1 * 0.5 * 10.0], atol=1e-15)

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ConfigError):
            SgdState(lr=0.0)
        with pytest.raises(ConfigError):
            SgdState(momentum=1.0)
        with pytest.raises(ConfigError):
            SgdState(weight_decay=-0.1)
        # NaN fails every comparison, so range checks alone let it through
        for bad in (dict(lr=np.nan), dict(lr=np.inf), dict(lr=10**400),
                    dict(weight_decay=np.nan), dict(weight_decay=np.inf)):
            with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be finite"):
                SgdState(**bad)


def _out_of_place_sgd_step(state, params):
    """The update as first written: fresh arrays for the velocity each step."""
    for name, p in params:
        grad = p.grad
        if state.weight_decay:
            grad = grad + state.weight_decay * p.data
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        v = state.momentum * v + grad
        state.velocity[name] = v
        p.data -= state.lr * v
        p.grad = None


def _bits(arr):
    # byte comparison: unlike ==, it tells -0.0 from +0.0
    return arr.dtype, arr.shape, arr.tobytes()


def _signed_zero_grads(r, shape, dtype):
    g = r.standard_normal(shape).astype(dtype)
    g.reshape(-1)[::3] = -0.0
    g.reshape(-1)[1::5] = 0.0
    return g


class TestSgdInPlace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bitwise_equal_to_out_of_place_formula(self, dtype, weight_decay):
        r = np.random.default_rng(17)
        start = {name: _signed_zero_grads(r, shape, dtype)
                 for name, shape in (("w", (4, 3)), ("b", (3,)))}
        grads = [{name: _signed_zero_grads(r, a.shape, dtype) for name, a in start.items()}
                 for _ in range(3)]
        runs = []
        for step_fn in (sgd_step, _out_of_place_sgd_step):
            params = [(name, Tensor(a.copy(), requires_grad=True, dtype=dtype))
                      for name, a in start.items()]
            state = SgdState(lr=0.05, momentum=0.9, weight_decay=weight_decay)
            for g in grads:  # the first step starts with no velocity
                for name, p in params:
                    p.grad = g[name].copy()
                step_fn(state, params)
            runs.append(([_bits(p.data) for _, p in params],
                         [_bits(state.velocity[name]) for name, _ in params]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_new_velocity_is_views_of_one_zeroed_array(self, dtype):
        params = [(name, Tensor(np.full(shape, -1.0), requires_grad=True, dtype=dtype))
                  for name, shape in (("w", (4, 3)), ("b", (3,)), ("k", (2, 2, 3, 3)))]
        kept = np.ones(5, dtype=dtype)
        state = SgdState(velocity={"kept": kept})
        zero_velocity(state, params + [("kept", Tensor(np.ones(5), dtype=dtype))])
        assert state.velocity["kept"] is kept
        new = [state.velocity[name] for name, _ in params]
        base = new[0].base
        assert base.size == sum(p.size for _, p in params)
        for (name, p), v in zip(params, new):
            assert v.base is base and v.flags.c_contiguous
            assert _bits(v) == _bits(np.zeros(p.shape, dtype=dtype)), name
        for i, v in enumerate(new):  # no two views overlap
            v[...] = i + 1
        assert [np.unique(v).tolist() for v in new] == [[1.0], [2.0], [3.0]]
        zero_velocity(state, params)  # each has one now: nothing is replaced
        assert all(state.velocity[name] is v for (name, _), v in zip(params, new))

    def test_sgd_step_on_a_fresh_state_makes_one_velocity_array(self):
        params = [(name, Tensor(rng.standard_normal(shape), requires_grad=True))
                  for name, shape in (("w", (4, 3)), ("b", (3,)))]
        for _, p in params:
            p.grad = rng.standard_normal(p.shape)
        state = SgdState(lr=0.1, momentum=0.9)
        sgd_step(state, params)
        assert state.velocity["w"].base is state.velocity["b"].base is not None

    def test_velocity_buffers_keep_their_identity(self):
        w = Tensor(rng.standard_normal(6), requires_grad=True)
        state = SgdState(lr=0.1, momentum=0.9)
        w.grad = rng.standard_normal(6)
        sgd_step(state, [("w", w)])
        buffer, data = state.velocity["w"], w.data
        for _ in range(2):
            w.grad = rng.standard_normal(6)
            sgd_step(state, [("w", w)])
        assert state.velocity["w"] is buffer and w.data is data

    def test_non_contiguous_parameter_and_velocity_still_update(self):
        r = np.random.default_rng(4)
        start, grad, velocity = (r.standard_normal((3, 5)) for _ in range(3))
        runs = []
        for step_fn in (sgd_step, _out_of_place_sgd_step):
            w = Tensor(start.copy().T, requires_grad=True)  # a transposed view
            state = SgdState(lr=0.1, momentum=0.9, weight_decay=0.01)
            state.velocity["w"] = velocity.copy().T
            w.grad = grad.T.copy()
            step_fn(state, [("w", w)])
            runs.append((w.data.tolist(), state.velocity["w"].tolist()))
        assert runs[0] == runs[1]
        assert runs[0][0] != start.T.tolist()

    def test_optimizer_restored_from_checkpoint_can_step(self, tmp_path):
        from resemotenet import checkpoint
        from resemotenet.model import ModelConfig, build_model
        config = ModelConfig(input_channels=1, input_size=8, stem_channels=(2, 4, 4),
                             se_reduction=2, residual_channels=((4, 4, 1),),
                             num_classes=3, seed=5)
        model = build_model(config)
        state = SgdState(lr=0.01, momentum=0.9)
        state.velocity = {name: rng.standard_normal(p.shape)
                          for name, p in model.named_parameters()}
        checkpoint.save(model, state, PlateauScheduler(), 1, tmp_path / "run.ckpt")
        loaded = checkpoint.load(tmp_path / "run.ckpt")
        params = loaded.model.named_parameters()
        grads = {name: rng.standard_normal(p.shape) for name, p in params}
        for name, p in params:
            p.grad = grads[name].copy()
        sgd_step(loaded.optimizer, params)
        for name, p in model.named_parameters():
            p.grad = grads[name].copy()
        _out_of_place_sgd_step(state, model.named_parameters())
        for name, p in params:
            assert _bits(loaded.optimizer.velocity[name]) == _bits(state.velocity[name])
            assert _bits(p.data) == _bits(dict(model.named_parameters())[name].data)


#: its residual conv_b weight, 768x768x3x3 over a 2x2 map, spans six row
#: blocks of `autodiff.GRAD_BLOCK` elements; every activation is at most 16x16
STREAMED = ModelConfig(input_channels=1, input_size=16, stem_channels=(4, 8, 16),
                       se_reduction=4, residual_channels=((16, 768, 1),), seed=3)


class TestStreamedWeightGradient:
    """Training streams each conv weight gradient whose eager sum would
    hold no less than its patches (2*Cout + L >= N*L) into `sgd_step` row
    block by row block (`autodiff.DeferredGrad`)."""

    @staticmethod
    def _fixture():
        return make_synthetic_manifest(per_class=1, size=16, channels=1, seed=8)

    def test_steady_step_never_holds_a_whole_large_weight_gradient(self):
        with ad.using_dtype(np.float32):
            model = build_model(STREAMED)
            weight = model.residuals[0].conv_b.weight
            assert weight.size >= 4 * ad.GRAD_BLOCK
            state = SgdState(lr=0.01, momentum=0.9, weight_decay=5e-4)
            manifest, r = self._fixture(), np.random.default_rng(1)
            # one step per epoch; the first allocates the velocity, and the
            # step's scratch
            train_one_epoch(model, state, manifest, len(manifest), r, augment=False)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train_one_epoch(model, state, manifest, len(manifest), r, augment=False)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak < 0.5 * weight.data.nbytes, (peak, weight.data.nbytes)

    def test_plain_backward_holds_no_whole_large_weight_gradient(self):
        # with no optimizer in backward, each large conv weight gradient
        # waits, unread, as its factors: a few activation-sized arrays
        with ad.using_dtype(np.float32):
            model = build_model(STREAMED)
            weight = model.residuals[0].conv_b.weight
            pixels, labels = next(make_batches(self._fixture(), 7, None, shuffle=False))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                with Graph():
                    logits = model.forward(pixels, mode=TRAIN).values
                    cross_entropy(logits, labels).loss.backward()
                held = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert isinstance(weight._grad, ad.DeferredGrad)
        assert held < 0.5 * weight.data.nbytes, (held, weight.data.nbytes)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_equals_plain_backward_and_the_whole_array_formula(self, dtype, weight_decay,
                                                               monkeypatch):
        # a narrower net with smaller blocks, for speed: conv_b's 64x576
        # gradient spans eleven blocks of six rows (each with its copy of
        # the 16 output-gradient elements of a row), the last of four rows
        monkeypatch.setattr(ad, "GRAD_BLOCK", 1 << 12)
        config = ModelConfig(**{**STREAMED.__dict__, "residual_channels": ((16, 64, 1),)})
        manifest = self._fixture()
        runs = []
        for streamed in (True, False):
            with ad.using_dtype(dtype):
                model = build_model(config)
                state = SgdState(lr=0.01, momentum=0.9, weight_decay=weight_decay)
                r = np.random.default_rng(2)
                for _ in range(2):
                    if streamed:
                        train_one_epoch(model, state, manifest, 4, r, augment=False)
                        continue
                    for pixels, labels in make_batches(manifest, 4, r, shuffle=True):
                        with Graph():
                            logits = model.forward(pixels, mode=TRAIN)
                            cross_entropy(logits.values, labels).loss.backward()
                        _out_of_place_sgd_step(state, model.named_parameters())
            runs.append(([(k, _bits(v)) for k, v in model.state_tensors().items()],
                         sorted((k, _bits(v)) for k, v in state.velocity.items())))
        assert runs[0] == runs[1]


class TestPlateauScheduler:
    def test_monotone_improvement_never_reduces(self):
        s = PlateauScheduler(patience=2)
        state = SgdState(lr=1e-3)
        for metric in (50.0, 60.0, 70.0):
            assert not scheduler_step(s, metric, state)
        assert state.lr == 1e-3
        assert s.best_metric == 70.0

    def test_reduces_at_eleventh_stale_epoch(self):
        s = PlateauScheduler(factor=0.1, patience=10)
        state = SgdState(lr=1e-3)
        scheduler_step(s, 70.0, state)
        reductions = []
        for _ in range(11):
            reductions.append(scheduler_step(s, 69.0, state))
        assert reductions == [False] * 10 + [True]
        npt.assert_allclose(state.lr, 1e-4, rtol=1e-12)

    def test_equal_metric_is_not_improvement(self):
        s = PlateauScheduler(patience=1)
        state = SgdState(lr=1e-3)
        scheduler_step(s, 50.0, state)
        scheduler_step(s, 50.0, state)  # stale 1
        assert scheduler_step(s, 50.0, state)  # stale 2 > patience -> reduce
        npt.assert_allclose(state.lr, 1e-4, rtol=1e-12)

    def test_floor_clamp(self):
        s = PlateauScheduler(factor=0.1, patience=1, min_lr=1e-6)
        state = SgdState(lr=1e-5)
        scheduler_step(s, 10.0, state)
        scheduler_step(s, 9.0, state)
        assert scheduler_step(s, 9.0, state)  # 1e-5 -> 1e-6
        npt.assert_allclose(state.lr, 1e-6, rtol=1e-12)
        scheduler_step(s, 9.0, state)
        assert not scheduler_step(s, 9.0, state)  # already at the floor
        assert state.lr == 1e-6

    def test_rate_below_the_floor_is_never_raised(self):
        s = PlateauScheduler(factor=0.1, patience=1, min_lr=1e-6)
        state = SgdState(lr=1e-9)
        scheduler_step(s, 10.0, state)
        for _ in range(50):  # 25 cuts' worth of stale epochs
            assert not scheduler_step(s, 9.0, state)
            assert state.lr == 1e-9

    def test_improvement_resets_counter(self):
        s = PlateauScheduler(patience=2)
        state = SgdState(lr=1e-3)
        scheduler_step(s, 50.0, state)
        scheduler_step(s, 49.0, state)
        scheduler_step(s, 48.0, state)
        scheduler_step(s, 51.0, state)  # improves; counter back to zero
        scheduler_step(s, 50.0, state)
        scheduler_step(s, 50.0, state)
        assert state.lr == 1e-3  # only 2 stale epochs since improvement

    def test_non_finite_metric_rejected(self):
        with pytest.raises(OptimizerError, match="finite"):
            scheduler_step(PlateauScheduler(), np.nan, SgdState())

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ConfigError):
            PlateauScheduler(factor=1.0)
        with pytest.raises(ConfigError):
            PlateauScheduler(patience=0)
        with pytest.raises(ConfigError):
            PlateauScheduler(mode="minimize")
        for min_lr in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="min_lr must be finite"):
                PlateauScheduler(min_lr=min_lr)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=60),
       st.integers(1, 5))
def test_lr_sequence_non_increasing_and_floored(metrics, patience):
    s = PlateauScheduler(patience=patience)
    state = SgdState(lr=1e-3)
    previous = state.lr
    for m in metrics:
        scheduler_step(s, m, state)
        assert state.lr <= previous
        assert state.lr >= s.min_lr
        previous = state.lr


def test_sgd_trains_a_linear_probe():
    # sanity: loss + optimizer together reduce cross-entropy on separable blobs
    r = np.random.default_rng(3)
    x = np.vstack([r.standard_normal((20, 2)) + (3, 0),
                   r.standard_normal((20, 2)) - (3, 0)])
    labels = np.array([0] * 20 + [1] * 20)
    w = Tensor(r.standard_normal((2, 2)) * 0.1, requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    state = SgdState(lr=0.5, momentum=0.9)
    first = None
    for _ in range(30):
        with Graph():
            out = cross_entropy(ad.linear(Tensor(x), w, b), labels)
            out.loss.backward()
        if first is None:
            first = out.loss.item()
        sgd_step(state, [("w", w), ("b", b)])
    assert out.loss.item() < first * 0.1
    assert np.argmax(out.probabilities, axis=1).tolist() == labels.tolist()
