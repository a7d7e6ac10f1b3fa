"""Autodiff engine: elementary ops, graph mechanics, multiply tally."""

import threading

import numpy as np
import pytest

from pacn.errors import UsageError
from pacn.gradcheck import check_gradients
from pacn.tensor import (
    Tensor,
    _accum,
    backward,
    concat,
    count_multiplies,
    matmul,
    no_grad,
    relu,
    reshape,
    sqrt,
    tmean,
    transpose,
    tsum,
)

SEEDS = range(5)


def leaf(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def assert_grads_ok(build, tol=1e-3):
    worst = 0.0
    for seed in SEEDS:
        params, fn = build(np.random.default_rng(seed))
        worst = max(worst, check_gradients(fn, params))
    assert worst < tol, f"worst relative error {worst:.3e}"


class TestTensorBasics:
    def test_int_input_coerced_to_float32(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_backward_rejects_non_scalar(self):
        t = Tensor(np.ones(4), requires_grad=True)
        with pytest.raises(UsageError):
            backward(t + 1.0)

    def test_no_grad_records_nothing(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (t * 2.0).sum()
        assert out._parents == ()
        assert not out.requires_grad

    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        loss = (t * t + t).sum()   # d/dt = 2t + 1
        backward(loss)
        np.testing.assert_allclose(t.grad, [5.0, 7.0])

    def test_zero_d_grad_stays_ndarray(self):
        rho = Tensor(np.array(0.5, dtype=np.float32), requires_grad=True)
        backward((Tensor(np.ones(3, dtype=np.float32)) * rho).sum())
        assert type(rho.grad) is np.ndarray
        assert rho.grad.shape == () and rho.grad.dtype == np.float32
        assert rho.grad == 3.0

    def test_backward_reaches_diamond_graph(self):
        t = Tensor(np.array(3.0), requires_grad=True)
        a = t * 2.0
        loss = (a * a).sum()       # (2t)^2, d/dt = 8t
        backward(loss)
        assert t.grad == pytest.approx(24.0)


class TestElementaryGradients:
    def test_add_sub_broadcast(self):
        def build(rng):
            a = leaf(rng, (3, 4))
            b = leaf(rng, (4,))
            c = leaf(rng, (3, 1))
            return [a, b, c], lambda: ((a + b - c) * (a - b)).sum()
        assert_grads_ok(build)

    def test_mul_div(self):
        def build(rng):
            a = leaf(rng, (2, 5))
            b = leaf(rng, (2, 5), lo=0.5, hi=1.5)
            return [a, b], lambda: (a * b + a / b).sum()
        assert_grads_ok(build)

    def test_scalar_mix(self):
        def build(rng):
            a = leaf(rng, (4,), lo=0.5, hi=1.5)
            return [a], lambda: (2.0 / a + 3.0 * a - 1.0).sum()
        assert_grads_ok(build)

    def test_sqrt(self):
        def build(rng):
            a = leaf(rng, (3, 3), lo=0.5, hi=2.0)
            return [a], lambda: (a * sqrt(a) + sqrt(a)).sum()
        assert_grads_ok(build)

    def test_sqrt_of_zero_has_zero_gradient(self):
        a = Tensor(np.array([0.0, 4.0, 0.25, 0.0], dtype=np.float32),
                   requires_grad=True)
        g = np.array([1.5, -2.0, 3.0, 0.0], dtype=np.float32)
        (sqrt(a) * Tensor(g)).sum().backward()
        assert a.grad.tobytes() == (g * np.array([0.0, 0.25, 1.0, 0.0],
                                                 dtype=np.float32)).tobytes()

    def test_relu(self):
        def build(rng):
            data = rng.uniform(-1, 1, size=(4, 4))
            data[np.abs(data) < 0.05] = 0.1   # keep away from the kink
            a = Tensor(data, requires_grad=True)
            return [a], lambda: (relu(a) * a).sum()
        assert_grads_ok(build)

    def test_matmul_2d(self):
        def build(rng):
            a = leaf(rng, (3, 4))
            b = leaf(rng, (4, 5))
            return [a, b], lambda: matmul(a, b).sum()
        assert_grads_ok(build)

    def test_matmul_batched_and_broadcast(self):
        def build(rng):
            a = leaf(rng, (2, 3, 4))
            b = leaf(rng, (4, 5))       # broadcast over the batch
            c = leaf(rng, (2, 5, 2))
            return [a, b, c], lambda: matmul(matmul(a, b), c).sum()
        assert_grads_ok(build)

    def test_reshape_transpose(self):
        def build(rng):
            a = leaf(rng, (2, 3, 4))
            def fn():
                h = transpose(a, (2, 0, 1))
                h = reshape(h, (4, 6))
                return (h * h).sum()
            return [a], fn
        assert_grads_ok(build)

    def test_concat(self):
        def build(rng):
            a = leaf(rng, (2, 3))
            b = leaf(rng, (2, 2))
            def fn():
                h = concat([a, b], axis=1)
                return (h * h).sum()
            return [a, b], fn
        assert_grads_ok(build)

    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (0, False), (1, True), ((0, 2), False), (-1, True),
    ])
    def test_sum_mean_axes(self, axis, keepdims):
        def build(rng):
            a = leaf(rng, (2, 3, 4))
            def fn():
                s = tsum(a, axis=axis, keepdims=keepdims)
                m = tmean(a * a, axis=axis, keepdims=keepdims)
                return (s * s).sum() + m.sum()
            return [a], fn
        assert_grads_ok(build)


class TestSweep:
    def test_inner_nodes_released_and_leaves_keep_grad(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        h = relu(a * 3.0)
        loss = (h * h).sum()
        backward(loss)
        np.testing.assert_allclose(a.grad, [18.0, 0.0])
        for t in (h, loss):
            assert t.grad is None and t._parents == ()

    def test_same_loss_swept_twice_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        loss = (a * a).sum()
        backward(loss)
        with pytest.raises(UsageError, match="already swept"):
            backward(loss)
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])

    def test_node_of_swept_graph_in_new_loss_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        h = a * 2.0
        backward(h.sum())
        with pytest.raises(UsageError, match="already swept"):
            backward((h * a).sum())

    def test_owned_gradient_is_kept_and_others_copied(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        g = np.ones(3)
        _accum(t, g, owned=True)
        assert t.grad is g
        u = Tensor(np.zeros(3), requires_grad=True)
        _accum(u, g)
        assert u.grad is not g and not np.shares_memory(u.grad, g)

    def test_add_operands_get_separate_gradients(self):
        # add passes the same array to both parents, so neither may own it
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        backward(((a + b) * 2.0).sum())
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


class TestDeterminism:
    def test_same_seed_same_bits(self):
        def run():
            rng = np.random.default_rng(7)
            a = Tensor(rng.standard_normal((8, 8), dtype=np.float32), requires_grad=True)
            b = Tensor(rng.standard_normal((8, 8), dtype=np.float32), requires_grad=True)
            loss = (matmul(a, b) * a).mean()
            backward(loss)
            return loss.data.tobytes(), a.grad.tobytes(), b.grad.tobytes()
        assert run() == run()


class TestMultiplyTally:
    def test_matmul_counts_mnk(self):
        a = Tensor(np.ones((3, 7), dtype=np.float32))
        b = Tensor(np.ones((7, 5), dtype=np.float32))
        with count_multiplies() as tally:
            matmul(a, b)
        assert tally[0] == 3 * 5 * 7

    def test_elementwise_ops_count_nothing(self):
        a = Tensor(np.ones((16, 16), dtype=np.float32))
        with count_multiplies() as tally:
            _ = relu(a) * a + sqrt(a) / 2.0
        assert tally[0] == 0

    def test_tally_scoped_to_context(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        matmul(a, a)   # outside any context: ignored
        with count_multiplies() as outer:
            matmul(a, a)
            with count_multiplies() as inner:
                matmul(a, a)
            assert inner[0] == 8
        assert outer[0] == 8


class TestPerThreadState:
    def test_no_grad_on_one_thread_leaves_another_recording(self):
        entered, checked = threading.Event(), threading.Event()

        def worker():
            with no_grad():
                entered.set()
                checked.wait(timeout=10)

        t = threading.Thread(target=worker)
        t.start()
        try:
            assert entered.wait(timeout=10)
            a = Tensor(np.ones(3), requires_grad=True)
            out = a * 2.0
        finally:
            checked.set()
            t.join(timeout=10)
        assert not t.is_alive()
        assert out.requires_grad
        assert out._parents[0] is a

    def test_tally_counts_only_its_own_thread(self):
        opened, ran = threading.Event(), threading.Event()
        counted = []

        def worker():
            with count_multiplies() as tally:
                opened.set()
                ran.wait(timeout=10)
                counted.append(tally[0])

        t = threading.Thread(target=worker)
        t.start()
        try:
            assert opened.wait(timeout=10)
            a = Tensor(np.ones((2, 2), dtype=np.float32))
            matmul(a, a)
        finally:
            ran.set()
            t.join(timeout=10)
        assert not t.is_alive()
        assert counted == [0]
