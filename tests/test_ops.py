"""Network primitives: conv/pool geometry oracles, norms, attention, losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacn.errors import ConfigError
from pacn.gradcheck import check_gradients
from pacn.ops import (
    arn_forward,
    batch_norm_forward,
    bsconv_forward,
    channel_shuffle,
    cross_entropy,
    depthwise_conv2d,
    fc_forward,
    fin_forward,
    global_avg_pool,
    grn_forward,
    kl_from_teacher,
    layer_norm_forward,
    log_softmax,
    maxpool2d,
    mha_forward,
    pointwise_conv2d,
    softmax,
)
from pacn.tensor import Tensor, count_multiplies

SEEDS = range(5)


def leaf(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def assert_grads_ok(build, tol=1e-3):
    worst = 0.0
    for seed in SEEDS:
        params, fn = build(np.random.default_rng(seed))
        worst = max(worst, check_gradients(fn, params))
    assert worst < tol, f"worst relative error {worst:.3e}"


def naive_depthwise(x, w, stride):
    """Triple-loop reference for the zero-padded same-geometry conv."""
    n, c, f, t = x.shape
    _, kf, kt = w.shape
    sf, st = stride
    of = -(-f // sf)
    ot = -(-t // st)
    pf = max((of - 1) * sf + kf - f, 0) // 2
    pt = max((ot - 1) * st + kt - t, 0) // 2
    out = np.zeros((n, c, of, ot))
    for ni in range(n):
        for ci in range(c):
            for oi in range(of):
                for oj in range(ot):
                    acc = 0.0
                    for ki in range(kf):
                        for kj in range(kt):
                            fi = oi * sf - pf + ki
                            tj = oj * st - pt + kj
                            if 0 <= fi < f and 0 <= tj < t:
                                acc += x[ni, ci, fi, tj] * w[ci, ki, kj]
                    out[ni, ci, oi, oj] = acc
    return out


class TestConvolutions:
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    def test_depthwise_matches_naive(self, stride):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 7, 6))
        w = rng.standard_normal((3, 3, 3))
        out = depthwise_conv2d(Tensor(x), Tensor(w), stride=stride)
        np.testing.assert_allclose(out.data, naive_depthwise(x, w, stride),
                                   rtol=1e-10, atol=1e-12)

    def test_identity_kernel_passes_through(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        w = np.zeros((2, 3, 3), dtype=np.float32)
        w[:, 1, 1] = 1.0
        out = depthwise_conv2d(Tensor(x), Tensor(w))
        np.testing.assert_array_equal(out.data, x)

    def test_averaging_kernel_on_constant_input(self):
        x = np.full((1, 1, 6, 6), 3.0)
        w = np.full((1, 3, 3), 1.0 / 9.0)
        out = depthwise_conv2d(Tensor(x), Tensor(w)).data
        # interior sees all nine taps; borders lose mass to the zero padding
        np.testing.assert_allclose(out[0, 0, 1:-1, 1:-1], 3.0, rtol=1e-12)
        np.testing.assert_allclose(out[0, 0, 0, 0], 3.0 * 4 / 9, rtol=1e-12)

    def test_same_geometry_output_shape(self):
        x = Tensor(np.zeros((1, 1, 65, 9), dtype=np.float32))
        w = Tensor(np.zeros((1, 3, 3), dtype=np.float32))
        assert depthwise_conv2d(x, w, stride=(2, 2)).shape == (1, 1, 33, 5)
        assert depthwise_conv2d(x, w, stride=(4, 2)).shape == (1, 1, 17, 5)

    def test_pointwise_is_channel_matmul(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 3, 5))
        w = rng.standard_normal((6, 4))
        out = pointwise_conv2d(Tensor(x), Tensor(w)).data
        ref = np.einsum("oc,ncft->noft", w, x)
        np.testing.assert_allclose(out, ref, rtol=1e-10)

    def test_bsconv_rejects_channel_mismatch(self):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        pw = Tensor(np.zeros((8, 2), dtype=np.float32))
        dw = Tensor(np.zeros((7, 3, 3), dtype=np.float32))
        with pytest.raises(ConfigError):
            bsconv_forward(x, pw, dw)

    def test_conv_gradients(self):
        def build(rng):
            x = leaf(rng, (2, 2, 5, 6))
            pw = leaf(rng, (3, 2))
            pb = leaf(rng, (3,))
            dw = leaf(rng, (3, 3, 3))
            db = leaf(rng, (3,))
            def fn():
                out = bsconv_forward(x, pw, dw, pw_bias=pb, dw_bias=db, stride=(2, 1))
                return (out * out).mean()
            return [x, pw, pb, dw, db], fn
        assert_grads_ok(build)


class TestPooling:
    def test_maxpool_hand_example(self):
        x = np.array([[1, 2, 5, 3],
                      [4, 0, 1, 2],
                      [7, 1, 0, 6],
                      [2, 8, 3, 1]], dtype=np.float32)
        out = maxpool2d(Tensor(x[None, None]), (2, 2)).data
        np.testing.assert_array_equal(out[0, 0], [[4, 5], [8, 6]])

    def test_maxpool_floor_drops_remainder(self):
        x = Tensor(np.arange(35, dtype=np.float32).reshape(1, 1, 5, 7))
        assert maxpool2d(x, (2, 2)).shape == (1, 1, 2, 3)

    def test_maxpool_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 0.5]])[None, None],
                   requires_grad=True)
        maxpool2d(x, (2, 2)).sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[0, 0], [1, 0]])

    def test_maxpool_gradients(self):
        def build(rng):
            # distinct entries with clear margins keep the argmax stable
            data = rng.permutation(60).reshape(2, 1, 6, 5) * 0.1
            x = Tensor(data.astype(np.float64), requires_grad=True)
            def fn():
                m = maxpool2d(x, (2, 2))
                return (m * m).mean()
            return [x], fn
        assert_grads_ok(build)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5, 4, 6))
        out = global_avg_pool(Tensor(x)).data
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-10)


class TestChannelShuffle:
    def test_four_channels_two_groups(self):
        x = np.zeros((1, 4, 1, 1), dtype=np.float32)
        x[0, :, 0, 0] = [10, 11, 12, 13]
        out = channel_shuffle(Tensor(x), 2).data
        np.testing.assert_array_equal(out[0, :, 0, 0], [10, 12, 11, 13])

    @given(st.sampled_from([(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (12, 3)]))
    @settings(max_examples=20, deadline=None)
    def test_shuffle_then_coshuffle_is_identity(self, cg):
        c, g = cg
        x = np.arange(c, dtype=np.float32).reshape(1, c, 1, 1)
        once = channel_shuffle(Tensor(x), g)
        back = channel_shuffle(once, c // g)
        np.testing.assert_array_equal(back.data, x)

    def test_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            channel_shuffle(Tensor(np.zeros((1, 5, 1, 1), dtype=np.float32)), 2)

    def test_gradient_is_inverse_permutation(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(1, 6, 1, 1),
                   requires_grad=True)
        out = channel_shuffle(x, 3)
        (out * Tensor(np.arange(6, dtype=np.float64).reshape(1, 6, 1, 1))).sum().backward()
        # perm for c=6,g=3 is (0,2,4,1,3,5); grad of x[k] is the weight it met
        np.testing.assert_array_equal(x.grad.ravel(), [0, 3, 1, 4, 2, 5])


class TestSoftmax:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_distributions(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-50, 50, size=(4, 7))
        s = softmax(Tensor(z)).data
        assert (s > 0).all()
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)

    def test_stable_at_extreme_logits(self):
        z = Tensor(np.array([[1e4, 1e4 - 1, 0.0]]))
        s = softmax(z).data
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s.sum(), 1.0, atol=1e-12)

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, 6))
        ls = log_softmax(Tensor(z)).data
        np.testing.assert_allclose(np.exp(ls).sum(axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(ls, np.log(softmax(Tensor(z)).data), atol=1e-12)

    def test_softmax_gradients(self):
        def build(rng):
            z = leaf(rng, (3, 5), lo=-2.0, hi=2.0)
            w = rng.standard_normal((3, 5))
            def fn():
                return (softmax(z) * Tensor(w)).sum() + (log_softmax(z) * Tensor(w * 0.5)).sum()
            return [z], fn
        assert_grads_ok(build)


class TestNormalizations:
    def test_fin_stats_per_sample_and_band(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 5, 6)) * 2.5 + 1.0
        out = fin_forward(Tensor(x)).data
        mu = out.mean(axis=(1, 3))
        var = out.var(axis=(1, 3))
        assert np.abs(mu).max() < 1e-12
        assert np.abs(var - 1.0).max() < 1e-4   # off by var/(var+eps)

    def test_arn_identity_configuration(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        rho = Tensor(np.float32(1.0))
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        out = arn_forward(Tensor(x), rho, gamma, beta).data
        np.testing.assert_array_equal(out, x)   # bitwise

    def test_arn_rho_zero_is_scaled_fin(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 3, 4, 5)))
        rho = Tensor(np.float64(0.0))
        gamma = Tensor(np.full(3, 2.0))
        beta = Tensor(np.full(3, -1.0))
        out = arn_forward(x, rho, gamma, beta).data
        ref = fin_forward(x).data * 2.0 - 1.0
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_grn_zero_init_is_identity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        zeros = Tensor(np.zeros(4, dtype=np.float32))
        out = grn_forward(Tensor(x), zeros, zeros).data
        np.testing.assert_array_equal(out, x)   # bitwise

    def test_grn_against_reference(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 4, 3, 5))
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        out = grn_forward(Tensor(x), Tensor(gamma), Tensor(beta)).data
        g = np.sqrt((x ** 2).sum(axis=(2, 3)))            # (n, c)
        nx = g / (g.mean(axis=1, keepdims=True) + 1e-5)
        ref = gamma[None, :, None, None] * (x * nx[..., None, None]) \
            + beta[None, :, None, None] + x
        np.testing.assert_allclose(out, ref, rtol=1e-10)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 6, 8)) * 3 + 2
        ones = Tensor(np.ones(8))
        zeros = Tensor(np.zeros(8))
        out = layer_norm_forward(Tensor(x), ones, zeros).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-12
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_batch_norm_train_then_eval(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 3, 4, 4)) * 2 + 5
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        stats = {"mean": np.zeros(3), "var": np.ones(3)}
        out = batch_norm_forward(Tensor(x), gamma, beta, stats, training=True,
                                 momentum=1.0)
        assert np.abs(out.data.mean(axis=(0, 2, 3))).max() < 1e-12
        np.testing.assert_allclose(stats["mean"], x.mean(axis=(0, 2, 3)), rtol=1e-10)
        # with momentum 1.0 the running stats equal the batch stats, so eval
        # mode must reproduce the training output
        out_eval = batch_norm_forward(Tensor(x), gamma, beta, stats, training=False)
        np.testing.assert_allclose(out_eval.data, out.data, atol=1e-10)

    def test_norm_gradients(self):
        def build(rng):
            x = leaf(rng, (2, 3, 4, 4))
            gamma = leaf(rng, (3,), lo=0.5, hi=1.5)
            beta = leaf(rng, (3,))
            rho = Tensor(np.float64(rng.uniform(0.2, 0.8)), requires_grad=True)
            stats = {"mean": np.zeros(3), "var": np.ones(3)}
            def fn():
                h = batch_norm_forward(x, gamma, beta, stats, training=True)
                h = grn_forward(h, gamma, beta)
                h = arn_forward(h, rho, gamma, beta)
                return (h * h).mean()
            return [x, gamma, beta, rho], fn
        assert_grads_ok(build)

    def test_layer_norm_gradients(self):
        def build(rng):
            x = leaf(rng, (3, 5, 6))
            gamma = leaf(rng, (6,), lo=0.5, hi=1.5)
            beta = leaf(rng, (6,))
            def fn():
                h = layer_norm_forward(x, gamma, beta)
                return (h * h).mean()
            return [x, gamma, beta], fn
        assert_grads_ok(build)


class TestAttention:
    def test_zero_query_averages_values(self):
        rng = np.random.default_rng(13)
        L, d = 5, 8
        x = rng.standard_normal((L, d))
        wq = Tensor(np.zeros((d, d)))
        wk = Tensor(rng.standard_normal((d, d)) * 0.2)
        wv = Tensor(rng.standard_normal((d, d)) * 0.2)
        wo = Tensor(np.eye(d))
        out = mha_forward(Tensor(x), wq, wk, wv, wo, heads=2).data
        ref = np.tile((x @ wv.data).mean(axis=0), (L, 1))
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_rejects_indivisible_heads(self):
        x = Tensor(np.zeros((3, 6), dtype=np.float32))
        w = Tensor(np.zeros((6, 6), dtype=np.float32))
        with pytest.raises(ConfigError):
            mha_forward(x, w, w, w, w, heads=4)

    def test_mha_gradients(self):
        def build(rng):
            x = leaf(rng, (2, 3, 4), lo=-0.5, hi=0.5)
            ws = [leaf(rng, (4, 4), lo=-0.5, hi=0.5) for _ in range(4)]
            bs = [leaf(rng, (4,), lo=-0.1, hi=0.1) for _ in range(4)]
            def fn():
                out = mha_forward(x, *ws, heads=2,
                                  bq=bs[0], bk=bs[1], bv=bs[2], bo=bs[3])
                return (out * out).mean()
            return [x] + ws + bs, fn
        assert_grads_ok(build)


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        z = Tensor(np.zeros((4, 10)))
        y = np.eye(10)[[0, 3, 5, 9]]
        assert cross_entropy(z, y).item() == pytest.approx(np.log(10), rel=1e-12)

    def test_cross_entropy_confident_correct(self):
        z = np.full((1, 4), -20.0)
        z[0, 2] = 20.0
        y = np.eye(4)[[2]]
        assert cross_entropy(Tensor(z), y).item() < 1e-12

    def test_kl_zero_when_matched(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal((3, 6))
        p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        assert abs(kl_from_teacher(p, Tensor(z)).item()) < 1e-12

    def test_kl_positive_when_mismatched(self):
        p = np.array([[0.7, 0.2, 0.1]])
        z = Tensor(np.array([[0.0, 0.0, 0.0]]))
        assert kl_from_teacher(p, z).item() > 0.05

    def test_loss_gradients(self):
        def build(rng):
            z = leaf(rng, (4, 5), lo=-2.0, hi=2.0)
            y = np.eye(5)[rng.integers(0, 5, size=4)]
            p = rng.dirichlet(np.ones(5), size=4)
            def fn():
                return cross_entropy(z, y) + kl_from_teacher(p, z)
            return [z], fn
        assert_grads_ok(build)


class TestMultiplyTallies:
    def test_pointwise_conv_tally(self):
        x = Tensor(np.zeros((1, 2, 8, 5), dtype=np.float32))
        w = Tensor(np.zeros((3, 2), dtype=np.float32))
        with count_multiplies() as tally:
            pointwise_conv2d(x, w)
        assert tally[0] == 8 * 5 * 3 * 2

    def test_depthwise_conv_tally_uses_output_extent(self):
        x = Tensor(np.zeros((1, 2, 9, 5), dtype=np.float32))
        w = Tensor(np.zeros((2, 3, 3), dtype=np.float32))
        with count_multiplies() as tally:
            depthwise_conv2d(x, w, stride=(2, 2))
        assert tally[0] == 5 * 3 * 2 * 9

    def test_attention_tally_formula(self):
        n, L, d, h = 2, 6, 8, 2
        x = Tensor(np.zeros((n, L, d), dtype=np.float32))
        w = [Tensor(np.zeros((d, d), dtype=np.float32)) for _ in range(4)]
        with count_multiplies() as tally:
            mha_forward(x, *w, heads=h)
        assert tally[0] == n * (4 * L * d * d + 2 * L * L * d)

    def test_normalizations_tally_nothing(self):
        x = Tensor(np.ones((2, 4, 6, 6), dtype=np.float32))
        par = Tensor(np.ones(4, dtype=np.float32))
        stats = {"mean": np.zeros(4), "var": np.ones(4)}
        with count_multiplies() as tally:
            fin_forward(x)
            grn_forward(x, par, par)
            batch_norm_forward(x, par, par, stats, training=True)
            maxpool2d(x, (2, 2))
        assert tally[0] == 0
