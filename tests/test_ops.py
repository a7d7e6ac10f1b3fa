"""Network primitives: conv/pool geometry oracles, norms, attention, losses."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacn.ops
from pacn.errors import ConfigError
from pacn.gradcheck import check_gradients
from pacn.model import PacnModel, packaged_config
from pacn.ops import (
    EPS,
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
    normalize,
    pointwise_conv2d,
    softmax,
)
from pacn.tensor import Tensor, backward, count_multiplies, mul, reshape, sqrt, tmean, tsum

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


def slice_depthwise(x, w, b, stride, g):
    """Tap-by-tap depth-wise conv on full-size 4-D slices, and its backward.

    The blocked kernel must match ``out``, ``dx`` and ``db`` bit for bit and
    ``dw`` up to float rounding: returns (out, dx, dw, db) for upstream
    gradient ``g``.
    """
    n, c, f, t = x.shape
    _, kf, kt = w.shape
    sf, st = stride
    of = -(-f // sf)
    ot = -(-t // st)
    pf_total = max((of - 1) * sf + kf - f, 0)
    pt_total = max((ot - 1) * st + kt - t, 0)
    pf0, pt0 = pf_total // 2, pt_total // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pf0, pf_total - pf0), (pt0, pt_total - pt0)))
    out = np.zeros((n, c, of, ot), dtype=x.dtype)
    gp = np.zeros_like(xp)
    dw = np.empty_like(w)
    for i in range(kf):
        fe = i + (of - 1) * sf + 1
        for j in range(kt):
            te = j + (ot - 1) * st + 1
            tap = xp[:, :, i:fe:sf, j:te:st]
            out += tap * w[:, i, j][None, :, None, None]
            gp[:, :, i:fe:sf, j:te:st] += g * w[:, i, j][None, :, None, None]
            dw[:, i, j] = np.einsum("ncft,ncft->c", g, tap)
    out += b.reshape(1, c, 1, 1)
    return out, gp[:, :, pf0:pf0 + f, pt0:pt0 + t], dw, g.sum(axis=(0, 2, 3))


def composite_standardize(x, axes):
    """(x - mean) / sqrt(var + EPS) over ``axes`` from elementwise graph
    ops; returns the tensor and the mean and variance tensors."""
    mu = tmean(x, axis=axes, keepdims=True)
    xc = x - mu
    var = tmean(mul(xc, xc), axis=axes, keepdims=True)
    return mul(xc, 1.0 / sqrt(var + EPS)), mu, var


def composite_batch_norm(x, gamma, beta, stats, training, momentum=0.1):
    """Batch norm as composed graph ops; the ``normalize`` op must match it."""
    c = x.data.shape[1]
    gam = reshape(gamma, (1, c, 1, 1))
    bet = reshape(beta, (1, c, 1, 1))
    if training:
        xhat, mu, var = composite_standardize(x, (0, 2, 3))
        m, v = stats["mean"], stats["var"]
        m += momentum * (mu.data.reshape(c).astype(m.dtype) - m)
        v += momentum * (var.data.reshape(c).astype(v.dtype) - v)
        return xhat * gam + bet
    rm = stats["mean"].reshape(1, c, 1, 1).astype(x.data.dtype)
    rv = stats["var"].reshape(1, c, 1, 1).astype(x.data.dtype)
    return (x - Tensor(rm)) * Tensor(1.0 / np.sqrt(rv + EPS)) * gam + bet


def composite_layer_norm(x, gamma, beta):
    return composite_standardize(x, -1)[0] * gamma + beta


def composite_fin(x):
    return composite_standardize(x, (1, 3))[0]


def composite_arn(x, rho, gamma, beta):
    c = x.data.shape[1]
    blended = mul(x, rho) + mul(composite_fin(x), 1.0 - rho)
    return mul(blended, reshape(gamma, (1, c, 1, 1))) + reshape(beta, (1, c, 1, 1))


def argmax_maxpool(x, window, g):
    """Max pooling by argmax over copied windows, and its backward.

    Returns (out, dx) for upstream gradient ``g``.
    """
    wf, wt = window
    n, c, f, t = x.shape
    fo, to = f // wf, t // wt
    crop = x[:, :, :fo * wf, :to * wt]
    flat = crop.reshape(n, c, fo, wf, to, wt).transpose(0, 1, 2, 4, 3, 5)
    flat = flat.reshape(n, c, fo, to, wf * wt)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    dflat = np.zeros_like(flat)
    np.put_along_axis(dflat, idx[..., None], g[..., None], axis=-1)
    dcrop = dflat.reshape(n, c, fo, to, wf, wt).transpose(0, 1, 2, 4, 3, 5)
    dx = np.zeros_like(x)
    dx[:, :, :fo * wf, :to * wt] = dcrop.reshape(n, c, fo * wf, to * wt)
    return out, dx


def kept_tap_matrix_bsconv(x, wp, wd, bp, bd, g):
    """Folded BSConv that builds the whole batch's tap matrix once and keeps
    it for the backward; returns (out, dx, dwp, dwd, dbp, dbd).

    ``_folded_bsconv`` keeps only the padded input and builds the tap matrix
    again in its backward, so it must match this bit for bit.
    """
    n, ci, f, t = x.shape
    co, kf, kt = wd.shape
    k = kf * kt
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    inside = np.pad(np.ones((f, t), dtype=x.dtype), 1)
    taps = [(slice(i, i + f), slice(j, j + t)) for i in range(kf) for j in range(kt)]
    tm = np.stack([xp[:, :, fs, ts] for fs, ts in taps], axis=2)
    tm = tm.reshape(n, ci * k, f * t)
    inb = np.stack([inside[fs, ts] for fs, ts in taps]).reshape(k, f * t)
    wdk = wd.reshape(co, k)
    wf = (wp[:, :, None] * wdk[:, None, :]).reshape(co, ci * k)
    wd_inb = wdk @ inb
    bias_map = bp[:, None] * wd_inb
    bias_map += bd[:, None]
    out = np.matmul(wf, tm)
    out += bias_map
    gm = g.reshape(n, co, f * t)
    gsum = gm.sum(axis=0)
    dwf = np.matmul(gm, tm.swapaxes(1, 2)).sum(axis=0).reshape(co, ci, k)
    dwp = (dwf * wdk[:, None, :]).sum(axis=2)
    dwd = (dwf * wp[:, :, None]).sum(axis=1)
    dwd += bp[:, None] * (gsum @ inb.T)
    dtm = np.matmul(wf.T, gm).reshape(n, ci, k, f, t)
    dxp = np.zeros_like(xp)
    for j, (fs, ts) in enumerate(taps):
        dxp[:, :, fs, ts] += dtm[:, :, j]
    return (out.reshape(n, co, f, t), dxp[:, :, 1:1 + f, 1:1 + t], dwp,
            dwd.reshape(co, kf, kt), (gsum * wd_inb).sum(axis=1), gsum.sum(axis=1))


def first_max_pool_grad(x, window, g):
    """dx of max pooling, window by window: ``g`` times 1 at the first
    maximal tap in row-major order and times 0 at the others; +0.0 where
    no window reaches."""
    wf, wt = window
    dx = np.zeros_like(x)
    for idx in np.ndindex(g.shape):
        a, b, i, j = idx
        win = x[a, b, i * wf:(i + 1) * wf, j * wt:(j + 1) * wt]
        first = np.flatnonzero(win == win.max())[0]
        hit = (np.arange(win.size) == first).reshape(win.shape)
        dx[a, b, i * wf:(i + 1) * wf, j * wt:(j + 1) * wt] = g[idx] * hit.astype(x.dtype)
    return dx


def zero_bias(c, dtype=np.float64):
    return Tensor(np.zeros(c, dtype=dtype))


def run_with_grad(op, arrays, g):
    """Forward ``op`` on leaf tensors, back-propagate ``g``, return out, grads."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    (out * Tensor(g)).sum().backward()
    return out.data, [t.grad for t in leaves]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestConvolutions:
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    def test_depthwise_matches_naive(self, stride):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 7, 6))
        w = rng.standard_normal((3, 3, 3))
        out = depthwise_conv2d(Tensor(x), Tensor(w), zero_bias(3), stride=stride)
        np.testing.assert_allclose(out.data, naive_depthwise(x, w, stride),
                                   rtol=1e-10, atol=1e-12)

    def test_identity_kernel_passes_through(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        w = np.zeros((2, 3, 3), dtype=np.float32)
        w[:, 1, 1] = 1.0
        out = depthwise_conv2d(Tensor(x), Tensor(w), zero_bias(2, np.float32))
        np.testing.assert_array_equal(out.data, x)

    def test_averaging_kernel_on_constant_input(self):
        x = np.full((1, 1, 6, 6), 3.0)
        w = np.full((1, 3, 3), 1.0 / 9.0)
        out = depthwise_conv2d(Tensor(x), Tensor(w), zero_bias(1)).data
        # interior sees all nine taps; borders lose mass to the zero padding
        np.testing.assert_allclose(out[0, 0, 1:-1, 1:-1], 3.0, rtol=1e-12)
        np.testing.assert_allclose(out[0, 0, 0, 0], 3.0 * 4 / 9, rtol=1e-12)

    def test_empty_batch(self):
        x = Tensor(np.zeros((0, 3, 8, 8), dtype=np.float32))
        w = Tensor(np.zeros((3, 3, 3), dtype=np.float32))
        assert depthwise_conv2d(x, w, zero_bias(3, np.float32)).shape == (0, 3, 8, 8)

    def test_same_geometry_output_shape(self):
        x = Tensor(np.zeros((1, 1, 65, 9), dtype=np.float32))
        w = Tensor(np.zeros((1, 3, 3), dtype=np.float32))
        b = zero_bias(1, np.float32)
        assert depthwise_conv2d(x, w, b, stride=(2, 2)).shape == (1, 1, 33, 5)
        assert depthwise_conv2d(x, w, b, stride=(4, 2)).shape == (1, 1, 17, 5)

    def test_pointwise_is_channel_matmul(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 3, 5))
        w = rng.standard_normal((6, 4))
        out = pointwise_conv2d(Tensor(x), Tensor(w), zero_bias(6)).data
        ref = np.einsum("oc,ncft->noft", w, x)
        np.testing.assert_allclose(out, ref, rtol=1e-10)

    def test_bsconv_rejects_channel_mismatch(self):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        pw = Tensor(np.zeros((8, 2), dtype=np.float32))
        dw = Tensor(np.zeros((7, 3, 3), dtype=np.float32))
        with pytest.raises(ConfigError):
            bsconv_forward(x, pw, dw, zero_bias(8, np.float32),
                           zero_bias(7, np.float32))

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


    def test_depthwise_gradients_stride_one(self):
        def build(rng):
            x = leaf(rng, (2, 2, 5, 7))
            w = leaf(rng, (2, 3, 3))
            b = leaf(rng, (2,))
            def fn():
                out = depthwise_conv2d(x, w, b)
                return (out * out).mean()
            return [x, w, b], fn
        assert_grads_ok(build)

    # tap blocks: (9, 2, 255, 65) splits the samples of a channel and
    # (1, 3, 250, 197) groups channels, each with a partial last block
    @pytest.mark.parametrize("shape, kernel", [
        ((2, 3, 7, 5), (3, 3)), ((3, 2, 9, 13), (5, 3)), ((9, 2, 255, 65), (3, 3)),
        ((1, 3, 250, 197), (3, 3)),
    ])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 1), (2, 2)])
    def test_depthwise_matches_slice_oracle_bitwise(self, shape, kernel, stride):
        rng = np.random.default_rng(7)
        x = np.maximum(rng.standard_normal(shape), 0).astype(np.float32)
        w = rng.standard_normal((shape[1],) + kernel).astype(np.float32)
        b = rng.standard_normal(shape[1]).astype(np.float32)
        out_shape = (shape[0], shape[1], -(-shape[2] // stride[0]),
                     -(-shape[3] // stride[1]))
        g = rng.standard_normal(out_shape).astype(np.float32)
        out, grads = run_with_grad(
            lambda x, w, b: depthwise_conv2d(x, w, b, stride=stride), [x, w, b], g)
        want_out, want_dx, want_dw, want_db = slice_depthwise(x, w, b, stride, g)
        dx, dw, db = grads
        assert_same_bits(out, want_out)
        assert_same_bits(dx, want_dx)
        assert_same_bits(db, want_db)
        # the weight gradient sums its taps in another order than the
        # oracle's einsum, so only float32 rounding may differ
        assert dw.dtype == want_dw.dtype and dw.shape == want_dw.shape
        assert np.abs(dw - want_dw).max() <= 1e-5 * np.abs(want_dw).max()


class TestFoldedBsconv:
    """A block with ``4 * c_in <= c_out`` runs BSConv as one folded GEMM."""

    # the fold runs at stride 1 only; a strided call runs the pair
    @pytest.mark.parametrize("stride", [(1, 1)])
    def test_folded_gradients(self, stride):
        def build(rng):
            x = leaf(rng, (2, 2, 7, 6))
            pw = leaf(rng, (8, 2))
            pb = leaf(rng, (8,))
            dw = leaf(rng, (8, 3, 3))
            db = leaf(rng, (8,))
            def fn():
                out = bsconv_forward(x, pw, dw, pw_bias=pb, dw_bias=db, stride=stride)
                return (out * out).mean()
            return [x, pw, pb, dw, db], fn
        assert_grads_ok(build, tol=1e-8)

    # the teacher's pre.0 and pre.1 blocks at batch 2
    @pytest.mark.parametrize("c_in, c_out, f, t", [(2, 12, 256, 65), (12, 64, 64, 32)])
    @pytest.mark.parametrize("stride", [(1, 1)])
    def test_matches_pointwise_then_depthwise(self, c_in, c_out, f, t, stride):
        rng = np.random.default_rng(3)
        shapes = [(2, c_in, f, t), (c_out, c_in), (c_out, 3, 3), (c_out,), (c_out,)]
        arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        g = rng.standard_normal((2, c_out, f, t)).astype(np.float32)
        out, grads = run_with_grad(
            lambda x, pw, dw, pb, db: bsconv_forward(x, pw, dw, pb, db, stride=stride),
            arrays, g)
        want_out, want_grads = run_with_grad(
            lambda x, pw, dw, pb, db: depthwise_conv2d(
                pointwise_conv2d(x, pw, pb), dw, db, stride=stride),
            arrays, g)
        for got, want in zip([out, *grads], [want_out, *want_grads]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    # the teacher's pre.0 block (input needs no gradient) and pre.1 block
    @pytest.mark.parametrize("c_in, c_out, f, t, x_grad",
                             [(2, 12, 256, 65, False), (12, 64, 64, 32, True)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_a_kept_tap_matrix_bitwise(self, c_in, c_out, f, t, x_grad, n):
        rng = np.random.default_rng(c_in + n)
        shapes = [(n, c_in, f, t), (c_out, c_in), (c_out, 3, 3), (c_out,), (c_out,)]
        arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        g = rng.standard_normal((n, c_out, f, t)).astype(np.float32)
        leaves = [Tensor(a, requires_grad=i > 0 or x_grad) for i, a in enumerate(arrays)]
        out = pacn.ops._folded_bsconv(*leaves)
        backward((out * Tensor(g)).sum())
        want = kept_tap_matrix_bsconv(*arrays, g)
        got = [out.data] + [leaf.grad for leaf in leaves]
        assert (leaves[0].grad is None) != x_grad
        for a, b in zip(got, want):
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("c_out, folds", [(7, False), (8, True)])
    def test_folds_from_four_times_the_input_channels(self, c_out, folds, monkeypatch):
        calls = []
        fold = pacn.ops._folded_bsconv
        monkeypatch.setattr(pacn.ops, "_folded_bsconv",
                            lambda *args: calls.append(args) or fold(*args))
        x = Tensor(np.zeros((1, 2, 4, 4)))
        bsconv_forward(x, Tensor(np.zeros((c_out, 2))), Tensor(np.zeros((c_out, 3, 3))),
                       zero_bias(c_out), zero_bias(c_out))
        assert len(calls) == folds

    def test_strided_call_runs_the_pair(self, monkeypatch):
        calls = []
        fold = pacn.ops._folded_bsconv
        monkeypatch.setattr(pacn.ops, "_folded_bsconv",
                            lambda *args: calls.append(args) or fold(*args))
        x = Tensor(np.ones((1, 2, 5, 4)))
        pw, dw = Tensor(np.ones((8, 2))), Tensor(np.ones((8, 3, 3)))
        out = bsconv_forward(x, pw, dw, zero_bias(8), zero_bias(8), stride=(2, 1))
        want = depthwise_conv2d(pointwise_conv2d(x, pw, zero_bias(8)), dw,
                                zero_bias(8), stride=(2, 1))
        assert calls == []
        assert_same_bits(out.data, want.data)

    @pytest.mark.parametrize("name, folded", [
        ("student", {"pre.1"}), ("teacher", {"pre.0", "pre.1"})])
    def test_packaged_models_fold_only_few_input_channel_blocks(
            self, name, folded, monkeypatch):
        model = PacnModel(packaged_config(name), seed=0)
        block_of = {id(t): path[:-len(".pw.weight")]
                    for path, t in model.params.items() if path.endswith(".pw.weight")}
        calls = {"_folded_bsconv": [], "pointwise_conv2d": []}
        for fname, seen in calls.items():
            def spy(x, w, *args, _fn=getattr(pacn.ops, fname), _seen=seen):
                _seen.append(block_of[id(w)])
                return _fn(x, w, *args)
            monkeypatch.setattr(pacn.ops, fname, spy)
        x = np.random.default_rng(0).standard_normal((2, 2, 256, 65))
        model(Tensor(x.astype(np.float32)), training=True)
        assert sorted(calls["_folded_bsconv"]) == sorted(folded)
        assert sorted(calls["pointwise_conv2d"]) == sorted(set(block_of.values()) - folded)


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

    @pytest.mark.parametrize("window", [(2, 2), (4, 2)])
    @pytest.mark.parametrize("size", [(5, 7), (256, 65)])
    def test_maxpool_matches_argmax_oracle_bitwise(self, size, window):
        rng = np.random.default_rng(8)
        # post-ReLU input: many windows tie at zero
        x = np.maximum(rng.standard_normal((2, 3) + size), 0).astype(np.float32)
        g = rng.standard_normal((2, 3, size[0] // window[0],
                                 size[1] // window[1])).astype(np.float32)
        out, (dx,) = run_with_grad(lambda x: maxpool2d(x, window), [x], g)
        want_out, want_dx = argmax_maxpool(x, window, g)
        assert_same_bits(out, want_out)
        assert_same_bits(dx, want_dx)

    @pytest.mark.parametrize("value", [0.0, 3.0])
    def test_maxpool_tied_window_routes_to_first_tap(self, value):
        x = np.full((1, 1, 4, 2), value, dtype=np.float32)
        if value == 0.0:
            x[0, 0, 0, 0] = -0.0        # ties with +0.0; argmax keeps the first
        out, (dx,) = run_with_grad(lambda x: maxpool2d(x, (4, 2)), [x],
                                   np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
        want = np.zeros((4, 2), dtype=np.float32)
        want[0, 0] = 2.0
        np.testing.assert_array_equal(dx[0, 0], want)
        assert out[0, 0, 0, 0] == value
        assert np.signbit(out[0, 0, 0, 0]) == np.signbit(x[0, 0, 0, 0])

    @pytest.mark.parametrize("window", [(2, 2), (4, 2)])
    def test_maxpool_remainder_gets_positive_zero_gradient(self, window):
        rng = np.random.default_rng(9)
        # 9 x 7 is not a multiple of either window; post-ReLU input ties at zero
        x = np.maximum(rng.standard_normal((2, 3, 9, 7)), 0).astype(np.float32)
        g = rng.standard_normal((2, 3, 9 // window[0], 7 // window[1])).astype(np.float32)
        g[0, 0, 0, 0], g[1, 2, 1, 1] = np.inf, np.nan
        # a freed array of NaN, so that the backward's buffer is likely not clean
        stale = np.full(x.shape, np.nan, dtype=np.float32)
        del stale
        with np.errstate(invalid="ignore"):
            _, (dx,) = run_with_grad(lambda x: maxpool2d(x, window), [x], g)
            want = first_max_pool_grad(x, window, g)
        assert dx.dtype == want.dtype and dx.tobytes() == want.tobytes()
        wf, wt = window
        rest = np.ones(x.shape, dtype=bool)
        rest[:, :, :9 // wf * wf, :7 // wt * wt] = False
        assert (dx[rest] == 0).all() and not np.signbit(dx[rest]).any()
        # a non-finite g reaches the window's other taps as g * 0
        assert np.isnan(dx[0, 0, :wf, :wt]).sum() == wf * wt - 1
        assert np.isnan(dx[1, 2, wf:2 * wf, wt:2 * wt]).all()

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

    def test_grn_backward_with_a_zero_channel_is_finite(self):
        # a ReLU-dead channel has norm 0, where sqrt's 0.5 / out is inf
        rng = np.random.default_rng(11)
        x = np.maximum(rng.standard_normal((2, 4, 3, 5)), 0).astype(np.float32)
        x[0, 1] = 0
        g = rng.standard_normal(x.shape).astype(np.float32)
        gamma = rng.standard_normal(4).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, grads = run_with_grad(grn_forward, [x, gamma, np.zeros_like(gamma)], g)
        assert all(np.isfinite(d).all() for d in grads)

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
        # each call moves the running stats BN_MOMENTUM of the way to the
        # batch stats; after 300 calls on one batch the gap is 0.9**300
        for _ in range(300):
            out = batch_norm_forward(Tensor(x), gamma, beta, stats, training=True)
        assert np.abs(out.data.mean(axis=(0, 2, 3))).max() < 1e-12
        np.testing.assert_allclose(stats["mean"], x.mean(axis=(0, 2, 3)), rtol=1e-10)
        # the running stats now equal the batch stats, so eval mode must
        # reproduce the training output
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


NORMS = {
    # name: (op, composite oracle, input shape, affine width axis)
    "bn-train": (lambda x, r, g, b, s: batch_norm_forward(x, g, b, s, True),
                 lambda x, r, g, b, s: composite_batch_norm(x, g, b, s, True),
                 (8, 6, 64, 33), 1),
    "bn-eval": (lambda x, r, g, b, s: batch_norm_forward(x, g, b, s, False),
                lambda x, r, g, b, s: composite_batch_norm(x, g, b, s, False),
                (8, 6, 64, 33), 1),
    "ln": (lambda x, r, g, b, s: layer_norm_forward(x, g, b),
           lambda x, r, g, b, s: composite_layer_norm(x, g, b),
           (4, 33, 64), 2),
    "fin": (lambda x, r, g, b, s: fin_forward(x),
            lambda x, r, g, b, s: composite_fin(x),
            (8, 6, 64, 33), 1),
    "arn": (lambda x, r, g, b, s: arn_forward(x, r, g, b),
            lambda x, r, g, b, s: composite_arn(x, r, g, b),
            (8, 6, 64, 33), 1),
}


def run_norm(fn, shape, width_axis, dtype, seed):
    """Output, (x, gamma, beta, rho) grads and running stats of one call."""
    rng = np.random.default_rng(seed)
    d = shape[width_axis]
    x = Tensor((rng.standard_normal(shape) * 3 + 2).astype(dtype), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, d).astype(dtype), requires_grad=True)
    beta = Tensor(rng.standard_normal(d).astype(dtype), requires_grad=True)
    rho = Tensor(np.array(rng.uniform(0.2, 0.8), dtype=dtype), requires_grad=True)
    stats = {"mean": rng.standard_normal(d).astype(dtype),
             "var": rng.uniform(0.5, 2.0, d).astype(dtype)}
    out = fn(x, rho, gamma, beta, stats)
    w = Tensor(rng.standard_normal(shape).astype(dtype))
    backward(tsum(mul(out, w)))
    return out.data, [t.grad for t in (x, gamma, beta, rho)], stats


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestNormalizeOp:
    @pytest.mark.parametrize("dtype, out_tol, grad_tol", [
        (np.float32, 1e-6, 1e-5), (np.float64, 1e-12, 1e-12)])
    @pytest.mark.parametrize("name", sorted(NORMS))
    def test_matches_composite_oracle(self, name, dtype, out_tol, grad_tol):
        op, oracle, shape, width_axis = NORMS[name]
        for seed in range(3):
            out, grads, _ = run_norm(op, shape, width_axis, dtype, seed)
            ref, ref_grads, _ = run_norm(oracle, shape, width_axis, dtype, seed)
            assert out.dtype == ref.dtype and out.shape == ref.shape
            assert rel_err(out, ref) <= out_tol
            if name == "bn-eval":
                # inference batch norm records no graph: no gradient at all
                assert grads == [None] * 4
                continue
            for got, want in zip(grads, ref_grads):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.shape == want.shape
                    assert rel_err(got, want) <= grad_tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_norm_running_stats_match_oracle(self, dtype):
        op, oracle, shape, width_axis = NORMS["bn-train"]
        _, _, stats = run_norm(op, shape, width_axis, dtype, 4)
        _, _, ref = run_norm(oracle, shape, width_axis, dtype, 4)
        np.testing.assert_array_equal(stats["mean"], ref["mean"])
        np.testing.assert_array_equal(stats["var"], ref["var"])

    @pytest.mark.parametrize("blend", [False, True])
    @pytest.mark.parametrize("shape, axes, affine", [
        ((3, 2, 4, 3), (0, 2, 3), (1, 2, 1, 1)),
        ((2, 3, 5), (-1,), (5,)),
        ((2, 3, 4, 3), (1, 3), (1, 3, 1, 1)),
    ])
    def test_normalize_gradients(self, shape, axes, affine, blend):
        def build(rng):
            x = leaf(rng, shape)
            gamma = leaf(rng, affine, lo=0.5, hi=1.5)
            beta = leaf(rng, affine)
            rho = Tensor(np.float64(rng.uniform(0.2, 0.8)), requires_grad=True)
            w = Tensor(rng.standard_normal(shape))
            def fn():
                out = normalize(x, axes, gamma, beta, rho if blend else None)[0]
                return (out * out * w).mean()
            return [x, gamma, beta] + ([rho] if blend else []), fn
        assert_grads_ok(build)

    @pytest.mark.parametrize("blend", [False, True])
    def test_constant_slice_stays_finite(self, blend):
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32),
                   requires_grad=True)
        x.data[1, :, 2, :] = 7.0        # variance 0 over (c, t) at (n=1, f=2)
        x.data[:, 1] = -2.0             # variance 0 over (n, f, t) in channel 1
        gamma = Tensor(np.full((1, 3, 1, 1), 1.5, np.float32), requires_grad=True)
        beta = Tensor(np.full((1, 3, 1, 1), 0.5, np.float32), requires_grad=True)
        rho = Tensor(np.float32(0.25), requires_grad=True) if blend else None
        w = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32))
        for axes in ((1, 3), (0, 2, 3)):
            params = [x, gamma, beta] + ([rho] if blend else [])
            for p in params:
                p.zero_grad()
            out = normalize(x, axes, gamma, beta, rho)[0]
            backward(tsum(mul(out, w)))
            assert np.isfinite(out.data).all()
            assert all(np.isfinite(p.grad).all() for p in params)
        if not blend:
            # a constant slice standardizes to 0, so only beta is left
            np.testing.assert_array_equal(out.data[:, 1], 0.5)

    def test_row_wise_blend_matches_full_size_bitwise(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((16, 4, 64, 33)).astype(np.float32)
        rho = np.float32(0.3)
        one, zero = Tensor(np.float32(1.0)), Tensor(np.float32(0.0))
        out = normalize(Tensor(x), (1, 3), one, zero, rho=Tensor(rho))[0].data
        xhat = normalize(Tensor(x), (1, 3), one, zero)[0].data
        expected = xhat * (1 - rho) + x * rho
        assert out.dtype == expected.dtype == np.float32
        assert out.tobytes() == expected.tobytes()


class TestAttention:
    def test_zero_query_averages_values(self):
        rng = np.random.default_rng(13)
        n, L, d = 2, 5, 8
        x = rng.standard_normal((n, L, d))
        wq = Tensor(np.zeros((d, d)))
        wk = Tensor(rng.standard_normal((d, d)) * 0.2)
        wv = Tensor(rng.standard_normal((d, d)) * 0.2)
        wo = Tensor(np.eye(d))
        b = zero_bias(d)
        out = mha_forward(Tensor(x), wq, wk, wv, wo, heads=2,
                          bq=b, bk=b, bv=b, bo=b).data
        ref = np.repeat((x @ wv.data).mean(axis=1, keepdims=True), L, axis=1)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_rejects_indivisible_heads(self):
        x = Tensor(np.zeros((1, 3, 6), dtype=np.float32))
        w = Tensor(np.zeros((6, 6), dtype=np.float32))
        b = zero_bias(6, np.float32)
        with pytest.raises(ConfigError):
            mha_forward(x, w, w, w, w, heads=4, bq=b, bk=b, bv=b, bo=b)

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
            pointwise_conv2d(x, w, zero_bias(3, np.float32))
        assert tally[0] == 8 * 5 * 3 * 2

    def test_depthwise_conv_tally_uses_output_extent(self):
        x = Tensor(np.zeros((1, 2, 9, 5), dtype=np.float32))
        w = Tensor(np.zeros((2, 3, 3), dtype=np.float32))
        with count_multiplies() as tally:
            depthwise_conv2d(x, w, zero_bias(2, np.float32), stride=(2, 2))
        assert tally[0] == 5 * 3 * 2 * 9

    def test_folded_bsconv_tallies_the_pair_it_replaces(self):
        x = Tensor(np.zeros((2, 2, 9, 5), dtype=np.float32))
        pw = Tensor(np.zeros((8, 2), dtype=np.float32))
        dw = Tensor(np.zeros((8, 3, 3), dtype=np.float32))
        b = zero_bias(8, np.float32)
        with count_multiplies() as tally:
            bsconv_forward(x, pw, dw, b, b)
        # point-wise and then depth-wise, each at 9 x 5
        assert tally[0] == 2 * (9 * 5 * 8 * 2 + 9 * 5 * 8 * 9)

    def test_attention_tally_formula(self):
        n, L, d, h = 2, 6, 8, 2
        x = Tensor(np.zeros((n, L, d), dtype=np.float32))
        w = [Tensor(np.zeros((d, d), dtype=np.float32)) for _ in range(4)]
        b = zero_bias(d, np.float32)
        with count_multiplies() as tally:
            mha_forward(x, *w, heads=h, bq=b, bk=b, bv=b, bo=b)
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
