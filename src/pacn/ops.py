"""Neural-network primitives on top of the autodiff tensor.

Layout convention for feature maps is (n, c, f, t): batch, channels,
frequency, time. Convolutions use zero-padded "same" geometry: the output
spatial extent is ceil(dim / stride).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, UsageError
from .tensor import (
    Tensor,
    _accum,
    _make,
    _norm_axes,
    _tally_macs,
    _unbroadcast,
    matmul,
    mul,
    reshape,
    sqrt,
    tmean,
    transpose,
    tsum,
)

EPS = 1e-5  # shared epsilon for BN / LN / GRN / FIN
BN_MOMENTUM = 0.1  # share of the batch statistics in each running-stat update
# one core's L2 cache: the working set a blocked op keeps cached
CACHE_BYTES = 2 << 20
# elements per depth-wise tap block: two float32 blocks and the input they
# read stay within the cache, and small maps still take few calls
_DW_BLOCK = CACHE_BYTES // 16


def _same_pad(dim: int, k: int, stride: int) -> tuple[int, int, int]:
    out = -(-dim // stride)
    total = max((out - 1) * stride + k - dim, 0)
    lo = total // 2
    return out, lo, total - lo


def pointwise_conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """1x1 convolution: w has shape (c_out, c_in)."""
    n, ci, f, t = x.data.shape
    co, ci_w = w.data.shape
    if ci_w != ci:
        raise ConfigError(f"point-wise weight expects {ci_w} input channels, got {ci}")
    xm = x.data.reshape(n, ci, f * t)
    out_data = np.matmul(w.data, xm).reshape(n, co, f, t)
    _tally_macs(n * f * t * co * ci)
    out_data = out_data + b.data.reshape(1, co, 1, 1)

    def bw(g):
        gm = g.reshape(n, co, f * t)
        if x.requires_grad:
            _accum(x, np.matmul(w.data.T, gm).reshape(n, ci, f, t), owned=True)
        _accum(w, np.matmul(gm, xm.swapaxes(1, 2)).sum(0))
        _accum(b, g.sum(axis=(0, 2, 3)))

    return _make(out_data, (x, w, b), bw)


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor, stride=(1, 1)) -> Tensor:
    """Per-channel k x k convolution: w has shape (c, kf, kt).

    The zero-padded input is stored channel-major, so the n planes of one
    channel are adjacent and tap (i, j) of a channel is one contiguous slice
    at offset ``i * tp + j`` times the channel's weight. Taps run over blocks
    of about ``_DW_BLOCK`` elements (samples of one channel, or all samples
    of several channels), which keeps every temporary small; the stride-1
    result is then cropped and subsampled. Every output and input-gradient
    element adds its taps in (i, j) order starting from +0.0, as a
    full-size tap-by-tap sum would. A tap's weight gradient is a row dot of
    its slice with the gradient scattered onto the stride-1 grid.
    """
    n, c, f, t = x.data.shape
    cw, kf, kt = w.data.shape
    if cw != c:
        raise ConfigError(f"depth-wise weight has {cw} channels, input has {c}")
    sf, st = stride
    of, pf0, pf1 = _same_pad(f, kf, sf)
    ot, pt0, pt1 = _same_pad(t, kt, st)
    fp, tp = f + pf0 + pf1, t + pt0 + pt1
    plane = fp * tp
    xpc = np.zeros((c, n, fp, tp), dtype=x.data.dtype)
    xpc[:, :, pf0:pf0 + f, pt0:pt0 + t] = x.data.transpose(1, 0, 2, 3)
    xflat = xpc.reshape(c, n * plane)
    # stride-1 grid of rf x rt outputs per plane with row pitch tp; grid
    # points past a row's or a plane's end read the next row or plane and
    # are cropped
    rf, rt = (of - 1) * sf + 1, (ot - 1) * st + 1
    span = (rf - 1) * tp + rt
    offsets = [i * tp + j for i in range(kf) for j in range(kt)]
    per = max(1, min(n, _DW_BLOCK // plane))
    cpb = max(1, min(c, _DW_BLOCK // max(n * plane, 1)))
    blocks = [(c0, min(c0 + cpb, c), s0, min(s0 + per, n))
              for c0 in range(0, c, cpb) for s0 in range(0, n, per)]
    wcols = w.data.reshape(c, kf * kt, 1)
    acc = np.empty((cpb, per * plane), dtype=x.data.dtype)
    tmp = np.empty((cpb, per * plane), dtype=np.result_type(x.data, w.data))
    out_data = np.empty((n, c, of, ot), dtype=x.data.dtype)
    out_cm = out_data.transpose(1, 0, 2, 3)
    for c0, c1, s0, s1 in blocks:
        cb, m, base = c1 - c0, s1 - s0, s0 * plane
        size = (m - 1) * plane + span
        a, p = acc[:cb, :size], tmp[:cb, :size]
        a.fill(0)
        for k, o in enumerate(offsets):
            np.multiply(xflat[c0:c1, base + o:base + o + size], wcols[c0:c1, k], out=p)
            np.add(a, p, out=a)
        out_cm[c0:c1, s0:s1] = acc[:cb, :m * plane].reshape(
            cb, m, fp, tp)[:, :, :rf:sf, :rt:st]
    _tally_macs(n * of * ot * c * kf * kt)
    out_data += b.data.reshape(1, c, 1, 1)

    def bw(g):
        # g scattered onto the stride-1 grid: the zeros around its entries
        # add nothing to the input positions a tap does not reach
        gs = np.zeros((cpb, per * plane), dtype=g.dtype)
        gs_taps = gs.reshape(cpb, per, fp, tp)[:, :, :rf:sf, :rt:st]
        gp = np.empty((cpb, per * plane), dtype=x.data.dtype)
        gtmp = np.empty((cpb, per * plane), dtype=np.result_type(g, w.data))
        g_cm = g.transpose(1, 0, 2, 3)
        dx = np.empty_like(x.data)
        dx_cm = dx.transpose(1, 0, 2, 3)
        dw = np.zeros_like(w.data)
        dw_taps = dw.reshape(c, kf * kt)
        for c0, c1, s0, s1 in blocks:
            cb, m, base = c1 - c0, s1 - s0, s0 * plane
            size = (m - 1) * plane + span
            gs_taps[:cb, :m] = g_cm[c0:c1, s0:s1]
            gsb, gpb, p = gs[:cb, :size], gp[:cb], gtmp[:cb, :size]
            gpb.fill(0)
            for k, o in enumerate(offsets):
                np.multiply(gsb, wcols[c0:c1, k], out=p)
                np.add(gpb[:, o:o + size], p, out=gpb[:, o:o + size])
                dw_taps[c0:c1, k] += np.einsum(
                    "ij,ij->i", gsb, xflat[c0:c1, base + o:base + o + size])
            dx_cm[c0:c1, s0:s1] = gpb[:, :m * plane].reshape(
                cb, m, fp, tp)[:, :, pf0:pf0 + f, pt0:pt0 + t]
        _accum(x, dx, owned=True)
        _accum(w, dw, owned=True)
        _accum(b, g.sum(axis=(0, 2, 3)))

    return _make(out_data, (x, w, b), bw)


def bsconv_forward(x: Tensor, pw_weight: Tensor, dw_weight: Tensor,
                   pw_bias: Tensor, dw_bias: Tensor, stride=(1, 1)) -> Tensor:
    """Blueprint separable convolution: 1x1 point-wise, then k x k depth-wise.

    Both convolutions are linear, so output channel ``co`` is one dense
    k x k convolution of the input with weights ``wd[co, k] * wp[co, ci]``.
    That fold costs ``k * c_in / (c_in + k)`` times the MACs of the pair, so
    it is taken only at stride 1, the only stride the model runs, and where
    the input has few channels, ``4 * c_in <= c_out``, so the one GEMM beats
    the two memory-bound passes; every other call runs the point-wise and
    then the depth-wise convolution.
    """
    c_out, c_in = pw_weight.data.shape
    if c_out != dw_weight.data.shape[0]:
        raise ConfigError(
            f"point-wise output channels ({c_out}) != "
            f"depth-wise channels ({dw_weight.data.shape[0]})")
    if tuple(stride) == (1, 1) and 4 * c_in <= c_out:
        return _folded_bsconv(x, pw_weight, dw_weight, pw_bias, dw_bias)
    h = pointwise_conv2d(x, pw_weight, pw_bias)
    return depthwise_conv2d(h, dw_weight, dw_bias, stride=stride)


def _folded_bsconv(x: Tensor, wp: Tensor, wd: Tensor, bp: Tensor, bd: Tensor) -> Tensor:
    """Stride-1 BSConv as one GEMM of the folded weight and the input's tap
    matrix.

    The tap matrix ``tm`` of shape ``(n, c_in * k, f * t)`` holds, for each
    input channel and tap, the zero-padded input seen by that tap at every
    output position (Chetlur et al. 2014, arXiv:1410.0759). The folded
    weight is ``wf[co, ci * k + j] = wp[co, ci] * wd[co, j]``. The
    point-wise bias passes through the depth-wise taps that fall inside the
    input, so it becomes the map ``bp[co] * (wd[co] @ inb)``, with ``inb``
    the ``(k, f * t)`` indicator of in-bounds taps. The weights change in
    training, so both are formed on every call. The graph keeps the padded
    input ``xp``, a ninth of ``tm`` per input channel: the forward frees
    ``tm`` after its GEMM, and the backward builds it again from ``xp`` with
    the same copies for the weight-gradient GEMM, then applies the chain rule
    through the fold.
    """
    n, ci, f, t = x.data.shape
    co, kf, kt = wd.data.shape
    if wp.data.shape[1] != ci:
        raise ConfigError(
            f"point-wise weight expects {wp.data.shape[1]} input channels, got {ci}")
    k = kf * kt
    pf, pt = (kf - 1) // 2, (kt - 1) // 2      # "same" zero padding
    dtype = x.data.dtype
    taps = [(slice(i, i + f), slice(j, j + t)) for i in range(kf) for j in range(kt)]
    xp = np.zeros((n, ci, f + kf - 1, t + kt - 1), dtype=dtype)
    xp[:, :, pf:pf + f, pt:pt + t] = x.data
    inside = np.zeros(xp.shape[2:], dtype=dtype)
    inside[pf:pf + f, pt:pt + t] = 1

    def tap_matrix(a):
        m = np.empty(a.shape[:2] + (k, f, t), dtype=a.dtype)
        for j, (fs, ts) in enumerate(taps):
            m[:, :, j] = a[..., fs, ts]
        return m.reshape(a.shape[0], -1, f * t)

    inb = tap_matrix(inside[None, None])[0]
    wdk = wd.data.reshape(co, k)
    wf = (wp.data[:, :, None] * wdk[:, None, :]).reshape(co, ci * k)
    wd_inb = wdk @ inb
    bias_map = bp.data[:, None] * wd_inb
    bias_map += bd.data[:, None]
    out_data = np.matmul(wf, tap_matrix(xp))
    out_data += bias_map
    # the multiply tally counts the point-wise and depth-wise pair it replaces
    _tally_macs(n * co * f * t * (ci + k))

    def bw(g):
        gm = g.reshape(n, co, f * t)
        gsum = gm.sum(axis=0)
        dwf = np.matmul(gm, tap_matrix(xp).swapaxes(1, 2)).sum(axis=0).reshape(co, ci, k)
        _accum(wp, (dwf * wdk[:, None, :]).sum(axis=2))
        dwd = (dwf * wp.data[:, :, None]).sum(axis=1)
        dwd += bp.data[:, None] * (gsum @ inb.T)
        _accum(wd, dwd.reshape(co, kf, kt))
        _accum(bp, (gsum * wd_inb).sum(axis=1))
        _accum(bd, gsum.sum(axis=1))
        if x.requires_grad:
            dtm = np.matmul(wf.T, gm).reshape(n, ci, k, f, t)
            dxp = np.zeros((n, ci) + inside.shape, dtype=dtype)
            for j, (fs, ts) in enumerate(taps):
                dxp[:, :, fs, ts] += dtm[:, :, j]
            _accum(x, dxp[:, :, pf:pf + f, pt:pt + t])

    return _make(out_data.reshape(n, co, f, t), (x, wp, wd, bp, bd), bw)


def maxpool2d(x: Tensor, window) -> Tensor:
    """Non-overlapping max pooling (stride = window), floor semantics.

    Each output is the first maximal tap of its window in row-major order,
    and the backward routes the gradient to that tap alone. The other taps
    get ``g * 0``: a zero, or NaN where ``g`` is not finite.
    """
    wf, wt = window
    n, c, f, t = x.data.shape
    fo, to = f // wf, t // wt
    taps = [(i, j) for i in range(wf) for j in range(wt)]

    def tap(a, i, j):
        return a[:, :, i:fo * wf:wf, j:to * wt:wt]

    out_data = tap(x.data, 0, 0).copy()
    for i, j in taps[1:]:
        # np.maximum returns its second operand on ties, so the earlier
        # tap's value (and sign of zero) is kept
        np.maximum(tap(x.data, i, j), out_data, out=out_data)

    def bw(g):
        # every tap writes its elements once; only the floor's remainder,
        # which no window covers, is zeroed
        dx = np.empty_like(x.data)
        dx[:, :, fo * wf:] = 0
        dx[:, :, :, to * wt:] = 0
        free = np.ones(out_data.shape, dtype=bool)
        for i, j in taps:
            hit = tap(x.data, i, j) == out_data
            hit &= free
            free ^= hit
            np.multiply(g, hit, out=tap(dx, i, j))
        _accum(x, dx, owned=True)

    return _make(out_data, (x,), bw)


def channel_shuffle(x: Tensor, groups: int) -> Tensor:
    """Fixed grouped permutation of the channel axis (axis 1), values untouched."""
    c = x.data.shape[1]
    if c % groups != 0:
        raise ConfigError(f"{c} channels not divisible by {groups} groups")
    perm = np.arange(c).reshape(groups, c // groups).T.reshape(-1)
    inv = np.argsort(perm)
    out_data = x.data[:, perm]

    def bw(g):
        _accum(x, g[:, inv])

    return _make(out_data, (x,), bw)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(x, out_data * (g - dot))

    return _make(out_data, (x,), bw)


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    m = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse

    def bw(g):
        _accum(x, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _make(out_data, (x,), bw)


def fc_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map on the last axis: w has shape (d_in, d_out)."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ConfigError(f"fc expects {w.data.shape[0]} inputs, got {x.data.shape[-1]}")
    return matmul(x, w) + b


def global_avg_pool(x: Tensor) -> Tensor:
    """(n, c, f, t) -> (n, c) mean over the spatial axes."""
    return tmean(x, axis=(2, 3))


def normalize(x: Tensor, axes, gamma: Tensor, beta: Tensor,
              rho: Tensor | None = None):
    """``gamma * (rho * x + (1 - rho) * xhat) + beta`` as one graph node.

    ``xhat`` is ``x`` standardized over ``axes`` with the biased variance and
    ``EPS``; without ``rho`` (batch and layer norm) the blend is skipped.
    ``gamma`` and ``beta`` must broadcast against ``x``; ``rho`` is a scalar.
    Returns ``(out, mean, var)``: the batch mean and biased variance
    (keepdims arrays) let batch norm update its running statistics without
    computing them again. The backward is the closed form of Ioffe &
    Szegedy 2015 (arXiv:1502.03167), extended by the ``rho`` blend. The
    graph keeps no full-size array of its own: the backward rebuilds
    ``xhat`` from ``x``, ``mean`` and ``rstd`` by the forward's ops, so it
    has the same bits.
    """
    axes = _norm_axes(axes, x.data.ndim)
    mean = x.data.mean(axis=axes, keepdims=True)
    xhat = x.data - mean
    buf = np.multiply(xhat, xhat)
    var = buf.mean(axis=axes, keepdims=True)
    rstd = 1.0 / np.sqrt(var + EPS)
    xhat *= rstd
    # the output reuses the squares' buffer; blending, then scaling, then
    # shifting rounds each element as the composite ops in the tests do
    out_data = xhat
    if rho is not None:
        out_data = np.multiply(xhat, 1.0 - rho.data, out=buf)
        # one row at a time: a full-size x * rho temporary would raise the
        # peak of a whole-batch forward (student training-mode forward at
        # batch 16 under no_grad: 10.19 -> 12.24 MiB traced)
        for o, xi in zip(out_data, x.data):
            o += xi * rho.data
    out_data = np.multiply(out_data, gamma.data, out=buf)
    out_data = np.add(out_data, beta.data, out=buf)

    def bw(g):
        # dx = k * (gh - mean(gh) - xhat * mean(gh * xhat)) + rho * gh, with
        # gh = g * gamma and k = rstd * (1 - rho). Sums over the normalized
        # axes along which gamma and beta are constant come first, so little
        # work is done at full size.
        affine = [(1,) * (x.data.ndim - p.data.ndim) + p.data.shape
                  for p in (gamma, beta)]
        inner = tuple(i for i in axes if all(s[i] == 1 for s in affine))
        outer = tuple(i for i in axes if i not in inner)
        count = int(np.prod([x.data.shape[i] for i in axes]))
        gam = gamma.data
        k = rstd if rho is None else rstd * (1.0 - rho.data)
        # the forward's xhat, bit for bit; its buffer and dx's then hold
        # every later full-size product, so there are two temporaries
        xhat = x.data - mean
        xhat *= rstd
        g_in = g.sum(axis=inner, keepdims=True)
        dx = np.multiply(g, xhat)
        gxhat_in = dx.sum(axis=inner, keepdims=True)
        m1 = (gam * g_in).sum(axis=outer, keepdims=True) / count
        m2 = (gam * gxhat_in).sum(axis=outer, keepdims=True) / count
        np.multiply(g, gam * (k if rho is None else k + rho.data), out=dx)
        dx -= np.multiply(xhat, k * m2, out=xhat)
        dx -= k * m1
        h_in = gxhat_in
        if rho is not None:
            gx_in = np.multiply(g, x.data, out=xhat).sum(axis=inner, keepdims=True)
            # d/drho of rho * x + (1 - rho) * xhat is x - xhat
            drho = np.sum(gam * (gx_in - gxhat_in))
            _accum(rho, np.asarray(drho, dtype=rho.data.dtype))
            h_in = rho.data * gx_in + (1.0 - rho.data) * gxhat_in
        _accum(x, dx, owned=True)
        _accum(gamma, _unbroadcast(h_in, gamma.data.shape))
        _accum(beta, _unbroadcast(g_in, beta.data.shape))

    parents = (x, gamma, beta) if rho is None else (x, gamma, beta, rho)
    return _make(out_data, parents, bw), mean, var


def _channel_view(t: Tensor) -> Tensor:
    """(c,) per-channel parameter -> (1, c, 1, 1) for (n, c, f, t) maps."""
    return reshape(t, (1, t.data.shape[0], 1, 1))


def batch_norm_forward(x: Tensor, gamma: Tensor, beta: Tensor, running_stats,
                       training: bool) -> Tensor:
    """Per-channel normalization over (n, f, t).

    ``running_stats`` is a dict with mutable "mean"/"var" arrays, moved
    ``BN_MOMENTUM`` of the way to the batch statistics in place during
    training and used verbatim at inference, where the layer is
    the affine map ``x * scale + shift`` and records no graph: gradients
    never flow through inference batch norm.
    """
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ConfigError(f"batch norm affine params must have shape ({c},)")
    if training:
        out, mu, var = normalize(x, (0, 2, 3), _channel_view(gamma),
                                 _channel_view(beta))
        m = running_stats["mean"]
        v = running_stats["var"]
        m += BN_MOMENTUM * (mu.reshape(c).astype(m.dtype) - m)
        v += BN_MOMENTUM * (var.reshape(c).astype(v.dtype) - v)
        return out
    dtype = x.data.dtype
    rm = running_stats["mean"].astype(dtype)
    inv = 1.0 / np.sqrt(running_stats["var"].astype(dtype) + EPS)
    scale = gamma.data * inv
    shift = beta.data - rm * scale
    out_data = x.data * scale.reshape(1, c, 1, 1)
    out_data += shift.reshape(1, c, 1, 1)
    return Tensor(out_data)


def layer_norm_forward(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last (feature) axis with per-feature affine."""
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ConfigError(f"layer norm affine params must have shape ({d},)")
    return normalize(x, -1, gamma, beta)[0]


def grn_forward(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Global response normalization with residual path.

    Per channel c: G_c = ||x_c||_2 over (f, t); N_c = G_c / (mean_c G + eps);
    output = gamma_c * (x * N_c) + beta_c + x.
    """
    n, c = x.data.shape[:2]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ConfigError(f"grn affine params must have shape ({c},)")
    g_norm = sqrt(tsum(mul(x, x), axis=(2, 3)))            # (n, c)
    scale = g_norm / (tmean(g_norm, axis=1, keepdims=True) + EPS)
    scale4 = reshape(scale, (n, c, 1, 1))
    gam = reshape(gamma, (1, c, 1, 1))
    bet = reshape(beta, (1, c, 1, 1))
    return mul(mul(x, scale4), gam) + bet + x


def fin_forward(x: Tensor) -> Tensor:
    """Instance normalization retaining (n, f): stats over (c, t) per (n, f).

    This is ``normalize`` with a unit scalar affine (gamma 1, beta 0).
    """
    dtype = x.data.dtype
    one, zero = Tensor(np.ones((), dtype)), Tensor(np.zeros((), dtype))
    return normalize(x, (1, 3), one, zero)[0]


def arn_forward(x: Tensor, rho: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Learnable blend of identity and FIN, then per-channel scale/shift."""
    return normalize(x, (1, 3), _channel_view(gamma), _channel_view(beta),
                     rho)[0]


def mha_forward(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                heads: int, bq: Tensor, bk: Tensor, bv: Tensor,
                bo: Tensor) -> Tensor:
    """Scaled dot-product self-attention over the token axis.

    x: (n, tokens, d); projection weights are (d, d).
    """
    n, L, d = x.data.shape
    if d % heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    dh = d // heads

    def split(t):
        return transpose(reshape(t, (n, L, heads, dh)), (0, 2, 1, 3))

    q = split(fc_forward(x, wq, bq))
    k = split(fc_forward(x, wk, bk))
    v = split(fc_forward(x, wv, bv))
    att = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    att = softmax(att)
    ctx = matmul(att, v)                                    # (n, h, L, dh)
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (n, L, d))
    return fc_forward(merged, wo, bo)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy; targets are one-hot (or soft) rows."""
    if logits.data.shape != targets.shape:
        raise UsageError(f"logits {logits.data.shape} vs targets {targets.shape}")
    ls = log_softmax(logits)
    per_row = tsum(mul(ls, Tensor(targets.astype(logits.data.dtype))), axis=-1)
    return -tmean(per_row)


def kl_from_teacher(teacher_probs: np.ndarray, student_logits: Tensor) -> Tensor:
    """Mean KL(teacher || student) with the teacher fixed: the cross-entropy
    to the teacher's probabilities plus their negative entropy, a constant."""
    p = teacher_probs.astype(student_logits.data.dtype)
    const = float((p * np.log(np.maximum(p, 1e-30))).sum(axis=-1).mean())
    return cross_entropy(student_logits, p) + const


__all__ = [
    "BN_MOMENTUM", "EPS", "arn_forward", "batch_norm_forward",
    "bsconv_forward", "channel_shuffle", "cross_entropy", "depthwise_conv2d",
    "fc_forward", "fin_forward", "global_avg_pool", "grn_forward",
    "kl_from_teacher", "layer_norm_forward", "log_softmax", "maxpool2d",
    "mha_forward", "normalize", "pointwise_conv2d", "softmax",
]
