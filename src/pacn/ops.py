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
    _tally_macs,
    concat,
    exp,
    log,
    matmul,
    mul,
    relu,
    reshape,
    sqrt,
    tmean,
    transpose,
    tsum,
)

EPS = 1e-5  # shared epsilon for BN / LN / GRN / FIN


def _same_pad(dim: int, k: int, stride: int) -> tuple[int, int, int]:
    out = -(-dim // stride)
    total = max((out - 1) * stride + k - dim, 0)
    lo = total // 2
    return out, lo, total - lo


def pointwise_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """1x1 convolution: w has shape (c_out, c_in)."""
    n, ci, f, t = x.data.shape
    co, ci_w = w.data.shape
    if ci_w != ci:
        raise ConfigError(f"point-wise weight expects {ci_w} input channels, got {ci}")
    xm = x.data.reshape(n, ci, f * t)
    out_data = np.matmul(w.data, xm).reshape(n, co, f, t)
    _tally_macs(n * f * t * co * ci)
    if b is not None:
        out_data = out_data + b.data.reshape(1, co, 1, 1)

    def bw(g):
        gm = g.reshape(n, co, f * t)
        _accum(x, np.matmul(w.data.T, gm).reshape(n, ci, f, t))
        _accum(w, np.tensordot(gm, xm, axes=([0, 2], [0, 2])))
        if b is not None:
            _accum(b, g.sum(axis=(0, 2, 3)))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_data, parents, bw)


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride=(1, 1)) -> Tensor:
    """Per-channel k x k convolution: w has shape (c, kf, kt)."""
    n, c, f, t = x.data.shape
    cw, kf, kt = w.data.shape
    if cw != c:
        raise ConfigError(f"depth-wise weight has {cw} channels, input has {c}")
    sf, st = stride
    of, pf0, pf1 = _same_pad(f, kf, sf)
    ot, pt0, pt1 = _same_pad(t, kt, st)
    xp = np.pad(x.data, ((0, 0), (0, 0), (pf0, pf1), (pt0, pt1)))
    out_data = np.zeros((n, c, of, ot), dtype=x.data.dtype)
    for i in range(kf):
        fe = i + (of - 1) * sf + 1
        for j in range(kt):
            te = j + (ot - 1) * st + 1
            out_data += xp[:, :, i:fe:sf, j:te:st] * w.data[:, i, j][None, :, None, None]
    _tally_macs(n * of * ot * c * kf * kt)
    if b is not None:
        out_data += b.data.reshape(1, c, 1, 1)

    def bw(g):
        gp = np.zeros_like(xp)
        dw = np.empty_like(w.data)
        for i in range(kf):
            fe = i + (of - 1) * sf + 1
            for j in range(kt):
                te = j + (ot - 1) * st + 1
                gp[:, :, i:fe:sf, j:te:st] += g * w.data[:, i, j][None, :, None, None]
                dw[:, i, j] = np.einsum("ncft,ncft->c", g, xp[:, :, i:fe:sf, j:te:st])
        _accum(x, gp[:, :, pf0:pf0 + f, pt0:pt0 + t])
        _accum(w, dw)
        if b is not None:
            _accum(b, g.sum(axis=(0, 2, 3)))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_data, parents, bw)


def bsconv_forward(x: Tensor, pw_weight: Tensor, dw_weight: Tensor,
                   pw_bias: Tensor | None = None, dw_bias: Tensor | None = None,
                   stride=(1, 1)) -> Tensor:
    """Blueprint separable convolution: 1x1 point-wise, then k x k depth-wise."""
    if pw_weight.data.shape[0] != dw_weight.data.shape[0]:
        raise ConfigError(
            f"point-wise output channels ({pw_weight.data.shape[0]}) != "
            f"depth-wise channels ({dw_weight.data.shape[0]})")
    h = pointwise_conv2d(x, pw_weight, pw_bias)
    return depthwise_conv2d(h, dw_weight, dw_bias, stride=stride)


def maxpool2d(x: Tensor, window) -> Tensor:
    """Non-overlapping max pooling (stride = window), floor semantics."""
    wf, wt = window
    n, c, f, t = x.data.shape
    fo, to = f // wf, t // wt
    crop = x.data[:, :, :fo * wf, :to * wt]
    xr = crop.reshape(n, c, fo, wf, to, wt).transpose(0, 1, 2, 4, 3, 5)
    flat = xr.reshape(n, c, fo, to, wf * wt)
    idx = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, idx[..., None], g[..., None], axis=-1)
        dcrop = dflat.reshape(n, c, fo, to, wf, wt).transpose(0, 1, 2, 4, 3, 5)
        dx = np.zeros_like(x.data)
        dx[:, :, :fo * wf, :to * wt] = dcrop.reshape(n, c, fo * wf, to * wt)
        _accum(x, dx)

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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(x, out_data * (g - dot))

    return _make(out_data, (x,), bw)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse

    def bw(g):
        _accum(x, g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

    return _make(out_data, (x,), bw)


def fc_forward(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: w has shape (d_in, d_out)."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ConfigError(f"fc expects {w.data.shape[0]} inputs, got {x.data.shape[-1]}")
    out = matmul(x, w)
    if b is not None:
        out = out + b
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """(n, c, f, t) -> (n, c) mean over the spatial axes."""
    return tmean(x, axis=(2, 3))


def batch_norm_forward(x: Tensor, gamma: Tensor, beta: Tensor, running_stats,
                       training: bool, momentum: float = 0.1) -> Tensor:
    """Per-channel normalization over (n, f, t).

    ``running_stats`` is a dict with mutable "mean"/"var" arrays, updated in
    place during training and used verbatim at inference.
    """
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ConfigError(f"batch norm affine params must have shape ({c},)")
    gam = reshape(gamma, (1, c, 1, 1))
    bet = reshape(beta, (1, c, 1, 1))
    if training:
        mu = tmean(x, axis=(0, 2, 3), keepdims=True)
        xc = x - mu
        var = tmean(mul(xc, xc), axis=(0, 2, 3), keepdims=True)
        out = mul(xc, div_rsqrt(var)) * gam + bet
        m = running_stats["mean"]
        v = running_stats["var"]
        m += momentum * (mu.data.reshape(c).astype(m.dtype) - m)
        v += momentum * (var.data.reshape(c).astype(v.dtype) - v)
        return out
    rm = running_stats["mean"].reshape(1, c, 1, 1).astype(x.data.dtype)
    rv = running_stats["var"].reshape(1, c, 1, 1).astype(x.data.dtype)
    scale = 1.0 / np.sqrt(rv + EPS)
    return (x - Tensor(rm)) * Tensor(scale) * gam + bet


def div_rsqrt(var: Tensor) -> Tensor:
    """1 / sqrt(var + EPS), as a differentiable composite."""
    return 1.0 / sqrt(var + EPS)


def layer_norm_forward(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last (feature) axis with per-feature affine."""
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ConfigError(f"layer norm affine params must have shape ({d},)")
    mu = tmean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = tmean(mul(xc, xc), axis=-1, keepdims=True)
    return mul(xc, div_rsqrt(var)) * gamma + beta


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
    """Instance normalization retaining (n, f): stats over (c, t) per (n, f)."""
    mu = tmean(x, axis=(1, 3), keepdims=True)
    xc = x - mu
    var = tmean(mul(xc, xc), axis=(1, 3), keepdims=True)
    return mul(xc, div_rsqrt(var))


def arn_forward(x: Tensor, rho: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Learnable blend of identity and FIN, then per-channel scale/shift."""
    c = x.data.shape[1]
    gam = reshape(gamma, (1, c, 1, 1))
    bet = reshape(beta, (1, c, 1, 1))
    blended = mul(x, rho) + mul(fin_forward(x), 1.0 - rho)
    return mul(blended, gam) + bet


def mha_forward(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                heads: int, bq=None, bk=None, bv=None, bo=None) -> Tensor:
    """Scaled dot-product self-attention over the token axis.

    x: (tokens, d) or (n, tokens, d); projection weights are (d, d).
    """
    squeeze = x.data.ndim == 2
    if squeeze:
        x = reshape(x, (1,) + x.data.shape)
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
    att = softmax(att, axis=-1)
    ctx = matmul(att, v)                                    # (n, h, L, dh)
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (n, L, d))
    out = fc_forward(merged, wo, bo)
    if squeeze:
        out = reshape(out, (L, d))
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy; targets are one-hot (or soft) rows."""
    if logits.data.shape != targets.shape:
        raise UsageError(f"logits {logits.data.shape} vs targets {targets.shape}")
    ls = log_softmax(logits, axis=-1)
    per_row = tsum(mul(ls, Tensor(targets.astype(logits.data.dtype))), axis=-1)
    return -tmean(per_row)


def kl_from_teacher(teacher_probs: np.ndarray, student_logits: Tensor) -> Tensor:
    """Mean KL(teacher || student) with the teacher fixed."""
    ls = log_softmax(student_logits, axis=-1)
    p = teacher_probs.astype(student_logits.data.dtype)
    const = float((p * np.log(np.maximum(p, 1e-30))).sum(axis=-1).mean())
    cross = tmean(tsum(mul(ls, Tensor(p)), axis=-1))
    return const - cross


__all__ = [
    "EPS", "arn_forward", "batch_norm_forward",
    "bsconv_forward", "channel_shuffle", "concat", "cross_entropy",
    "depthwise_conv2d", "fc_forward", "fin_forward", "global_avg_pool",
    "grn_forward", "kl_from_teacher", "layer_norm_forward", "log",
    "log_softmax", "matmul", "maxpool2d", "mha_forward", "mul",
    "pointwise_conv2d", "relu", "reshape", "softmax", "sqrt", "tmean",
    "transpose", "tsum", "exp",
]
