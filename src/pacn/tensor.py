"""Dense tensor with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 in production, float64 in the gradient
check harness). Every differentiable operation records its parents and a
backward closure on the output tensor; ``backward(loss)`` topologically
sorts the recorded graph and runs one reverse sweep, accumulating ``.grad``
on every tensor that requires it.

A recorded graph must not be driven from two threads at once; tensors
themselves are treated as immutable values once created.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import UsageError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    # -- arithmetic sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_const_like(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_const_like(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _const_like(value, ref: Tensor) -> Tensor:
    return Tensor(np.asarray(value, dtype=ref.data.dtype))


def _coerce(x, ref: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return _const_like(x, ref)


def _make(data: np.ndarray, parents, backward_fn) -> Tensor:
    """Wrap an op result, recording the graph edge when grads are on."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not (t.requires_grad or t._parents):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor):
    """Reverse sweep from a scalar loss; fills ``.grad`` on trainable leaves."""
    if loss.data.size != 1:
        raise UsageError(f"backward() needs a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and (p.requires_grad or p._parents):
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# -- elementary differentiable ops ----------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data + b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw)


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data - b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def div(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data / b.data

    def bw(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, -g)

    return _make(-a.data, (a,), bw)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bw(g):
        _accum(a, g * out_data)

    return _make(out_data, (a,), bw)


def log(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, g / a.data)

    return _make(np.log(a.data), (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def bw(g):
        _accum(a, g * (0.5 / out_data))

    return _make(out_data, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def bw(g):
        _accum(a, g * (a.data > 0))

    return _make(out_data, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = np.matmul(a.data, b.data)
    _tally_macs(out_data.size * a.data.shape[-1])

    def bw(g):
        _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape))
        _accum(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))

    return _make(out_data, (a, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.data.shape

    def bw(g):
        _accum(a, g.reshape(in_shape))

    return _make(a.data.reshape(shape), (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        _accum(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), bw)


def concat(ts: list[Tensor], axis: int = 0) -> Tensor:
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _make(out_data, tuple(ts), bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    axes = _norm_axes(axis, a.data.ndim)

    def bw(g):
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    if axes is None:
        count = a.data.size
    else:
        count = int(np.prod([a.data.shape[i] for i in axes]))
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    scale = 1.0 / count

    def bw(g):
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        _accum(a, np.broadcast_to(g * scale, a.data.shape).astype(a.data.dtype))

    return _make(out_data, (a,), bw)


def _norm_axes(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


# -- multiply tally (used by the complexity profiler) ----------------------

_mac_tally = None


@contextmanager
def count_multiplies():
    """Tally multiply ops of conv/FC/attention kernels executed inside.

    Single-threaded use only. Yields a one-element list holding the count.
    """
    global _mac_tally
    prev = _mac_tally
    _mac_tally = [0]
    try:
        yield _mac_tally
    finally:
        _mac_tally = prev


def _tally_macs(n: int):
    if _mac_tally is not None:
        _mac_tally[0] += int(n)
