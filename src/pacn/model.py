"""The parallel attention-convolution network.

Architecture: a pre-processing stack of BSConv stages feeds two branches.
The local branch (LCI) is convolutional: global response normalization of
its map, then global average pooling; the global branch (GCI) tokenizes the
map along time and runs one pre-norm attention block. A fusion head
concatenates both vectors, shuffles channels, and maps to class logits.
Three wiring modes: parallel (both branches on the pre-processed map),
serial (LCI consumes the GCI tokens re-injected as a map), and no_fusion
(independent heads, averaged logits).
"""

from __future__ import annotations

import math
import struct
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import ops
from .audio import N_BINS, N_FRAMES, N_MELS
from .augment import SpectrumCorrection
from .errors import (ConfigError, IngestionError, JsonConfig, UsageError,
                     check_field_types)
from .seeding import PURPOSE_INIT, derive_rng
from .tensor import (Tensor, concat, no_grad, relu, reshape, tmean,
                     transpose)

CHECKPOINT_MAGIC = b"PACNCKPT"
CHECKPOINT_VERSION = 1
CORRECTION_PREFIX = "correction."       # + device id: one (2049,) entry each

WIRING_MODES = ("parallel", "serial", "no_fusion")


def _positive_ints(values) -> bool:
    # bool is an int subclass, but JSON true is no size
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               and v >= 1 for v in values)


@dataclass
class PacnConfig(JsonConfig):
    pre_channels: list = field(default_factory=lambda: [3, 16])
    pre_pools: list = field(default_factory=lambda: [[4, 2], [4, 2]])
    lci_channels: list = field(default_factory=lambda: [16, 16])
    gci_embed_dim: int = 16
    gci_heads: int = 4
    gci_mlp_hidden: int = 64
    shuffle_groups: int = 2
    num_classes: int = 10
    wiring_mode: str = "parallel"
    arn_enabled: bool = True
    in_channels: int = 2

    def validate(self):
        check_field_types(self)
        for name in ("pre_channels", "lci_channels"):
            widths = getattr(self, name)
            if not widths or not _positive_ints(widths):
                raise ConfigError(f"{name} must be a non-empty list of "
                                  "positive integers")
        if not all(isinstance(p, (list, tuple)) and len(p) == 2
                   and _positive_ints(p) for p in self.pre_pools):
            raise ConfigError("pre_pools must be a list of [freq, time] "
                              "pairs of positive integers")
        if len(self.pre_pools) != len(self.pre_channels):
            raise ConfigError(f"{len(self.pre_channels)} pre stages but "
                              f"{len(self.pre_pools)} pool windows")
        f, t = N_MELS, N_FRAMES
        for pf, pt in self.pre_pools:
            f, t = f // pf, t // pt
        if f < 1 or t < 1:
            raise ConfigError(f"pre_pools leave a {f} x {t} map of the "
                              f"{N_MELS} x {N_FRAMES} feature")
        for name in ("gci_embed_dim", "gci_heads", "gci_mlp_hidden",
                     "shuffle_groups", "num_classes", "in_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.gci_embed_dim % self.gci_heads != 0:
            raise ConfigError(f"embed dim {self.gci_embed_dim} not divisible "
                              f"by {self.gci_heads} heads")
        fused = self.gci_embed_dim + self.lci_channels[-1]
        if fused % self.shuffle_groups != 0:
            raise ConfigError(f"fused width {fused} not divisible by "
                              f"{self.shuffle_groups} shuffle groups")
        if self.wiring_mode not in WIRING_MODES:
            raise ConfigError(f"unknown wiring mode {self.wiring_mode!r}; "
                              f"expected one of {WIRING_MODES}")
        return self


def packaged_config(name: str) -> PacnConfig:
    """The ``"student"`` or ``"teacher"`` config shipped with the package."""
    text = (resources.files("pacn") / "configs" / f"{name}.json").read_text()
    return PacnConfig.from_json(text)


def check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Raise ConfigError if a label lies beyond the model's last class."""
    top = int(labels.max())
    if top >= num_classes:
        raise ConfigError(f"dataset has label {top} but the model predicts "
                          f"{num_classes} classes")


class Layer(NamedTuple):
    """One ``pacn profile`` row: its name, kind and MACs per clip, and its
    parameters as ``(path, shape, std, value)``, a normal draw scaled by
    ``std`` if one is given, else the constant ``value``."""
    name: str
    kind: str
    macs: int
    tensors: list

    @property
    def params(self) -> int:
        return sum(math.prod(shape) for _, shape, _, _ in self.tensors)


def layers(config: PacnConfig) -> list[Layer]:
    """The network's ``Layer`` rows in build order for one ``N_MELS`` x
    ``N_FRAMES`` clip: ``PacnModel`` allocates their tensors, and
    ``pacn.profiler`` reports them and states how MACs are counted."""
    config.validate()
    out = []

    def add(row, kind, macs, *params):
        out.append(Layer(row, kind, int(macs), [(f"{row}.{name}", shape, std, value)
                                                for name, shape, std, value in params]))

    def affine(c, gamma=1.0):
        return ("gamma", (c,), None, gamma), ("beta", (c,), None, 0.0)

    def arn(c):
        return (("rho", (), None, 0.5),) + affine(c)

    def fc(d_in, d_out, prefix="", gain=2.0):
        return ((prefix + "weight", (d_in, d_out), np.sqrt(gain / d_in), None),
                (prefix + "bias", (d_out,), None, 0.0))

    def bsconv(path, c_in, c_out, positions):
        add(f"{path}.pw", "conv", positions * c_out * c_in,
            ("weight", (c_out, c_in), np.sqrt(2.0 / c_in), None),
            ("bias", (c_out,), None, 0.0))
        add(f"{path}.dw", "conv", positions * c_out * 9,
            ("weight", (c_out, 3, 3), np.sqrt(2.0 / 9.0), None),
            ("bias", (c_out,), None, 0.0))

    f, t = N_MELS, N_FRAMES
    c_in = config.in_channels
    for i, (c_out, (pf, pt)) in enumerate(zip(config.pre_channels,
                                              config.pre_pools)):
        bsconv(f"pre.{i}", c_in, c_out, f * t)
        if config.arn_enabled and i == 0:
            add("pre.first_conv_arn", "norm", f * t * c_out, *arn(c_out))
        add(f"pre.{i}.bn", "norm", f * t * c_out, *affine(c_out))
        f, t = f // pf, t // pt
        add(f"pre.{i}.pool", "maxpool", 0)
        if config.arn_enabled:
            add(f"pre.{i}.arn", "norm", f * t * c_out, *arn(c_out))
        c_in = c_out
    c_pre = c_in

    d, hidden, tokens = config.gci_embed_dim, config.gci_mlp_hidden, t
    add("gci.freq_pool", "avgpool", c_pre * tokens)
    add("gci.proj", "fc", tokens * c_pre * d, *fc(c_pre, d))
    add("gci.ln1", "norm", tokens * d, *affine(d))
    add("gci.attn", "attention", 4 * tokens * d * d + 2 * tokens * tokens * d,
        *[p for w in ("wq", "wk", "wv", "wo") for p in fc(d, d, f"{w}.", 1.0)])
    add("gci.ln2", "norm", tokens * d, *affine(d))
    add("gci.mlp.fc1", "fc", tokens * d * hidden, *fc(d, hidden))
    add("gci.mlp.fc2", "fc", tokens * hidden * d, *fc(hidden, d))
    add("gci.token_mean", "avgpool", d)
    if config.wiring_mode == "serial":
        add("gci.reinject", "fc", tokens * d * c_pre, *fc(d, c_pre))

    for i, c_out in enumerate(config.lci_channels):
        bsconv(f"lci.{i}", c_in, c_out, f * t)
        add(f"lci.{i}.bn", "norm", f * t * c_out, *affine(c_out))
        c_in = c_out
    add("lci.grn", "norm", f * t * c_in, *affine(c_in, gamma=0.0))
    add("lci.global_pool", "avgpool", c_in)

    classes = config.num_classes
    if config.wiring_mode == "no_fusion":
        add("head.fc_gci", "fc", d * classes, *fc(d, classes))
        add("head.fc_lci", "fc", c_in * classes, *fc(c_in, classes))
    else:
        add("head.fc", "fc", (d + c_in) * classes, *fc(d + c_in, classes))
    return out


def features_to_input(batch: np.ndarray) -> Tensor:
    """(n, 2, 256, 65) feature stack -> network input, not copied: no op writes into it."""
    return Tensor(np.ascontiguousarray(batch))


class PacnModel:
    """Config-driven network holding an ordered layer-path -> Tensor map.

    ``correction`` is the spectrum correction the model was trained with
    (None if none); it is saved with the weights and applied by ``eval``.
    """

    def __init__(self, config: PacnConfig, seed: int = 0,
                 dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self.state: dict[str, dict] = {}
        self.correction: SpectrumCorrection | None = None
        try:
            self._build(seed)
        except MemoryError:
            raise ConfigError(f"config needs {sum(r.params for r in layers(config))} "
                              "parameters, more than memory can hold") from None

    def _build(self, seed: int):
        """Allocate ``layers(config)``'s parameters in order, plus running
        statistics for each batch-norm row."""
        rng = derive_rng(seed, PURPOSE_INIT)
        for row, _, _, tensors in layers(self.config):
            for path, shape, std, value in tensors:
                data = (np.full(shape, value, dtype=self.dtype) if std is None
                        else (rng.standard_normal(shape) * std).astype(self.dtype))
                self.params[path] = Tensor(data, requires_grad=True)
            if row.endswith(".bn"):
                c = self.params[f"{row}.gamma"].data.shape
                self.state[row] = {"mean": np.zeros(c, dtype=self.dtype),
                                   "var": np.ones(c, dtype=self.dtype)}

    # -- forward -----------------------------------------------------------

    def _bsconv(self, x: Tensor, path: str) -> Tensor:
        p = self.params
        return ops.bsconv_forward(x, p[f"{path}.pw.weight"], p[f"{path}.dw.weight"],
                                  p[f"{path}.pw.bias"], p[f"{path}.dw.bias"])

    def _bn(self, x: Tensor, path: str, training: bool) -> Tensor:
        return ops.batch_norm_forward(x, self.params[f"{path}.gamma"],
                                      self.params[f"{path}.beta"],
                                      self.state[path], training)

    def _arn(self, x: Tensor, path: str) -> Tensor:
        p = self.params
        return ops.arn_forward(x, p[f"{path}.rho"], p[f"{path}.gamma"],
                               p[f"{path}.beta"])

    def _fc(self, x: Tensor, path: str) -> Tensor:
        return ops.fc_forward(x, self.params[f"{path}.weight"],
                              self.params[f"{path}.bias"])

    def _pre_block_rows(self, x: np.ndarray) -> int:
        """Rows whose widest pre-stage map fits in ``ops.CACHE_BYTES``, so
        each block's maps stay cached from layer to layer."""
        cfg = self.config
        f, t = x.shape[2:]
        widest = 1
        for c, (pf, pt) in zip(cfg.pre_channels, cfg.pre_pools):
            widest = max(widest, c * f * t)
            f, t = f // pf, t // pt
        itemsize = np.result_type(x.dtype, self.dtype).itemsize
        return max(1, ops.CACHE_BYTES // (widest * itemsize))

    def preprocess_forward(self, x: Tensor, training: bool = False) -> Tensor:
        """Pre-processing stack; inference runs it in cache-sized row blocks.

        At inference every pre-stage layer is row-independent (BN uses its
        running statistics, ARN normalizes within a row), so a row's output
        is the same bits in any block. Training keeps the whole batch: BN
        needs its batch statistics.
        """
        cfg = self.config
        if x.data.ndim != 4 or x.data.shape[1] != cfg.in_channels:
            raise ConfigError(f"expected (n, {cfg.in_channels}, f, t) input, "
                              f"got {x.data.shape}")
        n = x.data.shape[0]
        if n == 0:
            raise ConfigError("empty input batch")
        rows = self._pre_block_rows(x.data)
        if training or n <= rows:
            return self._pre_stages(x, training)
        return Tensor(np.concatenate(
            [self._pre_stages(Tensor(x.data[s:s + rows]), False).data
             for s in range(0, n, rows)]))

    def _pre_stages(self, x: Tensor, training: bool) -> Tensor:
        cfg = self.config
        for i, pool in enumerate(cfg.pre_pools):
            x = self._bsconv(x, f"pre.{i}")
            if cfg.arn_enabled and i == 0:
                x = self._arn(x, "pre.first_conv_arn")
            x = self._bn(x, f"pre.{i}.bn", training)
            # max-pool commutes with relu; pooling first leaves relu a
            # smaller map
            x = relu(ops.maxpool2d(x, tuple(pool)))
            if cfg.arn_enabled:
                x = self._arn(x, f"pre.{i}.arn")
        return x

    def gci_forward(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """Map -> attention block; returns (tokens (n,t,d), pooled (n,d))."""
        p = self.params
        tk = transpose(tmean(h, axis=2), (0, 2, 1))      # (n, t, c_pre)
        tk = self._fc(tk, "gci.proj")
        normed = ops.layer_norm_forward(tk, p["gci.ln1.gamma"], p["gci.ln1.beta"])
        att = ops.mha_forward(normed,
                              p["gci.attn.wq.weight"], p["gci.attn.wk.weight"],
                              p["gci.attn.wv.weight"], p["gci.attn.wo.weight"],
                              heads=self.config.gci_heads,
                              bq=p["gci.attn.wq.bias"], bk=p["gci.attn.wk.bias"],
                              bv=p["gci.attn.wv.bias"], bo=p["gci.attn.wo.bias"])
        a = tk + att
        normed2 = ops.layer_norm_forward(a, p["gci.ln2.gamma"], p["gci.ln2.beta"])
        hidden = relu(self._fc(normed2, "gci.mlp.fc1"))
        b = a + self._fc(hidden, "gci.mlp.fc2")
        return b, tmean(b, axis=1)

    def lci_forward(self, h: Tensor, training: bool = False) -> Tensor:
        cfg = self.config
        for i in range(len(cfg.lci_channels)):
            h = self._bsconv(h, f"lci.{i}")
            h = self._bn(h, f"lci.{i}.bn", training)
            h = relu(h)
        h = ops.grn_forward(h, self.params["lci.grn.gamma"],
                            self.params["lci.grn.beta"])
        return ops.global_avg_pool(h)

    def _reinject(self, tokens: Tensor, freq_bins: int) -> Tensor:
        """(n, t, d) tokens -> (n, c_pre, f, t) map, constant along frequency."""
        m = self._fc(tokens, "gci.reinject")                 # (n, t, c_pre)
        m = transpose(m, (0, 2, 1))                          # (n, c_pre, t)
        n, c, t = m.data.shape
        m = reshape(m, (n, c, 1, t))
        ones = Tensor(np.ones((1, 1, freq_bins, 1), dtype=m.data.dtype))
        return m * ones

    def fuse_forward(self, gci_vec: Tensor, lci_vec: Tensor) -> Tensor:
        mode = self.config.wiring_mode
        if mode == "no_fusion":
            return (self._fc(gci_vec, "head.fc_gci")
                    + self._fc(lci_vec, "head.fc_lci")) * 0.5
        fused = concat([gci_vec, lci_vec], axis=1)
        fused = ops.channel_shuffle(fused, self.config.shuffle_groups)
        return self._fc(fused, "head.fc")

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """Logits for an input batch; inference mode records no graph."""
        with nullcontext() if training else no_grad():
            h = self.preprocess_forward(x, training)
            if self.config.wiring_mode == "serial":
                tokens, gci_vec = self.gci_forward(h)
                m = self._reinject(tokens, h.data.shape[2])
                lci_vec = self.lci_forward(m, training)
            else:
                _, gci_vec = self.gci_forward(h)
                lci_vec = self.lci_forward(h, training)
            return self.fuse_forward(gci_vec, lci_vec)

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        return self.forward(x, training)

    # -- bookkeeping ---------------------------------------------------------

    def num_params(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def clamp_arn(self):
        """Pin every ARN blend weight back into [0, 1] (post-step hook)."""
        for path, t in self.params.items():
            if path.endswith(".rho"):
                np.clip(t.data, 0.0, 1.0, out=t.data)

    # -- checkpoint I/O --------------------------------------------------------

    def _entries(self):
        # the correction goes first, so a file cut anywhere misses a weight
        if self.correction is not None:
            for dev, c in self.correction.coeffs.items():
                yield CORRECTION_PREFIX + dev, c
        for path, t in self.params.items():
            yield path, t.data
        for path, st in self.state.items():
            yield f"state.{path}.mean", st["mean"]
            yield f"state.{path}.var", st["var"]

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            cfg = self.config.to_json().encode("utf-8")
            fh.write(struct.pack("<I", len(cfg)))
            fh.write(cfg)
            for name, data in self._entries():
                enc = name.encode("utf-8")
                fh.write(struct.pack("<I", len(enc)))
                fh.write(enc)
                fh.write(struct.pack("<I", data.ndim))
                fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
                fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())

    @classmethod
    def load(cls, path) -> "PacnModel":
        """Restore a checkpoint; any malformed input raises a PacnError."""
        with open(path, "rb") as fh:
            if fh.read(8) != CHECKPOINT_MAGIC:
                raise IngestionError(f"{path} is not a checkpoint (bad magic)")
            reader = _CheckpointReader(fh.read(), path)
        (version,) = reader.u32s(1, "version")
        if version != CHECKPOINT_VERSION:
            raise IngestionError(f"unsupported checkpoint version {version}")
        config = PacnConfig.from_json(reader.text("config"))
        n_params = sum(r.params for r in layers(config))
        if 4 * n_params > len(reader.raw) - reader.pos:
            # checked before the model is built, so a forged config cannot
            # allocate more memory than the file could fill
            raise IngestionError(f"checkpoint/config mismatch in {path}: the "
                                 f"config needs {n_params} parameters, more "
                                 "than the file holds")
        model = cls(config)
        expected = dict(model._entries())
        corrections = {}
        loaded = set()
        while not reader.done():
            name = reader.text("tensor name")
            (ndim,) = reader.u32s(1, name)
            shape = reader.u32s(ndim, name)
            if name.startswith(CORRECTION_PREFIX):
                target = np.empty(N_BINS, dtype=np.float32)
                corrections[name.removeprefix(CORRECTION_PREFIX)] = target
            else:
                target = expected.get(name)
            if target is None:
                raise IngestionError(f"checkpoint/config mismatch in {path}: "
                                     f"unexpected tensor {name!r}")
            if shape != target.shape:
                raise IngestionError(f"tensor {name} in {path} has shape "
                                     f"{shape}, expected {target.shape}")
            raw = reader.take(4 * target.size, name)
            target[...] = np.frombuffer(raw, dtype="<f4").reshape(shape)
            if not np.isfinite(target).all():
                raise IngestionError(f"tensor {name} in {path} holds "
                                     "non-finite values")
            if name.startswith("state.") and name.endswith(".var") and target.min() < 0:
                raise IngestionError(f"tensor {name} in {path} holds a negative variance")
            loaded.add(name)
        missing = set(expected) - loaded
        if missing:
            raise IngestionError(f"checkpoint/config mismatch in {path}: "
                                 f"missing {sorted(missing)[:3]}")
        if corrections:
            try:
                model.correction = SpectrumCorrection(corrections)
            except UsageError as exc:
                raise IngestionError(f"{path}: {exc}") from None
        return model


class _CheckpointReader:
    """Length-checked cursor over checkpoint bytes.

    Every read checks the bytes left first, so a truncated or corrupted file
    raises IngestionError instead of a struct or decode error.
    """

    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def done(self) -> bool:
        return self.pos == len(self.raw)

    def take(self, n: int, what: str) -> bytes:
        if n > len(self.raw) - self.pos:
            raise IngestionError(f"truncated {what} in {self.path}")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32s(self, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self.take(4 * count, what))

    def text(self, what: str) -> str:
        (n,) = self.u32s(1, what)
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise IngestionError(f"{what} in {self.path} is not UTF-8") from None
