"""Complexity profiler: parameter and MAC counts as a pure function of config.

Counting conventions (per clip, batch size 1):
  - conv MACs = output elements x kernel multiplies (1x1: c_in; depth-wise
    3x3: 9); FC MACs = positions x d_in x d_out; attention = 4Ld^2 + 2L^2d.
  - every normalization (BN, LN, GRN, ARN including its internal stats) and
    every average pool costs 1 MAC per output element.
  - ReLU, max pooling, residual adds, concatenation, channel shuffle,
    softmax, and logit averaging cost 0.

The counts here are computed by walking the config, never by running the
network; ``verify_against_runtime`` cross-checks the kernel subtotal against
an instrumented forward pass.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .audio import N_FRAMES, N_MELS
from .model import PacnConfig, PacnModel
from .tensor import Tensor, count_multiplies

KERNEL_KINDS = ("conv", "fc", "attention")


@dataclass
class ProfileRow:
    name: str
    kind: str
    params: int
    macs: int


@dataclass
class ProfileReport:
    rows: list

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def kernel_macs(self) -> int:
        """Multiplies done by conv/FC/attention kernels only."""
        return sum(r.macs for r in self.rows if r.kind in KERNEL_KINDS)

    def format_text(self) -> str:
        width = max(len(r.name) for r in self.rows)
        lines = [f"{'layer':<{width}}  {'kind':<9} {'params':>8} {'macs':>10}"]
        for r in self.rows:
            lines.append(f"{r.name:<{width}}  {r.kind:<9} {r.params:>8} {r.macs:>10}")
        lines.append(f"{'total':<{width}}  {'':<9} {self.total_params:>8} "
                     f"{self.total_macs:>10}")
        return "\n".join(lines)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "kind", "params", "macs"])
            for r in self.rows:
                writer.writerow([r.name, r.kind, r.params, r.macs])
            writer.writerow(["total", "", self.total_params, self.total_macs])


def profile(config: PacnConfig, in_shape=(N_MELS, N_FRAMES)) -> ProfileReport:
    config.validate()
    rows = []

    def add(name, kind, params, macs):
        rows.append(ProfileRow(name, kind, int(params), int(macs)))

    f, t = in_shape
    c_in = config.in_channels
    for i, (c_out, pool) in enumerate(zip(config.pre_channels, config.pre_pools)):
        add(f"pre.{i}.pw", "conv", c_in * c_out + c_out, f * t * c_out * c_in)
        add(f"pre.{i}.dw", "conv", 9 * c_out + c_out, f * t * c_out * 9)
        if config.arn_enabled and i == 0:
            add("pre.first_conv_arn", "norm", 2 * c_out + 1, f * t * c_out)
        add(f"pre.{i}.bn", "norm", 2 * c_out, f * t * c_out)
        f, t = f // pool[0], t // pool[1]
        add(f"pre.{i}.pool", "maxpool", 0, 0)
        if config.arn_enabled:
            add(f"pre.{i}.arn", "norm", 2 * c_out + 1, f * t * c_out)
        c_in = c_out
    c_pre = c_in

    d = config.gci_embed_dim
    mlp = config.gci_mlp_hidden
    tokens = t
    add("gci.freq_pool", "avgpool", 0, c_pre * tokens)
    add("gci.proj", "fc", c_pre * d + d, tokens * c_pre * d)
    add("gci.ln1", "norm", 2 * d, tokens * d)
    add("gci.attn", "attention", 4 * (d * d + d),
        4 * tokens * d * d + 2 * tokens * tokens * d)
    add("gci.ln2", "norm", 2 * d, tokens * d)
    add("gci.mlp.fc1", "fc", d * mlp + mlp, tokens * d * mlp)
    add("gci.mlp.fc2", "fc", mlp * d + d, tokens * mlp * d)
    add("gci.token_mean", "avgpool", 0, d)
    if config.wiring_mode == "serial":
        add("gci.reinject", "fc", d * c_pre + c_pre, tokens * d * c_pre)

    for i, c_out in enumerate(config.lci_channels):
        add(f"lci.{i}.pw", "conv", c_in * c_out + c_out, f * t * c_out * c_in)
        add(f"lci.{i}.dw", "conv", 9 * c_out + c_out, f * t * c_out * 9)
        add(f"lci.{i}.bn", "norm", 2 * c_out, f * t * c_out)
        c_in = c_out
    add("lci.grn", "norm", 2 * c_in, f * t * c_in)
    add("lci.global_pool", "avgpool", 0, c_in)

    classes = config.num_classes
    c_lci = config.lci_channels[-1]
    if config.wiring_mode == "no_fusion":
        add("head.fc_gci", "fc", d * classes + classes, d * classes)
        add("head.fc_lci", "fc", c_lci * classes + classes, c_lci * classes)
    else:
        add("head.fc", "fc", (d + c_lci) * classes + classes,
            (d + c_lci) * classes)
    return ProfileReport(rows)


@dataclass
class RuntimeCheck:
    runtime_macs: int
    kernel_macs: int

    @property
    def matched(self) -> bool:
        return self.runtime_macs == self.kernel_macs


def verify_against_runtime(config: PacnConfig,
                           in_shape=(N_MELS, N_FRAMES)) -> RuntimeCheck:
    """Run one instrumented forward pass and compare multiply counts.

    The runtime tally sees exactly the conv/FC/attention kernel multiplies
    (BN, LN, FIN and ARN are the one ``ops.normalize`` op, which tallies
    nothing, and GRN is built from elementwise ops the tally ignores), so it
    must equal the profiler's kernel subtotal, not its grand total.
    """
    report = profile(config, in_shape)
    model = PacnModel(config, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(
        (1, config.in_channels) + tuple(in_shape)).astype(np.float32))
    with count_multiplies() as tally:
        model.forward(x, training=False)
    return RuntimeCheck(runtime_macs=tally[0], kernel_macs=report.kernel_macs)
