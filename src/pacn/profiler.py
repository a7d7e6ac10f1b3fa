"""Complexity profiler: parameter and MAC counts as a pure function of config.

Counting conventions (per clip, batch size 1):
  - conv MACs = output elements x kernel multiplies (1x1: c_in; depth-wise
    3x3: 9); FC MACs = positions x d_in x d_out; attention = 4Ld^2 + 2L^2d.
  - every normalization (BN, LN, GRN, ARN including its internal stats) and
    every average pool costs 1 MAC per output element.
  - ReLU, max pooling, residual adds, concatenation, channel shuffle,
    softmax, and logit averaging cost 0.

The rows and counts are ``model.layers``, the same table ``PacnModel`` is
built from, so nothing here runs the network; ``verify_against_runtime``
cross-checks the kernel subtotal against an instrumented forward pass.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .audio import N_FRAMES, N_MELS
from .errors import ConfigError
from .model import PacnConfig, PacnModel, layers
from .tensor import Tensor, count_multiplies

KERNEL_KINDS = ("conv", "fc", "attention")


@dataclass
class ProfileReport:
    rows: list                          # ``model.Layer`` rows

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


def profile(config: PacnConfig) -> ProfileReport:
    """The ``layers(config)`` table with its totals and text and CSV forms."""
    return ProfileReport(layers(config))


@dataclass
class RuntimeCheck:
    runtime_macs: int
    kernel_macs: int

    @property
    def matched(self) -> bool:
        return self.runtime_macs == self.kernel_macs


def verify_against_runtime(config: PacnConfig) -> RuntimeCheck:
    """Run one instrumented forward pass and compare multiply counts.

    The runtime tally sees exactly the conv/FC/attention kernel multiplies
    (BN, LN, FIN and ARN are the one ``ops.normalize`` op, which tallies
    nothing, and GRN is built from elementwise ops the tally ignores), so it
    must equal the profiler's kernel subtotal, not its grand total.
    """
    model = PacnModel(config, seed=0)
    shape = (1, config.in_channels, N_MELS, N_FRAMES)
    try:
        x = Tensor(np.random.default_rng(0).standard_normal(shape).astype(np.float32))
        with count_multiplies() as tally:
            model.forward(x, training=False)
    except MemoryError:
        raise ConfigError(f"a check forward on a {shape} input needs more "
                          "memory than is available") from None
    return RuntimeCheck(runtime_macs=tally[0], kernel_macs=profile(config).kernel_macs)
