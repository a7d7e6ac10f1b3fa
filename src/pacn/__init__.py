"""Parallel attention-convolution networks for acoustic scene classification.

A self-contained toolkit: numpy-based autodiff, log-Mel front-end,
augmentation, the two-branch model in three wiring modes, knowledge
distillation training, a complexity profiler, and rank statistics for
cross-device evaluation.
"""

__version__ = "0.1.0"

from .tensor import Tensor, count_multiplies, no_grad

__all__ = ["Tensor", "count_multiplies", "no_grad", "__version__"]
