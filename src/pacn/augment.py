"""Data augmentation: mixup, device spectrum correction, pitch shift, audio mix.

Pitch shift and audio mix act on waveforms at load time; mixup acts on whole
batches of features; spectrum correction scales power spectra per frequency
bin by the square ``c²`` of a device's magnitude coefficients before Mel
filtering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import N_BINS, AudioClip, to_clip
from .errors import UsageError

PITCH_FACTORS = (0.90, 0.95, 1.05, 1.10)
EPS_CORRECTION = 1e-8


@dataclass
class AugmentConfig:
    mixup_prob: float = 0.5
    pitch_prob: float = 0.3
    pitch_factors: tuple = PITCH_FACTORS
    audio_mix_prob: float = 0.3
    audio_mix_low: float = 0.4
    audio_mix_high: float = 0.6


# -- mixup -------------------------------------------------------------------


@dataclass
class MixupBatch:
    eta: float
    pair_index: np.ndarray


def draw_mixup(batch_size: int, rng: np.random.Generator,
               alpha: float) -> MixupBatch:
    """Pair the batch with a permutation of itself and draw the Beta weight."""
    return MixupBatch(eta=float(rng.beta(alpha, alpha)),
                      pair_index=rng.permutation(batch_size))


def apply_mixup(x: np.ndarray, y: np.ndarray, mb: MixupBatch):
    """Convex combination of a batch with its permutation; the labels are
    mixed with the same weight."""
    x_j, y_j = x[mb.pair_index], y[mb.pair_index]
    return (mb.eta * x + (1.0 - mb.eta) * x_j,
            mb.eta * y + (1.0 - mb.eta) * y_j)


# -- spectrum correction ------------------------------------------------------


class SpectrumCorrection:
    """Per-device frequency-response correction coefficients (2049 bins).

    The coefficients are rounded to float32 here, the precision a checkpoint
    stores, so a model applies the same bits in training and after loading.
    Read-only; ``train.warn_unseen`` warns of a device it lacks.
    """

    def __init__(self, coeffs: dict[str, np.ndarray]):
        self.coeffs: dict[str, np.ndarray] = {}
        for dev, c in coeffs.items():
            with np.errstate(over="ignore"):    # overflow is rejected below
                c = np.array(c, dtype=np.float32)
            if c.shape != (N_BINS,):
                raise UsageError(f"device {dev}: expected {N_BINS} coefficients, "
                                 f"got shape {c.shape}")
            if not (np.isfinite(c).all() and (c > 0).all()):
                raise UsageError(f"device {dev}: coefficients must be positive "
                                 "and finite")
            self.coeffs[dev] = c

    def coeff_for(self, device_id: str) -> np.ndarray | None:
        """The device's coefficients, or None for a device it has no entry for."""
        return self.coeffs.get(device_id)


def estimate_correction(spectra_by_device: dict[str, np.ndarray]) -> SpectrumCorrection:
    """Fit coefficients from aligned mean magnitude spectra.

    Each device contributes one or more (2049,) spectra of shared content;
    the reference response is the across-device mean of per-device means.
    """
    if not spectra_by_device:
        raise UsageError("spectrum correction needs at least one device")
    responses = {}
    for dev, spectra in spectra_by_device.items():
        arr = np.atleast_2d(np.asarray(spectra, dtype=np.float64))
        if arr.shape[1] != N_BINS:
            raise UsageError(f"device {dev}: spectra must have {N_BINS} bins")
        responses[dev] = arr.mean(axis=0)
    reference = np.mean(list(responses.values()), axis=0)
    return SpectrumCorrection({dev: reference / (resp + EPS_CORRECTION)
                               for dev, resp in responses.items()})


# -- waveform-domain augmentations --------------------------------------------


def pitch_shift(clip: AudioClip, factor: float) -> AudioClip:
    """Scale all frequencies by ``factor`` via linear resampling."""
    if factor <= 0:
        raise UsageError(f"pitch factor must be positive, got {factor}")
    return AudioClip(samples=to_clip(clip.samples, 1.0 / factor),
                     scene_label=clip.scene_label, device_id=clip.device_id,
                     city=clip.city)


def audio_mix(clip_a: AudioClip, clip_b: AudioClip, w: float) -> AudioClip:
    """Blend two same-class clips; no one device recorded it: device_id None."""
    if clip_a.scene_label != clip_b.scene_label:
        raise UsageError(f"audio mix needs matching labels, got "
                         f"{clip_a.scene_label} and {clip_b.scene_label}")
    samples = w * clip_a.samples.astype(np.float64) \
        + (1.0 - w) * clip_b.samples.astype(np.float64)
    return AudioClip(samples=samples.astype(np.float32),
                     scene_label=clip_a.scene_label,
                     device_id=None, city=clip_a.city)


def augment_clip(clip: AudioClip, same_class_pool, rng: np.random.Generator,
                 cfg: AugmentConfig) -> AudioClip:
    """Apply the per-clip waveform policy: maybe mix, maybe pitch-shift.

    ``same_class_pool`` is a sequence of clips sharing the label (the clip
    itself may be among them; self-mix is harmless).
    """
    if len(same_class_pool) > 0 and rng.random() < cfg.audio_mix_prob:
        partner = same_class_pool[rng.integers(len(same_class_pool))]
        w = rng.uniform(cfg.audio_mix_low, cfg.audio_mix_high)
        clip = audio_mix(clip, partner, w)
    if rng.random() < cfg.pitch_prob:
        factor = cfg.pitch_factors[rng.integers(len(cfg.pitch_factors))]
        clip = pitch_shift(clip, factor)
    return clip
