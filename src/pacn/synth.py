"""Deterministic synthetic acoustic-scene dataset generator.

Each class is a recipe of harmonic tones plus one band-limited noise burst;
each recording device is a fixed spectral tilt applied on top. Clips are
rendered straight to 1 s 44.1 kHz WAV files together with a manifest, so the
full training/evaluation pipeline can run self-contained.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .audio import CLIP_SAMPLES, SAMPLE_RATE, write_wav
from .errors import ConfigError, JsonConfig, check_field_types
from .manifest import SCENE_LABELS, ManifestRow, write_manifest
from .seeding import PURPOSE_SYNTH, derive_rng

# device identifiers follow the common real/simulated naming scheme
DEVICE_NAMES = ("a", "b", "c", "s1", "s2", "s3", "s4", "s5", "s6")

CITIES = (
    "barcelona", "helsinki", "lisbon", "london", "lyon",
    "milan", "paris", "prague", "stockholm", "vienna",
)


@dataclass
class SynthSpec(JsonConfig):
    classes: int = 4
    clips_per_class: int = 100
    devices: int = 3
    seed: int = 0
    tone_level: float = 0.5
    noise_level: float = 0.25

    def validate(self) -> "SynthSpec":
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 1 <= self.classes <= len(SCENE_LABELS):
            raise ConfigError(f"classes must be in 1..{len(SCENE_LABELS)}, "
                              f"got {self.classes}")
        if not 1 <= self.devices <= len(DEVICE_NAMES):
            raise ConfigError(f"devices must be in 1..{len(DEVICE_NAMES)}, "
                              f"got {self.devices}")
        if self.clips_per_class < 1:
            raise ConfigError("clips_per_class must be positive")
        if self.tone_level < 0 or self.noise_level < 0:
            raise ConfigError("levels must be non-negative")
        return self


def class_recipe(class_idx: int) -> dict:
    """Tone set and noise band for one scene class.

    Fundamentals are spaced by a factor 1.45 so neighbouring classes sit far
    apart on the mel axis; the shaped-noise band moves upward with the index.
    """
    f0 = 220.0 * (1.45 ** class_idx)
    return {
        "tones": ((f0, 1.0), (2.0 * f0, 0.5), (3.0 * f0, 0.25)),
        "noise_center": 600.0 + 700.0 * class_idx,
        "noise_width": 250.0,
    }


def device_tilt_exponent(device_idx: int, devices: int) -> float:
    return (device_idx - (devices - 1) / 2.0) * 0.4


def render_clip(spec: SynthSpec, class_idx: int, device_idx: int, rng) -> np.ndarray:
    """One second of audio for (class, device), float32 in [-1, 1]."""
    recipe = class_recipe(class_idx)
    t = np.arange(CLIP_SAMPLES, dtype=np.float64) / SAMPLE_RATE
    tones = np.zeros(CLIP_SAMPLES, dtype=np.float64)
    for freq, amp in recipe["tones"]:
        detune = 1.0 + rng.uniform(-0.01, 0.01)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        jitter = rng.uniform(0.8, 1.2)
        tones += amp * jitter * np.sin(2.0 * np.pi * freq * detune * t + phase)
    tones /= np.max(np.abs(tones))

    noise = rng.standard_normal(CLIP_SAMPLES)
    freqs = np.fft.rfftfreq(CLIP_SAMPLES, 1.0 / SAMPLE_RATE)
    bump = np.exp(-0.5 * ((freqs - recipe["noise_center"])
                          / recipe["noise_width"]) ** 2)
    shaped = np.fft.irfft(np.fft.rfft(noise) * bump, n=CLIP_SAMPLES)
    rms = np.sqrt(np.mean(shaped ** 2))
    if rms > 0:
        shaped /= rms

    mix = spec.tone_level * tones + spec.noise_level * shaped

    # device colouring: smooth broadband tilt applied in the frequency domain
    tilt = device_tilt_exponent(device_idx, spec.devices)
    if tilt != 0.0:
        gain = ((freqs + 300.0) / 5000.0) ** tilt
        mix = np.fft.irfft(np.fft.rfft(mix) * gain, n=CLIP_SAMPLES)

    peak = np.max(np.abs(mix))
    if peak > 0:
        mix *= rng.uniform(0.55, 0.65) / peak
    return mix.astype(np.float32)


def generate_synth_dataset(spec: SynthSpec, out_dir) -> list[ManifestRow]:
    """Render the corpus under out_dir and write out_dir/manifest.tsv."""
    spec.validate()
    audio_dir = os.path.join(out_dir, "audio")
    os.makedirs(audio_dir, exist_ok=True)
    rows = []
    for c in range(spec.classes):
        label = SCENE_LABELS[c]
        for j in range(spec.clips_per_class):
            device_idx = j % spec.devices
            device = DEVICE_NAMES[device_idx]
            rng = derive_rng(spec.seed, PURPOSE_SYNTH, c, j)
            clip = render_clip(spec, c, device_idx, rng)
            rel = f"audio/{label}-{device}-{j:04d}.wav"
            write_wav(os.path.join(out_dir, rel), clip)
            city = CITIES[(c * spec.clips_per_class + j) % len(CITIES)]
            rows.append(ManifestRow(rel, label, device, city))
    write_manifest(os.path.join(out_dir, "manifest.tsv"), rows)
    return rows
