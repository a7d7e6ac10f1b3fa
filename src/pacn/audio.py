"""Audio front-end: WAV ingestion and the 256-band log-Mel + delta feature.

Every clip is exactly 1 s at 44.1 kHz after ingestion. Framing uses a
4096-point Hamming window with hop round(4096/6) = 683 and symmetric
zero-padding, which pins the frame count at exactly 65.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.io.wavfile
import scipy.sparse
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IngestionError, UsageError

SAMPLE_RATE = 44100
CLIP_SAMPLES = 44100
WIN_LENGTH = 4096
HOP_LENGTH = round(WIN_LENGTH / 6)          # 683
N_FRAMES = 65
N_BINS = WIN_LENGTH // 2 + 1                # 2049
N_MELS = 256
LOG_FLOOR = 1e-10


@dataclass
class AudioClip:
    samples: np.ndarray                     # float32, CLIP_SAMPLES at SAMPLE_RATE
    scene_label: int = -1
    device_id: str = ""
    city: str = ""


@dataclass
class FeatureClip:
    feature: np.ndarray                     # (256, 65, 2) float32


def to_clip(samples: np.ndarray, ratio: float) -> np.ndarray:
    """Resample by linear interpolation (length scales by ``ratio``), then
    center-crop long clips and trailing-zero-pad short ones to one float32
    clip. Only the kept positions are interpolated, so the work stays within
    one clip whatever the ratio."""
    n_in = len(samples)
    n_out = round(n_in * ratio)
    start = max(n_out - CLIP_SAMPLES, 0) // 2
    m = min(n_out, CLIP_SAMPLES)
    if n_out == n_in:
        kept = samples[start:start + m]
    else:
        pos = (np.arange(m, dtype=np.float64) + float(start)) / ratio
        kept = np.interp(pos, np.arange(n_in, dtype=np.float64), samples)
    clip = np.zeros(CLIP_SAMPLES, dtype=np.float32)
    clip[:m] = kept
    return clip


def read_wav(path, scene_label: int = -1, device_id: str = "", city: str = "") -> AudioClip:
    """Read a PCM WAV file as a mono, [-1,1]-scaled, 1 s clip."""
    try:
        rate, data = scipy.io.wavfile.read(path)
    except Exception as e:
        raise IngestionError(f"cannot read WAV file {path}: {e}") from None
    if rate == 0:
        raise IngestionError(f"sample rate 0 in {path}")
    if data.dtype == np.int16:
        x = data / 32768.0
    elif data.dtype == np.int32:
        x = data / 2147483648.0
    elif data.dtype == np.uint8:
        x = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype.kind == "f":
        # a signalling NaN warns in the cast; non-finite clips are rejected below
        with np.errstate(invalid="ignore"):
            x = data.astype(np.float64)
    else:
        raise IngestionError(f"unsupported sample format {data.dtype} in {path}")
    if x.ndim == 2:
        x = x.mean(axis=1)
    with np.errstate(over="ignore"):        # overflow is rejected below
        samples = to_clip(x, SAMPLE_RATE / rate)
    if not np.isfinite(samples).all():
        raise IngestionError(f"non-finite samples in {path}")
    return AudioClip(samples=samples, scene_label=scene_label,
                     device_id=device_id, city=city)


def write_wav(path, samples: np.ndarray):
    """Write a mono clip as 16-bit PCM."""
    pcm = np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767)
    scipy.io.wavfile.write(path, SAMPLE_RATE, pcm.astype(np.int16))


@lru_cache(maxsize=1)
def hamming_window() -> np.ndarray:
    return np.hamming(WIN_LENGTH).astype(np.float64)


def frame_and_window(samples: np.ndarray) -> np.ndarray:
    """Slice a clip's samples into 65 Hamming-windowed frames of 4096 samples."""
    if len(samples) != CLIP_SAMPLES:
        raise UsageError(f"expected {CLIP_SAMPLES} samples, got {len(samples)}")
    pad_total = HOP_LENGTH * (N_FRAMES - 1) + WIN_LENGTH - CLIP_SAMPLES
    lo = pad_total // 2
    x = np.pad(samples.astype(np.float64), (lo, pad_total - lo))
    return sliding_window_view(x, WIN_LENGTH)[::HOP_LENGTH] * hamming_window()


def stft_magnitude(frames: np.ndarray) -> np.ndarray:
    """(frames, 4096) -> (frames, 2049) spectral magnitudes (the correction fit)."""
    return np.abs(np.fft.rfft(frames, axis=-1))


def stft_power(frames: np.ndarray) -> np.ndarray:
    """(frames, 4096) -> (frames, 2049) squared magnitudes."""
    spec = np.fft.rfft(frames, axis=-1)
    return spec.real ** 2 + spec.imag ** 2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """(256, 2049) triangular filters, 0..22050 Hz, each with peak height 1."""
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2),
                                  N_MELS + 2))
    bin_hz = np.arange(N_BINS) * (SAMPLE_RATE / WIN_LENGTH)
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_hz[None, :] - lo) / (center - lo)
    falling = (hi - bin_hz[None, :]) / (hi - center)
    return np.maximum(0.0, np.minimum(rising, falling))


@lru_cache(maxsize=1)
def _mel_sparse():
    return scipy.sparse.csr_matrix(mel_filterbank().astype(np.float32))


def mel_log(power: np.ndarray) -> np.ndarray:
    """(frames, 2049) power -> (256, frames) log-Mel."""
    banded = _mel_sparse() @ power.astype(np.float32).T
    return np.log(banded + LOG_FLOOR)


def delta_coefficients(logmel: np.ndarray) -> np.ndarray:
    """Regression delta over time, window N=2, edge frames replicated."""
    p = np.pad(logmel, ((0, 0), (2, 2)), mode="edge")
    return (1.0 * (p[:, 3:-1] - p[:, 1:-3]) + 2.0 * (p[:, 4:] - p[:, :-4])) / 10.0


def extract_feature(clip: AudioClip, spectrum_coeffs: np.ndarray | None = None) -> FeatureClip:
    """Full front-end: frames -> (corrected) power spectrum -> log-Mel -> +delta.

    ``spectrum_coeffs``, if given, are a device's magnitude correction: the
    power spectrum is scaled by their square per bin before Mel filtering.
    """
    power = stft_power(frame_and_window(clip.samples))
    if spectrum_coeffs is not None:
        power *= np.square(spectrum_coeffs, dtype=np.float64)
    logmel = mel_log(power)
    delta = delta_coefficients(logmel)
    feature = np.stack([logmel, delta], axis=-1).astype(np.float32)
    return FeatureClip(feature=feature)
