"""Audio front-end: WAV ingestion and the 256-band log-Mel + delta feature.

Every clip is exactly 1 s at 44.1 kHz after ingestion. Framing uses a
4096-point Hamming window with hop round(4096/6) = 683 and symmetric
zero-padding, which pins the frame count at exactly 65.
"""

from __future__ import annotations

import os
import struct
import wave
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
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

WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT, WAVE_FORMAT_EXTENSIBLE = 1, 3, 0xFFFE
# the KSDATAFORMAT_SUBTYPE GUID of an extensible fmt chunk, after its leading
# format tag
_SUBTYPE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


@dataclass
class AudioClip:
    samples: np.ndarray                     # float32, CLIP_SAMPLES at SAMPLE_RATE
    scene_label: int = -1
    device_id: str | None = ""              # None for an audio mix
    city: str = ""


@dataclass
class FeatureClip:
    feature: np.ndarray                     # (2, 256, 65) float32: log-Mel, delta


def to_clip(samples, ratio: float, convert=np.asarray) -> np.ndarray:
    """Resample by linear interpolation (length scales by ``ratio``), then
    center-crop long clips and trailing-zero-pad short ones to one float32
    clip. Only the kept positions are interpolated, and only the input frames
    they read are passed through ``convert`` (raw frames to float samples),
    so the work stays within one clip whatever the ratio or input length."""
    n_in = len(samples)
    n_out = round(n_in * ratio)
    start = max(n_out - CLIP_SAMPLES, 0) // 2
    m = min(n_out, CLIP_SAMPLES)
    if n_out == n_in or m == 0:             # no resampling, or nothing kept
        kept = convert(samples[start:start + m])
    else:
        pos = (np.arange(m, dtype=np.float64) + float(start)) / ratio
        # the frames around the kept positions, at their absolute indices
        lo, hi = min(int(pos[0]), n_in - 1), min(int(pos[-1]) + 2, n_in)
        kept = np.interp(pos, np.arange(lo, hi, dtype=np.float64),
                         convert(samples[lo:hi]))
    clip = np.zeros(CLIP_SAMPLES, dtype=np.float32)
    clip[:m] = kept
    return clip


@dataclass
class _Frames:
    """The frames of a WAV data chunk; slicing reads only the sliced frames'
    bytes. 24-bit samples fill the top three bytes of an int32."""
    fh: object
    offset: int                             # of the first frame in the file
    count: int
    channels: int
    width: int                              # bytes per sample
    dtype: np.dtype

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: slice) -> np.ndarray:
        start, stop, _ = index.indices(self.count)
        n = max(stop - start, 0) * self.channels
        self.fh.seek(self.offset + start * self.channels * self.width)
        raw = self.fh.read(n * self.width)
        if self.width == 3:
            wide = np.zeros((n, 4), dtype=np.uint8)
            wide[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(n, 3)
            raw = wide
        x = np.frombuffer(raw, dtype=self.dtype)
        return x.reshape(-1, self.channels) if self.channels > 1 else x


def _sample_format(fmt: bytes) -> tuple[int, int, int, np.dtype]:
    """Sample rate, channels, bytes per sample and sample dtype of a ``fmt ``
    chunk body (at most its first 40 bytes)."""
    if len(fmt) < 16:
        raise ValueError("fmt chunk shorter than 16 bytes")
    tag, channels, rate, byte_rate, align, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == WAVE_FORMAT_EXTENSIBLE:
        if (len(fmt) < 40 or struct.unpack("<H", fmt[16:18])[0] < 22
                or fmt[28:40] != _SUBTYPE_GUID_TAIL):
            raise ValueError("malformed WAVE_FORMAT_EXTENSIBLE fmt chunk")
        (tag,) = struct.unpack("<I", fmt[24:28])
    if tag not in (WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT):
        raise ValueError(f"format tag {tag:#x} is neither PCM (1) nor "
                         "IEEE float (3)")
    if tag == WAVE_FORMAT_PCM and byte_rate != rate * align:
        raise ValueError(f"byte rate {byte_rate} is not the sample rate {rate} "
                         f"times the block align {align}")
    width = align // channels if channels else 0
    if tag == WAVE_FORMAT_PCM:
        supported = width <= 4 and 8 * (width > 1) < bits <= 8 * width
        dtype = "u1" if width == 1 else f"<i{4 if width == 3 else width}"
    else:
        supported = width in (4, 8) and bits == 8 * width
        dtype = f"<f{width}"
    if not supported or align != channels * width:
        kind = "PCM" if tag == WAVE_FORMAT_PCM else "float"
        raise ValueError(f"unsupported sample format: {bits}-bit {kind}, "
                         f"{channels} channel(s), block align {align}")
    return rate, channels, width, np.dtype(dtype)


def _wav_frames(fh) -> tuple[int, _Frames]:
    """Walk a RIFF/WAVE file's chunks to ``data``, skipping any other chunk
    and the pad byte after an odd-sized one; return the sample rate and the
    data chunk's frames. A data chunk larger than the file keeps the whole
    frames the file holds."""
    fh.seek(0)
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    riff_end = 8 + struct.unpack("<I", head[4:8])[0]
    file_end = fh.seek(0, os.SEEK_END)
    fmt, pos = None, 12
    while pos < riff_end:
        fh.seek(pos)
        header = fh.read(8)
        if len(header) < 8:
            break
        size = struct.unpack("<I", header[4:])[0]
        if header[:4] == b"fmt ":
            fmt = fh.read(min(size, 40))
        elif header[:4] == b"data":
            if fmt is None:
                raise ValueError("no fmt chunk before the data chunk")
            rate, channels, width, dtype = _sample_format(fmt)
            nbytes = min(size, file_end - pos - 8)
            if nbytes % (channels * width):
                raise ValueError(f"data chunk of {nbytes} bytes ends inside "
                                 f"a {channels * width}-byte frame")
            return rate, _Frames(fh, pos + 8, nbytes // (channels * width),
                                 channels, width, dtype)
        pos += 8 + size + size % 2
    raise ValueError("no data chunk")


def read_wav(path, scene_label: int = -1, device_id: str = "", city: str = "") -> AudioClip:
    """Read a PCM or float WAV file, given as a path or a seekable binary
    file object, as a mono, [-1,1]-scaled, 1 s clip.

    Only the frames the clip keeps are read, scaled and mixed down."""
    try:
        with nullcontext(path) if hasattr(path, "read") else open(path, "rb") as fh:
            rate, frames = _wav_frames(fh)
            if rate == 0:
                raise IngestionError(f"sample rate 0 in {path}")
            if frames.dtype == np.uint8:
                offset, full_scale = 128.0, 128.0
            elif frames.dtype.kind == "i":
                offset, full_scale = 0.0, float(2 ** (8 * frames.dtype.itemsize - 1))
            else:
                offset, full_scale = 0.0, 1.0

            def mono(raw):
                x = np.subtract(raw, offset, dtype=np.float64)
                x /= full_scale
                return x.mean(axis=1) if x.ndim == 2 else x

            # a signalling NaN warns in the float64 cast and a huge sample
            # overflows the float32 clip; both leave non-finite samples,
            # rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                samples = to_clip(frames, SAMPLE_RATE / rate, mono)
    except (OSError, ValueError) as e:
        raise IngestionError(f"cannot read WAV file {path}: {e}") from None
    if not np.isfinite(samples).all():
        raise IngestionError(f"non-finite samples in {path}")
    return AudioClip(samples=samples, scene_label=scene_label,
                     device_id=device_id, city=city)


def write_wav(path, samples: np.ndarray):
    """Write a mono clip as 16-bit PCM."""
    pcm = np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767)
    with wave.open(os.fspath(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(pcm.astype("<i2").tobytes())


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
def _mel_steps():
    """The float32 filterbank's non-zeros in the order :func:`mel_log` adds
    them. Bands are sorted widest first (stably), and step j holds the j-th
    non-zero bin of every band with more than j, a prefix of the sorted
    bands. Returns the bins and weights step after step, each step's
    (band count, offset), and the permutation back to band order."""
    fb = mel_filterbank().astype(np.float32)
    bins = [np.flatnonzero(row) for row in fb]
    order = sorted(range(N_MELS), key=lambda b: -len(bins[b]))
    rows, cols, steps = [], [], []
    for j in range(len(bins[order[0]])):
        bands = [b for b in order if len(bins[b]) > j]
        steps.append((len(bands), len(cols)))
        rows += bands
        cols += [bins[b][j] for b in bands]
    return (np.array(cols), fb[rows, cols][:, None], steps,
            np.argsort(order))


def mel_log(power: np.ndarray) -> np.ndarray:
    """(frames, 2049) power -> (256, frames) log-Mel.

    Each band adds its float32 products one bin at a time in ascending bin
    order, starting from 0, as a CSR matrix product does, so the bits match
    ``csr_matrix(mel_filterbank().astype(np.float32)) @ power.T``: one
    gather forms every product, then one contiguous add per step."""
    cols, weights, steps, unsort = _mel_steps()
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.take(power.astype(np.float32).T, cols, axis=0)
        prod *= weights
        banded = np.zeros((N_MELS, len(power)), dtype=np.float32)
        for count, offset in steps:
            banded[:count] += prod[offset:offset + count]
    return np.log(banded[unsort] + LOG_FLOOR)


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
    return FeatureClip(feature=np.stack([logmel, delta]))
