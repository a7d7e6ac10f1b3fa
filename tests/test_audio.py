"""Front-end: WAV ingestion, framing, spectra, Mel filterbank, deltas."""

import io
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.io.wavfile
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from pacn import audio
from pacn.errors import IngestionError, UsageError

# (format tag, bits per sample): 8-, 16- and 32-bit PCM, 32-bit float
WAV_FORMATS = [(1, 8), (1, 16), (1, 32), (3, 32)]
# (format tag, bits per sample, bytes per sample): every format read_wav
# reads, bits short of their container, 64-bit PCM (which the scipy-based
# reader rejected after reading it), 16-bit float and A-law. A bit depth
# its container contradicts is tested on its own.
ORACLE_FORMATS = [(1, 8, 1), (1, 12, 2), (1, 16, 2), (1, 20, 3), (1, 24, 3),
                  (1, 32, 4), (3, 32, 4), (3, 64, 8), (1, 64, 8), (3, 16, 2),
                  (6, 8, 1)]
SUBTYPE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def chunk(chunk_id: bytes, body: bytes, size=None) -> bytes:
    """A RIFF chunk, with the pad byte after an odd-sized body; ``size``
    overrides the size field."""
    size = len(body) if size is None else size
    return chunk_id + struct.pack("<I", size) + body + b"\0" * (len(body) % 2)


def riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def wav_bytes(rate, channels, tag, bits, payload) -> bytes:
    """A RIFF/WAVE file with any u32 rate; the byte rate wraps like the
    field does."""
    align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate,
                      (rate * align) % 2 ** 32, align, bits)
    return riff(chunk(b"fmt ", fmt), chunk(b"data", payload))


def scipy_clip(raw: bytes):
    """The clip the scipy-based ``read_wav`` made of a WAV file, or None
    where it raised IngestionError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.io.wavfile.WavFileWarning)
            rate, data = scipy.io.wavfile.read(io.BytesIO(raw))
    except Exception:
        return None
    if rate == 0:
        return None
    if data.dtype == np.uint8:
        offset, full_scale = 128.0, 128.0
    elif data.dtype in (np.int16, np.int32):
        offset, full_scale = 0.0, float(2 ** (8 * data.itemsize - 1))
    elif data.dtype.kind == "f":
        offset, full_scale = 0.0, 1.0
    else:
        return None

    def mono(frames):
        x = np.subtract(frames, offset, dtype=np.float64)
        x /= full_scale
        return x.mean(axis=1) if x.ndim == 2 else x

    with np.errstate(over="ignore", invalid="ignore"):
        clip = audio.to_clip(data, audio.SAMPLE_RATE / rate, mono)
    return clip if np.isfinite(clip).all() else None


def resample_then_fit(samples, ratio):
    """Reference: resample every sample, then center-crop or pad."""
    n_in = len(samples)
    n_out = int(round(n_in * ratio))
    if n_out == n_in:
        x = samples.astype(np.float64)
    else:
        x = np.interp(np.arange(n_out, dtype=np.float64) / ratio,
                      np.arange(n_in, dtype=np.float64), samples)
    if len(x) > audio.CLIP_SAMPLES:
        start = (len(x) - audio.CLIP_SAMPLES) // 2
        x = x[start:start + audio.CLIP_SAMPLES]
    return np.pad(x, (0, audio.CLIP_SAMPLES - len(x))).astype(np.float32)


class TestToClip:
    @settings(max_examples=150, deadline=None)
    @given(n_in=st.integers(0, 100_000),
           ratio=st.one_of(st.floats(0.01, 10.0),
                           st.integers(1, 200_000).map(lambda r: 44100 / r)),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_matches_resample_then_fit_bitwise(self, n_in, ratio, dtype):
        if n_in * ratio > 1e6:
            ratio = 1e6 / max(n_in, 1)
        x = np.random.default_rng(n_in).standard_normal(n_in).astype(dtype)
        out = audio.to_clip(x, ratio)
        assert out.tobytes() == resample_then_fit(x, ratio).tobytes()


class TestReadWav:
    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        scipy.io.wavfile.write(path, 44100, np.full(44100, 16384, dtype=np.int16))
        clip = audio.read_wav(path)
        assert clip.samples[0] == pytest.approx(0.5)

    def test_stereo_averaged(self, tmp_path):
        path = tmp_path / "st.wav"
        data = np.zeros((44100, 2), dtype=np.float32)
        data[:, 0] = 0.2
        data[:, 1] = 0.4
        scipy.io.wavfile.write(path, 44100, data)
        clip = audio.read_wav(path)
        np.testing.assert_allclose(clip.samples, 0.3, rtol=1e-6)

    def test_short_clip_padded_with_trailing_zeros(self, tmp_path):
        path = tmp_path / "half.wav"
        scipy.io.wavfile.write(path, 44100,
                               np.ones(22050, dtype=np.float32) * 0.25)
        clip = audio.read_wav(path)
        assert len(clip.samples) == 44100
        np.testing.assert_allclose(clip.samples[:22050], 0.25, rtol=1e-6)
        assert (clip.samples[22050:] == 0).all()

    def test_long_clip_center_cropped(self, tmp_path):
        path = tmp_path / "long.wav"
        x = np.zeros(88200, dtype=np.float32)
        x[44100] = 1.0   # center of the file
        scipy.io.wavfile.write(path, 44100, x)
        clip = audio.read_wav(path)
        assert len(clip.samples) == 44100
        assert clip.samples[44100 - 22050] == pytest.approx(1.0)

    def test_resampled_to_44100(self, tmp_path):
        path = tmp_path / "lo.wav"
        scipy.io.wavfile.write(path, 22050, np.zeros(22050, dtype=np.float32))
        clip = audio.read_wav(path)
        assert len(clip.samples) == 44100

    @pytest.mark.parametrize("rate", [22050, 44100, 48000])
    def test_long_stereo_wav_scales_only_the_kept_window(self, tmp_path, rate):
        path = tmp_path / "long.wav"
        raw = np.random.default_rng(rate).integers(
            -32768, 32768, (60 * rate, 2), dtype=np.int16)
        scipy.io.wavfile.write(path, rate, raw)
        whole = resample_then_fit((raw / 32768.0).mean(axis=1), 44100 / rate)
        tracemalloc.start()
        try:
            clip = audio.read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clip.samples.tobytes() == whole.tobytes()
        # only the kept second's bytes are read: the file is 11-23 MB
        assert peak < 4 << 20

    def test_24_bit_pcm_scales_by_two_to_the_23(self):
        # scipy reads 3-byte samples into the top of an int32
        values = [0, 1, -1, 2 ** 23 - 1, -2 ** 23]
        pcm = np.zeros(audio.CLIP_SAMPLES, dtype=np.int64)
        pcm[:len(values)] = values
        payload = b"".join(int(v % 2 ** 24).to_bytes(3, "little") for v in pcm)
        clip = audio.read_wav(io.BytesIO(wav_bytes(44100, 1, 1, 24, payload)))
        want = np.array([v / 2 ** 23 for v in pcm], dtype=np.float32)
        assert clip.samples.tobytes() == want.tobytes()

    def test_zero_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "zero.wav"
        path.write_bytes(wav_bytes(0, 1, 1, 16, bytes(20)))
        with pytest.raises(IngestionError, match="sample rate 0 in .*zero.wav"):
            audio.read_wav(path)

    @settings(max_examples=300, deadline=None)
    @given(rate=st.integers(0, 2 ** 32 - 1), channels=st.integers(1, 2),
           fmt=st.sampled_from(WAV_FORMATS), data=st.data())
    def test_any_header_reads_as_a_clip_or_fails_typed(self, rate, channels,
                                                       fmt, data):
        tag, bits = fmt
        frames = data.draw(st.integers(0, 100), label="frames")
        payload = data.draw(st.binary(min_size=frames * channels * bits // 8,
                                      max_size=frames * channels * bits // 8),
                            label="payload")
        try:
            clip = audio.read_wav(io.BytesIO(wav_bytes(rate, channels, tag,
                                                       bits, payload)))
        except IngestionError:
            return
        assert clip.samples.dtype == np.float32
        assert clip.samples.shape == (audio.CLIP_SAMPLES,)
        assert np.isfinite(clip.samples).all()

    @settings(max_examples=400, deadline=None)
    @given(fmt=st.sampled_from(ORACLE_FORMATS), channels=st.integers(1, 3),
           rate=st.one_of(st.sampled_from([8000, 22050, 44100, 48000]),
                          st.sampled_from([1, 44099, 96000, 2 ** 31,
                                           2 ** 32 - 1]),
                          st.integers(0, 2 ** 32 - 1)),
           frames=st.integers(0, 300), seed=st.integers(0, 2 ** 32 - 1),
           extensible=st.sampled_from(["no", "no", "yes", "yes", "bad guid"]),
           layout=st.sampled_from(["fmt data"] * 4 + ["data fmt", "data"]),
           extra=st.lists(st.tuples(st.sampled_from([b"LIST", b"fact", b"JUNK",
                                                     b"bext"]),
                                    st.integers(0, 3), st.integers(0, 33)),
                          max_size=4),
           cut=st.sampled_from([0, 0, 0, 1, 3]),
           overrun=st.sampled_from([0, 0, 0, 1, 2, 6, 4096]))
    def test_reads_what_scipy_reads_and_rejects_what_it_rejects(
            self, fmt, channels, rate, frames, seed, extensible, layout, extra,
            cut, overrun):
        """scipy.io.wavfile is the oracle: same clip bits where it reads the
        file, IngestionError where it raises. ``extra`` chunks go before the
        first chunk (0), between (1), after the last (2) or not at all (3);
        ``cut`` drops trailing data bytes, ``overrun`` declares more data than
        the file holds."""
        tag, bits, width = fmt
        align = channels * width
        rng = np.random.default_rng(seed)
        if tag == 3 and width in (4, 8):
            payload = rng.uniform(-1.5, 1.5, frames * channels).astype(
                f"<f{width}").tobytes()
        else:
            payload = rng.integers(0, 256, frames * align, dtype=np.uint8).tobytes()
        payload = payload[:max(len(payload) - cut, 0)]
        fmt_body = struct.pack("<HHIIHH", 0xFFFE if extensible != "no" else tag,
                               channels, rate, (rate * align) % 2 ** 32, align,
                               bits)
        if extensible != "no":
            tail = SUBTYPE_GUID_TAIL if extensible == "yes" else b"\x01" * 12
            fmt_body += struct.pack("<HHII", 22, bits, 0, tag) + tail
        data = chunk(b"data", payload,
                     len(payload) + overrun if overrun else None)
        chunks = {"fmt data": [chunk(b"fmt ", fmt_body), data],
                  "data fmt": [data, chunk(b"fmt ", fmt_body)],
                  "data": [data]}[layout]
        if overrun:                         # the data chunk must come last
            chunks.remove(data)
            chunks.append(data)
        for chunk_id, where, size in extra:
            if where < 3 and not (overrun and where == 2):
                chunks.insert(min(where, len(chunks)),
                              chunk(chunk_id, rng.bytes(size)))
        raw = riff(*chunks)
        want = scipy_clip(raw)
        if want is None:
            with pytest.raises(IngestionError):
                audio.read_wav(io.BytesIO(raw))
        else:
            got = audio.read_wav(io.BytesIO(raw)).samples
            assert got.tobytes() == want.tobytes()

    def test_path_and_file_object_read_alike(self, tmp_path):
        raw = np.random.default_rng(8).integers(-2 ** 15, 2 ** 15, (30000, 2),
                                                dtype=np.int16)
        path = tmp_path / "st.wav"
        scipy.io.wavfile.write(path, 32000, raw)
        from_path = audio.read_wav(path).samples
        assert audio.read_wav(io.BytesIO(path.read_bytes())).samples.tobytes() \
            == from_path.tobytes() == scipy_clip(path.read_bytes()).tobytes()

    @pytest.mark.parametrize("tag, bits, width", [(1, 8, 2), (1, 24, 2),
                                                  (1, 32, 3), (3, 32, 2),
                                                  (3, 64, 4), (3, 32, 8)])
    def test_bit_depth_its_container_contradicts_rejected(self, tag, bits, width):
        # scipy.io.wavfile reads these by the block align alone (8 or fewer
        # bits as one byte per sample, whatever the container); the header
        # contradicts itself, so read_wav does not guess
        fmt = struct.pack("<HHIIHH", tag, 1, 8000, 8000 * width, width, bits)
        raw = riff(chunk(b"fmt ", fmt), chunk(b"data", b"\x10" * 8 * width))
        assert scipy_clip(raw) is not None
        with pytest.raises(IngestionError, match="unsupported sample format"):
            audio.read_wav(io.BytesIO(raw))

    def test_signalling_nan_float_wav_rejected_without_warning(self):
        snan = np.array([0, 0x7F800001, 0], dtype="<u4").tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestionError, match="non-finite"):
                audio.read_wav(io.BytesIO(wav_bytes(44100, 1, 3, 32, snan)))

    def test_unreadable_file_raises(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(IngestionError):
            audio.read_wav(path)

    @pytest.mark.parametrize("data", [
        np.full(44100, np.nan, dtype=np.float32),
        np.where(np.arange(44100) == 7, np.inf, 0.0).astype(np.float32),
        np.full(44100, 1e300),              # finite, but not as float32
    ], ids=["nan", "inf", "float32-overflow"])
    def test_non_finite_samples_rejected(self, tmp_path, data):
        path = tmp_path / "bad.wav"
        scipy.io.wavfile.write(path, 44100, data)
        with pytest.raises(IngestionError, match="non-finite"):
            audio.read_wav(path)

    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.9, 0.9, 44100).astype(np.float32)
        path = tmp_path / "rt.wav"
        audio.write_wav(path, x)
        clip = audio.read_wav(path)
        np.testing.assert_allclose(clip.samples, x, atol=2.0 / 32768)


class TestFraming:
    def test_hop_and_frame_count(self):
        assert audio.HOP_LENGTH == 683
        frames = audio.frame_and_window(np.zeros(44100, dtype=np.float32))
        assert frames.shape == (65, 4096)

    def test_zero_clip_zero_frames(self):
        frames = audio.frame_and_window(np.zeros(44100, dtype=np.float32))
        assert (frames == 0).all()

    def test_interior_frame_is_the_window(self):
        frames = audio.frame_and_window(np.ones(44100, dtype=np.float32))
        np.testing.assert_allclose(frames[32], np.hamming(4096), rtol=1e-6)

    def test_wrong_length_rejected(self):
        with pytest.raises(UsageError):
            audio.frame_and_window(np.zeros(1000, dtype=np.float32))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_index_gather_oracle_bitwise(self, seed):
        samples = np.random.default_rng(seed).uniform(-1, 1, 44100).astype(np.float32)
        pad = audio.HOP_LENGTH * (audio.N_FRAMES - 1) + audio.WIN_LENGTH - 44100
        x = np.pad(samples.astype(np.float64), (pad // 2, pad - pad // 2))
        idx = (np.arange(audio.N_FRAMES)[:, None] * audio.HOP_LENGTH
               + np.arange(audio.WIN_LENGTH)[None, :])
        want = x[idx] * np.hamming(audio.WIN_LENGTH)
        got = audio.frame_and_window(samples)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSpectra:
    def test_zero_frame_zero_spectrum(self):
        power = audio.stft_power(np.zeros((3, 4096)))
        assert power.shape == (3, 2049)
        assert (power == 0).all()

    def test_pure_cosine_concentrates_at_its_bin(self):
        n = np.arange(4096)
        frame = np.cos(2 * np.pi * 16 * n / 4096)[None, :]
        power = audio.stft_power(frame)[0]
        assert power[16] / power.sum() > 0.99

    def test_parseval(self):
        rng = np.random.default_rng(1)
        frame = rng.standard_normal((1, 4096))
        power = audio.stft_power(frame)[0]
        doubled = power[0] + power[-1] + 2 * power[1:-1].sum()
        assert doubled == pytest.approx(4096 * (frame ** 2).sum(), rel=1e-3)


class TestMelFilterbank:
    def test_shape_and_nonnegative(self):
        fb = audio.mel_filterbank()
        assert fb.shape == (256, 2049)
        assert (fb >= 0).all()

    def test_rows_strictly_positive_and_unimodal(self):
        fb = audio.mel_filterbank()
        assert (fb.sum(axis=1) > 0).all()
        for row in fb:
            nz = np.flatnonzero(row)
            seg = row[nz[0]:nz[-1] + 1]
            d = np.diff(seg)
            # rises (possibly) then falls: at most one sign change
            signs = np.sign(d[d != 0])
            assert (np.diff(signs) <= 0).all()

    def test_no_gaps_between_dc_and_nyquist(self):
        coverage = audio.mel_filterbank().sum(axis=0)
        assert (coverage[1:-1] > 0).all()

    def test_white_spectrum_gives_filter_areas(self):
        fb = audio.mel_filterbank()
        power = np.full((2, 2049), 3.0)
        banded = np.exp(audio.mel_log(power)) - audio.LOG_FLOOR
        np.testing.assert_allclose(banded[:, 0], 3.0 * fb.sum(axis=1),
                                   rtol=1e-4)

    def test_zero_spectrum_hits_log_floor(self):
        out = audio.mel_log(np.zeros((1, 2049)))
        np.testing.assert_allclose(out, np.log(1e-10), rtol=1e-6)


class TestMelLog:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 65),
           scale=st.sampled_from([1e-12, 1.0, 1e6, "near float32 max"]),
           gains=st.booleans(), zero_share=st.sampled_from([0.0, 0.3, 1.0]))
    def test_matches_csr_product_bitwise(self, seed, frames, scale, gains,
                                         zero_share):
        rng = np.random.default_rng(seed)
        power = rng.exponential(size=(frames, audio.N_BINS))
        if gains:
            power *= rng.uniform(0.2, 5.0, audio.N_BINS) ** 2
        if scale == "near float32 max":     # band sums overflow to inf
            power *= 0.999 * float(np.finfo(np.float32).max) / power.max()
        else:
            power *= scale
        power[rng.random(frames) < zero_share] = 0.0
        csr = scipy.sparse.csr_matrix(audio.mel_filterbank().astype(np.float32))
        want = np.log(csr @ power.astype(np.float32).T + audio.LOG_FLOOR)
        got = audio.mel_log(power)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestDelta:
    def test_constant_input_zero_delta(self):
        out = audio.delta_coefficients(np.full((256, 65), 7.25, dtype=np.float32))
        assert (out == 0).all()

    def test_linear_ramp_interior_slope(self):
        ramp = np.tile(np.arange(65, dtype=np.float64), (256, 1))
        out = audio.delta_coefficients(ramp)
        np.testing.assert_allclose(out[:, 2:-2], 1.0, rtol=1e-12)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((256, 65))
        ref = np.zeros_like(x)
        for t in range(65):
            acc = 0.0
            for nn in (1, 2):
                hi = x[:, min(t + nn, 64)]
                lo = x[:, max(t - nn, 0)]
                acc = acc + nn * (hi - lo)
            ref[:, t] = acc / 10.0
        np.testing.assert_allclose(audio.delta_coefficients(x), ref, atol=1e-6)


class TestExtractFeature:
    def test_shape_and_dtype(self):
        rng = np.random.default_rng(3)
        clip = audio.AudioClip(samples=rng.uniform(-1, 1, 44100).astype(np.float32))
        fc = audio.extract_feature(clip)
        assert fc.feature.shape == (256, 65, 2)
        assert fc.feature.dtype == np.float32

    def test_silence_delta_channel_zero(self):
        clip = audio.AudioClip(samples=np.zeros(44100, dtype=np.float32))
        fc = audio.extract_feature(clip)
        assert (fc.feature[:, :, 1] == 0).all()

    def test_bit_identical_across_calls(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 44100).astype(np.float32)
        a = audio.extract_feature(audio.AudioClip(samples=x)).feature
        b = audio.extract_feature(audio.AudioClip(samples=x.copy())).feature
        assert a.tobytes() == b.tobytes()

    def test_spectrum_coeffs_change_feature(self):
        rng = np.random.default_rng(5)
        clip = audio.AudioClip(samples=rng.uniform(-1, 1, 44100).astype(np.float32))
        plain = audio.extract_feature(clip).feature
        ones = audio.extract_feature(clip, spectrum_coeffs=np.ones(2049)).feature
        doubled = audio.extract_feature(clip, spectrum_coeffs=np.full(2049, 2.0)).feature
        np.testing.assert_allclose(ones, plain, atol=1e-5)
        assert not np.allclose(doubled, plain, atol=1e-3)

    @pytest.mark.parametrize("signal", ["noise", "tone"])
    def test_corrected_power_matches_corrected_magnitude_squared(self, signal):
        # the oracle is the former corrected path: |rfft| times the
        # coefficients, then squared
        rng = np.random.default_rng(6)
        t = np.arange(44100) / 44100.0
        x = (rng.uniform(-1, 1, 44100) if signal == "noise"
             else 0.5 * np.sin(2 * np.pi * 1000.0 * t))
        clip = audio.AudioClip(samples=x.astype(np.float32))
        coeffs = rng.uniform(0.2, 5.0, 2049).astype(np.float32)
        mag = audio.stft_magnitude(audio.frame_and_window(clip.samples))
        logmel = audio.mel_log((mag * coeffs[None, :]) ** 2)
        ref = np.stack([logmel, audio.delta_coefficients(logmel)],
                       axis=-1).astype(np.float32)
        got = audio.extract_feature(clip, coeffs).feature
        for c in range(2):
            d = np.abs(got[..., c].astype(np.float64) - ref[..., c])
            assert d.max() <= 1e-6 * np.abs(ref[..., c]).max()
