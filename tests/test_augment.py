"""Augmentation operators and their reproducibility guarantees."""

import logging

import numpy as np
import pytest

from pacn import augment
from pacn.audio import AudioClip
from pacn.errors import UsageError
from pacn.seeding import PURPOSE_AUGMENT, derive_rng, stable_hash
from pacn.train import TrainConfig


def tone(freq, amp=0.5):
    t = np.arange(44100) / 44100.0
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


class TestMixup:
    def test_eta_one_returns_first_batch(self):
        x, y = np.arange(12.0).reshape(4, 3), np.eye(3)[[0, 1, 2, 0]]
        mb = augment.MixupBatch(eta=1.0, pair_index=np.array([3, 2, 1, 0]))
        xm, ym = augment.apply_mixup(x, y, mb)
        np.testing.assert_array_equal(xm, x)
        np.testing.assert_array_equal(ym, y)
        assert xm is not x and ym is not y

    def test_eta_zero_returns_second_batch(self):
        x, y = np.arange(12.0).reshape(4, 3), np.eye(3)[[0, 1, 2, 0]]
        perm = np.array([2, 0, 3, 1])
        xm, ym = augment.apply_mixup(x, y, augment.MixupBatch(0.0, perm))
        np.testing.assert_array_equal(xm, x[perm])
        np.testing.assert_array_equal(ym, y[perm])

    def test_halfway_arithmetic(self):
        mb = augment.MixupBatch(eta=0.5, pair_index=np.array([1, 0]))
        x, y = augment.apply_mixup(np.array([2.0, 4.0]), np.array([1.0, 0.0]), mb)
        assert x.tolist() == [3.0, 3.0]
        assert y.tolist() == [0.5, 0.5]

    def test_draw_is_reproducible(self):
        alpha = TrainConfig().mixup_alpha
        a = augment.draw_mixup(16, np.random.default_rng(9), alpha)
        b = augment.draw_mixup(16, np.random.default_rng(9), alpha)
        assert a.eta == b.eta
        assert 0.0 <= a.eta <= 1.0
        np.testing.assert_array_equal(a.pair_index, b.pair_index)


class TestSpectrumCorrection:
    def test_caller_dict_is_left_alone(self):
        coeffs = [1.0] * 2049
        d = {"a": coeffs}
        sc = augment.SpectrumCorrection(d)
        assert d == {"a": coeffs} and d["a"] is coeffs
        assert sc.coeffs["a"].dtype == np.float32

    def test_coefficients_rounded_to_float32_when_built(self):
        c = np.random.default_rng(12).uniform(0.5, 2.0, 2049)
        sc = augment.SpectrumCorrection({"a": c})
        assert sc.coeffs["a"].tobytes() == c.astype(np.float32).tobytes()

    @pytest.mark.parametrize("value", [1e-50, 1e300])
    def test_coefficients_lost_in_float32_rejected(self, value):
        with pytest.raises(UsageError, match="positive and finite"):
            augment.SpectrumCorrection({"a": np.full(2049, value)})

    def test_single_device_gets_unit_coefficients(self):
        sc = augment.estimate_correction({"a": np.full((1, 2049), 2.0)})
        np.testing.assert_allclose(sc.coeffs["a"], 1.0, rtol=1e-6)

    def test_two_device_arithmetic(self):
        sc = augment.estimate_correction({
            "a": np.full((1, 2049), 1.0),
            "b": np.full((1, 2049), 3.0),
        })
        np.testing.assert_allclose(sc.coeffs["a"], 2.0, rtol=1e-6)
        np.testing.assert_allclose(sc.coeffs["b"], 2.0 / 3.0, rtol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            augment.estimate_correction({})

    def test_known_filters_are_undone(self):
        rng = np.random.default_rng(10)
        shared = rng.uniform(0.5, 1.5, 2049)
        filters = {"a": np.linspace(0.5, 1.0, 2049),
                   "b": np.linspace(1.2, 0.8, 2049),
                   "c": np.ones(2049)}
        spectra = {d: (shared * f)[None, :] for d, f in filters.items()}
        sc = augment.estimate_correction(spectra)
        corrected = [spectra[d][0] * sc.coeff_for(d) for d in filters]
        spread = np.ptp(corrected, axis=0) / np.mean(corrected, axis=0)
        assert spread.max() < 0.10

    def test_reestimation_is_fixed_point(self):
        rng = np.random.default_rng(11)
        spectra = {d: rng.uniform(0.5, 2.0, (3, 2049)) for d in "abc"}
        sc = augment.estimate_correction(spectra)
        corrected = {d: s.mean(axis=0) * sc.coeff_for(d)
                     for d, s in spectra.items()}
        sc2 = augment.estimate_correction(corrected)
        for d in "abc":
            np.testing.assert_allclose(sc2.coeffs[d], 1.0, atol=1e-3)

    def test_unknown_device_is_a_silent_lookup(self, caplog):
        # feature extraction warns of an unseen device; the correction only
        # holds its coefficients and never changes
        sc = augment.SpectrumCorrection({"a": np.ones(2049)})
        with caplog.at_level(logging.DEBUG):
            assert sc.coeff_for("mystery") is None
            assert sc.coeff_for("mystery") is None
        assert not caplog.records
        assert list(vars(sc)) == ["coeffs"]
        assert sc.coeff_for("a") is sc.coeffs["a"]

    def test_coefficients_must_be_positive(self):
        bad = np.ones(2049)
        bad[7] = 0.0
        with pytest.raises(UsageError):
            augment.SpectrumCorrection({"a": bad})


class TestPitchShift:
    def test_identity_factor(self):
        clip = AudioClip(samples=tone(440))
        out = augment.pitch_shift(clip, 1.0)
        np.testing.assert_allclose(out.samples, clip.samples, atol=1e-6)

    @pytest.mark.parametrize("factor", augment.PITCH_FACTORS)
    def test_output_length_invariant(self, factor):
        out = augment.pitch_shift(AudioClip(samples=tone(440)), factor)
        assert len(out.samples) == 44100

    def test_tone_frequency_scales(self):
        out = augment.pitch_shift(AudioClip(samples=tone(440)), 1.10)
        spectrum = np.abs(np.fft.rfft(out.samples.astype(np.float64)))
        peak_hz = spectrum.argmax()       # 1 s of audio: bin k is k Hz
        assert abs(peak_hz - 484) <= 1

    def test_extreme_factor_stays_within_one_clip(self):
        # a factor TrainConfig.validate accepts; resampling every sample
        # before the crop would need 4.4e304 of them
        out = augment.pitch_shift(AudioClip(samples=tone(440)), 1e-300)
        assert out.samples.shape == (44100,) and out.samples.dtype == np.float32

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(UsageError):
            augment.pitch_shift(AudioClip(samples=tone(440)), 0.0)


class TestAudioMix:
    def test_equal_clips_unchanged(self):
        a = AudioClip(samples=tone(200), scene_label=3)
        out = augment.audio_mix(a, a, w=0.5)
        np.testing.assert_array_equal(out.samples, a.samples)
        assert out.device_id is None
        assert out.scene_label == 3

    def test_label_mismatch_rejected(self):
        a = AudioClip(samples=tone(200), scene_label=1)
        b = AudioClip(samples=tone(300), scene_label=2)
        with pytest.raises(UsageError):
            augment.audio_mix(a, b, w=0.5)

    def test_mix_energy_bounded(self):
        rng = np.random.default_rng(14)
        a = AudioClip(samples=rng.uniform(-1, 1, 44100).astype(np.float32),
                      scene_label=0)
        b = AudioClip(samples=rng.uniform(-1, 1, 44100).astype(np.float32),
                      scene_label=0)
        out = augment.audio_mix(a, b, w=0.45)
        ea = float((a.samples.astype(np.float64) ** 2).sum())
        eb = float((b.samples.astype(np.float64) ** 2).sum())
        emix = float((out.samples.astype(np.float64) ** 2).sum())
        assert emix <= max(ea, eb) + 1e-6


class TestPolicyDeterminism:
    def test_stable_hash_is_stable(self):
        assert stable_hash("clip-0001") == stable_hash("clip-0001")
        assert stable_hash("clip-0001") != stable_hash("clip-0002")
        assert 0 <= stable_hash("x") < 2 ** 64

    def test_augment_clip_reproducible(self):
        cfg = augment.AugmentConfig(pitch_prob=1.0, audio_mix_prob=1.0)
        pool = [AudioClip(samples=tone(f), scene_label=2) for f in (220, 330)]
        clip = AudioClip(samples=tone(440), scene_label=2)

        def run():
            rng = derive_rng(123, PURPOSE_AUGMENT, 5, "clip-07")
            return augment.augment_clip(clip, pool, rng, cfg).samples.tobytes()

        assert run() == run()

    def test_prob_zero_is_identity(self):
        cfg = augment.AugmentConfig(pitch_prob=0.0, audio_mix_prob=0.0)
        clip = AudioClip(samples=tone(440), scene_label=2)
        rng = derive_rng(1, PURPOSE_AUGMENT, 0, "c")
        out = augment.augment_clip(clip, [clip], rng, cfg)
        np.testing.assert_array_equal(out.samples, clip.samples)
