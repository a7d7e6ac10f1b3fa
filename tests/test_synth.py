import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacn.audio import CLIP_SAMPLES, read_wav
from pacn.errors import ConfigError, PacnError
from pacn.manifest import SCENE_LABELS, parse_manifest
from pacn.seeding import PURPOSE_SYNTH, derive_rng
from pacn.synth import (SynthSpec, class_recipe, device_tilt_exponent,
                        generate_synth_dataset, render_clip)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8)
SPEC_FIELDS = [f.name for f in dataclasses.fields(SynthSpec)]


def small_spec(**kw):
    base = dict(classes=3, clips_per_class=6, devices=2, seed=9)
    base.update(kw)
    return SynthSpec(**base)


class TestSpec:
    def test_json_roundtrip(self):
        spec = small_spec(noise_level=0.1)
        assert SynthSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            SynthSpec.from_json('{"classes": 2, "bogus": 1}')

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            SynthSpec.from_json("{nope")

    @pytest.mark.parametrize("text", [
        '5', '[]', '{"classes": "3"}', '{"tone_level": Infinity}', '{"seed": -2}',
    ])
    def test_mistyped_json_rejected(self, text):
        with pytest.raises(ConfigError):
            SynthSpec.from_json(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES,
                     st.dictionaries(st.sampled_from(SPEC_FIELDS), JSON_VALUES)))
    def test_json_loads_or_raises_pacn_error(self, doc):
        try:
            spec = SynthSpec.from_json(json.dumps(doc))
        except PacnError:
            return
        assert spec.validate() is spec

    @pytest.mark.parametrize("kw", [
        {"classes": 0}, {"classes": 11}, {"devices": 0}, {"devices": 10},
        {"clips_per_class": 0}, {"tone_level": -0.5},
    ])
    def test_out_of_range_rejected(self, kw):
        with pytest.raises(ConfigError):
            small_spec(**kw).validate()


class TestRecipes:
    def test_fundamentals_strictly_increase(self):
        f0s = [class_recipe(c)["tones"][0][0] for c in range(10)]
        assert all(b > a * 1.4 for a, b in zip(f0s, f0s[1:]))
        # highest harmonic of the highest class stays below Nyquist
        assert class_recipe(9)["tones"][-1][0] < 22050

    def test_tilt_exponents_centered(self):
        exps = [device_tilt_exponent(d, 3) for d in range(3)]
        assert exps == [-0.4, 0.0, 0.4]
        assert abs(sum(device_tilt_exponent(d, 5) for d in range(5))) < 1e-12

    def test_render_is_deterministic(self):
        spec = small_spec()
        a = render_clip(spec, 1, 0, derive_rng(9, PURPOSE_SYNTH, 1, 0))
        b = render_clip(spec, 1, 0, derive_rng(9, PURPOSE_SYNTH, 1, 0))
        np.testing.assert_array_equal(a, b)

    def test_render_shape_and_level(self):
        clip = render_clip(small_spec(), 0, 1, derive_rng(1))
        assert clip.shape == (CLIP_SAMPLES,)
        assert clip.dtype == np.float32
        assert 0.5 < np.abs(clip).max() <= 0.66


class TestGeneration:
    def test_counts_and_labels(self, tmp_path):
        spec = small_spec()
        rows = generate_synth_dataset(spec, tmp_path)
        assert len(rows) == spec.classes * spec.clips_per_class
        assert sorted({r.scene_label for r in rows}) \
            == sorted(SCENE_LABELS[:spec.classes])
        assert {r.device_id for r in rows} == {"a", "b"}
        parsed = parse_manifest(tmp_path / "manifest.tsv")
        assert parsed == rows
        for r in rows:
            assert (tmp_path / r.filename).exists()

    def test_devices_balanced_within_class(self, tmp_path):
        rows = generate_synth_dataset(small_spec(), tmp_path)
        per = {}
        for r in rows:
            per.setdefault((r.scene_label, r.device_id), 0)
            per[(r.scene_label, r.device_id)] += 1
        assert set(per.values()) == {3}

    def test_bit_identical_across_runs(self, tmp_path):
        spec = small_spec(clips_per_class=2)
        rows = generate_synth_dataset(spec, tmp_path / "one")
        generate_synth_dataset(spec, tmp_path / "two")
        for r in rows:
            assert (tmp_path / "one" / r.filename).read_bytes() \
                == (tmp_path / "two" / r.filename).read_bytes()
        assert (tmp_path / "one" / "manifest.tsv").read_bytes() \
            == (tmp_path / "two" / "manifest.tsv").read_bytes()

    def test_seed_changes_audio(self, tmp_path):
        rows = generate_synth_dataset(small_spec(clips_per_class=1),
                                      tmp_path / "one")
        generate_synth_dataset(small_spec(clips_per_class=1, seed=10),
                               tmp_path / "two")
        assert (tmp_path / "one" / rows[0].filename).read_bytes() \
            != (tmp_path / "two" / rows[0].filename).read_bytes()


class TestSeparability:
    def test_class_means_far_apart_in_logmel(self, tmp_path, whole_set):
        generate_synth_dataset(small_spec(), tmp_path)
        ds = whole_set(tmp_path / "manifest.tsv")
        means = [ds.features[ds.labels == c, 0].mean(axis=0)
                 for c in range(3)]
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.linalg.norm(means[a] - means[b]) > 50.0

    def test_device_tilt_shows_in_spectrum(self, tmp_path):
        # class 2 puts its fundamental near 460 Hz and its noise band near
        # 2 kHz, so both comparison bands carry real signal (well above the
        # int16 quantization floor)
        spec = small_spec(classes=3, clips_per_class=9, devices=3)
        generate_synth_dataset(spec, tmp_path)
        rows = [r for r in parse_manifest(tmp_path / "manifest.tsv")
                if r.scene_label == SCENE_LABELS[2]]
        from pacn.audio import frame_and_window, stft_magnitude

        mean_by_dev = {}
        for r in rows:
            clip = read_wav(tmp_path / r.filename)
            mag = stft_magnitude(frame_and_window(clip.samples)).mean(axis=0)
            mean_by_dev.setdefault(r.device_id, []).append(mag)
        a = np.mean(mean_by_dev["a"], axis=0)
        c = np.mean(mean_by_dev["c"], axis=0)
        # device a tilts down with frequency relative to device c
        lo = slice(40, 51)           # 430..549 Hz, fundamental
        hi = slice(165, 206)         # 1776..2217 Hz, noise band
        ratio = (a[hi].mean() / a[lo].mean()) / (c[hi].mean() / c[lo].mean())
        assert ratio < 0.75
