import csv
import dataclasses
import json
import logging
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacn import evalstats
from pacn.augment import AugmentConfig
import pacn.train
from pacn.errors import (ConfigError, IngestionError, PacnError, TrainingError,
                         UsageError)
from pacn.model import PacnConfig, PacnModel
from pacn.tensor import Tensor
from pacn.manifest import parse_manifest, write_manifest
from pacn.train import (Adam, METRICS_COLUMNS, TrainConfig, estimate_dataset_correction,
                        extract_features, kd_loss,
                        load_training_split, lr_at,
                        mean_teacher_kl, split_train_val, train_student_kd,
                        train_teacher, warn_unseen, write_metrics)

TINY = dict(pre_channels=[2], pre_pools=[[4, 4]], lci_channels=[2],
            gci_embed_dim=2, gci_heads=1, gci_mlp_hidden=4, shuffle_groups=2,
            num_classes=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8)
TRAIN_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]
AUGMENT_FIELDS = [f.name for f in dataclasses.fields(AugmentConfig)]


def tiny_config(**kw):
    d = dict(TINY)
    d.update(kw)
    return PacnConfig(**d)


def quiet_augment():
    return AugmentConfig(mixup_prob=0.0, pitch_prob=0.0, audio_mix_prob=0.0)


def fast_cfg(**kw):
    base = dict(epochs=2, batch_size=8, warmup_epochs=1, seed=0,
                augment=quiet_augment())
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    from pacn.synth import SynthSpec, generate_synth_dataset

    root = tmp_path_factory.mktemp("ds")
    generate_synth_dataset(SynthSpec(classes=3, clips_per_class=6, devices=2,
                                     seed=4), root)
    return root / "manifest.tsv"


@pytest.fixture(scope="module")
def tiny_ds(tiny_manifest, whole_set):
    return whole_set(tiny_manifest)


class TestTrainConfig:
    def test_published_recipe_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100
        assert cfg.batch_size == 16
        assert cfg.peak_lr == 0.002
        assert cfg.warmup_epochs == 10
        assert cfg.kd_lambda == 0.226
        assert cfg.kd_temperature == 2.0
        assert cfg.mixup_alpha == 0.4

    def test_json_roundtrip_with_augment(self):
        cfg = fast_cfg(kd_lambda=0.5, mixup_alpha=0.3)
        again = TrainConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig.from_json('{"momentum": 0.9}')

    def test_unknown_augment_field_rejected(self):
        with pytest.raises(ConfigError, match="specaug"):
            TrainConfig.from_json('{"augment": {"specaug": true}}')

    @pytest.mark.parametrize("kw", [
        {"kd_lambda": 1.5}, {"kd_lambda": -0.1}, {"kd_temperature": 0.0},
        {"warmup_epochs": 200}, {"epochs": 0}, {"peak_lr": 0.0},
        {"mixup_alpha": 0.0},
        {"batch_size": 0},
        {"augment": AugmentConfig(mixup_prob=2.5)},
        {"augment": AugmentConfig(pitch_prob=-1.0)},
        {"augment": AugmentConfig(audio_mix_prob=1.5)},
        {"augment": AugmentConfig(audio_mix_low=0.9, audio_mix_high=0.1)},
        {"augment": AugmentConfig(audio_mix_low=-0.1)},
        {"augment": AugmentConfig(audio_mix_high=1.2)},
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw).validate()

    @pytest.mark.parametrize("factor", [1e-305, 5e-324, math.nan])
    def test_pitch_factor_with_non_finite_clip_length_rejected(self, factor):
        # pitch_shift would need CLIP_SAMPLES / factor samples: OverflowError
        # (or ValueError for NaN) from the batch worker instead of a ConfigError
        cfg = TrainConfig(augment=AugmentConfig(pitch_factors=(1.0, factor)))
        with pytest.raises(ConfigError, match="pitch_factors"):
            cfg.validate()
        tiny = TrainConfig(augment=AugmentConfig(pitch_factors=(1e-300,)))
        assert tiny.validate() is tiny

    @pytest.mark.parametrize("text", [
        '5', '{"epochs": "2"}', '{"augment": 3}',
        '{"augment": {"pitch_factors": 3}}', '{"kd_temperature": true}',
        '{"peak_lr": NaN}', '{"seed": -1}', '{"augment": {"pitch_factors": []}}',
    ])
    def test_mistyped_json_rejected(self, text):
        with pytest.raises(ConfigError):
            TrainConfig.from_json(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES, st.dictionaries(
        st.sampled_from(TRAIN_FIELDS),
        JSON_VALUES | st.dictionaries(st.sampled_from(AUGMENT_FIELDS), JSON_VALUES))))
    def test_json_loads_or_raises_pacn_error(self, doc):
        try:
            cfg = TrainConfig.from_json(json.dumps(doc))
        except PacnError:
            return
        assert cfg.validate() is cfg

    def test_mixup_alpha_is_top_level_only(self):
        with pytest.raises(ConfigError, match="mixup_alpha"):
            TrainConfig.from_json('{"augment": {"mixup_alpha": 0.2}}')

    @pytest.mark.parametrize("text,key", [
        ('{"kd_t2_scale": true}', "kd_t2_scale"),
        ('{"augment": {"mixup_domain": "feature"}}', "mixup_domain"),
        ('{"augment": {"spectrum_correction": false}}', "spectrum_correction"),
    ])
    def test_removed_keys_are_unknown(self, text, key):
        with pytest.raises(ConfigError, match=key):
            TrainConfig.from_json(text)


class TestKdLoss:
    def test_temperature_must_be_positive(self):
        logits = Tensor(np.zeros((1, 2)))
        with pytest.raises(UsageError, match="temperature"):
            kd_loss(logits, np.eye(2)[:1], np.zeros((1, 2)), 0.5, 0.0)

    def test_lambda_range_checked(self):
        logits = Tensor(np.zeros((1, 2)))
        with pytest.raises(UsageError):
            kd_loss(logits, np.eye(2)[:1], np.zeros((1, 2)), 1.5, 2.0)

    def test_lambda_one_is_plain_cross_entropy(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        y = np.eye(3, dtype=np.float64)[[0, 1, 2, 0]]
        parts = kd_loss(logits, y, None, 1.0, 2.0)
        assert parts.distill == 0.0
        from pacn.ops import cross_entropy

        ref = cross_entropy(Tensor(logits.data.copy()), y)
        assert float(parts.total.data) == float(ref.data)

    def test_teacher_required_below_one(self):
        logits = Tensor(np.zeros((1, 2)))
        with pytest.raises(UsageError, match="teacher"):
            kd_loss(logits, np.eye(2)[:1], None, 0.5, 2.0)

    def test_matching_logits_zero_distill(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 4)).astype(np.float64)
        y = np.eye(4)[rng.integers(0, 4, size=5)]
        parts = kd_loss(Tensor(z.copy()), y, z, 0.3, 2.0)
        assert abs(parts.distill) < 1e-12

    def test_hand_example_two_logits(self):
        # student (0,0), teacher (2,0), true class 0, T=2, lambda=0.226
        hard = math.log(2.0)
        p1 = math.exp(1.0) / (math.exp(1.0) + 1.0)
        p2 = 1.0 - p1
        kl = p1 * (math.log(p1) + math.log(2.0)) \
            + p2 * (math.log(p2) + math.log(2.0))
        expected = 0.226 * hard + (1.0 - 0.226) * 4.0 * kl

        parts = kd_loss(Tensor(np.zeros((1, 2), dtype=np.float64)),
                        np.array([[1.0, 0.0]]),
                        np.array([[2.0, 0.0]]), 0.226, 2.0)
        assert abs(float(parts.total.data) - expected) < 1e-12
        assert abs(parts.hard - hard) < 1e-12
        assert abs(parts.distill - kl) < 1e-12

    def test_total_decomposition(self):
        rng = np.random.default_rng(8)
        zs = rng.normal(size=(6, 5)).astype(np.float64)
        zt = rng.normal(size=(6, 5)).astype(np.float64)
        y = np.eye(5)[rng.integers(0, 5, size=6)]
        lam, temp = 0.4, 3.0
        parts = kd_loss(Tensor(zs), y, zt, lam, temp)
        scale = (1 - lam) * temp * temp
        assert abs(float(parts.total.data)
                   - (lam * parts.hard + scale * parts.distill)) < 1e-12

    def test_lambda_zero_drops_hard_term(self):
        rng = np.random.default_rng(9)
        zs = rng.normal(size=(3, 4))
        zt = rng.normal(size=(3, 4))
        y_a = np.eye(4)[[0, 1, 2]]
        y_b = np.eye(4)[[3, 3, 3]]
        a = kd_loss(Tensor(zs.copy()), y_a, zt, 0.0, 2.0)
        b = kd_loss(Tensor(zs.copy()), y_b, zt, 0.0, 2.0)
        assert float(a.total.data) == float(b.total.data)
        assert a.hard != b.hard


class TestSchedule:
    def test_zero_at_step_zero(self):
        assert lr_at(0, 1000, 100, 0.002) == 0.0

    def test_peak_at_warmup_end_exact(self):
        assert lr_at(100, 1000, 100, 0.002) == 0.002

    def test_zero_at_final_step(self):
        assert lr_at(1000, 1000, 100, 0.002) == 0.0

    def test_continuous_and_unimodal(self):
        total, warm, peak = 500, 50, 0.002
        values = [lr_at(s, total, warm, peak) for s in range(total + 1)]
        steps = np.diff(values)
        assert np.abs(steps).max() < peak * 0.05
        assert all(d > 0 for d in steps[:warm])
        assert all(d <= 0 for d in steps[warm:])

    def test_no_warmup_starts_at_peak(self):
        assert lr_at(0, 10, 0, 0.01) == 0.01

    def test_all_warmup_holds_peak(self):
        assert lr_at(7, 10, 10, 0.01) == pytest.approx(0.007, rel=1e-12)
        assert lr_at(10, 10, 10, 0.01) == 0.01

    @pytest.mark.parametrize("step,total,warm", [
        (-1, 10, 2), (11, 10, 2), (5, 10, 12), (0, 0, 0),
    ])
    def test_out_of_range_rejected(self, step, total, warm):
        with pytest.raises(UsageError):
            lr_at(step, total, warm, 0.002)


class TestAdam:
    def test_first_step_matches_hand_formula(self):
        p = Tensor(np.array(1.0, dtype=np.float64), requires_grad=True)
        p.grad = np.array(0.5, dtype=np.float64)
        opt = Adam({"w": p})
        opt.step(0.1)

        m = 0.1 * 0.5
        v = 0.001 * 0.25
        mhat = m / 0.1
        vhat = v / 0.001
        expected = 1.0 - 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
        assert abs(float(p.data) - expected) < 1e-12

    def test_minimizes_quadratic(self):
        x = Tensor(np.array(1.0, dtype=np.float64), requires_grad=True)
        opt = Adam({"x": x})
        for _ in range(200):
            x.grad = None
            loss = x * x
            loss.backward()
            opt.step(0.05)
        assert abs(float(x.data)) < 1e-2

    def test_missing_gradient_leaves_parameter(self):
        p = Tensor(np.ones(3), requires_grad=True)
        before = p.data.copy()
        Adam({"w": p}).step(0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_zero_gradient_leaves_parameter(self):
        p = Tensor(np.ones(3), requires_grad=True)
        p.grad = np.zeros(3, dtype=p.data.dtype)
        before = p.data.copy()
        Adam({"w": p}).step(0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_nan_gradient_aborts_with_path(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.array([1.0, np.nan], dtype=p.data.dtype)
        with pytest.raises(TrainingError, match="lci.0.pw.w"):
            Adam({"lci.0.pw.w": p}).step(0.1)

    def test_inf_gradient_aborts(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.array([np.inf, 0.0], dtype=p.data.dtype)
        with pytest.raises(TrainingError):
            Adam({"w": p}).step(0.1)


class TestDatasets:
    def test_load_shapes(self, tiny_ds):
        assert tiny_ds.features.shape == (18, 2, 256, 65)
        assert tiny_ds.features.dtype == np.float32
        assert sorted(set(tiny_ds.devices)) == ["a", "b"]
        assert set(tiny_ds.labels.tolist()) == {0, 1, 2}

    def test_threads_do_not_change_features(self, tiny_ds):
        one = extract_features(tiny_ds.clips, threads=1)
        assert one.tobytes() == extract_features(tiny_ds.clips, threads=2).tobytes()
        assert one.tobytes() == extract_features(tiny_ds.clips).tobytes()

    @pytest.mark.parametrize("cpus, clips, workers",
                             [({0, 1}, 3, 2), ({1}, 3, 1), ({0, 1}, 1, 1)])
    def test_pool_is_sized_by_the_affinity_mask(self, tiny_ds, monkeypatch,
                                                cpus, clips, workers):
        sizes = []

        def pool(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        monkeypatch.setattr(pacn.train, "ThreadPoolExecutor", pool)
        extract_features(tiny_ds.clips[:clips])
        assert sizes == [workers]

    def test_no_clips_give_an_empty_stack_and_no_pool(self, monkeypatch):
        monkeypatch.setattr(pacn.train, "ThreadPoolExecutor", None)
        out = extract_features([])
        assert out.shape == (0, 2, 256, 65) and out.dtype == np.float32

    def test_split_is_stratified_and_deterministic(self, tiny_ds):
        tr1, va1 = split_train_val(tiny_ds, 1 / 3, seed=7)
        tr2, va2 = split_train_val(tiny_ds, 1 / 3, seed=7)
        assert va1.names == va2.names and tr1.names == tr2.names
        assert len(va1) == 6
        for c in range(3):
            assert (va1.labels == c).sum() == 2
        assert set(va1.names) | set(tr1.names) == set(tiny_ds.names)

    def test_zero_fraction_gives_empty_val(self, tiny_ds):
        tr, va = split_train_val(tiny_ds, 0.0, seed=1)
        assert len(va) == 0 and len(tr) == len(tiny_ds)

    def test_bad_fraction_rejected(self, tiny_ds):
        with pytest.raises(UsageError):
            split_train_val(tiny_ds, 1.0, seed=1)

    def test_exclude_device_partitions(self, tiny_manifest, tiny_ds):
        kept, val, corr = load_training_split(tiny_manifest, 0.0, seed=0,
                                              exclude_device="b")
        others = np.flatnonzero(np.array(tiny_ds.devices) != "b")
        assert len(val) == 0 and set(kept.devices) == {"a"}
        assert kept.names == tuple(np.array(tiny_ds.names)[others])
        np.testing.assert_array_equal(kept.labels, tiny_ds.labels[others])
        np.testing.assert_array_equal(
            kept.features, extract_features(tiny_ds.subset(others).clips, corr))

    def test_exclude_unknown_device_rejected(self, tiny_manifest):
        with pytest.raises(UsageError, match="zz"):
            load_training_split(tiny_manifest, 0.0, seed=0,
                                exclude_device="zz")

    def test_exclude_only_device_rejected(self, tiny_manifest):
        only_a = tiny_manifest.parent / "only_a.tsv"
        write_manifest(only_a, [r for r in parse_manifest(tiny_manifest)
                                if r.device_id == "a"])
        with pytest.raises(UsageError, match="nothing left"):
            load_training_split(only_a, 0.0, seed=0, exclude_device="a")

    def test_empty_manifest_rejected(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        write_manifest(empty, [])
        with pytest.raises(UsageError, match="no clips"):
            load_training_split(empty, 0.0, seed=0)

    def test_correction_fitted_on_kept_clips(self, tiny_manifest, tiny_ds,
                                             monkeypatch):
        # fitted once, on exactly the kept rows split_train_val trains on
        fits = []
        fit = pacn.train.estimate_dataset_correction

        def counted(clips):
            fits.append([c.device_id for c in clips])
            return fit(clips)

        monkeypatch.setattr(pacn.train, "estimate_dataset_correction", counted)
        train, val, corr = load_training_split(tiny_manifest, 0.25, seed=0,
                                               exclude_device="b")
        assert fits == [list(train.devices)]
        assert sorted(corr.coeffs) == ["a"]
        kept = tiny_ds.subset(np.flatnonzero(np.array(tiny_ds.devices) != "b"))
        train_ref, val_ref = split_train_val(kept, 0.25, seed=0)
        assert (train.names, val.names) == (train_ref.names, val_ref.names)
        np.testing.assert_array_equal(
            train.features, extract_features(train_ref.clips, corr))
        np.testing.assert_array_equal(
            val.features, extract_features(val_ref.clips, corr))

    def test_split_parts_are_extracted_apart(self, tiny_manifest,
                                             monkeypatch):
        # each part stacks its own clips: no whole-corpus stack is made
        sizes = []
        extract = pacn.train.extract_features

        def counted(clips, correction=None):
            sizes.append(len(clips))
            return extract(clips, correction)

        monkeypatch.setattr(pacn.train, "extract_features", counted)
        train, val, _ = load_training_split(tiny_manifest, 1 / 3, seed=0)
        assert sizes == [len(train), len(val)] == [12, 6]

    def test_training_split_needs_training_rows(self, tiny_manifest,
                                                tmp_path):
        one = tmp_path / "one.tsv"
        row = parse_manifest(tiny_manifest)[0]
        write_manifest(one, [dataclasses.replace(
            row, filename=str(tiny_manifest.parent / row.filename))])
        with pytest.raises(UsageError, match="training dataset is empty"):
            load_training_split(one, 0.6, seed=0)

    def test_no_correction_by_default(self, tiny_ds):
        assert not hasattr(tiny_ds, "correction")
        np.testing.assert_array_equal(tiny_ds.features,
                                      extract_features(tiny_ds.clips))

    def test_unseen_device_warns_once_across_threads(self, tiny_manifest,
                                                     tiny_ds, caplog):
        # the rows warn, once per device in first-appearance order; the
        # threaded extraction passes the device through and warns of nothing
        corr = estimate_dataset_correction(
            [c for c in tiny_ds.clips if c.device_id == "a"])
        rows = parse_manifest(tiny_manifest)
        rows = [dataclasses.replace(r, device_id="s1") for r in rows[:2]] + rows
        clips = [c for c in tiny_ds.clips if c.device_id == "b"] * 4
        with caplog.at_level(logging.WARNING):
            warn_unseen(rows * 4, corr)
            feats = extract_features(clips, corr, threads=2)
            warn_unseen(rows, None)
        assert [r.getMessage() for r in caplog.records] \
            == [f"no spectrum correction for device {d!r}; passing through"
                for d in ("s1", "b")]
        np.testing.assert_array_equal(feats, extract_features(clips))

    def test_audio_mix_passes_through_without_warning(self, tiny_ds, caplog,
                                                      monkeypatch):
        # a mix has no device: the batch worker finds no coefficients for it
        # and the correction is never asked, so nothing warns
        corr = estimate_dataset_correction(tiny_ds.clips)
        pools = {}
        for clip, label in zip(tiny_ds.clips, tiny_ds.labels):
            pools.setdefault(int(label), []).append(clip)
        seen = []
        extract = pacn.train.extract_feature

        def spy(clip, spectrum_coeffs=None):
            seen.append((clip.device_id, spectrum_coeffs))
            return extract(clip, spectrum_coeffs)

        monkeypatch.setattr(pacn.train, "extract_feature", spy)
        cfg = fast_cfg(augment=AugmentConfig(mixup_prob=0.0, pitch_prob=0.0,
                                             audio_mix_prob=1.0))
        with caplog.at_level(logging.WARNING):
            pacn.train._batch_clips(tiny_ds, range(len(tiny_ds)), 1, cfg,
                                    corr.coeffs, pools)
        assert len(seen) == len(tiny_ds)
        assert all(dev is None and c is None for dev, c in seen)
        assert not caplog.records

    def test_correction_covers_all_devices(self, tiny_ds):
        corr = estimate_dataset_correction(tiny_ds.clips)
        assert sorted(corr.coeffs) == ["a", "b"]


class TestTrainingLoop:
    def test_empty_dataset_rejected(self, tiny_ds):
        with pytest.raises(UsageError, match="empty"):
            train_teacher(tiny_config(), tiny_ds.subset([]), fast_cfg())

    def test_loss_decreases_across_seeds(self, tiny_ds):
        for seed in (0, 1, 2):
            cfg = fast_cfg(epochs=5, seed=seed)
            res = train_teacher(tiny_config(), tiny_ds, cfg)
            assert res.metrics[4].train_loss < res.metrics[0].train_loss

    def test_metrics_row_per_epoch(self, tiny_ds, tmp_path):
        res = train_teacher(tiny_config(), tiny_ds, fast_cfg(epochs=3))
        path = tmp_path / "m.csv"
        write_metrics(path, res)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == METRICS_COLUMNS
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        assert all(r[6] == "" for r in rows[1:])   # no validation split
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert meta["train"]["epochs"] == 3
        assert meta["model"]["num_classes"] == 3

    def test_val_column_populated_with_split(self, tiny_ds, tmp_path):
        tr, va = split_train_val(tiny_ds, 1 / 3, seed=0)
        res = train_teacher(tiny_config(), tr, fast_cfg(), va)
        assert all(m.val_acc is not None for m in res.metrics)

    def test_deterministic_checkpoints(self, tiny_ds, tmp_path):
        for name in ("one", "two"):
            res = train_teacher(tiny_config(), tiny_ds,
                                fast_cfg(augment=AugmentConfig()))
            res.model.save(tmp_path / name)
        assert (tmp_path / "one").read_bytes() == (tmp_path / "two").read_bytes()

    def test_worker_extracts_with_each_clips_coefficients(self, tiny_ds,
                                                          monkeypatch):
        # every clip is pitch-shifted, so the worker extracts every feature
        corr = estimate_dataset_correction(tiny_ds.clips)
        seen = []
        extract = pacn.train.extract_feature

        def spy(clip, spectrum_coeffs=None):
            seen.append((clip.device_id, spectrum_coeffs))
            return extract(clip, spectrum_coeffs)

        monkeypatch.setattr(pacn.train, "extract_feature", spy)
        cfg = fast_cfg(augment=AugmentConfig(mixup_prob=0.0, pitch_prob=1.0,
                                             audio_mix_prob=0.0))
        train_teacher(tiny_config(), tiny_ds, cfg, correction=corr)
        assert len(seen) == cfg.epochs * len(tiny_ds)
        assert {dev for dev, _ in seen} == {"a", "b"}
        assert all(c is corr.coeffs[dev] for dev, c in seen)

    def test_seed_changes_training(self, tiny_ds, tmp_path):
        a = train_teacher(tiny_config(), tiny_ds, fast_cfg(seed=0))
        b = train_teacher(tiny_config(), tiny_ds, fast_cfg(seed=1))
        a.model.save(tmp_path / "a")
        b.model.save(tmp_path / "b")
        assert (tmp_path / "a").read_bytes() != (tmp_path / "b").read_bytes()

    def test_lambda_one_matches_teacher_training_bitwise(self, tiny_ds, tmp_path):
        cfg = fast_cfg(kd_lambda=1.0)
        plain = train_teacher(tiny_config(), tiny_ds, fast_cfg(kd_lambda=0.3))
        distilled = train_student_kd(tiny_config(), None, tiny_ds, cfg)
        plain.model.save(tmp_path / "plain")
        distilled.model.save(tmp_path / "kd")
        assert (tmp_path / "plain").read_bytes() == (tmp_path / "kd").read_bytes()

    def test_distillation_needs_teacher(self, tiny_ds):
        with pytest.raises(UsageError, match="teacher"):
            train_student_kd(tiny_config(), None, tiny_ds,
                             fast_cfg(kd_lambda=0.5))
        # an out-of-range weight is named as such, not as a missing teacher
        with pytest.raises(ConfigError, match=r"kd_lambda must lie in \[0, 1\]"):
            train_student_kd(tiny_config(), None, tiny_ds,
                             fast_cfg(kd_lambda=-0.5))

    def test_class_count_mismatch_rejected(self, tiny_ds):
        teacher = PacnModel(tiny_config(num_classes=4))
        with pytest.raises(ConfigError, match="classes"):
            train_student_kd(tiny_config(num_classes=3), teacher, tiny_ds,
                             fast_cfg(kd_lambda=0.5))

    def test_labels_must_fit_model(self, tiny_ds):
        with pytest.raises(ConfigError, match="label"):
            train_teacher(tiny_config(num_classes=2), tiny_ds, fast_cfg())

    def test_kd_run_reports_distill_loss(self, tiny_ds):
        teacher = train_teacher(tiny_config(), tiny_ds, fast_cfg(epochs=2)).model
        res = train_student_kd(tiny_config(), teacher, tiny_ds,
                               fast_cfg(kd_lambda=0.5, seed=3))
        assert all(m.distill_loss > 0 for m in res.metrics)
        assert all(m.hard_loss > 0 for m in res.metrics)

    def test_full_augmentation_pipeline_runs(self, tiny_ds):
        cfg = fast_cfg(epochs=1, augment=AugmentConfig(
            mixup_prob=1.0, pitch_prob=0.5, audio_mix_prob=0.5))
        res = train_teacher(tiny_config(), tiny_ds, cfg)
        assert math.isfinite(res.metrics[0].train_loss)

    def test_teacher_sees_student_batches_off_main_thread(self, tiny_ds,
                                                          monkeypatch):
        teacher = PacnModel(tiny_config(), seed=9)
        teacher_calls, student_inputs = [], []
        forward = PacnModel.forward

        def spy(model, x, training=False):
            if model is teacher:
                teacher_calls.append((x.data.tobytes(),
                                      threading.current_thread()))
            elif training:
                student_inputs.append(x.data.tobytes())
            return forward(model, x, training)

        monkeypatch.setattr(PacnModel, "forward", spy)
        train_student_kd(tiny_config(), teacher, tiny_ds,
                         fast_cfg(kd_lambda=0.5, augment=AugmentConfig()))
        assert len(student_inputs) == 2 * 3     # 2 epochs of 18 clips at 8
        assert [x for x, _ in teacher_calls] == student_inputs
        main = threading.main_thread()
        assert all(t is not main for _, t in teacher_calls)

    def test_producer_error_reaches_caller(self, tiny_ds, monkeypatch):
        error = IngestionError("third clip is unreadable")
        calls = []
        augment = pacn.train.augment_clip

        def failing(clip, *args, **kwargs):
            calls.append(clip)
            if len(calls) == 3:
                raise error
            return augment(clip, *args, **kwargs)

        monkeypatch.setattr(pacn.train, "augment_clip", failing)
        teacher = PacnModel(tiny_config(), seed=9)
        threads_before = threading.active_count()
        with pytest.raises(IngestionError) as info:
            train_student_kd(tiny_config(), teacher, tiny_ds,
                             fast_cfg(kd_lambda=0.5))
        assert info.value is error
        assert threading.active_count() == threads_before


class TestMeanTeacherKl:
    def test_identical_models_give_zero(self, tiny_ds):
        m = PacnModel(tiny_config(), seed=5)
        assert mean_teacher_kl(m, m, tiny_ds.features) == pytest.approx(0.0,
                                                                        abs=1e-12)

    def test_distinct_models_positive(self, tiny_ds):
        a = PacnModel(tiny_config(), seed=5)
        b = PacnModel(tiny_config(), seed=6)
        assert mean_teacher_kl(a, b, tiny_ds.features) > 0.0

    def test_empty_features_rejected(self, tiny_ds):
        m = PacnModel(tiny_config())
        with pytest.raises(UsageError):
            mean_teacher_kl(m, m, tiny_ds.features[:0])

    def test_is_the_kd_distillation_term(self, tiny_ds):
        teacher = PacnModel(tiny_config(), seed=5)
        student = PacnModel(tiny_config(), seed=6)
        zt = evalstats.logits(teacher, tiny_ds.features).astype(np.float64)
        zs = evalstats.logits(student, tiny_ds.features).astype(np.float64)
        y = np.eye(3)[tiny_ds.labels]
        distill = kd_loss(Tensor(zs), y, zt, 0.0, 1.0).distill
        assert mean_teacher_kl(teacher, student, tiny_ds.features) \
            == pytest.approx(distill, rel=0, abs=1e-12)
