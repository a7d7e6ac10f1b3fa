"""Release gates: one test per shipping criterion, each at a fixed tolerance.

Run with ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion. The two learning-signal tests train real models on a synthetic
corpus and take a few minutes combined; everything else is fast.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from pacn import ops
from pacn.audio import AudioClip, delta_coefficients, extract_feature
from pacn.gradcheck import check_gradients
from pacn.model import PacnConfig, PacnModel
from pacn.profiler import profile, verify_against_runtime
from pacn.tensor import Tensor, matmul, relu, tmean
from pacn.train import (TrainConfig, kd_loss,
                        load_training_split, lr_at, mean_teacher_kl,
                        train_student_kd, train_teacher)


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


TINY = dict(pre_channels=[2], pre_pools=[[4, 4]], lci_channels=[2],
            gci_embed_dim=2, gci_heads=1, gci_mlp_hidden=4, shuffle_groups=2,
            num_classes=3)


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape).astype(np.float64),
                  requires_grad=True)


class TestGradients:
    def test_criterion_gradient_suite(self):
        """Primitive gradients < 1e-3, full tiny model < 1e-2, under 2 min."""
        start = time.time()
        rng = np.random.default_rng(42)

        a = leaf(rng, 3, 4)
        b = leaf(rng, 4, 5)
        c = leaf(rng, 5)
        worst = check_gradients(
            lambda: tmean(relu(matmul(a, b) + c + 0.3)), [a, b, c])
        assert worst < 1e-3

        x = leaf(rng, 2, 3, 8, 6)
        pw = leaf(rng, 4, 3)
        pb = leaf(rng, 4)
        dw = leaf(rng, 4, 3, 3)
        db = leaf(rng, 4)
        worst = check_gradients(
            lambda: tmean(ops.bsconv_forward(x, pw, dw, pw_bias=pb,
                                             dw_bias=db, stride=(2, 1))),
            [x, pw, pb, dw, db])
        assert worst < 1e-3

        perm = np.argsort(rng.random(2 * 2 * 6 * 6))
        xp = Tensor((perm.reshape(2, 2, 6, 6) * 0.1).astype(np.float64),
                    requires_grad=True)
        worst = check_gradients(
            lambda: tmean(ops.maxpool2d(xp, (2, 2))), [xp])
        assert worst < 1e-3

        logits = leaf(rng, 4, 5)
        y = np.eye(5)[[0, 2, 4, 1]]
        worst = check_gradients(lambda: ops.cross_entropy(logits, y),
                                [logits])
        assert worst < 1e-3

        xn = leaf(rng, 2, 3, 4, 5)
        rho = Tensor(np.array(0.4), requires_grad=True)
        gam = leaf(rng, 3)
        bet = leaf(rng, 3)
        worst = check_gradients(
            lambda: tmean(ops.arn_forward(xn, rho, gam, bet)),
            [xn, rho, gam, bet])
        assert worst < 1e-3

        xg = leaf(rng, 2, 4, 3, 5)
        gg = leaf(rng, 4)
        gb = leaf(rng, 4)
        worst = check_gradients(
            lambda: tmean(ops.grn_forward(xg, gg, gb)), [xg, gg, gb])
        assert worst < 1e-3

        tk = leaf(rng, 2, 5, 4)
        wq, wk, wv, wo = (leaf(rng, 4, 4) for _ in range(4))
        bq, bk, bv, bo = (leaf(rng, 4) for _ in range(4))
        worst = check_gradients(
            lambda: tmean(ops.mha_forward(tk, wq, wk, wv, wo, heads=2,
                                          bq=bq, bk=bk, bv=bv, bo=bo)),
            [tk, wq, wk, wv, wo, bq, bk, bv, bo])
        assert worst < 1e-3

        model = PacnModel(PacnConfig(**TINY), seed=1, dtype=np.float64)
        xin = rng.normal(size=(2, 2, 32, 16)) * 1.5
        yin = np.eye(3)[[0, 2]]
        worst = check_gradients(
            lambda: ops.cross_entropy(model.forward(Tensor(xin.copy()),
                                                    training=True), yin),
            list(model.params.values()))
        assert worst < 1e-2

        assert time.time() - start < 120.0
        ok("gradient suite")


class TestNormalizationIdentities:
    def test_criterion_normalization_identities(self):
        rng = np.random.default_rng(7)
        x = Tensor((rng.normal(size=(3, 4, 6, 7)) * 3 + 1).astype(np.float32))
        normed = ops.fin_forward(x).data
        for n in range(3):
            for f in range(6):
                sl = normed[n, :, f, :]
                assert abs(sl.mean()) < 1e-5
                assert abs(sl.var() - 1.0) < 1e-3

        rho = Tensor(np.array(1.0, dtype=np.float32))
        gamma = Tensor(np.ones(4, dtype=np.float32))
        beta = Tensor(np.zeros(4, dtype=np.float32))
        np.testing.assert_array_equal(
            ops.arn_forward(x, rho, gamma, beta).data, x.data)

        zg = Tensor(np.zeros(4, dtype=np.float32))
        zb = Tensor(np.zeros(4, dtype=np.float32))
        np.testing.assert_array_equal(ops.grn_forward(x, zg, zb).data, x.data)
        ok("normalization identities")


class TestKdEndpoints:
    def test_criterion_distill_zero_when_logits_match(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(8, 10)).astype(np.float64)
        y = np.eye(10)[rng.integers(0, 10, size=8)]
        parts = kd_loss(Tensor(z.copy()), y, z, 0.226, 2.0)
        assert abs(parts.distill) < 1e-12
        ok("distillation endpoint: matching logits")

    def test_criterion_lambda_one_bit_identical(self, tmp_path, whole_set):
        from pacn.augment import AugmentConfig
        from pacn.synth import SynthSpec, generate_synth_dataset

        generate_synth_dataset(SynthSpec(classes=3, clips_per_class=4,
                                         devices=2, seed=2), tmp_path / "d")
        ds = whole_set(tmp_path / "d" / "manifest.tsv")
        cfg = TrainConfig(epochs=2, batch_size=8, warmup_epochs=1, seed=6,
                          kd_lambda=1.0, augment=AugmentConfig())
        plain = train_teacher(PacnConfig(**TINY), ds, cfg)
        viakd = train_student_kd(PacnConfig(**TINY), None, ds, cfg)
        plain.model.save(tmp_path / "plain.ckpt")
        viakd.model.save(tmp_path / "kd.ckpt")
        assert (tmp_path / "plain.ckpt").read_bytes() \
            == (tmp_path / "kd.ckpt").read_bytes()
        ok("distillation endpoint: lambda=1 bit-identity")


class TestComplexityBudget:
    def test_criterion_complexity_budget(self):
        student = PacnConfig()
        report = profile(student)
        pn, macs = report.total_params, report.total_macs
        assert 4700 <= pn <= 5700
        assert 1.2e6 <= macs <= 1.7e6

        for mode in ("parallel", "serial", "no_fusion"):
            cfg = PacnConfig(wiring_mode=mode)
            check = verify_against_runtime(cfg)
            assert check.matched, (mode, check)

        serial = PacnConfig(wiring_mode="serial")
        serial_report = profile(serial)
        assert serial_report.total_params >= pn
        assert serial_report.total_macs >= macs
        ok("complexity budget")


class TestFeatureGeometry:
    def test_criterion_feature_geometry(self):
        rng = np.random.default_rng(21)
        clip = AudioClip(samples=rng.normal(size=44100).astype(np.float32) * 0.1)
        feat = extract_feature(clip).feature
        assert feat.shape == (2, 256, 65)
        assert feat.dtype == np.float32

        silent = extract_feature(AudioClip(samples=np.zeros(44100,
                                                            np.float32)))
        np.testing.assert_array_equal(silent.feature[1],
                                      np.zeros((256, 65), np.float32))
        const = np.full((256, 65), -3.7, dtype=np.float32)
        np.testing.assert_array_equal(delta_coefficients(const),
                                      np.zeros((256, 65), np.float32))
        ok("feature geometry")


class TestSchedule:
    def test_criterion_schedule_shape(self):
        total, warm, peak = 5700, 570, 0.002
        assert lr_at(0, total, warm, peak) == 0.0
        assert lr_at(warm, total, warm, peak) == peak
        assert lr_at(total, total, warm, peak) <= 1e-9
        values = np.array([lr_at(s, total, warm, peak)
                           for s in range(total + 1)])
        assert np.isfinite(values).all()
        assert np.abs(np.diff(values)).max() < peak * 0.01
        ok("learning-rate schedule")


class TestStatistics:
    def test_criterion_rank_statistics(self):
        from pacn.evalstats import friedman_test, nemenyi_cd, rank_report

        scores = np.vstack([np.full(20, 0.9), np.full(20, 0.6),
                            np.full(20, 0.5), np.full(20, 0.4)])
        report = rank_report(scores, ["w", "x", "y", "z"])
        assert report.avg_ranks[0] == 1.0

        hand = np.array([
            [0.9, 0.9, 0.5, 0.9],
            [0.8, 0.5, 0.9, 0.8],
            [0.5, 0.8, 0.4, 0.5],
        ])
        assert abs(friedman_test(hand).statistic - 4.5) < 1e-9

        for k in (2, 4, 7, 10):
            a = nemenyi_cd(k, 30)
            b = nemenyi_cd(k, 60)
            assert abs(b - a / math.sqrt(2.0)) < 1e-12
        ok("rank statistics")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from pacn.synth import SynthSpec, generate_synth_dataset

    root = tmp_path_factory.mktemp("corpus")
    generate_synth_dataset(SynthSpec(classes=4, clips_per_class=300,
                                     devices=3, seed=11), root)
    return root


class TestLearningSignal:
    def test_criterion_student_learns_synthetic_scenes(self, corpus):
        start = time.time()
        # the CLI's split: the correction is fitted on the training rows only
        train_ds, val_ds, correction = load_training_split(
            corpus / "manifest.tsv", 0.25, seed=3)

        student = PacnConfig()          # reference low-complexity config
        cfg = TrainConfig(epochs=12, batch_size=16, warmup_epochs=3, seed=3,
                          kd_lambda=1.0)
        result = train_student_kd(student, None, train_ds, cfg, val_ds,
                                  correction)
        best = max(m.val_acc for m in result.metrics)
        elapsed = time.time() - start
        assert best >= 0.90, f"best held-out accuracy {best:.3f}"
        assert elapsed < 600.0, f"took {elapsed:.0f}s"
        ok(f"learning signal (held-out {best:.3f} in {elapsed:.0f}s)")

    def test_criterion_pure_distillation_closes_kl(self, corpus, whole_set):
        from pacn.augment import AugmentConfig

        ds = whole_set(corpus / "manifest.tsv")
        per_class = [np.flatnonzero(ds.labels == c)[:60] for c in range(4)]
        sub = ds.subset(np.sort(np.concatenate(per_class)))

        quiet = AugmentConfig(mixup_prob=0.0, pitch_prob=0.0,
                              audio_mix_prob=0.0)
        teacher_cfg = PacnConfig(pre_channels=[6, 24],
                                 pre_pools=[[4, 2], [4, 2]],
                                 lci_channels=[24, 24], gci_embed_dim=24,
                                 gci_heads=4, gci_mlp_hidden=96)
        teacher = train_teacher(
            teacher_cfg, sub,
            TrainConfig(epochs=6, batch_size=16, warmup_epochs=1, seed=7,
                        augment=quiet)).model

        student_cfg = PacnConfig()
        kd_cfg = TrainConfig(epochs=20, batch_size=16, warmup_epochs=2,
                             kd_lambda=0.0, kd_temperature=2.0, seed=5,
                             augment=quiet)
        init_student = PacnModel(student_cfg, seed=kd_cfg.seed)
        kl_before = mean_teacher_kl(teacher, init_student, sub.features)
        result = train_student_kd(student_cfg, teacher, sub, kd_cfg)
        kl_after = mean_teacher_kl(teacher, result.model, sub.features)
        assert kl_after <= 0.5 * kl_before, (kl_before, kl_after)
        ok(f"pure distillation (KL {kl_before:.3f} -> {kl_after:.3f})")


class TestDeterminism:
    def test_criterion_full_pipeline_byte_identical(self, tmp_path):
        from pacn.cli import main

        (tmp_path / "spec.json").write_text(json.dumps(
            {"classes": 2, "clips_per_class": 8, "devices": 2, "seed": 17}))
        (tmp_path / "model.json").write_text(json.dumps(TINY))
        (tmp_path / "train.json").write_text(json.dumps(
            {"epochs": 2, "batch_size": 8, "warmup_epochs": 1, "seed": 9}))

        outputs = {}
        for run_dir in ("one", "two"):
            d = tmp_path / run_dir
            d.mkdir()
            assert main(["--quiet", "synth-data",
                         "--spec", str(tmp_path / "spec.json"),
                         "--out", str(d / "data")]) == 0
            assert main(["--quiet", "train-teacher",
                         "--config", str(tmp_path / "train.json"),
                         "--model-config", str(tmp_path / "model.json"),
                         "--manifest", str(d / "data" / "manifest.tsv"),
                         "--out", str(d / "m.ckpt"),
                         "--val-fraction", "0.25"]) == 0
            assert main(["--quiet", "eval", "--ckpt", str(d / "m.ckpt"),
                         "--manifest", str(d / "data" / "manifest.tsv"),
                         "--report", str(d / "eval.csv"),
                         "--subset-scores", str(d / "row.csv"),
                         "--method-name", "ours",
                         "--subsets", "6", "--fraction", "0.5"]) == 0
            with open(d / "row.csv") as fh:
                rows = list(csv.reader(fh))
            with open(d / "scores.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(rows[0])
                writer.writerow(rows[1])
                writer.writerow(["flat"] + ["0.5"] * (len(rows[0]) - 1))
            assert main(["--quiet", "significance",
                         "--scores", str(d / "scores.csv"),
                         "--out", str(d / "ranks")]) == 0

            wavs = sorted((d / "data" / "audio").iterdir())[:3]
            outputs[run_dir] = [
                (d / "data" / "manifest.tsv").read_bytes(),
                *[w.read_bytes() for w in wavs],
                (d / "m.ckpt").read_bytes(),
                (d / "m.ckpt.metrics.csv").read_bytes(),
                (d / "m.ckpt.metrics.csv.meta.json").read_bytes(),
                (d / "eval.csv").read_bytes(),
                (d / "row.csv").read_bytes(),
                (d / "ranks.csv").read_bytes(),
                (d / "ranks.svg").read_bytes(),
            ]
        assert outputs["one"] == outputs["two"]
        ok("full-pipeline determinism")
