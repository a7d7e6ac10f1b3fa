import csv
import dataclasses
import json
import logging
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import scipy.io.wavfile

import pacn.cli
import pacn.model
import pacn.train
from pacn.cli import main
from pacn.evalstats import evaluate, write_eval_csv
from pacn.audio import write_wav
from pacn.manifest import parse_manifest, write_manifest
from pacn.model import packaged_config

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

TINY_MODEL = dict(pre_channels=[2], pre_pools=[[4, 4]], lci_channels=[2],
                  gci_embed_dim=2, gci_heads=1, gci_mlp_hidden=4,
                  shuffle_groups=2, num_classes=3)

QUIET_AUGMENT = dict(mixup_prob=0.0, pitch_prob=0.0, audio_mix_prob=0.0)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Synthetic corpus plus config files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "spec.json").write_text(json.dumps(
        {"classes": 2, "clips_per_class": 6, "devices": 2, "seed": 13}))
    (root / "model.json").write_text(json.dumps(TINY_MODEL))
    (root / "train.json").write_text(json.dumps(
        {"epochs": 2, "batch_size": 8, "warmup_epochs": 1, "seed": 1,
         "augment": QUIET_AUGMENT}))
    (root / "kd.json").write_text(json.dumps(
        {"epochs": 2, "batch_size": 8, "warmup_epochs": 1, "seed": 2,
         "kd_lambda": 0.5, "augment": QUIET_AUGMENT}))
    assert main(["synth-data", "--spec", str(root / "spec.json"),
                 "--out", str(root / "data")]) == 0
    assert main(["--quiet", "train-teacher",
                 "--config", str(root / "train.json"),
                 "--model-config", str(root / "model.json"),
                 "--manifest", str(root / "data" / "manifest.tsv"),
                 "--out", str(root / "teacher.ckpt"),
                 "--val-fraction", "0.25"]) == 0
    return root


def run(*argv):
    return main([str(a) for a in argv])


def fails_cleanly(capsys, *argv) -> str:
    """Run a command that must fail with exit 1 and an ``error:`` line on
    stderr, not a traceback; return stderr."""
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


def count_fits(monkeypatch):
    """Record the clip count of every spectrum-correction fit."""
    fits = []
    fit = pacn.train.estimate_dataset_correction

    def counted(clips):
        fits.append(len(clips))
        return fit(clips)

    monkeypatch.setattr(pacn.train, "estimate_dataset_correction", counted)
    return fits


def count_read_wav(monkeypatch, *modules):
    """Route ``read_wav`` in each module through one call counter."""
    calls = []
    original = pacn.train.read_wav

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "read_wav", counted)
    return calls


class TestSynthData:
    def test_outputs_and_summary(self, work, capsys):
        assert (work / "data" / "manifest.tsv").exists()
        rows = (work / "data" / "manifest.tsv").read_text().splitlines()
        assert len(rows) == 13

    def test_rerun_is_byte_identical(self, work, tmp_path):
        run("synth-data", "--spec", work / "spec.json", "--out", tmp_path / "d")
        a = (tmp_path / "d" / "manifest.tsv").read_bytes()
        assert a == (work / "data" / "manifest.tsv").read_bytes()
        one = (work / "data" / "audio")
        for wav in sorted(one.iterdir())[:3]:
            assert (tmp_path / "d" / "audio" / wav.name).read_bytes() \
                == wav.read_bytes()

    def test_seed_flag_overrides_spec(self, work, tmp_path):
        run("--seed", "99", "synth-data", "--spec", work / "spec.json",
            "--out", tmp_path / "d")
        wav = sorted((tmp_path / "d" / "audio").iterdir())[0]
        assert wav.read_bytes() \
            != (work / "data" / "audio" / wav.name).read_bytes()


class TestTraining:
    def test_teacher_artifacts(self, work):
        assert (work / "teacher.ckpt").exists()
        metrics = work / "teacher.ckpt.metrics.csv"
        with open(metrics, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3                      # header + 2 epochs
        assert rows[0][0] == "epoch"
        assert (work / "teacher.ckpt.metrics.csv.meta.json").exists()

    def test_retrain_is_byte_identical(self, work, tmp_path):
        assert run("--quiet", "train-teacher", "--config", work / "train.json",
                   "--model-config", work / "model.json",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--out", tmp_path / "again.ckpt",
                   "--val-fraction", "0.25") == 0
        assert (tmp_path / "again.ckpt").read_bytes() \
            == (work / "teacher.ckpt").read_bytes()
        assert (tmp_path / "again.ckpt.metrics.csv").read_bytes() \
            == (work / "teacher.ckpt.metrics.csv").read_bytes()

    def test_student_distills_from_checkpoint(self, work, tmp_path):
        assert run("--quiet", "train-student", "--config", work / "kd.json",
                   "--model-config", work / "model.json",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--teacher", work / "teacher.ckpt",
                   "--out", tmp_path / "student.ckpt") == 0
        assert (tmp_path / "student.ckpt").exists()

    def test_student_without_teacher_fails(self, work, tmp_path, capsys):
        assert run("--quiet", "train-student", "--config", work / "kd.json",
                   "--model-config", work / "model.json",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--out", tmp_path / "s.ckpt") == 1
        assert "teacher" in capsys.readouterr().err

    @pytest.mark.parametrize("num_classes, teacher, message", [
        (3, False, "kd_lambda < 1 requires a teacher model"),
        (5, True, "teacher predicts 3 classes, student 5"),
    ])
    def test_teacher_errors_fail_before_reading_wavs(
            self, work, tmp_path, capsys, monkeypatch, num_classes, teacher,
            message):
        # train.json leaves kd_lambda at its default, 0.226
        calls = count_read_wav(monkeypatch, pacn.cli, pacn.train)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(dict(TINY_MODEL, num_classes=num_classes)))
        err = fails_cleanly(capsys, "--quiet", "train-student",
                            "--config", work / "train.json",
                            "--model-config", model,
                            "--manifest", work / "data" / "manifest.tsv",
                            *(["--teacher", work / "teacher.ckpt"] if teacher
                              else []),
                            "--out", tmp_path / "s.ckpt")
        assert message in err
        assert calls == []

    def test_truncated_teacher_fails_before_reading_wavs(self, work, tmp_path,
                                                         capsys, monkeypatch):
        calls = count_read_wav(monkeypatch, pacn.cli, pacn.train)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((work / "teacher.ckpt").read_bytes()[:14])
        fails_cleanly(capsys, "--quiet", "train-student",
                      "--config", work / "kd.json",
                      "--model-config", work / "model.json",
                      "--manifest", work / "data" / "manifest.tsv",
                      "--teacher", cut, "--out", tmp_path / "s.ckpt")
        assert calls == []

    def test_exclude_device_trains(self, work, tmp_path):
        assert run("--quiet", "train-teacher", "--config", work / "train.json",
                   "--model-config", work / "model.json",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--out", tmp_path / "x.ckpt",
                   "--exclude-device", "b") == 0

    def test_validation_audio_leaves_the_checkpoint_alone(self, work,
                                                          tmp_path,
                                                          monkeypatch):
        # the correction is fitted once, on the training split only, so a
        # different validation clip changes no weight and no coefficient
        data = shutil.copytree(work / "data", tmp_path / "data")
        ds = pacn.train.load_dataset(data / "manifest.tsv")
        train_ds, val_ds = pacn.train.split_train_val(ds, 0.25, seed=1)
        noise = np.random.default_rng(3).uniform(-0.5, 0.5, 44100)
        write_wav(data / val_ds.names[0], noise.astype(np.float32))
        fits = count_fits(monkeypatch)
        assert run("--quiet", "train-teacher", "--config", work / "train.json",
                   "--model-config", work / "model.json",
                   "--manifest", data / "manifest.tsv",
                   "--out", tmp_path / "t.ckpt",
                   "--val-fraction", "0.25") == 0
        assert fits == [len(train_ds)]
        assert (tmp_path / "t.ckpt").read_bytes() \
            == (work / "teacher.ckpt").read_bytes()

    def test_checkpoint_carries_the_training_devices(self, work, tmp_path):
        assert sorted(pacn.model.PacnModel.load(
            work / "teacher.ckpt").correction.coeffs) == ["a", "b"]
        assert run("--quiet", "train-teacher", "--config", work / "train.json",
                   "--model-config", work / "model.json",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--out", tmp_path / "x.ckpt",
                   "--exclude-device", "b") == 0
        assert sorted(pacn.model.PacnModel.load(
            tmp_path / "x.ckpt").correction.coeffs) == ["a"]

    def test_device_named_mix_is_an_ordinary_device(self, work, tmp_path):
        # device "b" renamed "mix": the same clips, so the same checkpoint
        # but for the correction entry's name
        manifest = work / "data" / "manifest.tsv"
        renamed = tmp_path / "mix.tsv"
        write_manifest(renamed, [dataclasses.replace(
            r, filename=str(manifest.parent / r.filename),
            device_id="mix" if r.device_id == "b" else r.device_id)
            for r in parse_manifest(manifest)])
        assert run("--quiet", "train-teacher", "--config", work / "train.json",
                   "--model-config", work / "model.json",
                   "--manifest", renamed, "--out", tmp_path / "m.ckpt",
                   "--val-fraction", "0.25") == 0
        model = pacn.model.PacnModel.load(tmp_path / "m.ckpt")
        teacher = pacn.model.PacnModel.load(work / "teacher.ckpt")
        assert list(model.correction.coeffs) == ["a", "mix"]
        np.testing.assert_array_equal(model.correction.coeffs["mix"],
                                      teacher.correction.coeffs["b"])
        for path, t in teacher.params.items():
            np.testing.assert_array_equal(model.params[path].data, t.data)
        assert run("--quiet", "eval", "--ckpt", tmp_path / "m.ckpt",
                   "--manifest", renamed, "--report", tmp_path / "r.csv") == 0
        with open(tmp_path / "r.csv", newline="") as fh:
            assert [r[:2] for r in csv.reader(fh) if r[0].startswith("device")] \
                == [["device", "a"], ["device", "mix"]]

    def test_missing_config_reports_path(self, work, capsys):
        assert run("train-teacher", "--config", "no_such_config.json",
                   "--model-config", work / "model.json",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--out", "x.ckpt") == 1
        assert "no_such_config.json" in capsys.readouterr().err


class TestEval:
    def test_report_and_rerun_bytes(self, work, tmp_path, capsys):
        args = ["--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                "--manifest", work / "data" / "manifest.tsv"]
        assert run(*args, "--report", tmp_path / "a.csv") == 0
        assert "overall accuracy" in capsys.readouterr().out
        assert run(*args, "--report", tmp_path / "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()

    def test_held_out_device_marked(self, work, tmp_path):
        # the checkpoint's correction names its training devices; the
        # teacher trained on both, x.ckpt on "a" alone
        manifest = work / "data" / "manifest.tsv"
        assert run("--quiet", "train-teacher", "--config", work / "train.json",
                   "--model-config", work / "model.json",
                   "--manifest", manifest, "--out", tmp_path / "x.ckpt",
                   "--exclude-device", "b") == 0

        def device_sections(ckpt, *flags):
            assert run("--quiet", "eval", "--ckpt", ckpt, "--manifest", manifest,
                       *flags, "--report", tmp_path / "r.csv") == 0
            with open(tmp_path / "r.csv", newline="") as fh:
                return [r[:2] for r in csv.reader(fh)
                        if r[0].startswith("device")]

        for flags in ([], ["--no-correction"]):
            assert device_sections(tmp_path / "x.ckpt", *flags) \
                == [["device", "a"], ["device_unseen", "b"]]
            assert device_sections(work / "teacher.ckpt", *flags) \
                == [["device", "a"], ["device", "b"]]

    def test_reads_each_wav_once(self, work, monkeypatch):
        calls = count_read_wav(monkeypatch, pacn.cli, pacn.train)
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", work / "data" / "manifest.tsv") == 0
        assert len(calls) == 12 and len(set(calls)) == 12

    def test_subset_scores_run_each_clip_once(self, work, tmp_path,
                                              monkeypatch):
        clips = []
        forward = pacn.model.PacnModel.forward

        def counted(model, x, training=False):
            clips.append(x.shape[0])
            return forward(model, x, training)

        monkeypatch.setattr(pacn.model.PacnModel, "forward", counted)
        manifest = work / "data" / "manifest.tsv"
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", manifest,
                   "--subset-scores", tmp_path / "s.csv", "--subsets", "6",
                   "--fraction", "0.5") == 0
        assert sum(clips) == len(parse_manifest(manifest))

    def test_truncated_checkpoint_fails_cleanly(self, work, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((work / "teacher.ckpt").read_bytes()[:14])
        fails_cleanly(capsys, "--quiet", "eval", "--ckpt", cut,
                      "--manifest", work / "data" / "manifest.tsv")

    def test_too_few_classes_fails_cleanly(self, work, tmp_path, capsys):
        ckpt = tmp_path / "one_class.ckpt"
        pacn.model.PacnModel(pacn.model.PacnConfig(
            **dict(TINY_MODEL, num_classes=1))).save(ckpt)
        err = fails_cleanly(capsys, "--quiet", "eval", "--ckpt", ckpt,
                            "--manifest", work / "data" / "manifest.tsv")
        assert "label 1 but the model predicts 1 classes" in err

    def test_non_finite_checkpoint_fails_cleanly(self, work, tmp_path, capsys):
        model = pacn.model.PacnModel.load(work / "teacher.ckpt")
        model.params["head.fc.bias"].data[0] = float("nan")
        ckpt = tmp_path / "nan.ckpt"
        model.save(ckpt)
        err = fails_cleanly(capsys, "--quiet", "eval", "--ckpt", ckpt,
                            "--manifest", work / "data" / "manifest.tsv")
        assert "head.fc.bias" in err and "non-finite" in err

    def test_no_correction_fits_none_and_matches_the_library(
            self, work, tmp_path, monkeypatch):
        fits = []
        fit = pacn.train.estimate_dataset_correction

        def counted(clips):
            fits.append(len(clips))
            return fit(clips)

        monkeypatch.setattr(pacn.train, "estimate_dataset_correction", counted)
        manifest = work / "data" / "manifest.tsv"
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", manifest, "--no-correction",
                   "--report", tmp_path / "cli.csv") == 0
        assert fits == []
        model = pacn.model.PacnModel.load(work / "teacher.ckpt")
        write_eval_csv(tmp_path / "lib.csv",
                       evaluate(model, pacn.train.load_dataset(manifest)))
        assert (tmp_path / "cli.csv").read_bytes() \
            == (tmp_path / "lib.csv").read_bytes()

    def test_applies_the_checkpoint_correction_and_matches_the_library(
            self, work, tmp_path, monkeypatch):
        fits = count_fits(monkeypatch)
        manifest = work / "data" / "manifest.tsv"
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", manifest,
                   "--report", tmp_path / "cli.csv") == 0
        assert fits == []
        model = pacn.model.PacnModel.load(work / "teacher.ckpt")
        write_eval_csv(tmp_path / "lib.csv", evaluate(
            model, pacn.train.load_dataset(manifest,
                                           correction=model.correction)))
        assert (tmp_path / "cli.csv").read_bytes() \
            == (tmp_path / "lib.csv").read_bytes()

    def test_held_out_rows_do_not_move_other_predictions(
            self, work, tmp_path, monkeypatch, caplog):
        manifest = work / "data" / "manifest.tsv"
        assert run("--quiet", "train-teacher", "--config", work / "train.json",
                   "--model-config", work / "model.json",
                   "--manifest", manifest, "--out", tmp_path / "x.ckpt",
                   "--exclude-device", "b") == 0
        seen_only = tmp_path / "seen_only.tsv"
        write_manifest(seen_only, [
            dataclasses.replace(r, filename=str(manifest.parent / r.filename))
            for r in parse_manifest(manifest) if r.device_id != "b"])
        fits = count_fits(monkeypatch)
        with caplog.at_level(logging.WARNING):
            assert run("--quiet", "eval", "--ckpt", tmp_path / "x.ckpt",
                       "--manifest", manifest,
                       "--report", tmp_path / "all.csv") == 0
        assert run("--quiet", "eval", "--ckpt", tmp_path / "x.ckpt",
                   "--manifest", seen_only,
                   "--report", tmp_path / "seen.csv") == 0
        assert fits == []
        assert sum("'b'" in r.getMessage() for r in caplog.records) == 1

        def device_rows(path, dev):
            with open(path, newline="") as fh:
                return [r for r in csv.reader(fh) if r[:2] == ["device", dev]]

        assert device_rows(tmp_path / "all.csv", "a") \
            == device_rows(tmp_path / "seen.csv", "a") != []
        model = pacn.model.PacnModel.load(tmp_path / "x.ckpt")
        full = pacn.train.load_dataset(manifest, correction=model.correction)
        seen = pacn.train.load_dataset(seen_only, correction=model.correction)
        kept = np.array(full.devices) != "b"
        np.testing.assert_array_equal(full.features[kept], seen.features)
        np.testing.assert_array_equal(evaluate(model, full).predictions[kept],
                                      evaluate(model, seen).predictions)

    def test_zero_sample_rate_wav_fails_cleanly(self, work, tmp_path, capsys):
        scipy.io.wavfile.write(tmp_path / "zero.wav", 0,
                               np.zeros(100, dtype=np.int16))
        header, row = (work / "data" / "manifest.tsv").read_text() \
            .splitlines()[:2]
        name = row.split("\t")[0]
        (tmp_path / "m.tsv").write_text(
            f"{header}\n{row.replace(name, 'zero.wav', 1)}\n")
        err = fails_cleanly(capsys, "--quiet", "eval",
                            "--ckpt", work / "teacher.ckpt",
                            "--manifest", tmp_path / "m.tsv")
        assert "zero.wav" in err and "sample rate 0" in err

    def test_subset_scores_row(self, work, tmp_path):
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--subset-scores", tmp_path / "s.csv",
                   "--method-name", "ours", "--subsets", "6",
                   "--fraction", "0.5") == 0
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "method" and len(rows[0]) == 7
        assert rows[1][0] == "ours"
        assert all(0.0 <= float(v) <= 1.0 for v in rows[1][1:])


class TestProfile:
    def test_table_and_check(self, work, tmp_path, capsys):
        assert run("profile", "--config", work / "model.json",
                   "--csv", tmp_path / "p.csv", "--check") == 0
        out = capsys.readouterr().out
        assert "total" in out
        assert "runtime multiply tally" in out
        with open(tmp_path / "p.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "kind", "params", "macs"]

    def test_config_too_large_to_allocate(self, work, tmp_path, capsys):
        # the table needs no allocation; a model of 3.3e13 parameters cannot
        # be mapped at all, so building one fails before touching memory
        big = tmp_path / "big.json"
        big.write_text('{"num_classes": 1000000000000}')
        assert run("profile", "--config", big) == 0
        assert "33000000004860" in capsys.readouterr().out
        err = fails_cleanly(capsys, "profile", "--config", big, "--check")
        assert "needs 33000000004860 parameters" in err
        fails_cleanly(capsys, "--quiet", "train-teacher",
                      "--config", work / "train.json", "--model-config", big,
                      "--manifest", work / "data" / "manifest.tsv",
                      "--out", tmp_path / "t.ckpt")


class TestSignificance:
    @pytest.fixture()
    def scores_csv(self, tmp_path):
        path = tmp_path / "scores.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method"] + [f"subset_{j}" for j in range(1, 7)])
            writer.writerow(["ours"] + ["0.95", "0.94", "0.96", "0.95",
                                        "0.93", "0.97"])
            writer.writerow(["base"] + ["0.90"] * 6)
            writer.writerow(["tiny"] + ["0.80"] * 6)
        return path

    def test_reports_written(self, scores_csv, tmp_path, capsys):
        assert run("significance", "--scores", scores_csv) == 0
        out = capsys.readouterr().out
        assert "critical distance" in out
        base = str(scores_csv)[:-4] + "_ranks"
        assert (tmp_path / "scores_ranks.csv").exists()
        svg = (tmp_path / "scores_ranks.svg").read_text()
        assert svg.startswith("<svg") and "ours" in svg
        assert base.endswith("scores_ranks")

    def test_rerun_byte_identical(self, scores_csv, tmp_path):
        run("significance", "--scores", scores_csv, "--out",
            tmp_path / "one")
        run("significance", "--scores", scores_csv, "--out",
            tmp_path / "two")
        assert (tmp_path / "one.csv").read_bytes() \
            == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.svg").read_bytes() \
            == (tmp_path / "two.svg").read_bytes()

    @pytest.mark.parametrize("suffix", [".csv", ".svg"])
    def test_out_naming_the_scores_file_fails_unchanged(self, tmp_path, capsys,
                                                        monkeypatch, suffix):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / f"drift{suffix}"
        path.write_text("method,s1,s2\na,0.9,0.8\nb,0.8,0.7\n")
        before = path.read_bytes()
        err = fails_cleanly(capsys, "significance", "--scores", f"./drift{suffix}",
                            "--out", "drift")
        assert "would overwrite" in err
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_out_beside_the_scores_file_writes_both(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "drift.csv").write_text("method,s1,s2\na,0.9,0.8\nb,0.8,0.7\n")
        assert run("significance", "--scores", "drift.csv", "--out", "drift2") == 0
        assert (tmp_path / "drift2.csv").read_text().startswith("method,avg_rank")
        assert (tmp_path / "drift2.svg").read_text().startswith("<svg")
        assert (tmp_path / "drift.csv").read_text().startswith("method,s1")

    def test_single_method_fails(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("method,subset_1\nours,0.9\n")
        assert run("significance", "--scores", path) == 1
        assert "2 method" in capsys.readouterr().err

    def test_header_after_blank_line_skipped(self, tmp_path, capsys):
        path = tmp_path / "lead.csv"
        path.write_text("\nmethod,s1,s2\nours,0.9,0.8\nbase,0.8,0.7\n")
        assert run("significance", "--scores", path) == 0
        assert "(2 methods, 2 subsets)" in capsys.readouterr().out

    def test_tied_methods_listed_by_name_as_in_the_csv(self, tmp_path,
                                                       capsys):
        path = tmp_path / "tied.csv"
        path.write_text("zeta,0.5,0.6,0.7\nalpha,0.5,0.6,0.7\n"
                        "mid,0.4,0.4,0.4\n")
        assert run("significance", "--scores", path) == 0
        listed = [line.split(":")[0].strip()
                  for line in capsys.readouterr().out.splitlines()
                  if "avg rank" in line]
        assert listed == ["alpha", "zeta", "mid"]
        with open(tmp_path / "tied_ranks.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)][1:] == listed

    def test_malformed_scores_fail_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("method,subset_1\nours,0.9\nbase,apple\n")
        assert run("significance", "--scores", path) == 1
        assert ":3" in capsys.readouterr().err

    def test_line_number_counts_quoted_newlines(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text('method,subset_1\n"a\nb",0.9\nbase,apple\n')
        err = fails_cleanly(capsys, "significance", "--scores", path)
        assert f"{path}:4:" in err

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_fails_with_line(self, tmp_path, capsys, score):
        path = tmp_path / "bad.csv"
        path.write_text(f"method,subset_1,subset_2\nours,0.9,0.8\n"
                        f"base,0.7,{score}\n")
        err = fails_cleanly(capsys, "significance", "--scores", path)
        assert f"{path}:3" in err
        assert not (tmp_path / "bad_ranks.csv").exists()

    def test_method_names_escaped_in_svg(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("method,subset_1,subset_2\n"
                        "a&b<c,0.9,0.8\nbase,0.7,0.6\n")
        assert run("significance", "--scores", path) == 0
        svg = ET.parse(tmp_path / "scores_ranks.svg")
        texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert "a&b<c" in texts

    @pytest.mark.parametrize("char", ["\x01", "\x0b", "\x1f", "\ufffe", "\uffff"])
    def test_method_name_xml_cannot_hold_fails_with_line(self, tmp_path, capsys,
                                                         char):
        path = tmp_path / "bad.csv"
        path.write_text(f"method,subset_1\nours,0.9\na{char}b,0.7\n",
                        encoding="utf-8")
        err = fails_cleanly(capsys, "significance", "--scores", path)
        assert f"{path}:3" in err
        assert not (tmp_path / "bad_ranks.svg").exists()

    def test_method_name_with_tab_kept_verbatim(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("method,subset_1\n\"a\tb\u00e9\",0.9\nbase,0.7\n",
                        encoding="utf-8")
        assert run("significance", "--scores", path) == 0
        with open(tmp_path / "scores_ranks.csv", newline="", encoding="utf-8") as fh:
            names = [row[0] for row in csv.reader(fh)][1:]
        assert names == ["a\tb\u00e9", "base"]
        svg = ET.parse(tmp_path / "scores_ranks.svg")
        texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert "a\tb\u00e9" in texts


class TestAugmentPreview:
    def test_writes_triplets(self, work, tmp_path):
        assert run("--quiet", "augment-preview",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--out", tmp_path / "prev", "--count", "2") == 0
        files = sorted(p.name for p in (tmp_path / "prev").iterdir())
        assert len(files) == 6
        assert any(f.endswith("_orig.wav") for f in files)
        assert any(f.endswith("_pitch105.wav") for f in files)
        assert any(f.endswith("_policy.wav") for f in files)

    def test_reads_only_the_kept_pool(self, tmp_path, monkeypatch):
        (tmp_path / "spec.json").write_text(json.dumps(
            {"classes": 1, "clips_per_class": 10, "devices": 1, "seed": 3}))
        assert run("synth-data", "--spec", tmp_path / "spec.json",
                   "--out", tmp_path / "d") == 0
        calls = count_read_wav(monkeypatch, pacn.cli)
        assert run("--quiet", "augment-preview",
                   "--manifest", tmp_path / "d" / "manifest.tsv",
                   "--out", tmp_path / "prev", "--count", "2") == 0
        # both previewed clips are in their shared pool of 8: 8 distinct reads
        assert len(calls) == len(set(calls)) == 8

    def test_rows_sharing_a_file_stem_fail_before_writing(self, work, tmp_path,
                                                          capsys):
        header, first, second = (work / "data" / "manifest.tsv").read_text() \
            .splitlines()[:3]
        for sub, row in (("a", first), ("b", second)):
            (tmp_path / sub).mkdir()
            name = row.split("\t")[0]
            shutil.copy(work / "data" / name, tmp_path / sub / "x.wav")
            row = row.replace(name, f"{sub}/x.wav", 1)
            header += "\n" + row
        (tmp_path / "m.tsv").write_text(header + "\n")
        (tmp_path / "prev").mkdir()
        err = fails_cleanly(capsys, "--quiet", "augment-preview",
                            "--manifest", tmp_path / "m.tsv",
                            "--out", tmp_path / "prev", "--count", "2")
        assert len(err.splitlines()) == 1
        assert "a/x.wav" in err and "b/x.wav" in err
        assert list((tmp_path / "prev").iterdir()) == []


class TestWithoutScipy:
    def test_every_command_runs_with_scipy_imports_refused(self, work, tmp_path):
        # SciPy is a test oracle only: a process that cannot import it still
        # runs every command
        scores = tmp_path / "scores.csv"
        scores.write_text("method,s1,s2,s3\nours,0.9,0.8,0.7\n"
                          "base,0.8,0.7,0.7\n")
        data, manifest = tmp_path / "data", tmp_path / "data" / "manifest.tsv"
        commands = [
            ["synth-data", "--spec", work / "spec.json", "--out", data],
            ["train-teacher", "--config", work / "train.json",
             "--model-config", work / "model.json", "--manifest", manifest,
             "--out", tmp_path / "t.ckpt", "--val-fraction", "0.25"],
            ["train-student", "--config", work / "kd.json",
             "--model-config", work / "model.json", "--manifest", manifest,
             "--teacher", tmp_path / "t.ckpt", "--out", tmp_path / "s.ckpt",
             "--val-fraction", "0.25"],
            ["eval", "--ckpt", tmp_path / "s.ckpt", "--manifest", manifest],
            ["significance", "--scores", scores],
            ["augment-preview", "--manifest", manifest,
             "--out", tmp_path / "prev", "--count", "2"],
            ["profile", "--config", work / "model.json", "--check"],
        ]
        code = textwrap.dedent("""
            import json, sys

            class RefuseScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(f"{name} is refused")

            sys.meta_path.insert(0, RefuseScipy())
            from pacn.cli import main
            print(json.dumps([main(["--quiet", *argv])
                              for argv in json.loads(sys.argv[1])]))
        """)
        argv = json.dumps([[str(a) for a in c] for c in commands])
        proc = subprocess.run([sys.executable, "-c", code, argv],
                              capture_output=True, text=True, timeout=600,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(commands), \
            proc.stderr


class TestArgHandling:
    def test_readme_commands_parse(self):
        # a flag that leaves the CLI but stays in the docs fails here
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        blocks = [b.split("```", 1)[0] for b in readme.split("```sh\n")[1:]]
        parser = pacn.cli.build_parser()
        parsed = [parser.parse_args(shlex.split(line, comments=True)[1:])
                  for block in blocks
                  for line in block.replace("\\\n", " ").splitlines()
                  if line.startswith("pacn ")]
        assert {args.command for args in parsed} == {
            "synth-data", "train-teacher", "train-student", "eval",
            "significance", "profile", "augment-preview"}

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["distill-everything"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, work):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--config", str(work / "model.json"),
                  "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval"])
        assert exc.value.code == 2

    def test_quiet_sets_warning_level(self, work):
        assert run("--quiet", "profile", "--config", work / "model.json") == 0
        assert logging.getLogger().level == logging.WARNING
        assert run("profile", "--config", work / "model.json") == 0
        assert logging.getLogger().level == logging.INFO

    @pytest.mark.parametrize("command, flag, text", [
        ("train-teacher", "--config", '{"epochs": "2"}'),
        ("train-teacher", "--config", '{"augment": {"pitch_factors": 3}}'),
        ("synth-data", "--spec", '5'),
        ("synth-data", "--spec", '{"classes": "3"}'),
    ])
    def test_mistyped_config_fails_cleanly(self, work, tmp_path, capsys,
                                           command, flag, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        data = (["--manifest", work / "data" / "manifest.tsv"]
                if command == "train-teacher" else [])
        fails_cleanly(capsys, "--quiet", command, flag, bad, *data,
                      "--out", tmp_path / "out")

    def test_pitch_factor_overflowing_the_clip_fails_cleanly(self, work, tmp_path,
                                                             capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"augment": {"pitch_factors": [1e-305], "pitch_prob": 1.0}}')
        err = fails_cleanly(capsys, "--quiet", "train-teacher", "--config", bad,
                            "--manifest", work / "data" / "manifest.tsv",
                            "--out", tmp_path / "out")
        assert "pitch_factors" in err

    @pytest.mark.parametrize("text", ['{"arn_enabled": "no"}',
                                      '{"gci_heads": true}',
                                      '{"pre_channels": [true, 16]}'])
    def test_mistyped_model_config_fails_cleanly(self, tmp_path, capsys, text):
        bad = tmp_path / "model.json"
        bad.write_text(text)
        fails_cleanly(capsys, "profile", "--config", bad)

    @pytest.mark.parametrize("command, flag", [("profile", "--config"),
                                               ("synth-data", "--spec"),
                                               ("train-teacher", "--config")])
    def test_non_utf8_config_fails_cleanly(self, work, tmp_path, capsys,
                                           command, flag):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": 1, "wiring_mode": "\xff"}')
        extra = {"profile": [],
                 "synth-data": ["--out", tmp_path / "out"],
                 "train-teacher": ["--manifest", work / "data" / "manifest.tsv",
                                   "--out", tmp_path / "t.ckpt"]}[command]
        err = fails_cleanly(capsys, "--quiet", command, flag, bad, *extra)
        assert str(bad) in err and "UTF-8" in err

    def test_non_utf8_manifest_fails_cleanly(self, work, tmp_path, capsys):
        raw = (work / "data" / "manifest.tsv").read_bytes()
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(raw.replace(b".wav", b"\xff.wav", 1))
        err = fails_cleanly(capsys, "--quiet", "train-teacher",
                            "--config", work / "train.json",
                            "--manifest", bad, "--out", tmp_path / "t.ckpt")
        assert "UTF-8" in err

    def test_non_utf8_scores_fail_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "scores.csv"
        bad.write_bytes(b"method,subset_1\nours,0.9\nb\xffx,0.7\n")
        err = fails_cleanly(capsys, "significance", "--scores", bad)
        assert f"{bad}: not UTF-8 text (byte 26:" in err

    @pytest.mark.parametrize("pools", [[[64, 2], [8, 2]], [[4, 2], [4, 64]]])
    @pytest.mark.parametrize("command", ["profile", "profile --check",
                                         "train-teacher"])
    def test_pools_that_empty_the_feature_fail_cleanly(self, work, tmp_path,
                                                       capsys, command, pools):
        bad = tmp_path / "model.json"
        bad.write_text(dataclasses.replace(
            packaged_config("student"), pre_pools=pools).to_json())
        argv = {"profile": ["profile", "--config", bad],
                "profile --check": ["profile", "--config", bad, "--check"],
                "train-teacher": ["train-teacher",
                                  "--config", work / "train.json",
                                  "--model-config", bad,
                                  "--manifest", work / "data" / "manifest.tsv",
                                  "--out", tmp_path / "t.ckpt"]}[command]
        err = fails_cleanly(capsys, "--quiet", *argv)
        assert "of the 256 x 65 feature" in err

    def test_malformed_manifest_line_number(self, work, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("filename\tscene_label\tdevice_id\tcity\n"
                       "a.wav\tbus\ta\n")
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", bad) == 1
        assert ":2" in capsys.readouterr().err

    def test_non_positive_preview_count_fails_cleanly(self, work, tmp_path,
                                                      capsys):
        fails_cleanly(capsys, "--quiet", "augment-preview",
                      "--manifest", work / "data" / "manifest.tsv",
                      "--out", tmp_path / "p", "--count", "-1")
        assert not (tmp_path / "p").exists()

    def test_non_positive_subsets_fails_cleanly(self, work, tmp_path, capsys):
        fails_cleanly(capsys, "--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                      "--manifest", work / "data" / "manifest.tsv",
                      "--report", tmp_path / "e.csv",
                      "--subset-scores", tmp_path / "s.csv", "--subsets", "0")
        assert not (tmp_path / "e.csv").exists()
        assert not (tmp_path / "s.csv").exists()
