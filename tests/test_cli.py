import csv
import json
import logging

import pytest

import pacn.cli
import pacn.train
from pacn.cli import main

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
        rows = list(csv.reader(open(metrics)))
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

    def test_exclude_device_trains(self, work, tmp_path):
        assert run("--quiet", "train-teacher", "--config", work / "train.json",
                   "--model-config", work / "model.json",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--out", tmp_path / "x.ckpt",
                   "--exclude-device", "b") == 0

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
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--held-out-device", "b",
                   "--report", tmp_path / "r.csv") == 0
        rows = list(csv.reader(open(tmp_path / "r.csv")))
        assert any(r[0] == "device_unseen" and r[1] == "b" for r in rows)

    def test_unknown_held_out_device_fails(self, work, capsys):
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--held-out-device", "zz") == 1
        assert "zz" in capsys.readouterr().err

    def test_reads_each_wav_once(self, work, monkeypatch):
        calls = count_read_wav(monkeypatch, pacn.cli, pacn.train)
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", work / "data" / "manifest.tsv") == 0
        assert len(calls) == 12 and len(set(calls)) == 12

    def test_truncated_checkpoint_fails_cleanly(self, work, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((work / "teacher.ckpt").read_bytes()[:14])
        assert run("--quiet", "eval", "--ckpt", cut,
                   "--manifest", work / "data" / "manifest.tsv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_subset_scores_row(self, work, tmp_path):
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", work / "data" / "manifest.tsv",
                   "--subset-scores", tmp_path / "s.csv",
                   "--method-name", "ours", "--subsets", "6",
                   "--fraction", "0.5") == 0
        rows = list(csv.reader(open(tmp_path / "s.csv")))
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
        rows = list(csv.reader(open(tmp_path / "p.csv")))
        assert rows[0] == ["layer", "kind", "params", "macs"]


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

    def test_single_method_fails(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("method,subset_1\nours,0.9\n")
        assert run("significance", "--scores", path) == 1
        assert "2 method" in capsys.readouterr().err

    def test_malformed_scores_fail_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("method,subset_1\nours,0.9\nbase,apple\n")
        assert run("significance", "--scores", path) == 1
        assert ":3" in capsys.readouterr().err


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
        assert len(calls) == 2 * (1 + 8)      # the clip, then its pool of 8


class TestArgHandling:
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

    def test_malformed_manifest_line_number(self, work, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("filename\tscene_label\tdevice_id\tcity\n"
                       "a.wav\tbus\ta\n")
        assert run("--quiet", "eval", "--ckpt", work / "teacher.ckpt",
                   "--manifest", bad) == 1
        assert ":2" in capsys.readouterr().err
