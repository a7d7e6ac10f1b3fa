"""Profiler: closed-form counts, frozen totals, runtime cross-check."""

import csv
import dataclasses
from types import SimpleNamespace

import pytest

from pacn import profiler
from pacn.cli import main
from pacn.model import WIRING_MODES, PacnConfig, PacnModel, layers, packaged_config

TINY = dict(pre_channels=[2], pre_pools=[[4, 4]], lci_channels=[2],
            gci_embed_dim=2, gci_heads=1, gci_mlp_hidden=4, shuffle_groups=2,
            num_classes=3)

TEACHER = dict(pre_channels=[12, 64], lci_channels=[64, 64],
               gci_embed_dim=64, gci_heads=4, gci_mlp_hidden=256)


def packaged(name, **overrides):
    return dataclasses.replace(packaged_config(name), **overrides)


PACKAGED_VARIANTS = [(name, mode, arn) for name in ("student", "teacher")
                     for mode in WIRING_MODES
                     for arn in (True, False)]


def row(report, name):
    return next(r for r in report.rows if r.name == name)


class TestUnitCounts:
    def test_fc_head_32_to_10(self):
        rep = profiler.profile(PacnConfig())
        head = row(rep, "head.fc")
        assert head.params == 32 * 10 + 10 == 330
        assert head.macs == 32 * 10 == 320

    def test_bsconv_2_to_8(self):
        cfg = PacnConfig(pre_channels=[8], pre_pools=[[4, 4]],
                         lci_channels=[8], gci_embed_dim=8, gci_heads=2,
                         gci_mlp_hidden=16, shuffle_groups=2)
        rep = profiler.profile(cfg)
        pw, dw = row(rep, "pre.0.pw"), row(rep, "pre.0.dw")
        assert pw.params + dw.params == 104   # (2*8+8) + (9*8+8)
        assert pw.macs == 256 * 65 * 8 * 2 == 266240

    def test_attention_formula(self):
        rep = profiler.profile(PacnConfig())
        att = row(rep, "gci.attn")
        d, length = 16, 16
        assert att.params == 4 * (d * d + d)
        assert att.macs == 4 * length * d * d + 2 * length * length * d

    def test_zero_cost_kinds(self):
        rep = profiler.profile(PacnConfig())
        assert row(rep, "pre.0.pool").macs == 0
        assert all(r.macs > 0 for r in rep.rows if r.kind == "norm")


class TestFrozenTotals:
    """Measured once from the shipped configs; any drift is a real change."""

    def test_student_parallel(self):
        rep = profiler.profile(PacnConfig())
        assert rep.total_params == 5190
        assert rep.total_macs == 1364832

    def test_student_serial(self):
        rep = profiler.profile(PacnConfig(wiring_mode="serial"))
        assert rep.total_params == 5462
        assert rep.total_macs == 1368928

    def test_student_no_fusion(self):
        rep = profiler.profile(PacnConfig(wiring_mode="no_fusion"))
        assert rep.total_params == 5200
        assert rep.total_macs == 1364832

    def test_teacher(self):
        rep = profiler.profile(PacnConfig(**TEACHER))
        assert rep.total_params == 67377
        assert rep.total_macs == 8850816

    def test_student_parallel_without_arn(self):
        rep = profiler.profile(PacnConfig(arn_enabled=False))
        assert rep.total_params == 5143
        assert rep.total_macs == 1304672

    def test_teacher_parallel_without_arn(self):
        rep = profiler.profile(PacnConfig(arn_enabled=False, **TEACHER))
        assert rep.total_params == 67198
        assert rep.total_macs == 8610176

    def test_acceptance_bands(self):
        rep = profiler.profile(PacnConfig())
        assert 4700 <= rep.total_params <= 5700
        assert 1.2e6 <= rep.total_macs <= 1.7e6


class TestCrossRoutes:
    @pytest.mark.parametrize("mode", ["parallel", "serial", "no_fusion"])
    def test_params_match_built_model(self, mode):
        cfg = PacnConfig(wiring_mode=mode)
        assert profiler.profile(cfg).total_params == PacnModel(cfg, seed=0).num_params()

    @pytest.mark.parametrize("mode,arn", [
        pytest.param(mode, arn, id=mode if arn else f"{mode}-arn_off")
        for arn in (True, False) for mode in WIRING_MODES])
    def test_runtime_tally_matches_kernel_macs(self, mode, arn):
        cfg = PacnConfig(wiring_mode=mode, arn_enabled=arn)
        check = profiler.verify_against_runtime(cfg)
        assert check.matched, (check.runtime_macs, check.kernel_macs)

    def test_runtime_tally_on_tiny_config(self):
        cfg = PacnConfig(**TINY)
        check = profiler.verify_against_runtime(cfg)
        assert check.matched

    def test_tiny_config_stays_tiny(self):
        assert profiler.profile(PacnConfig(**TINY)).total_params <= 200


class TestCheckMemory:
    def test_input_beyond_memory_fails_cleanly(self, tmp_path, capsys,
                                               monkeypatch):
        # a million input channels: a 124 GiB float64 check input, which the
        # stub refuses as numpy would, without allocating anything
        wide = tmp_path / "wide.json"
        wide.write_text(packaged("student", in_channels=1_000_000).to_json())

        class NoMemory:
            def standard_normal(self, shape):
                raise MemoryError

        monkeypatch.setattr(profiler, "np", SimpleNamespace(
            random=SimpleNamespace(default_rng=lambda seed: NoMemory())))
        assert main(["--quiet", "profile", "--config", str(wide), "--check"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert err.count("\n") == 1 and "(1, 1000000, 256, 65)" in err


class TestLayerTable:
    """``model.layers`` is the one list the model and the profile read."""

    @pytest.mark.parametrize("name,mode,arn", PACKAGED_VARIANTS)
    def test_paths_are_the_model_parameters_in_order(self, name, mode, arn):
        cfg = packaged(name, wiring_mode=mode, arn_enabled=arn)
        paths = [p[0] for _, _, _, params in layers(cfg) for p in params]
        assert paths == list(PacnModel(cfg, seed=0).params)

    @pytest.mark.parametrize("name,mode,arn", PACKAGED_VARIANTS)
    def test_row_params_are_the_sizes_under_its_prefix(self, name, mode, arn):
        # the prefix rule perfbench's tracer maps parameters to rows by
        cfg = packaged(name, wiring_mode=mode, arn_enabled=arn)
        model = PacnModel(cfg, seed=0)
        for r in profiler.profile(cfg).rows:
            assert r.params == sum(t.data.size for path, t in model.params.items()
                                   if path.startswith(r.name + ".")), r.name

    @pytest.mark.parametrize("name", ["student", "teacher"])
    def test_profile_rows_are_the_layer_table(self, name):
        cfg = packaged(name)
        assert profiler.profile(cfg).rows == layers(cfg)


class TestReportOutput:
    def test_text_report_has_totals(self):
        text = profiler.profile(PacnConfig()).format_text()
        assert "total" in text
        assert "5190" in text
        assert "1364832" in text

    def test_csv_report(self, tmp_path):
        rep = profiler.profile(PacnConfig())
        path = tmp_path / "profile.csv"
        rep.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "kind", "params", "macs"]
        assert rows[-1][0] == "total"
        assert int(rows[-1][2]) == rep.total_params
        body = rows[1:-1]
        assert sum(int(r[2]) for r in body) == rep.total_params
        assert sum(int(r[3]) for r in body) == rep.total_macs
