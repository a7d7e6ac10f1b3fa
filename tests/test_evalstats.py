import csv
import hashlib
import itertools
import math
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacn.evalstats
from pacn.augment import SpectrumCorrection
from pacn.errors import ConfigError, UsageError
from pacn.evalstats import (Q_ALPHA, chunks, draw_subsets, evaluate,
                            format_eval_text, friedman_test, nemenyi_cd,
                            predict, rank_matrix,
                            rank_report, subset_accuracy_row, write_eval_csv,
                            write_rank_csv, write_rank_svg)
from pacn.model import PacnModel, packaged_config
from pacn.tensor import Tensor


class StubModel:
    """Duck-typed classifier emitting scripted logits batch by batch, with
    a spectrum correction for each of its training devices, if any."""

    def __init__(self, logits, num_classes=10, devices=None):
        self.logits = np.asarray(logits, dtype=np.float32)
        self.config = SimpleNamespace(num_classes=num_classes)
        self.correction = (None if devices is None else SpectrumCorrection(
            {d: np.ones(2049) for d in devices}))
        self.cursor = 0

    def __call__(self, x, training=False):
        n = x.data.shape[0]
        out = self.logits[self.cursor:self.cursor + n]
        self.cursor += n
        return Tensor(out)


def stub_dataset(labels, devices=None):
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    return SimpleNamespace(features=np.zeros((n, 2, 256, 65), dtype=np.float32),
                           labels=labels,
                           devices=tuple(devices or ["a"] * n))


def score(model, ds):
    """``evaluate`` on the model's predictions for a stub dataset."""
    return evaluate(model, ds.labels, ds.devices, predict(model, ds.features))


class TestPredict:
    def test_ties_resolve_to_lowest_index(self):
        model = StubModel(np.zeros((5, 10)))
        ds = stub_dataset([0] * 5)
        assert predict(model, ds.features).tolist() == [0] * 5

    def test_empty_rejected(self):
        model = StubModel(np.zeros((0, 10)))
        with pytest.raises(UsageError):
            predict(model, np.zeros((0, 2, 256, 65), dtype=np.float32))

    def test_batching_matches_labels(self, monkeypatch):
        monkeypatch.setattr(pacn.evalstats, "EVAL_BATCH", 3)
        want = [3, 1, 4, 1, 5, 9, 2, 6]
        logits = np.eye(10)[want] * 7.0
        preds = predict(StubModel(logits), stub_dataset(want).features)
        assert preds.tolist() == want

    def test_lone_last_clip_joins_previous_chunk(self, monkeypatch):
        # a 1-row forward sums the head FC in another order, so a lone last
        # clip would give logits that depend on the set's size
        monkeypatch.setattr(pacn.evalstats, "EVAL_BATCH", 3)
        model = PacnModel(packaged_config("teacher"), seed=0)
        feats = np.random.default_rng(5).standard_normal(
            (5, 2, 256, 65)).astype(np.float32)
        four = pacn.evalstats.logits(model, feats[:4])
        five = pacn.evalstats.logits(model, feats)
        assert four.tobytes() == five[:4].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 64, 65, 66, 129, 130])
    def test_chunks_tile_the_rows_with_no_lone_last_row(self, n):
        ranges = chunks(n)
        assert [a for a, _ in ranges] == [0] + [b for _, b in ranges[:-1]]
        assert ranges[-1][1] == n
        assert all(b - a <= pacn.evalstats.EVAL_BATCH + 1 for a, b in ranges)
        assert n == 1 or all(b - a > 1 for a, b in ranges)
        with pytest.raises(UsageError):
            chunks(0)


class TestEvaluate:
    def test_constant_predictor_on_balanced_data(self):
        labels = list(range(10)) * 3
        model = StubModel(np.zeros((30, 10)))
        result = score(model, stub_dataset(labels))
        assert result.overall_accuracy == pytest.approx(0.10)

    def test_device_accuracies_average_to_overall(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, size=60)
        preds = rng.integers(0, 10, size=60)
        devices = rng.choice(["a", "b", "s1"], size=60).tolist()
        model = StubModel(np.eye(10)[preds] * 5.0)
        result = score(model, stub_dataset(labels, devices))
        weighted = sum(result.per_device_accuracy[d] * devices.count(d)
                       for d in set(devices)) / 60
        assert abs(weighted - result.overall_accuracy) < 1e-9

    def test_confusion_rows_are_true_classes(self):
        labels = [0, 1, 1]
        preds = [0, 2, 1]
        model = StubModel(np.eye(10)[preds] * 5.0)
        result = score(model, stub_dataset(labels))
        assert result.confusion.shape == (10, 10)
        assert result.confusion[0, 0] == 1
        assert result.confusion[1, 2] == 1
        assert result.confusion[1, 1] == 1
        assert result.confusion.sum() == 3
        np.testing.assert_array_equal(result.confusion.sum(axis=1)[:2], [1, 2])

    def test_per_class_accuracy_names(self):
        labels = [0, 0, 9]
        model = StubModel(np.eye(10)[[0, 1, 9]] * 5.0)
        result = score(model, stub_dataset(labels))
        assert result.per_class_accuracy["airport"] == 0.5
        assert result.per_class_accuracy["tram"] == 1.0

    def test_empty_dataset_rejected(self):
        none = np.zeros(0, dtype=np.int64)
        with pytest.raises(UsageError):
            evaluate(StubModel(np.zeros((0, 10))), none, (), none)

    def test_labels_beyond_the_model_rejected(self):
        model = StubModel(np.zeros((3, 4)), num_classes=4)
        with pytest.raises(ConfigError, match="label 5 but the model "
                                              "predicts 4 classes"):
            score(model, stub_dataset([0, 5, 1]))

    def test_text_and_csv_outputs(self, tmp_path):
        # trained on "a" alone, so "s1" is unseen
        labels = [0, 1, 0, 1]
        model = StubModel(np.eye(10)[[0, 1, 1, 1]] * 5.0, devices=["a"])
        result = score(model, stub_dataset(labels, ["a", "a", "s1", "s1"]))
        assert result.unseen_devices == ("s1",)
        text = format_eval_text(result)
        assert "overall accuracy: 0.7500" in text
        assert "device s1 (unseen)" in text
        path = tmp_path / "r.csv"
        write_eval_csv(path, result)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["section", "key", "value"]
        assert ["device_unseen", "s1", repr(0.5)] in rows
        assert any(r[0] == "confusion" and r[1] == "airport" for r in rows)

    @pytest.mark.parametrize("devices", [["a", "s1"], ["s1", "a", "b"], None])
    def test_no_device_unseen(self, devices):
        # trained on every device of the dataset, or with no correction at all
        model = StubModel(np.eye(10)[[0, 1, 1, 1]] * 5.0, devices=devices)
        result = score(model, stub_dataset([0, 1, 0, 1],
                                           ["a", "a", "s1", "s1"]))
        assert result.unseen_devices == ()
        assert "unseen" not in format_eval_text(result)


class TestRanks:
    def test_winner_gets_rank_one(self):
        scores = np.array([[0.9] * 4, [0.5] * 4, [0.4] * 4])
        ranks = rank_matrix(scores)
        assert (ranks[0] == 1.0).all()

    def test_ties_average(self):
        ranks = rank_matrix(np.array([[0.5], [0.5], [0.5], [0.5]]))
        assert (ranks == 2.5).all()

    def test_columns_sum_to_constant(self):
        rng = np.random.default_rng(1)
        scores = rng.random((5, 9))
        ranks = rank_matrix(scores)
        np.testing.assert_allclose(ranks.sum(axis=0), 5 * 6 / 2)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_scipy_rankdata(self, data):
        from scipy.stats import rankdata

        k = data.draw(st.integers(2, 10), label="methods")
        n = data.draw(st.integers(1, 12), label="subsets")
        # few score levels, so ties are common; -0.0 ties with 0.0
        levels = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(-1, 1)
        scores = np.array(data.draw(st.lists(levels, min_size=k * n,
                                             max_size=k * n), label="scores"))
        scores = scores.reshape(k, n)
        want = np.stack([rankdata(-scores[:, j], method="average")
                         for j in range(n)], axis=1)
        got = rank_matrix(scores)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    def test_shape_validated(self):
        with pytest.raises(UsageError):
            rank_matrix(np.zeros((1, 5)))
        with pytest.raises(UsageError):
            rank_matrix(np.zeros(5))


class TestFriedman:
    def test_three_by_four_hand_example(self):
        # ranks per subset: A = (1,1,2,1), B = (2,3,1,2), C = (3,2,3,3)
        scores = np.array([
            [0.9, 0.9, 0.5, 0.9],
            [0.8, 0.5, 0.9, 0.8],
            [0.5, 0.8, 0.4, 0.5],
        ])
        fr = friedman_test(scores)
        np.testing.assert_allclose(fr.avg_ranks, [1.25, 2.0, 2.75])
        assert abs(fr.statistic - 4.5) < 1e-9

    def test_all_tied_gives_zero(self):
        fr = friedman_test(np.full((4, 6), 0.7))
        assert fr.statistic == pytest.approx(0.0, abs=1e-12)
        assert (fr.avg_ranks == 2.5).all()

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.random((4, 12))
        a = friedman_test(scores)
        b = friedman_test(scores ** 3 + 2.0)
        np.testing.assert_array_equal(a.ranks, b.ranks)
        assert a.statistic == b.statistic

    def test_matches_scipy(self):
        from scipy.stats import friedmanchisquare

        rng = np.random.default_rng(3)
        scores = rng.random((4, 15))
        ours = friedman_test(scores).statistic
        theirs = friedmanchisquare(*[scores[i] for i in range(4)]).statistic
        assert abs(ours - theirs) < 1e-9


class TestNemenyi:
    def test_reference_value_k4_n20(self):
        expected = Q_ALPHA[0.05][4] * math.sqrt(4 * 5 / (6.0 * 20))
        assert nemenyi_cd(4, 20) == expected
        assert expected == pytest.approx(1.0488, abs=2e-4)

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    @pytest.mark.parametrize("alpha", [0.05, 0.10])
    def test_doubling_subsets_shrinks_by_sqrt2(self, k, alpha):
        a = nemenyi_cd(k, 24, alpha)
        b = nemenyi_cd(k, 48, alpha)
        assert abs(b - a / math.sqrt(2.0)) < 1e-12

    def test_out_of_table_rejected(self):
        with pytest.raises(UsageError):
            nemenyi_cd(1, 20)
        with pytest.raises(UsageError):
            nemenyi_cd(11, 20)
        with pytest.raises(UsageError):
            nemenyi_cd(4, 0)
        with pytest.raises(UsageError):
            nemenyi_cd(4, 20, alpha=0.01)

    def test_table_against_studentized_range(self):
        from scipy.stats import studentized_range

        for k in (2, 4, 10):
            q = studentized_range.ppf(0.95, k, np.inf) / math.sqrt(2.0)
            assert abs(q - Q_ALPHA[0.05][k]) < 1e-3

    def test_alpha_ten_is_looser(self):
        assert nemenyi_cd(5, 20, 0.10) < nemenyi_cd(5, 20, 0.05)


class TestSubsets:
    def test_five_percent_of_1200_is_60(self):
        subsets = draw_subsets(1200, n_subsets=20, fraction=0.05, seed=0)
        assert len(subsets) == 20
        assert all(len(s) == 60 for s in subsets)
        assert all(len(np.unique(s)) == 60 for s in subsets)

    def test_deterministic_and_distinct(self):
        a = draw_subsets(100, 5, 0.1, seed=3)
        b = draw_subsets(100, 5, 0.1, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(a[0], s) for s in a[1:])

    def test_fraction_validated(self):
        with pytest.raises(UsageError):
            draw_subsets(10, 5, 0.0)
        with pytest.raises(UsageError):
            draw_subsets(0, 5, 0.5)

    def test_accuracy_row(self):
        correct = np.array([1, 1, 0, 0, 1], dtype=bool)
        row = subset_accuracy_row(correct, [np.array([0, 1]), np.array([2, 3])])
        np.testing.assert_allclose(row, [1.0, 0.0])


def ladder_scores():
    """4 methods x 20 subsets with avg ranks exactly (1.0, 2.1, 2.9, 4.0)."""
    scores = np.tile(np.array([[0.9], [0.8], [0.7], [0.6]]), (1, 20))
    scores[1, :2], scores[2, :2] = 0.7, 0.8      # methods 1 and 2 swap twice
    return scores


def cd_bars(path):
    """(x1, x2) of each CD bar in a rank SVG, in drawing order."""
    return [(float(e.get("x1")), float(e.get("x2")))
            for e in ET.parse(path).iter("{http://www.w3.org/2000/svg}line")
            if e.get("stroke-width") == "4"]


class TestRankReport:
    def test_always_winning_method(self):
        scores = np.vstack([np.full(20, 0.95), np.full(20, 0.5),
                            np.full(20, 0.4), np.full(20, 0.3)])
        report = rank_report(scores, ["ours", "a", "b", "c"])
        assert report.avg_ranks[0] == 1.0
        assert report.histogram[0].tolist() == [20, 0, 0, 0]

    def test_ladder_ranks_and_links(self):
        report = rank_report(ladder_scores(), ["m1", "m2", "m3", "m4"])
        np.testing.assert_allclose(report.avg_ranks, [1.0, 2.1, 2.9, 4.0])
        assert report.linked == [(1, 2)]
        assert report.histogram[1].tolist() == [0, 18, 2, 0]

    def test_name_count_validated(self):
        with pytest.raises(UsageError):
            rank_report(ladder_scores(), ["a", "b"])

    def test_csv_content(self, tmp_path):
        report = rank_report(ladder_scores(), ["m1", "m2", "m3", "m4"])
        path = tmp_path / "ranks.csv"
        write_rank_csv(path, report)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["method", "avg_rank", "cd"]
        assert [r[0] for r in rows[1:]] == ["m1", "m2", "m3", "m4"]
        m2 = rows[2]
        assert float(m2[1]) == 2.1
        assert m2[6] == "m3"
        assert [int(v) for v in m2[7:]] == [0, 18, 2, 0]

    def test_svg_deterministic_and_labelled(self, tmp_path):
        report = rank_report(ladder_scores(), ["m1", "m2", "m3", "m4"])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_rank_svg(a, report)
        write_rank_svg(b, report)
        text = a.read_text()
        assert text.startswith("<svg")
        assert "m3" in text and "CD = " in text
        assert a.read_bytes() == b.read_bytes()
        # escaping leaves the bytes of plain names as they are
        assert hashlib.sha256(a.read_bytes()).hexdigest() == \
            "8c47ccc2f58860339593a96993e2089ce58b1d01e94201ae641fe465e6f5b182"

    def test_svg_escapes_method_names(self, tmp_path):
        names = ["a&b<c", "m2>", "m3", "m4"]
        path = tmp_path / "r.svg"
        write_rank_svg(path, rank_report(ladder_scores(), names))
        texts = [t.text for t in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")]
        assert "a&b<c" in texts and "m2>" in texts

    def test_svg_legend_inside_the_canvas(self, tmp_path):
        names = [f"method{i}" for i in range(10)]
        scores = np.random.default_rng(5).uniform(0.5, 1.0, (10, 20))
        path = tmp_path / "r.svg"
        write_rank_svg(path, rank_report(scores, names))
        root = ET.parse(path).getroot()
        width, height = float(root.get("width")), float(root.get("height"))
        ns = "{http://www.w3.org/2000/svg}"
        swatches = [r for r in root.iter(ns + "rect") if r.get("width") == "10"]
        labels = [t for t in root.iter(ns + "text") if t.text in names]
        assert len(swatches) == 10 and len(labels) == 10
        for item in swatches + labels:
            assert 0 <= float(item.get("x")) < width
            assert 0 <= float(item.get("y")) < height
        # the legend's last row stays above the CD panel's axis labels
        axis_label_y = min(float(t.get("y")) for t in root.iter(ns + "text")
                           if t.text == "1")
        assert max(float(t.get("y")) for t in labels) < axis_label_y

    def test_svg_with_one_legend_row_keeps_its_bytes(self, tmp_path):
        path = tmp_path / "r.svg"
        write_rank_svg(path, rank_report(ladder_scores()[:3], ["m1", "m2", "m3"]))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "89e22a7e17b5356e6f0911d3ba9d071704827a3fc85ee1627482cbdd7b6d3f27"

    def test_svg_with_five_methods_keeps_its_bytes(self, tmp_path):
        # up to 5 methods the bar width is capped at 18 px and always fitted
        path = tmp_path / "r.svg"
        scores = np.random.default_rng(7).uniform(0.5, 1.0, (5, 20))
        write_rank_svg(path, rank_report(scores, [f"m{i}" for i in range(1, 6)]))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "51bccbe5103191ce1ec5786b2a4d15997d83d41465d35f5255ccc5ba81ba1729"

    @pytest.mark.parametrize("k", range(2, 11))
    def test_svg_bars_stay_inside_their_rank_group(self, tmp_path, k):
        path = tmp_path / "r.svg"
        scores = np.random.default_rng(k).uniform(0.5, 1.0, (k, 20))
        write_rank_svg(path, rank_report(scores, [f"m{i}" for i in range(k)]))
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        pad, group_w = 60.0, (float(root.get("width")) - 120.0) / k
        bars = [r for r in root.iter(ns + "rect")
                if r.get("width") not in ("10", "100%")]
        assert len(bars) == k * k
        for n, bar in enumerate(bars):
            left = pad + (n // k) * group_w        # k bars per group, in order
            x, w = float(bar.get("x")), float(bar.get("width"))
            assert left <= x and x + w <= left + group_w + 0.01

    def test_cd_bars_join_only_linked_methods(self, tmp_path):
        # average ranks 1, 2 and 3 over 6 subsets: CD 1.353 links a with b
        # and b with c, but not a with c
        report = rank_report(np.tile([[0.9], [0.8], [0.7]], (1, 6)), ["a", "b", "c"])
        assert report.linked == [(0, 1), (1, 2)]
        path = tmp_path / "r.svg"
        write_rank_svg(path, report)
        assert cd_bars(path) == [(60.0, 360.0), (360.0, 660.0)]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_cd_bars_cover_the_linked_pairs(self, tmp_path_factory, data):
        k = data.draw(st.integers(2, 10), label="methods")
        n = data.draw(st.integers(1, 12), label="subsets")
        # few score levels, so ranks and average ranks tie often
        scores = np.array(data.draw(st.lists(st.integers(0, 3), min_size=k * n,
                                             max_size=k * n), label="scores"))
        report = rank_report(scores.reshape(k, n), [f"m{i}" for i in range(k)])
        path = tmp_path_factory.getbasetemp() / "cd.svg"
        write_rank_svg(path, report)
        x = 60.0 + (report.avg_ranks - 1.0) / (k - 1) * 600.0
        linked = {p for i, j in report.linked for p in ((i, j), (j, i))}
        bars = cd_bars(path)

        def under(bar):
            return [i for i in range(k) if bar[0] - 0.01 <= x[i] <= bar[1] + 0.01]

        for bar in bars:
            members = under(bar)
            assert len(members) >= 2
            assert all((i, j) in linked for i in members for j in members if i != j)
        for i, j in report.linked:
            assert any({i, j} <= set(under(bar)) for bar in bars)
        for a, b in itertools.permutations(bars, 2):
            assert not (b[0] <= a[0] and a[1] <= b[1])
