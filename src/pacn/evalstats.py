"""Evaluation metrics, Friedman rank test, and Nemenyi critical distances.

The rank machinery follows the usual multiple-classifier comparison recipe:
methods are ranked per evaluation subset (rank 1 best, ties averaged), the
Friedman statistic tests whether average ranks differ at all, and the Nemenyi
critical distance says how far two average ranks must be apart to call them
different at the chosen level.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .manifest import SCENE_LABELS
from .model import PacnModel, check_labels, features_to_input
from .seeding import PURPOSE_SUBSET, derive_rng

# infinite-df studentized range quantiles divided by sqrt(2), k = 2..10
Q_ALPHA = {
    0.05: {2: 1.959964, 3: 2.343701, 4: 2.569032, 5: 2.727774, 6: 2.849705,
           7: 2.948320, 8: 3.030879, 9: 3.101730, 10: 3.163684},
    0.10: {2: 1.644854, 3: 2.052293, 4: 2.291341, 5: 2.459516, 6: 2.588521,
           7: 2.692732, 8: 2.779884, 9: 2.854606, 10: 2.920063},
}


# -- classifier evaluation -----------------------------------------------------


# clips per inference forward when predicting or comparing whole datasets
EVAL_BATCH = 64


def chunks(n: int) -> list[tuple[int, int]]:
    """The (start, stop) ranges forwarding ``n`` rows ``EVAL_BATCH`` at a time.

    A one-row forward runs the head as a matrix-vector product, which sums
    in another order than a batch, so a lone last row joins the range
    before it: no row's logits depend on the set's size.
    """
    if n == 0:
        raise UsageError("empty feature set")
    bounds = list(range(0, n, EVAL_BATCH))
    if n > 1 and n % EVAL_BATCH == 1:
        bounds.pop()
    return list(zip(bounds, bounds[1:] + [n]))


def logits(model: PacnModel, features: np.ndarray) -> np.ndarray:
    """Inference-mode logits for a (n, 2, 256, 65) stack, one forward per chunk."""
    return np.concatenate([
        model(features_to_input(features[a:b]), training=False).data
        for a, b in chunks(len(features))])


def predict(model: PacnModel, features: np.ndarray) -> np.ndarray:
    """Class predictions for a (n, 2, 256, 65) feature stack.

    Ties resolve to the lowest class index (first argmax).
    """
    return logits(model, features).argmax(axis=-1).astype(np.int64)


def _class_name(c: int) -> str:
    return SCENE_LABELS[c] if c < len(SCENE_LABELS) else str(c)


@dataclass
class EvalResult:
    overall_accuracy: float
    per_device_accuracy: dict[str, float]
    per_class_accuracy: dict[str, float]
    confusion: np.ndarray               # (C, C) counts, rows = true class
    predictions: np.ndarray             # (n,) predicted class per clip
    unseen_devices: tuple[str, ...] = ()


def evaluate(model: PacnModel, labels: np.ndarray, devices,
             preds: np.ndarray) -> EvalResult:
    """Accuracy breakdown of per-clip labels, devices and predictions; a device
    the model did not train on (no correction entry) is marked unseen."""
    if len(labels) == 0:
        raise UsageError("cannot evaluate an empty dataset")
    labels = np.asarray(labels)
    num_classes = model.config.num_classes
    check_labels(labels, num_classes)
    correct = preds == labels

    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)

    per_device = {dev: float(correct[np.array([d == dev for d in devices])].mean())
                  for dev in sorted(set(devices))}
    unseen = () if model.correction is None else tuple(
        d for d in per_device if d not in model.correction.coeffs)
    per_class = {_class_name(int(c)): float(correct[labels == c].mean())
                 for c in np.unique(labels)}

    return EvalResult(overall_accuracy=float(correct.mean()),
                      per_device_accuracy=per_device,
                      per_class_accuracy=per_class,
                      confusion=confusion,
                      predictions=preds,
                      unseen_devices=unseen)


def format_eval_text(result: EvalResult) -> str:
    lines = [f"clips: {len(result.predictions)}",
             f"overall accuracy: {result.overall_accuracy:.4f}"]
    for dev, acc in result.per_device_accuracy.items():
        tag = " (unseen)" if dev in result.unseen_devices else ""
        lines.append(f"device {dev}{tag}: {acc:.4f}")
    for name, acc in result.per_class_accuracy.items():
        lines.append(f"class {name}: {acc:.4f}")
    return "\n".join(lines)


def write_eval_csv(path, result: EvalResult):
    """Sectioned CSV: overall/device/class accuracies plus confusion rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["section", "key", "value"])
        writer.writerow(["overall", "accuracy", repr(result.overall_accuracy)])
        writer.writerow(["overall", "clips", len(result.predictions)])
        for dev, acc in result.per_device_accuracy.items():
            section = "device_unseen" if dev in result.unseen_devices else "device"
            writer.writerow([section, dev, repr(acc)])
        for name, acc in result.per_class_accuracy.items():
            writer.writerow(["class", name, repr(acc)])
        for c, row in enumerate(result.confusion):
            writer.writerow(["confusion", _class_name(c),
                             " ".join(str(int(v)) for v in row)])


# -- rank statistics -----------------------------------------------------------


def rank_matrix(scores: np.ndarray) -> np.ndarray:
    """Per-subset ranks of a (methods, subsets) score matrix; 1 is best, and
    tied methods share their mean rank: 1 + #higher + (#equal - 1) / 2."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] < 2 or scores.shape[1] < 1:
        raise UsageError(f"need a (methods >= 2, subsets >= 1) score matrix, "
                         f"got shape {scores.shape}")
    # [i, k, j]: how method k's score in subset j compares with method i's
    others, own = scores[None, :, :], scores[:, None, :]
    return 1 + (others > own).sum(axis=1) + ((others == own).sum(axis=1) - 1) / 2


@dataclass
class FriedmanResult:
    statistic: float
    avg_ranks: np.ndarray               # (methods,)
    ranks: np.ndarray                   # (methods, subsets)


def friedman_test(scores: np.ndarray) -> FriedmanResult:
    """Friedman chi-square over a (methods, subsets) score matrix."""
    ranks = rank_matrix(scores)
    k, n = ranks.shape
    avg = ranks.mean(axis=1)
    statistic = (12.0 * n / (k * (k + 1))) \
        * (float((avg ** 2).sum()) - k * (k + 1) ** 2 / 4.0)
    return FriedmanResult(statistic=statistic, avg_ranks=avg, ranks=ranks)


def nemenyi_cd(k: int, n_subsets: int, alpha: float = 0.05) -> float:
    """Critical distance between average ranks at the given level."""
    if alpha not in Q_ALPHA:
        raise UsageError(f"alpha must be one of {sorted(Q_ALPHA)}, got {alpha}")
    table = Q_ALPHA[alpha]
    if k not in table:
        raise UsageError(f"method count must lie in 2..10, got {k}")
    if n_subsets < 1:
        raise UsageError(f"n_subsets must be positive, got {n_subsets}")
    return table[k] * math.sqrt(k * (k + 1) / (6.0 * n_subsets))


def draw_subsets(n_items: int, n_subsets: int = 20, fraction: float = 0.05,
                 seed: int = 0) -> list[np.ndarray]:
    """Seeded evaluation subsets, each sampled without replacement."""
    if n_items < 1:
        raise UsageError("nothing to subsample")
    if n_subsets < 1:
        raise UsageError(f"number of subsets must be positive, got {n_subsets}")
    if not 0.0 < fraction <= 1.0:
        raise UsageError(f"fraction must lie in (0, 1], got {fraction}")
    size = max(1, int(round(fraction * n_items)))
    subsets = []
    for j in range(n_subsets):
        rng = derive_rng(seed, PURPOSE_SUBSET, j)
        subsets.append(np.sort(rng.choice(n_items, size=size, replace=False)))
    return subsets


def subset_accuracy_row(correct: np.ndarray, subsets) -> np.ndarray:
    """One method's score per subset from its per-clip correctness mask."""
    correct = np.asarray(correct, dtype=np.float64)
    return np.array([correct[s].mean() for s in subsets])


# -- rank report (histogram + critical-distance diagram) -------------------------


@dataclass
class RankReport:
    method_names: list[str]
    avg_ranks: np.ndarray
    statistic: float
    cd: float
    alpha: float
    n_subsets: int
    histogram: np.ndarray               # (methods, ranks) rounded-rank counts
    linked: list[tuple[int, int]]       # index pairs with |avg gap| <= cd
    order: list[int]                    # best average rank first, ties by name


def rank_report(scores: np.ndarray, method_names, alpha: float = 0.05) -> RankReport:
    scores = np.asarray(scores, dtype=np.float64)
    fr = friedman_test(scores)
    k, n = fr.ranks.shape
    if len(method_names) != k:
        raise UsageError(f"{k} methods but {len(method_names)} names")
    cd = nemenyi_cd(k, n, alpha)
    histogram = np.zeros((k, k), dtype=np.int64)
    rounded = np.clip(np.floor(fr.ranks + 0.5).astype(np.int64), 1, k)
    for i in range(k):
        for r in rounded[i]:
            histogram[i, r - 1] += 1
    linked = [(i, j) for i in range(k) for j in range(i + 1, k)
              if abs(fr.avg_ranks[i] - fr.avg_ranks[j]) <= cd]
    order = sorted(range(k), key=lambda i: (fr.avg_ranks[i], method_names[i]))
    return RankReport(method_names=list(method_names), avg_ranks=fr.avg_ranks,
                      statistic=fr.statistic, cd=cd, alpha=alpha, n_subsets=n,
                      histogram=histogram, linked=linked, order=order)


def write_rank_csv(path, report: RankReport):
    k = len(report.method_names)
    linked_names = {i: [] for i in range(k)}
    for i, j in report.linked:
        linked_names[i].append(report.method_names[j])
        linked_names[j].append(report.method_names[i])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "avg_rank", "cd", "alpha", "n_subsets",
                         "friedman_statistic", "linked_with"]
                        + [f"count_rank_{r}" for r in range(1, k + 1)])
        for i in report.order:
            writer.writerow([report.method_names[i],
                             repr(float(report.avg_ranks[i])),
                             repr(float(report.cd)),
                             repr(float(report.alpha)),
                             report.n_subsets,
                             repr(float(report.statistic)),
                             ";".join(sorted(linked_names[i]))]
                            + [int(v) for v in report.histogram[i]])


LEGEND_ROW = 6                          # legend entries per 720-px row
PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
           "#aa3377", "#bbbbbb", "#222255", "#225555", "#553311")


def _svg_text(x, y, text, anchor="start"):
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{x:.2f}" y="{y:.2f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="{anchor}">{text}</text>')


def write_rank_svg(path, report: RankReport):
    """Two stacked panels: per-method rank histogram and a CD diagram."""
    k = len(report.method_names)
    width = 720.0
    pad = 60.0
    group_w = (width - 2 * pad) / k             # one group of bars per rank
    bar_w = min(18.0, (group_w - 2.0) / k - 2.0)    # 4-px lead-in, 2-px gaps
    hist_h = 160.0
    cd_h = 60.0 + 16.0 * k
    extra = 16.0 * ((k - 1) // LEGEND_ROW)      # legend rows past the first
    height = hist_h + cd_h + 80.0 + extra
    peak = max(1, int(report.histogram.max()))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
             '<rect width="100%" height="100%" fill="white"/>',
             _svg_text(pad, 20.0, f"rank counts over {report.n_subsets} "
                                  f"subsets (alpha={report.alpha:g})")]

    # histogram panel: one group of bars per rank position
    base_y = 40.0 + hist_h
    for r in range(k):
        gx = pad + r * group_w
        parts.append(_svg_text(gx + group_w / 2, base_y + 16.0,
                               f"rank {r + 1}", anchor="middle"))
        for i in range(k):
            h = hist_h * report.histogram[i, r] / peak
            x = gx + 4.0 + i * (bar_w + 2.0)
            parts.append(f'<rect x="{x:.2f}" y="{base_y - h:.2f}" '
                         f'width="{bar_w:.2f}" height="{h:.2f}" '
                         f'fill="{PALETTE[i % len(PALETTE)]}"/>')
    for i, name in enumerate(report.method_names):
        x = pad + 120.0 * (i % LEGEND_ROW)
        y = base_y + 26.0 + 16.0 * (i // LEGEND_ROW)
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="10" height="10" '
                     f'fill="{PALETTE[i % len(PALETTE)]}"/>')
        parts.append(_svg_text(x + 14.0, y + 9.0, name))

    # CD diagram panel: axis from rank 1 to k, one tick per method
    axis_y = base_y + 80.0 + extra
    span = max(k - 1, 1)

    def ax(rank: float) -> float:
        return pad + (rank - 1.0) / span * (width - 2 * pad)

    parts.append(f'<line x1="{ax(1):.2f}" y1="{axis_y:.2f}" x2="{ax(k):.2f}" '
                 f'y2="{axis_y:.2f}" stroke="black"/>')
    for r in range(1, k + 1):
        parts.append(f'<line x1="{ax(r):.2f}" y1="{axis_y - 4:.2f}" '
                     f'x2="{ax(r):.2f}" y2="{axis_y + 4:.2f}" stroke="black"/>')
        parts.append(_svg_text(ax(r), axis_y - 8.0, str(r), anchor="middle"))
    parts.append(f'<line x1="{ax(1):.2f}" y1="{axis_y + 14:.2f}" '
                 f'x2="{ax(1 + report.cd):.2f}" y2="{axis_y + 14:.2f}" '
                 f'stroke="black" stroke-width="3"/>')
    parts.append(_svg_text(ax(1 + report.cd) + 6.0, axis_y + 18.0,
                           f"CD = {report.cd:.3f}"))
    order = report.order
    for slot, i in enumerate(order):
        y = axis_y + 30.0 + 16.0 * slot
        x = ax(float(report.avg_ranks[i]))
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y:.2f}" x2="{x:.2f}" '
                     f'y2="{y:.2f}" stroke="{PALETTE[i % len(PALETTE)]}"/>')
        parts.append(_svg_text(x + 4.0, y,
                               f"{report.method_names[i]} "
                               f"({report.avg_ranks[i]:.2f})"))
    # one bar under each maximal run of the order that report.linked links
    # pairwise; a run from lo ends no sooner than the run from lo - 1
    linked = {p for i, j in report.linked for p in ((i, j), (j, i))}
    bars = []
    for lo in range(k):
        hi = lo
        while hi < k - 1 and all((order[m], order[hi + 1]) in linked
                                 for m in range(lo, hi + 1)):
            hi += 1
        if hi > lo and (not bars or bars[-1][1] < hi):
            bars.append((lo, hi))
    for depth, (lo, hi) in enumerate(bars):
        y = axis_y + 8.0 + 5.0 * depth
        parts.append(f'<line x1="{ax(float(report.avg_ranks[order[lo]])):.2f}" '
                     f'y1="{y:.2f}" '
                     f'x2="{ax(float(report.avg_ranks[order[hi]])):.2f}" '
                     f'y2="{y:.2f}" stroke="black" stroke-width="4"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
