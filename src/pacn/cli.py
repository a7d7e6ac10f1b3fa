"""Command-line front end.

Every subcommand is deterministic for fixed inputs and seed: rerunning a
command produces byte-identical artifacts. Exit code 0 on success, 1 on any
runtime failure (with a diagnostic on stderr), 2 for bad command lines
(argparse's own convention).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import logging
import os
import re
import sys

import numpy as np

from .audio import read_wav, write_wav
from .augment import augment_clip, pitch_shift
from .errors import IngestionError, PacnError, UsageError, read_text
from .evalstats import (chunks, draw_subsets, evaluate, format_eval_text,
                        predict, rank_report, subset_accuracy_row,
                        write_eval_csv, write_rank_csv, write_rank_svg)
from .manifest import parse_manifest
from .model import PacnConfig, PacnModel, check_labels, packaged_config
from .profiler import profile, verify_against_runtime
from .seeding import PURPOSE_AUGMENT, derive_rng
from .synth import SynthSpec, generate_synth_dataset
from .train import (TrainConfig, check_teacher, extract_features,
                    load_training_split, manifest_rows, read_clips,
                    train_student_kd, train_teacher, warn_unseen, write_metrics)

log = logging.getLogger(__name__)


# -- subcommand handlers ---------------------------------------------------------


def _check_outputs(outputs, inputs):
    """Fail with ``UsageError`` if an output would write over an input or
    over another output; call it before reading any input. Each is a
    (name, path) pair; a None path is skipped."""
    taken = {os.path.realpath(path): f"{name} {path}"
             for name, path in inputs if path is not None}
    for name, path in outputs:
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in taken:
            raise UsageError(f"{name} {path} would overwrite {taken[real]}")
        taken[real] = f"{name} {path}"


# characters XML 1.0 cannot hold, not even as a character reference
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_method_name(name, where, error):
    """Raise ``error`` if the rank SVG cannot draw method name ``name``."""
    if _NOT_XML.search(name):
        raise error(f"{where}: method name {name!r} holds a character XML "
                    "cannot represent")


def cmd_synth_data(args) -> int:
    spec = SynthSpec.from_file(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    rows = generate_synth_dataset(spec, args.out)
    print(f"wrote {len(rows)} clips under {args.out} "
          f"({spec.classes} classes x {spec.clips_per_class} clips, "
          f"{spec.devices} devices)")
    return 0


def cmd_train(args) -> int:
    """``train-teacher`` and ``train-student``: train a fresh model on a
    manifest, minus any excluded device, then save it, with the spectrum
    correction fitted on its training split, and its metrics."""
    role = args.command.removeprefix("train-")
    metrics = args.metrics or f"{args.out}.metrics.csv"
    _check_outputs([("--out", args.out), ("metrics CSV", metrics),
                    ("metrics sidecar", f"{metrics}.meta.json")],
                   [("--manifest", args.manifest), ("--config", args.config),
                    ("--model-config", args.model_config),
                    ("--teacher", getattr(args, "teacher", None))])
    cfg = TrainConfig.from_file(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    model_cfg = (PacnConfig.from_file(args.model_config)
                 if args.model_config else packaged_config(role))
    teacher = None
    if role == "student":       # a teacher error fails before any WAV is read
        teacher = PacnModel.load(args.teacher) if args.teacher else None
        check_teacher(model_cfg, teacher, cfg)
    train_ds, val_ds, correction = load_training_split(
        args.manifest, args.val_fraction, cfg.seed, args.exclude_device)
    if role == "teacher":
        result = train_teacher(model_cfg, train_ds, cfg, val_ds, correction)
    else:
        result = train_student_kd(model_cfg, teacher, train_ds, cfg, val_ds,
                                  correction)
    result.model.save(args.out)
    write_metrics(metrics, result)
    last = result.metrics[-1]
    final = f"train_acc {last.train_acc:.4f}"
    if last.val_acc is not None:
        final += f", val_acc {last.val_acc:.4f}"
    print(f"saved {args.out} ({result.model.num_params()} params); {final}")
    return 0


def cmd_eval(args) -> int:
    _check_outputs([("--report", args.report),
                    ("--subset-scores", args.subset_scores)],
                   [("--ckpt", args.ckpt), ("--manifest", args.manifest)])
    model = PacnModel.load(args.ckpt)
    rows = manifest_rows(args.manifest)
    labels = np.array([r.label_index for r in rows], dtype=np.int64)
    check_labels(labels, model.config.num_classes)
    if args.subset_scores:
        _check_method_name(args.method_name, "--method-name", UsageError)
        seed = args.seed if args.seed is not None else 0
        subsets = draw_subsets(len(rows), args.subsets, args.fraction, seed)
    correction = None if args.no_correction else model.correction
    warn_unseen(rows, correction)
    # one forward per chunk: only its clips and features are held at once
    preds = np.concatenate([predict(model, extract_features(
        read_clips(args.manifest, rows[a:b]), correction))
        for a, b in chunks(len(rows))])
    result = evaluate(model, labels, [r.device_id for r in rows], preds)
    print(format_eval_text(result))
    if args.report:
        write_eval_csv(args.report, result)
    if args.subset_scores:
        row = subset_accuracy_row(preds == labels, subsets)
        with open(args.subset_scores, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method"]
                            + [f"subset_{j + 1}" for j in range(len(row))])
            writer.writerow([args.method_name] + [repr(float(v)) for v in row])
    return 0


def cmd_profile(args) -> int:
    _check_outputs([("--csv", args.csv)], [("--config", args.config)])
    config = PacnConfig.from_file(args.config)
    report = profile(config)
    print(report.format_text())
    if args.csv:
        report.write_csv(args.csv)
    if args.check:
        check = verify_against_runtime(config)
        print(f"runtime multiply tally: {check.runtime_macs} "
              f"(table: {check.kernel_macs})")
        if not check.matched:
            print("error: runtime tally disagrees with the table",
                  file=sys.stderr)
            return 1
    return 0


def _read_scores_csv(path):
    names, rows = [], []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    # the header, if any, is the first non-empty record
    for record, row in enumerate(row for row in reader if row):
        # the physical line the record ends on, past any quoted newline
        lineno = reader.line_num
        if record == 0 and row[0] == "method":
            continue
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: {exc}") from exc
        if not values:
            raise IngestionError(f"{path}:{lineno}: no scores in row")
        if not np.isfinite(values).all():
            raise IngestionError(f"{path}:{lineno}: non-finite score")
        _check_method_name(row[0], f"{path}:{lineno}", IngestionError)
        if rows and len(values) != len(rows[0]):
            raise IngestionError(f"{path}:{lineno}: expected "
                                 f"{len(rows[0])} scores, got {len(values)}")
        names.append(row[0])
        rows.append(values)
    if len(rows) < 2:
        raise UsageError(f"{path}: need at least 2 method rows, got {len(rows)}")
    return np.array(rows), names


def cmd_significance(args) -> int:
    prefix = args.out or os.path.splitext(args.scores)[0] + "_ranks"
    _check_outputs([("--out", prefix + ".csv"), ("--out", prefix + ".svg")],
                   [("--scores", args.scores)])
    scores, names = _read_scores_csv(args.scores)
    report = rank_report(scores, names, alpha=args.alpha)
    write_rank_csv(prefix + ".csv", report)
    write_rank_svg(prefix + ".svg", report)
    print(f"friedman statistic: {report.statistic:.6g} "
          f"({len(names)} methods, {report.n_subsets} subsets)")
    print(f"critical distance (alpha={report.alpha:g}): {report.cd:.6g}")
    for i in report.order:
        print(f"  {names[i]}: avg rank {report.avg_ranks[i]:.4f}")
    print(f"wrote {prefix}.csv and {prefix}.svg")
    return 0


def cmd_augment_preview(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be positive, got {args.count}")
    rows = parse_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    previews = {}                           # output file stem -> row
    for r in rows[:args.count]:
        stem = os.path.splitext(os.path.basename(r.filename))[0]
        if stem in previews:
            raise UsageError(f"rows {previews[stem].filename} and {r.filename} "
                             f"would both write {stem}_*.wav previews")
        previews[stem] = r
    os.makedirs(args.out, exist_ok=True)
    seed = args.seed if args.seed is not None else 0
    clips = {}

    def load(r):
        key = (r.filename, r.scene_label, r.device_id, r.city)
        if key not in clips:
            clips[key] = read_wav(os.path.join(base, r.filename), r.label_index,
                                  r.device_id, r.city)
        return clips[key]

    for stem, r in previews.items():
        clip = load(r)
        write_wav(os.path.join(args.out, f"{stem}_orig.wav"), clip.samples)
        same_label = [q for q in rows if q.scene_label == r.scene_label]
        pool = [load(q) for q in same_label[:8]]
        rng = derive_rng(seed, PURPOSE_AUGMENT, 0, r.filename)
        shifted = pitch_shift(clip, 1.05)
        write_wav(os.path.join(args.out, f"{stem}_pitch105.wav"),
                  shifted.samples)
        out = augment_clip(clip, pool, rng, TrainConfig().augment)
        write_wav(os.path.join(args.out, f"{stem}_policy.wav"), out.samples)
    print(f"wrote {3 * len(previews)} preview files under {args.out}")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacn",
        description="Low-complexity acoustic scene classification toolkit")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed from config/spec files")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="render a synthetic dataset")
    p.add_argument("--spec", required=True, help="SynthSpec JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth_data)

    for name in ("train-teacher", "train-student"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} on a manifest")
        p.add_argument("--config", required=True, help="TrainConfig JSON path")
        p.add_argument("--model-config", default=None,
                       help="model config JSON (default: packaged)")
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True, help="checkpoint output path")
        p.add_argument("--metrics", default=None,
                       help="metrics CSV path (default: <out>.metrics.csv)")
        p.add_argument("--val-fraction", type=float, default=0.2)
        p.add_argument("--exclude-device", default=None,
                       help="drop this device's clips from training")
        if name == "train-student":
            p.add_argument("--teacher", default=None,
                           help="teacher checkpoint (required for kd_lambda < 1)")
        p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", default=None, help="write a CSV report here")
    p.add_argument("--no-correction", action="store_true",
                   help="do not apply the checkpoint's spectrum correction "
                        "(its devices still decide which are unseen)")
    p.add_argument("--subset-scores", default=None,
                   help="write a per-subset accuracy row (significance input)")
    p.add_argument("--method-name", default="model")
    p.add_argument("--subsets", type=int, default=20)
    p.add_argument("--fraction", type=float, default=0.05)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("profile", help="parameter/multiply table for a config")
    p.add_argument("--config", required=True, help="model config JSON path")
    p.add_argument("--csv", default=None)
    p.add_argument("--check", action="store_true",
                   help="also compare against a counted forward pass")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("significance", help="rank analysis of a score matrix")
    p.add_argument("--scores", required=True,
                   help="CSV: method name then one accuracy per subset")
    p.add_argument("--alpha", type=float, default=0.05, choices=[0.05, 0.10])
    p.add_argument("--out", default=None,
                   help="output prefix (default: <scores>_ranks)")
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("augment-preview",
                       help="write before/after augmentation examples")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default="augment_preview")
    p.add_argument("--count", type=int, default=4)
    p.set_defaults(func=cmd_augment_preview)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING if args.quiet else logging.INFO
    logging.basicConfig(level=level, format="%(message)s")
    logging.getLogger().setLevel(level)
    try:
        if args.seed is not None and args.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (PacnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
