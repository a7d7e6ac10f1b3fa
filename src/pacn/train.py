"""Training: Adam with linear-warmup + cosine decay, knowledge distillation,
and the per-epoch augmentation pipeline.

Runs are fully deterministic for a fixed seed. Every random decision
(shuffling, per-clip waveform augmentation, mixup gating and weights) draws
from an RNG derived from (seed, purpose, epoch, clip/batch id); nothing reads
the wall clock or global RNG state, so checkpoints and metrics files are
byte-identical across reruns. The same holds although each batch and its
teacher logits are built one step ahead on a worker thread, which only reads
the spectrum correction's coefficients.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import evalstats, ops
from .audio import (CLIP_SAMPLES, N_FRAMES, N_MELS, AudioClip, extract_feature,
                    frame_and_window, read_wav, stft_magnitude)
from .augment import (AugmentConfig, SpectrumCorrection, apply_mixup,
                      augment_clip, draw_mixup, estimate_correction)
from .errors import (ConfigError, JsonConfig, TrainingError,
                     UsageError, check_field_types)
from .manifest import parse_manifest
from .model import PacnConfig, PacnModel, check_labels, features_to_input
from .seeding import (PURPOSE_AUGMENT, PURPOSE_MIXUP, PURPOSE_SHUFFLE,
                      derive_rng)
from .tensor import Tensor

log = logging.getLogger(__name__)

# -- configuration -------------------------------------------------------------


@dataclass
class TrainConfig(JsonConfig):
    epochs: int = 100
    batch_size: int = 16
    peak_lr: float = 0.002
    warmup_epochs: int = 10
    kd_lambda: float = 0.226
    kd_temperature: float = 2.0
    mixup_alpha: float = 0.4
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self) -> "TrainConfig":
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.peak_lr <= 0:
            raise ConfigError(f"peak_lr must be positive, got {self.peak_lr}")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ConfigError(f"warmup_epochs must lie in [0, epochs], got "
                              f"{self.warmup_epochs}")
        if not 0.0 <= self.kd_lambda <= 1.0:
            raise ConfigError(f"kd_lambda must lie in [0, 1], got {self.kd_lambda}")
        if self.kd_temperature <= 0:
            raise ConfigError("kd_temperature must be positive")
        if self.mixup_alpha <= 0:
            raise ConfigError("mixup_alpha must be positive")
        aug = self.augment
        factors = aug.pitch_factors
        # pitch_shift resamples a clip to CLIP_SAMPLES * (1 / factor) samples
        if not factors or not all(f > 0 and math.isfinite(CLIP_SAMPLES * (1.0 / f))
                                  for f in factors):
            raise ConfigError("augment pitch_factors must be a non-empty list "
                              "of positive numbers, each leaving a finite "
                              f"resampled clip length, got {list(factors)}")
        for name in ("mixup_prob", "pitch_prob", "audio_mix_prob"):
            value = getattr(aug, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"augment {name} must lie in [0, 1], got {value}")
        if not 0.0 <= aug.audio_mix_low <= aug.audio_mix_high <= 1.0:
            raise ConfigError("augment needs 0 <= audio_mix_low <= "
                              f"audio_mix_high <= 1, got {aug.audio_mix_low} "
                              f"and {aug.audio_mix_high}")
        return self


# -- distillation loss ---------------------------------------------------------


@dataclass
class KdLossParts:
    total: Tensor
    hard: float
    distill: float


def kd_loss(student_logits: Tensor, targets: np.ndarray,
            teacher_logits: np.ndarray | None, lam: float,
            temperature: float) -> KdLossParts:
    """Blend hard cross-entropy with KL to temperature-softened teacher probs.

    total = lam * hard + (1 - lam) * T^2 * distill.
    At lam == 1 the teacher term is skipped entirely and ``total`` is the
    cross-entropy tensor itself, so a lam=1 run is bit-identical to training
    without any teacher.
    """
    if temperature <= 0:
        raise UsageError(f"temperature must be positive, got {temperature}")
    if not 0.0 <= lam <= 1.0:
        raise UsageError(f"kd weight must lie in [0, 1], got {lam}")
    hard = ops.cross_entropy(student_logits, targets)
    if lam == 1.0:
        return KdLossParts(total=hard, hard=float(hard.data), distill=0.0)
    if teacher_logits is None:
        raise UsageError("kd weight < 1 requires teacher logits")
    probs = ops.softmax(Tensor(np.asarray(teacher_logits) / temperature)).data
    distill = ops.kl_from_teacher(probs, student_logits / temperature)
    scale = (1.0 - lam) * (temperature * temperature)
    total = distill * scale if lam == 0.0 else hard * lam + distill * scale
    return KdLossParts(total=total, hard=float(hard.data),
                       distill=float(distill.data))


# -- learning-rate schedule ----------------------------------------------------


def lr_at(step: int, total_steps: int, warmup_steps: int, peak_lr: float) -> float:
    """Linear warmup to ``peak_lr`` over ``warmup_steps``, then cosine to 0.

    lr(0) == 0, lr(warmup_steps) == peak_lr exactly, lr(total_steps) == 0.
    """
    if total_steps < 1:
        raise UsageError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= warmup_steps <= total_steps:
        raise UsageError(f"warmup_steps must lie in [0, {total_steps}], "
                         f"got {warmup_steps}")
    if not 0 <= step <= total_steps:
        raise UsageError(f"step {step} outside [0, {total_steps}]")
    if step <= warmup_steps and warmup_steps > 0:
        return peak_lr * (step / warmup_steps)
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# -- optimizer ------------------------------------------------------------------


class Adam:
    """Bias-corrected Adam over a layer-path -> Tensor parameter map."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, lr: float):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for path, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient in parameter {path!r}")
            m = self.m[path]
            v = self.v[path]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            mhat = m / b1c
            vhat = v / b2c
            p.data -= lr * mhat / (np.sqrt(vhat) + self.eps)


# -- datasets -------------------------------------------------------------------


@dataclass
class Dataset:
    """Clips with their cached clean features, aligned index-for-index."""

    clips: list[AudioClip]
    features: np.ndarray                # (n, 256, 65, 2) float32
    labels: np.ndarray                  # (n,) int64
    devices: tuple[str, ...]
    names: tuple[str, ...]              # stable ids keying RNG streams

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(clips=[self.clips[i] for i in idx],
                       features=self.features[idx],
                       labels=self.labels[idx],
                       devices=tuple(self.devices[i] for i in idx),
                       names=tuple(self.names[i] for i in idx))


def extract_features(clips, correction: SpectrumCorrection | None = None,
                     threads: int | None = None) -> np.ndarray:
    """Stack clean per-clip features, optionally device-corrected; each device
    the correction lacks passes through, warned once in first-appearance order.
    A pool of ``threads`` workers (default: one per usable CPU) extracts them."""
    coeffs = {} if correction is None else correction.coeffs
    unseen = () if correction is None else dict.fromkeys(
        c.device_id for c in clips if c.device_id not in coeffs)
    for dev in unseen:
        log.warning("no spectrum correction for device %r; passing through", dev)

    out = np.empty((len(clips), N_MELS, N_FRAMES, 2), dtype=np.float32)

    def one(i):     # numpy.fft releases the GIL; no bit depends on the pool
        out[i] = extract_feature(clips[i], coeffs.get(clips[i].device_id)).feature

    if threads is None:         # the CPUs this process may run on
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=min(threads, len(clips))) as pool:
        list(pool.map(one, range(len(clips))))
    return out


def _read_clips(manifest_path, exclude_device: str | None = None):
    """The manifest's rows, minus ``exclude_device``'s, and their clips.

    Rows are dropped before any WAV is read; each kept WAV is read once.
    """
    rows = parse_manifest(manifest_path)
    if not rows:
        raise UsageError(f"{manifest_path} lists no clips")
    if exclude_device is not None:
        kept = [r for r in rows if r.device_id != exclude_device]
        if len(kept) == len(rows):
            raise UsageError(f"no clips recorded by device {exclude_device!r}")
        if not kept:
            raise UsageError(f"all clips recorded by device {exclude_device!r}; "
                             "nothing left to train on")
        rows = kept
    base = os.path.dirname(os.path.abspath(manifest_path))
    return rows, [read_wav(os.path.join(base, r.filename), r.label_index,
                           r.device_id, r.city) for r in rows]


def _dataset(rows, clips, correction: SpectrumCorrection | None) -> Dataset:
    return Dataset(clips=clips,
                   features=extract_features(clips, correction),
                   labels=np.array([r.label_index for r in rows], dtype=np.int64),
                   devices=tuple(r.device_id for r in rows),
                   names=tuple(r.filename for r in rows))


def load_dataset(manifest_path,
                 correction: SpectrumCorrection | None = None) -> Dataset:
    """Read the clips a manifest lists (paths relative to it) into a Dataset.

    ``correction``, if given, is applied to the features; nothing is fitted
    here.
    """
    rows, clips = _read_clips(manifest_path)
    return _dataset(rows, clips, correction)


def load_training_split(manifest_path, val_fraction: float, seed: int,
                        exclude_device: str | None = None):
    """(train, val, correction) for training on a manifest.

    The rows are split as ``split_train_val`` splits them, the correction is
    fitted on the training part only, and then every feature is extracted
    once with it, so no validation clip reaches the fit.
    """
    rows, clips = _read_clips(manifest_path, exclude_device)
    labels = np.array([r.label_index for r in rows], dtype=np.int64)
    train_idx, val_idx = _split_indices(labels, val_fraction, seed)
    if len(train_idx) == 0:
        raise UsageError("training dataset is empty")
    correction = estimate_dataset_correction([clips[i] for i in train_idx])
    ds = _dataset(rows, clips, correction)
    return ds.subset(train_idx), ds.subset(val_idx), correction


def estimate_dataset_correction(clips) -> SpectrumCorrection:
    """Per-device correction from mean clip magnitude spectra."""
    by_device: dict[str, list] = {}
    for clip in clips:
        mean_mag = stft_magnitude(frame_and_window(clip.samples)).mean(axis=0)
        by_device.setdefault(clip.device_id, []).append(mean_mag)
    return estimate_correction({d: np.stack(s) for d, s in by_device.items()})


def _split_indices(labels: np.ndarray, val_fraction: float, seed: int):
    """Deterministic stratified split of row indices; (train, val)."""
    if not 0.0 <= val_fraction < 1.0:
        raise UsageError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    val_idx = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        rng = derive_rng(seed, PURPOSE_SHUFFLE, "val-split", int(c))
        take = int(round(val_fraction * len(members)))
        val_idx.extend(members[rng.permutation(len(members))[:take]])
    val_idx = np.sort(np.array(val_idx, dtype=np.int64))
    mask = np.ones(len(labels), dtype=bool)
    mask[val_idx] = False
    return np.flatnonzero(mask), val_idx


def split_train_val(ds: Dataset, val_fraction: float, seed: int):
    """Deterministic stratified split; returns (train, val)."""
    train_idx, val_idx = _split_indices(ds.labels, val_fraction, seed)
    return ds.subset(train_idx), ds.subset(val_idx)


# -- training loop ---------------------------------------------------------------


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    train_loss: float
    hard_loss: float
    distill_loss: float
    train_acc: float
    val_acc: float | None


METRICS_COLUMNS = tuple(f.name for f in dataclasses.fields(EpochMetrics))


@dataclass
class TrainResult:
    model: PacnModel
    metrics: list[EpochMetrics]
    train_config: TrainConfig


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes, dtype=np.float32)[labels]


def _batch_clips(ds: Dataset, idx, epoch: int, cfg: TrainConfig,
                 coeffs: dict, pools: dict[int, list]):
    """Per-clip waveform augmentation; cached features reused when untouched."""
    feats = []
    for i in idx:
        clip = ds.clips[i]
        rng = derive_rng(cfg.seed, PURPOSE_AUGMENT, epoch, ds.names[i])
        out = augment_clip(clip, pools[int(ds.labels[i])], rng, cfg.augment)
        feats.append(ds.features[i] if out is clip else extract_feature(
            out, coeffs.get(out.device_id)).feature)
    return np.stack(feats)


def _batches(ds: Dataset, cfg: TrainConfig, teacher: PacnModel | None,
             coeffs: dict, pools: dict[int, list], num_classes: int):
    """Every epoch's batches in order, as (b_idx, idx, x, y, teacher_logits).

    Shuffling, augmentation, features, mixup and the teacher forward never
    read the student, so ``_train`` runs this one batch ahead on a worker.
    """
    aug = cfg.augment
    n = len(ds)
    for epoch in range(1, cfg.epochs + 1):
        order = derive_rng(cfg.seed, PURPOSE_SHUFFLE, epoch).permutation(n)
        for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            x_np = _batch_clips(ds, idx, epoch, cfg, coeffs, pools)
            y = _one_hot(ds.labels[idx], num_classes)

            mrng = derive_rng(cfg.seed, PURPOSE_MIXUP, epoch, b_idx)
            if aug.mixup_prob > 0 and mrng.random() < aug.mixup_prob:
                mb = draw_mixup(len(idx), mrng, cfg.mixup_alpha)
                x_np, y = apply_mixup(x_np, y, mb)

            x = features_to_input(x_np)
            teacher_logits = None
            if cfg.kd_lambda < 1.0:
                # the teacher reads the student's input; nothing mutates it
                teacher_logits = teacher(x, training=False).data
            yield b_idx, idx, x, y, teacher_logits


def _train(model_cfg: PacnConfig, train_ds: Dataset, val_ds: Dataset | None,
           cfg: TrainConfig, teacher: PacnModel | None,
           correction: SpectrumCorrection | None) -> TrainResult:
    cfg.validate()
    if len(train_ds) == 0:
        raise UsageError("training dataset is empty")
    num_classes = model_cfg.num_classes
    check_labels(train_ds.labels, num_classes)
    model = PacnModel(model_cfg, seed=cfg.seed)
    model.correction = correction
    opt = Adam(model.params)
    n = len(train_ds)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch

    pools: dict[int, list] = {}
    for i, clip in enumerate(train_ds.clips):
        pools.setdefault(int(train_ds.labels[i]), []).append(clip)
    coeffs = {} if correction is None else correction.coeffs
    batches = _batches(train_ds, cfg, teacher, coeffs, pools, num_classes)

    metrics = []
    step = 0
    with ThreadPoolExecutor(max_workers=1) as worker:
        # the worker builds batch b + 1 while the student trains on batch b
        ahead = worker.submit(next, batches, None)
        for epoch in range(1, cfg.epochs + 1):
            loss_sum = hard_sum = dist_sum = 0.0
            correct = 0
            lr = 0.0
            for _ in range(steps_per_epoch):
                b_idx, idx, x, y, teacher_logits = ahead.result()
                ahead = worker.submit(next, batches, None)
                logits = model(x, training=True)
                parts = kd_loss(logits, y, teacher_logits, cfg.kd_lambda,
                                cfg.kd_temperature)
                total_val = float(parts.total.data)
                if not math.isfinite(total_val):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, "
                                        f"batch {b_idx}")
                parts.total.backward()
                step += 1
                lr = lr_at(step, total_steps, warmup_steps, cfg.peak_lr)
                opt.step(lr)
                model.clamp_arn()
                model.zero_grad()

                bs = len(idx)
                loss_sum += total_val * bs
                hard_sum += parts.hard * bs
                dist_sum += parts.distill * bs
                correct += int((logits.data.argmax(axis=-1)
                                == y.argmax(axis=-1)).sum())

            val_acc = None
            if val_ds is not None and len(val_ds) > 0:
                # looked up on the module at call time, so a wrapper
                # installed on evalstats.predict sees the validation forwards
                val_acc = float(np.mean(evalstats.predict(model, val_ds.features)
                                        == val_ds.labels))
            em = EpochMetrics(epoch=epoch, lr=lr, train_loss=loss_sum / n,
                              hard_loss=hard_sum / n, distill_loss=dist_sum / n,
                              train_acc=correct / n, val_acc=val_acc)
            metrics.append(em)
            log.info("epoch %d/%d lr %.3g loss %.4f acc %.3f val %s", epoch,
                     cfg.epochs, em.lr, em.train_loss, em.train_acc,
                     "-" if val_acc is None else f"{val_acc:.3f}")
    return TrainResult(model=model, metrics=metrics, train_config=cfg)


def train_teacher(model_cfg: PacnConfig, train_ds: Dataset, cfg: TrainConfig,
                  val_ds: Dataset | None = None,
                  correction: SpectrumCorrection | None = None) -> TrainResult:
    """Supervised training (pure cross-entropy, no distillation)."""
    return _train(model_cfg, train_ds, val_ds,
                  dataclasses.replace(cfg, kd_lambda=1.0), teacher=None,
                  correction=correction)


def check_teacher(model_cfg: PacnConfig, teacher: PacnModel | None,
                  cfg: TrainConfig) -> None:
    """kd_lambda < 1 needs a teacher, and it must predict the student's classes."""
    if cfg.validate().kd_lambda < 1.0 and teacher is None:
        raise UsageError("kd_lambda < 1 requires a teacher model")
    if teacher is not None and teacher.config.num_classes != model_cfg.num_classes:
        raise ConfigError(f"teacher predicts {teacher.config.num_classes} "
                          f"classes, student {model_cfg.num_classes}")


def train_student_kd(model_cfg: PacnConfig, teacher: PacnModel | None,
                     train_ds: Dataset, cfg: TrainConfig,
                     val_ds: Dataset | None = None,
                     correction: SpectrumCorrection | None = None) -> TrainResult:
    """Distill a (frozen, inference-mode) teacher into a fresh student."""
    check_teacher(model_cfg, teacher, cfg)
    return _train(model_cfg, train_ds, val_ds, cfg, teacher=teacher,
                  correction=correction)


def mean_teacher_kl(teacher: PacnModel, student: PacnModel,
                    features: np.ndarray) -> float:
    """Mean KL(teacher || student) over clips, temperature 1, float64: the
    distillation term of ``kd_loss``."""
    zt = evalstats.logits(teacher, features).astype(np.float64)
    zs = evalstats.logits(student, features).astype(np.float64)
    return float(ops.kl_from_teacher(ops.softmax(Tensor(zt)).data,
                                     Tensor(zs)).data)


# -- metrics output --------------------------------------------------------------


def write_metrics(path, result: TrainResult):
    """Metrics CSV plus a .meta.json sidecar with the resolved configs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for m in result.metrics:
            epoch, *values = dataclasses.astuple(m)
            writer.writerow([epoch] + ["" if v is None else repr(float(v))
                                       for v in values])
    meta = {
        "train": dataclasses.asdict(result.train_config),
        "model": json.loads(result.model.config.to_json()),
    }
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
