"""Training: Adam with linear-warmup + cosine decay, knowledge distillation,
and the per-epoch augmentation pipeline.

Runs are fully deterministic for a fixed seed. Every random decision
(shuffling, per-clip waveform augmentation, mixup gating and weights) draws
from an RNG derived from (seed, purpose, epoch, clip/batch id); nothing reads
the wall clock or global RNG state, so checkpoints and metrics files are
byte-identical across reruns.
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

from . import ops
from .audio import (AudioClip, extract_feature, frame_and_window, read_wav,
                    stft_magnitude)
from .augment import (MIX_DEVICE_ID, AugmentConfig, SpectrumCorrection,
                      apply_mixup, augment_clip, draw_mixup, estimate_correction)
from .errors import ConfigError, TrainingError, UsageError
from .manifest import parse_manifest
from .model import PacnConfig, PacnModel, features_to_input
from .seeding import (PURPOSE_AUGMENT, PURPOSE_MIXUP, PURPOSE_SHUFFLE,
                      derive_rng)
from .tensor import Tensor, no_grad

log = logging.getLogger(__name__)

METRICS_COLUMNS = ("epoch", "lr", "train_loss", "hard_loss", "distill_loss",
                   "train_acc", "val_acc")


# -- configuration -------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    peak_lr: float = 0.002
    warmup_epochs: int = 10
    kd_lambda: float = 0.226
    kd_temperature: float = 2.0
    kd_t2_scale: bool = True
    mixup_alpha: float = 0.4
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self) -> "TrainConfig":
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
        return self

    def effective_augment(self) -> AugmentConfig:
        """Augmentation knobs with this config's mixup alpha folded in."""
        return dataclasses.replace(self.augment, mixup_alpha=self.mixup_alpha)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown fields: {sorted(unknown)}")
        aug = raw.pop("augment", None)
        if aug is not None:
            aug_known = {f.name for f in dataclasses.fields(AugmentConfig)}
            aug_unknown = set(aug) - aug_known
            if aug_unknown:
                raise ConfigError(f"unknown augment fields: {sorted(aug_unknown)}")
            if "pitch_factors" in aug:
                aug["pitch_factors"] = tuple(aug["pitch_factors"])
            raw["augment"] = AugmentConfig(**aug)
        return cls(**raw).validate()

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


# -- distillation loss ---------------------------------------------------------


@dataclass
class KdLossParts:
    total: Tensor
    hard: float
    distill: float


def _softmax_np(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def kd_loss(student_logits: Tensor, targets: np.ndarray,
            teacher_logits: np.ndarray | None, lam: float, temperature: float,
            t2_scale: bool = True) -> KdLossParts:
    """Blend hard cross-entropy with KL to temperature-softened teacher probs.

    total = lam * hard + (1 - lam) * T^2 * distill  (T^2 factor optional).
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
    probs = _softmax_np(np.asarray(teacher_logits) / temperature)
    distill = ops.kl_from_teacher(probs, student_logits / temperature)
    scale = (1.0 - lam) * (temperature * temperature if t2_scale else 1.0)
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
    if total_steps == warmup_steps:
        return peak_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# -- optimizer ------------------------------------------------------------------


class Adam:
    """Bias-corrected Adam over a layer-path -> Tensor parameter map."""

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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
    correction: SpectrumCorrection | None = None    # applied to ``features``

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(clips=[self.clips[i] for i in idx],
                       features=self.features[idx],
                       labels=self.labels[idx],
                       devices=tuple(self.devices[i] for i in idx),
                       names=tuple(self.names[i] for i in idx),
                       correction=self.correction)


def extract_features(clips, correction: SpectrumCorrection | None = None,
                     threads: int = 1) -> np.ndarray:
    """Stack clean per-clip features, optionally device-corrected."""

    def one(clip: AudioClip) -> np.ndarray:
        coeffs = None
        if correction is not None and clip.device_id != MIX_DEVICE_ID:
            coeffs = correction.coeff_for(clip.device_id)
        return extract_feature(clip, coeffs).feature

    if threads > 1 and len(clips) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            feats = list(pool.map(one, clips))
    else:
        feats = [one(c) for c in clips]
    return np.stack(feats)


def load_dataset(manifest_path, threads: int = 1, fit_correction: bool = False,
                 exclude_device: str | None = None) -> Dataset:
    """Read the clips a manifest lists (paths relative to it) into a Dataset.

    ``exclude_device`` drops that device's rows before any WAV is read; each
    kept WAV is read once. With ``fit_correction`` the spectrum correction is
    fitted on the kept clips, applied to their features and returned as
    ``Dataset.correction``.
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
    clips = [read_wav(os.path.join(base, r.filename), r.label_index,
                      r.device_id, r.city) for r in rows]
    correction = estimate_dataset_correction(clips) if fit_correction else None
    return Dataset(clips=clips,
                   features=extract_features(clips, correction, threads),
                   labels=np.array([r.label_index for r in rows], dtype=np.int64),
                   devices=tuple(r.device_id for r in rows),
                   names=tuple(r.filename for r in rows),
                   correction=correction)


def estimate_dataset_correction(clips) -> SpectrumCorrection:
    """Per-device correction from mean clip magnitude spectra."""
    by_device: dict[str, list] = {}
    for clip in clips:
        mean_mag = stft_magnitude(frame_and_window(clip)).mean(axis=0)
        by_device.setdefault(clip.device_id, []).append(mean_mag)
    return estimate_correction({d: np.stack(s) for d, s in by_device.items()})


def split_train_val(ds: Dataset, val_fraction: float, seed: int):
    """Deterministic stratified split; returns (train, val)."""
    if not 0.0 <= val_fraction < 1.0:
        raise UsageError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    val_idx = []
    for c in np.unique(ds.labels):
        members = np.flatnonzero(ds.labels == c)
        rng = derive_rng(seed, PURPOSE_SHUFFLE, "val-split", int(c))
        take = int(round(val_fraction * len(members)))
        val_idx.extend(members[rng.permutation(len(members))[:take]])
    val_idx = np.sort(np.array(val_idx, dtype=np.int64))
    mask = np.ones(len(ds), dtype=bool)
    mask[val_idx] = False
    return ds.subset(np.flatnonzero(mask)), ds.subset(val_idx)


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


@dataclass
class TrainResult:
    model: PacnModel
    metrics: list[EpochMetrics]
    train_config: TrainConfig
    model_config: PacnConfig


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes, dtype=np.float32)[labels]


def _batch_clips(ds: Dataset, idx, epoch: int, cfg: TrainConfig,
                 aug: AugmentConfig, correction: SpectrumCorrection | None,
                 pools: dict[int, list]):
    """Per-clip waveform augmentation; cached features reused when untouched."""
    feats = []
    waves = []
    for i in idx:
        clip = ds.clips[i]
        rng = derive_rng(cfg.seed, PURPOSE_AUGMENT, epoch, ds.names[i])
        out = augment_clip(clip, pools[int(ds.labels[i])], rng, aug)
        waves.append(out)
        if out is clip:
            feats.append(ds.features[i])
        else:
            coeffs = None
            if correction is not None and out.device_id != MIX_DEVICE_ID:
                coeffs = correction.coeff_for(out.device_id)
            feats.append(extract_feature(out, coeffs).feature)
    return np.stack(feats), waves


def _mix_waveforms(waves, mb) -> np.ndarray:
    stacked = np.stack([w.samples for w in waves]).astype(np.float64)
    mixed = mb.eta * stacked + (1.0 - mb.eta) * stacked[mb.pair_index]
    feats = [extract_feature(AudioClip(samples=row.astype(np.float32))).feature
             for row in mixed]
    return np.stack(feats)


def accuracy(model: PacnModel, ds: Dataset, batch_size: int = 64) -> float:
    from .evalstats import predict

    return float(np.mean(predict(model, ds.features, batch_size) == ds.labels))


def _train(model_cfg: PacnConfig, train_ds: Dataset, val_ds: Dataset | None,
           cfg: TrainConfig, teacher: PacnModel | None,
           correction: SpectrumCorrection | None) -> TrainResult:
    cfg.validate()
    if len(train_ds) == 0:
        raise UsageError("training dataset is empty")
    lam = cfg.kd_lambda
    if lam < 1.0 and teacher is None:
        raise UsageError("kd_lambda < 1 requires a teacher model")

    num_classes = model_cfg.num_classes
    if int(train_ds.labels.max()) >= num_classes:
        raise ConfigError(f"dataset has label {int(train_ds.labels.max())} but "
                          f"the model predicts {num_classes} classes")
    model = PacnModel(model_cfg, seed=cfg.seed)
    opt = Adam(model.params)
    aug = cfg.effective_augment()
    n = len(train_ds)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch

    pools: dict[int, list] = {}
    for i, clip in enumerate(train_ds.clips):
        pools.setdefault(int(train_ds.labels[i]), []).append(clip)

    metrics = []
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = derive_rng(cfg.seed, PURPOSE_SHUFFLE, epoch).permutation(n)
        loss_sum = hard_sum = dist_sum = 0.0
        correct = 0
        lr = 0.0
        for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            x_np, waves = _batch_clips(train_ds, idx, epoch, cfg, aug,
                                       correction, pools)
            y = _one_hot(train_ds.labels[idx], num_classes)

            mrng = derive_rng(cfg.seed, PURPOSE_MIXUP, epoch, b_idx)
            if aug.mixup_prob > 0 and mrng.random() < aug.mixup_prob:
                mb = draw_mixup(len(idx), mrng, aug.mixup_alpha)
                if aug.mixup_domain == "waveform":
                    x_np = _mix_waveforms(waves, mb)
                    y = (mb.eta * y + (1.0 - mb.eta) * y[mb.pair_index])
                else:
                    x_np, y = apply_mixup(x_np, y, mb)

            x = features_to_input(x_np)
            logits = model(x, training=True)
            teacher_logits = None
            if lam < 1.0:
                with no_grad():
                    teacher_logits = teacher(features_to_input(x_np),
                                             training=False).data
            parts = kd_loss(logits, y, teacher_logits, lam,
                            cfg.kd_temperature, cfg.kd_t2_scale)
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
            correct += int((logits.data.argmax(axis=-1) == y.argmax(axis=-1)).sum())

        val_acc = None
        if val_ds is not None and len(val_ds) > 0:
            val_acc = accuracy(model, val_ds)
        em = EpochMetrics(epoch=epoch, lr=lr, train_loss=loss_sum / n,
                          hard_loss=hard_sum / n, distill_loss=dist_sum / n,
                          train_acc=correct / n, val_acc=val_acc)
        metrics.append(em)
        log.info("epoch %d/%d lr %.3g loss %.4f acc %.3f val %s", epoch,
                 cfg.epochs, em.lr, em.train_loss, em.train_acc,
                 "-" if val_acc is None else f"{val_acc:.3f}")
    return TrainResult(model=model, metrics=metrics, train_config=cfg,
                       model_config=model_cfg)


def train_teacher(model_cfg: PacnConfig, train_ds: Dataset, cfg: TrainConfig,
                  val_ds: Dataset | None = None,
                  correction: SpectrumCorrection | None = None) -> TrainResult:
    """Supervised training (pure cross-entropy, no distillation)."""
    return _train(model_cfg, train_ds, val_ds,
                  dataclasses.replace(cfg, kd_lambda=1.0), teacher=None,
                  correction=correction)


def train_student_kd(model_cfg: PacnConfig, teacher: PacnModel | None,
                     train_ds: Dataset, cfg: TrainConfig,
                     val_ds: Dataset | None = None,
                     correction: SpectrumCorrection | None = None) -> TrainResult:
    """Distill a (frozen, inference-mode) teacher into a fresh student."""
    if teacher is not None and teacher.config.num_classes != model_cfg.num_classes:
        raise ConfigError(f"teacher predicts {teacher.config.num_classes} "
                          f"classes, student {model_cfg.num_classes}")
    return _train(model_cfg, train_ds, val_ds, cfg, teacher=teacher,
                  correction=correction)


def mean_teacher_kl(teacher: PacnModel, student: PacnModel,
                    features: np.ndarray, batch_size: int = 64) -> float:
    """Mean KL(teacher || student) over clips, temperature 1, float64."""
    total = 0.0
    n = len(features)
    if n == 0:
        raise UsageError("empty feature set")
    with no_grad():
        for start in range(0, n, batch_size):
            x = features_to_input(features[start:start + batch_size])
            zt = teacher(x, training=False).data.astype(np.float64)
            zs = student(x, training=False).data.astype(np.float64)
            pt = _softmax_np(zt)
            log_pt = np.log(np.maximum(pt, 1e-300))
            log_ps = zs - zs.max(-1, keepdims=True)
            log_ps = log_ps - np.log(np.exp(log_ps).sum(-1, keepdims=True))
            total += float((pt * (log_pt - log_ps)).sum())
    return total / n


# -- metrics output --------------------------------------------------------------


def write_metrics(path, result: TrainResult):
    """Metrics CSV plus a .meta.json sidecar with the resolved configs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for m in result.metrics:
            writer.writerow([
                m.epoch,
                repr(float(m.lr)),
                repr(float(m.train_loss)),
                repr(float(m.hard_loss)),
                repr(float(m.distill_loss)),
                repr(float(m.train_acc)),
                "" if m.val_acc is None else repr(float(m.val_acc)),
            ])
    meta = {
        "train": dataclasses.asdict(result.train_config),
        "model": json.loads(result.model_config.to_json()),
    }
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
