"""The three benchmark workloads: inputs, set-up, timed loops and checks.

Every input comes from the workload seed: a synthetic corpus rendered by
``pacn.synth`` and, where a workload needs one, a checkpoint of a packaged
config at its seeded initialisation. A checkpoint's BN running statistics
are filled by a few training-mode forward passes; per-clip cost does not
depend on weight values, and training a real teacher would dominate the run.

The layers are driven only through their public functions, looked up on the
module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import math
import os
import statistics
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter

import numpy as np

from pacn import audio, manifest, model, profiler, synth, train
from pacn.errors import PacnError
from tracer import Tracer

# The package re-exports the function pacn.tensor.tensor under this name.
tensor = importlib.import_module("pacn.tensor")

BATCH = 16
CLASSES = 4
CLIPS_PER_CLASS = 20            # 80 clips: 64 train + 16 validation
VAL_FRACTION = 0.2
EPOCHS = {"kd-student": 2, "teacher-ce": 1}
SETUP_REPEATS = 5
BN_FILL_BATCHES = 2
HELD_OUT_DEVICE = "s1"          # infer-b1: left out of the correction fit
F64_SAMPLE = 8                  # infer-b1: clips checked against float64
F64_TOL = 1e-3                  # |l32 - l64| <= F64_TOL * (1 + max |l64|)
TRACE_BLOCK = 100               # infer-b1: clips per block
MIN_LATENCY_SAMPLES = 100       # leaves ten samples beyond p90


def packaged_config(name: str) -> model.PacnConfig:
    text = (resources.files("pacn") / "configs" / f"{name}.json").read_text()
    return model.PacnConfig.from_json(text)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _logits(net, features) -> np.ndarray:
    with tensor.no_grad():
        return net(model.features_to_input(features), training=False).data


@dataclass
class Outcome:
    """What one run measured and checked."""

    setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool):
        """A correctness check counts as one operation."""
        self.checks[name] = bool(ok)
        self.attempted += 1
        self.failed += not ok

    def ops(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed


def check_profiler(out: Outcome):
    for name in ("student", "teacher"):
        out.check(f"profiler_runtime_{name}",
                  profiler.verify_against_runtime(packaged_config(name)).matched)


# -- inputs -----------------------------------------------------------------


def make_inputs(workload: str, seed: int, work: str) -> dict:
    """Render the corpus and write the checkpoint the workload loads."""
    devices = 4 if workload == "infer-b1" else 3
    spec = synth.SynthSpec(classes=CLASSES, clips_per_class=CLIPS_PER_CLASS,
                           devices=devices, seed=seed)
    rows = synth.generate_synth_dataset(spec, work)
    inputs = {"manifest": os.path.join(work, "manifest.tsv")}
    name = {"kd-student": "teacher", "infer-b1": "student"}.get(workload)
    if name is not None:
        net = model.PacnModel(packaged_config(name), seed=seed)
        fill = rows[::2][:BN_FILL_BATCHES * BATCH]
        feats = np.stack([audio.extract_feature(
            audio.read_wav(os.path.join(work, r.filename))).feature for r in fill])
        with tensor.no_grad():
            for start in range(0, len(feats), BATCH):
                net(model.features_to_input(feats[start:start + BATCH]), training=True)
        inputs["checkpoint"] = os.path.join(work, f"{name}.ckpt")
        net.save(inputs["checkpoint"])
    return inputs


# -- training workloads ------------------------------------------------------


@dataclass
class TrainSetup:
    train_ds: train.Dataset
    val_ds: train.Dataset
    correction: object
    model_cfg: model.PacnConfig
    teacher: model.PacnModel | None


def setup_training(workload: str, inputs: dict, seed: int) -> TrainSetup:
    """The CLI's training preparation, through public functions."""
    path = inputs["manifest"]
    base = os.path.dirname(path)
    rows = manifest.parse_manifest(path)
    clips = [audio.read_wav(os.path.join(base, r.filename), r.label_index,
                            r.device_id, r.city) for r in rows]
    correction = train.estimate_dataset_correction(clips)
    ds = train.Dataset(clips=clips,
                       features=train.extract_features(clips, correction, threads=1),
                       labels=np.array([r.label_index for r in rows], dtype=np.int64),
                       devices=tuple(r.device_id for r in rows),
                       names=tuple(r.filename for r in rows))
    train_ds, val_ds = train.split_train_val(ds, VAL_FRACTION, seed)
    if workload == "kd-student":
        return TrainSetup(train_ds, val_ds, correction, packaged_config("student"),
                          model.PacnModel.load(inputs["checkpoint"]))
    return TrainSetup(train_ds, val_ds, correction, packaged_config("teacher"), None)


def train_once(s: TrainSetup, cfg: train.TrainConfig) -> train.TrainResult:
    if s.teacher is None:
        return train.train_teacher(s.model_cfg, s.train_ds, cfg, s.val_ds, s.correction)
    return train.train_student_kd(s.model_cfg, s.teacher, s.train_ds, cfg,
                                  s.val_ds, s.correction)


def run_training(workload: str, inputs: dict, seed: int, seconds: float,
                 trace: bool, rows, work: str) -> Outcome:
    """Repeat the train_* call until the time is spent.

    Every call trains from the same seed on the same data, so every call
    must write a byte-identical checkpoint and metrics CSV. The first call
    warms the allocator and is not timed. A trace run then alternates
    untraced and traced calls; the untraced ones give the throughput the
    tracing overhead is measured against.
    """
    out = Outcome()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        s = setup_training(workload, inputs, seed)
        out.setup_s.append(perf_counter() - t0)
    check_profiler(out)
    cfg = train.TrainConfig(epochs=EPOCHS[workload], batch_size=BATCH,
                            warmup_epochs=1, seed=seed)
    clips = cfg.epochs * len(s.train_ds)
    steps = cfg.epochs * math.ceil(len(s.train_ds) / BATCH)
    loop = Tracer(rows, teacher=s.teacher)

    durations = {False: [], True: []}
    spent = []
    hashes = []
    while True:
        traced = trace and len(durations[False]) > len(durations[True])
        t0 = perf_counter()
        try:
            if traced:
                with loop:
                    result = train_once(s, cfg)
            else:
                result = train_once(s, cfg)
        except PacnError as exc:
            result = None
            out.record.setdefault("errors", []).append(repr(exc))
        dt = perf_counter() - t0
        spent.append(dt)
        ok = result is not None and all(math.isfinite(m.train_loss)
                                        for m in result.metrics)
        out.ops(steps, 0 if ok else steps)
        if ok:
            if hashes:
                durations[traced].append(dt)
            ckpt, digests = _save_and_hash(result, work, len(hashes))
            hashes.append(digests)
            if len(hashes) == 1:
                _check_trained(out, s, result, ckpt, seed)
        enough = durations[False] and (durations[True] or not trace)
        budget = sum(spent) + statistics.median(spent)
        if (enough and budget > seconds) or budget > 2 * seconds:
            break

    cps = [clips / dt for dt in durations[False]]
    out.values["clips_per_s"] = statistics.median(cps) if cps else 0.0
    out.check("rerun_identical", len(hashes) > 0 and len(set(hashes)) == 1)
    out.record.update(train_calls=len(spent), clips_per_call=clips,
                      steps_per_call=steps, call_s=spent,
                      checkpoint_sha256=sorted({h[0] for h in hashes}),
                      metrics_csv_sha256=sorted({h[1] for h in hashes}))
    if trace:
        overhead = (1.0 - statistics.median(durations[False])
                    / statistics.median(durations[True]) if enough else 0.0)
        setup_trace = Tracer(rows)
        with setup_trace:
            setup_training(workload, inputs, seed)
        out.per_layer = layer_metrics(loop, setup_trace, rows,
                                      units=loop.counts["train.steps"], overhead=overhead)
        out.record["spans"] = write_spans(work, setup_trace, loop)
        out.record["loop_self_ms"] = loop.self_ms()
    return out


def _save_and_hash(result, work: str, i: int):
    ckpt = os.path.join(work, f"trained-{i}.ckpt")
    csv_path = os.path.join(work, f"trained-{i}.metrics.csv")
    result.model.save(ckpt)
    train.write_metrics(csv_path, result)
    return ckpt, (sha256(ckpt), sha256(csv_path))


def _check_trained(out: Outcome, s: TrainSetup, result, ckpt: str, seed: int):
    """Round trip and distillation checks on the first trained model."""
    val = s.val_ds.features
    loaded = model.PacnModel.load(ckpt)
    out.check("checkpoint_roundtrip",
              np.array_equal(_logits(loaded, val), _logits(result.model, val)))
    if s.teacher is not None:
        untrained = model.PacnModel(s.model_cfg, seed=seed)
        kl0 = train.mean_teacher_kl(s.teacher, untrained, val)
        kl = train.mean_teacher_kl(s.teacher, result.model, val)
        out.values["kd_kl"] = kl
        out.record["kd_kl_untrained"] = kl0
        out.check("kd_kl_below_untrained", kl < kl0)


# -- inference workload --------------------------------------------------------


@dataclass
class InferSetup:
    stream: list                     # (wav path, device id) in a fixed order
    correction: object
    student: model.PacnModel


def clip_to_logits(s: InferSetup, path: str, device: str) -> np.ndarray:
    clip = audio.read_wav(path)
    feature = audio.extract_feature(clip, s.correction.coeff_for(device)).feature
    return _logits(s.student, feature[None])[0]


def setup_infer(inputs: dict) -> InferSetup:
    """Fit the correction on a training split; the rest is the stream.

    The split holds every fifth clip back for the stream, and every clip of
    the held-out device, which the correction passes through unchanged.
    """
    path = inputs["manifest"]
    base = os.path.dirname(path)
    rows = manifest.parse_manifest(path)
    fit, stream = [], []
    for i, r in enumerate(rows):
        wav = os.path.join(base, r.filename)
        if r.device_id == HELD_OUT_DEVICE or i % 5 == 0:
            stream.append((wav, r.device_id))
        else:
            fit.append(audio.read_wav(wav, r.label_index, r.device_id, r.city))
    s = InferSetup(stream, train.estimate_dataset_correction(fit),
                   model.PacnModel.load(inputs["checkpoint"]))
    clip_to_logits(s, *stream[0])
    return s


def run_infer(inputs: dict, seconds: float, trace: bool, rows, work: str) -> Outcome:
    """Closed loop with one caller, cycling through the stream.

    A clip fails if its logits are non-finite or differ from the logits the
    same clip gave on its first pass. The loop runs in blocks of clips;
    with one caller, a block's clips per second is the inverse of its mean
    latency, and the run reports the median block. A trace run alternates
    untraced and traced blocks.
    """
    out = Outcome()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        s = setup_infer(inputs)
        out.setup_s.append(perf_counter() - t0)
    check_profiler(out)
    loop = Tracer(rows)

    first = {}
    latency = {False: [], True: []}
    failed = i = block = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= 2 * seconds or (
                elapsed >= seconds and len(latency[False]) >= MIN_LATENCY_SAMPLES
                and (latency[True] or not trace)):
            break
        traced = trace and block % 2 == 1
        if traced:
            loop.install()
        try:
            for _ in range(TRACE_BLOCK):
                k = i % len(s.stream)
                i += 1
                t0 = perf_counter()
                if traced:
                    loop.op = i
                    idx = loop.begin("infer.clip")
                try:
                    logits = clip_to_logits(s, *s.stream[k])
                except PacnError as exc:
                    logits = None
                    out.record.setdefault("errors", []).append(repr(exc))
                finally:
                    if traced:
                        loop.end(idx)
                dt = perf_counter() - t0
                if (logits is not None and np.isfinite(logits).all()
                        and np.array_equal(logits, first.setdefault(k, logits))):
                    latency[traced].append(dt)
                else:
                    failed += 1
        finally:
            if traced:
                loop.uninstall()
        block += 1
    out.ops(i, failed)

    lat_ms = 1e3 * np.array(latency[False] or [0.0])
    blocks = lat_ms[:len(lat_ms) // TRACE_BLOCK * TRACE_BLOCK].reshape(-1, TRACE_BLOCK)
    out.values["clips_per_s"] = float(np.median(1e3 * TRACE_BLOCK / blocks.sum(axis=1))
                                      if len(blocks) else 0.0)
    out.values["latency_ms_p50"] = float(np.percentile(lat_ms, 50))
    out.values["latency_ms_p90"] = float(np.percentile(lat_ms, 90))
    out.record.update(latency_samples=len(lat_ms), stream_clips=len(s.stream))
    _check_float64(out, s)
    if trace:
        setup_trace = Tracer(rows)
        with setup_trace:
            setup_infer(inputs)
        overhead = (1.0 - np.mean(latency[False]) / np.mean(latency[True])
                    if latency[False] and latency[True] else 0.0)
        out.per_layer = layer_metrics(loop, setup_trace, rows,
                                      units=len(latency[True]), overhead=overhead)
        out.record["spans"] = write_spans(work, setup_trace, loop)
        out.record["loop_self_ms"] = loop.self_ms()
    return out


def _check_float64(out: Outcome, s: InferSetup):
    """float32 logits against a float64 copy of the same weights."""
    net64 = model.PacnModel(s.student.config, dtype=np.float64)
    for path, t in s.student.params.items():
        net64.params[path].data[...] = t.data
    for path, st in s.student.state.items():
        net64.state[path]["mean"][...] = st["mean"]
        net64.state[path]["var"][...] = st["var"]
    worst = 0.0
    ok = True
    for path, device in s.stream[:F64_SAMPLE]:
        feature = audio.extract_feature(audio.read_wav(path),
                                        s.correction.coeff_for(device)).feature
        l32 = _logits(s.student, feature[None])[0].astype(np.float64)
        l64 = _logits(net64, feature[None].astype(np.float64))[0]
        tol = F64_TOL * (1.0 + np.abs(l64).max())
        err = np.abs(l32 - l64).max()
        worst = max(worst, err / tol)
        top2 = np.sort(l64)[-2:]
        same_class = l32.argmax() == l64.argmax() or top2[1] - top2[0] <= tol
        ok = ok and err <= tol and same_class
    out.record["float64_worst_error_over_tol"] = worst
    out.check("float64_logits", ok)


# -- per-layer metrics ------------------------------------------------------------


def layer_names(rows) -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [
        "audio.read_wav.ms", "audio.extract_feature.ms", "audio.extract_feature.calls",
        "augment.augment_clip.ms", "train.teacher_infer.ms", "train.kd_loss.ms",
        "train.adam_step.ms", "evalstats.predict.ms",
        "model.forward.ms", "tensor.backward.ms", "model.other.fwd_ms",
        "model.other.bwd_ms", "tensor.graph_nodes", "tensor.graph_mbytes",
        "augment.modified_share", "augment.clips_drawn",
        "augment.mixup_batch_share", "train.batches",
        "train.teacher_cacheable_share", "train.rows",
        "setup.audio.read_wav.ms", "setup.audio.extract_feature.ms",
        "setup.train.estimate_dataset_correction.ms", "model.load.ms",
        "trace.overhead_pct",
    ]
    for r in rows:
        names += [f"model.{r.name}.fwd_ms", f"model.{r.name}.bwd_ms",
                  f"model.{r.name}.gmac_s"]
    return names


def layer_metrics(loop: Tracer, setup: Tracer, rows, units, overhead) -> dict:
    """Per-layer numbers of a traced run, per training step or per clip.

    Set-up numbers (``setup.*``, ``model.load.ms``) are ms per set-up.
    Shares come with their bases as totals over the traced loop.
    """
    units = max(units, 1)
    c = loop.counts

    def per(name):
        return loop.total_ms(name) / units

    def share(num, den):
        return c[num] / c[den] if c[den] else 0.0

    fwd = per("model.forward")
    bwd = per("tensor.backward")
    m = {
        "audio.read_wav.ms": per("audio.read_wav"),
        "audio.extract_feature.ms": per("audio.extract_feature"),
        "audio.extract_feature.calls": sum(
            s[0] == "audio.extract_feature" for s in loop.spans) / units,
        "augment.augment_clip.ms": per("augment.augment_clip"),
        "train.teacher_infer.ms": per("train.teacher_infer"),
        "train.kd_loss.ms": per("train.kd_loss"),
        "train.adam_step.ms": per("train.adam_step"),
        "evalstats.predict.ms": per("evalstats.predict"),
        "model.forward.ms": fwd,
        "tensor.backward.ms": bwd,
        "model.other.fwd_ms": fwd - 1e3 * sum(loop.row_fwd.values()) / units,
        "model.other.bwd_ms": bwd - 1e3 * sum(loop.row_bwd.values()) / units,
        "tensor.graph_nodes": share("tensor.graph_nodes", "tensor.backwards"),
        "tensor.graph_mbytes": share("tensor.graph_bytes", "tensor.backwards") / 1e6,
        "augment.modified_share": share("augment.clips_modified", "augment.clips_drawn"),
        "augment.clips_drawn": c["augment.clips_drawn"],
        "augment.mixup_batch_share": share("train.mixup_batches", "train.batches"),
        "train.batches": c["train.batches"],
        "train.teacher_cacheable_share": share("train.cacheable_rows", "train.rows"),
        "train.rows": c["train.rows"],
        "setup.audio.read_wav.ms": setup.total_ms("audio.read_wav"),
        "setup.audio.extract_feature.ms": setup.total_ms("audio.extract_feature"),
        "setup.train.estimate_dataset_correction.ms":
            setup.total_ms("train.estimate_dataset_correction"),
        "model.load.ms": setup.total_ms("model.load"),
        "trace.overhead_pct": 100.0 * overhead,
    }
    clips = c["model.forward.clips"]
    for r in rows:
        fwd_s = loop.row_fwd[r.name]
        m[f"model.{r.name}.fwd_ms"] = 1e3 * fwd_s / units
        m[f"model.{r.name}.bwd_ms"] = 1e3 * loop.row_bwd[r.name] / units
        m[f"model.{r.name}.gmac_s"] = r.macs * clips / fwd_s / 1e9 if fwd_s else 0.0
    return m


def write_spans(work: str, setup: Tracer, loop: Tracer) -> str:
    path = work + ".spans.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        setup.write(fh, "setup")
        loop.write(fh, "loop")
    return os.path.basename(path)
