"""pacn benchmark: KD training, teacher training and clip-to-logits inference.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kd-student --seed 1 --seconds 20 --trace 0

It builds nothing: it imports pacn from the checkout's ``src/``. The human
report goes to standard output and the run record to
``perfbench/out/<workload>-s<seed>-t<trace>.json``; the last line of standard
output is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones of a separate traced run.

``python3 perfbench/run.py --write-benchmark-json`` rewrites BENCHMARK.json
from the definitions below.
"""

from __future__ import annotations

import os

# One BLAS thread and one pacn front-end thread: set before numpy is imported.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
RUN_SECONDS = 30

WORKLOADS = {
    "kd-student": "the paper's training path: KD of the packaged student, default "
                  "augmentation, teacher inference in every step",
    "teacher-ce": "teacher training with cross-entropy: large memory-bound activations "
                  "and no teacher inference",
    "infer-b1": "closed-loop clip-to-logits at batch 1 with one caller: front end plus "
                "student forward, no graph, backward or optimizer",
}

# Every workload reports every one of these, so each applies to all three:
# clips_per_s is training clips per second of train_* wall time on the
# training workloads and clips per second of the closed loop on infer-b1.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "clips_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
]


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("gmac_s"):
        return "GMAC/s"
    if name.endswith("mbytes"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def profile_rows():
    from pacn import profiler
    from workloads import packaged_config

    return profiler.profile(packaged_config("student")).rows


def benchmark_json() -> dict:
    from workloads import layer_names

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": layer_unit(n), "better": _better(n)}
                      for n in layer_names(profile_rows())],
    }


def _better(name: str) -> str:
    return "higher" if name.endswith(("gmac_s", "cacheable_share")) else "lower"


# -- run record ---------------------------------------------------------------


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def source_sha256() -> str:
    """Hash of every file under src/, so a record names the code it ran."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "threads": THREADS, "git_commit": git_commit(),
            "source_sha256": source_sha256()}


# -- one run ------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    rows = profile_rows()
    tag = f"{workload}-s{seed}-t{int(trace)}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workloads.make_inputs(workload, seed, str(work))
        if workload == "infer-b1":
            out = workloads.run_infer(inputs, seconds, trace, rows, str(work))
        else:
            out = workloads.run_training(workload, inputs, seed, seconds, trace,
                                         rows, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {"setup_s": statistics.median(out.setup_s),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              **out.values,
              "fail_rate": out.failed / out.attempted}
    if trace:
        metrics = out.per_layer
        names = workloads.layer_names(rows)
        units = {n: layer_unit(n) for n in names}
    else:
        metrics = values
        names = [m["name"] for m in END_TO_END]
        units = {m["name"]: m["unit"] for m in END_TO_END}
    missing = set(names) - set(metrics)
    if missing:
        raise RuntimeError(f"benchmark produced no value for {sorted(missing)}")
    correct = out.failed == 0 and all(out.checks.values())
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              **environment(), "correct": correct, "attempted": out.attempted,
              "failed": out.failed, "checks": out.checks, "values": values,
              "setup_s_samples": out.setup_s, **out.record,
              "per_layer": out.per_layer}
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    report(workload, seed, trace, values, out, rows, record_path)
    return {"correct": correct, "attempted": out.attempted, "failed": out.failed,
            "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in names}}


EXTRA_UNITS = {"latency_ms_p50": "ms", "latency_ms_p90": "ms", "kd_kl": "nats",
               "fail_rate": "ratio"}


def report(workload, seed, trace, values, out, rows, record_path):
    print(f"pacn benchmark: {workload}, seed {seed}, trace {int(trace)}, "
          f"{THREADS} thread(s), nproc {os.cpu_count()}")
    units = {m["name"]: m["unit"] for m in END_TO_END} | EXTRA_UNITS
    for name, value in values.items():
        print(f"  {name:<24} {value:>14.6g} {units[name]}")
    print(f"  operations attempted {out.attempted}, failed {out.failed}")
    for name, ok in out.checks.items():
        print(f"  check {name:<30} {'ok' if ok else 'FAILED'}")
    if trace:
        m = out.per_layer
        print(f"  {'row':<20} {'kind':<9} {'MAC/clip':>10} {'fwd ms':>9} "
              f"{'bwd ms':>9} {'GMAC/s':>8}")
        for r in rows:
            print(f"  {r.name:<20} {r.kind:<9} {r.macs:>10} "
                  f"{m[f'model.{r.name}.fwd_ms']:>9.3f} "
                  f"{m[f'model.{r.name}.bwd_ms']:>9.3f} "
                  f"{m[f'model.{r.name}.gmac_s']:>8.3f}")
        for name, value in m.items():
            if not name.startswith("model.") or name.count(".") == 2:
                print(f"  {name:<44} {value:>12.6g} {layer_unit(name)}")
    print(f"  record: {record_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pacn" / "__init__.py").is_file():
        print(f"perfbench: no pacn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_benchmark_json:
        text = json.dumps(benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
