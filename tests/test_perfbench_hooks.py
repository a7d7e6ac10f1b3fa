"""The benchmark still runs against pacn as it stands.

``perfbench/tracer.py`` patches public pacn functions by name and maps each
parameter to its ``pacn profile`` row, so a renamed or deleted name would
otherwise surface only when a traced benchmark run fails. Short untraced runs
of every workload pass the benchmark's own correctness checks.
"""

import ctypes
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import pacn.audio
import pacn.evalstats
import pacn.model
import pacn.ops
import pacn.tensor
import pacn.train
from pacn.model import PacnModel, features_to_input
from pacn.profiler import profile

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402
from workloads import packaged_config  # noqa: E402

PATCHED = (pacn.audio, pacn.evalstats, pacn.model, pacn.ops, pacn.tensor,
           pacn.train, pacn.model.PacnModel, pacn.train.Adam)


def test_every_exported_op_is_wrapped():
    # the tracer wraps only functions defined in pacn.ops, so a re-exported
    # name would be listed as an op and never timed
    ops = [getattr(pacn.ops, n) for n in pacn.ops.__all__]
    assert [f for f in ops if callable(f) and f.__module__ != "pacn.ops"] == []


def test_pacn_loads_no_scipy_module(tmp_path):
    # SciPy is a test oracle, not a runtime dependency: importing it would
    # add about 16 MiB to every benchmark process. A subprocess, since the
    # test process has loaded it.
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import pacn.cli, pacn.train
        from pacn import audio, evalstats
        audio.write_wav(sys.argv[1], np.zeros(audio.CLIP_SAMPLES, dtype=np.float32))
        audio.extract_feature(audio.read_wav(sys.argv[1]))
        evalstats.rank_report([[0.9, 0.8], [0.7, 0.8]], ["a", "b"])
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "a.wav")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="glibc only")
def test_teacher_step_reuses_freed_memory():
    # the sweep frees a step's graph; with glibc trimming the emptied heap or
    # unmapping each large array, the next step faulted all of it back in
    # (about 14k minor faults per packaged-teacher step at batch 16)
    code = textwrap.dedent("""
        import ctypes, resource, types
        import numpy as np
        real = ctypes.CDLL(None).mallopt
        real.argtypes, real.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        returns = []
        def mallopt(param, value):
            returns.append(real(param, value))
            return returns[-1]
        cdll, ctypes.CDLL = ctypes.CDLL, lambda name: types.SimpleNamespace(mallopt=mallopt)
        import pacn.tensor
        ctypes.CDLL = cdll
        from importlib import resources
        from pacn import ops, train
        from pacn.model import PacnConfig, PacnModel, features_to_input
        cfg = PacnConfig.from_json(
            (resources.files("pacn") / "configs" / "teacher.json").read_text())
        model = PacnModel(cfg, seed=0)
        opt = train.Adam(model.params)
        rng = np.random.default_rng(0)
        x = features_to_input(rng.standard_normal((16, 2, 256, 65)).astype(np.float32))
        y = np.eye(cfg.num_classes, dtype=np.float32)[rng.integers(0, cfg.num_classes, 16)]
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            ops.cross_entropy(model(x, training=True), y).backward()
            opt.step(1e-3)
            model.zero_grad()
        print(*returns, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    *returns, faults = map(int, proc.stdout.split())
    assert returns == [1, 1]
    assert faults < 1000


@pytest.mark.parametrize("name", ["student", "teacher"])
def test_param_rows_cover_every_parameter(name):
    cfg = packaged_config(name)
    model = PacnModel(cfg, seed=0)
    rows = profile(cfg).rows
    mapped = tracer.param_rows(model, rows)
    assert set(mapped) == {id(t) for t in model.params.values()}
    assert set(mapped.values()) <= {r.name for r in rows}


def test_student_rows_timed_and_patches_undone():
    cfg = packaged_config("student")
    rows = profile(cfg).rows
    assert len(rows) == 28
    model = PacnModel(cfg, seed=0)
    feats = np.random.default_rng(0).standard_normal((2, 2, 256, 65))
    x = features_to_input(feats.astype(np.float32))
    targets = np.eye(cfg.num_classes, dtype=np.float32)[[0, 1]]
    before = [dict(vars(owner)) for owner in PATCHED]

    trace = tracer.Tracer(rows)
    with trace:
        for owner, attrs in zip(PATCHED, before):
            assert any(vars(owner)[k] is not v for k, v in attrs.items()), owner
        pacn.ops.cross_entropy(model(x, training=True), targets).backward()
        model(x, training=False)

    # pre.1 (3 -> 16 channels) runs as one folded op that uses the
    # parameters of two rows, so the tracer leaves it unattributed
    names = {r.name for r in rows} - {"pre.1.pw", "pre.1.dw"}
    assert {k for k, v in trace.row_fwd.items() if v > 0} == names
    assert {k for k, v in trace.row_bwd.items() if v > 0} == names
    assert any(s[0] == "ops.bsconv_forward" for s in trace.spans)
    for owner, attrs in zip(PATCHED, before):
        assert all(vars(owner)[k] is v for k, v in attrs.items()), owner


@pytest.mark.parametrize("workload, seconds", [
    ("infer-b1", 1), ("kd-student", 3), ("teacher-ce", 3)])
def test_workload_passes_its_checks(workload, seconds, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=lambda d, names: ["out", "__pycache__"]
                    if Path(d) == ROOT / "perfbench" else [])
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    if workload != "infer-b1":
        record = json.loads(
            (tmp_path / "perfbench" / "out" / f"{workload}-s1-t0.json").read_text())
        assert record["train_calls"] >= 2
