"""Model: FIN/ARN semantics, branch contracts, wiring modes, checkpoints."""

import dataclasses
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacn import ops
from pacn.augment import SpectrumCorrection
from pacn.errors import ConfigError, IngestionError, PacnError
from pacn.model import (WIRING_MODES, PacnConfig, PacnModel, features_to_input,
                        packaged_config)
from pacn.profiler import profile
from pacn.tensor import Tensor, backward, count_multiplies, no_grad, relu
from pacn.train import Adam, kd_loss

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8)
SMALL_INTS = st.integers(-1, 8) | st.booleans()
CONFIG_FIELDS = [f.name for f in dataclasses.fields(PacnConfig)]

TINY = dict(pre_channels=[2], pre_pools=[[4, 4]], lci_channels=[2],
            gci_embed_dim=2, gci_heads=1, gci_mlp_hidden=4, shuffle_groups=2,
            num_classes=3)


def rand_input(rng, n=2, f=256, t=65, channels=2):
    return Tensor(rng.standard_normal((n, channels, f, t)).astype(np.float32))


def warmed_model(cfg, seed=4):
    """A model whose BN running statistics have left their initial values."""
    model = PacnModel(cfg, seed=seed)
    model(rand_input(np.random.default_rng(seed), n=4), training=True)
    return model


class TestFin:
    def test_matches_direct_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 4, 5))
        out = ops.fin_forward(Tensor(x)).data
        ref = np.empty_like(x)
        for n in range(2):
            for f in range(4):
                sl = x[n, :, f, :]
                mu = sl.mean()
                var = ((sl - mu) ** 2).mean()
                ref[n, :, f, :] = (sl - mu) / np.sqrt(var + 1e-5)
        np.testing.assert_allclose(out, ref, atol=1e-5)

    def test_constant_slice_maps_to_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 5))
        x[1, :, 2, :] = 7.0      # constant over (c, t) at (n=1, f=2)
        out = ops.fin_forward(Tensor(x)).data
        np.testing.assert_array_equal(out[1, :, 2, :], 0.0)
        assert np.abs(out[0]).max() > 0

    def test_arn_midpoint(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((1, 2, 3, 4)))
        rho = Tensor(np.float64(0.5))
        gamma = Tensor(np.ones(2))
        beta = Tensor(np.zeros(2))
        out = ops.arn_forward(x, rho, gamma, beta).data
        mid = 0.5 * x.data + 0.5 * ops.fin_forward(x).data
        np.testing.assert_allclose(out, mid, rtol=1e-12)


class TestPreprocess:
    def test_reference_shape_trace(self):
        model = PacnModel(PacnConfig(), seed=0)
        h = model.preprocess_forward(rand_input(np.random.default_rng(3)))
        assert h.shape == (2, 16, 16, 16)

    def test_pool_arithmetic(self):
        cfg = PacnConfig(pre_channels=[4, 4], pre_pools=[[2, 2], [4, 1]],
                         lci_channels=[4], gci_embed_dim=4, gci_heads=2,
                         gci_mlp_hidden=8, shuffle_groups=2)
        model = PacnModel(cfg, seed=0)
        h = model.preprocess_forward(rand_input(np.random.default_rng(4), f=64, t=32))
        assert h.shape == (2, 4, 64 // 8, 32 // 2)

    def test_zero_input_gives_beta_after_bn(self):
        model = PacnModel(PacnConfig(arn_enabled=False), seed=0)
        x = Tensor(np.zeros((2, 2, 64, 33), dtype=np.float32))
        conv = model._bsconv(x, "pre.0")
        assert (conv.data == 0).all()          # biases start at zero
        beta = model.params["pre.0.bn.beta"]
        beta.data[:] = 0.25
        bn = model._bn(conv, "pre.0.bn", training=True)
        np.testing.assert_allclose(bn.data, 0.25, atol=1e-7)

    def test_wrong_channel_count_rejected(self):
        model = PacnModel(PacnConfig(), seed=0)
        with pytest.raises(ConfigError):
            model.preprocess_forward(rand_input(np.random.default_rng(5), channels=3))


def relu_first_preprocess(model, x, training):
    """``preprocess_forward`` with ReLU before max-pool, the former order."""
    cfg = model.config
    for i, pool in enumerate(cfg.pre_pools):
        x = model._bsconv(x, f"pre.{i}")
        if cfg.arn_enabled and i == 0:
            x = model._arn(x, "pre.first_conv_arn")
        x = model._bn(x, f"pre.{i}.bn", training)
        x = ops.maxpool2d(relu(x), tuple(pool))
        if cfg.arn_enabled:
            x = model._arn(x, f"pre.{i}.arn")
    return x


@pytest.mark.parametrize("name", ["student", "teacher"])
def test_pool_then_relu_matches_relu_then_pool_bitwise(name, monkeypatch):
    cfg = packaged_config(name)
    rng = np.random.default_rng(21)
    x = rand_input(rng, n=4)
    y = np.eye(cfg.num_classes)[rng.integers(0, cfg.num_classes, size=4)]

    def run(model):
        model.zero_grad()
        logits = model(x, training=True)
        backward(ops.cross_entropy(logits, y))
        grads = {k: t.grad.tobytes() for k, t in model.params.items()}
        state = {k: (v["mean"].tobytes(), v["var"].tobytes())
                 for k, v in model.state.items()}
        return logits.data.tobytes(), grads, state, model(x).data.tobytes()

    got = run(PacnModel(cfg, seed=4))
    model = PacnModel(cfg, seed=4)
    monkeypatch.setattr(model, "preprocess_forward",
                        lambda x, training=False:
                        relu_first_preprocess(model, x, training))
    assert got == run(model)


ROW_POOL = 6


@pytest.fixture(scope="module", params=["student", "teacher"])
def packaged(request):
    """(model, rows, each row's batch-1 pre-stage output, all-row logits)."""
    model = warmed_model(packaged_config(request.param))
    x = rand_input(np.random.default_rng(22), n=ROW_POOL).data
    with no_grad():
        singles = [model.preprocess_forward(Tensor(x[i:i + 1])).data
                   for i in range(ROW_POOL)]
    return model, x, singles, model(Tensor(x)).data


class TestRowIndependence:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_pre_stage_row_is_the_same_bits_in_any_batch_and_block(
            self, packaged, data):
        model, x, singles, _ = packaged
        idx = data.draw(st.lists(st.integers(0, ROW_POOL - 1), min_size=1,
                                 max_size=ROW_POOL, unique=True), label="rows")
        block = data.draw(st.integers(1, len(idx)), label="block")
        with pytest.MonkeyPatch.context() as mp, no_grad():
            mp.setattr(PacnModel, "_pre_block_rows", lambda self, x: block)
            h = model.preprocess_forward(Tensor(x[idx])).data
        for k, i in enumerate(idx):
            assert h[k].tobytes() == singles[i].tobytes()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_logits_are_the_same_bits_in_any_batch_of_two_or_more(
            self, packaged, data):
        model, x, _, full = packaged
        idx = data.draw(st.lists(st.integers(0, ROW_POOL - 1), min_size=2,
                                 max_size=ROW_POOL, unique=True), label="rows")
        assert model(Tensor(x[idx])).data.tobytes() == full[idx].tobytes()

    def test_batch_one_logits_differ_only_at_the_head_fc(self, packaged):
        model, x, _, full = packaged
        heads = []
        fuse = model.fuse_forward
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "fuse_forward", lambda g, l: heads.append(
                (g.data.tobytes(), l.data.tobytes())) or fuse(g, l))
            model(Tensor(x))
            ones = np.concatenate([model(Tensor(x[i:i + 1])).data
                                   for i in range(ROW_POOL)])
        g_all, l_all = (np.frombuffer(b, np.float32).reshape(ROW_POOL, -1)
                        for b in heads[0])
        for i, (g1, l1) in enumerate(heads[1:]):
            assert (g1, l1) == (g_all[i].tobytes(), l_all[i].tobytes())
        # Everything before the head is the same bits at batch 1. The head FC
        # of one row is a BLAS matrix-vector product, which sums in another
        # order than the matrix-matrix product of two or more rows: the
        # teacher's 128-wide head moves by up to 3.1e-6 (0.62 ppm of its
        # largest logit), the student's 32-wide head not at all. Bound: 32
        # float32 ulps of the largest logit.
        tol = 32 * np.finfo(np.float32).eps * np.abs(full).max()
        np.testing.assert_allclose(ones, full, rtol=0, atol=tol)


@pytest.mark.parametrize("mode", WIRING_MODES)
@pytest.mark.parametrize("name, rows", [("student", 10), ("teacher", 2)])
def test_blocked_inference_matches_one_block_bitwise(name, rows, mode,
                                                     monkeypatch):
    cfg = dataclasses.replace(packaged_config(name), wiring_mode=mode)
    model = warmed_model(cfg)
    x = rand_input(np.random.default_rng(23), n=64).data
    assert model._pre_block_rows(x) == rows
    with count_multiplies() as one_row:
        model(Tensor(x[:1]))
    sizes = sorted({max(rows - 1, 1), rows, rows + 1, 2 * rows + 1, 64})
    blocked = {}
    for n in sizes:
        with count_multiplies() as tally:
            blocked[n] = model(Tensor(x[:n])).data.tobytes()
        assert tally[0] == n * one_row[0]
    monkeypatch.setattr("pacn.ops.CACHE_BYTES", 1 << 40)
    for n in sizes:
        assert model(Tensor(x[:n])).data.tobytes() == blocked[n]


def test_teacher_inference_peak_stays_below_one_full_batch_map():
    cfg = packaged_config("teacher")
    model = warmed_model(cfg)
    x = rand_input(np.random.default_rng(25), n=64)
    full_map = 64 * cfg.pre_channels[0] * 256 * 65 * 4       # pre.0, 51 MB
    tracemalloc.start()
    try:
        model(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_map


def test_teacher_training_graph_keeps_no_rebuildable_map():
    # the folded blocks keep their padded input, not the tap matrix, and
    # normalize keeps no standardized map: a packaged-teacher training
    # forward at batch 16 holds 83.6 MiB (148.6 MiB when both were kept)
    cfg = packaged_config("teacher")
    model = PacnModel(cfg, seed=3)
    rng = np.random.default_rng(26)
    x = rand_input(rng, n=16)
    y = np.eye(cfg.num_classes)[rng.integers(0, cfg.num_classes, size=16)]
    tracemalloc.start()
    try:
        loss = ops.cross_entropy(model(x, training=True), y)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 100 << 20


def test_teacher_backward_adds_little_to_the_forward_graph():
    # the sweep frees each node's saved arrays and gradient as it passes,
    # so a packaged-teacher step at batch 16 peaks near what the forward
    # holds (+68% when every node was kept until the sweep returned)
    cfg = packaged_config("teacher")
    model = PacnModel(cfg, seed=3)
    rng = np.random.default_rng(26)
    x = rand_input(rng, n=16)
    y = np.eye(cfg.num_classes)[rng.integers(0, cfg.num_classes, size=16)]
    tracemalloc.start()
    try:
        loss = ops.cross_entropy(model(x, training=True), y)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 0.25 * held


def test_backward_releases_every_inner_node():
    model = PacnModel(PacnConfig(**TINY), seed=2)
    rng = np.random.default_rng(27)
    y = np.eye(3)[rng.integers(0, 3, size=2)]
    loss = ops.cross_entropy(model(rand_input(rng), training=True), y)
    nodes, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._parents)
    leaves = {id(t) for t in model.params.values()}
    inner = [t for k, t in nodes.items() if k not in leaves and t.requires_grad]
    assert len(inner) > 50
    backward(loss)
    assert all(t.grad is None and t._parents == () for t in inner)
    assert all(t.grad is not None for t in model.params.values())


@pytest.mark.parametrize("training", [True, False])
def test_empty_batch_rejected_before_any_layer(training):
    model = warmed_model(PacnConfig())
    before = {k: (v["mean"].tobytes(), v["var"].tobytes())
              for k, v in model.state.items()}
    with pytest.raises(ConfigError, match="empty"):
        model(rand_input(np.random.default_rng(24), n=0), training=training)
    assert {k: (v["mean"].tobytes(), v["var"].tobytes())
            for k, v in model.state.items()} == before


class TestBranches:
    def test_lci_output_is_channel_vector(self):
        model = PacnModel(PacnConfig(), seed=0)
        h = model.preprocess_forward(rand_input(np.random.default_rng(6)))
        vec = model.lci_forward(h)
        assert vec.shape == (2, 16)

    def test_lci_grn_init_is_transparent(self):
        model = PacnModel(PacnConfig(), seed=0)
        h = model.preprocess_forward(rand_input(np.random.default_rng(7)))
        with_grn = model.lci_forward(h).data
        # same stack, GRN elided: valid because gamma=beta=0 at init
        x = h
        for i in range(2):
            x = model._bsconv(x, f"lci.{i}")
            x = model._bn(x, f"lci.{i}.bn", training=False)
            x = relu(x)
        without = ops.global_avg_pool(x).data
        np.testing.assert_array_equal(with_grn, without)

    def test_gci_output_length(self):
        model = PacnModel(PacnConfig(), seed=0)
        h = model.preprocess_forward(rand_input(np.random.default_rng(8)))
        tokens, vec = model.gci_forward(h)
        assert tokens.shape == (2, 16, 16)
        assert vec.shape == (2, 16)

    def test_uniform_attention_token_permutation_invariance(self):
        model = PacnModel(PacnConfig(), seed=0)
        for name in ("wq", "wk"):
            model.params[f"gci.attn.{name}.weight"].data[:] = 0.0
            model.params[f"gci.attn.{name}.bias"].data[:] = 0.0
        rng = np.random.default_rng(9)
        h = rng.standard_normal((1, 16, 16, 16)).astype(np.float32)
        perm = rng.permutation(16)
        _, vec = model.gci_forward(Tensor(h))
        _, vec_p = model.gci_forward(Tensor(h[:, :, :, perm]))
        np.testing.assert_allclose(vec.data, vec_p.data, atol=1e-5)

    def test_single_token_hand_trace(self):
        model = PacnModel(PacnConfig(), seed=0)
        rng = np.random.default_rng(10)
        h = rng.standard_normal((1, 16, 16, 1)).astype(np.float32)
        _, vec = model.gci_forward(Tensor(h))

        p = {k: v.data.astype(np.float64) for k, v in model.params.items()}

        def ln(v, g, b):
            mu = v.mean()
            sd = np.sqrt(((v - mu) ** 2).mean() + 1e-5)
            return (v - mu) / sd * g + b

        tok = h[0].mean(axis=1)[:, 0] @ p["gci.proj.weight"] + p["gci.proj.bias"]
        n1 = ln(tok, p["gci.ln1.gamma"], p["gci.ln1.beta"])
        # one token: attention weight is 1, context = value projection
        v = n1 @ p["gci.attn.wv.weight"] + p["gci.attn.wv.bias"]
        att = v @ p["gci.attn.wo.weight"] + p["gci.attn.wo.bias"]
        a = tok + att
        n2 = ln(a, p["gci.ln2.gamma"], p["gci.ln2.beta"])
        hid = np.maximum(n2 @ p["gci.mlp.fc1.weight"] + p["gci.mlp.fc1.bias"], 0)
        ref = a + hid @ p["gci.mlp.fc2.weight"] + p["gci.mlp.fc2.bias"]
        np.testing.assert_allclose(vec.data[0], ref, atol=1e-5)


class TestWiringModes:
    @pytest.mark.parametrize("mode", ["parallel", "serial", "no_fusion"])
    def test_logits_shape(self, mode):
        model = PacnModel(PacnConfig(wiring_mode=mode), seed=0)
        logits = model.forward(rand_input(np.random.default_rng(11), n=3))
        assert logits.shape == (3, 10)
        assert np.isfinite(logits.data).all()
        s = ops.softmax(logits).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            PacnConfig(wiring_mode="diagonal").validate()

    def test_parallel_head_separability(self):
        model = PacnModel(PacnConfig(), seed=0)
        c = 16 + 16
        perm = np.arange(c).reshape(2, c // 2).T.reshape(-1)
        w = model.params["head.fc.weight"]
        w.data[perm >= 16, :] = 0.0          # rows fed by shuffled-LCI slots
        rng = np.random.default_rng(12)
        g = Tensor(rng.standard_normal((2, 16)).astype(np.float32))
        l1 = Tensor(rng.standard_normal((2, 16)).astype(np.float32))
        l2 = Tensor(rng.standard_normal((2, 16)).astype(np.float32))
        out1 = model.fuse_forward(g, l1).data
        out2 = model.fuse_forward(g, l2).data
        np.testing.assert_array_equal(out1, out2)

    def test_mode_complexity_ordering(self):
        from pacn import profiler
        reports = {m: profiler.profile(PacnConfig(wiring_mode=m))
                   for m in ("parallel", "serial", "no_fusion")}
        params = {m: r.total_params for m, r in reports.items()}
        macs = {m: r.total_macs for m, r in reports.items()}
        assert params["parallel"] < params["no_fusion"] < params["serial"]
        assert macs["parallel"] <= macs["serial"]
        assert macs["parallel"] == macs["no_fusion"]

    def test_forward_deterministic(self):
        x = rand_input(np.random.default_rng(13))
        a = PacnModel(PacnConfig(), seed=5).forward(x).data.tobytes()
        b = PacnModel(PacnConfig(), seed=5).forward(x).data.tobytes()
        assert a == b

    def test_inference_records_no_graph(self):
        model = PacnModel(PacnConfig(**TINY), seed=0)
        x = rand_input(np.random.default_rng(14))
        logits = model(x)
        assert logits._backward is None and logits._parents == ()
        logits = model(x, training=True)
        assert logits._backward is not None and logits._parents


class TestGradientCoverage:
    @pytest.mark.parametrize("mode", ["parallel", "serial", "no_fusion"])
    def test_no_dead_parameters(self, mode):
        cfg = PacnConfig(wiring_mode=mode, **TINY)
        model = PacnModel(cfg, seed=3)
        totals = {k: 0.0 for k in model.params}
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rand_input(rng, n=4, f=32, t=16)
            y = np.eye(3)[rng.integers(0, 3, size=4)]
            model.zero_grad()
            loss = ops.cross_entropy(model.forward(x, training=True), y)
            backward(loss)
            for k, t in model.params.items():
                if t.grad is not None:
                    totals[k] += float(np.abs(t.grad).max())
        dead = [k for k, v in totals.items() if v == 0.0]
        assert not dead, f"zero-gradient parameters: {dead}"

    def test_a_relu_dead_lci_channel_trains(self):
        # the channel is all zero at GRN, whose norm is a sqrt of 0
        cfg = packaged_config("student")
        model = PacnModel(cfg, seed=0)
        model.params["lci.1.bn.beta"].data[0] = -10.0
        x = rand_input(np.random.default_rng(0), n=4)
        y = np.eye(cfg.num_classes, dtype=np.float32)[[0, 1, 2, 3]]
        backward(kd_loss(model(x, training=True), y, None, lam=1.0,
                         temperature=2.0).total)
        Adam(model.params).step(1e-3)
        assert all(np.isfinite(t.data).all() for t in model.params.values())


class TestConfig:
    def test_validation_catches_bad_divisibility(self):
        with pytest.raises(ConfigError):
            PacnConfig(gci_embed_dim=10, gci_heads=4).validate()
        with pytest.raises(ConfigError):
            PacnConfig(lci_channels=[15], shuffle_groups=2).validate()
        with pytest.raises(ConfigError):
            PacnConfig(pre_pools=[[4, 2]]).validate()

    @pytest.mark.parametrize("pools, left", [([[64, 2], [8, 2]], "0 x 16"),
                                             ([[4, 2], [4, 64]], "16 x 0")])
    def test_pools_that_empty_the_feature_rejected(self, pools, left):
        cfg = dataclasses.replace(packaged_config("student"), pre_pools=pools)
        with pytest.raises(ConfigError,
                           match=f"leave a {left} map of the 256 x 65 feature"):
            cfg.validate()

    def test_config_too_large_to_allocate_fails_typed(self):
        # the head weight alone is 256 TB of float64 draws: more than the
        # x86-64 address space, so the allocation fails before any page is
        # touched
        cfg = PacnConfig(num_classes=10 ** 12)
        with pytest.raises(ConfigError, match=f"needs {profile(cfg).total_params} "
                                              "parameters"):
            PacnModel(cfg)

    def test_json_roundtrip(self):
        cfg = PacnConfig(wiring_mode="serial")
        back = PacnConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            PacnConfig.from_json('{"dropout": 0.5}')

    @pytest.mark.parametrize("text", [
        '{"arn_enabled": "no"}', '{"arn_enabled": 0}', '{"gci_heads": true}',
        '{"pre_channels": [true, 16]}', '{"pre_pools": [[4, 2], [true, 2]]}',
        '{"num_classes": 10.0}',
    ])
    def test_mistyped_json_rejected(self, text):
        with pytest.raises(ConfigError):
            PacnConfig.from_json(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES, st.dictionaries(
        st.sampled_from(CONFIG_FIELDS),
        JSON_VALUES | st.lists(SMALL_INTS, max_size=3)
        | st.lists(st.lists(SMALL_INTS, max_size=3), max_size=3))))
    def test_json_loads_or_raises_pacn_error(self, doc):
        try:
            cfg = PacnConfig.from_json(json.dumps(doc))
        except PacnError:
            return
        assert isinstance(cfg.arn_enabled, bool)
        ints = [cfg.gci_embed_dim, cfg.gci_heads, cfg.gci_mlp_hidden,
                cfg.shuffle_groups, cfg.num_classes, cfg.in_channels,
                *cfg.pre_channels, *cfg.lci_channels,
                *(v for pool in cfg.pre_pools for v in pool)]
        assert all(type(v) is int for v in ints)

    def test_shipped_configs_load(self):
        for name in ("student", "teacher"):
            assert packaged_config(name).num_classes == 10

    def test_features_to_input_layout(self):
        batch = np.zeros((3, 256, 65, 2), dtype=np.float32)
        batch[1, 10, 20, 1] = 5.0
        x = features_to_input(batch)
        assert x.shape == (3, 2, 256, 65)
        assert x.data[1, 1, 10, 20] == 5.0


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    PacnModel(PacnConfig(**TINY), seed=0).save(path)
    return path


@pytest.fixture(scope="module")
def corrected_ckpt(tmp_path_factory):
    """A tiny checkpoint that carries a spectrum correction for two devices."""
    model = PacnModel(PacnConfig(**TINY), seed=0)
    rng = np.random.default_rng(16)
    model.correction = SpectrumCorrection(
        {dev: rng.uniform(0.5, 2.0, 2049) for dev in ("a", "b.2")})
    path = tmp_path_factory.mktemp("ckpt") / "corrected.ckpt"
    model.save(path)
    return path


def tensor_entry(name: str, values) -> bytes:
    """One entry of a checkpoint's tensor stream."""
    data = np.asarray(values, dtype="<f4")
    enc = name.encode()
    return (struct.pack("<I", len(enc)) + enc
            + struct.pack(f"<I{data.ndim}I", data.ndim, *data.shape)
            + data.tobytes())


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tmp_path):
        model = PacnModel(PacnConfig(wiring_mode="serial"), seed=8)
        # make running stats non-trivial so their persistence is exercised
        x = rand_input(np.random.default_rng(14))
        with no_grad():
            model.forward(x, training=True)
        path = tmp_path / "m.ckpt"
        model.save(path)
        clone = PacnModel.load(path)
        assert clone.config == model.config
        for k in model.params:
            np.testing.assert_array_equal(clone.params[k].data,
                                          model.params[k].data)
        for k in model.state:
            np.testing.assert_array_equal(clone.state[k]["mean"],
                                          model.state[k]["mean"])
            np.testing.assert_array_equal(clone.state[k]["var"],
                                          model.state[k]["var"])
        x2 = rand_input(np.random.default_rng(15))
        np.testing.assert_array_equal(model.forward(x2).data,
                                      clone.forward(x2).data)

    def test_save_is_byte_deterministic(self, tmp_path):
        model = PacnModel(PacnConfig(), seed=2)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + bytes(100))
        with pytest.raises(IngestionError):
            PacnModel.load(path)

    def test_truncated_rejected(self, tmp_path):
        model = PacnModel(PacnConfig(), seed=0)
        path = tmp_path / "t.ckpt"
        model.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 37])
        with pytest.raises(IngestionError):
            PacnModel.load(path)

    def test_every_truncation_rejected(self, tiny_ckpt, tmp_path):
        raw = tiny_ckpt.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(IngestionError):
                PacnModel.load(cut)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_flip_loads_or_raises_pacn_error(self, tiny_ckpt, data):
        raw = tiny_ckpt.read_bytes()
        pos = data.draw(st.integers(0, len(raw) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        bad = tiny_ckpt.parent / "flipped.ckpt"
        bad.write_bytes(raw[:pos] + bytes([raw[pos] ^ flip]) + raw[pos + 1:])
        try:
            PacnModel.load(bad)
        except PacnError:
            pass

    def test_non_utf8_config_rejected(self, tiny_ckpt, tmp_path):
        raw = bytearray(tiny_ckpt.read_bytes())
        raw[20] = 0xFF              # inside the embedded config JSON
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(raw))
        with pytest.raises(IngestionError, match="UTF-8"):
            PacnModel.load(path)

    def test_config_bigger_than_file_rejected_before_building(
            self, tiny_ckpt, tmp_path, monkeypatch):
        raw = tiny_ckpt.read_bytes()
        (n,) = struct.unpack("<I", raw[12:16])      # after magic and version
        config = json.loads(raw[16:16 + n])
        config["gci_mlp_hidden"] = 10 ** 9          # 4e9 MLP weights, 15 GiB
        text = json.dumps(config).encode()
        path = tmp_path / "forged.ckpt"
        path.write_bytes(raw[:12] + struct.pack("<I", len(text)) + text
                         + raw[16 + n:])
        built = []
        init = PacnModel.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PacnModel, "__init__", counted)
        with pytest.raises(IngestionError, match="more than the file holds"):
            PacnModel.load(path)
        assert built == []
        PacnModel.load(tiny_ckpt)
        assert len(built) == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["param", "running_var"])
    def test_non_finite_tensor_rejected(self, tmp_path, kind, value):
        model = PacnModel(PacnConfig(**TINY), seed=0)
        if kind == "param":
            name = "head.fc.bias"
            model.params[name].data[0] = value
        else:
            layer = next(iter(model.state))
            name = f"state.{layer}.var"
            model.state[layer]["var"][-1] = value
        path = tmp_path / "bad.ckpt"
        model.save(path)
        with pytest.raises(IngestionError, match=re.escape(name)):
            PacnModel.load(path)

    def test_negative_running_variance_rejected(self, tmp_path):
        # sqrt(var + eps) of a negative variance makes every logit NaN
        model = PacnModel(packaged_config("student"), seed=0)
        path = tmp_path / "m.ckpt"
        model.state["pre.0.bn"]["var"][0] = 0.0
        model.save(path)
        PacnModel.load(path)
        model.state["pre.0.bn"]["var"][0] = -1.0
        model.save(path)
        with pytest.raises(IngestionError, match=re.escape("state.pre.0.bn.var")):
            PacnModel.load(path)

    def test_correction_roundtrip_is_bit_exact(self, corrected_ckpt, tmp_path):
        clone = PacnModel.load(corrected_ckpt)
        assert list(clone.correction.coeffs) == ["a", "b.2"]
        path = tmp_path / "again.ckpt"
        clone.save(path)
        assert path.read_bytes() == corrected_ckpt.read_bytes()
        rng = np.random.default_rng(16)
        for dev in ("a", "b.2"):
            c = rng.uniform(0.5, 2.0, 2049).astype(np.float32)
            assert clone.correction.coeffs[dev].tobytes() == c.tobytes()

    def test_correction_adds_only_its_entries(self, tiny_ckpt,
                                              corrected_ckpt):
        # 8-byte header and config are shared; each device adds one entry
        extra = sum(len(tensor_entry(f"correction.{d}", np.ones(2049)))
                    for d in ("a", "b.2"))
        assert (corrected_ckpt.stat().st_size
                == tiny_ckpt.stat().st_size + extra)

    def test_checkpoint_without_correction_loads_none(self, tiny_ckpt):
        assert PacnModel.load(tiny_ckpt).correction is None

    @pytest.mark.parametrize("values", [np.ones(7), np.ones((2049, 1)),
                                        np.ones((1, 2049))])
    def test_correction_entry_of_wrong_shape_rejected(self, tiny_ckpt,
                                                      tmp_path, values):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(tiny_ckpt.read_bytes()
                         + tensor_entry("correction.a", values))
        with pytest.raises(IngestionError, match=r"correction\.a .*has shape") \
                as info:
            PacnModel.load(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_correction_rejected(self, tiny_ckpt, tmp_path,
                                              value):
        coeffs = np.ones(2049)
        coeffs[100] = value
        path = tmp_path / "bad.ckpt"
        path.write_bytes(tiny_ckpt.read_bytes()
                         + tensor_entry("correction.a", coeffs))
        with pytest.raises(IngestionError,
                           match="coefficients must be positive") as info:
            PacnModel.load(path)
        assert str(path) in str(info.value)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cut_or_flipped_correction_checkpoint_raises_only_pacn_error(
            self, corrected_ckpt, data):
        raw = corrected_ckpt.read_bytes()
        if data.draw(st.booleans(), label="cut"):
            bad = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            bad = bytearray(raw)
            for _ in range(data.draw(st.integers(1, 3), label="flips")):
                pos = data.draw(st.integers(0, len(raw) - 1), label="offset")
                bad[pos] ^= data.draw(st.integers(1, 255), label="xor")
        path = corrected_ckpt.parent / "mutated.ckpt"
        path.write_bytes(bytes(bad))
        try:
            model = PacnModel.load(path)
        except PacnError:
            return
        assert len(bad) == len(raw)         # no cut loads
        assert model.correction is not None

    def test_arn_clamp(self):
        model = PacnModel(PacnConfig(), seed=0)
        rho = model.params["pre.0.arn.rho"]
        rho.data[...] = 1.7
        model.clamp_arn()
        assert rho.data == 1.0
        rho.data[...] = -0.3
        model.clamp_arn()
        assert rho.data == 0.0
