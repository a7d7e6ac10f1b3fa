"""Model: FIN/ARN semantics, branch contracts, wiring modes, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacn import ops
from pacn.errors import ConfigError, IngestionError, PacnError
from pacn.model import PacnConfig, PacnModel, features_to_input
from pacn.tensor import Tensor, backward, no_grad

TINY = dict(pre_channels=[2], pre_pools=[[4, 4]], lci_channels=[2],
            gci_embed_dim=2, gci_heads=1, gci_mlp_hidden=4, shuffle_groups=2,
            num_classes=3)


def rand_input(rng, n=2, f=256, t=65, channels=2):
    return Tensor(rng.standard_normal((n, channels, f, t)).astype(np.float32))


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
            x = ops.relu(x)
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


class TestConfig:
    def test_validation_catches_bad_divisibility(self):
        with pytest.raises(ConfigError):
            PacnConfig(gci_embed_dim=10, gci_heads=4).validate()
        with pytest.raises(ConfigError):
            PacnConfig(lci_channels=[15], shuffle_groups=2).validate()
        with pytest.raises(ConfigError):
            PacnConfig(pre_pools=[[4, 2]]).validate()

    def test_json_roundtrip(self):
        cfg = PacnConfig(wiring_mode="serial")
        back = PacnConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            PacnConfig.from_json('{"dropout": 0.5}')

    def test_shipped_configs_load(self):
        import importlib.resources as res
        for name in ("student.json", "teacher.json"):
            text = (res.files("pacn") / "configs" / name).read_text()
            cfg = PacnConfig.from_json(text)
            assert cfg.num_classes == 10

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

    def test_arn_clamp(self):
        model = PacnModel(PacnConfig(), seed=0)
        rho = model.params["pre.0.arn.rho"]
        rho.data[...] = 1.7
        model.clamp_arn()
        assert rho.data == 1.0
        rho.data[...] = -0.3
        model.clamp_arn()
        assert rho.data == 0.0
