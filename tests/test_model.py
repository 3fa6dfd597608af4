import numpy as np
import pytest

from mmstt import model as md
from mmstt import numerics as nm
from mmstt.model import ModelConfig
from mmstt.numerics import Tensor
from mmstt.train import smooth_l1

TINY = ModelConfig(t_in=2, t_out=2, c_in=6, grid_size=8, patch_size=4,
                   embed_dim=8, n_layers=1, n_heads=2, ffn_hidden=16)


def rand_input(rng, config, batch=1, dtype=np.float32):
    shape = (batch, config.t_in, config.c_in, config.grid_size, config.grid_size)
    return Tensor(rng.normal(size=shape), dtype=dtype)


def identity_params(config, dtype=np.float64):
    """Identity patch/head projections (requires embed_dim == patch_dim),
    zero positional table, zero encoder weights."""
    assert config.embed_dim == config.patch_dim
    params = md.init_params(config, np.random.default_rng(0), dtype=dtype)
    for name, shape in md.param_shapes(config).items():
        if name in ("patch_proj.w", "head_proj.w"):
            params[name] = Tensor(np.eye(shape[0], shape[1]), dtype=dtype)
        elif name.endswith(".gamma"):
            params[name] = Tensor(np.ones(shape), dtype=dtype)
        else:
            params[name] = Tensor(np.zeros(shape), dtype=dtype)
    return params


class TestConfig:
    def test_token_count_formula(self):
        cfg = ModelConfig(t_in=10, t_out=10, grid_size=64, patch_size=8,
                          embed_dim=32, n_layers=1, n_heads=4, ffn_hidden=64)
        assert cfg.n_tokens == 10 * 8 * 8 == 640

    def test_token_count_property_random_configs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = int(rng.choice([2, 4, 8]))
            g = p * int(rng.integers(1, 5))
            heads = int(rng.choice([1, 2, 4]))
            d = heads * int(rng.integers(1, 9))
            t_in = int(rng.integers(1, 12))
            cfg = ModelConfig(t_in=t_in, t_out=t_in, grid_size=g, patch_size=p,
                              embed_dim=d, n_layers=1, n_heads=heads, ffn_hidden=2 * d)
            assert cfg.n_tokens == t_in * (g // p) ** 2

    def test_invalid_configs_rejected(self):
        with pytest.raises(md.ModelError, match="divisible"):
            ModelConfig(grid_size=10, patch_size=4)
        with pytest.raises(md.ModelError, match="heads"):
            ModelConfig(embed_dim=10, n_heads=4)
        with pytest.raises(md.ModelError, match="t_out"):
            ModelConfig(t_in=5, t_out=6)


class TestTokenize:
    def test_identity_projection_reproduces_patches(self):
        cfg = ModelConfig(t_in=2, t_out=2, c_in=6, grid_size=8, patch_size=4,
                          embed_dim=96, n_layers=1, n_heads=2, ffn_hidden=8)
        params = identity_params(cfg)
        rng = np.random.default_rng(3)
        x = rand_input(rng, cfg, dtype=np.float64)
        tokens = md.tokenize(x, params, cfg).data
        g, p = cfg.patches_per_side, cfg.patch_size
        for t in range(cfg.t_in):
            for gi in range(g):
                for gj in range(g):
                    n = t * g * g + gi * g + gj
                    patch = x.data[0, t, :, gi * p:(gi + 1) * p, gj * p:(gj + 1) * p].ravel()
                    assert np.array_equal(tokens[0, n], patch)

    def test_locality_one_patch_one_token(self):
        cfg = TINY
        params = md.init_params(cfg, np.random.default_rng(1))
        rng = np.random.default_rng(4)
        a = rand_input(rng, cfg)
        b_data = a.data.copy()
        b_data[0, 1, :, 0:4, 4:8] += 1.0  # second time slice, patch (0, 1)
        b = Tensor(b_data, dtype=np.float32)
        ta = md.tokenize(a, params, cfg).data
        tb = md.tokenize(b, params, cfg).data
        diff = np.abs(ta - tb).sum(axis=-1)[0]
        changed = np.nonzero(diff)[0]
        g = cfg.patches_per_side
        assert list(changed) == [1 * g * g + 0 * g + 1]

    def test_shape_mismatch(self):
        params = md.init_params(TINY, np.random.default_rng(0))
        bad = Tensor(np.zeros((1, 2, 6, 8, 12)), dtype=np.float32)
        with pytest.raises(md.ModelError, match="shape"):
            md.tokenize(bad, params, TINY)


class TestEncoder:
    def test_zero_weights_identity(self):
        cfg = TINY
        params = md.init_params(cfg, np.random.default_rng(0))
        for name in list(params):
            if "layer0" in name and not name.endswith(".gamma"):
                params[name] = Tensor(np.zeros(params[name].shape), dtype=np.float32)
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=(2, cfg.n_tokens, cfg.embed_dim)), dtype=np.float32)
        out = md.encoder_layer(z, params, 0, cfg)
        assert np.array_equal(out.data, z.data)

    def test_single_token_attends_to_itself(self):
        cfg = ModelConfig(t_in=1, t_out=1, c_in=6, grid_size=4, patch_size=4,
                          embed_dim=8, n_layers=1, n_heads=2, ffn_hidden=8)
        assert cfg.n_tokens == 1
        params = md.init_params(cfg, np.random.default_rng(2))
        sink = []
        md.forward(rand_input(np.random.default_rng(6), cfg), params, cfg, attn_sink=sink)
        assert sink[0].shape == (1, 2, 1, 1)
        assert np.all(sink[0] == 1.0)

    def test_attention_matches_dense_loop_oracle(self):
        # one head, N=3 tokens, D=4: explicit-loop attention
        cfg = ModelConfig(t_in=3, t_out=3, c_in=6, grid_size=4, patch_size=4,
                          embed_dim=4, n_layers=1, n_heads=1, ffn_hidden=8)
        params = md.init_params(cfg, np.random.default_rng(7), dtype=np.float64)
        rng = np.random.default_rng(8)
        z = Tensor(rng.normal(size=(1, 3, 4)), dtype=np.float64)
        got = md.multi_head_attention(z, params, "layer0.", cfg).data[0]

        zd = z.data[0]
        wq, bq = params["layer0.attn.wq"].data, params["layer0.attn.bq"].data
        wk, bk = params["layer0.attn.wk"].data, params["layer0.attn.bk"].data
        wv, bv = params["layer0.attn.wv"].data, params["layer0.attn.bv"].data
        wo, bo = params["layer0.attn.wo"].data, params["layer0.attn.bo"].data
        q = np.array([zd[i] @ wq + bq for i in range(3)])
        k = np.array([zd[i] @ wk + bk for i in range(3)])
        v = np.array([zd[i] @ wv + bv for i in range(3)])
        want = np.zeros((3, 4))
        for i in range(3):
            scores = np.array([q[i] @ k[j] / np.sqrt(4.0) for j in range(3)])
            w = np.exp(scores - scores.max())
            w /= w.sum()
            ctx = sum(w[j] * v[j] for j in range(3))
            want[i] = ctx @ wo + bo
        assert np.allclose(got, want, atol=1e-5)

    def test_attention_rows_sum_to_one(self):
        params = md.init_params(TINY, np.random.default_rng(9))
        sink = []
        md.forward(rand_input(np.random.default_rng(10), TINY, batch=2), params, TINY, attn_sink=sink)
        assert len(sink) == TINY.n_layers
        for attn in sink:
            assert np.all(np.abs(attn.sum(axis=-1) - 1.0) < 1e-6)


class TestForward:
    def test_output_shape(self):
        params = md.init_params(TINY, np.random.default_rng(0))
        y = md.forward(rand_input(np.random.default_rng(1), TINY, batch=3), params, TINY)
        assert y.shape == (3, TINY.t_out, 1, TINY.grid_size, TINY.grid_size)

    def test_batch_independence(self):
        params = md.init_params(TINY, np.random.default_rng(0))
        x1 = rand_input(np.random.default_rng(2), TINY, batch=1)
        x2 = Tensor(np.concatenate([x1.data, x1.data]), dtype=np.float32)
        y2 = md.forward(x2, params, TINY).data
        assert np.allclose(y2[0], y2[1], atol=1e-6)

    def test_positional_embedding_is_used(self):
        params = md.init_params(TINY, np.random.default_rng(0))
        x = rand_input(np.random.default_rng(3), TINY)
        base = md.forward(x, params, TINY).data
        permuted = dict(params)
        perm = np.random.default_rng(4).permutation(TINY.n_tokens)
        assert not np.array_equal(perm, np.arange(TINY.n_tokens))
        permuted["pos_embed"] = Tensor(params["pos_embed"].data[perm], dtype=np.float32)
        moved = md.forward(x, permuted, TINY).data
        assert not np.allclose(base, moved, atol=1e-6)

    def test_residual_zero_weight_identity_pre_head(self):
        cfg = ModelConfig(t_in=2, t_out=2, c_in=6, grid_size=8, patch_size=4,
                          embed_dim=96, n_layers=2, n_heads=2, ffn_hidden=8)
        params = identity_params(cfg)
        params["pos_embed"] = Tensor(np.random.default_rng(5).normal(size=(cfg.n_tokens, 96)),
                                     dtype=np.float64)
        x = rand_input(np.random.default_rng(6), cfg, dtype=np.float64)
        tokens = md.tokenize(x, params, cfg)
        encoded = md.encode(tokens, params, cfg)
        assert np.array_equal(encoded.data, tokens.data)

    def test_reconstruction_round_trip_bit_exact(self):
        cfg = ModelConfig(t_in=3, t_out=2, c_in=6, grid_size=8, patch_size=4,
                          embed_dim=96, n_layers=1, n_heads=2, ffn_hidden=8)
        params = identity_params(cfg)
        x = rand_input(np.random.default_rng(7), cfg, dtype=np.float64)
        tokens = md.tokenize(x, params, cfg)  # pos_embed is zero
        maps = md.reconstruct_maps(tokens, params, cfg).data
        assert np.array_equal(maps, x.data[:, :cfg.t_out])

    def test_zero_fusion_returns_latest_displacement(self):
        # t_in > t_out, so the last input frame is not one the head reads from
        cfg = ModelConfig(t_in=3, t_out=2, c_in=6, grid_size=8, patch_size=4,
                          embed_dim=8, n_layers=1, n_heads=2, ffn_hidden=16)
        params = md.init_params(cfg, np.random.default_rng(0))
        params["fusion.w"] = Tensor(np.zeros((cfg.c_in, 1)), dtype=np.float32)
        params["fusion.b"] = Tensor(np.zeros(1), dtype=np.float32)
        x = rand_input(np.random.default_rng(11), cfg, batch=2)
        y = md.forward(x, params, cfg).data
        for k in range(cfg.t_out):
            assert np.array_equal(y[:, k, 0], x.data[:, cfg.t_in - 1, 0])

    def test_dropout_only_active_with_rng(self):
        cfg = ModelConfig(t_in=2, t_out=2, c_in=6, grid_size=8, patch_size=4,
                          embed_dim=8, n_layers=1, n_heads=2, ffn_hidden=16, dropout=0.5)
        params = md.init_params(cfg, np.random.default_rng(0))
        x = rand_input(np.random.default_rng(1), cfg)
        inference = md.forward(x, params, cfg).data
        assert np.array_equal(inference, md.forward(x, params, cfg).data)
        trained = md.forward(x, params, cfg, dropout_rng=np.random.default_rng(2)).data
        assert not np.array_equal(inference, trained)


class TestParamCount:
    def test_fusion_conv_is_seven_for_six_channels(self):
        shapes = md.param_shapes(TINY)
        assert int(np.prod(shapes["fusion.w"])) + int(np.prod(shapes["fusion.b"])) == 7

    def test_pos_embed_entries(self):
        shapes = md.param_shapes(TINY)
        assert int(np.prod(shapes["pos_embed"])) == TINY.n_tokens * TINY.embed_dim


def reference_init(config, rng, dtype):
    """`init_params` drawn one tensor at a time, written independently of it."""
    out = {}
    for name, shape in md.param_shapes(config).items():
        if name.endswith(".gamma"):
            out[name] = np.ones(shape, dtype=dtype)
        elif name.endswith((".beta", ".b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")):
            out[name] = np.zeros(shape, dtype=dtype)
        else:
            std = 1.0 / np.sqrt(config.c_in) if name == "fusion.w" else 0.02
            out[name] = rng.normal(0.0, std, size=shape).astype(dtype)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_params_draws_each_tensor_in_param_shapes_order(dtype):
    cfg = ModelConfig(t_in=4, t_out=4, c_in=6, grid_size=16, patch_size=4,
                      embed_dim=32, n_layers=2, n_heads=4, ffn_hidden=64)
    params = md.init_params(cfg, np.random.default_rng(0), dtype=dtype)
    want = reference_init(cfg, np.random.default_rng(0), dtype)
    assert list(params) == list(want)
    for name, arr in want.items():
        assert params[name].dtype == dtype, name
        assert np.array_equal(params[name].data, arr), name


def test_end_to_end_gradient_check():
    cfg = ModelConfig(t_in=2, t_out=2, c_in=6, grid_size=8, patch_size=4,
                      embed_dim=8, n_layers=1, n_heads=2, ffn_hidden=16)
    rng = np.random.default_rng(0)
    params = md.init_params(cfg, rng, dtype=np.float64)
    x = rand_input(rng, cfg, dtype=np.float64)
    y = Tensor(rng.normal(size=(1, cfg.t_out, 1, 8, 8)), dtype=np.float64)
    names = list(params)

    def f(plist):
        p = dict(zip(names, plist))
        return smooth_l1(md.forward(x, p, cfg), y, beta=1.0)

    report = nm.grad_check(f, list(params.values()), eps=1e-5, tol=1e-4, sample_size=200)
    assert report.passed, str(report)


def test_encoder_layer_gradient_check():
    cfg = ModelConfig(t_in=2, t_out=2, c_in=6, grid_size=8, patch_size=4,
                      embed_dim=8, n_layers=1, n_heads=2, ffn_hidden=16)
    rng = np.random.default_rng(1)
    params = md.init_params(cfg, rng, dtype=np.float64)
    z = Tensor(rng.normal(size=(1, 6, cfg.embed_dim)), dtype=np.float64)
    y = Tensor(rng.normal(size=(1, 6, cfg.embed_dim)), dtype=np.float64)
    layer_names = [n for n in params if n.startswith("layer0.")]

    def f(plist):
        p = dict(params)
        p.update(zip(layer_names, plist))
        return smooth_l1(md.encoder_layer(z, p, 0, cfg), y, beta=1.0)

    report = nm.grad_check(f, [params[n] for n in layer_names], eps=1e-5, tol=1e-4)
    assert report.passed, str(report)


def test_checkpoint_round_trip(tmp_path):
    for dtype in (np.float32, np.float64):
        ckpt = tmp_path / np.dtype(dtype).name
        params = md.init_params(TINY, np.random.default_rng(0), dtype=dtype)
        md.save_checkpoint(ckpt, TINY, params, train_step=17, val_loss=0.25)
        assert sorted(p.name for p in ckpt.iterdir()) == ["manifest.json", "params.mmst"]
        cfg, back, manifest = md.load_checkpoint(ckpt)
        assert cfg == TINY
        assert manifest["train_step"] == 17
        assert manifest["validation_loss"] == 0.25
        assert "tensors" not in manifest
        assert list(back) == list(params)
        for name, p in params.items():
            assert back[name].dtype == dtype
            assert np.array_equal(back[name].data, p.data)
            assert not back[name].data.flags.writeable
            with pytest.raises(ValueError):
                back[name].data.setflags(write=True)


def test_save_over_old_per_parameter_layout_leaves_two_files(tmp_path):
    ckpt = tmp_path / "ckpt"
    params = md.init_params(TINY, np.random.default_rng(0))
    ckpt.mkdir()
    for name, p in params.items():
        nm.save_tensor(ckpt / f"{name}.mmst", p)
    (ckpt / "manifest.json").write_text('{"config": {}, "tensors": {}}\n', encoding="utf-8")
    md.save_checkpoint(ckpt, TINY, params)
    assert sorted(p.name for p in ckpt.iterdir()) == ["manifest.json", "params.mmst"]
    assert list(md.load_checkpoint(ckpt)[1]) == list(params)


def test_interrupted_save_leaves_no_loadable_checkpoint(tmp_path, monkeypatch):
    md.save_checkpoint(tmp_path / "ckpt", TINY, md.init_params(TINY, np.random.default_rng(0)))

    def crash(path, tensor):
        raise OSError("disk full")

    monkeypatch.setattr(nm, "save_tensor", crash)
    with pytest.raises(OSError, match="disk full"):
        md.save_checkpoint(tmp_path / "ckpt", TINY, md.init_params(TINY, np.random.default_rng(1)))
    with pytest.raises(FileNotFoundError, match="manifest.json"):
        md.load_checkpoint(tmp_path / "ckpt")


def test_save_refuses_a_non_finite_vector_and_keeps_the_old_checkpoint(tmp_path):
    ckpt = tmp_path / "ckpt"
    params = md.init_params(TINY, np.random.default_rng(0))
    md.save_checkpoint(ckpt, TINY, params)
    for bad_value in (np.nan, -np.inf):
        wk = params["layer0.attn.wk"].data.copy()
        wk[3, 5] = bad_value
        bad = {**params, "layer0.attn.wk": Tensor._wrap(wk)}
        with pytest.raises(md.ModelError, match=r"parameter layer0\.attn\.wk holds a non-finite value$"):
            md.save_checkpoint(ckpt, TINY, bad)
        _, back, _ = md.load_checkpoint(ckpt)
        for name, p in params.items():
            assert np.array_equal(back[name].data, p.data)
        assert md.non_finite_param(TINY, md.flatten(p.data for p in bad.values())) == "layer0.attn.wk"
    assert md.non_finite_param(TINY, md.flatten(p.data for p in params.values())) is None
