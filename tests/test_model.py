import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdrdeghost import model, tensor as tc
from hdrdeghost.hdrmath import LdrImage, SampleTriplet, build_input
from hdrdeghost.model import (CHECKPOINT_MAGIC, CheckpointError, ConfigError,
                              ModelConfig, bind_params, dt_forward,
                              forward_from_inputs,
                              global_branch, hdt_forward, init_params,
                              load_checkpoint, local_branch, model_forward,
                              msa, full_preset, param_manifest, param_spec,
                              save_checkpoint, tiny_preset, window_partition,
                              window_reverse)
from test_tensor_ops import _retained, _root


def make_triplet(h=16, w=16, seed=0):
    rng = np.random.default_rng(seed)
    pix = rng.uniform(0, 1, size=(3, h, w, 3))
    return SampleTriplet(ldr=tuple(
        LdrImage(pixels=pix[i], exposure_time=t)
        for i, t in enumerate((0.25, 1.0, 4.0))))


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(embed_dim=60, heads=7)

    def test_bad_dtype(self):
        with pytest.raises(ConfigError, match="dtype"):
            ModelConfig(dtype="f16")

    def test_local_channel_path(self):
        shapes = {name: shape for name, shape, _ in param_spec(full_preset())}
        assert [shapes[f"group0.dt0.local.{c}.w"][2:] for c in
                ("conv1", "conv2", "dconv1", "dconv2")] == [
            (60, 6), (6, 12), (12, 24), (24, 24)]


class TestWindowing:
    def roll_oracle(self, shape, window, shift, seed):
        x = tc.Tensor(np.random.default_rng(seed).normal(size=shape))
        tokens, info = window_partition(x, window, shift)
        back = window_reverse(tokens, info)
        np.testing.assert_array_equal(back.data, x.data)

    @pytest.mark.parametrize("shape,window,shift", [
        ((1, 8, 8, 4), 4, 0),
        ((2, 8, 8, 4), 4, 2),
        ((1, 7, 9, 3), 4, 0),   # needs padding
        ((1, 7, 9, 3), 4, 2),   # padding + shift
        ((1, 1, 1, 2), 4, 0),   # tiny image, one padded window
    ])
    def test_round_trip_bit_exact(self, shape, window, shift):
        self.roll_oracle(shape, window, shift, seed=sum(shape))

    def test_many_random_shapes_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            b = int(rng.integers(1, 3))
            h = int(rng.integers(1, 20))
            w = int(rng.integers(1, 20))
            d = int(rng.integers(1, 6))
            window = int(rng.integers(2, 6))
            shift = int(rng.integers(0, window))
            self.roll_oracle((b, h, w, d), window, shift, seed=h * w + d)

    def test_shift_equals_roll_then_plain_partition(self):
        # on window-multiple grids (no padding) the shifted partition must
        # equal partitioning a cyclically rolled copy, bit for bit
        x = tc.Tensor(np.random.default_rng(12).normal(size=(1, 8, 12, 5)))
        shifted, _ = window_partition(x, 4, shift=2)
        rolled = tc.Tensor(np.roll(x.data, (-2, -2), axis=(1, 2)))
        plain, _ = window_partition(rolled, 4, shift=0)
        np.testing.assert_array_equal(shifted.data, plain.data)

    def test_token_count_and_order(self):
        x = tc.Tensor(np.arange(16.0).reshape(1, 4, 4, 1))
        tokens, _ = window_partition(x, 2, 0)
        assert tokens.shape == (4, 4, 1)
        # first window is the top-left 2x2 block in row-major order
        np.testing.assert_array_equal(tokens.data[0, :, 0], [0, 1, 4, 5])

    def test_padded_shifted_round_trip_is_one_take_each_way(self):
        tape = tc.Tape()
        x = tc.Tensor(np.random.default_rng(13).normal(size=(2, 7, 9, 3)),
                      tape)
        tokens, info = window_partition(x, 4, shift=2)
        window_reverse(tokens, info)
        kernels = [t.vjp.__qualname__.split(".")[0] for t in tape.nodes[1:]]
        assert kernels == ["reshape", "take", "reshape"] * 2

    # window 4, shift 2. 7 x 9 pads to 8 x 12; at 3 x 6 the roll moves row
    # 1 behind its reflected copy, row 3, which then comes first in token order
    @pytest.mark.parametrize("h,w", [(7, 9), (3, 6)])
    def test_reverse_gradient_lands_on_original_pixel_tokens_only(self, h, w):
        window, shift = 4, 2
        tokens, info = window_partition(tc.Tensor(np.zeros((1, h, w, 2))),
                                        window, shift)
        tape = tc.Tape()
        tl = tc.Tensor(np.random.default_rng(14).normal(size=tokens.shape),
                       tape)
        g = np.random.default_rng(15).normal(size=(1, h, w, 2))
        (gt,) = tc.backward(tc.sum_(tc.mul(window_reverse(tl, info), g)), [tl])
        # each token's (row, col) in the padded grid, by the roll oracle
        hp, wp = h + (-h) % window, w + (-w) % window
        yy, xx = np.mgrid[0:hp, 0:wp]

        def order(a):
            a = np.roll(a, (-shift, -shift), axis=(0, 1))
            return (a.reshape(hp // window, window, wp // window, window)
                    .transpose(0, 2, 1, 3).reshape(tokens.shape[:2]))

        rows, cols = order(yy), order(xx)
        own = (rows < h) & (cols < w)
        assert (~own).any()
        assert not gt[~own].any()
        np.testing.assert_array_equal(gt[own], g[0, rows[own], cols[own]])


@pytest.fixture(scope="module")
def tiny64():
    cfg = tiny_preset(dtype="f64")
    return cfg, init_params(cfg, seed=5)


def leaves(params):
    return {k: tc.Tensor(v) for k, v in params.items()}


class TestAttention:
    def test_zero_query_key_averages_values(self, tiny64):
        cfg, params = tiny64
        p = leaves(params)
        pre = "group0.dt0"
        for nm in ("q", "k"):
            p[f"{pre}.msa.{nm}.w"] = tc.Tensor(np.zeros((16, 16)))
            p[f"{pre}.msa.{nm}.b"] = tc.Tensor(np.zeros(16))
        tokens = tc.Tensor(np.random.default_rng(13).normal(size=(3, 16, 16)))
        out = msa(tokens, p, pre, cfg).data
        # uniform attention: every token sees the value mean of its window
        v = tokens.data @ params[f"{pre}.msa.v.w"] + params[f"{pre}.msa.v.b"]
        mean = v.mean(axis=1, keepdims=True) * np.ones_like(v)
        ref = mean @ params[f"{pre}.msa.o.w"] + params[f"{pre}.msa.o.b"]
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_permutation_equivariance(self, tiny64):
        cfg, params = tiny64
        p = leaves(params)
        tokens = np.random.default_rng(14).normal(size=(2, 16, 16))
        perm = np.random.default_rng(15).permutation(16)
        out = msa(tc.Tensor(tokens), p, "group0.dt0", cfg).data
        out_p = msa(tc.Tensor(tokens[:, perm]), p, "group0.dt0", cfg).data
        np.testing.assert_allclose(out[:, perm], out_p, atol=1e-10)


class TestDualBlock:
    def test_additive_fusion(self, tiny64):
        cfg, params = tiny64
        p = leaves(params)
        x = tc.Tensor(np.random.default_rng(16).normal(size=(1, 8, 8, 16)))
        fused = dt_forward(x, p, "group0.dt0", cfg, shift=0).data
        g = global_branch(x, p, "group0.dt0", cfg, shift=0).data
        l = local_branch(x, p, "group0.dt0", cfg).data
        np.testing.assert_allclose(fused, g + l, atol=1e-12)

    def test_local_gate_bounds(self, tiny64):
        cfg, params = tiny64
        p = leaves(params)
        x = tc.Tensor(np.random.default_rng(17).normal(size=(1, 8, 8, 16)))
        f_in = tc.layer_norm(x, p["group0.dt0.local.ln.g"],
                             p["group0.dt0.local.ln.b"]).data
        out = local_branch(x, p, "group0.dt0", cfg).data
        assert np.all(np.abs(out) <= np.abs(f_in) + 1e-12)

    def test_deformable_off_uses_plain_convs(self, tiny64):
        cfg, params = tiny64
        cfg_off = tiny_preset(dtype="f64", deformable=False)
        p = leaves(params)
        x = tc.Tensor(np.random.default_rng(18).normal(size=(1, 8, 8, 16)))
        # zero offsets make the deformable path coincide with plain convs
        a = local_branch(x, p, "group0.dt0", cfg).data
        b = local_branch(x, p, "group0.dt0", cfg_off).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestBody:
    def test_output_shape_and_open_interval(self, tiny64):
        cfg, params = tiny64
        s = make_triplet(16, 16, seed=19)
        out = model_forward(s, params, cfg).pixels
        assert out.shape == (16, 16, 3)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_zeroed_body_collapses_to_residual_skeleton(self, tiny64):
        cfg, params = tiny64
        zeroed = {k: (v if k.startswith(("head.", "embed."))
                      else np.zeros_like(v)) for k, v in params.items()}
        s = make_triplet(8, 8, seed=20)
        out = model_forward(s, zeroed, cfg).pixels
        # every block reduces to identity, the tail to zero, so the final
        # sigmoid sees zero logits everywhere
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_forward_deterministic(self, tiny64):
        cfg, params = tiny64
        s = make_triplet(12, 12, seed=21)
        a = model_forward(s, params, cfg).pixels
        b = model_forward(s, params, cfg).pixels
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_untaped_forward_matches_taped_bit_for_bit(self, dtype):
        cfg = tiny_preset(dtype=dtype)
        rng = np.random.default_rng(24)
        params = init_params(cfg, seed=6)
        for k, v in params.items():
            if ".off." in k:  # sample between pixels, not on the grid
                params[k] = (v + rng.normal(0, 0.05, size=v.shape)).astype(v.dtype)
        s = make_triplet(12, 12, seed=25)
        untaped = model_forward(s, params, cfg).pixels
        tape = tc.Tape()
        ins = [x.astype(tc.DTYPES[dtype]) for x in build_input(s)]
        taped = forward_from_inputs(ins, bind_params(params, tape), cfg)
        assert len(tape.nodes) > len(params)
        assert taped.data.dtype == tc.DTYPES[dtype]
        np.testing.assert_array_equal(untaped, taped.data[0])

    def test_taped_forward_keeps_only_what_some_vjp_reads(self):
        # every kernel output still alive is read by a vjp, or is a leaf or
        # the model output: the tape itself holds no output
        cfg = full_preset()
        tape = tc.Tape()
        leaves = bind_params(init_params(cfg, seed=0), tape)
        rng = np.random.default_rng(28)
        ins = [rng.uniform(0, 1, size=(1, 16, 16, 6)).astype(np.float32)
               for _ in range(3)]
        out = forward_from_inputs(ins, leaves, cfg)
        read = {}
        for node in tape.nodes:
            read.update(_retained(node.vjp))
        alive = [n for n in tape.nodes if n.out() is not None
                 and n.vjp is not None and n is not out.node]
        unread = [n.vjp.__qualname__.split(".")[0] for n in alive
                  if id(_root(n.out())) not in read]
        assert len(alive) > 100 and unread == []
        freed = [n for n in tape.nodes if n.out() is None]
        assert len(freed) > 100 and all(n.data.size == 0 for n in freed)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_untaped_matches_taped_across_many_chunks(self, dtype, monkeypatch):
        # 4 KB chunks: the embed conv runs one row at a time, attention two
        # windows, the deformable convs a quarter of the pixels
        cfg = tiny_preset(dtype=dtype)
        rng = np.random.default_rng(26)
        params = init_params(cfg, seed=7)
        for k, v in params.items():
            if ".off." in k:
                params[k] = (v + rng.normal(0, 0.05, size=v.shape)).astype(v.dtype)
        s = make_triplet(12, 12, seed=27)
        whole = model_forward(s, params, cfg).pixels
        monkeypatch.setattr(tc, "CHUNK_BYTES", 1 << 12)
        untaped = model_forward(s, params, cfg).pixels
        tape = tc.Tape()
        ins = [x.astype(tc.DTYPES[dtype]) for x in build_input(s)]
        taped = forward_from_inputs(ins, bind_params(params, tape), cfg)
        assert untaped.tobytes() == taped.data[0].astype(np.float64).tobytes()
        np.testing.assert_allclose(untaped, whole,
                                   rtol=1e-12 if dtype == "f64" else 1e-5)

    def test_ablation_variants_distinct(self):
        s = make_triplet(8, 8, seed=22)
        rng = np.random.default_rng(23)
        outs = []
        for sar in (True, False):
            for deform in (True, False):
                cfg = tiny_preset(dtype="f64", sar=sar, deformable=deform)
                params = init_params(cfg, seed=5)
                # offset predictors init to zero, where the deformable and
                # plain paths coincide by construction; nudge them off it
                for k, v in params.items():
                    if ".off." in k:
                        params[k] = v + rng.normal(0, 0.05, size=v.shape)
                outs.append(model_forward(s, params, cfg).pixels)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(outs[i], outs[j])


class TestManifest:
    def test_reference_preset_parameter_count(self):
        _, total = param_manifest(init_params(full_preset(), seed=0))
        assert total == 1432647
        assert abs(total - 1_350_000) / 1_350_000 <= 0.25

    def test_rows_cover_every_tensor(self, tiny64):
        _, params = tiny64
        rows, total = param_manifest(params)
        assert {r[0] for r in rows} == set(params)
        assert total == sum(v.size for v in params.values())


def _reference_init_params(cfg, seed=0):
    """init_params as it was before the parameter spec: the reference for
    names, order, draws and dtype."""
    rng = np.random.default_rng(seed)
    c, d = cfg.channels, cfg.embed_dim
    p = {}

    def conv(name, cin, cout, k=3):
        bound = np.sqrt(6.0 / (k * k * cin))
        p[f"{name}.w"] = rng.uniform(-bound, bound, size=(k, k, cin, cout))
        p[f"{name}.b"] = np.zeros(cout)

    def lin(name, din, dout):
        v = rng.normal(0.0, 0.02, size=(din, dout))
        p[f"{name}.w"] = np.clip(v, -0.04, 0.04)
        p[f"{name}.b"] = np.zeros(dout)

    def norm(name, dim):
        p[f"{name}.g"] = np.ones(dim)
        p[f"{name}.b"] = np.zeros(dim)

    conv("head.shallow.0", 6, c)
    conv("head.shallow.1", c, c)
    conv("head.shallow.2", c, c)
    for i in (1, 3):
        conv(f"head.att{i}.conv1", 2 * c, c)
        conv(f"head.att{i}.conv2", c, c)
    conv("embed", 4 * c, d)
    c1, c2, c3 = max(1, d // 10), max(1, d // 5), max(1, 2 * d // 5)
    for g in range(cfg.groups):
        for n in range(cfg.blocks_per_group):
            pre = f"group{g}.dt{n}"
            norm(f"{pre}.ln1", d)
            for proj in ("q", "k", "v", "o"):
                lin(f"{pre}.msa.{proj}", d, d)
            norm(f"{pre}.ln2", d)
            lin(f"{pre}.mlp.fc1", d, 2 * d)
            lin(f"{pre}.mlp.fc2", 2 * d, d)
            norm(f"{pre}.local.ln", d)
            conv(f"{pre}.local.conv1", d, c1)
            conv(f"{pre}.local.conv2", c1, c2)
            conv(f"{pre}.local.dconv1", c2, c3)
            conv(f"{pre}.local.dconv2", c3, c3)
            if cfg.deformable:
                for j, cin in ((1, c2), (2, c3)):
                    p[f"{pre}.local.dconv{j}.off.w"] = np.zeros((3, 3, cin, 18))
                    p[f"{pre}.local.dconv{j}.off.b"] = np.zeros(18)
            lin(f"{pre}.local.fc", c3, d)
        conv(f"group{g}.conv", d, d)
    conv("tail.dilated", d, d)
    conv("tail.conv1", d, d)
    conv("tail.out", d, 3)
    dt = tc.DTYPES[cfg.dtype]
    return {k: v.astype(dt) for k, v in p.items()}


class TestParamSpec:
    @pytest.mark.parametrize("cfg", [full_preset(), tiny_preset(dtype="f64"),
                                     full_preset(deformable=False)],
                             ids=["full", "tiny-f64", "full-no-deformable"])
    def test_init_params_byte_identical_to_reference(self, cfg):
        for seed in (0, 3):
            got, want = init_params(cfg, seed), _reference_init_params(cfg, seed)
            assert list(got) == list(want)
            for k in want:
                assert got[k].dtype == want[k].dtype, k
                assert got[k].shape == want[k].shape, k
                assert got[k].tobytes() == want[k].tobytes(), k

    def test_spec_lists_init_params_names_and_shapes(self):
        cfg = full_preset()
        params = init_params(cfg)
        spec = param_spec(cfg)
        assert ([(n, s) for n, s, _ in spec]
                == [(k, v.shape) for k, v in params.items()])
        assert (param_manifest({n: s for n, s, _ in spec})
                == param_manifest(params))

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        cfg = tiny_preset()
        params = init_params(cfg, seed=2)
        path = tmp_path / "m.hdck"
        save_checkpoint(path, params, cfg)

        def no_draws(*args, **kwargs):
            raise AssertionError("checkpoint load drew weights")

        monkeypatch.setattr(model, "init_params", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        back, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert list(back) == sorted(params)
        for k in params:
            assert back[k].tobytes() == params[k].tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny64, tmp_path):
        cfg, params = tiny64
        path = tmp_path / "m.hdck"
        save_checkpoint(path, params, cfg)
        back, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        for k in params:
            np.testing.assert_array_equal(back[k], params[k])
            assert back[k].dtype == np.float64

    def test_f32_round_trip(self, tmp_path):
        cfg = tiny_preset()
        params = init_params(cfg, seed=1)
        path = tmp_path / "m.hdck"
        save_checkpoint(path, params, cfg)
        back, _ = load_checkpoint(path)
        for k in params:
            np.testing.assert_array_equal(back[k], params[k])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.hdck"
        path.write_bytes(b"NOTACKPT" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tiny64, tmp_path):
        cfg, params = tiny64
        path = tmp_path / "m.hdck"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_missing_tensor_rejected(self, tiny64, tmp_path):
        cfg, params = tiny64
        partial = dict(params)
        partial.pop("tail.out.w")
        path = tmp_path / "m.hdck"
        save_checkpoint(path, partial, cfg)
        with pytest.raises(CheckpointError, match="mismatch"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tiny64, tmp_path):
        cfg, params = tiny64
        path = tmp_path / "m.hdck"
        save_checkpoint(path, params, cfg)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, tiny64, tmp_path):
        cfg, params = tiny64
        bad = dict(params, **{"embed.b": np.zeros(7)})
        path = tmp_path / "m.hdck"
        save_checkpoint(path, bad, cfg)
        with pytest.raises(CheckpointError,
                           match=r'"name": "embed\.b", "shape": \[7\]'):
            load_checkpoint(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "m.hdck"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x00\x00")  # 10 bytes
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tiny64, tmp_path):
        cfg, params = tiny64
        path = tmp_path / "m.hdck"
        save_checkpoint(path, params, cfg)
        before = path.read_bytes()
        # sorts last, so the save fails after the other payloads are written
        bad = dict(params, zzz=np.array(["not a float"]))
        with pytest.raises(ValueError):
            save_checkpoint(path, bad, cfg)
        assert path.read_bytes() == before


def _manifest_bytes(blob):
    (mlen,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))
    return blob[len(CHECKPOINT_MAGIC) + 4:len(CHECKPOINT_MAGIC) + 4 + mlen]


def _with_manifest(blob, edit):
    """A checkpoint blob with its manifest re-encoded after ``edit``."""
    text = _manifest_bytes(blob)
    manifest = json.loads(text)
    edit(manifest)
    new = json.dumps(manifest).encode()
    return (CHECKPOINT_MAGIC + struct.pack("<I", len(new)) + new
            + blob[len(CHECKPOINT_MAGIC) + 4 + len(text):])


def _saved_with_manifest(path, edit):
    """Save a tiny checkpoint, then re-encode its manifest after ``edit``."""
    cfg = tiny_preset()
    save_checkpoint(path, init_params(cfg, seed=1), cfg)
    path.write_bytes(_with_manifest(path.read_bytes(), edit))
    return path


# manifests that parse as JSON but not as a checkpoint; unwrapped, the first
# four raise TypeError, TypeError, KeyError and TypeError in load_checkpoint.
# The second is a checkpoint written while the MLP ratio, tail dilation and
# LeakyReLU slope were still config fields. The tensor entries must be the
# config's listing: a payload dtype other than the config's, or none, a
# negative shape, or two entries in another order (whose payloads would load
# into each other) is rejected. A block count above the number of tensors is
# rejected before param_spec would list a billion blocks.
MALFORMED_MANIFESTS = {
    "extra_config_key": lambda m: m["config"].update(bogus=1),
    "removed_config_fields": lambda m: m["config"].update(
        mlp_ratio=2.0, dilation=2, leaky_slope=0.01),
    "missing_config": lambda m: m.pop("config"),
    "non_integer_channels": lambda m: m["config"].update(channels="eight"),
    "tensor_without_name": lambda m: m["tensors"][0].pop("name"),
    "infinite_shape": lambda m: m["tensors"][0].update(shape=[float("inf")]),
    "float_window": lambda m: m["config"].update(window=4.0),
    "float_heads": lambda m: m["config"].update(heads=2.0),
    "string_sar": lambda m: m["config"].update(sar="no"),
    "bool_groups": lambda m: m["config"].update(groups=True),
    "payload_dtype_not_the_configs": lambda m: m["tensors"][0].update(dtype="f64"),
    "payload_dtype_missing": lambda m: m["tensors"][0].pop("dtype"),
    "negative_shape": lambda m: m["tensors"][0].update(shape=[-1]),
    "two_negative_dims": lambda m: m["tensors"][0].update(shape=[-2, -3]),
    "tensors_reordered": lambda m: m["tensors"].insert(0, m["tensors"].pop(1)),
    "groups_1e9": lambda m: m["config"].update(groups=10**9),
    "blocks_per_group_1e9": lambda m: m["config"].update(blocks_per_group=10**9),
}


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("edit", sorted(MALFORMED_MANIFESTS))
    def test_rejected_as_checkpoint_error(self, edit, tmp_path):
        path = _saved_with_manifest(tmp_path / "m.hdck",
                                    MALFORMED_MANIFESTS[edit])
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    def test_oversized_shape_rejected_before_reading(self, tmp_path):
        path = _saved_with_manifest(
            tmp_path / "m.hdck",
            lambda m: m["tensors"][0].update(shape=[10**6, 10**6]))
        with pytest.raises(CheckpointError,
                           match=r'"name": "embed\.b", "shape": \[1000000, '):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["groups_1e9", "blocks_per_group_1e9"])
    def test_block_count_rejected_before_listing(self, edit, tmp_path,
                                                 monkeypatch):
        # listed, a billion blocks would exhaust memory
        path = _saved_with_manifest(tmp_path / "m.hdck",
                                    MALFORMED_MANIFESTS[edit])

        def no_listing(cfg):
            raise AssertionError("param_spec called")

        monkeypatch.setattr(model, "param_spec", no_listing)
        with pytest.raises(CheckpointError, match=r"\d+ tensors for "):
            load_checkpoint(path)

    def test_name_listed_twice_rejected(self, tmp_path):
        # a second embed.b entry and its payload, appended: loaded, its
        # payload would silently replace the first
        def twice(m):
            m["tensors"].append(next(e for e in m["tensors"]
                                     if e["name"] == "embed.b"))
        path = _saved_with_manifest(tmp_path / "m.hdck", twice)
        dim = tiny_preset().embed_dim
        path.write_bytes(path.read_bytes() + np.full(dim, 7, "<f4").tobytes())
        with pytest.raises(CheckpointError,
                           match=r'file has \{[^}]*"name": "embed\.b"'):
            load_checkpoint(path)

    def test_negative_shape_names_the_tensor(self, tmp_path):
        path = _saved_with_manifest(
            tmp_path / "m.hdck", lambda m: m["tensors"][0].update(shape=[-1]))
        name = json.loads(_manifest_bytes(path.read_bytes()))["tensors"][0]["name"]
        with pytest.raises(CheckpointError,
                           match=rf'"name": "{name}", "shape": \[-1\]'):
            load_checkpoint(path)

    def test_deeply_nested_manifest_rejected(self, tmp_path):
        # json.loads raises RecursionError long before 100,000 levels
        text = b"[" * 100_000 + b"]" * 100_000
        path = tmp_path / "m.hdck"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text)
        with pytest.raises(CheckpointError, match="malformed.*RecursionError"):
            load_checkpoint(path)

    def test_invalid_config_value_stays_config_error(self, tmp_path):
        path = _saved_with_manifest(tmp_path / "m.hdck",
                                    lambda m: m["config"].update(heads=3))
        with pytest.raises(ConfigError, match="divisible"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.hdck"
    cfg = tiny_preset()
    save_checkpoint(path, init_params(cfg, seed=1), cfg)
    return path, path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_loads_exactly_or_raises_typed_error(
        tiny_checkpoint, data):
    path, blob = tiny_checkpoint
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        # most flips land in the payload; the header is drawn on its own
        header = len(CHECKPOINT_MAGIC) + 4 + struct.unpack_from(
            "<I", blob, len(CHECKPOINT_MAGIC))[0]
        at = data.draw(st.one_of(st.integers(0, header - 1),
                                 st.integers(0, len(blob) - 1)), label="at")
        bad = bytearray(blob)
        bad[at] ^= data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(bytes(bad))
    try:
        params, cfg = load_checkpoint(path)
    except (CheckpointError, ConfigError):
        return
    expected = init_params(cfg, seed=0)
    assert ({k: v.shape for k, v in params.items()}
            == {k: v.shape for k, v in expected.items()})


# values a manifest edit writes: JSON scalars, lists and objects of them, and
# shapes, some with negative entries
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=4),
    lambda v: st.lists(v, max_size=3) | st.dictionaries(st.text(max_size=4), v,
                                                        max_size=3),
    max_leaves=6) | st.lists(st.integers(-3, 300), max_size=3)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_manifest_loads_or_raises_typed_error(tiny_checkpoint, data):
    """Set or drop one key of the config or of one tensor entry."""
    path, blob = tiny_checkpoint

    def edit(m):
        obj = data.draw(st.sampled_from([m["config"]] + m["tensors"]), label="in")
        key = data.draw(st.sampled_from(sorted(obj)) | st.text(max_size=4),
                        label="key")
        if data.draw(st.booleans(), label="drop"):
            obj.pop(key, None)
        else:
            obj[key] = data.draw(_JSON, label="value")

    path.write_bytes(_with_manifest(blob, edit))
    try:
        params, cfg = load_checkpoint(path)
    except (CheckpointError, ConfigError):
        return
    expected = init_params(cfg, seed=0)
    assert ({k: v.shape for k, v in params.items()}
            == {k: v.shape for k, v in expected.items()})
