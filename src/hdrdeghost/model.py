"""Hierarchical dual-branch fusion model.

Each block adds a window self-attention global branch and a deformable-conv
channel-attention local branch; N blocks form a group with a conv + residual,
M groups plus a dilated-conv tail with two global residuals form the body.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from . import tensor as tc
from .head import head_forward
from .hdrmath import SampleTriplet, HdrImage, build_input

CHECKPOINT_MAGIC = b"HDCK0001"


class ConfigError(ValueError):
    pass


# the largest probability map of one window, all heads: window_attention
# never splits a window across spans, and its backward holds this map, its
# score gradient and their product at once. 64 MB allows windows up to 40 at
# the full preset's 6 heads in f32 (the preset's window of 8 takes 96 KB)
WINDOW_MAP_BYTES = 1 << 26


@dataclass(frozen=True)
class ModelConfig:
    channels: int = 60        # head feature channels C
    embed_dim: int = 60       # body embedding dim D
    window: int = 8
    heads: int = 6
    blocks_per_group: int = 6  # N
    groups: int = 3            # M
    sar: bool = True
    deformable: bool = True
    dtype: str = "f32"

    def __post_init__(self):
        # exact types: a checkpoint manifest's JSON may hold 8.0, true or "no"
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not type(f.default):
                raise TypeError(f"{f.name} must be {type(f.default).__name__}, "
                                f"got {value!r}")
        if min(self.channels, self.embed_dim, self.window, self.heads,
               self.blocks_per_group, self.groups) < 1:
            raise ConfigError("all structural sizes must be >= 1")
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.dtype not in tc.DTYPES:
            raise ConfigError(f"dtype must be one of {sorted(tc.DTYPES)}")
        t = self.window * self.window
        nbytes = self.heads * t * t * np.dtype(tc.DTYPES[self.dtype]).itemsize
        if nbytes > WINDOW_MAP_BYTES:
            raise ConfigError(
                f"window {self.window}: one window's {self.heads} x {t} x {t} "
                f"attention map takes {nbytes / 2**20:,.0f} MB, above "
                f"{WINDOW_MAP_BYTES >> 20} MB")


def full_preset(**overrides) -> ModelConfig:
    return replace(ModelConfig(), **overrides)


def tiny_preset(**overrides) -> ModelConfig:
    base = ModelConfig(channels=8, embed_dim=16, window=4, heads=2,
                       blocks_per_group=2, groups=1)
    return replace(base, **overrides)


# ---------------------------------------------------------------------------
# parameter initialization

def param_spec(cfg: ModelConfig) -> list:
    """(name, shape, init) of every parameter in init_params' draw order;
    init is one of init_params' draws: "conv", "trunc", "zeros" or "ones"."""
    c, d = cfg.channels, cfg.embed_dim
    spec = []

    def conv(name, cin, cout, k=3, init="conv"):
        spec.extend([(f"{name}.w", (k, k, cin, cout), init),
                     (f"{name}.b", (cout,), "zeros")])

    def lin(name, din, dout):
        spec.extend([(f"{name}.w", (din, dout), "trunc"),
                     (f"{name}.b", (dout,), "zeros")])

    def norm(name, dim):
        spec.extend([(f"{name}.g", (dim,), "ones"), (f"{name}.b", (dim,), "zeros")])

    conv("head.shallow.0", 6, c)
    conv("head.shallow.1", c, c)
    conv("head.shallow.2", c, c)
    for i in (1, 3):
        conv(f"head.att{i}.conv1", 2 * c, c)
        conv(f"head.att{i}.conv2", c, c)

    conv("embed", 4 * c, d)

    # local-branch channel path D -> D/10 -> D/5 -> 2D/5 -> 2D/5
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
                # offset predictors start at zero: the plain-conv operating point
                for j, cin in ((1, c2), (2, c3)):
                    conv(f"{pre}.local.dconv{j}.off", cin, 18, init="zeros")
            lin(f"{pre}.local.fc", c3, d)
        conv(f"group{g}.conv", d, d)

    conv("tail.dilated", d, d)
    conv("tail.conv1", d, d)
    conv("tail.out", d, 3)
    return spec


def init_params(cfg: ModelConfig, seed: int = 0) -> dict:
    """Seeded parameter dict, keyed by hierarchical names."""
    rng = np.random.default_rng(seed)

    def conv(shape):  # uniform, bounded by the fan-in
        bound = np.sqrt(6.0 / (shape[0] * shape[1] * shape[2]))
        return rng.uniform(-bound, bound, size=shape)

    def trunc(shape, std=0.02):  # normal, clipped at two std
        return np.clip(rng.normal(0.0, std, size=shape), -2 * std, 2 * std)

    draw = {"conv": conv, "trunc": trunc, "zeros": np.zeros, "ones": np.ones}
    dt = tc.DTYPES[cfg.dtype]
    return {name: draw[init](shape).astype(dt)
            for name, shape, init in param_spec(cfg)}


def param_manifest(params: dict):
    """(name, shape, count) rows plus the total parameter count of a dict
    that maps each name to an array or to its shape."""
    shapes = {k: tuple(getattr(v, "shape", v)) for k, v in params.items()}
    rows = [(k, s, int(np.prod(s))) for k, s in sorted(shapes.items())]
    return rows, sum(r[2] for r in rows)


# ---------------------------------------------------------------------------
# window tokenization

def _window_index(h, w, window, shift):
    """The window layout of an h x w grid as two flat index arrays.

    The pixel grid is reflect-padded to window multiples, rolled by
    ``-shift`` and ordered window by window. ``read`` is the pixel each
    token reads; ``back`` is, for each pixel, the token at the pixel's own
    slot in the padded grid (not at one of its reflected copies)."""
    pixel = np.pad(np.arange(h * w).reshape(h, w),
                   ((0, -h % window), (0, -w % window)), mode="reflect")
    hp, wp = pixel.shape
    slot = np.roll(np.arange(hp * wp).reshape(hp, wp), -shift, axis=(0, 1))
    slot = slot.reshape(hp // window, window, wp // window, window)
    slot = slot.transpose(0, 2, 1, 3).ravel()  # token -> its padded slot
    token = np.argsort(slot).reshape(hp, wp)   # padded slot -> its token
    return pixel.ravel()[slot], token[:h, :w].ravel()


def window_partition(x, window, shift=0):
    """BHWC grid -> (B*nW) x window^2 x D window tokens, as one gather of
    ``_window_index``'s read index: reflect padding of H and W up to window
    multiples, then a cyclic roll of ``shift`` pixels. Returns the tokens
    plus the info window_reverse needs."""
    b, h, w, d = x.shape
    read, back = _window_index(h, w, window, shift)
    tokens = tc.take(tc.reshape(x, (b, h * w, d)), read)
    return tc.reshape(tokens, (-1, window * window, d)), (b, h, w, back)


def window_reverse(tokens, info):
    """Inverse of window_partition (bit-exact round trip): each pixel reads
    its own token back; tokens of reflected copies are not read."""
    b, h, w, back = info
    x = tc.take(tc.reshape(tokens, (b, -1, tokens.shape[-1])), back)
    return tc.reshape(x, (b, h, w, -1))


# ---------------------------------------------------------------------------
# dual-transformer block

def msa(tokens, p, pre, cfg):
    """Multi-head scaled dot-product attention within each window."""
    q, k, v = (tc.linear(tokens, p[f"{pre}.msa.{n}.w"], p[f"{pre}.msa.{n}.b"])
               for n in "qkv")
    return tc.linear(tc.window_attention(q, k, v, cfg.heads),
                     p[f"{pre}.msa.o.w"], p[f"{pre}.msa.o.b"])


def global_branch(x, p, pre, cfg, shift):
    """Window MSA and MLP, each behind a LayerNorm with a residual."""
    tokens, info = window_partition(
        tc.layer_norm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"]), cfg.window, shift)
    em1 = tc.add(window_reverse(msa(tokens, p, pre, cfg), info), x)
    z = tc.layer_norm(em1, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
    z = tc.linear(z, p[f"{pre}.mlp.fc1.w"], p[f"{pre}.mlp.fc1.b"])
    z = tc.leaky_relu(z)
    z = tc.linear(z, p[f"{pre}.mlp.fc2.w"], p[f"{pre}.mlp.fc2.b"])
    return tc.add(z, em1)


def local_branch(x, p, pre, cfg):
    """Deformable-conv chain pooled into a per-channel gate on the input."""
    f_in = tc.layer_norm(x, p[f"{pre}.local.ln.g"], p[f"{pre}.local.ln.b"])
    t = tc.leaky_relu(tc.conv2d(f_in, p[f"{pre}.local.conv1.w"],
                                p[f"{pre}.local.conv1.b"]))
    t = tc.leaky_relu(tc.conv2d(t, p[f"{pre}.local.conv2.w"],
                                p[f"{pre}.local.conv2.b"]))
    for j in (1, 2):
        w, b = p[f"{pre}.local.dconv{j}.w"], p[f"{pre}.local.dconv{j}.b"]
        if cfg.deformable:
            off = tc.conv2d(t, p[f"{pre}.local.dconv{j}.off.w"],
                            p[f"{pre}.local.dconv{j}.off.b"])
            t = tc.leaky_relu(tc.deformable_conv2d(t, w, b, off))
        else:
            t = tc.leaky_relu(tc.conv2d(t, w, b))
    pooled = tc.global_avg_pool(t)
    wc = tc.sigmoid(tc.linear(pooled, p[f"{pre}.local.fc.w"],
                              p[f"{pre}.local.fc.b"]))
    gate = tc.reshape(wc, (x.shape[0], 1, 1, x.shape[3]))
    return tc.mul(f_in, gate)


def dt_forward(x, p, pre, cfg, shift):
    """One dual-transformer block: additive fusion of both branches."""
    return tc.add(global_branch(x, p, pre, cfg, shift),
                  local_branch(x, p, pre, cfg))


def hdt_forward(f_init, p, cfg):
    """Body: embed, M groups of N blocks, dilated tail with two global
    residuals, then a sigmoid RGB head. Output values lie in (0, 1)."""
    x0 = tc.conv2d(f_init, p["embed.w"], p["embed.b"])
    del f_init  # the head's 4C map: untaped, it is freed here
    x = x0
    for g in range(cfg.groups):
        gin = x
        for n in range(cfg.blocks_per_group):
            shift = 0 if n % 2 == 0 else cfg.window // 2
            x = dt_forward(x, p, f"group{g}.dt{n}", cfg, shift)
        x = tc.add(tc.conv2d(x, p[f"group{g}.conv.w"], p[f"group{g}.conv.b"]), gin)
    y = tc.add(tc.conv2d(x, p["tail.dilated.w"], p["tail.dilated.b"],
                         dilation=2), x0)
    y = tc.add(tc.conv2d(y, p["tail.conv1.w"], p["tail.conv1.b"]), x0)
    return tc.sigmoid(tc.conv2d(y, p["tail.out.w"], p["tail.out.b"]))


def bind_params(params: dict, tape: tc.Tape | None = None) -> dict:
    """The parameters as tensors named by their keys, so that a non-finite
    kernel output names its parameter; leaves of ``tape``, or untaped."""
    return {k: tc.Tensor(v, tape=tape, name=k) for k, v in params.items()}


def forward_from_inputs(inputs, leaves, cfg):
    """Forward from three 1 x H x W x 6 inputs (arrays or tensors).

    Differentiable when ``leaves`` are bound to a tape; given untaped
    tensors or the raw parameter arrays it builds no graph."""
    return hdt_forward(head_forward(inputs, leaves, cfg), leaves, cfg)


def model_forward(s: SampleTriplet, params: dict, cfg: ModelConfig) -> HdrImage:
    """End-to-end fusion of a triplet into a linear HDR image in [0, 1].

    Untaped: each intermediate is freed as soon as the next layer is done
    with it."""
    dt = tc.DTYPES[cfg.dtype]
    inputs = [x.astype(dt) for x in build_input(s)]
    out = forward_from_inputs(inputs, bind_params(params), cfg)
    return HdrImage(pixels=np.asarray(out.data[0], dtype=np.float64))


# ---------------------------------------------------------------------------
# checkpoint container

class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: dict, cfg: ModelConfig):
    """Self-describing container: magic, JSON manifest, little-endian float
    payloads in manifest order. Payload dtype follows the config (f32 for
    training/inference, f64 in gradient-check mode) so resuming is lossless.

    Written to ``<path>.tmp`` and then renamed over ``path``, so a failed or
    interrupted save leaves the previous file whole."""
    names = sorted(params)
    wire = "<f8" if cfg.dtype == "f64" else "<f4"
    manifest = {
        "config": asdict(cfg),
        "tensors": [{"name": k, "shape": list(params[k].shape),
                     "dtype": cfg.dtype} for k in names],
    }
    blob = json.dumps(manifest).encode()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for k in names:
            f.write(np.ascontiguousarray(params[k], dtype=wire).tobytes())
    os.replace(tmp, path)


def _parse_checkpoint(blob):
    magic = blob[:len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    if len(blob) < len(magic) + 4:
        raise CheckpointError("truncated checkpoint header")
    (mlen,) = struct.unpack_from("<I", blob, len(magic))
    pos = len(magic) + 4 + mlen
    manifest = json.loads(blob[pos - mlen:pos].decode())
    cfg = ModelConfig(**manifest["config"])
    listed = manifest["tensors"]
    # every block has tensors, so this bounds param_spec's listing by the file
    if cfg.groups * cfg.blocks_per_group > len(listed):
        raise CheckpointError(f"malformed checkpoint: {len(listed)} tensors for "
                              f"{cfg.groups} x {cfg.blocks_per_group} blocks")
    # the listing save_checkpoint writes for this config, compared as JSON
    # text so that 4.0 and true are not 4
    spec = sorted(param_spec(cfg))
    want = [json.dumps({"name": n, "shape": list(s), "dtype": cfg.dtype},
                       sort_keys=True) for n, s, _ in spec] + ["nothing"]
    got = [json.dumps(e, sort_keys=True) for e in listed] + ["nothing"]
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            raise CheckpointError(f"malformed checkpoint: tensor entry {i} "
                                  f"mismatch: file has {g}, config needs {w}")
    wire = np.dtype("<f8" if cfg.dtype == "f64" else "<f4")  # as saved
    counts = [math.prod(s) for _, s, _ in spec]
    size, need = len(blob) - pos, wire.itemsize * sum(counts)
    if size != need:
        kind = "truncated" if size < need else "has trailing bytes"
        raise CheckpointError(f"malformed checkpoint: payload {kind}: "
                              f"{size} bytes, the tensors take {need}")
    flat = np.frombuffer(blob, wire, offset=pos).astype(tc.DTYPES[cfg.dtype])
    parts = np.split(flat, np.cumsum(counts)[:-1])
    return {n: p.reshape(s) for (n, s, _), p in zip(spec, parts)}, cfg


def load_checkpoint(path):
    """Returns (params, ModelConfig); params use the config dtype.

    A malformed file raises CheckpointError; a manifest config that fails
    ModelConfig's validation raises ConfigError."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return _parse_checkpoint(blob)
    except (CheckpointError, ConfigError):
        raise
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
        raise CheckpointError(
            f"malformed checkpoint: {type(e).__name__}: {e}") from None
