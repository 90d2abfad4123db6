"""Finite-difference verification of every differentiable kernel and of the
full desk-scale model.

All checks run in float64: central differences are unreliable in float32.
Relative error is max|analytic - numeric| / (max|numeric| + 1e-12).
"""
from __future__ import annotations

import numpy as np

from . import tensor as tc
from .head import head_forward
from .model import dt_forward, forward_from_inputs, init_params, tiny_preset
from .training import (TrainConfig, l1_tonemapped_loss, synth_dataset,
                       training_step)
from .hdrmath import build_input

OP_TOLERANCE = 1e-4
MODEL_TOLERANCE = 1e-3
FD_STEP = 1e-4


def rel_error(analytic, numeric):
    # denominator floored so exactly-cancelling gradients (e.g. an attention
    # key bias, which window_attention's row normalization cancels) compare
    # at FD noise level
    denom = max(float(np.abs(numeric).max()), 1e-3)
    return float(np.abs(analytic - numeric).max() / denom)


def central_difference(f, x, i, h=FD_STEP):
    """Central difference of the scalar ``f()`` in flat entry ``i`` of the
    float64 array ``x``, which ``f`` reads: the entry is perturbed in place
    and restored."""
    orig = x.flat[i]  # x.flat writes through even where reshape would copy
    x.flat[i] = orig + h
    fp = f()
    x.flat[i] = orig - h
    fm = f()
    x.flat[i] = orig
    return (fp - fm) / (2.0 * h)


def check_function(build, arrays, h=FD_STEP):
    """Max FD relative error of a scalar tensor function over its inputs.

    ``build`` maps len(arrays) tensors to a scalar Tensor. One taped pass
    gives every input's analytic gradient.
    """
    tape = tc.Tape()
    leaves = [tc.Tensor(a, tape) for a in arrays]
    grads = tc.backward(build(*leaves), leaves)

    def f():
        # untaped: finite differences need values, not a graph
        return float(build(*arrays).data)

    worst = 0.0
    for a, g in zip(arrays, grads):
        numeric = np.array([central_difference(f, a, i, h)
                            for i in range(a.size)]).reshape(a.shape)
        worst = max(worst, rel_error(g, numeric))
    return worst


def _weighted(rng, shape):
    c = tc.Tensor(rng.normal(size=shape))
    return lambda y: tc.sum_(tc.mul(y, c))


def _op_checks(rng):
    """One (build, arrays) case per kernel, freshly randomized."""
    x = rng.normal(size=(2, 6, 6, 2))  # batch 2: per-image row offsets
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=3)
    # fractional parts bounded away from integers: bilinear sampling has
    # derivative kinks at grid points that central differences straddle
    off = (rng.integers(-1, 2, size=(2, 6, 6, 18)).astype(float)
           + rng.uniform(0.3, 0.7, size=(2, 6, 6, 18)))
    xx = rng.normal(size=(4, 5))
    checks = {}

    s = _weighted(rng, (2, 6, 6, 3))
    checks["conv2d"] = (lambda x, w, b: s(tc.conv2d(x, w, b, dilation=2)),
                        [x, w, b])
    s2 = _weighted(rng, (2, 6, 6, 3))
    checks["deformable_conv2d"] = (
        lambda x, w, b, o: s2(tc.deformable_conv2d(x, w, b, o)),
        [x, w, b, off])
    s3 = _weighted(rng, (4, 5))
    checks["layer_norm"] = (
        lambda x, g, bt: s3(tc.layer_norm(x, g, bt)),
        [xx, rng.normal(size=5), rng.normal(size=5)])
    s4 = _weighted(rng, (4, 3))
    checks["linear"] = (lambda x, w, b: s4(tc.linear(x, w, b)),
                        [xx, rng.normal(size=(5, 3)), rng.normal(size=3)])
    s5 = _weighted(rng, (2, 3, 4))  # 2 windows, 3 tokens, 2 heads of 2
    checks["window_attention"] = (
        lambda q, k, v: s5(tc.window_attention(q, k, v, 2)),
        [rng.normal(size=(2, 3, 4)) for _ in range(3)])
    checks["sigmoid"] = (lambda x: tc.sum_(tc.sigmoid(x)), [xx])
    checks["leaky_relu"] = (lambda x: tc.sum_(tc.leaky_relu(x)), [xx])
    checks["add_mul"] = (
        lambda a, b2: tc.sum_(tc.mul(tc.add(a, b2), b2)), [xx, rng.normal(size=(4, 5))])
    s6 = _weighted(rng, (2, 2))
    checks["global_avg_pool"] = (lambda x: s6(tc.global_avg_pool(x)), [x])
    # the 36 pixels of a 6 x 6 grid reflect-padded to 10 x 9: 90 rows, with
    # repeats, as a padded window layout reads them
    s7 = _weighted(rng, (2, 90, 2))
    rows = np.pad(np.arange(36).reshape(6, 6), ((2, 2), (1, 2)),
                  mode="reflect").ravel()
    checks["take"] = (lambda x: s7(tc.take(x, rows)), [x.reshape(2, 36, 2)])
    s8 = _weighted(rng, (2, 6, 6, 2))
    checks["concat"] = (
        lambda a, b2: s8(tc.concat([a, b2], axis=0)),
        [rng.normal(size=(2, 6, 6, 2))[:1], rng.normal(size=(1, 6, 6, 2))])
    xl = rng.normal(size=(2, 4, 4, 3))
    out = 1.0 / (1.0 + np.exp(-xl))
    # each target 0.05-0.3 from its output: the L1 loss has a kink where
    # they meet, which central differences cannot straddle
    gap = rng.uniform(0.05, 0.3, size=out.shape)
    target = np.where(out < 0.5, out + gap, out - gap)
    checks["loss"] = (
        lambda x: l1_tonemapped_loss(tc.sigmoid(x), target), [xl])
    # window_attention's two stages on their own, 2 windows, 3 tokens, 2
    # heads of 3: one-hot values read the probability map of the scores
    # out; fixed queries and keys leave the probabilities' product with v
    s9 = _weighted(rng, (2, 3, 6))
    onehot = np.tile(np.eye(3), (2, 1, 2))
    checks["window_attention/probs"] = (
        lambda q, k: s9(tc.window_attention(q, k, onehot, 2)),
        [rng.normal(size=(2, 3, 6)) for _ in range(2)])
    s10 = _weighted(rng, (2, 3, 6))
    qc, kc = rng.normal(size=(2, 2, 3, 6))
    checks["window_attention/values"] = (
        lambda v: s10(tc.window_attention(qc, kc, v, 2)),
        [rng.normal(size=(2, 3, 6))])
    return checks


def check_op(name, seeds=20, seed=0):
    worst = 0.0  # over RNG seeds 1000 + seed * seeds onward
    for i in range(seeds):
        rng = np.random.default_rng(1000 + seed * seeds + i)
        checks = _op_checks(rng)
        if name not in checks:
            raise KeyError(f"unknown op {name!r}; choices: {sorted(checks)}")
        build, arrays = checks[name]
        worst = max(worst, check_function(build, arrays))
    return worst


def op_names():
    return sorted(_op_checks(np.random.default_rng(0)))


def _frac_offsets(params, rng):
    # nudge offset predictors off the integer-coordinate bilinear kink,
    # where one-sided derivatives disagree with central differences
    for k in params:
        if k.endswith(".off.b"):
            params[k] = rng.uniform(0.1, 0.4, size=params[k].shape)
    return params


def _random_like(params, rng, scale=0.4):
    # O(1)-scale draws keep activations clear of the leaky_relu corner,
    # which central differences cannot straddle
    out = {k: rng.normal(0.0, scale, size=v.shape) for k, v in params.items()}
    return _frac_offsets(out, rng)


def _check_subset(params, prefix, forward, wsum):
    """FD check of sum(forward(p) * wsum) over the parameters named
    ``prefix*``, where ``forward`` maps a parameter dict to an output."""
    names = sorted(k for k in params if k.startswith(prefix))

    def build(*leaves):
        return tc.sum_(tc.mul(forward(dict(zip(names, leaves))), wsum))

    return check_function(build, [params[n] for n in names])


def check_dt_block(seed=0):
    """FD check of one full dual-transformer block (all its parameters)."""
    cfg = tiny_preset(dtype="f64")
    rng = np.random.default_rng(seed)
    params = _random_like(init_params(cfg, seed), rng)
    x = tc.Tensor(rng.normal(size=(1, 8, 8, cfg.embed_dim)))
    wsum = tc.Tensor(rng.normal(size=x.shape))
    return _check_subset(
        params, "group0.dt0",
        lambda p: dt_forward(x, p, "group0.dt0", cfg, shift=2), wsum)


def check_head(seed=0):
    cfg = tiny_preset(dtype="f64")
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    ins = [tc.Tensor(rng.uniform(0, 1, size=(1, 6, 6, 6))) for _ in range(3)]
    wsum = tc.Tensor(rng.normal(size=(1, 6, 6, 4 * cfg.channels)))
    return _check_subset(params, "head.",
                         lambda p: head_forward(ins, p, cfg), wsum)


def check_full_model(seed=0, n_params=200, h=FD_STEP, size=16, cfg=None):
    """``training_step``'s gradient vs finite differences of its loss on the
    tiny preset (or a caller-supplied f64 config), at random parameter entries."""
    if cfg is None:
        cfg = tiny_preset(dtype="f64")
    if cfg.dtype != "f64":
        raise ValueError("gradient checks require an f64 config")
    rng = np.random.default_rng(seed)
    params = _frac_offsets(init_params(cfg, seed), rng)
    sample = synth_dataset(1, seed=seed, size=size)[0]
    inputs = build_input(sample)
    gt = sample.ground_truth.pixels[None, ...]

    _, analytic = training_step([sample], params, cfg, TrainConfig())

    def loss():  # untaped: finite differences need values, not a graph
        return float(l1_tonemapped_loss(forward_from_inputs(inputs, params, cfg),
                                        gt).data)

    names = sorted(params)
    entries = []
    for _ in range(n_params):
        name = names[rng.integers(len(names))]
        entries.append((name, int(rng.integers(params[name].size))))

    numeric = [central_difference(loss, params[name], flat, h)
               for name, flat in entries]
    return rel_error(np.asarray([analytic[name].reshape(-1)[flat]
                                 for name, flat in entries]),
                     np.asarray(numeric))


def run_suite(ops="all", seeds=20, seed=0):
    """Returns {name: (max_rel_err, tolerance)} for the requested checks."""
    results = {}
    targets = op_names() if ops == "all" else [ops]
    for name in targets:
        results[name] = (check_op(name, seeds=seeds, seed=seed), OP_TOLERANCE)
    if ops == "all":
        results["head"] = (check_head(seed), OP_TOLERANCE)
        results["dt_block"] = (check_dt_block(seed), OP_TOLERANCE)
        results["full_model"] = (check_full_model(seed), MODEL_TOLERANCE)
    return results
