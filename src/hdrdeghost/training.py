"""Tonemapped L1 objective, Adam, the patch/augmentation pipeline, a
synthetic desk-scale dataset generator, and the training loop."""
from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tc
from .codecs import DatasetError
from .hdrmath import (GAMMA, MU, HdrImage, LdrImage, SampleTriplet, build_input,
                      mu_law)
from .model import (ConfigError, ModelConfig, bind_params, forward_from_inputs,
                    model_forward, save_checkpoint)
from .metrics import psnr


@dataclass
class TrainConfig:
    batch_size: int = 16
    epochs: int = 100
    patch: int = 128
    stride: int = 64
    seed: int = 0
    lr: float = 1e-4
    max_steps: int = 0          # 0 = no cap beyond epochs

    def __post_init__(self):
        if min(self.batch_size, self.epochs, self.patch, self.stride) < 1:
            raise ConfigError("batch_size, epochs, patch and stride must be >= 1")
        if self.stride > self.patch:
            raise ConfigError("stride must not exceed patch size")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def l1_tonemapped_loss(out: tc.Tensor, gt) -> tc.Tensor:
    """Mean absolute difference of mu-law tonemapped images, as one tape node.

    The gradient reaches ``out`` only where the tonemap does not clamp it
    (0 < out < 1)."""
    od = out.data
    gt_d = np.asarray(gt)
    if od.shape != gt_d.shape:
        raise tc.ShapeError(
            f"loss operands differ in shape: {od.shape} vs {gt_d.shape}")
    d = mu_law(od) - mu_law(gt_d)

    def vjp(g):
        # the chain rule of mean, abs and log1p(MU * clip(x)) / log1p(MU), one
        # factor at a time: another order moves the gradients' last bits
        gx = np.broadcast_to(g / d.size, d.shape) * np.sign(d)
        gx *= float(1 / np.log1p(MU))
        gx /= np.clip(od, 0.0, 1.0) * MU + 1.0
        gx *= MU
        return (gx * ((od > 0) & (od < 1)),)

    return tc._make(np.abs(d).mean(), (out,), vjp)


# ---------------------------------------------------------------------------
# Adam

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decays, denominator floor


class AdamState:
    """Bias-corrected Adam moments for a named parameter dict."""

    def __init__(self, params, lr=1e-4):
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """One Adam update; returns the new parameter dict."""
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {k!r}")
    state.step_count += 1
    t = state.step_count
    out = {}
    for k, w in params.items():
        g = grads[k]
        m = state.m[k] = BETA1 * state.m[k] + (1 - BETA1) * g
        v = state.v[k] = BETA2 * state.v[k] + (1 - BETA2) * g * g
        mhat = m / (1 - BETA1 ** t)
        vhat = v / (1 - BETA2 ** t)
        out[k] = w - state.lr * mhat / (np.sqrt(vhat) + EPS)
    return out


# ---------------------------------------------------------------------------
# patches and augmentation

def _positions(extent, patch, stride):
    pos = list(range(0, extent - patch + 1, stride))
    last = extent - patch
    if pos[-1] != last:
        pos.append(last)  # snap so the border is always covered
    return pos


def crop_patches(s: SampleTriplet, patch=128, stride=64):
    """Sliding-window crops, identical coordinates for all images and GT."""
    h, w = s.ldr[0].size
    if h < patch or w < patch:
        raise ValueError(f"{s.name}: image {h}x{w} smaller than patch {patch}")
    out = []
    for y in _positions(h, patch, stride):
        for x in _positions(w, patch, stride):
            ldr = tuple(LdrImage(im.pixels[y:y + patch, x:x + patch],
                                 im.exposure_time) for im in s.ldr)
            gt = None
            if s.ground_truth is not None:
                gt = HdrImage(s.ground_truth.pixels[y:y + patch, x:x + patch])
            out.append(SampleTriplet(ldr=ldr, ground_truth=gt,
                                     name=f"{s.name}@{y},{x}"))
    return out


def _dihedral(pix, code):
    rot, flip = code % 4, code // 4
    if flip:
        pix = pix[:, ::-1]
    return np.rot90(pix, rot).copy()


def augment(s: SampleTriplet, code: int) -> SampleTriplet:
    """Dihedral-group element (4 rotations x optional horizontal flip),
    applied identically to the three LDRs and the GT. Codes 0..7."""
    if not 0 <= code <= 7:
        raise ValueError(f"augmentation code must be 0..7, got {code}")
    h, w = s.ldr[0].size
    if h != w and code % 4 in (1, 3):
        raise ValueError("90/270 degree rotation requires a square patch")
    ldr = tuple(LdrImage(_dihedral(im.pixels, code), im.exposure_time)
                for im in s.ldr)
    gt = None
    if s.ground_truth is not None:
        gt = HdrImage(_dihedral(s.ground_truth.pixels, code))
    return SampleTriplet(ldr=ldr, ground_truth=gt, name=f"{s.name}~{code}")


# ---------------------------------------------------------------------------
# synthetic data

def synth_dataset(n, seed=0, size=32):
    """Procedural radiance fields exposed at t = (0.25, 1, 4).

    Each scene is a smooth gradient plus random soft blobs; one blob is
    rigidly shifted in the non-reference frames. The LDRs invert the
    HDR-space mapping exactly wherever they are unclamped.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    times = (0.25, 1.0, 4.0)
    samples = []
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size

    for i in range(n):
        def blob(cy, cx, r, amp):
            d2 = (yy - cy) ** 2 + (xx - cx) ** 2
            return amp * np.exp(-d2 / (2 * r * r))

        gdir = rng.uniform(-1, 1, size=2)
        base = 0.25 + 0.2 * (gdir[0] * yy + gdir[1] * xx)
        radiance = np.repeat(base[:, :, None], 3, axis=2)
        blobs = [(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85),
                  rng.uniform(0.08, 0.2), rng.uniform(0.2, 0.6),
                  rng.uniform(0.3, 1.0, size=3))
                 for _ in range(rng.integers(2, 5))]
        for cy, cx, r, amp, col in blobs:
            radiance += blob(cy, cx, r, amp)[:, :, None] * col
        radiance = np.clip(radiance, 0.0, None)
        radiance /= max(radiance.max(), 1e-9)

        shift = rng.uniform(-0.06, 0.06, size=2)
        cy, cx, r, amp, col = blobs[0]
        moved = np.clip(radiance + (blob(cy + shift[0], cx + shift[1], r, amp)
                                    - blob(cy, cx, r, amp))[:, :, None] * col,
                        0.0, None)  # the non-reference frames' radiance
        moved = moved / max(moved.max(), 1e-9)
        ldr = tuple(LdrImage(np.clip((t * (radiance if j == 1 else moved))
                                     ** (1.0 / GAMMA), 0.0, 1.0), t)
                    for j, t in enumerate(times))
        samples.append(SampleTriplet(ldr=ldr,
                                     ground_truth=HdrImage(radiance),
                                     name=f"synth{i:04d}"))
    return samples


# ---------------------------------------------------------------------------
# training loop

def training_step(batch, params, cfg: ModelConfig, tcfg: TrainConfig):
    """Forward + backward on one tape per sample, so a step holds one
    sample's graph; returns (mean loss, gradients averaged over the batch)."""
    dt, loss_sum, total = tc.DTYPES[cfg.dtype], 0.0, None
    for s in batch:
        leaves = bind_params(params, tc.Tape())
        out = forward_from_inputs([x.astype(dt) for x in build_input(s)], leaves, cfg)
        loss = l1_tonemapped_loss(out, s.ground_truth.pixels[None].astype(dt))
        grads = tc.backward(loss, leaves.values())
        loss_sum += float(loss.data)
        # the sum starts from the first sample's arrays (0.0 + -0.0 is +0.0)
        # and adds into new ones: backward may hand one array to two leaves
        total = grads if total is None else [t + g for t, g in zip(total, grads)]
    return loss_sum / len(batch), {k: g / len(batch) for k, g in zip(leaves, total)}


def _eval_psnr_mu(samples, params, cfg):
    vals = []
    for s in samples:
        out = model_forward(s, params, cfg)
        vals.append(psnr(mu_law(out.pixels), mu_law(s.ground_truth.pixels)))
    return float(np.mean(vals))


def train_loop(dataset, params, cfg: ModelConfig, tcfg: TrainConfig,
               out_dir, log_fn=None):
    """Seeded mini-batch training; logs line-delimited JSON records, one per
    epoch to metrics.jsonl and one per step to steps.jsonl, and writes
    checkpoints under out_dir. Returns the final parameters. An epoch's PSNR
    scores the last max(1, N // 10) samples by name, which it also trains on.

    A dataset with no ground truth raises DatasetError. On KeyboardInterrupt
    or FloatingPointError the parameters after the last completed step are
    written to out_dir/checkpoint.hdck before the error propagates; a
    FloatingPointError's message then ends with that path."""
    dataset = [s for s in dataset if s.ground_truth is not None]
    if not dataset:
        raise DatasetError("training requires samples with ground truth")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "metrics.jsonl"
    ckpt_path = out_dir / "checkpoint.hdck"

    patches = []
    for s in dataset:
        patches.extend(crop_patches(s, tcfg.patch, tcfg.stride))
    n_val = max(1, len(dataset) // 10)
    val = sorted(dataset, key=lambda s: s.name)[-n_val:]

    rng = np.random.default_rng(tcfg.seed)
    state = AdamState(params, tcfg.lr)
    step = 0
    try:
        with open(log_path, "w") as log, open(out_dir / "steps.jsonl", "w") as steps:
            for epoch in range(tcfg.epochs):
                order = rng.permutation(len(patches))
                for lo in range(0, len(order), tcfg.batch_size):
                    idx = order[lo:lo + tcfg.batch_size]
                    batch = [augment(patches[i], int(rng.integers(0, 8)))
                             for i in idx]
                    t0 = time.perf_counter()
                    loss, grads = training_step(batch, params, cfg, tcfg)
                    params = adam_step(params, grads, state)
                    step += 1
                    step_s = time.perf_counter() - t0
                    norm = np.sqrt(sum(np.square(g, dtype=np.float64).sum()
                                       for g in grads.values()))
                    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # Linux: KB
                    steps.write(json.dumps({
                        "step": step, "loss": loss, "grad_norm": float(norm),
                        "step_s": step_s, "peak_rss_mb": kb / 1024}) + "\n")
                    steps.flush()
                    if tcfg.max_steps and step >= tcfg.max_steps:
                        break
                psnr_mu = _eval_psnr_mu(val, params, cfg)
                rec = {"epoch": epoch, "step": step, "loss": loss,
                       "psnr_mu": psnr_mu}
                log.write(json.dumps(rec) + "\n")
                log.flush()
                if log_fn:
                    log_fn(rec)
                if tcfg.max_steps and step >= tcfg.max_steps:
                    break
    except (KeyboardInterrupt, FloatingPointError) as e:
        # adam_step returns a new dict, so params is the last completed step
        save_checkpoint(ckpt_path, params, cfg)
        if isinstance(e, KeyboardInterrupt):
            raise
        raise type(e)(f"{e}; parameters of the last completed step ({step}) "
                      f"saved to {ckpt_path}") from e
    save_checkpoint(ckpt_path, params, cfg)
    return params
