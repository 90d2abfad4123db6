"""Per-operation output checks and the committed reference outputs.

The readers here are independent of ``hdrdeghost.codecs``, so a codec bug
cannot hide its own output. Each check returns None when the output passes,
else a one-line reason.

Tolerances. ROADMAP item 2 makes every kernel keep f32; today
``deformable_conv2d`` promotes to f64, so the reference was made with most
of the body in f64. Making it keep f32 (casting its bilinear weights back to
the input dtype) moved the fused canary by 2.7e-5, the canary losses by 1e-7
relative, each gradient norm by 4.1e-6 relative beyond GRAD_ATOL, and the
eval metrics by under 2e-7. Each bound below admits that with a margin of
10 or more. A wrong kernel moves them further. Each of these fails at least
one workload's check: a 10% error in the leaky-ReLU slope (fused output off
by 0.049), swapped bilinear weights (0.016), layer-norm eps 1e-4 instead of
1e-5 (6.1e-4), a 1% error in the conv weight gradient, or a 5% error in the
offset gradient.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FUSE_ATOL = 3e-4        # max |pixel - reference| of the linear fused output
LOSS_RTOL = 1e-4        # relative error of a canary step's loss
GRAD_RTOL = 1e-3        # relative error of each parameter's gradient norm,
GRAD_ATOL = 1e-6        # plus this share of the global norm: some gradients
                        # (attention key biases) are zero up to rounding
EVAL_ATOL = {"psnr_mu": 1e-3, "psnr_l": 1e-3,   # dB
             "ssim_mu": 1e-5, "ssim_l": 1e-5}
METRIC_FIELDS = tuple(EVAL_ATOL)
MU = 5000.0


def _header(buf, count):
    """The first ``count`` whitespace-separated header tokens and the offset
    of the payload, which follows one whitespace byte."""
    tokens, pos = [], 0
    while len(tokens) < count:
        while buf[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        tokens.append(buf[start:pos].decode("ascii"))
    return tokens, pos + 1


def read_pfm(path):
    """Colour PFM -> H x W x 3 float32, top row first."""
    buf = Path(path).read_bytes()
    (magic, w, h, scale), pos = _header(buf, 4)
    if magic != "PF":
        raise ValueError(f"{path}: not a colour PFM")
    dtype = "<f4" if float(scale) < 0 else ">f4"
    data = np.frombuffer(buf, dtype=dtype, offset=pos)
    return np.flipud(data.reshape(int(h), int(w), 3)).astype(np.float32)


def read_ppm(path):
    """8-bit binary PPM -> H x W x 3 uint8."""
    buf = Path(path).read_bytes()
    (magic, w, h, maxval), pos = _header(buf, 4)
    if magic != "P6" or maxval != "255":
        raise ValueError(f"{path}: not an 8-bit binary PPM")
    return np.frombuffer(buf, dtype=np.uint8, offset=pos).reshape(
        int(h), int(w), 3)


def _mu_law(x):
    return np.log1p(MU * np.clip(x, 0.0, 1.0)) / np.log1p(MU)


# ---------------------------------------------------------------------------
# fuse

def check_fuse(pfm_path, ppm_path, shape, expected=None):
    """A finite H x W x 3 image in [0, 1], a PPM preview that is its mu-law
    tonemap to within 8-bit rounding, and, given ``expected``, within
    FUSE_ATOL of it."""
    try:
        hdr = read_pfm(pfm_path)
        ldr = read_ppm(ppm_path)
    except (OSError, ValueError) as e:
        return f"unreadable output: {e}"
    if hdr.shape != (*shape, 3) or ldr.shape != hdr.shape:
        return f"output shape {hdr.shape} / preview {ldr.shape}, want {shape}"
    if not np.all(np.isfinite(hdr)):
        return "non-finite output pixels"
    if hdr.min() < 0.0 or hdr.max() > 1.0:
        return f"output range [{hdr.min()}, {hdr.max()}] outside [0, 1]"
    tm_err = np.abs(ldr / 255.0 - _mu_law(hdr.astype(np.float64))).max()
    if tm_err > 0.5 / 255 + 1e-6:
        return f"preview is not the mu-law tonemap (max error {tm_err:.4g})"
    if expected is not None:
        err = float(np.abs(hdr - expected).max())
        if err > FUSE_ATOL:
            return f"output differs from reference by {err:.3g} > {FUSE_ATOL}"
    return None


# ---------------------------------------------------------------------------
# train

def grad_norms(grads):
    """{parameter name: L2 norm of its gradient}, in float64."""
    return {k: float(np.linalg.norm(g.astype(np.float64).ravel()))
            for k, g in grads.items()}


def global_norm(norms):
    return math.sqrt(sum(v * v for v in norms.values()))


def check_step(loss, norms, expected=None):
    """A finite loss and gradients; given ``expected`` = {"loss": ..,
    "grad_norms": {name: norm}}, the loss within LOSS_RTOL and every
    parameter's gradient norm within GRAD_RTOL + GRAD_ATOL of it."""
    if not (math.isfinite(loss) and math.isfinite(global_norm(norms))):
        return f"non-finite step: loss {loss}, grad norm {global_norm(norms)}"
    if expected is None:
        return None
    if abs(loss - expected["loss"]) > LOSS_RTOL * abs(expected["loss"]):
        return f"loss {loss!r} differs from reference {expected['loss']!r}"
    want = expected["grad_norms"]
    if set(norms) != set(want):
        return f"gradients for {sorted(set(norms) ^ set(want))[:3]}... differ"
    atol = GRAD_ATOL * global_norm(want)
    for k, w in want.items():
        if abs(norms[k] - w) > GRAD_RTOL * w + atol:
            return f"gradient norm of {k} {norms[k]!r} differs from {w!r}"
    return None


# ---------------------------------------------------------------------------
# eval

def parse_eval(text, names):
    """Rows of an ``eval --json`` report keyed by sample name, or a reason.

    Every sample in ``names`` must appear, followed by the mean row, each
    with four finite metrics."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        return None, f"unparseable eval output: {e}"
    got = [r.get("name") for r in rows] if isinstance(rows, list) else None
    if got != sorted(names) + ["mean"]:
        return None, f"eval rows {got} do not match the dataset"
    for r in rows:
        vals = [r.get(f) for f in METRIC_FIELDS]
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in vals):
            return None, f"non-finite metrics in row {r.get('name')!r}"
    return {r["name"]: r for r in rows}, None


def check_eval_row(row, expected):
    for f, tol in EVAL_ATOL.items():
        if abs(row[f] - expected[f]) > tol:
            return (f"{row['name']}.{f} = {row[f]!r} differs from "
                    f"{expected[f]!r} by more than {tol}")
    return None


# ---------------------------------------------------------------------------
# committed references

def load_reference():
    """{"fuse_full": H x W x 3 array, "train_full": [steps],
    "eval_tiny": row}, from the files make_reference.py writes."""
    ref = json.loads((REFERENCE_DIR / "reference.json").read_text())
    ref["fuse_full"] = np.load(REFERENCE_DIR / "fuse_canary.npy")
    return ref


def save_reference(fuse_pixels, train_steps, eval_row):
    REFERENCE_DIR.mkdir(exist_ok=True)
    np.save(REFERENCE_DIR / "fuse_canary.npy", fuse_pixels.astype(np.float32))
    (REFERENCE_DIR / "reference.json").write_text(json.dumps(
        {"train_full": train_steps, "eval_tiny": eval_row}, indent=1) + "\n")
