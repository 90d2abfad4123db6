"""PSNR and SSIM in the tonemapped (mu-law) and linear domains."""
from __future__ import annotations

import json
import warnings

import numpy as np

from .hdrmath import mu_law

PSNR_CAP_DB = 100.0

# canonical SSIM settings
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """10*log10(peak^2 / MSE); identical images report the 100 dB cap."""
    if a.shape != b.shape:
        raise ValueError(f"psnr operands differ in shape: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(peak * peak / mse))


def _gaussian_kernel(size, sigma):
    r = np.arange(size) - (size - 1) / 2.0
    k = np.exp(-(r * r) / (2 * sigma * sigma))
    return k / k.sum()


def _filter_valid(img, k):
    # separable correlation, 'valid' positions only
    n = len(k)
    h, w = img.shape
    rows = np.zeros((h, w - n + 1))
    for i in range(n):
        rows += k[i] * img[:, i:i + w - n + 1]
    out = np.zeros((h - n + 1, w - n + 1))
    for i in range(n):
        out += k[i] * rows[i:i + h - n + 1, :]
    return out


def _to_gray(img):
    if img.ndim == 3:
        return img.mean(axis=2)
    return img


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over valid 11x11 Gaussian windows.

    Color inputs are converted to grayscale by channel mean; the dynamic
    range is taken as 1.
    """
    if a.shape != b.shape:
        raise ValueError(f"ssim operands differ in shape: {a.shape} vs {b.shape}")
    ga, gb = _to_gray(a), _to_gray(b)
    if min(ga.shape) < SSIM_WINDOW:
        raise ValueError(
            f"image {ga.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    k = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    mu_a = _filter_valid(ga, k)
    mu_b = _filter_valid(gb, k)
    var_a = _filter_valid(ga * ga, k) - mu_a * mu_a
    var_b = _filter_valid(gb * gb, k) - mu_b * mu_b
    cov = _filter_valid(ga * gb, k) - mu_a * mu_b
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


METRIC_FIELDS = ("psnr_mu", "psnr_l", "ssim_mu", "ssim_l")


def eval_report(model_fn, dataset):
    """Per-sample and mean metrics for a model over a GT-bearing dataset.

    ``model_fn`` maps a SampleTriplet to an H x W x 3 output in [0, 1].
    Samples without ground truth are skipped with a warning. Returns a list
    of row dicts; the final row has name 'mean'.
    """
    rows = []
    for s in dataset:
        if s.ground_truth is None:
            warnings.warn(f"sample {s.name!r} has no ground truth; skipped")
            continue
        out = model_fn(s)
        gt = s.ground_truth.pixels
        tm_out, tm_gt = mu_law(out), mu_law(gt)
        rows.append({
            "name": s.name,
            "psnr_mu": psnr(tm_out, tm_gt),
            "psnr_l": psnr(np.clip(out, 0, 1), np.clip(gt, 0, 1)),
            "ssim_mu": ssim(tm_out, tm_gt),
            "ssim_l": ssim(np.clip(out, 0, 1), np.clip(gt, 0, 1)),
        })
    if rows:
        mean = {"name": "mean"}
        for f in METRIC_FIELDS:
            mean[f] = float(np.mean([r[f] for r in rows]))
        rows.append(mean)
    return rows


def format_report(rows, as_json=False) -> str:
    if as_json:
        return json.dumps(rows, indent=2)
    lines = ["\t".join(("sample",) + METRIC_FIELDS)]
    for r in rows:
        lines.append("\t".join([r["name"]] +
                               [f"{r[f]:.6f}" for f in METRIC_FIELDS]))
    return "\n".join(lines)
