"""Radiometric math and image/sample types for multi-exposure fusion."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

GAMMA = 2.2      # LDR -> radiance: pixels**GAMMA / exposure time
MU = 5000.0      # mu-law tonemap behind the loss and PSNR-mu


@dataclass(frozen=True)
class LdrImage:
    """H x W x 3 pixels in [0, 1] plus the exposure time in seconds."""
    pixels: np.ndarray
    exposure_time: float

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"LDR pixels must be H x W x 3, got {self.pixels.shape}")
        if self.exposure_time <= 0:
            raise ValueError(f"exposure time must be positive, got {self.exposure_time}")

    @property
    def size(self):
        return self.pixels.shape[:2]


@dataclass(frozen=True)
class HdrImage:
    """H x W x 3 non-negative linear radiance."""
    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"HDR pixels must be H x W x 3, got {self.pixels.shape}")
        if not np.all(np.isfinite(self.pixels)) or np.any(self.pixels < 0):
            raise ValueError("HDR pixels must be finite and non-negative")

    @property
    def size(self):
        return self.pixels.shape[:2]


@dataclass(frozen=True)
class SampleTriplet:
    """Short/medium/long exposure LDRs plus an optional ground-truth HDR.

    The medium-exposure image is the reference.
    """
    ldr: tuple
    ground_truth: Optional[HdrImage] = None
    name: str = ""

    def __post_init__(self):
        if len(self.ldr) != 3:
            raise ValueError(f"a triplet needs 3 LDR images, got {len(self.ldr)}")
        times = [im.exposure_time for im in self.ldr]
        if not (times[0] < times[1] < times[2]):
            raise ValueError(f"exposure times must be strictly increasing, got {times}")
        sizes = {im.size for im in self.ldr}
        if self.ground_truth is not None:
            sizes.add(self.ground_truth.size)
        if len(sizes) != 1:
            raise ValueError(f"all images in a triplet must share H x W, got {sizes}")


def gamma_correct(img: LdrImage) -> np.ndarray:
    """Map an LDR image into HDR space: pixels**GAMMA / exposure_time."""
    return img.pixels ** GAMMA / img.exposure_time


def build_input(s: SampleTriplet):
    """Per-exposure 6-channel network inputs: [LDR RGB, gamma-corrected RGB].

    Returns three 1 x H x W x 6 arrays, ordered short/medium/long.
    """
    out = []
    for img in s.ldr:
        six = np.concatenate([img.pixels, gamma_correct(img)], axis=2)
        out.append(six[None, ...])
    return out


def mu_law(x: np.ndarray) -> np.ndarray:
    """Log range compression log(1 + MU*x) / log(1 + MU) on [0, 1] inputs.

    Values above 1 are clamped before the mapping. Float inputs keep their
    dtype.
    """
    xc = np.clip(x, 0.0, 1.0)
    return np.log1p(MU * xc) / float(np.log1p(MU))

