"""Binary PPM (P6) and PFM codecs plus the on-disk dataset layout.

Dataset layout: <root>/<sample_id>/{ldr_0.ppm, ldr_1.ppm, ldr_2.ppm,
exposures.txt, gt.pfm}. exposures.txt holds three base-2 stop values e_i,
one per line; the exposure time is t_i = 2**e_i. gt.pfm is optional.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .hdrmath import HdrImage, LdrImage, SampleTriplet

GT_PERCENTILE = 99.9


class CodecError(ValueError):
    """Malformed image file; ``offset`` is the failing byte position."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None
                         else f"{message} (byte offset {offset})")
        self.offset = offset


def _read_token(buf, pos):
    """Next whitespace-delimited token, skipping '#' comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise CodecError("unexpected end of header", offset=start)
    return buf[start:pos], pos


def _read_header(path, magics, third):
    """The file's bytes, magic, width, height, third header field (parsed by
    ``third``) and the position after it. ``magics`` are those the caller
    recognizes; the caller decides which of them it supports."""
    buf = Path(path).read_bytes()
    magic, pos = _read_token(buf, 0)
    if magic not in magics:
        expected = " or ".join(m.decode() for m in magics)
        raise CodecError(f"unrecognized magic {magic!r} (expected {expected})",
                         offset=0)
    fields = []
    for parse in (int, int, third):
        tok, pos = _read_token(buf, pos)
        try:
            value = parse(tok)
            # int takes 1_0 and +5, float nan and inf: integers are digits (a
            # minus reports as bad dimensions), a scale finite and non-zero
            if not (tok.removeprefix(b"-").isdigit() if parse is int
                    else np.isfinite(value) and value):
                raise ValueError
        except ValueError:
            raise CodecError(f"malformed header field {tok!r}",
                             offset=pos - len(tok)) from None
        fields.append(value)
    width, height, value = fields
    if width < 1 or height < 1:
        raise CodecError(f"bad dimensions {width}x{height}", offset=0)
    return buf, magic, width, height, value, pos


def read_ppm(path) -> LdrImage:
    """Decode a binary P6 PPM to [0, 1] floats (exposure time set to 1)."""
    buf, _, width, height, maxval, pos = _read_header(path, (b"P6",), int)
    if maxval not in (255, 65535):
        raise CodecError(f"unsupported maxval {maxval}", offset=0)
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    need = width * height * 3 * dtype.itemsize
    payload = buf[pos:pos + need]
    if len(payload) != need:
        raise CodecError(
            f"truncated payload: need {need} bytes, have {len(payload)}",
            offset=pos + len(payload))
    raw = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    pixels = (raw / maxval).reshape(height, width, 3)
    return LdrImage(pixels=pixels, exposure_time=1.0)


def write_ppm(path, pixels: np.ndarray, maxval: int = 255):
    """Encode [0, 1] floats as binary P6, rounding half-up."""
    if maxval not in (255, 65535):
        raise CodecError(f"unsupported maxval {maxval}")
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise CodecError(f"pixels must be H x W x 3, got {pixels.shape}")
    h, w, _ = pixels.shape
    q = np.floor(np.clip(pixels, 0.0, 1.0) * maxval + 0.5)
    dtype = np.dtype(">u2") if maxval == 65535 else np.uint8
    header = f"P6\n{w} {h}\n{maxval}\n".encode()
    Path(path).write_bytes(header + q.astype(dtype).tobytes())


def read_pfm(path) -> HdrImage:
    """Decode a color PFM (magic 'PF', rows stored bottom-up)."""
    buf, magic, width, height, scale, pos = _read_header(
        path, (b"PF", b"Pf"), float)
    if magic == b"Pf":
        raise CodecError("grayscale PFM ('Pf') is not supported", offset=0)
    pos += 1
    dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
    need = width * height * 3 * 4
    payload = buf[pos:pos + need]
    if len(buf) - pos != need:
        raise CodecError(
            f"payload length mismatch: declared {need} bytes, have {len(buf) - pos}",
            offset=pos)
    data = np.frombuffer(payload, dtype=dtype).reshape(height, width, 3)
    try:
        with np.errstate(invalid="ignore"):  # a signalling NaN; HdrImage rejects it
            return HdrImage(pixels=np.flipud(data).astype(np.float64))
    except ValueError as e:  # NaN or negative radiance
        raise CodecError(str(e), offset=pos) from None


def write_pfm(path, pixels: np.ndarray):
    """Encode H x W x 3 floats as little-endian color PFM (lossless in f32)."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise CodecError(f"pixels must be H x W x 3, got {pixels.shape}")
    h, w, _ = pixels.shape
    header = f"PF\n{w} {h}\n-1.0\n".encode()
    payload = np.flipud(pixels.astype(np.float32)).astype("<f4").tobytes()
    Path(path).write_bytes(header + payload)


class DatasetError(ValueError):
    pass


def _load_sample(sample_dir: Path) -> SampleTriplet:
    paths = [sample_dir / f"ldr_{i}.ppm" for i in range(3)]
    exp_path = sample_dir / "exposures.txt"
    for p in (*paths, exp_path):
        if not p.exists():
            raise DatasetError(f"{sample_dir}: missing {p.name}")
    lines = exp_path.read_text(errors="replace").split()  # bytes need not be UTF-8
    if len(lines) != 3:
        raise DatasetError(
            f"{sample_dir}: exposures.txt must hold 3 values, got {len(lines)}")
    times = []
    for v in lines:
        try:
            times.append(2.0 ** float(v))
        except (ValueError, OverflowError):  # not a number, or 2**v overflows
            times.append(0.0)
        if not 0.0 < times[-1] < np.inf:
            raise DatasetError(
                f"{sample_dir}: exposure stop {v!r} gives no finite positive time")
    if len(set(times)) != 3:
        raise DatasetError(f"{sample_dir}: duplicate exposure values {lines}")

    def decode(read, path):  # a codec error names its file
        try:
            return read(path)
        except CodecError as e:
            e.args = (f"{path}: {e}",)
            raise

    ldrs = [decode(read_ppm, p) for p in paths]
    order = np.argsort(times)
    ldr = tuple(
        LdrImage(pixels=ldrs[i].pixels, exposure_time=times[i]) for i in order)

    gt = None
    gt_path = sample_dir / "gt.pfm"
    if gt_path.exists():
        raw = decode(read_pfm, gt_path)
        scale = float(np.percentile(raw.pixels, GT_PERCENTILE))
        scale = max(scale, 1e-12)
        gt = HdrImage(pixels=raw.pixels / scale)
    return SampleTriplet(ldr=ldr, ground_truth=gt, name=sample_dir.name)


def max_workers():
    """Worker-thread cap from HDT_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("HDT_THREADS", "1")))
    except ValueError:
        return 1


def load_dataset(root) -> list:
    """Load every sample directory under root, ordered by sample id.

    Loading runs on a worker pool capped by HDT_THREADS; output ordering is
    deterministic regardless of worker count.
    """
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    sample_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not sample_dirs:
        raise DatasetError(f"dataset root {root} contains no sample directories")
    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        return list(pool.map(_load_sample, sample_dirs))
