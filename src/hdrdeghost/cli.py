"""Command-line entry point: fuse, train, eval, gradcheck, inspect.

Exit codes: 0 success (also a Ctrl-C'd ``train``); 1 I/O or data error
(``OSError``, ``MemoryError``, and ``ValueError`` such as ``CodecError``,
``DatasetError`` or ``ShapeError``); 2 config/checkpoint mismatch
(``ConfigError``, ``CheckpointError``); 3 numerical failure
(``FloatingPointError``, a failed gradcheck). The commands raise; ``main``
alone maps an error to its code through ``EXIT_CODES`` and prints
``error: <message>`` with no traceback. Any other exception is a bug and
keeps its traceback.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import asdict
from pathlib import Path

from . import codecs, gradcheck, metrics
from .codecs import DatasetError
from .config import parse_config
from .hdrmath import mu_law
from .model import (CheckpointError, ConfigError, init_params, load_checkpoint,
                    model_forward, param_manifest, param_spec)
from .training import synth_dataset, train_loop

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# error kind -> exit code, most specific first: ConfigError, CheckpointError
# and the codec, dataset and shape errors are all ValueErrors
EXIT_CODES = (
    ((ConfigError, CheckpointError), EXIT_CONFIG),
    ((FloatingPointError,), EXIT_NUMERIC),
    ((OSError, ValueError, MemoryError), EXIT_IO),
)

# glibc's malloc thresholds, pinned for a CLI process. Left dynamic, the mmap
# threshold follows the largest block freed, and the heap's top is returned
# and faulted back in between kernel calls: 95k page faults in one eval, 9k
# pinned. Arrays under 32 MB stay on the heap, which costs RSS at 256².
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers
MMAP_THRESHOLD, TRIM_THRESHOLD = 32 << 20, 64 << 20


def _pin_allocator():
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc: keep its own allocator
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _config_diff(a, b):
    da, db = asdict(a), asdict(b)
    return [f"{k}: checkpoint={da[k]!r} config={db[k]!r}"
            for k in da if da[k] != db[k]]


def cmd_fuse(args):
    params, cfg = load_checkpoint(args.checkpoint)
    if args.config:
        file_cfg, _ = parse_config(args.config)
        diff = _config_diff(cfg, file_cfg)
        if diff:
            raise ConfigError("checkpoint/config mismatch:\n  "
                              + "\n  ".join(diff))
    sample = codecs._load_sample(Path(args.input))
    out = model_forward(sample, params, cfg)
    codecs.write_pfm(args.output, out.pixels)
    if args.tonemapped:
        codecs.write_ppm(args.tonemapped, mu_law(out.pixels))
    return EXIT_OK


def cmd_train(args):
    cfg, tcfg = parse_config(args.config)
    if args.synthetic:
        dataset = synth_dataset(args.synthetic, seed=tcfg.seed, size=tcfg.patch)
    else:
        dataset = codecs.load_dataset(args.data)
    params = init_params(cfg, seed=tcfg.seed)
    out_dir = Path(args.out)

    def log_fn(rec):
        print(f"epoch {rec['epoch']} step {rec['step']} "
              f"loss {rec['loss']:.6f} psnr_mu {rec['psnr_mu']:.2f}")

    try:
        train_loop(dataset, params, cfg, tcfg, out_dir, log_fn=log_fn)
    except KeyboardInterrupt:
        print("interrupted; parameters of the last completed step saved to "
              f"{out_dir / 'checkpoint.hdck'}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args):
    params, cfg = load_checkpoint(args.checkpoint)
    dataset = codecs.load_dataset(args.data)
    skipped = [s.name for s in dataset if s.ground_truth is None]
    dataset = [s for s in dataset if s.ground_truth is not None]
    if not dataset:
        raise DatasetError("no sample in the dataset has ground truth")
    if skipped:
        print("note: no ground truth, skipped:", *skipped, file=sys.stderr)
    rows = metrics.eval_report(
        lambda s: model_forward(s, params, cfg).pixels, dataset)
    print(metrics.format_report(rows, as_json=args.json))
    return EXIT_OK


def cmd_gradcheck(args):
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    if args.ops != "all" and args.ops not in gradcheck.op_names():
        raise ConfigError(f"unknown op {args.ops!r}; choices: all, "
                          + ", ".join(gradcheck.op_names()))
    results = gradcheck.run_suite(args.ops, seed=args.seed)
    failed = False
    for name, (err, tol) in results.items():
        ok = err <= tol
        failed |= not ok
        print(f"{name:24s} max rel err {err:.3e}  tol {tol:g}  "
              f"{'PASS' if ok else 'FAIL'}")
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_inspect(args):
    if args.checkpoint:
        params, cfg = load_checkpoint(args.checkpoint)
    else:
        cfg, _ = parse_config(args.config)
        params = {name: shape for name, shape, _ in param_spec(cfg)}
    print("config:")
    for k, v in asdict(cfg).items():
        print(f"  {k} = {v}")
    rows, total = param_manifest(params)
    print("parameters:")
    for name, shape, count in rows:
        print(f"  {name:40s} {str(shape):24s} {count}")
    print(f"total parameters: {total}")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hdrdeghost",
        description="Ghost-free HDR fusion of multi-exposure LDR triplets")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fuse one LDR triplet into an HDR image")
    p.add_argument("--input", required=True, help="sample directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True, help="linear HDR output (.pfm)")
    p.add_argument("--tonemapped", help="optional tonemapped preview (.ppm)")
    p.add_argument("--config", help="config file to validate against")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("train", help="train a model")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="dataset root directory")
    src.add_argument("--synthetic", type=int, metavar="N",
                     help="train on N generated samples")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--ops", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("inspect", help="print config and parameter manifest")
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_inspect)
    return ap


def main(argv=None):
    _pin_allocator()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(kind for kinds, _ in EXIT_CODES for kind in kinds) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(e, kinds))


if __name__ == "__main__":
    sys.exit(main())
