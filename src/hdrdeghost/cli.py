"""Command-line entry point: fuse, train, eval, gradcheck, inspect.

Exit codes: 0 success, 1 I/O or data error, 2 config/checkpoint mismatch,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import codecs, gradcheck, metrics
from .codecs import CodecError, DatasetError
from .config import parse_config
from .hdrmath import mu_law
from .model import (CheckpointError, ConfigError, init_params, load_checkpoint,
                    model_forward, param_manifest, save_checkpoint)
from .training import TrainingError, TrainConfig, synth_dataset, train_loop

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _config_diff(a, b):
    da, db = asdict(a), asdict(b)
    return [f"{k}: checkpoint={da[k]!r} config={db[k]!r}"
            for k in da if da[k] != db[k]]


def cmd_fuse(args):
    try:
        params, cfg = load_checkpoint(args.checkpoint)
    except (OSError, CheckpointError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(e, (CheckpointError, ConfigError)) else EXIT_IO
    mu = 5000.0
    if args.config:
        try:
            file_cfg, tcfg = parse_config(args.config)
        except (OSError, ConfigError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_CONFIG if isinstance(e, ConfigError) else EXIT_IO
        mu = tcfg.mu
        diff = _config_diff(cfg, file_cfg)
        if diff:
            print("error: checkpoint/config mismatch:\n  "
                  + "\n  ".join(diff), file=sys.stderr)
            return EXIT_CONFIG
    try:
        sample = codecs._load_sample(Path(args.input))
        out = model_forward(sample, params, cfg)
        codecs.write_pfm(args.output, out.pixels)
        if args.tonemapped:
            codecs.write_ppm(args.tonemapped, mu_law(out.pixels, mu))
    except (OSError, DatasetError, CodecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_train(args):
    try:
        cfg, tcfg = parse_config(args.config)
    except (OSError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(e, ConfigError) else EXIT_IO
    if args.ablate:
        flags = {"sar": {"sar": False},
                 "dt": {"deformable": False},
                 "both": {"sar": False, "deformable": False}}[args.ablate]
        cfg = replace(cfg, **flags)
    try:
        if args.synthetic:
            dataset = synth_dataset(args.synthetic, seed=tcfg.seed,
                                    size=tcfg.patch, gamma=tcfg.gamma)
        else:
            dataset = codecs.load_dataset(args.data)
    except (DatasetError, CodecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
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
    except TrainingError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_eval(args):
    try:
        params, cfg = load_checkpoint(args.checkpoint)
    except (OSError, CheckpointError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(e, (CheckpointError, ConfigError)) else EXIT_IO
    try:
        dataset = codecs.load_dataset(args.data)
    except (DatasetError, CodecError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    if not any(s.ground_truth is not None for s in dataset):
        print("error: no sample in the dataset has ground truth", file=sys.stderr)
        return EXIT_IO
    rows = metrics.eval_report(
        lambda s: model_forward(s, params, cfg).pixels, dataset)
    print(metrics.format_report(rows, as_json=args.json))
    return EXIT_OK


def cmd_gradcheck(args):
    if args.scale != "tiny":
        print(f"error: unsupported scale {args.scale!r} (only 'tiny')",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.ops != "all" and args.ops not in gradcheck.op_names():
        print(f"error: unknown op {args.ops!r}; choices: all, "
              + ", ".join(gradcheck.op_names()), file=sys.stderr)
        return EXIT_CONFIG
    results = gradcheck.run_suite(args.ops, seed=args.seed)
    failed = False
    for name, (err, tol) in results.items():
        ok = err <= tol
        failed |= not ok
        print(f"{name:20s} max rel err {err:.3e}  tol {tol:g}  "
              f"{'PASS' if ok else 'FAIL'}")
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_inspect(args):
    try:
        if args.checkpoint:
            params, cfg = load_checkpoint(args.checkpoint)
        else:
            cfg, _ = parse_config(args.config) if args.config else parse_config(text="")
            params = init_params(cfg, seed=0)
    except (OSError, CheckpointError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(e, (CheckpointError, ConfigError)) else EXIT_IO
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
    p.add_argument("--ablate", choices=["sar", "dt", "both"])
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--scale", default="tiny")
    p.add_argument("--ops", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("inspect", help="print config and parameter manifest")
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_inspect)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
