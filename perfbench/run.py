#!/usr/bin/env python3
"""Benchmark of hdrdeghost's user paths, measured from outside the program.

    python3 perfbench/run.py --workload fuse_full --seed 1 --seconds 40 --trace 0

Workloads: fuse_full, train_full, eval_tiny (see README.md). Sets up the
workload's inputs from the seed several times and reports the median set-up
time, then runs operations one after another for about ``--seconds``, in
whole groups (a train_full group is a six-step episode), and checks every
output. With ``--trace 0`` it reports the end-to-end metrics. With
``--trace 1`` it runs half the time untraced and half traced and reports
the per-layer metrics, including the tracing overhead between the halves.

Prints every metric with its unit, the environment, and as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}. The full result,
with every op and, when traced, every span, goes to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import GROUPS, Tracer, layer_metrics, unit_tables

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 9
WORKLOADS = ("fuse_full", "train_full", "eval_tiny")

NPROC = len(os.sched_getaffinity(0))
# set before numpy loads OpenBLAS; children inherit them
THREAD_ENV = {"OPENBLAS_NUM_THREADS": str(NPROC),
              "OMP_NUM_THREADS": str(NPROC), "HDT_THREADS": "1"}

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "px_per_s": "px/s",
              "peak_rss_mb": "MB"}

_FUNCTIONS = (
    ["head.head_forward"]
    + [f"model.{f}" for f in (
        "forward_from_inputs", "hdt_forward", "global_branch", "local_branch",
        "msa", "window_partition", "window_reverse", "load_checkpoint",
        "init_params", "save_checkpoint")]
    + [f"training.{f}" for f in (
        "training_step", "adam_step", "l1_tonemapped_loss", "synth_dataset")]
    + ["hdrmath.build_input", "hdrmath.mu_law"]
    + [f"codecs.{f}" for f in (
        "read_ppm", "read_pfm", "write_ppm", "write_pfm", "load_dataset")]
    + ["metrics.ssim", "metrics.psnr", "metrics.eval_report", "cli.main"])


PER_LAYER = {
    **{f"tensor.{g}.{stat}": unit for g in GROUPS for stat, unit in (
        ("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"), ("out_mb", "MB"))},
    "tensor.backward.self_s": "s", "tensor.tape.nodes": "count",
    "tensor.tape.mb": "MB",
    **{f"{f}.s": "s" for f in _FUNCTIONS},
    "cli.startup_s": "s", "gc.collections": "count", "gc.pause_s": "s",
    "trace.missed_share": "share", "trace.overhead_s": "s",
}


def environment():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    with open("/proc/meminfo") as f:
        mem = next((ln.split()[1] for ln in f if ln.startswith("MemTotal:")), 0)
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": blas, "nproc": NPROC, "mem_total_kb": int(mem),
            "threads": {k: os.environ.get(k) for k in THREAD_ENV},
            "rules": "no gc.collect() between ops; one process per "
                     "fuse_full or eval_tiny op and per train_full episode"}


def phase(wl, seconds, first_op, tracer=None, trace_dir=None):
    """Whole groups of ``wl.group`` ops back to back, at least one. Another
    group starts while it would end, if as long as the last, no more than
    half a group past ``seconds``. Returns the op records."""
    ops = []
    t0 = last = perf_counter()
    while True:
        ops += wl.run_group(first_op + len(ops), tracer, trace_dir)
        now = perf_counter()
        if now - t0 + (now - last) / 2 >= seconds:
            return ops
        last = now


def end_to_end(wl, setup_times, ops):
    """px_per_s counts the ops' own wall time, not the benchmark's checks
    between them."""
    return {"setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(r["wall_s"] for r in ops),
            "px_per_s": sum(r["px"] for r in ops) / sum(r["wall_s"] for r in ops),
            "peak_rss_mb": wl.peak_rss_mb(ops)}


def per_layer(parent_records, traced_ops, untraced_ops, n_setups):
    # a child that failed before writing its trace is already a failed op
    paths = dict.fromkeys(r["trace"] for r in traced_ops if r.get("trace"))
    records = [parent_records] + [json.loads(Path(p).read_text())
                                  for p in paths if Path(p).is_file()]
    tables, selfs = {}, {}
    for rec in records:
        t, s = unit_tables(rec)
        for unit, row in t.items():
            tables.setdefault(unit, {}).update(row)
        for unit, row in s.items():
            selfs.setdefault(unit, {}).update(row)
    for r in traced_ops:
        row = tables.setdefault(r["op"], {})
        busy = r["wall_s"] - row.get("cli.startup_s", 0.0)
        row["trace.missed_share"] = 1.0 - row.get("trace.covered_s", 0.0) / busy
    names = [n for n in PER_LAYER if n != "trace.overhead_s"]
    metrics = layer_metrics(names, tables, [r["op"] for r in traced_ops],
                            list(range(-1, -n_setups - 1, -1)))
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced_ops)
        - statistics.median(r["wall_s"] for r in untraced_ops))
    spans = [s for rec in records for s in rec["spans"]]
    return metrics, {"self_s": selfs, "spans": spans}


def run(args, work):
    import checks  # these load numpy, so only after THREAD_ENV is set
    import workloads

    wl = workloads.WORKLOADS[args.workload](work, args.seed, checks.load_reference())
    tracer = Tracer().install() if args.trace else None
    setup_times = []
    for k in range(SETUPS):
        if tracer:
            tracer.unit = -1 - k
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
    if tracer:
        tracer.uninstall()

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "setup_s": setup_times}
    if not args.trace:
        ops = phase(wl, args.seconds, 0)
        metrics = end_to_end(wl, setup_times, ops)
        units = END_TO_END
    else:
        untraced = phase(wl, args.seconds / 2, 0)
        trace_dir = work / "trace"
        trace_dir.mkdir()
        if wl.in_process:  # forked episodes inherit the installed tracer
            tracer.install()
        traced = phase(wl, args.seconds / 2, len(untraced),
                       tracer if wl.in_process else None, trace_dir)
        tracer.uninstall()
        ops = untraced + traced
        metrics, detail = per_layer(tracer.records(), traced, untraced, SETUPS)
        result.update(detail)
        units = PER_LAYER
    failed = sum(r["error"] is not None for r in ops)
    result.update(ops=ops, op_fail_ratio=failed / len(ops), metrics=metrics)
    return result, units, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hdrdeghost" / "__init__.py").is_file():
        print(f"error: no hdrdeghost sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, units, failed = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    out = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result))

    ops = result["ops"]
    for name, unit in units.items():
        print(f"{name:34s} {result['metrics'][name]:.6g} {unit}")
    print(f"{'op_fail_ratio':34s} {result['op_fail_ratio']:.6g} "
          f"({failed} of {len(ops)} ops)")
    for r in ops:
        if r["error"]:
            print(f"op {r['op']} failed: {r['error']}")
    print("environment:", json.dumps(result["environment"]))
    print("results:", out.relative_to(ROOT))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {n: {"value": result["metrics"][n], "unit": u}
                    for n, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
