"""The three workloads: inputs from a seed, one operation, its output check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished. See README.md for why each exists and
what each per-layer metric is predicted to move.

A workload runs its ops in groups of ``group``, each group in a process of
its own: one fuse_full or eval_tiny op, or one six-step train_full episode.
Rule for every workload: never call ``gc.collect()`` between operations
and never reuse one process for two groups. Dead graphs are freed only by
Python's cyclic GC (``Tensor.tape -> Tape.nodes -> Tensor``), so either
would hide the retention that ``peak_rss_mb`` exists to show.
"""
from __future__ import annotations

import json
import math
import os
import resource
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from hdrdeghost import codecs, model, training
from hdrdeghost.hdrmath import HdrImage, LdrImage, SampleTriplet

HERE = Path(__file__).resolve().parent
CANARY_SEED = 20230409  # the scene every run checks against the reference
MODEL_SEED = 0          # weights are fixed; scenes come from --seed
OP_TIMEOUT_S = 150


def scenes(n, seed, h, w):
    """``n`` synthetic triplets of h x w, centre crops of square scenes."""
    size = max(h, w)
    y, x = (size - h) // 2, (size - w) // 2
    out = []
    for s in training.synth_dataset(n, seed=seed, size=size):
        ldr = tuple(LdrImage(im.pixels[y:y + h, x:x + w], im.exposure_time)
                    for im in s.ldr)
        gt = HdrImage(s.ground_truth.pixels[y:y + h, x:x + w])
        out.append(SampleTriplet(ldr=ldr, ground_truth=gt, name=s.name))
    return out


def save_model(path, cfg):
    """Seeded weights with non-zero offset predictors, so that, as in a
    trained model, deformable taps sample between pixels. ``init_params``
    zeroes them, which would leave bilinear sampling untested by the checks.
    """
    params = model.init_params(cfg, MODEL_SEED)
    rng = np.random.default_rng(MODEL_SEED)
    for k in sorted(params):
        if ".off.w" in k:
            params[k] = rng.normal(0.0, 0.05, params[k].shape).astype(
                params[k].dtype)
    model.save_checkpoint(path, params, cfg)


def write_scene(d, s, with_gt):
    d.mkdir(parents=True)
    for i, im in enumerate(s.ldr):
        codecs.write_ppm(d / f"ldr_{i}.ppm", im.pixels)
    (d / "exposures.txt").write_text(
        "".join(f"{math.log2(im.exposure_time)}\n" for im in s.ldr))
    if with_gt:
        codecs.write_pfm(d / "gt.pfm", s.ground_truth.pixels)


def wait_child(pid, kill):
    """Waits for child ``pid``, calling ``kill`` after OP_TIMEOUT_S; returns
    (exit code, the child's peak RSS in MB).

    ``os.wait4`` gives this child's own peak RSS, which
    ``RUSAGE_CHILDREN`` (a maximum over all children) cannot."""
    timer = threading.Timer(OP_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: leave no child running
        kill()
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def run_child(work, op, argv, trace_path=None):
    """One ``hdrdeghost`` process; returns (op record, stdout text)."""
    out_path, err_path = work / f"op{op}.out", work / f"op{op}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launched = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(launched), str(op),
             str(trace_path or "-"), *argv],
            stdout=out, stderr=err, cwd=work)
        code, rss_mb = wait_child(proc.pid, proc.kill)
        wall = perf_counter() - launched
    proc.returncode = code
    rec = {"wall_s": wall, "rss_mb": rss_mb, "error": None,
           "trace": str(trace_path) if trace_path else None}
    if code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        rec["error"] = f"exit {code}: {' '.join(tail)}"
    return rec, out_path.read_text(errors="replace")


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _canary(reference, workload):
    """Expected outputs keyed by scene; make_reference.py starts empty."""
    return {"canary": reference[workload]} if workload in reference else {}


class CliWorkload:
    """One ``hdrdeghost`` CLI process per op, traced by ``child.py``."""

    in_process = False
    group = 1

    def run_group(self, first_op, tracer=None, trace_dir=None):
        rec = self.run_op(first_op,
                          trace_dir and trace_dir / f"op{first_op}.json")
        rec["op"] = first_op
        return [rec]

    def peak_rss_mb(self, ops):
        return float(np.median([r["rss_mb"] for r in ops]))


class FuseFull(CliWorkload):
    """One ``hdrdeghost fuse`` process per op: full preset, f32, 40 x 60."""

    shape = (40, 60)  # 2:3 like 1000 x 1500; width pads to the 8-px window
    n_seeded = 2

    def __init__(self, work, seed, reference):
        self.work, self.seed = work, seed
        self.expected = _canary(reference, "fuse_full")
        self.setups = 0

    def setup(self):
        d = self.work / f"inputs{self.setups}"
        self.setups += 1
        (canary,) = scenes(1, CANARY_SEED, *self.shape)
        self.scene_dirs = []
        for name, s in [("canary", canary)] + [
                (f"s{i}", s) for i, s in
                enumerate(scenes(self.n_seeded, self.seed, *self.shape))]:
            write_scene(d / name, s, with_gt=False)
            self.scene_dirs.append(d / name)
        self.ckpt = d / "model.hdck"
        save_model(self.ckpt, model.full_preset())

    def run_op(self, op, trace_path=None):
        scene = self.scene_dirs[op % len(self.scene_dirs)]
        pfm, ppm = self.work / f"op{op}.pfm", self.work / f"op{op}.ppm"
        rec, _ = run_child(self.work, op, [
            "fuse", "--input", str(scene), "--checkpoint", str(self.ckpt),
            "--output", str(pfm), "--tonemapped", str(ppm)], trace_path)
        rec["px"] = self.shape[0] * self.shape[1]
        if rec["error"] is None:
            want = self.expected.get(scene.name)
            rec["error"] = checks.check_fuse(pfm, ppm, self.shape, want)
            if rec["error"] is None and want is None:
                # seeded scenes repeat in the run: later ops must match the first
                self.expected[scene.name] = checks.read_pfm(pfm)
        return rec


class TrainFull:
    """``training_step`` + ``adam_step``: full preset, f32, 24 x 24
    patches, batch 1, in episodes of ``group`` steps. Each episode runs in a
    fork of the benchmark's process, taken after set-up, so it starts from
    the fixed initial weights and from the same memory and GC state as every
    other. Its steps 0 and 1 train on the canary patch, so their loss and
    per-parameter gradient norms have a reference; later steps cycle through
    patches cut from seeded scenes.

    Dead graphs reach generation 2 and wait for a full collection, which
    in a new process comes in step 5. On a 2-core, 8 GB machine the peak
    grows 0.5 GB a step to 2.8 GB at step 4 and tops out near 3.0 GB in
    step 5; past step 10 it grows again (3.9 GB at step 12, 5.9 GB by step
    17). An episode is those six steps, one GC cycle: each of its steps
    carries a graph the process still holds, each episode reaches the same
    peak, and the run stays within that machine's memory however many
    episodes it holds."""

    in_process = True
    group = 6
    patch = 24
    n_canary_steps = 2

    def __init__(self, work, seed, reference):
        self.work, self.seed = work, seed
        self.expected = reference.get("train_full") or [None] * 2
        self.cfg = model.full_preset()
        self.tcfg = training.TrainConfig(batch_size=1, patch=self.patch,
                                         stride=self.patch)

    def setup(self):
        p = self.patch
        (canary,) = training.synth_dataset(1, seed=CANARY_SEED, size=p)
        self.canary = [canary]
        patches = []
        for s in training.synth_dataset(4, seed=self.seed, size=2 * p):
            patches.extend(training.crop_patches(s, p, p))
        codes = np.random.default_rng(self.seed).integers(0, 8, len(patches))
        self.batches = [[training.augment(q, int(c))]
                        for q, c in zip(patches, codes)]
        self.params = model.init_params(self.cfg, MODEL_SEED)
        self.state = training.AdamState(self.params, self.tcfg.lr)

    def run_group(self, first_op, tracer=None, trace_dir=None):
        """One episode in a forked child. With a tracer installed, the child
        records its steps alone and writes them where ``trace`` says."""
        out = self.work / f"episode{first_op}.json"
        trace = trace_dir and trace_dir / f"op{first_op}.json"
        ops = range(first_op, first_op + self.group)
        t0 = perf_counter()
        pid = os.fork()
        if pid == 0:  # the child leaves only through os._exit
            code = 1
            try:
                if tracer is not None:
                    tracer.clear()
                recs = []
                for op in ops:
                    if tracer is not None:
                        tracer.unit = op
                    recs.append(self.run_op(op))
                if trace:
                    trace.write_text(json.dumps(tracer.records()))
                out.write_text(json.dumps(recs))
                code = 0
            finally:
                os._exit(code)
        code, rss_mb = wait_child(pid, lambda: os.kill(pid, signal.SIGKILL))
        if code == 0:
            recs = json.loads(out.read_text())
        else:
            recs = [{"wall_s": (perf_counter() - t0) / self.group, "px": 0,
                     "error": f"episode exit {code}"} for _ in ops]
        for op, rec in zip(ops, recs):
            rec.update(op=op, episode_rss_mb=rss_mb,
                       trace=str(trace) if trace else None)
        return recs

    def run_op(self, op):
        step = op % self.group
        canary = step < self.n_canary_steps
        batch = (self.canary if canary
                 else self.batches[op % len(self.batches)])
        t0 = perf_counter()
        try:
            loss, grads = training.training_step(batch, self.params, self.cfg,
                                                 self.tcfg)
            self.params = training.adam_step(self.params, grads, self.state)
        except Exception as e:  # a failed op is counted, not fatal
            return {"wall_s": perf_counter() - t0, "px": 0, "loss": None,
                    "error": f"{type(e).__name__}: {e}"}
        wall = perf_counter() - t0
        norms = checks.grad_norms(grads)
        return {"wall_s": wall, "px": self.patch ** 2, "loss": loss,
                "rss_mb": self_peak_rss_mb(),
                "grad_norm": checks.global_norm(norms),
                "grad_norms": norms if canary else None,
                "error": checks.check_step(
                    loss, norms, self.expected[step] if canary else None)}

    def peak_rss_mb(self, ops):
        """Median over episodes of each episode process's peak."""
        episodes = {r["op"] // self.group: r["episode_rss_mb"] for r in ops}
        return float(np.median(list(episodes.values())))


class EvalTiny(CliWorkload):
    """One ``hdrdeghost eval --json`` process per op: tiny preset, 16 scenes
    of 64 x 96 stored as PPM/PFM. Scene 'canary' has reference metrics; the
    others must repeat the first pass's metrics exactly as checked."""

    shape = (64, 96)
    n_scenes = 16

    def __init__(self, work, seed, reference):
        self.work, self.seed = work, seed
        self.expected = _canary(reference, "eval_tiny")
        self.setups = 0

    def setup(self):
        d = self.work / f"inputs{self.setups}"
        self.setups += 1
        self.data = d / "data"
        (canary,) = scenes(1, CANARY_SEED, *self.shape)
        seeded = scenes(self.n_scenes - 1, self.seed, *self.shape)
        self.names = ["canary"] + [f"s{i:02d}" for i in range(len(seeded))]
        for name, s in zip(self.names, [canary] + seeded):
            write_scene(self.data / name, s, with_gt=True)
        self.ckpt = d / "model.hdck"
        save_model(self.ckpt, model.tiny_preset())

    def run_op(self, op, trace_path=None):
        rec, out = run_child(self.work, op, [
            "eval", "--data", str(self.data), "--checkpoint", str(self.ckpt),
            "--json"], trace_path)
        rec["px"] = self.n_scenes * self.shape[0] * self.shape[1]
        if rec["error"] is None:
            rows, rec["error"] = checks.parse_eval(out, self.names)
        for name in self.names if rec["error"] is None else ():
            want = self.expected.setdefault(name, rows[name])
            rec["error"] = checks.check_eval_row(rows[name], want)
            if rec["error"]:
                break
        return rec


WORKLOADS = {"fuse_full": FuseFull, "train_full": TrainFull,
             "eval_tiny": EvalTiny}
