"""Tests of the benchmark itself. They run the benchmark for about a second
per workload, so they take a minute or two:

    python3 -m pytest perfbench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=run.ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced(request):
    out = run_bench(request.param, 1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((run.OUT / "results" /
                         f"{request.param}-seed7-trace1.json").read_text())
    return request.param, result, detail


def test_benchmark_json_names_what_the_runner_emits():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


def test_traced_run_emits_every_per_layer_metric(traced):
    workload, result, _ = traced
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name


def test_self_times_cover_most_of_each_op(traced):
    """Spans' self times, minus process start-up, explain most of an op;
    the result records the share they miss."""
    workload, result, detail = traced
    missed = result["metrics"]["trace.missed_share"]["value"]
    assert 0.0 <= missed < 0.25, (workload, missed)
    assert result["metrics"]["tensor.conv2d.calls"]["value"] > 0
    assert detail["spans"], "spans are written out"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    out = run_bench(workload, 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracing_leaves_fuse_output_bit_identical(tmp_path):
    sys.path.insert(0, str(run.SRC))
    import workloads
    wl = workloads.FuseFull(tmp_path, 3, {})
    wl.setup()
    scene = wl.scene_dirs[1]
    outputs = []
    for op, trace in enumerate((None, tmp_path / "trace.json")):
        pfm = tmp_path / f"out{op}.pfm"
        rec, _ = workloads.run_child(tmp_path, op, [
            "fuse", "--input", str(scene), "--checkpoint", str(wl.ckpt),
            "--output", str(pfm)], trace)
        assert rec["error"] is None
        outputs.append(pfm.read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads((tmp_path / "trace.json").read_text())["spans"]


def test_train_episodes_start_from_the_same_weights(tmp_path):
    """Each episode is a fork taken after set-up, so the second one's
    canary steps repeat the first one's and match the reference."""
    sys.path.insert(0, str(run.SRC))
    import workloads
    wl = workloads.TrainFull(tmp_path, 3, checks.load_reference())
    wl.group = 2
    wl.setup()
    ops = wl.run_group(0) + wl.run_group(2)
    assert [r["op"] for r in ops] == [0, 1, 2, 3]
    assert all(r["error"] is None for r in ops)
    assert [r["loss"] for r in ops[:2]] == [r["loss"] for r in ops[2:]]
    assert ops[0]["episode_rss_mb"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("fuse_full", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# ---------------------------------------------------------------------------
# output checks

def write_pfm(path, pixels):
    h, w, _ = pixels.shape
    path.write_bytes(f"PF\n{w} {h}\n-1.0\n".encode()
                     + np.flipud(pixels).astype("<f4").tobytes())


def write_ppm(path, pixels):
    h, w, _ = pixels.shape
    q = np.floor(np.clip(pixels, 0, 1) * 255 + 0.5).astype(np.uint8)
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + q.tobytes())


@pytest.fixture
def fused(tmp_path):
    img = np.random.default_rng(0).uniform(0.1, 0.9, (4, 6, 3)).astype(np.float32)

    def write(pixels, preview=None):
        write_pfm(tmp_path / "o.pfm", pixels)
        write_ppm(tmp_path / "o.ppm", checks._mu_law(
            (pixels if preview is None else preview).astype(np.float64)))
        return checks.check_fuse(tmp_path / "o.pfm", tmp_path / "o.ppm",
                                 (4, 6), img)
    return img, write


def test_check_fuse_accepts_output_within_tolerance(fused):
    img, write = fused
    assert write(img) is None
    assert write(img + checks.FUSE_ATOL / 2) is None


def test_check_fuse_rejects_bad_outputs(fused):
    img, write = fused
    assert "reference" in write(img + 2 * checks.FUSE_ATOL)
    nan = img.copy()
    nan[0, 0, 0] = np.nan
    assert "non-finite" in write(nan, preview=img)
    assert "outside" in write(img * 2)
    assert "tonemap" in write(img, preview=img * 0.5)
    assert "shape" in write(img[:3])


def test_check_step_compares_loss_and_each_gradient_norm():
    want = {"loss": 0.5, "grad_norms": {"a": 1.0, "b": 1e-3}}
    assert checks.check_step(0.5, {"a": 1.0, "b": 1e-3}, want) is None
    assert checks.check_step(0.5, {"a": 1.0, "b": 1.1e-3}, want)
    assert checks.check_step(0.51, {"a": 1.0, "b": 1e-3}, want)
    assert checks.check_step(0.5, {"a": 1.0}, want)
    assert checks.check_step(float("nan"), {"a": 1.0}, None)


def test_parse_eval_requires_every_sample_and_finite_metrics():
    row = {"psnr_mu": 30.0, "psnr_l": 31.0, "ssim_mu": 0.9, "ssim_l": 0.8}
    rows = [dict(row, name="a"), dict(row, name="b"), dict(row, name="mean")]
    parsed, err = checks.parse_eval(json.dumps(rows), ["b", "a"])
    assert err is None and parsed["a"]["psnr_l"] == 31.0
    assert checks.parse_eval(json.dumps(rows[1:]), ["a", "b"])[1]
    assert checks.parse_eval("not json", ["a", "b"])[1]
    rows[0]["ssim_l"] = None
    assert checks.parse_eval(json.dumps(rows), ["a", "b"])[1]
    assert checks.check_eval_row(dict(row, name="a", psnr_mu=30.01), row)
