"""End-to-end acceptance gate.

Each test covers one release criterion, prints a single PASS/FAIL verdict
line (echoed after the run), and enforces the stated tolerance.
"""
import json
import time

import mpmath
import numpy as np
import pytest

from conftest import record_verdict
from hdrdeghost import gradcheck, tensor as tc
from hdrdeghost.cli import EXIT_OK, main
from hdrdeghost.codecs import read_pfm, read_ppm, write_pfm, write_ppm
from hdrdeghost.head import head_forward, sar
from hdrdeghost.hdrmath import gamma_correct, mu_law, LdrImage
from hdrdeghost.metrics import psnr, ssim
from hdrdeghost.model import (init_params, load_checkpoint, full_preset,
                              param_manifest, save_checkpoint, tiny_preset,
                              window_partition, window_reverse)
from hdrdeghost.training import (AdamState, TrainConfig, adam_step,
                                 synth_dataset, training_step)

from test_codecs import write_sample
from test_metrics import ssim_reference


def verdict(num, desc, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f"  ({detail})"
    record_verdict(line)
    print(line)
    assert ok, line


def test_criterion_01_gradient_suite():
    start = time.monotonic()
    results = gradcheck.run_suite("all", seeds=20, seed=0)
    elapsed = time.monotonic() - start
    worst = {k: f"{e:.2e}" for k, (e, _) in results.items()}
    ok = all(err <= tol for err, tol in results.values()) and elapsed < 300
    verdict(1, "finite-difference gradient suite, ops <=1e-4 and "
               "end-to-end <=1e-3, under 5 min", ok,
            f"{elapsed:.0f}s, worst {max(worst.values())}")


def test_criterion_02_deformable_equivalence():
    rng = np.random.default_rng(0)
    worst_zero = 0.0
    for _ in range(50):
        c = int(rng.integers(1, 4))
        co = int(rng.integers(1, 4))
        h = int(rng.integers(5, 10))
        w = int(rng.integers(5, 10))
        x = tc.Tensor(rng.normal(size=(1, h, w, c)))
        wt = tc.Tensor(rng.normal(size=(3, 3, c, co)))
        b = tc.Tensor(rng.normal(size=co))
        off = tc.Tensor(np.zeros((1, h, w, 18)))
        d = tc.deformable_conv2d(x, wt, b, off).data
        r = tc.conv2d(x, wt, b).data
        worst_zero = max(worst_zero, float(np.abs(d - r).max()))

    # integer offsets: every tap shifted one pixel down must equal the plain
    # conv evaluated one row lower, away from the padded border
    x = tc.Tensor(rng.normal(size=(1, 10, 10, 2)))
    wt = tc.Tensor(rng.normal(size=(3, 3, 2, 3)))
    b = tc.Tensor(rng.normal(size=3))
    off_np = np.zeros((1, 10, 10, 18))
    off_np[..., 0::2] = 1.0  # (dy, dx) pairs: dy = 1 for all nine taps
    d = tc.deformable_conv2d(x, wt, b, tc.Tensor(off_np)).data
    r = tc.conv2d(x, wt, b).data
    worst_int = float(np.abs(d[0, 2:-2, 2:-2] - r[0, 3:-1, 2:-2]).max())

    ok = worst_zero <= 1e-6 and worst_int <= 1e-6
    verdict(2, "deformable conv reproduces plain/shifted conv at "
               "zero/integer offsets to <=1e-6", ok,
            f"zero {worst_zero:.1e}, integer {worst_int:.1e}")


def test_criterion_03_tonemap_and_gamma_exactness():
    exact = (float(mu_law(np.array(0.0))) == 0.0
             and float(mu_law(np.array(1.0))) == 1.0)
    mu = mpmath.mpf(5000)
    err_mu = abs(float(mu_law(np.array(0.5)))
                 - float(mpmath.log(1 + mu / 2) / mpmath.log(1 + mu)))
    g = gamma_correct(LdrImage(np.full((1, 1, 3), 0.5), 1.0))[0, 0, 0]
    err_g = abs(g - float(mpmath.mpf("0.5") ** mpmath.mpf("2.2")))
    ok = exact and err_mu <= 1e-9 and err_g <= 1e-9
    verdict(3, "tonemap endpoints exact; midpoint tonemap/gamma match "
               "high-precision values to <=1e-9", ok,
            f"mu {err_mu:.1e}, gamma {err_g:.1e}")


def test_criterion_04_reference_gating_algebra():
    rng = np.random.default_rng(1)
    f2 = tc.Tensor(rng.normal(size=(1, 6, 6, 8)))
    m = tc.Tensor(rng.uniform(0, 1, size=(1, 6, 6, 8)))
    symmetric = np.array_equal(sar(f2, m, m).data, f2.data * m.data)

    cfg = tiny_preset(dtype="f64", sar=False)
    params = {k: tc.Tensor(v) for k, v in init_params(cfg, seed=2).items()}
    ins = [tc.Tensor(rng.uniform(0, 1, size=(1, 8, 8, 6))) for _ in range(3)]
    out = head_forward(ins, params, cfg).data
    from hdrdeghost.head import extract_shallow
    f_ref = extract_shallow(ins[1], params).data
    c = cfg.channels
    passthrough = np.array_equal(out[..., c:2 * c], f_ref)
    ok = symmetric and passthrough
    verdict(4, "reference gating: equal maps reduce to one gate bit-exactly; "
               "disabled gating passes the reference through", ok)


def test_criterion_05_window_round_trip():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(200):
        b = int(rng.integers(1, 3))
        h = int(rng.integers(1, 24))
        w = int(rng.integers(1, 24))
        d = int(rng.integers(1, 5))
        window = int(rng.integers(2, 7))
        x = tc.Tensor(rng.normal(size=(b, h, w, d)))
        for shift in (0, window // 2):
            tok, info = window_partition(x, window, shift)
            back = window_reverse(tok, info)
            ok &= np.array_equal(back.data, x.data)

    # shifted partition == roll, then unshifted partition (no padding needed)
    x = tc.Tensor(rng.normal(size=(2, 12, 8, 3)))
    a, _ = window_partition(x, 4, shift=2)
    b_, _ = window_partition(
        tc.Tensor(np.roll(x.data, (-2, -2), axis=(1, 2))), 4, shift=0)
    ok &= np.array_equal(a.data, b_.data)
    verdict(5, "window partition/reverse is a bit-exact round trip on 200 "
               "random shapes; shifted form equals roll + plain form", ok)


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    """Shared short overfit used by criteria 6 and 11's eval leg."""
    cfg = tiny_preset()
    params = init_params(cfg, seed=7)
    data = synth_dataset(4, seed=7, size=32)
    tcfg = TrainConfig(batch_size=4, patch=32, stride=32, seed=7)
    state = AdamState(params, tcfg.lr)

    start = time.monotonic()
    initial, _ = training_step(data, params, cfg, tcfg)
    loss = initial
    for _ in range(500):
        loss, grads = training_step(data, params, cfg, tcfg)
        params = adam_step(params, grads, state)
    elapsed = time.monotonic() - start

    out = tmp_path_factory.mktemp("overfit") / "model.hdck"
    save_checkpoint(out, params, cfg)
    return {"cfg": cfg, "params": params, "data": data, "initial": initial,
            "final": loss, "elapsed": elapsed, "checkpoint": out}


def test_criterion_06_overfit_gate(overfit_run):
    r = overfit_run
    ratio = r["final"] / r["initial"]
    params, cfg = load_checkpoint(r["checkpoint"])
    vals = []
    from hdrdeghost.model import model_forward
    for s in r["data"]:
        out = model_forward(s, params, cfg)
        vals.append(psnr(mu_law(out.pixels), mu_law(s.ground_truth.pixels)))
    psnr_mu = float(np.mean(vals))
    ok = ratio <= 0.10 and psnr_mu >= 35.0 and r["elapsed"] < 600
    verdict(6, "500-step overfit: loss falls to <=10% of initial and "
               "tonemapped PSNR >=35 dB in under 10 min", ok,
            f"ratio {ratio:.3f}, psnr {psnr_mu:.2f} dB, {r['elapsed']:.0f}s")


def test_criterion_07_parameter_budget(capsys):
    _, total = param_manifest(init_params(full_preset(), seed=0))
    within = abs(total - 1_350_000) / 1_350_000 <= 0.25
    assert main(["inspect"]) == EXIT_OK
    printed = f"total parameters: {total}" in capsys.readouterr().out
    ok = within and printed
    verdict(7, "full-scale manifest totals 1.35M +/- 25% parameters and is "
               "printed by the inspect command", ok, f"total {total}")


def test_criterion_08_ablation_wiring():
    variants = {
        "full": tiny_preset(dtype="f64"),
        "no_gate": tiny_preset(dtype="f64", sar=False),
        "no_deform": tiny_preset(dtype="f64", deformable=False),
        "baseline": tiny_preset(dtype="f64", sar=False, deformable=False),
    }
    ok = len({(c.sar, c.deformable) for c in variants.values()}) == 4
    keysets = {}
    errs = {}
    for name, cfg in variants.items():
        params = init_params(cfg, seed=0)
        keysets[name] = frozenset(params)
        errs[name] = gradcheck.check_full_model(seed=0, n_params=40, size=8,
                                                cfg=cfg)
        ok &= errs[name] <= gradcheck.MODEL_TOLERANCE
    # the deformable toggle adds offset-predictor tensors; the gating toggle
    # is routing-only, so those pairs share a tensor set by design
    ok &= keysets["full"] != keysets["no_deform"]
    ok &= keysets["no_gate"] != keysets["baseline"]
    ok &= keysets["full"] == keysets["no_gate"]
    verdict(8, "all four ablation variants constructible from flags, with "
               "expected manifests, and pass end-to-end gradient checks", ok,
            "worst err " + f"{max(errs.values()):.1e}")


def test_criterion_09_metric_oracles():
    exact20 = psnr(np.zeros((8, 8)), np.full((8, 8), 0.1)) == pytest.approx(
        20.0, abs=1e-12)
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, size=(14, 14, 3))
    b = np.clip(a + rng.normal(0, 0.1, size=a.shape), 0, 1)
    ssim_err = abs(ssim(a, b) - ssim_reference(a, b))
    mu_a, mu_b = mu_law(a), mu_law(b)
    domains_differ = (psnr(mu_a, mu_b) != psnr(a, b)
                      and ssim(mu_a, mu_b) != ssim(a, b))
    ok = exact20 and ssim_err <= 1e-6 and domains_differ
    verdict(9, "PSNR of a constant 0.1 offset is exactly 20 dB; SSIM matches "
               "the naive oracle to <=1e-6; tonemapped and linear metrics "
               "differ", ok, f"ssim err {ssim_err:.1e}")


def test_criterion_10_codec_round_trips(tmp_path):
    rng = np.random.default_rng(4)
    hdr = rng.uniform(0, 8, size=(9, 7, 3)).astype(np.float32)
    write_pfm(tmp_path / "a.pfm", hdr)
    pfm_exact = np.array_equal(
        read_pfm(tmp_path / "a.pfm").pixels.astype(np.float32), hdr)

    ok = pfm_exact
    for maxval in (255, 65535):
        pix = rng.uniform(0, 1, size=(6, 5, 3))
        write_ppm(tmp_path / "b.ppm", pix, maxval=maxval)
        err = np.abs(read_ppm(tmp_path / "b.ppm").pixels - pix).max()
        ok &= err <= 1.0 / (2 * maxval)
    verdict(10, "float HDR codec round-trips bit-exactly; quantized codec "
                "stays within half a quantization step", ok)


def test_criterion_11_determinism(tmp_path, monkeypatch, capsys):
    for i in range(3):
        write_sample(tmp_path / "data", f"s{i}", h=16, w=16, seed=i)
    cfg = tiny_preset()
    ckpt = tmp_path / "m.hdck"
    save_checkpoint(ckpt, init_params(cfg, seed=1), cfg)
    conf = tmp_path / "conf.txt"
    conf.write_text("preset = tiny\npatch = 16\nstride = 16\n"
                    "batch_size = 2\nepochs = 1\nmax_steps = 2\nseed = 5\n")

    fuse_out, train_out, eval_out = [], [], []
    for threads in ("1", "4"):
        monkeypatch.setenv("HDT_THREADS", threads)
        out = tmp_path / f"fuse{threads}.pfm"
        assert main(["fuse", "--input", str(tmp_path / "data" / "s0"),
                     "--checkpoint", str(ckpt),
                     "--output", str(out)]) == EXIT_OK
        fuse_out.append(out.read_bytes())

        run = tmp_path / f"run{threads}"
        assert main(["train", "--data", str(tmp_path / "data"),
                     "--config", str(conf), "--out", str(run)]) == EXIT_OK
        train_out.append((run / "checkpoint.hdck").read_bytes())
        capsys.readouterr()

        assert main(["eval", "--data", str(tmp_path / "data"),
                     "--checkpoint", str(ckpt), "--json"]) == EXIT_OK
        eval_out.append(capsys.readouterr().out)

    ok = (fuse_out[0] == fuse_out[1] and train_out[0] == train_out[1]
          and json.loads(eval_out[0]) == json.loads(eval_out[1]))
    verdict(11, "fuse, train and eval are bit-reproducible across worker "
                "thread counts 1 and 4", ok)
