import json

import numpy as np
import pytest

from hdrdeghost.hdrmath import HdrImage, LdrImage, SampleTriplet
from hdrdeghost.metrics import (METRIC_FIELDS, SSIM_K1, SSIM_K2, SSIM_SIGMA,
                                SSIM_WINDOW, eval_report, format_report, psnr,
                                ssim, _gaussian_kernel)


class TestPsnr:
    def test_identical_hits_cap(self):
        x = np.random.default_rng(0).uniform(0, 1, size=(8, 8, 3))
        assert psnr(x, x) == 100.0

    def test_constant_offset_exact_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0, 1, size=(2, 6, 6))
        assert psnr(a, b) == psnr(b, a)

    def test_monotone_in_noise_level(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.2, 0.8, size=(16, 16))
        n = rng.normal(size=(16, 16))
        vals = [psnr(x, x + s * n) for s in (0.01, 0.05, 0.2)]
        assert vals[0] > vals[1] > vals[2]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))


def ssim_reference(a, b):
    """Naive double-loop SSIM used as an oracle for the separable version."""
    if a.ndim == 3:
        a, b = a.mean(axis=2), b.mean(axis=2)
    n = SSIM_WINDOW
    k1 = _gaussian_kernel(n, SSIM_SIGMA)
    k2d = np.outer(k1, k1)
    c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
    h, w = a.shape
    vals = []
    for y in range(h - n + 1):
        for x in range(w - n + 1):
            wa = a[y:y + n, x:x + n]
            wb = b[y:y + n, x:x + n]
            mu_a = (k2d * wa).sum()
            mu_b = (k2d * wb).sum()
            var_a = (k2d * wa * wa).sum() - mu_a ** 2
            var_b = (k2d * wb * wb).sum() - mu_b ** 2
            cov = (k2d * wa * wb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1)
                           * (var_a + var_b + c2)))
    return float(np.mean(vals))


class TestSsim:
    def test_identical_images_give_one(self):
        x = np.random.default_rng(3).uniform(0, 1, size=(16, 16, 3))
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_image_scores_below_one(self):
        x = np.random.default_rng(4).uniform(0, 1, size=(16, 16))
        assert ssim(x, 1.0 - x) < 1.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, size=(14, 15, 3))
        b = np.clip(a + rng.normal(0, 0.1, size=a.shape), 0, 1)
        assert ssim(a, b) == pytest.approx(ssim_reference(a, b), abs=1e-6)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ssim(np.zeros((12, 12)), np.zeros((12, 13)))


def dataset(n=2, with_gt=True, size=16):
    rng = np.random.default_rng(6)
    out = []
    for i in range(n):
        pix = rng.uniform(0, 1, size=(3, size, size, 3))
        gt = HdrImage(rng.uniform(0, 1, size=(size, size, 3))) if with_gt else None
        out.append(SampleTriplet(
            ldr=tuple(LdrImage(pix[j], t)
                      for j, t in enumerate((0.25, 1.0, 4.0))),
            ground_truth=gt, name=f"s{i}"))
    return out


class TestEvalReport:
    def test_identity_model_saturates_both_domains(self):
        rows = eval_report(lambda s: s.ground_truth.pixels, dataset())
        for r in rows:
            assert r["psnr_mu"] == 100.0 and r["psnr_l"] == 100.0
            assert r["ssim_mu"] == pytest.approx(1.0, abs=1e-12)

    def test_tonemapped_and_linear_differ_for_imperfect_model(self):
        rng = np.random.default_rng(7)

        def noisy(s):
            return np.clip(s.ground_truth.pixels
                           + rng.normal(0, 0.05, s.ground_truth.pixels.shape),
                           0, 1)

        (row, _mean) = eval_report(noisy, dataset(1))
        assert row["psnr_mu"] != row["psnr_l"]
        assert row["ssim_mu"] != row["ssim_l"]

    def test_mean_row_is_columnwise_average(self):
        rng = np.random.default_rng(8)

        def noisy(s):
            return np.clip(s.ground_truth.pixels
                           + rng.normal(0, 0.1, s.ground_truth.pixels.shape),
                           0, 1)

        rows = eval_report(noisy, dataset(3))
        assert rows[-1]["name"] == "mean"
        for f in METRIC_FIELDS:
            want = np.mean([r[f] for r in rows[:-1]])
            assert abs(rows[-1][f] - want) <= 1e-9

    def test_format_tsv_and_json_agree(self):
        rows = eval_report(lambda s: s.ground_truth.pixels, dataset(2))
        tsv = format_report(rows)
        js = json.loads(format_report(rows, as_json=True))
        lines = tsv.splitlines()
        assert lines[0].split("\t") == ["sample", *METRIC_FIELDS]
        assert len(lines) == len(js) + 1
        for line, row in zip(lines[1:], js):
            fields = line.split("\t")
            assert fields[0] == row["name"]
            for f, v in zip(METRIC_FIELDS, fields[1:]):
                assert float(v) == pytest.approx(row[f], abs=1e-6)
