import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hdrdeghost.hdrmath import (HdrImage, LdrImage, SampleTriplet, build_input,
                                gamma_correct, mu_law)


def ldr(pixels, t=1.0):
    return LdrImage(pixels=np.asarray(pixels, dtype=np.float64), exposure_time=t)


def make_triplet(h=4, w=4, seed=0, with_gt=True):
    rng = np.random.default_rng(seed)
    pix = rng.uniform(0, 1, size=(3, h, w, 3))
    images = tuple(ldr(pix[i], t) for i, t in enumerate((0.25, 1.0, 4.0)))
    gt = HdrImage(rng.uniform(0, 1, size=(h, w, 3))) if with_gt else None
    return SampleTriplet(ldr=images, ground_truth=gt)


class TestGammaCorrect:
    def test_unit_pixel_unit_time(self):
        out = gamma_correct(ldr(np.ones((2, 2, 3))))
        np.testing.assert_allclose(out, 1.0)

    def test_zero_pixel(self):
        out = gamma_correct(ldr(np.zeros((2, 2, 3)), t=0.3))
        np.testing.assert_array_equal(out, 0.0)

    def test_half_matches_high_precision(self):
        out = gamma_correct(ldr(np.full((1, 1, 3), 0.5)))
        expect = float(mpmath.mpf("0.5") ** mpmath.mpf("2.2"))
        assert abs(out[0, 0, 0] - expect) <= 1e-9
        assert out[0, 0, 0] == pytest.approx(0.21764, abs=1e-5)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError, match="exposure"):
            ldr(np.zeros((1, 1, 3)), t=0.0)

    def test_homogeneous_in_inverse_time(self):
        pix = np.random.default_rng(1).uniform(0, 1, size=(3, 3, 3))
        a = gamma_correct(ldr(pix, t=0.5)) * 0.5
        b = gamma_correct(ldr(pix, t=2.0)) * 2.0
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_intensity(self, a, b):
        lo, hi = sorted((a, b))
        va = gamma_correct(ldr(np.full((1, 1, 3), lo)))
        vb = gamma_correct(ldr(np.full((1, 1, 3), hi)))
        assert va[0, 0, 0] <= vb[0, 0, 0]


class TestMuLaw:
    def test_endpoints(self):
        assert mu_law(np.array(0.0)) == 0.0
        assert mu_law(np.array(1.0)) == 1.0

    def test_half_matches_high_precision(self):
        mu = mpmath.mpf(5000)
        expect = float(mpmath.log(1 + mu / 2) / mpmath.log(1 + mu))
        assert abs(float(mu_law(np.array(0.5))) - expect) <= 1e-9
        assert float(mu_law(np.array(0.5))) == pytest.approx(0.91864, abs=1e-5)

    def test_clamps_above_one(self):
        assert float(mu_law(np.array(2.0))) == 1.0

    # The map is strictly increasing on the reals, but float64 cannot keep
    # every pair apart: its slope falls to ~0.12 at x = 1, so neighbouring
    # inputs there round to one output. Every pair keeps its order, and a
    # pair at least 64 ulps apart stays strictly apart.
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(np.nextafter(1.0, 0.0), 1.0)
    @example(1.0 - 64 * np.spacing(1.0), 1.0)
    @settings(max_examples=100, deadline=None)
    def test_strictly_monotone(self, a, b):
        if a == b:
            return
        lo, hi = sorted((a, b))
        assert mu_law(np.array(lo)) <= mu_law(np.array(hi))
        if hi - lo >= 64 * np.spacing(hi):
            assert mu_law(np.array(lo)) < mu_law(np.array(hi))


class TestBuildInput:
    def test_channel_layout(self):
        s = make_triplet()
        outs = build_input(s)
        assert len(outs) == 3
        for i, out in enumerate(outs):
            assert out.shape == (1, 4, 4, 6)
            np.testing.assert_array_equal(out[0, :, :, :3], s.ldr[i].pixels)
            np.testing.assert_allclose(out[0, :, :, 3:],
                                       gamma_correct(s.ldr[i]))


class TestTripletInvariants:
    def test_exposure_order_enforced(self):
        pix = np.zeros((2, 2, 3))
        with pytest.raises(ValueError, match="increasing"):
            SampleTriplet(ldr=(ldr(pix, 1.0), ldr(pix, 1.0), ldr(pix, 2.0)))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="H x W"):
            SampleTriplet(ldr=(ldr(np.zeros((2, 2, 3)), 0.5),
                               ldr(np.zeros((3, 3, 3)), 1.0),
                               ldr(np.zeros((2, 2, 3)), 2.0)))

    def test_reference_is_medium(self):
        s = make_triplet()
        assert s.reference is s.ldr[1]

    def test_hdr_rejects_negative(self):
        with pytest.raises(ValueError):
            HdrImage(pixels=np.full((2, 2, 3), -0.1))
