import tracemalloc

import numpy as np
import pytest

from hdrdeghost import tensor as tc


def c(x):
    return tc.Tensor(np.asarray(x, dtype=np.float64))


class TestConv2d:
    def test_1x1_identity(self):
        x = c(np.random.default_rng(0).normal(size=(1, 5, 5, 2)))
        w = c(np.eye(2).reshape(1, 1, 2, 2))
        out = tc.conv2d(x, w, c(np.zeros(2)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_image_all_ones_kernel(self):
        x = c(np.full((1, 5, 5, 1), 5.0))
        w = c(np.ones((3, 3, 1, 1)))
        out = tc.conv2d(x, w, c(np.zeros(1)))
        assert out.data[0, 2, 2, 0] == pytest.approx(45.0)

    def test_matches_loop_oracle_dilated(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 6, 6, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        b = rng.normal(size=3)
        out = tc.conv2d(c(x), c(w), c(b), dilation=2).data

        # direct nested-loop cross-correlation with zero padding
        d = 2
        p = d * (3 - 1) // 2
        xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
        ref = np.zeros((1, 6, 6, 3))
        for y in range(6):
            for xx in range(6):
                for co in range(3):
                    acc = b[co]
                    for ki in range(3):
                        for kj in range(3):
                            for ci in range(2):
                                acc += xp[0, y + d * ki, xx + d * kj, ci] \
                                    * w[ki, kj, ci, co]
                    ref[0, y, xx, co] = acc
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_weight_gradient_matches_einsum_at_batch_2(self):
        rng = np.random.default_rng(8)
        x, w = rng.normal(size=(2, 6, 5, 3)), rng.normal(size=(3, 3, 3, 4))
        g = rng.normal(size=(2, 6, 5, 4))
        tape = tc.Tape()
        wl = tc.Tensor(w, tape)
        (gw,) = tc.backward(tc.sum_(tc.mul(
            tc.conv2d(tc.Tensor(x, tape), wl, c(np.zeros(4)), dilation=2),
            c(g))), [wl])
        xp = np.pad(x, ((0, 0), (2, 2), (2, 2), (0, 0)))
        patches = np.stack([xp[:, 2 * i:2 * i + 6, 2 * j:2 * j + 5]
                            for i in range(3) for j in range(3)], axis=3)
        want = np.einsum("bhwp,bhwo->po", patches.reshape(2, 6, 5, -1), g)
        np.testing.assert_allclose(gw, want.reshape(w.shape), rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(1, 6, 6, 2)), rng.normal(size=(1, 6, 6, 2))
        w, b = c(rng.normal(size=(3, 3, 2, 3))), c(np.zeros(3))
        lhs = tc.conv2d(c(2.0 * x + 3.0 * y), w, b).data
        rhs = 2.0 * tc.conv2d(c(x), w, b).data + 3.0 * tc.conv2d(c(y), w, b).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_channel_mismatch_names_dimension(self):
        x = c(np.zeros((1, 4, 4, 2)))
        w = c(np.zeros((3, 3, 5, 1)))
        with pytest.raises(tc.ShapeError, match="channels"):
            tc.conv2d(x, w, c(np.zeros(1)))

    def test_even_kernel_rejected(self):
        with pytest.raises(tc.ShapeError, match="odd"):
            tc.conv2d(c(np.zeros((1, 4, 4, 1))), c(np.zeros((2, 2, 1, 1))),
                      c(np.zeros(1)))


def _deformable_reference(x, w, b, offsets):
    """The einsum / np.add.at formulation of deformable_conv2d: the output
    and a vjp returning (gx, gw, gb, goffsets)."""
    bsz, h, wdt, cin = x.shape
    k = w.shape[0]
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    hp, wp = h + 2 * p, wdt + 2 * p
    offs = offsets.reshape(bsz, h, wdt, k, k, 2)
    py_raw = (np.arange(h)[None, :, None, None, None]
              + np.arange(k)[None, None, None, :, None] + offs[..., 0])
    px_raw = (np.arange(wdt)[None, None, :, None, None]
              + np.arange(k)[None, None, None, None, :] + offs[..., 1])
    py = np.clip(py_raw, 0.0, hp - 1.0)
    px = np.clip(px_raw, 0.0, wp - 1.0)
    y0 = np.clip(np.floor(py).astype(np.int64), 0, hp - 2)
    x0 = np.clip(np.floor(px).astype(np.int64), 0, wp - 2)
    wy, wx = (py - y0)[..., None], (px - x0)[..., None]
    bi = np.arange(bsz)[:, None, None, None, None]
    c00, c01 = xp[bi, y0, x0], xp[bi, y0, x0 + 1]
    c10, c11 = xp[bi, y0 + 1, x0], xp[bi, y0 + 1, x0 + 1]
    samples = ((1 - wy) * (1 - wx) * c00 + (1 - wy) * wx * c01
               + wy * (1 - wx) * c10 + wy * wx * c11)
    out = np.einsum("bhwklc,klco->bhwo", samples, w) + b

    def vjp(g):
        gs = np.einsum("bhwo,klco->bhwklc", g, w)
        gw = np.einsum("bhwklc,bhwo->klco", samples, g)
        gxp = np.zeros_like(xp)
        np.add.at(gxp, (bi, y0, x0), gs * (1 - wy) * (1 - wx))
        np.add.at(gxp, (bi, y0, x0 + 1), gs * (1 - wy) * wx)
        np.add.at(gxp, (bi, y0 + 1, x0), gs * wy * (1 - wx))
        np.add.at(gxp, (bi, y0 + 1, x0 + 1), gs * wy * wx)
        dvdy = (1 - wx) * (c10 - c00) + wx * (c11 - c01)
        dvdx = (1 - wy) * (c01 - c00) + wy * (c11 - c10)
        gpy = (gs * dvdy).sum(axis=-1) * ((py_raw > 0) & (py_raw < hp - 1))
        gpx = (gs * dvdx).sum(axis=-1) * ((px_raw > 0) & (px_raw < wp - 1))
        return (gxp[:, p:p + h, p:p + wdt], gw, g.sum(axis=(0, 1, 2)),
                np.stack([gpy, gpx], axis=-1).reshape(offsets.shape))

    return out, vjp


class TestDeformableConv2d:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.normal(size=(1, 8, 8, 2))
        self.w = rng.normal(size=(3, 3, 2, 3))
        self.b = rng.normal(size=3)

    def test_zero_offsets_match_conv2d(self):
        off = np.zeros((1, 8, 8, 18))
        d = tc.deformable_conv2d(c(self.x), c(self.w), c(self.b), c(off)).data
        s = tc.conv2d(c(self.x), c(self.w), c(self.b)).data
        np.testing.assert_allclose(d, s, atol=1e-6)

    def test_unit_offset_matches_shifted_conv_interior(self):
        off = np.zeros((1, 8, 8, 18))
        off[..., 0::2] = 1.0  # dy = +1 for every tap
        d = tc.deformable_conv2d(c(self.x), c(self.w), c(self.b), c(off)).data
        shifted = np.roll(self.x, -1, axis=1)
        s = tc.conv2d(c(shifted), c(self.w), c(self.b)).data
        np.testing.assert_allclose(d[:, 1:6, 1:7], s[:, 1:6, 1:7], atol=1e-6)

    def test_fractional_offset_on_ramp_gives_midpoints(self):
        # horizontal ramp, identity 1x1 kernel, dx = 0.5
        ramp = np.arange(6, dtype=float)[None, None, :, None] \
            * np.ones((1, 6, 6, 1))
        w = np.ones((1, 1, 1, 1))
        off = np.zeros((1, 6, 6, 2))
        off[..., 1] = 0.5
        d = tc.deformable_conv2d(c(ramp), c(w), c(np.zeros(1)), c(off)).data
        expect = np.minimum(np.arange(6) + 0.5, 5.0)
        np.testing.assert_allclose(d[0, 0, :, 0], expect, atol=1e-12)

    def test_matches_einsum_reference_at_batch_2(self):
        rng = np.random.default_rng(6)
        x, w, b = (rng.normal(size=(2, 6, 7, 3)), rng.normal(size=(3, 3, 3, 4)),
                   rng.normal(size=4))
        # fractional offsets reaching past both clamp borders of each axis
        off = rng.uniform(-3.5, 3.5, size=(2, 6, 7, 18))
        g = rng.normal(size=(2, 6, 7, 4))
        tape = tc.Tape()
        leaves = [tc.Tensor(a, tape) for a in (x, w, b, off)]
        out = tc.deformable_conv2d(*leaves)
        grads = tc.backward(tc.sum_(tc.mul(out, c(g))), leaves)
        ref_out, ref_vjp = _deformable_reference(x, w, b, off)
        for got, want in zip([out.data] + grads,
                             (ref_out,) + ref_vjp(g)):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    def test_vjp_keeps_less_than_one_sample_array(self):
        rng = np.random.default_rng(7)
        bsz, h, wdt, cin, k = 2, 8, 8, 8, 3
        tape = tc.Tape()
        out = tc.deformable_conv2d(
            tc.Tensor(rng.normal(size=(bsz, h, wdt, cin)), tape),
            tc.Tensor(rng.normal(size=(k, k, cin, 4)), tape),
            tc.Tensor(rng.normal(size=4), tape),
            tc.Tensor(rng.uniform(-2, 2, size=(bsz, h, wdt, 2 * k * k)), tape))
        bases, todo = {}, [out.vjp]
        while todo:  # arrays in the closure, and in closures of functions in it
            for cell in todo.pop().__closure__ or ():
                a = cell.cell_contents
                if callable(a) and hasattr(a, "__closure__"):
                    todo.append(a)
                elif isinstance(a, np.ndarray):
                    while isinstance(a.base, np.ndarray):
                        a = a.base
                    bases[id(a)] = a.nbytes
        assert sum(bases.values()) < bsz * h * wdt * k * k * cin * 8

    def test_offset_channel_mismatch(self):
        with pytest.raises(tc.ShapeError, match="offset"):
            tc.deformable_conv2d(c(self.x), c(self.w), c(self.b),
                                 c(np.zeros((1, 8, 8, 17))))


class TestLayerNorm:
    def test_constant_vector_gives_zeros(self):
        x = c(np.full((3, 4), 7.0))
        out = tc.layer_norm(x, c(np.ones(4)), c(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-2)

    def test_two_point_vector(self):
        out = tc.layer_norm(c([[1.0, 3.0]]), c(np.ones(2)), c(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_mean_and_variance(self):
        x = c(np.random.default_rng(6).normal(size=(5, 16)))
        out = tc.layer_norm(x, c(np.ones(16)), c(np.zeros(16))).data
        assert np.abs(out.mean(axis=-1)).max() <= 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() <= 1e-4

    def test_shift_scale_invariance(self):
        x = np.random.default_rng(7).normal(size=(4, 8))
        g, b = c(np.ones(8)), c(np.zeros(8))
        a = tc.layer_norm(c(x), g, b).data
        bb = tc.layer_norm(c(3.0 * x + 2.0), g, b).data
        np.testing.assert_allclose(a, bb, atol=1e-3)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_untaped_call_holds_two_input_sized_arrays(self, dtype):
        # the output and the squared deviations: the centring, the scaling
        # and the affine run in place in the output
        x = np.random.default_rng(8).normal(size=(64, 64, 60)).astype(dtype)
        g, b = np.ones(60, dtype), np.zeros(60, dtype)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tc.layer_norm(x, g, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # beyond those, the row statistics and their temporaries, and the
        # reductions' buffers: a few row-sized arrays
        rows = x.size // x.shape[-1]
        assert peak <= 2 * x.nbytes + 8 * rows * x.itemsize


def _attention_chain(q, k, v, heads):
    """The matmul / scale / softmax / matmul chain, with its head split
    and merge, that window_attention replaced: the output and a vjp
    returning (gq, gk, gv), each step as its kernel computed it."""
    bw, t, d = q.shape
    hd = d // heads
    scale = float(1.0 / np.sqrt(hd))

    def split(x):  # reshape, transpose
        return np.transpose(x.reshape(bw, t, heads, hd), (0, 2, 1, 3))

    def merge(x):  # transpose, reshape
        return np.transpose(x, (0, 2, 1, 3)).reshape(bw, t, d)

    qh, kh, vh = split(q), split(k), split(v)
    kt = np.transpose(kh, (0, 1, 3, 2))
    s = (qh @ kt) * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        go = split(g)
        gy = go @ np.swapaxes(vh, -1, -2)
        gv = np.swapaxes(y, -1, -2) @ go
        gs = y * (gy - (gy * y).sum(axis=-1, keepdims=True))
        gs = gs * scale
        gq = gs @ np.swapaxes(kt, -1, -2)
        gk = np.transpose(np.swapaxes(qh, -1, -2) @ gs, (0, 1, 3, 2))
        return merge(gq), merge(gk), merge(gv)

    return merge(y @ vh), vjp


class TestWindowAttention:
    @pytest.mark.parametrize("heads", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_chain(self, heads, dtype):
        rng = np.random.default_rng(16)
        q, k, v, g = (rng.normal(size=(3, 4, 6)).astype(dtype) for _ in range(4))
        tape = tc.Tape()
        leaves = [tc.Tensor(a, tape) for a in (q, k, v)]
        out = tc.window_attention(*leaves, heads)
        grads = tc.backward(tc.sum_(tc.mul(out, tc.Tensor(g))), leaves)
        ref_out, ref_vjp = _attention_chain(q, k, v, heads)
        for got, want in zip([out.data] + grads,
                             (ref_out,) + ref_vjp(g)):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_large_values_no_overflow(self):
        # one head over two tokens: both queries score the keys 3 and 1003
        q = c(np.ones((1, 2, 1)))
        k = c([[[3.0], [1003.0]]])
        v = c([[[5.0], [7.0]]])
        out = tc.window_attention(q, k, v, 1).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, 7.0, atol=1e-6)

    def test_rows_sum_to_one(self):
        # one-hot values read each head's probability rows out
        rng = np.random.default_rng(17)
        q, k = rng.normal(size=(2, 2, 5, 10))
        v = np.tile(np.eye(5), (2, 1, 2))
        out = tc.window_attention(c(q), c(k), c(v), 2).data.reshape(2, 5, 2, 5)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        # a vector added to every key shifts each score row by a constant
        rng = np.random.default_rng(18)
        q, k, v = rng.normal(size=(3, 2, 4, 6))
        shift = 13.0 * rng.normal(size=6)
        a = tc.window_attention(c(q), c(k), c(v), 2).data
        b = tc.window_attention(c(q), c(k + shift), c(v), 2).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_symmetry(self):
        # all-equal scores average the values over the window
        rng = np.random.default_rng(19)
        q, v = rng.normal(size=(2, 2, 4, 6))
        out = tc.window_attention(c(q), c(np.zeros((2, 4, 6))), c(v), 3).data
        np.testing.assert_allclose(out, np.broadcast_to(
            v.mean(axis=1, keepdims=True), v.shape), atol=1e-12)

    def test_vjp_keeps_no_attention_map(self):
        bw, heads, t = 3, 2, 4
        tape = tc.Tape()
        rng = np.random.default_rng(20)
        out = tc.window_attention(
            *(tc.Tensor(rng.normal(size=(bw, t, 6)), tape) for _ in range(3)),
            heads)
        arrays, todo = {}, [out.vjp]
        while todo:  # arrays in the closure, and in closures of functions in it
            for cell in todo.pop().__closure__ or ():
                a = cell.cell_contents
                if callable(a) and hasattr(a, "__closure__"):
                    todo.append(a)
                elif isinstance(a, np.ndarray):
                    arrays[id(a)] = a.shape
        assert list(arrays.values()).count((bw, heads, t, t)) == 0

    @pytest.mark.parametrize("windows", [256, 1024])
    def test_vjp_working_set_is_a_few_chunks(self, windows):
        rng = np.random.default_rng(21)
        tape = tc.Tape()
        out = tc.window_attention(*(tc.Tensor(rng.normal(
            size=(windows, 16, 16)).astype(np.float32), tape) for _ in range(3)), 2)
        g = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grads = out.vjp(g)
            peak = (tracemalloc.get_traced_memory()[1] - base
                    - sum(a.nbytes for a in grads))
        finally:
            tracemalloc.stop()
        # a span's probabilities, its score gradients and one product of the
        # two; every window's 2 x 16 x 16 probabilities would be 2 or 8 chunks
        assert peak <= 4 * tc.CHUNK_BYTES

    def test_shape_mismatch(self):
        with pytest.raises(tc.ShapeError, match="equal"):
            tc.window_attention(c(np.zeros((2, 4, 6))), c(np.zeros((2, 4, 6))),
                                c(np.zeros((2, 5, 6))), 2)
        with pytest.raises(tc.ShapeError, match="divisible"):
            tc.window_attention(*(c(np.zeros((2, 4, 6))) for _ in range(3)), 4)


class TestLinear:
    def test_identity(self):
        x = np.random.default_rng(10).normal(size=(4, 3))
        out = tc.linear(c(x), c(np.eye(3)), c(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_arithmetic(self):
        out = tc.linear(c([[1.0, 2.0]]), c([[1.0], [1.0]]), c([0.5]))
        assert out.data[0, 0] == pytest.approx(3.5)

    def test_loop_oracle(self):
        rng = np.random.default_rng(11)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
        out = tc.linear(c(x), c(w), c(b)).data
        ref = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                ref[i, j] = b[j] + sum(x[i, k] * w[k, j] for k in range(4))
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(tc.ShapeError):
            tc.linear(c(np.zeros((2, 3))), c(np.zeros((4, 2))), c(np.zeros(2)))


class TestActivations:
    def test_leaky_relu_slope(self):
        assert tc.leaky_relu(c([-1.0])).data[0] == pytest.approx(-0.01)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_mask_in_input_dtype_matches_f64_mask(self, dtype):
        # the mask once was built in f64 and cast: same factors, same bits
        x = np.random.default_rng(30).normal(size=(4, 50)).astype(dtype)
        x[0, :2] = [0.0, -0.0]
        old = np.where(x >= 0, 1.0, 0.01).astype(dtype)
        out = tc.leaky_relu(tc.Tensor(x))
        assert out.data.dtype == dtype
        assert out.data.tobytes() == (x * old).tobytes()
        tape = tc.Tape()
        leaf = tc.Tensor(x[1:], tape)
        (g,) = tc.backward(tc.sum_(tc.leaky_relu(leaf)), [leaf])
        assert g.dtype == dtype and g.tobytes() == old[1:].tobytes()
        for bad in (np.inf, -np.inf):
            with pytest.raises(FloatingPointError,
                               match="non-finite values in leaky_relu output"):
                tc.leaky_relu(tc.Tensor(np.array([1.0, bad], dtype)))

    def test_sigmoid_zero(self):
        assert tc.sigmoid(c([0.0])).data[0] == pytest.approx(0.5)

    def test_sigmoid_saturation(self):
        out = tc.sigmoid(c([40.0, -40.0])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-6)


class TestChunks:
    """conv2d, deformable_conv2d and window_attention split their output
    into chunks of at most tc.CHUNK_BYTES of working rows."""

    @staticmethod
    def run(monkeypatch, chunk_bytes, kernel, arrays, g):
        """Untaped output, taped output and taped gradients at one chunk size."""
        monkeypatch.setattr(tc, "CHUNK_BYTES", chunk_bytes)
        untaped = kernel(*arrays).data
        tape = tc.Tape()
        leaves = [tc.Tensor(a, tape) for a in arrays]
        out = kernel(*leaves)
        grads = tc.backward(tc.sum_(tc.mul(out, tc.Tensor(g))), leaves)
        return [untaped, out.data] + grads

    def check(self, monkeypatch, kernel, arrays, chunk_bytes, exact, plans=2):
        out = kernel(*arrays).data
        g = np.random.default_rng(31).normal(size=out.shape).astype(out.dtype)
        one = self.run(monkeypatch, 1 << 40, kernel, arrays, g)
        calls, chunks = [], tc._chunks

        def spy(*args):
            calls.append(chunks(*args))
            return calls[-1]

        monkeypatch.setattr(tc, "_chunks", spy)
        many = self.run(monkeypatch, chunk_bytes, kernel, arrays, g)
        # one span plan per forward, untaped and taped, and any the vjp makes
        assert len(calls) == plans and min(len(spans) for _, spans in calls) >= 3
        np.testing.assert_array_equal(many[0], many[1])  # one loop, both modes
        for got, want in zip(many, one):
            assert got.dtype == want.dtype
            if exact:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_window_attention_in_chunks_is_bit_identical(self, monkeypatch, dtype):
        rng = np.random.default_rng(32)
        q, k, v = (rng.normal(size=(7, 4, 6)).astype(dtype) for _ in range(3))
        # two windows of 2 heads x 4 x 4 scores per chunk: 4 chunks
        self.check(monkeypatch, lambda q, k, v: tc.window_attention(q, k, v, 2),
                   (q, k, v), 2 * (2 * 4 * 4 * q.itemsize), exact=True)

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_conv2d_in_chunks_at_batch_2(self, monkeypatch, dilation):
        rng = np.random.default_rng(33)
        x, w, b = (rng.normal(size=(2, 9, 7, 3)), rng.normal(size=(3, 3, 3, 4)),
                   rng.normal(size=4))
        # two output rows of 2 x 7 patches of 27 f64 values per chunk: 5
        # chunks; the vjp plans spans of g's 36-value patches for the input
        # gradient and the forward's spans again for the weight gradient
        self.check(monkeypatch, lambda x, w, b: tc.conv2d(x, w, b, dilation),
                   (x, w, b), 2 * (2 * 7 * 27 * 8), exact=False, plans=4)

    def test_deformable_conv2d_in_chunks_at_batch_2(self, monkeypatch):
        rng = np.random.default_rng(34)
        x, w, b = (rng.normal(size=(2, 6, 7, 3)), rng.normal(size=(3, 3, 3, 4)),
                   rng.normal(size=4))
        # fractional offsets reaching past both clamp borders of each axis;
        # 10-pixel chunks start mid-row and one spans both images
        off = rng.uniform(-3.5, 3.5, size=(2, 6, 7, 18))
        self.check(monkeypatch, tc.deformable_conv2d, (x, w, b, off),
                   10 * (27 * 8), exact=False)

    def test_nan_in_a_later_chunk_names_the_kernel(self, monkeypatch):
        monkeypatch.setattr(tc, "CHUNK_BYTES", 2 * 7 * 27 * 8)  # one row each
        x = np.ones((2, 9, 7, 3))
        x[1, 8, 3, 0] = np.nan
        with pytest.raises(FloatingPointError,
                           match="non-finite values in conv2d output"):
            tc.conv2d(x, np.ones((3, 3, 3, 4)), np.zeros(4))

    @pytest.mark.parametrize("size", [64, 256])
    def test_untaped_conv2d_working_set_is_a_few_chunks(self, size):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(1, size, size, 8)).astype(np.float32)
        w = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        b = np.zeros(8, np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = tc.conv2d(x, w, b).data
            peak = tracemalloc.get_traced_memory()[1] - base - out.nbytes
        finally:
            tracemalloc.stop()
        # a whole-image im2col would be 9 input-sized arrays
        assert peak <= 3 * tc.CHUNK_BYTES

    @pytest.mark.parametrize("size", [64, 256])
    def test_conv_vjp_working_sets_are_a_few_chunks(self, size):
        rng = np.random.default_rng(36)
        x, g = (rng.normal(size=(1, size, size, 8)).astype(np.float32)
                for _ in "xg")
        w = rng.normal(0, 0.1, size=(3, 3, 8, 8)).astype(np.float32)
        b = np.zeros(8, np.float32)
        off = rng.uniform(-2, 2, size=(1, size, size, 18)).astype(np.float32)
        # the deformable vjp holds two image-sized arrays besides: the padded
        # input it samples and its f64 Cin x pixels scatter buffer
        image = (size + 2) ** 2 * 8 * (4 + 8)
        for kernel, ins, bound in (
                (tc.conv2d, (x, w, b), 3 * tc.CHUNK_BYTES),
                (tc.deformable_conv2d, (x, w, b, off), image + 8 * tc.CHUNK_BYTES)):
            tape = tc.Tape()
            out = kernel(*(tc.Tensor(a, tape) for a in ins))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                grads = out.vjp(g)
                peak = (tracemalloc.get_traced_memory()[1] - base
                        - sum(a.nbytes for a in grads))
            finally:
                tracemalloc.stop()
            # a span's patches or samples, and the deformable scatter's int64
            # index and f64 weights; whole-image patches would be 9
            # input-sized arrays, and samples more
            assert peak <= bound, kernel.__name__


class TestGlobalAvgPool:
    def test_constant(self):
        out = tc.global_avg_pool(c(np.full((2, 3, 4, 5), 2.5)))
        np.testing.assert_allclose(out.data, 2.5)

    def test_small_case(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        assert tc.global_avg_pool(c(x)).data[0, 0] == pytest.approx(2.5)

    def test_loop_oracle(self):
        x = np.random.default_rng(12).normal(size=(2, 3, 4, 5))
        out = tc.global_avg_pool(c(x)).data
        for b in range(2):
            for ch in range(5):
                assert out[b, ch] == pytest.approx(x[b, :, :, ch].mean())


class TestTake:
    # rows 1 and 4 repeat, row 3 is never read
    idx = np.array([4, 1, 0, 1, 2, 4, 4])

    def test_forward_is_the_row_gather(self):
        x = np.random.default_rng(16).normal(size=(2, 5, 3))
        np.testing.assert_array_equal(tc.take(c(x), self.idx).data, x[:, self.idx])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vjp_matches_add_at_over_every_row(self, dtype):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 5, 3)).astype(dtype)
        g = rng.normal(size=(2, 7, 3)).astype(dtype)
        tape = tc.Tape()
        xl = tc.Tensor(x, tape)
        (gx,) = tc.backward(tc.sum_(tc.mul(tc.take(xl, self.idx), g)), [xl])
        want = np.zeros_like(x)
        np.add.at(want, (slice(None), self.idx), g)
        np.testing.assert_array_equal(gx, want)
        assert not gx[:, 3].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bytes_match_the_fancy_index(self, dtype):
        x = np.random.default_rng(18).normal(size=(2, 5, 3)).astype(dtype)
        out = tc.take(x, self.idx).data
        assert out.dtype == dtype and out.tobytes() == x[:, self.idx].tobytes()

    def test_needs_three_axes(self):
        with pytest.raises(tc.ShapeError, match="B x N x D"):
            tc.take(c(np.zeros((5, 3))), self.idx)


class TestElementwise:
    def test_mul_by_ones(self):
        x = np.random.default_rng(13).normal(size=(2, 3))
        np.testing.assert_array_equal(tc.mul(c(x), c(np.ones((2, 3)))).data, x)

    def test_add_zeros(self):
        x = np.random.default_rng(14).normal(size=(2, 3))
        np.testing.assert_array_equal(tc.add(c(x), c(np.zeros((2, 3)))).data, x)

    def test_concat_channel_counts(self):
        a = c(np.zeros((1, 2, 2, 4)))
        b = c(np.zeros((1, 2, 2, 12)))
        assert tc.concat([a, b], axis=3).shape == (1, 2, 2, 16)

    def test_incompatible_shapes(self):
        with pytest.raises(tc.ShapeError):
            tc.add(c(np.zeros((2, 3))), c(np.zeros((4, 5))))


def test_kernels_are_pure():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(1, 6, 6, 2))
    w = rng.normal(size=(3, 3, 2, 2))
    a = tc.conv2d(c(x), c(w), c(np.zeros(2))).data
    b = tc.conv2d(c(x), c(w), c(np.zeros(2))).data
    np.testing.assert_array_equal(a, b)
    s = tc.sigmoid(c(x)).data
    np.testing.assert_array_equal(s, tc.sigmoid(c(x)).data)


def _dtype(x):
    return (x.data if isinstance(x, tc.Tensor) else x).dtype


def _onehot_values(q):
    # 3 windows, 4 tokens, 2 heads of 4: each head reads its own
    # probability rows out, so the output is the probability map itself
    return np.tile(np.eye(4, dtype=_dtype(q)), (3, 1, 2))


# every kernel once: name -> (build from input tensors, input shapes); inputs
# are drawn from [0.5, 1.5].
# "window_attention/probs" and "/values" are the kernel's two stages on their
# own: the probability map of the scores (one-hot values), and the fixed, here
# uniform, probabilities' product with the values (zero queries and keys)
KERNEL_CASES = {
    "add": (tc.add, [(2, 3), (3,)]),
    "mul": (tc.mul, [(2, 3), (2, 3)]),
    "sigmoid": (tc.sigmoid, [(2, 3)]),
    "leaky_relu": (tc.leaky_relu, [(2, 3)]),
    "sum_": (tc.sum_, [(2, 3)]),
    "global_avg_pool": (tc.global_avg_pool, [(1, 3, 4, 2)]),
    "reshape": (lambda x: tc.reshape(x, (3, 2)), [(2, 3)]),
    "concat": (lambda a, b: tc.concat([a, b], axis=1), [(2, 3), (2, 1)]),
    "take": (lambda x: tc.take(x, np.array([2, 0, 1, 2, 0])), [(2, 3, 4)]),
    "linear": (tc.linear, [(2, 3, 4), (4, 5), (5,)]),
    "layer_norm": (tc.layer_norm, [(2, 4), (4,), (4,)]),
    "window_attention": (lambda q, k, v: tc.window_attention(q, k, v, 2),
                         [(3, 4, 6)] * 3),
    "window_attention/probs": (
        lambda q, k: tc.window_attention(q, k, _onehot_values(q), 2),
        [(3, 4, 8)] * 2),
    "window_attention/values": (
        lambda v: tc.window_attention(np.zeros(v.shape, _dtype(v)),
                                      np.zeros(v.shape, _dtype(v)), v, 2),
        [(3, 4, 6)]),
    "conv2d": (lambda x, w, b: tc.conv2d(x, w, b, dilation=2),
               [(1, 5, 5, 2), (3, 3, 2, 3), (3,)]),
    "deformable_conv2d": (tc.deformable_conv2d,
                          [(1, 5, 5, 2), (3, 3, 2, 3), (3,), (1, 5, 5, 18)]),
}
NOT_KERNELS = {"backward"}


def _case_inputs(name, dtype):
    rng = np.random.default_rng(0)
    return [rng.uniform(0.5, 1.5, size=s).astype(dtype)
            for s in KERNEL_CASES[name][1]]


def test_kernel_cases_cover_every_kernel():
    public = {n for n, f in vars(tc).items() if callable(f)
              and getattr(f, "__module__", None) == tc.__name__
              and not n.startswith("_") and not isinstance(f, type)}
    assert ({k.split("/")[0] for k in KERNEL_CASES}
            == public - NOT_KERNELS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_keeps_dtype_forward_and_backward(name, dtype):
    tape = tc.Tape()
    leaves = [tc.Tensor(a, tape) for a in _case_inputs(name, dtype)]
    out = KERNEL_CASES[name][0](*leaves)
    assert out.data.dtype == dtype
    grads = tc.backward(tc.sum_(out), leaves)
    assert [g.dtype for g in grads] == [dtype] * len(leaves)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_untaped_kernel_keeps_no_graph(name):
    ins = _case_inputs(name, np.float64)
    # tensors and raw arrays alike: neither is taped
    for args in ([tc.Tensor(a) for a in ins], ins):
        out = KERNEL_CASES[name][0](*args)
        assert out.tape is None
        assert out.node is None
        assert out.vjp is None


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _retained(vjp):
    """The arrays, by id of their base, that a vjp keeps: in its closure, and
    in closures and sequences in it."""
    found, seen, todo = {}, set(), [vjp]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found[id(_root(obj))] = _root(obj)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return found


# the case inputs (by position), or "out", the kernel's own output, whose
# values each vjp reads and so may keep; a kernel not named reads none: the
# shape-only vjps keep shapes and dtypes
VJP_READS = {
    "mul": (0, 1), "sigmoid": ("out",), "leaky_relu": ("out",), "linear": (0, 1),
    "layer_norm": (0, 1), "window_attention": (0, 1, 2),
    "window_attention/probs": (0, 1), "window_attention/values": (0,),
    "conv2d": (0, 1), "deformable_conv2d": (0, 1, 3),
}

# bytes a vjp may keep beyond the arrays it reads, from its case inputs;
# every kernel not named keeps nothing more
VJP_KEEPS = {
    "take": lambda x: 5 * np.dtype(np.intp).itemsize,  # the index
    # the row statistics mu and 1/sigma, one value per row each
    "layer_norm": lambda x, *_: 2 * x.nbytes // x.shape[-1],
    # the stages' fixed inputs, made inside the case: values, queries and keys
    "window_attention/probs": lambda q, k: _onehot_values(q).nbytes,
    "window_attention/values": lambda v: 2 * v.nbytes,
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_vjp_keeps_nothing_it_can_rebuild(name, dtype):
    ins = _case_inputs(name, dtype)
    tape = tc.Tape()
    leaves = [tc.Tensor(a, tape) for a in ins]
    out = KERNEL_CASES[name][0](*leaves)
    reads = {id(_root((out if i == "out" else leaves[i]).data))
             for i in VJP_READS.get(name, ())}
    kept = _retained(out.vjp)
    extra = sum(a.nbytes for i, a in kept.items() if i not in reads)
    assert extra <= VJP_KEEPS.get(name, lambda *_: 0)(*ins)


def _chunks_keeping(n, row_bytes, keep=False):
    """tc._chunks as it was when a taped kernel could keep every span's rows:
    spans (lo, hi, at), and the buffer's rows, all n to ``keep`` them."""
    step = max(1, tc.CHUNK_BYTES // max(1, row_bytes))
    spans = [(lo, min(lo + step, n), lo * keep) for lo in range(0, max(n, 1), step)]
    return (n if keep else spans[0][1]), spans


# conv2d, layer_norm, leaky_relu and window_attention as they were when their
# vjps kept the im2col patches, xhat, the slope mask and the probabilities:
# the kernels now rebuild these in the backward, from the same inputs with
# the same operations, except that leaky_relu reads its slopes from its
# output and conv2d's backward is a correlation of g plus span sums, which
# sum in another order. sigmoid as it was when it split its input by sign
# through fancy indexing: the kernel now computes both halves in one pass
def _conv2d_keeping_patches(x, w, b, dilation=1):
    xd, wd = tc._data(x), tc._data(w)
    k = wd.shape[0]
    bsz, h, wdt, cin = xd.shape
    cout = wd.shape[3]
    p = dilation * (k - 1) // 2
    w2, bd = wd.reshape(k * k * cin, cout), tc._data(b)
    rows, spans = _chunks_keeping(h, bsz * wdt * k * k * cin * xd.itemsize,
                                  tc._tape(x, w, b) is not None)
    patches = np.empty((bsz, rows, wdt, k, k, cin), xd.dtype)
    out = np.empty((bsz, h, wdt, cout), np.result_type(xd, wd, bd))
    for lo, hi, at in spans:
        top, end = max(lo - p, 0), min(hi + p, h)
        xp = np.zeros((bsz, hi - lo + 2 * p, wdt + 2 * p, cin), xd.dtype)
        xp[:, top - lo + p:end - lo + p, p:p + wdt] = xd[:, top:end]
        pc = patches[:, at:at + hi - lo]
        for ki in range(k):
            for kj in range(k):
                y0, x0 = ki * dilation, kj * dilation
                pc[:, :, :, ki, kj, :] = xp[:, y0:y0 + hi - lo, x0:x0 + wdt, :]
        out[:, lo:hi] = pc.reshape(bsz, hi - lo, wdt, k * k * cin) @ w2 + bd

    def vjp(g):
        gw = (patches.reshape(-1, len(w2)).T @ g.reshape(-1, cout)).reshape(wd.shape)
        gp = (g @ w2.T).reshape(bsz, h, wdt, k, k, cin)
        gxp = np.zeros((bsz, h + 2 * p, wdt + 2 * p, cin), xd.dtype)
        for ki in range(k):
            for kj in range(k):
                y0, x0 = ki * dilation, kj * dilation
                gxp[:, y0:y0 + h, x0:x0 + wdt, :] += gp[:, :, :, ki, kj, :]
        return gxp[:, p:p + h, p:p + wdt, :], gw, g.sum(axis=(0, 1, 2))

    return tc._make(out, (x, w, b), vjp)


def _layer_norm_keeping_xhat(x, gamma, beta):
    xd, gd, bd = tc._data(x), tc._data(gamma), tc._data(beta)
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    out = gd * xhat + bd
    n = xd.shape[-1]
    lead = tuple(range(xd.ndim - 1))

    def vjp(g):
        gxhat = g * gd
        gx = inv * (gxhat
                    - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True) / n)
        ggamma = (g * xhat).sum(axis=lead)
        gbeta = g.sum(axis=lead)
        return (gx, ggamma, gbeta)

    return tc._make(out, (x, gamma, beta), vjp)


def _leaky_relu_keeping_mask(x):
    xd = tc._data(x)
    mask = np.where(xd >= 0, xd.dtype.type(1), xd.dtype.type(0.01))
    return tc._make(xd * mask, (x,), lambda g: (g * mask,))


def _sigmoid_fancy_index(x):
    xd = tc._data(x)
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    y[~pos] = ex / (1.0 + ex)
    return tc._make(y, (x,), lambda g: (g * y * (1.0 - y),))


def _window_attention_keeping_probabilities(q, k, v, heads):
    qd, kd, vd = tc._data(q), tc._data(k), tc._data(v)
    bw, t, d = qd.shape
    hd = d // heads
    scale = float(1.0 / np.sqrt(hd))

    def split(x):
        return np.transpose(x.reshape(len(x), t, heads, hd), (0, 2, 1, 3))

    def merge(x):
        return np.transpose(x, (0, 2, 1, 3)).reshape(len(x), t, d)

    qh, kh, vh = split(qd), split(kd), split(vd)
    rows, spans = _chunks_keeping(bw, heads * t * t * qd.itemsize,
                                  tc._tape(q, k, v) is not None)
    y = np.empty((rows, heads, t, t), np.result_type(qd, kd))
    out = np.empty(qd.shape, np.result_type(y, vd))
    for lo, hi, at in spans:
        yc = y[at:at + hi - lo]
        np.matmul(qh[lo:hi], np.swapaxes(kh[lo:hi], -1, -2), out=yc)
        yc *= scale
        yc -= yc.max(axis=-1, keepdims=True)
        np.exp(yc, out=yc)
        yc /= yc.sum(axis=-1, keepdims=True)
        out[lo:hi] = merge(yc @ vh[lo:hi])

    def vjp(g):
        go = split(g)
        ga = go @ np.swapaxes(vh, -1, -2)
        gs = y * (ga - (ga * y).sum(axis=-1, keepdims=True)) * scale
        gk = np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2)
        return merge(gs @ kh), merge(gk), merge(np.swapaxes(y, -1, -2) @ go)

    return tc._make(out, (q, k, v), vjp)


def _deformable_conv2d_fancy_index(x, w, b, offsets):
    """deformable_conv2d as it was when it read its corner rows as xf[i]."""
    xd, wd, od = tc._data(x), tc._data(w), tc._data(offsets)
    k = wd.shape[0]
    bsz, h, wdt, cin = xd.shape
    cout = wd.shape[3]
    w2, bd = wd.reshape(k * k * cin, cout), tc._data(b)
    p = (k - 1) // 2
    hp, wp = h + 2 * p, wdt + 2 * p
    xf = np.pad(xd, ((0, 0), (p, p), (p, p), (0, 0))).reshape(-1, cin)
    offs = od.reshape(-1, k, k, 2)
    taps = np.arange(k, dtype=xd.dtype)

    def coords(lo, hi):
        bi, yx = np.divmod(np.arange(lo, hi), h * wdt)
        ys, xs = (a.astype(xd.dtype)[:, None, None] for a in np.divmod(yx, wdt))
        py_raw = (ys + taps[:, None] + offs[lo:hi, ..., 0]).reshape(-1)
        px_raw = (xs + taps + offs[lo:hi, ..., 1]).reshape(-1)
        my = (py_raw > 0) & (py_raw < hp - 1)
        mx = (px_raw > 0) & (px_raw < wp - 1)
        py = np.clip(py_raw, 0.0, hp - 1.0)
        px = np.clip(px_raw, 0.0, wp - 1.0)
        y0 = np.clip(np.floor(py).astype(np.int64), 0, hp - 2)
        x0 = np.clip(np.floor(px).astype(np.int64), 0, wp - 2)
        wy = (py - y0).astype(xd.dtype, copy=False)
        wx = (px - x0).astype(xd.dtype, copy=False)
        i00 = (np.repeat(bi * hp, k * k) + y0) * wp + x0
        return i00, wy, wx, my, mx

    def lerp_rows(i, t):
        left, d = xf[i], xf[i + 1]
        d -= left
        left += t[:, None] * d
        return left, d

    def sample(i00, wy, wx):
        top, dx0 = lerp_rows(i00, wx)
        dvdy, dx1 = lerp_rows(i00 + wp, wx)
        dvdy -= top
        top += wy[:, None] * dvdy
        return top.reshape(-1, k * k * cin), dvdy, dx0, dx1

    out = np.empty((bsz * h * wdt, cout), np.result_type(xd, wd, bd))
    for lo, hi, _ in _chunks_keeping(len(out), k * k * cin * xd.itemsize)[1]:
        out[lo:hi] = sample(*coords(lo, hi)[:3])[0] @ w2 + bd

    def vjp(g):
        g2 = g.reshape(-1, cout)
        gs = (g2 @ w2.T).reshape(-1, cin)
        i00, wy, wx, my, mx = coords(0, len(g2))
        s, dvdy, dx0, dx1 = sample(i00, wy, wx)
        gw = (s.T @ g2).reshape(wd.shape)
        gpy = (gs * dvdy).sum(axis=-1) * my
        a0 = (gs * dx0).sum(axis=-1)
        gpx = (a0 + wy * ((gs * dx1).sum(axis=-1) - a0)) * mx
        n = bsz * hp * wp
        gxp = np.zeros((n, cin))
        for d, cw in ((0, (1 - wy) * (1 - wx)), (1, (1 - wy) * wx),
                      (wp, wy * (1 - wx)), (wp + 1, wy * wx)):
            for ch in range(cin):
                gxp[d:, ch] += np.bincount(i00, gs[:, ch] * cw, n - d)
        gx = gxp.astype(wy.dtype).reshape(bsz, hp, wp, cin)[:, p:p + h, p:p + wdt]
        goff = np.stack([gpy, gpx], axis=-1).reshape(bsz, h, wdt, -1)
        return (gx, gw, g.sum(axis=(0, 1, 2)), goff)

    return tc._make(out.reshape(bsz, h, wdt, cout), (x, w, b, offsets), vjp)


class TestRebuiltInBackward:
    """The kernels that rebuild what their vjps once kept, or gather or
    compute in one pass what they once did piecewise, give the same bits,
    forward and backward, as their copies above; where a backward now sums
    in spans, its gradients agree within 16 ulps of their largest value."""

    def check(self, monkeypatch, kernel, before, arrays, chunk_bytes=1 << 40,
              grads_within=None):
        """Outputs byte for byte; gradients too, or, given ``grads_within``,
        within that many ulps of the gradient's largest magnitude."""
        out = before(*arrays).data
        g = np.random.default_rng(41).normal(size=out.shape).astype(out.dtype)
        new = TestChunks.run(monkeypatch, chunk_bytes, kernel, arrays, g)
        old = TestChunks.run(monkeypatch, chunk_bytes, before, arrays, g)
        for i, (a, b) in enumerate(zip(new, old)):
            assert a.dtype == b.dtype
            if i < 2 or grads_within is None:  # the untaped and taped outputs
                assert a.tobytes() == b.tobytes()
            else:
                tol = grads_within * np.finfo(b.dtype).eps * np.abs(b).max()
                np.testing.assert_allclose(a, b, rtol=0, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("chunk_rows", [None, 2])
    def test_conv2d(self, monkeypatch, dtype, dilation, chunk_rows):
        rng = np.random.default_rng(42)
        x, w, b = (rng.normal(size=s).astype(dtype)
                   for s in [(2, 9, 7, 3), (3, 3, 3, 4), (4,)])
        row_bytes = 2 * 7 * 27 * x.itemsize
        # one chunk, or two output rows a chunk: 5 chunks
        chunk_bytes = chunk_rows * row_bytes if chunk_rows else 1 << 40
        monkeypatch.setattr(tc, "CHUNK_BYTES", chunk_bytes)
        assert len(tc._chunks(9, row_bytes)[1]) == (5 if chunk_rows else 1)
        # the backward is a correlation of g and sums over spans: it sums in
        # another order than the tap loop and the one weight-gradient GEMM
        self.check(monkeypatch, lambda x, w, b: tc.conv2d(x, w, b, dilation),
                   lambda x, w, b: _conv2d_keeping_patches(x, w, b, dilation),
                   (x, w, b), chunk_bytes, grads_within=16)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm(self, monkeypatch, dtype):
        rng = np.random.default_rng(43)
        x, gamma, beta = (rng.normal(size=s).astype(dtype)
                          for s in [(2, 5, 6, 16), (16,), (16,)])
        self.check(monkeypatch, tc.layer_norm, _layer_norm_keeping_xhat,
                   (x, gamma, beta))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu(self, monkeypatch, dtype):
        x = np.random.default_rng(44).normal(size=(2, 5, 6, 16)).astype(dtype)
        x[0, 0, 0, :2] = [0.0, -0.0]
        self.check(monkeypatch, tc.leaky_relu, _leaky_relu_keeping_mask, (x,))
        for bad in (np.inf, -np.inf):
            with pytest.raises(FloatingPointError,
                               match="non-finite values in leaky_relu output"):
                tc.leaky_relu(np.array([1.0, bad], dtype))

    @pytest.mark.parametrize("dtype, tiny", [(np.float32, -1e-45),
                                             (np.float64, -5e-324)])
    def test_leaky_relu_at_signed_zeros_and_underflow(self, monkeypatch, dtype, tiny):
        # 0.01 * tiny underflows to -0.0, as 0.01 * -0.0 is: the output's sign
        # alone would give that negative input a slope of 1
        x = np.array([0.0, -0.0, tiny, -1.0], dtype)
        y = tc.leaky_relu(x).data
        assert x[2] < 0 and y[2] == 0 and np.signbit(y[2])
        self.check(monkeypatch, tc.leaky_relu, _leaky_relu_keeping_mask, (x,))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid(self, monkeypatch, dtype):
        x = np.random.default_rng(47).normal(0.0, 300.0, size=(4, 1000))
        # signed zeros, infinities, and both sides of exp's f32 and f64 range
        x[0, :12] = [0.0, -0.0, np.inf, -np.inf, 80.0, -80.0, 90.0, -90.0,
                     740.0, -740.0, 750.0, -750.0]
        self.check(monkeypatch, tc.sigmoid, _sigmoid_fancy_index,
                   (x.astype(dtype),))
        # +-inf saturate to 1 and 0, but NaN stays NaN, and the check names it
        for nan in (np.nan, -np.nan):
            with pytest.raises(FloatingPointError,
                               match="non-finite values in sigmoid output"):
                tc.sigmoid(np.array([1.0, nan], dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk_pixels", [None, 10])
    def test_deformable_conv2d(self, monkeypatch, dtype, chunk_pixels):
        rng = np.random.default_rng(45)
        x, w, b = (rng.normal(size=s).astype(dtype)
                   for s in [(2, 6, 7, 3), (3, 3, 3, 4), (4,)])
        # fractional offsets reaching past both clamp borders of each axis
        off = rng.uniform(-3.5, 3.5, size=(2, 6, 7, 18)).astype(dtype)
        row_bytes = 27 * x.itemsize
        # one chunk, or 10 pixels a chunk: 9 chunks, one spanning both images
        chunk_bytes = chunk_pixels * row_bytes if chunk_pixels else 1 << 40
        monkeypatch.setattr(tc, "CHUNK_BYTES", chunk_bytes)
        assert len(tc._chunks(84, row_bytes)[1]) == (9 if chunk_pixels else 1)
        # in one span the backward sums as it did; over several it adds the
        # spans' weight gradients and scatters one after another
        self.check(monkeypatch, tc.deformable_conv2d,
                   _deformable_conv2d_fancy_index, (x, w, b, off), chunk_bytes,
                   grads_within=16 if chunk_pixels else None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [2, 3])
    @pytest.mark.parametrize("chunk_windows", [None, 2])
    def test_window_attention(self, monkeypatch, dtype, heads, chunk_windows):
        rng = np.random.default_rng(46)
        q, k, v = (rng.normal(size=(7, 9, 12)).astype(dtype) for _ in range(3))
        row_bytes = heads * 9 * 9 * q.itemsize
        # one chunk, or two windows a chunk: 4 chunks, the last of one window
        chunk_bytes = chunk_windows * row_bytes if chunk_windows else 1 << 40
        monkeypatch.setattr(tc, "CHUNK_BYTES", chunk_bytes)
        assert len(tc._chunks(7, row_bytes)[1]) == (4 if chunk_windows else 1)
        self.check(monkeypatch, lambda q, k, v: tc.window_attention(q, k, v, heads),
                   lambda q, k, v: _window_attention_keeping_probabilities(
                       q, k, v, heads), (q, k, v), chunk_bytes)
