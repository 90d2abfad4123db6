import numpy as np
import pytest

from hdrdeghost import tensor as tc
from hdrdeghost.head import extract_shallow, head_forward, sar, spatial_attention
from hdrdeghost.model import init_params, tiny_preset


@pytest.fixture(scope="module")
def cfg():
    return tiny_preset(dtype="f64")


@pytest.fixture(scope="module")
def params(cfg):
    return init_params(cfg, seed=3)


def leaves(params):
    return {k: tc.Tensor(v) for k, v in params.items()}


def rand_input(seed, h=8, w=8, ch=6):
    return tc.Tensor(np.random.default_rng(seed).uniform(0, 1, size=(1, h, w, ch)))


class TestExtractShallow:
    def test_output_shape(self, params, cfg):
        out = extract_shallow(rand_input(0), leaves(params))
        assert out.shape == (1, 8, 8, cfg.channels)

    def test_zero_input_zero_bias_gives_zero(self, params, cfg):
        out = extract_shallow(tc.Tensor(np.zeros((1, 4, 4, 6))),
                              leaves(params))
        np.testing.assert_array_equal(out.data, 0.0)  # init biases are zero

    def test_deterministic(self, params, cfg):
        a = extract_shallow(rand_input(1), leaves(params)).data
        b = extract_shallow(rand_input(1), leaves(params)).data
        np.testing.assert_array_equal(a, b)


class TestSpatialAttention:
    def test_maps_strictly_in_unit_interval(self, params, cfg):
        p = leaves(params)
        f1 = extract_shallow(rand_input(2), p)
        f2 = extract_shallow(rand_input(3), p)
        m = spatial_attention(f1, f2, p, 1).data
        assert np.all(m > 0.0) and np.all(m < 1.0)

    def test_streams_use_independent_modules(self, params, cfg):
        p = leaves(params)
        f1 = extract_shallow(rand_input(4), p)
        f2 = extract_shallow(rand_input(5), p)
        m1 = spatial_attention(f1, f2, p, 1).data
        m3 = spatial_attention(f1, f2, p, 3).data
        assert not np.array_equal(m1, m3)

    def test_matches_composition_oracle(self, params, cfg):
        p = leaves(params)
        rng = np.random.default_rng(6)
        f1 = tc.Tensor(rng.normal(size=(1, 6, 6, cfg.channels)))
        f2 = tc.Tensor(rng.normal(size=(1, 6, 6, cfg.channels)))
        m = spatial_attention(f1, f2, p, 1).data
        z = tc.concat([f1, f2], axis=3)
        a = tc.leaky_relu(tc.conv2d(z, p["head.att1.conv1.w"],
                                    p["head.att1.conv1.b"]))
        ref = tc.sigmoid(tc.conv2d(a, p["head.att1.conv2.w"],
                                   p["head.att1.conv2.b"])).data
        np.testing.assert_allclose(m, ref, atol=1e-12)

    def test_shape_mismatch(self, params, cfg):
        p = leaves(params)
        with pytest.raises(tc.ShapeError):
            spatial_attention(tc.Tensor(np.zeros((1, 4, 4, 8))),
                              tc.Tensor(np.zeros((1, 5, 5, 8))),
                              p, 1)


class TestGating:
    """head_forward gates each non-reference feature by tc.mul with its map."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.f = tc.Tensor(rng.normal(size=(1, 5, 5, 4)))
        self.m = tc.Tensor(rng.uniform(0, 1, size=(1, 5, 5, 4)))

    def test_unit_map_is_identity(self):
        out = tc.mul(self.f, tc.Tensor(np.ones((1, 5, 5, 4))))
        np.testing.assert_array_equal(out.data, self.f.data)

    def test_zero_map_gives_zeros(self):
        out = tc.mul(self.f, tc.Tensor(np.zeros((1, 5, 5, 4))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_elementwise_product_oracle(self):
        out = tc.mul(self.f, self.m).data
        np.testing.assert_array_equal(out, self.f.data * self.m.data)

    def test_gated_never_larger_in_magnitude(self):
        out = tc.mul(self.f, self.m).data
        assert np.all(np.abs(out) <= np.abs(self.f.data))


class TestSar:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.f2 = tc.Tensor(rng.normal(size=(1, 5, 5, 4)))
        self.m = tc.Tensor(rng.uniform(0, 1, size=(1, 5, 5, 4)))

    def test_equal_maps_reduce_to_single_gate(self):
        out = sar(self.f2, self.m, self.m).data
        np.testing.assert_array_equal(out, (self.f2.data * self.m.data))

    def test_unit_maps_are_identity(self):
        ones = tc.Tensor(np.ones((1, 5, 5, 4)))
        np.testing.assert_array_equal(sar(self.f2, ones, ones).data, self.f2.data)

    def test_half_gate(self):
        ones = tc.Tensor(np.ones((1, 5, 5, 4)))
        zeros = tc.Tensor(np.zeros((1, 5, 5, 4)))
        np.testing.assert_array_equal(sar(self.f2, ones, zeros).data,
                                      self.f2.data / 2.0)

    def test_disabled_passes_reference_through(self):
        out = sar(self.f2, self.m, self.m, enabled=False)
        assert out is self.f2


class TestConcatHead:
    def test_channel_layout(self, params, cfg):
        p = leaves(params)
        ins = [rand_input(i + 10) for i in range(3)]
        out = head_forward(ins, p, cfg).data
        assert out.shape[3] == 4 * cfg.channels
        c = cfg.channels
        f2 = extract_shallow(ins[1], p).data
        np.testing.assert_array_equal(out[..., 3 * c:], f2)

    def test_sar_disabled_exposes_raw_reference(self, params):
        cfg_off = tiny_preset(dtype="f64", sar=False)
        p = leaves(params)
        ins = [rand_input(i + 20) for i in range(3)]
        out = head_forward(ins, p, cfg_off).data
        c = cfg_off.channels
        f2 = extract_shallow(ins[1], p).data
        np.testing.assert_array_equal(out[..., c:2 * c], f2)

    def test_ablation_toggles_exactly_one_slice(self, params, cfg):
        cfg_off = tiny_preset(dtype="f64", sar=False)
        p = leaves(params)
        ins = [rand_input(i + 30) for i in range(3)]
        on = head_forward(ins, p, cfg).data
        off = head_forward(ins, p, cfg_off).data
        c = cfg.channels
        np.testing.assert_array_equal(on[..., :c], off[..., :c])
        np.testing.assert_array_equal(on[..., 2 * c:], off[..., 2 * c:])
        assert not np.array_equal(on[..., c:2 * c], off[..., c:2 * c])
