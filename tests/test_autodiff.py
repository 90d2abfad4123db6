import gc
import weakref

import numpy as np
import pytest

from hdrdeghost import gradcheck, tensor as tc


def test_backward_sum_gives_ones():
    tape = tc.Tape()
    x = tc.Tensor(np.random.default_rng(0).normal(size=(3, 4)), tape)
    (gx,) = tc.backward(tc.sum_(x), [x])
    np.testing.assert_array_equal(gx, np.ones((3, 4)))


def test_backward_sum_of_squares():
    tape = tc.Tape()
    xd = np.random.default_rng(1).normal(size=(2, 5))
    x = tc.Tensor(xd, tape)
    (gx,) = tc.backward(tc.sum_(tc.mul(x, x)), [x])
    np.testing.assert_allclose(gx, 2.0 * xd)


def test_backward_rejects_non_scalar():
    tape = tc.Tape()
    x = tc.Tensor(np.zeros((2, 2)), tape)
    with pytest.raises(tc.ShapeError, match="scalar"):
        tc.backward(tc.mul(x, x), [x])


def test_backward_accumulates_over_reuse():
    tape = tc.Tape()
    xd = np.random.default_rng(2).normal(size=4)
    x = tc.Tensor(xd, tape)
    y = tc.add(tc.mul(x, x), x)  # x used three times
    (gx,) = tc.backward(tc.sum_(y), [x])
    np.testing.assert_allclose(gx, 2.0 * xd + 1.0)


def test_backward_deterministic():
    def run():
        tape = tc.Tape()
        x = tc.Tensor(np.arange(6.0).reshape(2, 3), tape)
        loss = tc.sum_(tc.sigmoid(tc.mul(x, x)))
        return tc.backward(loss, [x])[0]

    np.testing.assert_array_equal(run(), run())


class TestFiniteDifferenceOracle:
    @staticmethod
    def numeric(f, x):
        """gradcheck.central_difference at every entry of x, shaped like x."""
        return np.array([gradcheck.central_difference(f, x, i)
                         for i in range(x.size)]).reshape(x.shape)

    def test_identity_sum(self):
        x = np.ones(5)
        g = self.numeric(lambda: float(x.sum()), x)
        np.testing.assert_allclose(g, 1.0, atol=1e-9)
        np.testing.assert_array_equal(x, 1.0)  # every entry restored

    def test_square_at_three(self):
        x = np.array([3.0])
        g = self.numeric(lambda: float((x * x).sum()), x)
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_agrees_with_backward_on_sigmoid_linear_chain(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        xd = rng.normal(size=(3, 4))

        def forward(x):
            tape = tc.Tape()
            xt = tc.Tensor(x, tape)
            return tc.sum_(tc.sigmoid(tc.linear(xt, tc.Tensor(w),
                                                tc.Tensor(b)))), xt

        loss, xt = forward(xd)
        (analytic,) = tc.backward(loss, [xt])
        numeric = self.numeric(lambda: float(forward(xd)[0].data), xd)
        assert gradcheck.rel_error(analytic, numeric) <= 1e-6


@pytest.mark.parametrize("op", gradcheck.op_names())
def test_op_gradients_match_finite_differences(op):
    # the acceptance suite runs 20 seeds per op; keep unit runs lighter
    assert gradcheck.check_op(op, seeds=3) <= gradcheck.OP_TOLERANCE


def test_backward_consumes_the_tape():
    tape = tc.Tape()
    x = tc.Tensor(np.arange(4.0), tape)
    loss = tc.sum_(tc.sigmoid(tc.mul(x, x)))
    tc.backward(loss, [x])
    assert tape.nodes == []
    assert loss.node.vjp is None and loss.node.parents == ()


def test_second_backward_on_a_consumed_tape_raises():
    tape = tc.Tape()
    x = tc.Tensor(np.arange(4.0), tape)
    loss = tc.sum_(tc.mul(x, x))
    tc.backward(loss, [x])
    with pytest.raises(ValueError, match="consumed"):
        tc.backward(loss, [x])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unreached_leaf_gets_zeros_in_its_dtype(dtype):
    tape = tc.Tape()
    x = tc.Tensor(np.arange(4.0, dtype=dtype), tape)
    unused = tc.Tensor(np.ones((2, 3), dtype), tape)
    gx, gu = tc.backward(tc.sum_(tc.mul(x, x)), [x, unused])
    np.testing.assert_array_equal(gx, 2.0 * x.data)
    assert gu.dtype == dtype and gu.shape == (2, 3) and not gu.any()


@pytest.mark.parametrize("which", ["kernel output", "untaped", "other tape",
                                   "raw array"])
def test_non_leaf_entry_raises_before_the_tape_is_consumed(which):
    tape = tc.Tape()
    x = tc.Tensor(np.arange(4.0), tape)
    mid = tc.mul(x, x)
    loss = tc.sum_(mid)
    bad = {"kernel output": mid, "untaped": tc.Tensor(np.ones(4)),
           "other tape": tc.Tensor(np.ones(4), tc.Tape()),
           "raw array": np.ones(4)}[which]
    n = len(tape.nodes)
    with pytest.raises(ValueError, match="leaves of the loss.s tape"):
        tc.backward(loss, [x, bad])
    assert len(tape.nodes) == n
    (gx,) = tc.backward(loss, [x])
    np.testing.assert_array_equal(gx, 2.0 * x.data)


def test_graph_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        tape = tc.Tape()
        x = tc.Tensor(np.arange(4.0), tape)
        mid = tc.sigmoid(tc.mul(x, x))
        loss = tc.sum_(mid)
        (gx,) = tc.backward(loss, [x])
        refs = [weakref.ref(mid), weakref.ref(x)]
        del mid, loss, x  # no node refers to a tensor, leaf or not
        assert [r() for r in refs] == [None, None]
        assert gx.shape == (4,)
    finally:
        gc.enable()
