import gc
import weakref

import numpy as np
import pytest

from hdrdeghost import gradcheck, tensor as tc


def test_backward_sum_gives_ones():
    tape = tc.Tape()
    x = tape.leaf(np.random.default_rng(0).normal(size=(3, 4)))
    grads = tc.backward(tc.sum_(x))
    np.testing.assert_array_equal(grads[x], np.ones((3, 4)))


def test_backward_sum_of_squares():
    tape = tc.Tape()
    xd = np.random.default_rng(1).normal(size=(2, 5))
    x = tape.leaf(xd)
    grads = tc.backward(tc.sum_(tc.mul(x, x)))
    np.testing.assert_allclose(grads[x], 2.0 * xd)


def test_backward_rejects_non_scalar():
    tape = tc.Tape()
    x = tape.leaf(np.zeros((2, 2)))
    with pytest.raises(tc.ShapeError, match="scalar"):
        tc.backward(tc.mul(x, x))


def test_backward_accumulates_over_reuse():
    tape = tc.Tape()
    xd = np.random.default_rng(2).normal(size=4)
    x = tape.leaf(xd)
    y = tc.add(tc.mul(x, x), x)  # x used three times
    grads = tc.backward(tc.sum_(y))
    np.testing.assert_allclose(grads[x], 2.0 * xd + 1.0)


def test_backward_deterministic():
    def run():
        tape = tc.Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        loss = tc.sum_(tc.sigmoid(tc.mul(x, x)))
        return tc.backward(loss)[x]

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
            xt = tape.leaf(x)
            return tc.sum_(tc.sigmoid(tc.linear(xt, tc.constant(w),
                                                tc.constant(b)))), xt

        loss, xt = forward(xd)
        analytic = tc.backward(loss)[xt]
        numeric = self.numeric(lambda: float(forward(xd)[0].data), xd)
        assert gradcheck.rel_error(analytic, numeric) <= 1e-6


@pytest.mark.parametrize("op", gradcheck.op_names())
def test_op_gradients_match_finite_differences(op):
    # the acceptance suite runs 20 seeds per op; keep unit runs lighter
    assert gradcheck.check_op(op, seeds=3) <= gradcheck.OP_TOLERANCE


def test_dt_block_gradient():
    assert gradcheck.check_dt_block() <= gradcheck.OP_TOLERANCE


def test_head_gradient():
    assert gradcheck.check_head() <= gradcheck.OP_TOLERANCE


def test_backward_consumes_the_tape():
    tape = tc.Tape()
    x = tape.leaf(np.arange(4.0))
    loss = tc.sum_(tc.sigmoid(tc.mul(x, x)))
    tc.backward(loss)
    assert tape.nodes == []
    assert loss.node.vjp is None and loss.node.parents == ()


def test_second_backward_on_a_consumed_tape_raises():
    tape = tc.Tape()
    x = tape.leaf(np.arange(4.0))
    loss = tc.sum_(tc.mul(x, x))
    tc.backward(loss)
    with pytest.raises(ValueError, match="consumed"):
        tc.backward(loss)


def test_graph_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        tape = tc.Tape()
        x = tape.leaf(np.arange(4.0))
        mid = tc.sigmoid(tc.mul(x, x))
        loss = tc.sum_(mid)
        grads = tc.backward(loss)
        ref = weakref.ref(mid)
        del mid, loss
        assert ref() is None
        assert set(grads) == {x}
    finally:
        gc.enable()
