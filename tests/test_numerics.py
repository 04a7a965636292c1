import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (add, finite_diff_grad, matmul, named_tensors,
                     reference_rmsprop, relative_error, sigmoid, softmax_rows,
                     sub, tanh, transpose)
from tripletag import numerics as nm
from tripletag.attention import AttnParams
from tripletag.decoder import DecoderParams
from tripletag.embedding import EmbedParams
from tripletag.encoder import BiGruParams
from tripletag.numerics import Tensor


def triple_loop_matmul(a, b):
    """Independent reference product: explicit three nested loops."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-2, 2, (4, 3))
        b = rng.uniform(-2, 2, (3, 2))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, triple_loop_matmul(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(nm.DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


class TestElementwise:
    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([[0.0]])).item() == 0.5

    def test_tanh_zero(self):
        assert tanh(Tensor([[0.0]])).item() == 0.0

    def test_add(self):
        out = add(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[4.0, 6.0]])

    def test_bias_row_broadcast(self):
        out = add(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[10.0, 20.0]]))
        np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])

    def test_bias_row_broadcast_gradient_sums(self):
        b = Tensor([[0.0, 0.0]], requires_grad=True)
        out = add(Tensor(np.ones((3, 2))), b)
        nm.backward(nm.sum_all(out))
        np.testing.assert_array_equal(b.grad, [[3.0, 3.0]])

    def test_binary_shape_mismatch(self):
        for op in (add, sub, nm.mul):
            with pytest.raises(nm.DimensionError):
                op(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))

    def test_ranges(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-10, 10, (5, 5)))
        s = sigmoid(x).data
        t = tanh(x).data
        assert np.all((s > 0) & (s < 1))
        assert np.all((t > -1) & (t < 1))


class TestSoftmaxRows:
    def test_uniform_logits(self):
        np.testing.assert_allclose(
            softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_large_logits_no_overflow(self):
        out = softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]])

    def test_log_logits(self):
        out = softmax_rows(
            Tensor([[math.log(1), math.log(2), math.log(3)]])).data
        np.testing.assert_allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            out = softmax_rows(Tensor(rng.uniform(-50, 50, (4, 7)))).data
            np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=1e-9)
            assert np.all((out >= 0) & (out <= 1))


class TestSoftmax:
    """The array row softmax the attention and tag-head kernels share."""

    def test_same_bits_as_the_graph_op(self):
        x = np.random.default_rng(3).uniform(-50, 50, (4, 7))
        assert nm.softmax(x).tobytes() == softmax_rows(Tensor(x)).data.tobytes()

    def test_large_logits_no_overflow(self):
        np.testing.assert_allclose(nm.softmax(np.full((2, 3), 1000.0)),
                                   np.full((2, 3), 1 / 3))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(-2, 2, (3, 5)))
        w = rng.uniform(-1, 1, (3, 5))
        fd = finite_diff_grad(lambda: float((nm.softmax(x.data) * w).sum()), x)
        assert relative_error(nm.softmax_grad(nm.softmax(x.data), w), fd) < 1e-4


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(4).uniform(-1, 1, (3, 5)),
                   requires_grad=True)
        nm.backward(nm.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 5)))

    def test_square_gives_two_x(self):
        x = Tensor([[3.0]], requires_grad=True)
        nm.backward(nm.sum_all(nm.mul(x, x)))
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_running_twice_doubles(self):
        x = Tensor([[2.0]], requires_grad=True)
        for _ in range(2):
            nm.backward(nm.sum_all(nm.mul(x, x)))
        np.testing.assert_allclose(x.grad, [[8.0]])
        x.zero_grad()
        nm.backward(nm.sum_all(nm.mul(x, x)))
        np.testing.assert_allclose(x.grad, [[4.0]])

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(nm.DimensionError):
            nm.backward(add(x, x))

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor([[0.1]], requires_grad=True)
        y = x
        for _ in range(3000):
            y = nm.scale(y, 1.0)
        nm.backward(nm.sum_all(y))
        np.testing.assert_allclose(x.grad, [[1.0]])


class TestFiniteDiff:
    def test_square_at_three(self):
        x = Tensor([[3.0]], requires_grad=True)
        fd = finite_diff_grad(lambda: float(x.data[0, 0] ** 2), x, h=1e-5)
        assert abs(fd[0, 0] - 6.0) < 1e-8

    def test_sigmoid_slope_at_zero(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        fd = finite_diff_grad(
            lambda: float(sigmoid(x).data.sum()), x, h=1e-5)
        np.testing.assert_allclose(fd, np.full((2, 3), 0.25), atol=1e-8)


def _gradcheck(build, shapes, seed, span=2.0):
    """backward vs finite differences on a random instance; returns rel error."""
    rng = np.random.default_rng(seed)
    inputs = [Tensor(rng.uniform(-span, span, s), requires_grad=True)
              for s in shapes]

    def loss():
        # weighting by a fixed pattern avoids symmetric-cancellation blind spots
        out = build(*inputs)
        w = np.cos(np.arange(out.data.size)).reshape(out.data.shape)
        return float((out.data * w).sum())

    out = build(*inputs)
    w = Tensor(np.cos(np.arange(out.data.size)).reshape(out.data.shape))
    nm.backward(nm.sum_all(nm.mul(out, w)))
    worst = 0.0
    for x in inputs:
        fd = finite_diff_grad(loss, x, h=1e-5)
        worst = max(worst, relative_error(x.grad, fd))
    return worst


OP_CASES = {
    "matmul": (lambda a, b: matmul(a, b), [(3, 4), (4, 2)]),
    "add": (lambda a, b: add(a, b), [(3, 4), (3, 4)]),
    "add_bias_row": (lambda a, b: add(a, b), [(3, 4), (1, 4)]),
    "sub": (lambda a, b: sub(a, b), [(3, 4), (3, 4)]),
    "mul": (lambda a, b: nm.mul(a, b), [(3, 4), (3, 4)]),
    "sigmoid": (lambda a: sigmoid(a), [(3, 4)]),
    "tanh": (lambda a: tanh(a), [(3, 4)]),
    "softmax_rows": (lambda a: softmax_rows(a), [(3, 5)]),
    "transpose": (lambda a: transpose(a), [(3, 4)]),
    "sum_all": (lambda a: nm.sum_all(a), [(3, 4)]),
    "scale": (lambda a: nm.scale(a, -2.5), [(3, 4)]),
    "log_positive": (lambda a: nm.log(sigmoid(a)), [(3, 4)]),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
@pytest.mark.parametrize("seed", range(8))
def test_per_op_gradients_match_finite_differences(name, seed):
    build, shapes = OP_CASES[name]
    assert _gradcheck(build, shapes, seed) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_three_op_composition_gradient(seed):
    # gradient of the whole composition, not just per-op
    def build(a, b, c):
        return softmax_rows(tanh(matmul(add(a, b), c)))

    assert _gradcheck(build, [(3, 4), (3, 4), (4, 5)], seed) < 1e-4


def test_gradient_through_shared_subexpression():
    # one tensor feeding two consumers must receive both contributions
    x = Tensor([[0.3, -0.7]], requires_grad=True)

    def build():
        return nm.sum_all(nm.mul(sigmoid(x), tanh(x)))

    nm.backward(build())
    fd = finite_diff_grad(lambda: build().item(), x, h=1e-5)
    assert relative_error(x.grad, fd) < 1e-4


class TestRmsprop:
    def test_a_tensor_without_requires_grad_is_rejected_untouched(self):
        theta = Tensor([[1.0, -2.0]])
        state = nm.RmspropState(learning_rate=0.1)
        with pytest.raises(ValueError, match="does not require grad"):
            nm.rmsprop_step(theta, state)
        assert not state._acc and theta.grad is None
        np.testing.assert_array_equal(theta.data, [[1.0, -2.0]])

    def test_zero_grad_leaves_theta(self):
        theta = Tensor([[1.0, -2.0]], requires_grad=True)
        nm.rmsprop_step(theta, nm.RmspropState(learning_rate=0.1))
        np.testing.assert_array_equal(theta.data, [[1.0, -2.0]])

    def test_closed_form_single_step(self):
        theta = Tensor([[0.0]], requires_grad=True)
        theta.grad[0, 0] = 1.0
        assert (nm.RHO, nm.EPSILON) == (0.9, 1e-8)
        nm.rmsprop_step(theta, nm.RmspropState(learning_rate=0.1))
        expected = -0.1 / math.sqrt(0.1 + 1e-8)
        np.testing.assert_allclose(theta.data, [[expected]])
        assert abs(theta.data[0, 0] + 0.316228) < 1e-6
        np.testing.assert_array_equal(theta.grad, [[0.0]])

    def test_converges_on_quadratic(self):
        theta = Tensor([[5.0]], requires_grad=True)
        state = nm.RmspropState(learning_rate=0.05)
        for _ in range(500):
            theta.grad[0, 0] = 2.0 * theta.data[0, 0]
            nm.rmsprop_step(theta, state)
        assert abs(theta.data[0, 0]) < 0.1

    def test_accumulator_nonnegative(self):
        theta = Tensor([[1.0, -1.0]], requires_grad=True)
        state = nm.RmspropState(learning_rate=0.01)
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta.grad[:] = rng.uniform(-3, 3, theta.shape)
            nm.rmsprop_step(theta, state)
            assert np.all(state.accumulator(theta) >= 0)

    def test_new_tensor_gets_a_fresh_accumulator(self):
        # a freed tensor's id is soon reused; its accumulator must not be
        state = nm.RmspropState(learning_rate=0.1)
        for _ in range(20):
            theta = Tensor(np.ones((2, 2)), requires_grad=True)
            assert not state.accumulator(theta).any()
            theta.grad[:] = 1.0
            nm.rmsprop_step(theta, state)
            del theta

    @pytest.mark.parametrize("lr", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_config_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            nm.RmspropState(learning_rate=lr)


def bits(a):
    """The raw bit patterns, so equality also tells -0.0 from 0.0."""
    return np.ascontiguousarray(a).view(np.int64)


def masked_grad(rng, shape, live_rows):
    """Random gradient whose rows are +0.0 except the `live_rows` kind:
    "none", "one", "all" or "random". Live rows hold some exact zeros of
    either sign."""
    n = shape[0]
    live = {"none": np.zeros(n, dtype=bool),
            "one": np.arange(n) == rng.integers(n),
            "all": np.ones(n, dtype=bool),
            "random": rng.random(n) < 0.5}[live_rows]
    g = rng.normal(size=shape)
    g[rng.random(shape) < 0.2] = 0.0
    g[rng.random(shape) < 0.1] = -0.0
    return np.where(live[:, None], g, 0.0)


class TestRmspropMatchesDenseReference:
    LR = 0.01

    @settings(max_examples=200, deadline=None)
    @given(shape=st.one_of(st.tuples(st.just(1), st.integers(1, 8)),
                           st.tuples(st.integers(1, 12), st.just(1)),
                           st.tuples(st.integers(2, 40), st.integers(2, 8))),
           steps=st.lists(st.sampled_from(["none", "one", "all", "random"]),
                          min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_for_bit_over_several_steps(self, shape, steps, seed):
        rng = np.random.default_rng(seed)
        init = rng.uniform(-1, 1, shape)
        init[rng.random(shape) < 0.1] = -0.0
        theta = Tensor(init.copy(), requires_grad=True)
        state = nm.RmspropState(learning_rate=self.LR)
        ref_theta, ref_acc = init, np.zeros(shape)
        for live_rows in steps:
            grad = masked_grad(rng, shape, live_rows)
            theta.grad[...] = grad
            nm.rmsprop_step(theta, state)
            ref_theta, ref_acc = reference_rmsprop(ref_theta, ref_acc, grad, self.LR)
            assert np.array_equal(bits(theta.data), bits(ref_theta))
            assert np.array_equal(bits(state.accumulator(theta)), bits(ref_acc))
            assert np.array_equal(bits(theta.grad), bits(np.zeros(shape)))

    def test_a_negative_zero_gradient_row_is_live(self):
        # where grad = -0.0 the dense step turns theta = -0.0 into +0.0, so a
        # row of -0.0 must not be skipped; a row of +0.0 keeps theta's sign
        init = np.array([[-0.0, 1.0], [-0.0, 1.0]])
        grad = np.array([[0.0, 0.0], [-0.0, -0.0]])
        theta = Tensor(init.copy(), requires_grad=True)
        theta.grad[...] = grad
        nm.rmsprop_step(theta, nm.RmspropState(learning_rate=self.LR))
        ref, _ = reference_rmsprop(init, np.zeros((2, 2)), grad, self.LR)
        assert np.array_equal(bits(theta.data), bits(ref))
        assert math.copysign(1.0, theta.data[0, 0]) == -1.0
        assert math.copysign(1.0, theta.data[1, 0]) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_gradient_reaches_only_its_row(self, bad):
        rng = np.random.default_rng(7)
        init = rng.uniform(-1, 1, (6, 4))
        grad = masked_grad(rng, (6, 4), "random")
        grad[3] = [0.0, 0.0, bad, 0.0]  # live through the bad value alone
        theta = Tensor(init.copy(), requires_grad=True)
        theta.grad[...] = grad
        # inf / sqrt(inf) is an invalid operation; its NaN is the point here
        with np.errstate(invalid="ignore"):
            nm.rmsprop_step(theta, nm.RmspropState(learning_rate=self.LR))
            ref, _ = reference_rmsprop(init, np.zeros((6, 4)), grad, self.LR)
        np.testing.assert_array_equal(np.isnan(theta.data).any(axis=1),
                                      np.arange(6) == 3)
        others = np.arange(6) != 3
        assert np.array_equal(bits(theta.data[others]), bits(ref[others]))

    def test_a_dead_row_only_decays_its_accumulator(self):
        rng = np.random.default_rng(8)
        theta = Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
        state = nm.RmspropState(learning_rate=self.LR)
        for _ in range(3):
            theta.grad[...] = rng.normal(size=(5, 3))
            nm.rmsprop_step(theta, state)
        theta_before = theta.data.copy()
        acc_before = state.accumulator(theta).copy()
        theta.grad[2] = rng.normal(size=3)
        nm.rmsprop_step(theta, state)
        dead = np.arange(5) != 2
        assert np.array_equal(bits(theta.data[dead]), bits(theta_before[dead]))
        assert np.array_equal(bits(state.accumulator(theta)[dead]),
                              bits(nm.RHO * acc_before[dead]))
        assert not np.array_equal(theta.data[2], theta_before[2])


def test_rmsprop_step_on_few_live_rows_allocates_no_table_sized_array():
    theta = Tensor(np.zeros((5000, 100)), requires_grad=True)
    state = nm.RmspropState(learning_rate=0.01)
    state.accumulator(theta)
    theta.grad[[0, 1234, 4999]] = 1.0
    tracemalloc.start()
    try:
        nm.rmsprop_step(theta, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < theta.data.nbytes / 4
    assert np.count_nonzero(theta.data.any(axis=1)) == 3


@pytest.mark.parametrize("seed", [0, 1])
def test_every_initial_parameter_is_64_byte_aligned_before_and_after_a_step(seed):
    rng = np.random.default_rng(seed)
    encoder = BiGruParams.init(rng, 5, 7)
    layers = (EmbedParams.init(rng, 37, 5, 3), encoder.forward, encoder.backward,
              AttnParams.init(rng, 14), DecoderParams.init(rng, 14, 6, 4, 9))
    params = [t for layer in layers for _, t in named_tensors(layer)]
    assert all(t.data.ctypes.data % 64 == 0 and t.grad.ctypes.data % 64 == 0
               and not t.grad.any() for t in params)
    state = nm.RmspropState(learning_rate=0.01)
    for t in params:
        t.grad[...] = rng.uniform(-1, 1, t.shape)
        nm.rmsprop_step(t, state)
    assert all(t.data.ctypes.data % 64 == 0 and t.grad.ctypes.data % 64 == 0
               for t in params)


def test_parameter_copies_its_data():
    data = np.arange(6.0).reshape(2, 3)
    t = nm.parameter(data)
    data[0, 0] = 9.0
    np.testing.assert_array_equal(t.data, np.arange(6.0).reshape(2, 3))
    assert t.requires_grad and t.grad.shape == (2, 3)


def test_determinism_same_seed_same_bits():
    def run():
        rng = np.random.default_rng(42)
        a = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        out = softmax_rows(matmul(tanh(a), sigmoid(b)))
        nm.backward(nm.sum_all(nm.mul(out, out)))
        return out.data.tobytes(), a.grad.tobytes(), b.grad.tobytes()

    assert run() == run()


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(-100, 100, (4, 4)))
    for op in (sigmoid, tanh, softmax_rows,
               lambda t: nm.log(softmax_rows(t))):
        assert np.all(np.isfinite(op(x).data))
