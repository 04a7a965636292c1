import math
import mmap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (check_finite_differences, complex_step, finite_diff_grad,
                     named_tensors, np_sigmoid, np_softmax, reference_rmsprop,
                     relative_error)
from tripletag import numerics as nm
from tripletag.attention import AttnParams
from tripletag.decoder import DecoderParams
from tripletag.embedding import EmbedParams
from tripletag.encoder import BiGruParams
from tripletag.numerics import Tensor


def softmax_rows(x):
    """The references' softmax, np_softmax, of each row of x."""
    return np.array([np_softmax(r) for r in x])


class TestSoftmaxRows:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_large_logits_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]])

    def test_log_logits(self):
        out = softmax_rows(np.array([[math.log(1), math.log(2), math.log(3)]]))
        np.testing.assert_allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            out = softmax_rows(rng.uniform(-50, 50, (4, 7)))
            np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=1e-9)
            assert np.all((out >= 0) & (out <= 1))


class TestSoftmax:
    """The array row softmax the attention and tag-head kernels share."""

    def test_same_bits_as_the_formula(self):
        x = np.random.default_rng(3).uniform(-50, 50, (4, 7))
        e = np.exp(x - x.max(axis=1, keepdims=True))
        assert nm.softmax(x).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

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
        # a new graph per run, and one root run twice: an op output's
        # gradient lives for one pass, so no run adds onto a stale one
        for same_root in (False, True):
            x = Tensor([[2.0]], requires_grad=True)
            square = nm.mul(x, x)
            root = nm.sum_all(square)
            for _ in range(2):
                if not same_root:
                    square = nm.mul(x, x)
                    root = nm.sum_all(square)
                nm.backward(root)
                assert square.grad is None and root.grad is None
            np.testing.assert_allclose(x.grad, [[8.0]])
            x.zero_grad()
            nm.backward(root)
            np.testing.assert_allclose(x.grad, [[4.0]])

    def test_zero_grad_needs_requires_grad(self):
        with pytest.raises(ValueError, match="^zero_grad: the tensor does not require grad$"):
            Tensor([[1.0]]).zero_grad()
        # an op output's gradient is gone between passes: nothing to zero
        x = Tensor([[2.0]], requires_grad=True)
        square = nm.mul(x, x)
        nm.backward(nm.sum_all(square))
        square.zero_grad()
        x.zero_grad()
        assert square.grad is None
        np.testing.assert_array_equal(x.grad, [[0.0]])

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(nm.DimensionError):
            nm.backward(nm.mul(x, x))

    def test_a_root_without_a_gradient_is_rejected(self):
        # a constant leaf, and an op of constants, which joins no graph
        for root in (Tensor([[2.0]]), nm.sum_all(nm.mul(Tensor([[2.0]]), Tensor([[3.0]])))):
            with pytest.raises(ValueError, match="^backward: root does not require grad$"):
                nm.backward(root)
            assert root.grad is None

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_root_rejected_before_any_gradient(self, value):
        x = Tensor([[value, 1.0]], requires_grad=True)
        w = Tensor([[2.0, 3.0]], requires_grad=True)
        with pytest.raises(ValueError, match=rf"^backward: root is not finite \({value}\)$"):
            nm.backward(nm.sum_all(nm.mul(x, w)))
        np.testing.assert_array_equal(x.grad, 0.0)
        np.testing.assert_array_equal(w.grad, 0.0)

    def test_mul_shape_mismatch_rejected(self):
        with pytest.raises(nm.DimensionError, match=r"\(2, 2\) vs \(3, 2\)"):
            nm.mul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))

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
        fd = finite_diff_grad(lambda: float(np_sigmoid(x.data).sum()), x, h=1e-5)
        np.testing.assert_allclose(fd, np.full((2, 3), 0.25), atol=1e-8)


def _gradcheck(build, shapes, seed, span=2.0):
    """backward vs finite differences on a random instance, the output
    weighted by a fixed pattern against symmetric-cancellation blind spots."""
    rng = np.random.default_rng(seed)
    inputs = [Tensor(rng.uniform(-span, span, s), requires_grad=True)
              for s in shapes]
    out = build(*inputs)
    check_finite_differences(lambda: build(*inputs), list(enumerate(inputs)),
                             np.cos(np.arange(out.data.size)).reshape(out.shape))


OP_CASES = {
    "mul": (lambda a, b: nm.mul(a, b), [(3, 4), (3, 4)]),
    "sum_all": (lambda a: nm.sum_all(a), [(3, 4)]),
    "scale": (lambda a: nm.scale(a, -2.5), [(3, 4)]),
    "log_positive": (lambda a: nm.log(nm.mul(a, a)), [(3, 4)]),
}


def _complex_step_gradcheck(f, shapes, seed, span=2.0):
    """The complex-step gradient of a numpy expression, one unit direction
    per coordinate, vs finite differences on a random instance; returns rel
    error."""
    rng = np.random.default_rng(seed)
    xs = [rng.uniform(-span, span, s) for s in shapes]
    out = f(*xs)
    w = np.cos(np.arange(out.size)).reshape(out.shape)
    worst = 0.0
    for i, x in enumerate(xs):
        def loss(a, i=i):
            return (w * f(*xs[:i], a, *xs[i + 1:])).sum()

        units = np.eye(x.size).reshape(-1, *x.shape)
        cs = np.array([complex_step(loss, x, e) for e in units]).reshape(x.shape)
        fd = finite_diff_grad(lambda: float(loss(x)), Tensor(x), h=1e-5)
        worst = max(worst, relative_error(cs, fd))
    return worst


# The numpy operations the kernel references compose. The complex-step
# oracle is exact only where each of them is analytic in its complex input:
# no conjugation, no real-only shift that is not cancelled.
PRIMITIVE_CASES = {
    "add": (lambda a, b: a + b, [(3, 4), (3, 4)]),
    "add_bias_row": (lambda a, b: a + b, [(3, 4), (1, 4)]),
    "sub": (lambda a, b: a - b, [(3, 4), (3, 4)]),
    "matmul": (lambda a, b: a @ b, [(3, 4), (4, 2)]),
    "transpose": (lambda a: a.T, [(3, 4)]),
    "sigmoid": (np_sigmoid, [(3, 4)]),
    "tanh": (np.tanh, [(3, 4)]),
    "softmax_rows": (softmax_rows, [(3, 4)]),
}


@pytest.mark.parametrize("name", sorted(OP_CASES | PRIMITIVE_CASES))
@pytest.mark.parametrize("seed", range(8))
def test_per_op_gradients_match_finite_differences(name, seed):
    if name in OP_CASES:
        _gradcheck(*OP_CASES[name], seed)
    else:
        assert _complex_step_gradcheck(*PRIMITIVE_CASES[name], seed) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_three_op_composition_gradient(seed):
    # gradient of the whole composition, not just per-op
    def build(a, b, c):
        ab = nm.mul(a, b)
        return nm.mul(nm.log(nm.mul(ab, ab)), nm.scale(nm.mul(b, c), -2.5))

    _gradcheck(build, [(3, 4), (3, 4), (3, 4)], seed)


def test_gradient_through_shared_subexpression():
    # one tensor feeding two consumers must receive both contributions
    x = Tensor([[0.3, -0.7]], requires_grad=True)
    check_finite_differences(
        lambda: nm.sum_all(nm.mul(nm.log(nm.mul(x, x)), nm.scale(x, 3.0))),
        [("x", x)], np.ones((1, 1)))


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


@pytest.mark.parametrize("init", [
    lambda rng: EmbedParams.init(rng, 5001, 100, 100),
    lambda rng: BiGruParams.init(rng, 100, 100),
    lambda rng: DecoderParams.init(rng, 200, 100, 50, 153),
], ids=["EmbedParams", "BiGruParams", "DecoderParams"])
def test_params_init_allocates_no_weight_sized_array(init):
    # every weight is drawn into a mapping, never through a heap array
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        p = init(rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < max(t.data.nbytes for _, t in named_tensors(p)) / 4


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", [(5001, 100), (200, 200), (1, 153)])
def test_uniform_init_gives_rng_uniform_bits_and_stream(seed, shape):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    t = nm.uniform_init(rng, *shape)
    limit = np.sqrt(6.0 / sum(shape))
    np.testing.assert_array_equal(t.data.view(np.int64),
                                  twin.uniform(-limit, limit, shape).view(np.int64))
    assert rng.random() == twin.random()
    assert t.data.ctypes.data % mmap.PAGESIZE == 0
    assert t.grad.ctypes.data % mmap.PAGESIZE == 0
    assert t.requires_grad and t.grad.shape == shape and not t.grad.any()


@pytest.mark.parametrize("seed", [0, 1])
def test_every_initial_parameter_is_64_byte_aligned_before_and_after_a_step(seed):
    rng = np.random.default_rng(seed)
    encoder = BiGruParams.init(rng, 5, 7)
    layers = (EmbedParams.init(rng, 37, 5, 3), encoder, AttnParams.init(rng, 14),
              DecoderParams.init(rng, 14, 6, 4, 9))
    params = [t for layer in layers for _, t in named_tensors(layer)]
    assert all(t.data.ctypes.data % 64 == 0 and t.grad.ctypes.data % 64 == 0
               and not t.grad.any() for t in params)
    state = nm.RmspropState(learning_rate=0.01)
    for t in params:
        t.grad[...] = rng.uniform(-1, 1, t.shape)
        nm.rmsprop_step(t, state)
    assert all(t.data.ctypes.data % 64 == 0 and t.grad.ctypes.data % 64 == 0
               for t in params)


def test_mapped_zeros_is_a_page_aligned_writable_zero_array():
    # a trainable tensor's gradient is one too, whatever its data
    for z, dtype in ((nm.mapped_zeros((3, 700)), np.float64),
                     (Tensor(np.ones((3, 700)), requires_grad=True).grad, np.float64),
                     (nm.mapped_zeros((3, 700), np.float32), np.float32)):
        assert z.shape == (3, 700) and z.dtype == dtype
        assert z.nbytes == 3 * 700 * np.dtype(dtype).itemsize
        assert z.flags.c_contiguous and z.flags.writeable
        assert z.ctypes.data % mmap.PAGESIZE == 0
        assert not z.any()
        z[2, 699] = 1.0
        assert z.sum() == 1.0


def test_mapped_zeros_of_an_empty_shape_is_empty():
    for dtype in (np.float64, np.float32):
        z = nm.mapped_zeros((0, 5), dtype)
        assert z.shape == (0, 5) and z.dtype == dtype


def resident_mib() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * mmap.PAGESIZE / 2**20


@pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                    reason="reads resident memory from /proc/self/statm")
def test_gradient_and_accumulator_take_memory_only_once_written():
    rng = np.random.default_rng(0)
    before = resident_mib()
    t = nm.uniform_init(rng, 1024, 1024)  # 8 MiB
    with_parameter = resident_mib()
    state = nm.RmspropState(learning_rate=0.01)
    state.accumulator(t)
    with_accumulator = resident_mib()
    t.grad[...] = 1.0
    with_gradient = resident_mib()
    assert abs(with_parameter - before - 8) <= 2  # the data, not the gradient
    assert with_accumulator - with_parameter < 1
    assert abs(with_gradient - with_accumulator - 8) <= 2


def test_tensors_are_2d_and_item_needs_a_scalar():
    for shape in ((3,), (2, 2, 2)):
        with pytest.raises(nm.DimensionError, match="tensors are 2-D"):
            Tensor(np.zeros(shape))
    with pytest.raises(nm.DimensionError, match="needs a scalar"):
        Tensor(np.zeros((1, 2))).item()


def test_determinism_same_seed_same_bits():
    def run():
        rng = np.random.default_rng(42)
        a = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        out = nm.mul(nm.log(nm.mul(a, a)), b)
        nm.backward(nm.sum_all(nm.mul(out, out)))
        return out.data.tobytes(), a.grad.tobytes(), b.grad.tobytes()

    assert run() == run()


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(6)
    probs = nm.softmax(rng.uniform(-100, 100, (4, 4)))
    for out in (probs, nm.log(Tensor(probs)).data):
        assert np.all(np.isfinite(out))
