import math

import numpy as np
import pytest

from tripletag import numerics as nm
from tripletag.decoder import (
    DecoderParams, DecodeState, decode_sequence, decode_step, tag_distribution)
from tripletag.numerics import Tensor


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_decode_rollout(Hstar, p: DecoderParams):
    """Straight-line numpy re-implementation of the full decode recurrence."""
    h = np.zeros((1, p.hidden_size))
    T = np.zeros((1, p.label_width))
    states, probs = [], []
    for t in range(Hstar.shape[0]):
        x = Hstar[t : t + 1]
        r = np_sigmoid(x @ p.W_r.data + h @ p.U_r.data + T @ p.V_r.data
                       + p.b_r.data)
        z = np_sigmoid(x @ p.W_z.data + h @ p.U_z.data + T @ p.V_z.data
                       + p.b_z.data)
        cand = np.tanh(x @ p.W.data + (r * h) @ p.U.data + T @ p.V.data
                       + p.b.data)
        h = (1.0 - z) * h + z * cand
        T = np.tanh(h @ p.W_T.data + p.b_T.data)
        y = T @ p.W_Y.data + p.b_Y.data
        e = np.exp(y - y.max())
        probs.append((e / e.sum())[0])
        states.append((h[0].copy(), T[0].copy()))
    return states, np.array(probs)


def zero_decoder(d_v=1, d_dec=1, tau=1, k=2):
    p = DecoderParams.init(np.random.default_rng(0), d_v, d_dec, tau, k)
    for f in ("W_r", "U_r", "V_r", "b_r", "W_z", "U_z", "V_z", "b_z",
              "W", "U", "V", "b", "W_T", "b_T", "W_Y", "b_Y"):
        getattr(p, f).data[:] = 0.0
    return p


class TestDecodeStep:
    def test_all_zero_params_zero_state(self):
        p = zero_decoder(d_v=2, d_dec=3, tau=3, k=4)
        state = decode_step(Tensor([[1.0, -1.0]]), DecodeState.zeros(p), p)
        np.testing.assert_array_equal(state.h.data, np.zeros((1, 3)))
        np.testing.assert_array_equal(state.T.data, np.zeros((1, 3)))

    def test_scalar_hand_case(self):
        # z=0.5, cand=tanh(1), h=0.5*tanh(1)~0.380797, T=tanh(h)~0.363399
        p = zero_decoder()
        p.W.data[0, 0] = 1.0
        p.W_T.data[0, 0] = 1.0
        state = decode_step(Tensor([[1.0]]), DecodeState.zeros(p), p)
        h = 0.5 * math.tanh(1.0)
        assert abs(state.h.item() - h) < 1e-12
        assert abs(state.h.item() - 0.380797) < 1e-6
        assert abs(state.T.item() - math.tanh(h)) < 1e-12
        assert abs(state.T.item() - 0.363399) < 1e-6

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(1)
        p = DecoderParams.init(rng, 3, 4, 5, 6)
        Hstar = rng.uniform(-2, 2, (5, 3))
        want_states, _ = reference_decode_rollout(Hstar, p)
        state = DecodeState.zeros(p)
        for t in range(5):
            state = decode_step(Tensor(Hstar[t : t + 1]), state, p)
            np.testing.assert_allclose(state.h.data[0], want_states[t][0],
                                       atol=1e-12)
            np.testing.assert_allclose(state.T.data[0], want_states[t][1],
                                       atol=1e-12)

    def test_dimension_mismatch(self):
        p = DecoderParams.init(np.random.default_rng(2), 3, 4, 4, 5)
        with pytest.raises(nm.DimensionError):
            decode_step(Tensor([[1.0]]), DecodeState.zeros(p), p)


class TestTagDistribution:
    def test_zero_params_uniform(self):
        p = zero_decoder(tau=3, k=5)
        out = tag_distribution(Tensor(np.zeros((1, 3))), p)
        np.testing.assert_allclose(out.data, np.full((1, 5), 0.2), atol=1e-15)

    def test_log_bias_case(self):
        p = zero_decoder(tau=1, k=2)
        p.b_Y.data[:] = [[math.log(2.0), math.log(1.0)]]
        out = tag_distribution(Tensor([[0.0]]), p)
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_sums_to_one_over_random_draws(self):
        rng = np.random.default_rng(3)
        p = DecoderParams.init(rng, 2, 3, 4, 7)
        for _ in range(1000):
            T = Tensor(rng.uniform(-1, 1, (1, 4)))
            out = tag_distribution(T, p).data
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out >= 0)


class TestDecodeSequence:
    def test_zero_params_single_step(self):
        p = zero_decoder(d_v=2, d_dec=2, tau=2, k=4)
        ids, probs = decode_sequence(Tensor([[0.5, -0.5]]), p)
        assert ids == [0]
        np.testing.assert_allclose(probs.data, np.full((1, 4), 0.25))

    def test_argmax_tie_lowest_id(self):
        p = zero_decoder(d_v=1, d_dec=1, tau=1, k=3)
        ids, probs = decode_sequence(Tensor([[1.0], [2.0]]), p)
        np.testing.assert_allclose(probs.data, np.full((2, 3), 1 / 3))
        assert ids == [0, 0]

    def test_matches_manual_chaining(self):
        rng = np.random.default_rng(4)
        p = DecoderParams.init(rng, 3, 4, 5, 6)
        Hstar = rng.uniform(-1, 1, (4, 3))
        ids, probs = decode_sequence(Tensor(Hstar), p)
        state = DecodeState.zeros(p)
        for t in range(4):
            state = decode_step(Tensor(Hstar[t : t + 1]), state, p)
            row = tag_distribution(state.T, p)
            np.testing.assert_allclose(probs.data[t], row.data[0], atol=1e-15)
            assert ids[t] == int(np.argmax(row.data[0]))

    def test_matches_reference_rollout(self):
        rng = np.random.default_rng(5)
        p = DecoderParams.init(rng, 2, 3, 3, 5)
        Hstar = rng.uniform(-2, 2, (6, 2))
        _, want = reference_decode_rollout(Hstar, p)
        _, probs = decode_sequence(Tensor(Hstar), p)
        np.testing.assert_allclose(probs.data, want, atol=1e-12)

    def test_empty_rejected(self):
        p = DecoderParams.init(np.random.default_rng(6), 2, 3, 3, 5)
        with pytest.raises(nm.DimensionError):
            decode_sequence(Tensor(np.zeros((0, 2)).reshape(0, 2)), p)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        p = DecoderParams.init(rng, 2, 3, 3, 5)
        Hstar = Tensor(rng.uniform(-1, 1, (5, 2)))
        a = decode_sequence(Hstar, p)
        b = decode_sequence(Hstar, p)
        assert a[0] == b[0]
        assert np.array_equal(a[1].data, b[1].data)


@pytest.mark.parametrize("seed", range(5))
def test_state_bounds_with_zero_init(seed):
    rng = np.random.default_rng(200 + seed)
    p = DecoderParams.init(rng, 3, 4, 4, 6)
    Hstar = rng.uniform(-3, 3, (10, 3))
    state = DecodeState.zeros(p)
    for t in range(10):
        state = decode_step(Tensor(Hstar[t : t + 1]), state, p)
        assert np.all(np.abs(state.h.data) < 1.0)
        assert np.all(np.abs(state.T.data) < 1.0)


def test_label_feedback_carries_gradient_across_steps():
    # restrict the loss to step 2; the feedback maps V_* only touch step 2
    # through T_1, so a nonzero FD-matched gradient proves cross-step flow
    rng = np.random.default_rng(8)
    p = DecoderParams.init(rng, 2, 3, 3, 4)
    Hstar = rng.uniform(-1, 1, (2, 2))
    mask = np.cos(np.arange(4)).reshape(1, 4)

    def step2_loss():
        _, probs = decode_sequence(Tensor(Hstar), p)
        return float((probs.data[1:2] * mask).sum())

    _, probs = decode_sequence(Tensor(Hstar), p)
    nm.backward(nm.sum_all(nm.mul(nm.gather_rows(probs, [1]), Tensor(mask))))
    for name in ("V_r", "V_z", "V", "W_T"):
        theta = getattr(p, name)
        fd = nm.finite_diff_grad(step2_loss, theta, h=1e-5)
        assert np.any(np.abs(fd) > 1e-8), name
        assert nm.relative_error(theta.grad, fd) < 1e-4, name


def test_full_decoder_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    p = DecoderParams.init(rng, 2, 3, 3, 4)
    Hstar = rng.uniform(-1, 1, (3, 2))
    mask = np.cos(np.arange(12)).reshape(3, 4)

    def loss():
        _, probs = decode_sequence(Tensor(Hstar), p)
        return float((probs.data * mask).sum())

    _, probs = decode_sequence(Tensor(Hstar), p)
    nm.backward(nm.sum_all(nm.mul(probs, Tensor(mask))))
    for name in ("W_r", "U_r", "V_r", "b_r", "W_z", "U_z", "V_z", "b_z",
                 "W", "U", "V", "b", "W_T", "b_T", "W_Y", "b_Y"):
        theta = getattr(p, name)
        fd = nm.finite_diff_grad(loss, theta, h=1e-5)
        assert nm.relative_error(theta.grad, fd) < 1e-4, name
