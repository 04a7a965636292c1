import math

import numpy as np
import pytest

from helpers import (
    finite_diff_grad, named_tensors, reference_decode_rollout, relative_error, row)
from tripletag import numerics as nm
from tripletag.decoder import DecoderParams, decode_sequence
from tripletag.numerics import Tensor


def zero_decoder(d_v=1, d_dec=1, tau=1, k=2):
    p = DecoderParams.init(np.random.default_rng(0), d_v, d_dec, tau, k)
    for _, t in named_tensors(p):
        t.data[:] = 0.0
    return p


def label_rows(Hstar, p):
    """The label rows T of decode_sequence, read through its probabilities:
    with the tag head set to W_Y = [0 | I_tau | 0] and b_Y = 0, row t's logits
    are [0, T_t, 0], so log(P[:, 1:tau+1] / P[:, :1]) is T up to rounding.
    Overwrites p's tag head; needs k > tau."""
    tau = p.label_width
    p.W_Y.data[:] = 0.0
    p.W_Y.data[:, 1 : tau + 1] = np.eye(tau)
    p.b_Y.data[:] = 0.0
    P = decode_sequence(Tensor(Hstar), p)[1].data
    return np.log(P[:, 1 : tau + 1] / P[:, :1])


def hidden_states(T, p):
    """The decoder states behind label rows T = tanh(h W_T + b_T), solved
    from T; exact up to rounding when W_T has full row rank."""
    pre = np.arctanh(T) - p.b_T.data
    return np.linalg.lstsq(p.W_T.data.T, pre.T, rcond=None)[0].T


class TestDecodeStep:
    def test_all_zero_params_zero_state(self):
        p = zero_decoder(d_v=2, d_dec=3, tau=3, k=4)
        p.W_T.data[:] = np.eye(3)  # T = tanh(h) shows h; V = 0 cuts feedback
        T = label_rows([[1.0, -1.0]], p)
        np.testing.assert_array_equal(hidden_states(T, p), np.zeros((1, 3)))
        np.testing.assert_array_equal(T, np.zeros((1, 3)))

    def test_scalar_hand_case(self):
        # z=0.5, cand=tanh(1), h=0.5*tanh(1)~0.380797, T=tanh(h)~0.363399
        p = zero_decoder()
        p.W.data[0, 2] = 1.0  # candidate column (z | r | c)
        p.W_T.data[0, 0] = 1.0
        T = label_rows([[1.0]], p)
        h = 0.5 * math.tanh(1.0)
        assert abs(hidden_states(T, p).item() - h) < 1e-12
        assert abs(hidden_states(T, p).item() - 0.380797) < 1e-6
        assert abs(T.item() - math.tanh(h)) < 1e-12
        assert abs(T.item() - 0.363399) < 1e-6

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(1)
        p = DecoderParams.init(rng, 3, 4, 5, 6)
        Hstar = rng.uniform(-2, 2, (5, 3))
        want_states, _ = reference_decode_rollout(Hstar, p)
        T = label_rows(Hstar, p)
        H = hidden_states(T, p)
        for t in range(5):
            np.testing.assert_allclose(H[t], want_states[t][0], atol=1e-12)
            np.testing.assert_allclose(T[t], want_states[t][1], atol=1e-12)

    def test_dimension_mismatch(self):
        p = DecoderParams.init(np.random.default_rng(2), 3, 4, 4, 5)
        with pytest.raises(nm.DimensionError):
            decode_sequence(Tensor([[1.0]]), p)


def test_init_packs_per_gate_draws_in_order():
    # each block keeps its own fan limit sqrt(6/(rows+d_dec)); one packed
    # draw would use sqrt(6/(rows+3*d_dec))
    d_v, d_dec, tau, k = 2, 3, 4, 5
    p = DecoderParams.init(np.random.default_rng(13), d_v, d_dec, tau, k)
    assert [name for name, _ in named_tensors(p)] == [
        "W", "U_zr", "U", "V", "b", "W_T", "b_T", "W_Y", "b_Y"]
    rng = np.random.default_rng(13)
    u = nm.uniform_init
    W_r, U_r, V_r, W_z, U_z, V_z, W_c, U_c, V_c = (
        u(rng, rows, d_dec).data for _ in range(3) for rows in (d_v, d_dec, tau))
    W_T, W_Y = u(rng, d_dec, tau).data, u(rng, tau, k).data
    for got, want in ((p.W, [W_z, W_r, W_c]), (p.U_zr, [U_z, U_r]), (p.U, [U_c]),
                      (p.V, [V_z, V_r, V_c]), (p.W_T, [W_T]), (p.W_Y, [W_Y])):
        np.testing.assert_array_equal(np.hsplit(got.data, len(want)), want)
    for b, width in ((p.b, 3 * d_dec), (p.b_T, tau), (p.b_Y, k)):
        np.testing.assert_array_equal(b.data, np.zeros((1, width)))
    assert all(t.requires_grad for _, t in named_tensors(p))


class TestTagDistribution:
    # a zero decoder's label rows are T = 0, so its logits are b_Y
    def test_zero_params_uniform(self):
        p = zero_decoder(tau=3, k=5)
        _, out = decode_sequence(Tensor([[1.0]]), p)
        np.testing.assert_allclose(out.data, np.full((1, 5), 0.2), atol=1e-15)

    def test_log_bias_case(self):
        p = zero_decoder(tau=1, k=2)
        p.b_Y.data[:] = [[math.log(2.0), math.log(1.0)]]
        _, out = decode_sequence(Tensor([[1.0]]), p)
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_sums_to_one_over_random_draws(self):
        rng = np.random.default_rng(3)
        p = DecoderParams.init(rng, 2, 3, 4, 7)
        for _ in range(100):
            out = decode_sequence(Tensor(rng.uniform(-2, 2, (10, 2))), p)[1].data
            assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-9)
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
        W_Y, b_Y = p.W_Y.data.copy(), p.b_Y.data.copy()
        T = label_rows(Hstar, p)
        for t in range(4):
            row_t = nm.softmax(T[t : t + 1] @ W_Y + b_Y)[0]
            np.testing.assert_allclose(probs.data[t], row_t, atol=1e-12)
            assert ids[t] == int(np.argmax(row_t))

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
    T = label_rows(Hstar, p)
    H = hidden_states(T, p)
    for t in range(10):
        assert np.all(np.abs(H[t]) < 1.0)
        assert np.all(np.abs(T[t]) < 1.0)


def test_label_feedback_carries_gradient_across_steps():
    # restrict the loss to step 2; the feedback map V only touches step 2
    # through T_1, so a nonzero FD-matched gradient proves cross-step flow
    rng = np.random.default_rng(8)
    p = DecoderParams.init(rng, 2, 3, 3, 4)
    Hstar = rng.uniform(-1, 1, (2, 2))
    mask = np.cos(np.arange(4)).reshape(1, 4)

    def step2_loss():
        _, probs = decode_sequence(Tensor(Hstar), p)
        return float((probs.data[1:2] * mask).sum())

    _, probs = decode_sequence(Tensor(Hstar), p)
    nm.backward(nm.sum_all(nm.mul(row(probs, 1), Tensor(mask))))
    for name, gates in (("V", 3), ("W_T", 1)):
        theta = getattr(p, name)
        fd = finite_diff_grad(step2_loss, theta, h=1e-5)
        for gate, block in enumerate(np.hsplit(fd, gates)):
            assert np.any(np.abs(block) > 1e-8), (name, gate)
        assert relative_error(theta.grad, fd) < 1e-4, name


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
    for name, theta in named_tensors(p):
        fd = finite_diff_grad(loss, theta, h=1e-5)
        assert relative_error(theta.grad, fd) < 1e-4, name


@pytest.mark.parametrize("n", [1, 3])
def test_decoder_input_and_parameter_gradients_match_finite_differences(n):
    rng = np.random.default_rng(10 + n)
    p = DecoderParams.init(rng, 2, 3, 3, 4)
    Hstar = Tensor(rng.uniform(-1, 1, (n, 2)), requires_grad=True)
    mask = np.cos(np.arange(4 * n)).reshape(n, 4)

    def loss():
        _, probs = decode_sequence(Hstar, p)
        return float((probs.data * mask).sum())

    _, probs = decode_sequence(Hstar, p)
    nm.backward(nm.sum_all(nm.mul(probs, Tensor(mask))))
    for name, theta in [("h_stars", Hstar)] + named_tensors(p):
        fd = finite_diff_grad(loss, theta, h=1e-5)
        assert relative_error(theta.grad, fd) < 1e-4, name
