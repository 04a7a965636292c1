import math

import numpy as np
import pytest

from helpers import named_tensors, reference_gru_sequence
from tripletag import numerics as nm
from tripletag.encoder import BiGruParams, GruParams, encode, gru_sequence
from tripletag.numerics import Tensor


def zero_gru(m_in, d):
    p = GruParams.init(np.random.default_rng(0), m_in, d)
    for _, t in named_tensors(p):
        t.data[:] = 0.0
    return p


class TestGruStep:
    def test_all_zero_params_keep_zero_state(self):
        p = zero_gru(3, 2)
        h = gru_sequence(Tensor([[1.0, -1.0, 2.0]]), p)
        np.testing.assert_array_equal(h.data, [[0.0, 0.0]])

    def test_scalar_hand_case(self):
        # z = sigmoid(0) = 0.5, candidate = tanh(1), h = 0.5*tanh(1)
        p = zero_gru(1, 1)
        p.W.data[0, 0] = 1.0
        p.W_r.data[0, 0] = 0.7  # r is irrelevant with h_prev = 0
        h = gru_sequence(Tensor([[1.0]]), p)
        assert abs(h.item() - 0.5 * math.tanh(1.0)) < 1e-12
        assert abs(h.item() - 0.380797) < 1e-6

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(1)
        p = GruParams.init(rng, 4, 3)
        E = rng.uniform(-2, 2, (6, 4))
        want = reference_gru_sequence(E, p)
        h = gru_sequence(Tensor(E), p)
        for t in range(6):
            np.testing.assert_allclose(h.data[t], want[t], atol=1e-12)

    def test_dimension_mismatch(self):
        p = GruParams.init(np.random.default_rng(2), 4, 3)
        with pytest.raises(nm.DimensionError):
            gru_sequence(Tensor([[1.0, 2.0]]), p)

    def test_empty_sequence_rejected(self):
        p = GruParams.init(np.random.default_rng(2), 4, 3)
        with pytest.raises(nm.DimensionError):
            gru_sequence(Tensor(np.zeros((0, 4))), p)


class TestEncode:
    def test_single_char_is_one_step_each_direction(self):
        rng = np.random.default_rng(3)
        p = BiGruParams.init(rng, 4, 3)
        E = Tensor(rng.uniform(-1, 1, (1, 4)))
        out = encode(E, p)
        f = gru_sequence(E, p.forward)
        b = gru_sequence(E, p.backward)
        np.testing.assert_allclose(out.data, np.hstack([f.data, b.data]),
                                   atol=1e-15)

    def test_matches_two_unidirectional_passes(self):
        rng = np.random.default_rng(4)
        p = BiGruParams.init(rng, 5, 4)
        E = rng.uniform(-2, 2, (3, 5))
        out = encode(Tensor(E), p)
        fwd = reference_gru_sequence(E, p.forward)
        bwd = reference_gru_sequence(E[::-1], p.backward)[::-1]
        np.testing.assert_allclose(out.data, np.hstack([fwd, bwd]), atol=1e-12)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(5)
        p = BiGruParams.init(rng, 3, 2)
        swapped = BiGruParams(forward=p.backward, backward=p.forward)
        E = rng.uniform(-1, 1, (5, 3))
        out = encode(Tensor(E), p).data
        out_rev = encode(Tensor(E[::-1].copy()), swapped).data
        d = p.hidden_size
        np.testing.assert_allclose(out_rev[::-1, d:], out[:, :d], atol=1e-14)
        np.testing.assert_allclose(out_rev[::-1, :d], out[:, d:], atol=1e-14)

    def test_empty_sequence_rejected(self):
        p = BiGruParams.init(np.random.default_rng(6), 3, 2)
        with pytest.raises(nm.DimensionError):
            encode(Tensor(np.zeros((0, 3)).reshape(0, 3)), p)

    def test_shape(self):
        rng = np.random.default_rng(7)
        p = BiGruParams.init(rng, 3, 4)
        for n in (1, 2, 9):
            assert encode(Tensor(rng.uniform(-1, 1, (n, 3))), p).shape == (n, 8)


@pytest.mark.parametrize("seed", range(10))
def test_hidden_states_bounded_with_zero_init(seed):
    rng = np.random.default_rng(100 + seed)
    p = GruParams.init(rng, 4, 3)
    for _, t in named_tensors(p):
        t.data *= 4.0  # exaggerate weights; boundedness must still hold
    E = rng.uniform(-3, 3, (12, 4))
    h = gru_sequence(Tensor(E), p)
    for t in range(12):
        assert np.all(np.abs(h.data[t]) < 1.0)


def test_gate_outputs_in_open_unit_interval():
    rng = np.random.default_rng(8)
    p = GruParams.init(rng, 4, 3)
    w, h = Tensor(rng.uniform(-2, 2, (1, 4))), Tensor(rng.uniform(-0.9, 0.9, (1, 3)))
    z = nm.sigmoid(nm.add(nm.add(nm.matmul(w, p.W_z), nm.matmul(h, p.U_z)), p.b_z))
    r = nm.sigmoid(nm.add(nm.add(nm.matmul(w, p.W_r), nm.matmul(h, p.U_r)), p.b_r))
    for g in (z.data, r.data):
        assert np.all((g > 0.0) & (g < 1.0))


def test_encode_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    p = BiGruParams.init(rng, 3, 2)
    E = rng.uniform(-1, 1, (4, 3))
    mask = np.cos(np.arange(16)).reshape(4, 4)

    def loss():
        return float((encode(Tensor(E), p).data * mask).sum())

    out = encode(Tensor(E), p)
    nm.backward(nm.sum_all(nm.mul(out, Tensor(mask))))
    for side in (p.forward, p.backward):
        for name, theta in named_tensors(side):
            fd = nm.finite_diff_grad(loss, theta, h=1e-5)
            assert nm.relative_error(theta.grad, fd) < 1e-4, name


@pytest.mark.parametrize("n", [1, 3])
def test_encode_input_and_parameter_gradients_match_finite_differences(n):
    # both directions and the input E; n = 1 is a single step each way
    rng = np.random.default_rng(10 + n)
    p = BiGruParams.init(rng, 3, 2)
    E = Tensor(rng.uniform(-1, 1, (n, 3)), requires_grad=True)
    mask = np.cos(np.arange(4 * n)).reshape(n, 4)

    def loss():
        return float((encode(E, p).data * mask).sum())

    nm.backward(nm.sum_all(nm.mul(encode(E, p), Tensor(mask))))
    thetas = [("E", E)] + [(side + "." + name, theta)
                           for side in ("forward", "backward")
                           for name, theta in named_tensors(getattr(p, side))]
    for name, theta in thetas:
        fd = nm.finite_diff_grad(loss, theta, h=1e-5)
        if n == 1 and name.split(".")[-1] in ("U_z", "U_r", "U", "W_r", "b_r"):
            # the only step reads h = 0, which these act on alone
            assert not theta.grad.any(), name
        else:
            assert np.any(np.abs(fd) > 1e-8), name
        assert nm.relative_error(theta.grad, fd) < 1e-4, name
