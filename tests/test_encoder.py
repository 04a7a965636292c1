import math

import numpy as np
import pytest

from tripletag import numerics as nm
from tripletag.encoder import BiGruParams, GruParams, encode, gru_step
from tripletag.numerics import Tensor


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_gru_sequence(E, p: GruParams):
    """Straight-line numpy re-implementation of the recurrence."""
    Wz, Uz, bz = p.W_z.data, p.U_z.data, p.b_z.data
    Wr, Ur, br = p.W_r.data, p.U_r.data, p.b_r.data
    W, U, b = p.W.data, p.U.data, p.b.data
    h = np.zeros((1, p.hidden_size))
    out = []
    for t in range(E.shape[0]):
        w = E[t : t + 1]
        z = np_sigmoid(w @ Wz + h @ Uz + bz)
        r = np_sigmoid(w @ Wr + h @ Ur + br)
        cand = np.tanh(w @ W + (r * h) @ U + b)
        h = (1.0 - z) * h + z * cand
        out.append(h[0].copy())
    return np.array(out)


def zero_gru(m_in, d):
    p = GruParams.init(np.random.default_rng(0), m_in, d)
    for _, t in p.tensors():
        t.data[:] = 0.0
    return p


class TestGruStep:
    def test_all_zero_params_keep_zero_state(self):
        p = zero_gru(3, 2)
        h = gru_step(Tensor([[1.0, -1.0, 2.0]]), Tensor([[0.0, 0.0]]), p)
        np.testing.assert_array_equal(h.data, [[0.0, 0.0]])

    def test_scalar_hand_case(self):
        # z = sigmoid(0) = 0.5, candidate = tanh(1), h = 0.5*tanh(1)
        p = zero_gru(1, 1)
        p.W.data[0, 0] = 1.0
        p.W_r.data[0, 0] = 0.7  # r is irrelevant with h_prev = 0
        h = gru_step(Tensor([[1.0]]), Tensor([[0.0]]), p)
        assert abs(h.item() - 0.5 * math.tanh(1.0)) < 1e-12
        assert abs(h.item() - 0.380797) < 1e-6

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(1)
        p = GruParams.init(rng, 4, 3)
        E = rng.uniform(-2, 2, (6, 4))
        want = reference_gru_sequence(E, p)
        h = Tensor(np.zeros((1, 3)))
        for t in range(6):
            h = gru_step(Tensor(E[t : t + 1]), h, p)
            np.testing.assert_allclose(h.data[0], want[t], atol=1e-12)

    def test_dimension_mismatch(self):
        p = GruParams.init(np.random.default_rng(2), 4, 3)
        with pytest.raises(nm.DimensionError):
            gru_step(Tensor([[1.0, 2.0]]), Tensor(np.zeros((1, 3))), p)


class TestEncode:
    def test_single_char_is_one_step_each_direction(self):
        rng = np.random.default_rng(3)
        p = BiGruParams.init(rng, 4, 3)
        E = Tensor(rng.uniform(-1, 1, (1, 4)))
        out = encode(E, p)
        zero = Tensor(np.zeros((1, 3)))
        f = gru_step(nm.gather_rows(E, [0]), zero, p.forward)
        b = gru_step(nm.gather_rows(E, [0]), zero, p.backward)
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
    for _, t in p.tensors():
        t.data *= 4.0  # exaggerate weights; boundedness must still hold
    E = rng.uniform(-3, 3, (12, 4))
    h = Tensor(np.zeros((1, 3)))
    for t in range(12):
        h = gru_step(Tensor(E[t : t + 1]), h, p)
        assert np.all(np.abs(h.data) < 1.0)


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
        for name, theta in side.tensors():
            fd = nm.finite_diff_grad(loss, theta, h=1e-5)
            assert nm.relative_error(theta.grad, fd) < 1e-4, name
