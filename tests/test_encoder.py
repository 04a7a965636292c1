import math

import numpy as np
import pytest

from helpers import (
    gate_blocks, named_tensors, reference_gru_sequence, relative_error, sigmoid)
from tripletag import numerics as nm
from tripletag.encoder import BiGruParams, GruCell, GruParams, encode
from tripletag.numerics import Tensor


def zero_gru(m_in, d):
    p = GruParams.init(np.random.default_rng(0), m_in, d)
    for _, t in named_tensors(p):
        t.data[:] = 0.0
    return p


class TestGruStep:
    def test_all_zero_params_keep_zero_state(self):
        p = zero_gru(3, 2)
        h = GruCell(p).run(np.array([[1.0, -1.0, 2.0]]))[0]
        np.testing.assert_array_equal(h, [[0.0, 0.0]])

    def test_scalar_hand_case(self):
        # z = sigmoid(0) = 0.5, candidate = tanh(1), h = 0.5*tanh(1)
        p = zero_gru(1, 1)
        p.W.data[0, 2] = 1.0  # candidate column (z | r | c)
        p.W.data[0, 1] = 0.7  # reset column: r is irrelevant with h_prev = 0
        h = GruCell(p).run(np.array([[1.0]]))[0].item()
        assert abs(h - 0.5 * math.tanh(1.0)) < 1e-12
        assert abs(h - 0.380797) < 1e-6

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(1)
        p = GruParams.init(rng, 4, 3)
        E = rng.uniform(-2, 2, (6, 4))
        want = reference_gru_sequence(E, p)
        h = GruCell(p).run(E)[0]
        for t in range(6):
            np.testing.assert_allclose(h[t], want[t], atol=1e-12)

    def test_dimension_mismatch(self):
        p = GruParams.init(np.random.default_rng(2), 4, 3)
        with pytest.raises(nm.DimensionError):
            GruCell(p).run(np.array([[1.0, 2.0]]))

    def test_empty_sequence_rejected(self):
        p = GruParams.init(np.random.default_rng(2), 4, 3)
        with pytest.raises(nm.DimensionError):
            GruCell(p).run(np.zeros((0, 4)))


def test_init_packs_per_gate_draws_in_order():
    # each block keeps its own fan limit sqrt(6/(rows+d)); one packed draw
    # would use sqrt(6/(rows+3d))
    m_in, d = 4, 3
    p = GruParams.init(np.random.default_rng(12), m_in, d)
    assert [name for name, _ in named_tensors(p)] == ["W", "U_zr", "U", "b"]
    rng = np.random.default_rng(12)
    W_z, U_z, W_r, U_r, W_c, U_c = (nm.uniform_init(rng, rows, d).data
                                    for rows in (m_in, d) * 3)
    for got, want in ((p.W, [W_z, W_r, W_c]), (p.U_zr, [U_z, U_r]), (p.U, [U_c])):
        np.testing.assert_array_equal(np.hsplit(got.data, len(want)), want)
    np.testing.assert_array_equal(p.b.data, np.zeros((1, 3 * d)))
    assert all(t.requires_grad for _, t in named_tensors(p))


class TestEncode:
    def test_single_char_is_one_step_each_direction(self):
        rng = np.random.default_rng(3)
        p = BiGruParams.init(rng, 4, 3)
        E = Tensor(rng.uniform(-1, 1, (1, 4)))
        out = encode(E, p)
        f = GruCell(p.forward).run(E.data)[0]
        b = GruCell(p.backward).run(E.data)[0]
        np.testing.assert_allclose(out.data, np.hstack([f, b]), atol=1e-15)

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
    h = GruCell(p).run(E)[0]
    for t in range(12):
        assert np.all(np.abs(h[t]) < 1.0)


def test_gate_outputs_in_open_unit_interval():
    rng = np.random.default_rng(8)
    p = GruParams.init(rng, 4, 3)
    w, h = Tensor(rng.uniform(-2, 2, (1, 4))), Tensor(rng.uniform(-0.9, 0.9, (1, 3)))
    W_z, W_r, _ = gate_blocks(p.W, 3)
    U_z, U_r = gate_blocks(p.U_zr, 2)
    b_z, b_r, _ = gate_blocks(p.b, 3)
    z = sigmoid(nm.add(nm.add(nm.matmul(w, W_z), nm.matmul(h, U_z)), b_z))
    r = sigmoid(nm.add(nm.add(nm.matmul(w, W_r), nm.matmul(h, U_r)), b_r))
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
            assert relative_error(theta.grad, fd) < 1e-4, name


# the gate column blocks of each packed field, and those that act on h alone
GATES = {"W": "zrc", "U_zr": "zr", "U": "c", "b": "zrc"}
AT_H0_ONLY = {("U_zr", "z"), ("U_zr", "r"), ("U", "c"), ("W", "r"), ("b", "r")}


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
        field = name.split(".")[-1]
        gates = GATES.get(field, "-")
        for gate, grad, fd_block in zip(gates, np.hsplit(theta.grad, len(gates)),
                                        np.hsplit(fd, len(gates))):
            if n == 1 and (field, gate) in AT_H0_ONLY:
                # the only step reads h = 0, which these blocks act on alone
                assert not grad.any(), (name, gate)
            else:
                assert np.any(np.abs(fd_block) > 1e-8), (name, gate)
        assert relative_error(theta.grad, fd) < 1e-4, name
