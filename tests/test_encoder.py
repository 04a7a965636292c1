import math

import numpy as np
import pytest

from helpers import (
    arrays, check_finite_differences, gru_states, named_tensors, np_sigmoid,
    reference_gru_sequence, weighted)
from tripletag import encoder
from tripletag import numerics as nm
from tripletag.encoder import BiGruParams, GruCell, GruParams, encode
from tripletag.numerics import Tensor


def zero_gru(m_in, d):
    p = GruParams.init(np.random.default_rng(0), m_in, d)
    for _, t in named_tensors(p):
        t.data[:] = 0.0
    return p


def states(p, X):
    """The (n, d) states of one direction's `GruCell` over the rows of X."""
    return gru_states(GruCell(p), X)[0][1:]


class TestGruStep:
    def test_all_zero_params_keep_zero_state(self):
        p = zero_gru(3, 2)
        h = states(p, np.array([[1.0, -1.0, 2.0]]))
        np.testing.assert_array_equal(h, [[0.0, 0.0]])

    def test_scalar_hand_case(self):
        # z = sigmoid(0) = 0.5, candidate = tanh(1), h = 0.5*tanh(1)
        p = zero_gru(1, 1)
        p.W.data[0, 2] = 1.0  # candidate column (z | r | c)
        p.W.data[0, 1] = 0.7  # reset column: r is irrelevant with h_prev = 0
        h = states(p, np.array([[1.0]])).item()
        assert abs(h - 0.5 * math.tanh(1.0)) < 1e-12
        assert abs(h - 0.380797) < 1e-6

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(1)
        p = GruParams.init(rng, 4, 3)
        E = rng.uniform(-2, 2, (6, 4))
        want = reference_gru_sequence(E, arrays(p))
        h = states(p, E)
        for t in range(6):
            np.testing.assert_allclose(h[t], want[t], atol=1e-12)

    def test_dimension_mismatch(self):
        p = GruParams.init(np.random.default_rng(2), 4, 3)
        with pytest.raises(nm.DimensionError):
            states(p, np.array([[1.0, 2.0]]))

    def test_empty_sequence_rejected(self):
        p = GruParams.init(np.random.default_rng(2), 4, 3)
        with pytest.raises(nm.DimensionError):
            states(p, np.zeros((0, 4)))


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
        f = states(p.forward, E.data)
        b = states(p.backward, E.data)
        np.testing.assert_allclose(out.data, np.hstack([f, b]), atol=1e-15)

    def test_matches_two_unidirectional_passes(self):
        rng = np.random.default_rng(4)
        p = BiGruParams.init(rng, 5, 4)
        E = rng.uniform(-2, 2, (3, 5))
        out = encode(Tensor(E), p)
        fwd = reference_gru_sequence(E, arrays(p.forward))
        bwd = reference_gru_sequence(E[::-1], arrays(p.backward))[::-1]
        np.testing.assert_allclose(out.data, np.hstack([fwd, bwd]), atol=1e-12)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(5)
        p = BiGruParams.init(rng, 3, 2)
        swapped = BiGruParams(forward=p.backward, backward=p.forward)
        E = rng.uniform(-1, 1, (5, 3))
        out = encode(Tensor(E), p).data
        out_rev = encode(Tensor(E[::-1].copy()), swapped).data
        d = p.forward.U.shape[0]
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
    h = states(p, E)
    for t in range(12):
        assert np.all(np.abs(h[t]) < 1.0)


def test_gate_outputs_in_open_unit_interval():
    rng = np.random.default_rng(8)
    p = GruParams.init(rng, 4, 3)
    w, h = rng.uniform(-2, 2, (1, 4)), rng.uniform(-0.9, 0.9, (1, 3))
    zr = np_sigmoid(w @ p.W.data[:, :6] + h @ p.U_zr.data + p.b.data[:, :6])
    assert np.all((zr > 0.0) & (zr < 1.0))


def test_encode_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    p = BiGruParams.init(rng, 3, 2)
    E = rng.uniform(-1, 1, (4, 3))
    mask = np.cos(np.arange(16)).reshape(4, 4)
    check_finite_differences(lambda: encode(Tensor(E), p), named_tensors(p), mask)


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
    named = [("E", E)] + named_tensors(p)
    diffs = check_finite_differences(lambda: encode(E, p), named, mask)
    for name, theta in named:
        field = name.split(".")[-1]
        gates = GATES.get(field, "-")
        for gate, grad, fd_block in zip(gates, np.hsplit(theta.grad, len(gates)),
                                        np.hsplit(diffs[name], len(gates))):
            if n == 1 and (field, gate) in AT_H0_ONLY:
                # the only step reads h = 0, which these blocks act on alone
                assert not grad.any(), (name, gate)
            else:
                assert np.any(np.abs(fd_block) > 1e-8), (name, gate)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_encode_equals_two_single_cell_loops_bit_for_bit(n, monkeypatch):
    # encode runs its directions side by side in one loop each way, with the
    # operations and operands of two GruCell loops, one over E's rows and one
    # over them reversed: states, gates and gradients agree to the bit
    m, d = 5, 4
    rng = np.random.default_rng(40 + n)
    p, q = (BiGruParams.init(rng, m, d) for _ in range(2))
    for (_, theta), (_, twin) in zip(named_tensors(p), named_tensors(q)):
        theta.data[:] = rng.uniform(-1, 1, theta.shape)  # biases too
        twin.data[:] = theta.data
    E = Tensor(rng.uniform(-2, 2, (n, m)), requires_grad=True)
    g = rng.uniform(-1, 1, (n, 2 * d))
    seen = {}
    bi_states = encoder._bi_states

    def spy(cells, A, H, G):
        bi_states(cells, A, H, G)
        seen.update(H=H, G=G)

    monkeypatch.setattr(encoder, "_bi_states", spy)
    out = encode(E, p)
    nm.backward(weighted(out, g))  # encode's node receives g as it is

    dX, H_by_direction = [], []
    for k, (cell, X, DH) in enumerate(zip((GruCell(q.forward), GruCell(q.backward)),
                                          (E.data, E.data[::-1].copy()),
                                          (g[:, :d], g[::-1, d:]))):
        H, G = gru_states(cell, X)
        H_by_direction.append(H)
        # seen["G"] rows are [z_f r_f | z_b r_b | c_f | c_b]
        np.testing.assert_array_equal(seen["H"][:, k * d : (k + 1) * d], H)
        np.testing.assert_array_equal(seen["G"][:, 2 * k * d : 2 * (k + 1) * d], G[:, : 2 * d])
        np.testing.assert_array_equal(seen["G"][:, (4 + k) * d : (5 + k) * d], G[:, 2 * d :])
        DA = np.empty((n, 3 * d))
        DA[:, 2 * d :] = DH
        for _ in cell.grads_back(cell.slopes(H[:-1], G, DA), DA):
            pass
        dX.append(cell.accumulate_grads(X, H[:-1], G[:, d : 2 * d], DA))
    H_f, H_b = H_by_direction
    np.testing.assert_array_equal(out.data, np.hstack([H_f[1:], H_b[:0:-1]]))
    np.testing.assert_array_equal(E.grad, dX[0] + dX[1][::-1])
    for (name, theta), (_, twin) in zip(named_tensors(p), named_tensors(q)):
        np.testing.assert_array_equal(theta.grad, twin.grad, err_msg=name)


def test_interleaved_loops_match_each_loop_run_alone():
    # each loop owns its scratch vectors: loops over different inputs, two of
    # one cell and one of another, advanced in turn step by step, give what
    # each gives alone
    rng = np.random.default_rng(14)
    n, d = 6, 3
    first, second = (GruCell(GruParams.init(rng, 4, d)) for _ in range(2))
    cells = [first, first, second]
    Xs = [rng.uniform(-2, 2, (n, 4)) for _ in cells]
    DHs = [rng.uniform(-1, 1, (n, d)) for _ in cells]

    def forward(cell, X):
        H, G = np.zeros((n + 1, d)), np.empty((n, 3 * d))
        return H, G, cell.states(cell.inputs(X), H, G)

    def backward(cell, H, G, DH):
        DA = np.empty((n, 3 * d))
        DA[:, 2 * d :] = DH
        return DA, (dh.copy() for dh in cell.grads_back(cell.slopes(H[:-1], G, DA), DA))

    alone = []
    for cell, X, DH in zip(cells, Xs, DHs):
        H, G, steps = forward(cell, X)
        for _ in steps:
            pass
        DA, steps = backward(cell, H, G, DH)
        alone.append((H, G, DA, list(steps)))

    fwd = [forward(cell, X) for cell, X in zip(cells, Xs)]
    assert len(list(zip(*(steps for _, _, steps in fwd)))) == n
    bwd = [backward(cell, H, G, DH) for cell, (H, G, _), DH in zip(cells, fwd, DHs)]
    yielded = list(zip(*(steps for _, steps in bwd)))
    assert len(yielded) == n
    for k, (H, G, DA, grads) in enumerate(alone):
        for got, want in zip((*fwd[k][:2], bwd[k][0]), (H, G, DA)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip((step[k] for step in yielded), grads):
            np.testing.assert_array_equal(got, want)
