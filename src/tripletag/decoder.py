"""GRU decoding layer with label feedback.

Each step consumes the attention output for the current character, the
previous decoder hidden state, and the previous continuous label
representation T. T is a tanh map of the hidden state and feeds the next
step, so label information flows across time differentiably; the same
procedure runs at training and inference (no teacher forcing). A softmax
over a linear map of T gives the per-character tag distribution.

The whole decoder is one autodiff node, `decode_sequence`: the encoder's
GRU cell, through its functions `inputs`, `slopes` and `accumulate_grads`,
with the label-feedback term added to its gates, the tag head over all n
label rows, and a hand-written backpropagation through time. Its one
forward loop runs, per step, the feedback, the GRU step and the label row;
its one backward loop runs, last step first, the label row's gradient, the
GRU step back and the feedback's gradient. Each call has the cheapest form
the encoder's loops use, and a step allocates nothing: it writes in place
into rows of whole-sequence arrays, the forward step turning its row of
pre-activations into gates, and its gemvs into scratch vectors.
`DecoderParams.init` draws each gate block into its columns as
`GruParams.init` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .encoder import _columns, _gate_blocks, accumulate_grads, inputs, slopes
from .numerics import Tensor


@dataclass
class DecoderParams:
    """The GRU's weights, packed by gate in z | r | c column order as in
    `GruParams` (W, U_zr, U, b), plus the label feedback map V (tau, 3d);
    the label map W_T/b_T; the tag-logit map W_Y/b_Y."""

    W: Tensor
    U_zr: Tensor
    U: Tensor
    V: Tensor
    b: Tensor
    W_T: Tensor
    b_T: Tensor
    W_Y: Tensor
    b_Y: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, d_v: int, d_dec: int, tau: int,
             k: int) -> "DecoderParams":
        u, z, d = nm.uniform_init, nm.zeros_init, d_dec
        W, U_zr, U, V = z(d_v, 3 * d), z(d, 2 * d), z(d, d), z(tau, 3 * d)
        # each (rows, d) block is drawn on its own, with its own fan limit,
        # and copied into its columns; per gate W, U, V, gates drawn r, z, c
        gate_z, gate_r, gate_c = _gate_blocks(W, U_zr, U, V)
        for block in (*gate_r, *gate_z, *gate_c):
            block[...] = u(rng, *block.shape).data
        return cls(W=W, U_zr=U_zr, U=U, V=V, b=z(1, 3 * d), W_T=u(rng, d, tau),
                   b_T=z(1, tau), W_Y=u(rng, tau, k), b_Y=z(1, k))

    @property
    def label_width(self) -> int:
        return self.W_T.shape[1]


def decode_sequence(h_stars: Tensor,
                    p: DecoderParams) -> tuple[list[int], Tensor]:
    """Left-to-right decode of an (n x d_v) input, as a single autodiff node.

    Step t runs the encoder's GRU cell on x_t with T_{t-1} V added to the
    z | r | c pre-activations, then sets T_t = tanh(h_t W_T + b_T); h_0 and
    T_0 are zero. The continuous T of each step feeds the next (never a
    discretized label), and row t of the (n x k) probabilities is
    softmax(T_t W_Y + b_Y). Returns the argmax tag ids (ties to the lowest
    id) and the probabilities, which stay differentiable for the loss. An
    empty input or a width that does not match W raises DimensionError (a
    ValueError).
    """
    G = inputs(p, h_stars.data)  # the pre-activations, overwritten by the gates
    n, d, tau = h_stars.shape[0], p.U.shape[0], p.label_width
    U_zr, U, V = p.U_zr.data, p.U.data, p.V.data
    W_T, b_T, W_Y = p.W_T.data, p.b_T.data[0], p.W_Y.data
    H = np.zeros((n + 1, d))  # H[t], T[t] are what step t reads
    T = np.zeros((n + 1, tau))
    feedback, hU_zr, rh, rhU = np.empty(3 * d), np.empty(2 * d), np.empty(d), np.empty(d)
    add, mul, sub, dot, tanh = np.add, np.multiply, np.subtract, np.dot, np.tanh
    half, one = np.array(0.5), np.array(1.0)  # cheaper operands than floats
    for g, t_in, t_out, h, h_new, zr, z, r, c in zip(
            G, T, T[1:], H, H[1:], *_columns(G, d, 0, 2), *_columns(G, d, 0, 1, 2, 3)):
        dot(t_in, V, feedback)
        add(g, feedback, g)
        dot(h, U_zr, hU_zr)
        add(zr, hU_zr, zr)
        mul(zr, half, zr)
        tanh(zr, zr)
        add(zr, one, zr)
        mul(zr, half, zr)  # sigmoid, computed via tanh for stability on large |x|
        mul(r, h, rh)
        dot(rh, U, rhU)
        add(c, rhU, c)
        tanh(c, c)
        sub(c, h, h_new)
        mul(h_new, z, h_new)
        add(h_new, h, h_new)
        dot(h_new, W_T, t_out)
        add(t_out, b_T, t_out)
        tanh(t_out, t_out)
    Y = nm.softmax(T[1:] @ W_Y + p.b_Y.data)

    def backward(g: np.ndarray) -> None:
        dZ = nm.softmax_grad(Y, g)
        nm.accumulate(p.W_Y, T[1:].T @ dZ)
        nm.accumulate(p.b_Y, dZ.sum(axis=0, keepdims=True))
        g_T = dZ @ W_Y.T  # the label rows' gradient
        DT = 1.0 - T[1:] * T[1:]  # tanh slopes, then the T pre-activation grads
        DA = np.empty((n, 3 * d))
        dT = np.zeros(tau)  # T_t's gradient through the gates of step t+1
        W_T_T, V_T, U_T, U_zr_T = W_T.T, V.T, U.T, U_zr.T
        S = slopes(H[:-1], G, DA, d)[::-1]
        dh, d_rh, d_zr = np.zeros(d), np.empty(d), np.empty(d)  # dh carries across steps
        for dt, g_t, da, da_zr, da_z, da_r, da_c, s_c, s_h, r in zip(
                DT[::-1], g_T[::-1], DA[::-1], *_columns(DA[::-1], d, 0, 2),
                *_columns(DA[::-1], d, 0, 1, 2, 3), *_columns(S, d, 0, 1, 2, 3)):
            add(dT, g_t, dT)
            mul(dt, dT, dt)
            dot(dt, W_T_T, da_c)  # h_{t+1}'s gradient through T_{t+1}
            add(dh, da_c, dh)
            mul(dh, s_c, da_c)
            dot(da_c, U_T, d_rh)
            mul(dh, da_z, da_z)
            mul(d_rh, da_r, da_r)
            dot(da_zr, U_zr_T, d_zr)
            mul(dh, s_h, dh)
            mul(d_rh, r, d_rh)
            add(dh, d_rh, dh)
            add(dh, d_zr, dh)
            dot(da, V_T, dT)
        nm.accumulate(h_stars, accumulate_grads(p, h_stars.data, H[:-1], G[:, d : 2 * d], DA))
        grads = (T[:-1].T @ DA, H[1:].T @ DT, DT.sum(axis=0, keepdims=True))
        for theta, grad in zip((p.V, p.W_T, p.b_T), grads):
            nm.accumulate(theta, grad)

    probs = nm.result(Y, (h_stars, p.W, p.U_zr, p.U, p.b, p.V, p.W_T, p.b_T, p.W_Y,
                          p.b_Y), backward)
    return Y.argmax(axis=1).tolist(), probs
