"""GRU decoding layer with label feedback.

Each step consumes the attention output for the current character, the
previous decoder hidden state, and the previous continuous label
representation T. T is a tanh map of the hidden state and feeds the next
step, so label information flows across time differentiably; the same
procedure runs at training and inference (no teacher forcing). A softmax
over a linear map of T yields the per-character tag distribution.

The whole decoder is one autodiff node, `decode_sequence`: the encoder's
`GruCell` with the label-feedback term added to its gates, the tag head over
all n label rows, and a hand-written backpropagation through time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .encoder import GruCell, packed
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
        u = nm.uniform_init
        # each (rows, d_dec) block is drawn on its own, with its own fan
        # limit; per gate W, U, V, gates drawn in r, z, c order
        r, z, c = ([u(rng, rows, d_dec).data for rows in (d_v, d_dec, tau)]
                   for _ in range(3))
        W, U, V = zip(z, r, c)
        return cls(W=packed(*W), U_zr=packed(*U[:2]), U=packed(U[2]), V=packed(*V),
                   b=nm.zeros_init(1, 3 * d_dec),
                   W_T=u(rng, d_dec, tau), b_T=nm.zeros_init(1, tau),
                   W_Y=u(rng, tau, k), b_Y=nm.zeros_init(1, k))

    @property
    def hidden_size(self) -> int:
        return self.U.shape[0]

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
    cell = GruCell(p)
    A = cell.inputs(h_stars.data)
    n, d, tau = h_stars.shape[0], cell.d, p.label_width
    V, W_T, b_T, W_Y = p.V.data, p.W_T.data, p.b_T.data[0], p.W_Y.data
    H = np.zeros((n + 1, d))  # H[t], T[t] are what step t reads
    T = np.zeros((n + 1, tau))
    G = np.empty((n, 3 * d))
    for t in range(n):
        H[t + 1] = cell.step(A[t] + T[t] @ V, H[t], G[t])
        T[t + 1] = np.tanh(H[t + 1] @ W_T + b_T)
    Y = nm.softmax(T[1:] @ W_Y + p.b_Y.data)

    def backward(g: np.ndarray) -> None:
        dZ = nm.softmax_grad(Y, g)
        nm.accumulate(p.W_Y, T[1:].T @ dZ)
        nm.accumulate(p.b_Y, dZ.sum(axis=0, keepdims=True))
        g_T = dZ @ W_Y.T  # the label rows' gradient
        S = cell.slopes(H[:-1], G)
        DT = 1.0 - T[1:] * T[1:]  # tanh slopes, then the T pre-activation grads
        DA = np.empty((n, 3 * d))
        dh = np.zeros(d)
        dT = np.zeros(tau)  # T_t's gradient through the gates of step t+1
        for t in range(n - 1, -1, -1):
            DT[t] *= g_T[t] + dT
            dh = cell.step_back(dh + DT[t] @ W_T.T, S[t], DA[t])
            dT = DA[t] @ V.T
        nm.accumulate(h_stars, cell.accumulate_grads(h_stars.data, H[:-1], G, DA))
        grads = (T[:-1].T @ DA, H[1:].T @ DT, DT.sum(axis=0, keepdims=True))
        for theta, grad in zip((p.V, p.W_T, p.b_T), grads):
            nm.accumulate(theta, grad)

    probs = nm.result(Y, (h_stars, *cell.tensors, p.V, p.W_T, p.b_T, p.W_Y, p.b_Y),
                      backward)
    return Y.argmax(axis=1).tolist(), probs
