"""Bidirectional GRU encoder producing context-aware per-character codes.

A GRU step mixes the previous hidden state and a tanh candidate through an
update gate; the reset gate damps the previous state inside the candidate.
Two independent direction passes read the sequence forwards and backwards and
their per-position outputs are concatenated.

Each direction is one autodiff node, `gru_sequence`, with a hand-written
backpropagation through time. The input projections of all steps are one
matmul against the concatenated gate weights, and the backward sums every
weight gradient as one whole-sequence product. `GruCell` is the numpy cell,
forward and backward; the decoder reuses it with its label-feedback term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor


@dataclass
class GruParams:
    """One direction's weights: input maps W_*, recurrent maps U_*, biases b_*."""

    W_z: Tensor
    U_z: Tensor
    b_z: Tensor
    W_r: Tensor
    U_r: Tensor
    b_r: Tensor
    W: Tensor
    U: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, m_in: int, d: int) -> "GruParams":
        return cls(
            W_z=nm.uniform_init(rng, m_in, d), U_z=nm.uniform_init(rng, d, d),
            b_z=nm.zeros_init(1, d),
            W_r=nm.uniform_init(rng, m_in, d), U_r=nm.uniform_init(rng, d, d),
            b_r=nm.zeros_init(1, d),
            W=nm.uniform_init(rng, m_in, d), U=nm.uniform_init(rng, d, d),
            b=nm.zeros_init(1, d))

    @property
    def hidden_size(self) -> int:
        return self.U.shape[0]


@dataclass
class BiGruParams:
    forward: GruParams
    backward: GruParams

    @classmethod
    def init(cls, rng: np.random.Generator, m_in: int, d_enc: int) -> "BiGruParams":
        return cls(forward=GruParams.init(rng, m_in, d_enc),
                   backward=GruParams.init(rng, m_in, d_enc))

    @property
    def hidden_size(self) -> int:
        return self.forward.hidden_size


class GruCell:
    """The GRU cell in numpy, with one parameter set's gates concatenated in
    z | r | candidate order.

    Per step, with input pre-activations a = x [W_z|W_r|W] + [b_z|b_r|b]:
    z|r = sigmoid(a[:2d] + h [U_z|U_r]), c = tanh(a[2d:] + (r*h) U) and
    h' = (1 - z) * h + z * c, computed as h + z * (c - h). Vectors are 1-D
    rows; per-step results are written into rows of the caller's
    whole-sequence arrays. `p` is a `GruParams` or any parameter set with the
    same nine gate fields.
    """

    def __init__(self, p: GruParams):
        self.tensors = (p.W_z, p.W_r, p.W, p.U_z, p.U_r, p.U, p.b_z, p.b_r, p.b)
        self.W = np.hstack([p.W_z.data, p.W_r.data, p.W.data])
        self.b = np.hstack([p.b_z.data, p.b_r.data, p.b.data])[0]
        self.U_zr = np.hstack([p.U_z.data, p.U_r.data])
        self.U = p.U.data
        self.d = self.U.shape[0]

    def inputs(self, X: Tensor) -> np.ndarray:
        """(n, 3d) input pre-activations of every step, as one matmul."""
        if X.shape[0] < 1:
            raise nm.DimensionError("GRU: empty sequence")
        if X.shape[1] != self.W.shape[0]:
            raise nm.DimensionError(
                f"GRU: input width {X.shape[1]}, weights expect {self.W.shape[0]}")
        return X.data @ self.W + self.b

    def step(self, a: np.ndarray, h: np.ndarray, gates: np.ndarray) -> np.ndarray:
        """New state from pre-activations a (3d,) and state h (d,); writes
        z|r|c into gates."""
        d = self.d
        zr = gates[: 2 * d]
        np.tanh(0.5 * (a[: 2 * d] + h @ self.U_zr), out=zr)
        zr += 1.0
        zr *= 0.5  # sigmoid, computed via tanh as in nm.sigmoid
        z, r = gates[:d], gates[d : 2 * d]
        c = gates[2 * d :]
        np.tanh(a[2 * d :] + (r * h) @ self.U, out=c)
        return h + z * (c - h)

    def slopes(self, H_prev: np.ndarray, G: np.ndarray) -> np.ndarray:
        """(n, 5d) per-step factors of `step_back`, for all steps at once:
        dh'/da_c, dh'/da_z, d(r*h)/da_r, dh'/dh through the update, and r."""
        d = self.d
        Z, R, C = G[:, :d], G[:, d : 2 * d], G[:, 2 * d :]
        return np.hstack([Z * (1.0 - C * C), (C - H_prev) * Z * (1.0 - Z),
                          H_prev * R * (1.0 - R), 1.0 - Z, R])

    def step_back(self, dh: np.ndarray, s: np.ndarray, da: np.ndarray) -> np.ndarray:
        """Backward of `step`: from the new state's gradient dh and the step's
        row s of `slopes`, writes the pre-activation gradient into da and
        returns the gradient of h."""
        d = self.d
        da_c = da[2 * d :]
        np.multiply(dh, s[:d], out=da_c)
        d_rh = da_c @ self.U.T
        np.multiply(dh, s[d : 2 * d], out=da[:d])
        np.multiply(d_rh, s[2 * d : 3 * d], out=da[d : 2 * d])
        return dh * s[3 * d : 4 * d] + d_rh * s[4 * d :] + da[: 2 * d] @ self.U_zr.T

    def accumulate_grads(self, X: Tensor, H_prev: np.ndarray, G: np.ndarray,
                         DA: np.ndarray) -> None:
        """Whole-sequence gradients of X and of the nine gate tensors, from the
        (n, 3d) pre-activation gradients DA, the states H_prev the steps read
        and their gates G."""
        d = self.d
        dW = X.data.T @ DA
        dU_zr = H_prev.T @ DA[:, : 2 * d]
        dU = (G[:, d : 2 * d] * H_prev).T @ DA[:, 2 * d :]
        db = DA.sum(axis=0, keepdims=True)
        grads = (*np.hsplit(dW, 3), *np.hsplit(dU_zr, 2), dU, *np.hsplit(db, 3))
        for t, g in zip(self.tensors, grads):
            if t.requires_grad:
                nm.accumulate(t, g)
        if X.requires_grad:
            nm.accumulate(X, DA @ self.W.T)


def gru_sequence(X: Tensor, p: GruParams) -> Tensor:
    """(n x m) inputs -> (n x d) hidden states of one GRU pass from a zero
    state, as a single autodiff node.

    Raises DimensionError (a ValueError) for an empty sequence or an input
    width that does not match W_*.
    """
    cell = GruCell(p)
    A = cell.inputs(X)
    n, d = X.shape[0], cell.d
    H = np.zeros((n + 1, d))  # H[t] is the state step t reads
    G = np.empty((n, 3 * d))
    for t in range(n):
        H[t + 1] = cell.step(A[t], H[t], G[t])

    def backward(g: np.ndarray) -> None:
        S = cell.slopes(H[:-1], G)
        DA = np.empty((n, 3 * d))
        dh = np.zeros(d)
        for t in range(n - 1, -1, -1):
            dh = cell.step_back(dh + g[t], S[t], DA[t])
        cell.accumulate_grads(X, H[:-1], G, DA)

    return nm.result(H[1:], (X, *cell.tensors), backward)


def encode(E: Tensor, p: BiGruParams) -> Tensor:
    """(n x m) embeddings -> (n x 2*d_enc) codes; both passes start from zeros.

    The backward pass runs `gru_sequence` over the reversed rows and reverses
    its output back. An empty E raises DimensionError (a ValueError).
    """
    n = E.shape[0]
    if n < 1:
        raise nm.DimensionError("encode: empty sequence")
    rev = list(range(n - 1, -1, -1))
    bwd = gru_sequence(nm.gather_rows(E, rev), p.backward)
    return nm.concat_cols(gru_sequence(E, p.forward), nm.gather_rows(bwd, rev))
