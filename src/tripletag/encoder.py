"""Bidirectional GRU encoder producing context-aware per-character codes.

A GRU step mixes the previous hidden state and a tanh candidate through an
update gate; the reset gate damps the previous state inside the candidate.
Two independent direction passes read the sequence forwards and backwards and
their per-position outputs are concatenated.

`encode` is one autodiff node with a hand-written backpropagation through
time. `GruCell` is the numpy cell, forward and backward: `GruCell.run` makes
one pass over a sequence, with the input projections of all steps as one
matmul against the packed input map W, and returns the states plus a
backward closure that sums every weight gradient as one whole-sequence
product. The recurrence is two generator loops, `GruCell.states` and
`GruCell.grads_back`, that write each step's gates, state and gradients in
place into rows of whole-sequence arrays (each gemv through `np.dot(...,
out=)`) and yield after each step; the decoder runs its label feedback
between their yields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import numerics as nm
from .numerics import Tensor


def packed(*blocks: np.ndarray) -> Tensor:
    """A trainable tensor of the blocks side by side, in the given order."""
    return nm.parameter(np.hstack(blocks))


@dataclass
class GruParams:
    """One direction's weights, packed by gate in z | r | c column order:
    the input map W (m, 3d), the gates' recurrent map U_zr (d, 2d), the
    candidate's recurrent map U (d, d), which reads r*h, and the bias b
    (1, 3d)."""

    W: Tensor
    U_zr: Tensor
    U: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, m_in: int, d: int) -> "GruParams":
        # each (rows, d) block is drawn on its own, with its own fan limit;
        # per gate W before U, gates in z | r | c order
        W, U = zip(*([nm.uniform_init(rng, rows, d).data for rows in (m_in, d)]
                     for _ in range(3)))
        return cls(W=packed(*W), U_zr=packed(*U[:2]), U=packed(U[2]),
                   b=nm.zeros_init(1, 3 * d))


@dataclass
class BiGruParams:
    forward: GruParams
    backward: GruParams

    @classmethod
    def init(cls, rng: np.random.Generator, m_in: int, d_enc: int) -> "BiGruParams":
        return cls(forward=GruParams.init(rng, m_in, d_enc),
                   backward=GruParams.init(rng, m_in, d_enc))


class GruCell:
    """The GRU cell in numpy, reading a parameter set's packed z | r | c
    weights as they are stored.

    Per step, with input pre-activations a = x W + b: z|r = sigmoid(a[:2d] +
    h U_zr), c = tanh(a[2d:] + (r*h) U) and h' = (1 - z) * h + z * c,
    computed as h + z * (c - h). `states` and `grads_back` read and write 1-D
    rows of the caller's whole-sequence arrays, through row views made once
    per sequence and scratch vectors made once per loop. `p` is a
    `GruParams` or any parameter set with its fields W, U_zr, U and b.
    """

    def __init__(self, p: GruParams):
        self.tensors = (p.W, p.U_zr, p.U, p.b)
        self.W, self.U_zr, self.U = p.W.data, p.U_zr.data, p.U.data
        self.b = p.b.data[0]
        self.d = self.U.shape[0]

    def inputs(self, X: np.ndarray) -> np.ndarray:
        """(n, 3d) input pre-activations of every step, as one matmul."""
        if X.shape[0] < 1:
            raise nm.DimensionError("GRU: empty sequence")
        if X.shape[1] != self.W.shape[0]:
            raise nm.DimensionError(
                f"GRU: input width {X.shape[1]}, weights expect {self.W.shape[0]}")
        return X @ self.W + self.b

    def states(self, A: np.ndarray, H: np.ndarray, G: np.ndarray) -> Iterator[None]:
        """The forward loop over the (n, 3d) pre-activation rows of A from
        state H[0]: step t writes its gates z|r|c into G[t] and its new state
        into H[t + 1], in place, and the loop yields after each step. A caller
        may add to A's next row between yields."""
        d = self.d
        U_zr, U = self.U_zr, self.U
        rh = np.empty(d)  # r*h of the current step
        for a_zr, a_c, h, h_new, zr, z, r, c in zip(
                A[:, : 2 * d], A[:, 2 * d :], H, H[1:], G[:, : 2 * d], *np.hsplit(G, 3)):
            np.dot(h, U_zr, out=zr)
            zr += a_zr
            zr *= 0.5
            np.tanh(zr, out=zr)
            zr += 1.0
            zr *= 0.5  # sigmoid, computed via tanh for stability on large |x|
            np.multiply(r, h, out=rh)
            np.dot(rh, U, out=c)
            c += a_c
            np.tanh(c, out=c)
            np.subtract(c, h, out=h_new)
            h_new *= z
            h_new += h
            yield

    def slopes(self, H_prev: np.ndarray, G: np.ndarray) -> np.ndarray:
        """(n, 5d) per-step factors of `grads_back`, for all steps at once:
        dh'/da_c, dh'/da_z, d(r*h)/da_r, dh'/dh through the update, and r."""
        d = self.d
        Z, R, C = G[:, :d], G[:, d : 2 * d], G[:, 2 * d :]
        return np.hstack([Z * (1.0 - C * C), (C - H_prev) * Z * (1.0 - Z),
                          H_prev * R * (1.0 - R), 1.0 - Z, R])

    def grads_back(self, S: np.ndarray, DA: np.ndarray,
                   DH: np.ndarray) -> Iterator[np.ndarray]:
        """The backward loop of `states`, last step first. Step t reads DH[t],
        the gradient that reaches state t + 1 from outside the recurrence, and
        its row of `slopes` S; it writes the pre-activation gradient into
        DA[t] and yields the gradient of state t (a scratch row, rewritten by
        the next step). A caller may write DH's next row between yields."""
        d = self.d
        U_T, U_zr_T = self.U.T, self.U_zr.T
        dh, d_rh, d_zr = np.zeros(d), np.empty(d), np.empty(d)
        S, DA = S[::-1], DA[::-1]
        for s_c, s_z, s_r, s_h, r, da_zr, da_z, da_r, da_c, g in zip(
                *np.hsplit(S, 5), DA[:, : 2 * d], *np.hsplit(DA, 3), DH[::-1]):
            dh += g
            np.multiply(dh, s_c, out=da_c)
            np.dot(da_c, U_T, out=d_rh)
            np.multiply(dh, s_z, out=da_z)
            np.multiply(d_rh, s_r, out=da_r)
            np.dot(da_zr, U_zr_T, out=d_zr)
            dh *= s_h
            d_rh *= r
            dh += d_rh
            dh += d_zr
            yield dh

    def accumulate_grads(self, X: np.ndarray, H_prev: np.ndarray, G: np.ndarray,
                         DA: np.ndarray) -> np.ndarray:
        """Accumulates the whole-sequence gradients of W, U_zr, U and b, from
        the (n, 3d) pre-activation gradients DA, the inputs X, the states
        H_prev the steps read and their gates G; returns the gradient of X."""
        d = self.d
        grads = (X.T @ DA, H_prev.T @ DA[:, : 2 * d],
                 (G[:, d : 2 * d] * H_prev).T @ DA[:, 2 * d :],
                 DA.sum(axis=0, keepdims=True))
        for t, g in zip(self.tensors, grads):
            nm.accumulate(t, g)
        return DA @ self.W.T

    def run(self, X: np.ndarray
            ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """One pass over the (n, m) rows of X from a zero state: the (n, d)
        states and a backward closure that takes their gradient, accumulates
        the parameter gradients and returns X's. Raises DimensionError (a
        ValueError) for an empty X or a width that does not match W."""
        A = self.inputs(X)
        n, d = X.shape[0], self.d
        H = np.zeros((n + 1, d))  # H[t] is the state step t reads
        G = np.empty((n, 3 * d))
        for _ in self.states(A, H, G):
            pass

        def backward(g: np.ndarray) -> np.ndarray:
            DA = np.empty((n, 3 * d))
            for _ in self.grads_back(self.slopes(H[:-1], G), DA, g):
                pass
            return self.accumulate_grads(X, H[:-1], G, DA)

        return H[1:], backward


def encode(E: Tensor, p: BiGruParams) -> Tensor:
    """(n x m) embeddings -> (n x 2*d_enc) codes, as a single autodiff node;
    both passes start from zeros.

    The backward pass runs over a reversed copy of the rows and its states
    are reversed back. An empty E or a width that does not match the input
    maps raises DimensionError (a ValueError).
    """
    fwd, bwd = GruCell(p.forward), GruCell(p.backward)
    H_f, back_f = fwd.run(E.data)
    H_b, back_b = bwd.run(E.data[::-1].copy())
    d = fwd.d

    def backward(g: np.ndarray) -> None:
        nm.accumulate(E, back_f(g[:, :d]) + back_b(g[::-1, d:])[::-1])

    return nm.result(np.hstack([H_f, H_b[::-1]]), (E, *fwd.tensors, *bwd.tensors),
                     backward)
