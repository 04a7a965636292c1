"""Bidirectional GRU encoder producing context-aware per-character codes.

A GRU step mixes the previous hidden state and a tanh candidate through an
update gate; the reset gate damps the previous state inside the candidate.
Two independent direction passes read the sequence forwards and backwards and
their per-position outputs are concatenated.
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

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [("W_z", self.W_z), ("U_z", self.U_z), ("b_z", self.b_z),
                ("W_r", self.W_r), ("U_r", self.U_r), ("b_r", self.b_r),
                ("W", self.W), ("U", self.U), ("b", self.b)]


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


def gru_step(w_t: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One recurrence: h = (1-z) * h_prev + z * tanh-candidate.

    z and r are sigmoid gates; the reset gate scales h_prev before the
    candidate's recurrent term.
    """
    z = nm.sigmoid(nm.add(nm.add(nm.matmul(w_t, p.W_z),
                                 nm.matmul(h_prev, p.U_z)), p.b_z))
    r = nm.sigmoid(nm.add(nm.add(nm.matmul(w_t, p.W_r),
                                 nm.matmul(h_prev, p.U_r)), p.b_r))
    h_cand = nm.tanh(nm.add(nm.add(nm.matmul(w_t, p.W),
                                   nm.matmul(nm.mul(r, h_prev), p.U)), p.b))
    ones = Tensor(np.ones(z.shape))
    return nm.add(nm.mul(nm.sub(ones, z), h_prev), nm.mul(z, h_cand))


def encode(E: Tensor, p: BiGruParams) -> Tensor:
    """(n x m) embeddings -> (n x 2*d_enc) codes; both passes start from zeros."""
    n = E.shape[0]
    if n < 1:
        raise nm.DimensionError("encode: empty sequence")
    d = p.hidden_size

    h = Tensor(np.zeros((1, d)))
    fwd = []
    for t in range(n):
        h = gru_step(nm.gather_rows(E, [t]), h, p.forward)
        fwd.append(h)

    h = Tensor(np.zeros((1, d)))
    bwd: list[Tensor] = [None] * n
    for t in range(n - 1, -1, -1):
        h = gru_step(nm.gather_rows(E, [t]), h, p.backward)
        bwd[t] = h

    return nm.concat_cols(nm.stack_rows(fwd), nm.stack_rows(bwd))
