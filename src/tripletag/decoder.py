"""GRU decoding layer with label feedback.

Each step consumes the attention output for the current character, the
previous decoder hidden state, and the previous continuous label
representation T. T is a tanh map of the hidden state and feeds the next
step, so label information flows across time differentiably; the same
procedure runs at training and inference (no teacher forcing). A softmax
over a linear map of T yields the per-character tag distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor


@dataclass
class DecoderParams:
    """Gate maps from the input (W_*), hidden state (U_*), and label feedback
    (V_*); the label map W_T/b_T; the tag-logit map W_Y/b_Y."""

    W_r: Tensor
    U_r: Tensor
    V_r: Tensor
    b_r: Tensor
    W_z: Tensor
    U_z: Tensor
    V_z: Tensor
    b_z: Tensor
    W: Tensor
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
        return cls(
            W_r=u(rng, d_v, d_dec), U_r=u(rng, d_dec, d_dec),
            V_r=u(rng, tau, d_dec), b_r=nm.zeros_init(1, d_dec),
            W_z=u(rng, d_v, d_dec), U_z=u(rng, d_dec, d_dec),
            V_z=u(rng, tau, d_dec), b_z=nm.zeros_init(1, d_dec),
            W=u(rng, d_v, d_dec), U=u(rng, d_dec, d_dec),
            V=u(rng, tau, d_dec), b=nm.zeros_init(1, d_dec),
            W_T=u(rng, d_dec, tau), b_T=nm.zeros_init(1, tau),
            W_Y=u(rng, tau, k), b_Y=nm.zeros_init(1, k))

    @property
    def hidden_size(self) -> int:
        return self.U.shape[0]

    @property
    def label_width(self) -> int:
        return self.W_T.shape[1]

    @property
    def tag_count(self) -> int:
        return self.W_Y.shape[1]


@dataclass
class DecodeState:
    h: Tensor  # (1, d_dec)
    T: Tensor  # (1, tau), entries in (-1, 1)

    @classmethod
    def zeros(cls, p: DecoderParams) -> "DecodeState":
        return cls(h=Tensor(np.zeros((1, p.hidden_size))),
                   T=Tensor(np.zeros((1, p.label_width))))


def _gate(x: Tensor, h: Tensor, T: Tensor, W: Tensor, U: Tensor, V: Tensor,
          b: Tensor) -> Tensor:
    return nm.add(nm.add(nm.add(nm.matmul(x, W), nm.matmul(h, U)),
                         nm.matmul(T, V)), b)


def decode_step(h_star: Tensor, state: DecodeState,
                p: DecoderParams) -> DecodeState:
    """One decoding recurrence; the reset gate damps the prior hidden state."""
    r = nm.sigmoid(_gate(h_star, state.h, state.T, p.W_r, p.U_r, p.V_r, p.b_r))
    z = nm.sigmoid(_gate(h_star, state.h, state.T, p.W_z, p.U_z, p.V_z, p.b_z))
    h_cand = nm.tanh(_gate(h_star, nm.mul(r, state.h), state.T,
                           p.W, p.U, p.V, p.b))
    ones = Tensor(np.ones(z.shape))
    h_new = nm.add(nm.mul(nm.sub(ones, z), state.h), nm.mul(z, h_cand))
    T_new = nm.tanh(nm.add(nm.matmul(h_new, p.W_T), p.b_T))
    return DecodeState(h=h_new, T=T_new)


def tag_distribution(T: Tensor, p: DecoderParams) -> Tensor:
    """(1, k) probability row: softmax of the linear tag logits."""
    return nm.softmax_rows(nm.add(nm.matmul(T, p.W_Y), p.b_Y))


def decode_sequence(h_stars: Tensor,
                    p: DecoderParams) -> tuple[list[int], Tensor]:
    """Left-to-right decode of an (n x d_v) input.

    The continuous T of each step feeds the next (never a discretized label).
    Returns argmax tag ids (ties to the lowest id) and the (n x k)
    probability matrix, which stays differentiable for the loss.
    """
    n = h_stars.shape[0]
    if n < 1:
        raise nm.DimensionError("decode_sequence: empty input")
    state = DecodeState.zeros(p)
    rows = []
    for t in range(n):
        state = decode_step(nm.gather_rows(h_stars, [t]), state, p)
        rows.append(tag_distribution(state.T, p))
    probs = nm.stack_rows(rows)
    tag_ids = [int(np.argmax(probs.data[t])) for t in range(n)]
    return tag_ids, probs
