"""Single-head scaled dot-product self-attention over encoder outputs.

Queries, keys, and values are linear maps of the input rows; each output row
is the attention-weighted mix of value rows, with weights from a row softmax
of query-key dot products scaled by 1/sqrt(d_k). No masking, positions, or
residual path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor


@dataclass
class AttnParams:
    W_Q: Tensor
    W_K: Tensor
    W_V: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, in_dim: int) -> "AttnParams":
        """Square (in_dim, in_dim) maps, so d_k = in_dim."""
        return cls(W_Q=nm.uniform_init(rng, in_dim, in_dim),
                   W_K=nm.uniform_init(rng, in_dim, in_dim),
                   W_V=nm.uniform_init(rng, in_dim, in_dim))

    @property
    def d_k(self) -> int:
        return self.W_Q.shape[1]


def attention_weights(H: Tensor, p: AttnParams) -> Tensor:
    """(n x n) row-stochastic attention matrix."""
    if H.shape[0] < 1:
        raise nm.DimensionError("attend: empty input")
    Q = nm.matmul(H, p.W_Q)
    K = nm.matmul(H, p.W_K)
    scores = nm.scale(nm.matmul(Q, nm.transpose(K)), 1.0 / np.sqrt(p.d_k))
    return nm.softmax_rows(scores)


def attend(H: Tensor, p: AttnParams) -> Tensor:
    """(n x in_dim) codes -> (n x d_k) attention-mixed codes."""
    A = attention_weights(H, p)
    V = nm.matmul(H, p.W_V)
    return nm.matmul(A, V)
