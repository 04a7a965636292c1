"""Single-head scaled dot-product self-attention over encoder outputs.

Queries, keys, and values are linear maps of the input rows; each output row
is the attention-weighted mix of value rows, with weights from a row softmax
of query-key dot products scaled by 1/sqrt(d_k). No masking, positions, or
residual path. `attend` is one autodiff node with a hand-written backward.
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


def attend(H: Tensor, p: AttnParams) -> Tensor:
    """(n x in_dim) codes -> (n x d_k) attention-mixed codes, as a single
    autodiff node; an empty input or a width W_Q does not take raises
    DimensionError (a ValueError). The backward follows Vaswani et al.
    (2017); the copy of K^T and the order of H's three gradient terms fix
    its bits, which tools/fingerprint.py pins."""
    n, width = H.shape
    if n < 1:
        raise nm.DimensionError("attend: empty input")
    if width != p.W_Q.shape[0]:
        raise nm.DimensionError(
            f"attend: input width {width}, weights expect {p.W_Q.shape[0]}")
    X, W_Q, W_K, W_V = H.data, p.W_Q.data, p.W_K.data, p.W_V.data
    c = 1.0 / np.sqrt(p.d_k)
    Q, K_T, V = X @ W_Q, (X @ W_K).T.copy(), X @ W_V
    A = nm.softmax((Q @ K_T) * c)

    def backward(g: np.ndarray) -> None:
        dV = A.T @ g
        dS = nm.softmax_grad(A, g @ V.T) * c
        dQ = dS @ K_T.T
        dK = (Q.T @ dS).T
        nm.accumulate(H, dQ @ W_Q.T + dK @ W_K.T + dV @ W_V.T)
        for theta, grad in zip((p.W_Q, p.W_K, p.W_V), (dQ, dK, dV)):
            nm.accumulate(theta, X.T @ grad)

    return nm.result(A @ V, (H, p.W_Q, p.W_K, p.W_V), backward)
