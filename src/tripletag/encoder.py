"""Bidirectional GRU encoder producing context-aware per-character codes.

A GRU step mixes the previous hidden state and a tanh candidate through an
update gate; the reset gate damps the previous state inside the candidate.
Two independent direction passes read the sequence forwards and backwards and
their per-position outputs are concatenated.

`encode` is one autodiff node with a hand-written backpropagation through
time. The encoder and the decoder share three functions of a parameter set,
each over the whole sequence: `inputs`, the input projections as one
matmul; `slopes`, the backward loops' per-step factors; and
`accumulate_grads`, the weight gradients as whole-sequence products. Each
layer writes its own step loops. `GruParams.init` draws each gate block
into a mapping of its own and copies it into its columns of the packed
weights, so set-up makes no heap array of a weight's size. A recurrent step
allocates nothing: it writes in place into rows of whole-sequence arrays
(a forward step turns its row of pre-activations into gates) and into
scratch vectors, every call in its cheapest form: positional outputs, ufuncs
bound to local names, the sigmoid's constants as 0-d arrays. `encode` runs
both directions side by side, in one forward loop and one backward loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor


def _columns(M: np.ndarray, d: int, *bounds: int) -> list[np.ndarray]:
    """The column views M[:, i*d : j*d] of each consecutive pair of bounds."""
    return [M[:, i * d : j * d] for i, j in zip(bounds, bounds[1:])]


def _gate_blocks(W: Tensor, U_zr: Tensor, U: Tensor,
                 *more: Tensor) -> list[tuple[np.ndarray, ...]]:
    """For each gate z, r, c, the column views of its blocks: W's, then
    U_zr's or U, then each of `more`'s, packed z | r | c as W is."""
    d = U.shape[0]
    packed = [_columns(M.data, d, 0, 1, 2, 3) for M in (W, *more)]
    return list(zip(packed[0], [*_columns(U_zr.data, d, 0, 1, 2), U.data], *packed[1:]))


@dataclass
class GruParams:
    """One direction's weights, packed by gate in z | r | c column order:
    the input map W (m, 3d), the gates' recurrent map U_zr (d, 2d), the
    candidate's recurrent map U (d, d), which reads r*h, and the bias b
    (1, 3d).

    Per step, with input pre-activations a = x W + b: z|r = sigmoid(a[:2d] +
    h U_zr), c = tanh(a[2d:] + (r*h) U) and h' = (1 - z) * h + z * c,
    computed as h + z * (c - h). The step loops that compute it live in the
    layers, `encode`'s and `decode_sequence`'s; `inputs` and
    `accumulate_grads` take a `GruParams` or any parameter set with its
    fields W, U_zr, U and b, such as a `DecoderParams`.
    """

    W: Tensor
    U_zr: Tensor
    U: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, m_in: int, d: int) -> "GruParams":
        z = nm.zeros_init
        W, U_zr, U = z(m_in, 3 * d), z(d, 2 * d), z(d, d)
        # each (rows, d) block is drawn on its own, with its own fan limit,
        # and copied into its columns; per gate W before U, gates z, r, c
        gate_z, gate_r, gate_c = _gate_blocks(W, U_zr, U)
        for block in (*gate_z, *gate_r, *gate_c):
            block[...] = nm.uniform_init(rng, *block.shape).data
        return cls(W=W, U_zr=U_zr, U=U, b=z(1, 3 * d))


@dataclass
class BiGruParams:
    forward: GruParams
    backward: GruParams

    @classmethod
    def init(cls, rng: np.random.Generator, m_in: int, d_enc: int) -> "BiGruParams":
        return cls(forward=GruParams.init(rng, m_in, d_enc),
                   backward=GruParams.init(rng, m_in, d_enc))


def inputs(p: GruParams, X: np.ndarray) -> np.ndarray:
    """(n, 3d) input pre-activations of every step, as one matmul. Raises
    DimensionError (a ValueError) for an empty X or a width that does not
    match W."""
    W = p.W.data
    if X.shape[0] < 1:
        raise nm.DimensionError("GRU: empty sequence")
    if X.shape[1] != W.shape[0]:
        raise nm.DimensionError(
            f"GRU: input width {X.shape[1]}, weights expect {W.shape[0]}")
    return X @ W + p.b.data[0]


def slopes(H_prev: np.ndarray, G: np.ndarray, DA: np.ndarray, d: int) -> np.ndarray:
    """Per-step factors of the backward loops, for all steps at once:
    writes dh'/da_z and d(r*h)/da_r into DA's z and r blocks, which each
    step reads before it writes its gradients there, and returns dh'/da_c,
    dh'/dh through the update, and r. The arrays hold one cell of width d,
    or two side by side as `encode` lays them out."""
    n = G.shape[0]
    k = H_prev.shape[1] // d  # cells side by side
    Z, R = (G[:, : 2 * k * d].reshape(n, k, 2, d)[:, :, i] for i in (0, 1))
    s_z, s_r = (DA[:, : 2 * k * d].reshape(n, k, 2, d)[:, :, i] for i in (0, 1))
    C, H_prev = G[:, 2 * k * d :].reshape(n, k, d), H_prev.reshape(n, k, d)
    S = np.empty((n, 3, k, d))
    s_c, s_h, r = S[:, 0], S[:, 1], S[:, 2]
    # s_z = (c - h) z (1 - z), s_c = z (1 - c*c), s_r = h r (1 - r),
    # each written in place, with no whole-sequence temporary
    np.subtract(1.0, Z, s_h)
    np.multiply(np.multiply(np.subtract(C, H_prev, s_z), Z, s_z), s_h, s_z)
    np.multiply(Z, np.subtract(1.0, np.multiply(C, C, s_c), s_c), s_c)
    np.multiply(np.multiply(H_prev, R, s_r), np.subtract(1.0, R, r), s_r)
    r[...] = R
    return S.reshape(n, 3 * k * d)


def accumulate_grads(p: GruParams, X: np.ndarray, H_prev: np.ndarray, R: np.ndarray,
                     DA: np.ndarray) -> np.ndarray:
    """Accumulates the whole-sequence gradients of W, U_zr, U and b, from
    the (n, 3d) pre-activation gradients DA, the inputs X, the states
    H_prev the steps read and their reset gates R; returns the gradient
    of X."""
    d = p.U.shape[0]
    grads = (X.T @ DA, H_prev.T @ DA[:, : 2 * d], (R * H_prev).T @ DA[:, 2 * d :],
             DA.sum(axis=0, keepdims=True))
    for t, g in zip((p.W, p.U_zr, p.U, p.b), grads):
        nm.accumulate(t, g)
    return DA @ p.W.data.T


def _direction(M: np.ndarray, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Direction k's z|r and c column blocks of a side-by-side (n, 6d) array."""
    return M[:, 2 * k * d : 2 * (k + 1) * d], M[:, (4 + k) * d : (5 + k) * d]


def _bi_states(p: BiGruParams, H: np.ndarray, G: np.ndarray) -> None:
    """The forward loop of both directions at once, on side-by-side rows from
    state H[0]. G enters holding the input pre-activations; step t overwrites
    G[t] with its gates and writes its new state into H[t + 1], through row
    views made once per sequence, and one add folds each block's gemvs, done
    into scratch vectors, into G[t]. Every elementwise call covers both
    directions; the gemvs and the products r*h and *z run per direction."""
    d = p.forward.U.shape[0]
    (U_zr_f, U_f), (U_zr_b, U_b) = ((q.U_zr.data, q.U.data) for q in (p.forward, p.backward))
    add, mul, sub, dot, tanh = np.add, np.multiply, np.subtract, np.dot, np.tanh
    half, one = np.array(0.5), np.array(1.0)
    rh, hU_zr, rhU = np.empty(2 * d), np.empty(4 * d), np.empty(2 * d)
    rh_f, rh_b, hU_zr_f, hU_zr_b, rhU_f, rhU_b = (
        rh[:d], rh[d:], hU_zr[: 2 * d], hU_zr[2 * d :], rhU[:d], rhU[d:])
    for (h, h_f, h_b, h_new, h_new_f, h_new_b, zr, z_f, r_f, z_b, r_b, c) in zip(
            H, *_columns(H, d, 0, 1, 2), H[1:], *_columns(H[1:], d, 0, 1, 2),
            G[:, : 4 * d], *_columns(G, d, 0, 1, 2, 3, 4), G[:, 4 * d :]):
        dot(h_f, U_zr_f, hU_zr_f)
        dot(h_b, U_zr_b, hU_zr_b)
        add(zr, hU_zr, zr)
        mul(zr, half, zr)
        tanh(zr, zr)
        add(zr, one, zr)
        mul(zr, half, zr)
        mul(r_f, h_f, rh_f)
        mul(r_b, h_b, rh_b)
        dot(rh_f, U_f, rhU_f)
        dot(rh_b, U_b, rhU_b)
        add(c, rhU, c)
        tanh(c, c)
        sub(c, h, h_new)
        mul(h_new_f, z_f, h_new_f)
        mul(h_new_b, z_b, h_new_b)
        add(h_new, h, h_new)


def _bi_grads_back(p: BiGruParams, S: np.ndarray, DA: np.ndarray) -> None:
    """The backward loop of `_bi_states`, last step first. DA enters with the
    gradients [dh_f | dh_b] that reach each state from outside the recurrence
    in its c blocks and `slopes`' factors in its z|r blocks; step t
    reads both and overwrites DA[t] with its pre-activation gradients. The
    gemvs and the products da_z and da_r, whose operands interleave, run per
    direction."""
    d = p.forward.U.shape[0]
    (U_T_f, U_zr_T_f), (U_T_b, U_zr_T_b) = (
        (q.U.data.T, q.U_zr.data.T) for q in (p.forward, p.backward))
    add, mul, dot = np.add, np.multiply, np.dot
    dh, d_rh, d_zr = np.zeros(2 * d), np.empty(2 * d), np.empty(2 * d)
    dh_f, dh_b, d_rh_f, d_rh_b, d_zr_f, d_zr_b = (
        dh[:d], dh[d:], d_rh[:d], d_rh[d:], d_zr[:d], d_zr[d:])
    S, DA = S[::-1], DA[::-1]
    for (s_c, s_h, r, da_c, da_c_f, da_c_b, da_zr_f, da_zr_b,
         da_z_f, da_r_f, da_z_b, da_r_b) in zip(
            *_columns(S, d, 0, 2, 4, 6), DA[:, 4 * d :], *_columns(DA, d, 4, 5, 6),
            *_columns(DA, d, 0, 2, 4), *_columns(DA, d, 0, 1, 2, 3, 4)):
        add(dh, da_c, dh)
        mul(dh, s_c, da_c)
        dot(da_c_f, U_T_f, d_rh_f)
        dot(da_c_b, U_T_b, d_rh_b)
        mul(dh_f, da_z_f, da_z_f)
        mul(dh_b, da_z_b, da_z_b)
        mul(d_rh_f, da_r_f, da_r_f)
        mul(d_rh_b, da_r_b, da_r_b)
        dot(da_zr_f, U_zr_T_f, d_zr_f)
        dot(da_zr_b, U_zr_T_b, d_zr_b)
        mul(dh, s_h, dh)
        mul(d_rh, r, d_rh)
        add(dh, d_rh, dh)
        add(dh, d_zr, dh)


def encode(E: Tensor, p: BiGruParams) -> Tensor:
    """(n x m) embeddings -> (n x 2*d_enc) codes, as a single autodiff node;
    both passes start from zeros.

    The backward pass runs over a reversed copy of the rows and its states
    are reversed back. The two directions run side by side: rows of H are
    [h_f | h_b], and rows of the (n, 6d) pre-activations (then gates) and
    their gradients are [z_f r_f | z_b r_b | c_f | c_b]. An empty E or a width
    that does not match the input maps raises DimensionError (a ValueError).
    """
    directions = p.forward, p.backward
    X = E.data, E.data[::-1].copy()
    n, d = E.shape[0], p.forward.U.shape[0]
    G, H = np.empty((n, 6 * d)), np.zeros((n + 1, 2 * d))
    for k, (q, x) in enumerate(zip(directions, X)):
        a, (a_zr, a_c) = inputs(q, x), _direction(G, d, k)
        a_zr[...], a_c[...] = a[:, : 2 * d], a[:, 2 * d :]
    _bi_states(p, H, G)

    def backward(g: np.ndarray) -> None:
        DA = np.empty((n, 6 * d))
        DA[:, 4 * d : 5 * d], DA[:, 5 * d :] = g[:, :d], g[::-1, d:]  # [dh_f | dh_b]
        _bi_grads_back(p, slopes(H[:-1], G, DA, d), DA)
        dX = [accumulate_grads(q, x, H[:-1, k * d : (k + 1) * d],
                               _direction(G, d, k)[0][:, d:], np.hstack(_direction(DA, d, k)))
              for k, (q, x) in enumerate(zip(directions, X))]
        nm.accumulate(E, dX[0] + dX[1][::-1])

    return nm.result(np.hstack([H[1:, :d], H[:0:-1, d:]]),
                     (E, *(t for q in directions for t in (q.W, q.U_zr, q.U, q.b))),
                     backward)
