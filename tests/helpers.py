"""Shared test utilities: the finite-difference gradient oracle, the autodiff
ops only the oracles use, straight-line references for the embedding, the
encoder and decoder recurrences and the RMSprop step, autodiff oracles for
their fused kernels, a one-direction GRU node, an independent reference tag
decoder and a random sentence maker."""

import dataclasses
from typing import Callable

import numpy as np

from tripletag import numerics as nm
from tripletag.embedding import segment
from tripletag.encoder import GruCell
from tripletag.numerics import Tensor
from tripletag.tagging import HEAD, TAIL, Triple


def named_tensors(p):
    """(field name, tensor) for every field of a parameter dataclass."""
    return [(f.name, getattr(p, f.name)) for f in dataclasses.fields(p)]


def finite_diff_grad(loss_fn: Callable[[], float], theta: Tensor,
                     h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn w.r.t. every entry of theta.

    loss_fn must be a deterministic function of theta.data (re-run per probe).
    Returns an array of theta's shape; does not touch theta.grad.
    """
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    flat = theta.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        out[i] = (up - down) / (2.0 * h)
    return out.reshape(theta.data.shape)


def relative_error(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> float:
    """Max per-coordinate relative error, treating |x| < atol on both sides as 0."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), atol)
    err = np.abs(a - b) / denom
    err[(np.abs(a) < atol) & (np.abs(b) < atol)] = 0.0
    return float(err.max()) if err.size else 0.0


# Elementwise ops that the library no longer composes; the per-step oracles
# below are built from them.

def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise nm.DimensionError(f"sub: shape mismatch {a.shape} vs {b.shape}")

    def backward(g: np.ndarray) -> None:
        nm.accumulate(a, g)
        nm.accumulate(b, -g)

    return nm.result(a.data - b.data, (a, b), backward)


def sigmoid(a: Tensor) -> Tensor:
    # computed via tanh for stability on large |x|
    y = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def backward(g: np.ndarray) -> None:
        nm.accumulate(a, g * y * (1.0 - y))

    return nm.result(y, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g: np.ndarray) -> None:
        nm.accumulate(a, g * (1.0 - y * y))

    return nm.result(y, (a,), backward)


def gru_node(X: Tensor, p) -> Tensor:
    """(n, d) states of one GRU pass over X's rows, as one graph node around
    `GruCell.run`, so a single direction can be gradient-checked."""
    cell = GruCell(p)
    H, back = cell.run(X.data)

    def backward(g: np.ndarray) -> None:
        nm.accumulate(X, back(g))

    return nm.result(H, (X, *cell.tensors), backward)


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_gru_sequence(E, p):
    """Straight-line numpy re-implementation of the recurrence."""
    Wz, Wr, W = np.hsplit(p.W.data, 3)
    Uz, Ur = np.hsplit(p.U_zr.data, 2)
    U = p.U.data
    bz, br, b = np.hsplit(p.b.data, 3)
    h = np.zeros((1, p.hidden_size))
    out = []
    for t in range(E.shape[0]):
        w = E[t : t + 1]
        z = np_sigmoid(w @ Wz + h @ Uz + bz)
        r = np_sigmoid(w @ Wr + h @ Ur + br)
        cand = np.tanh(w @ W + (r * h) @ U + b)
        h = (1.0 - z) * h + z * cand
        out.append(h[0].copy())
    return np.array(out)


def word_matrix(text, lexicon):
    """(n, d_w) rows: each character's segment's word vector, or zeros."""
    rows = []
    for seg in segment(text, lexicon):
        vec = lexicon.get(seg.word)
        rows += [np.zeros(lexicon.dim) if vec is None else vec] * seg.length
    return np.array(rows)


def reference_mix_embed(text, vocab, lexicon, p):
    """Straight-line numpy mixed embedding, one character at a time."""
    words = word_matrix(text, lexicon)
    return np.array([p.char_table.data[vocab.id_of(c)] + words[i] @ p.projection.data
                     for i, c in enumerate(text)])


def reference_decode_rollout(Hstar, p):
    """Straight-line numpy re-implementation of the full decode recurrence."""
    Wz, Wr, W = np.hsplit(p.W.data, 3)
    Uz, Ur = np.hsplit(p.U_zr.data, 2)
    U = p.U.data
    Vz, Vr, V = np.hsplit(p.V.data, 3)
    bz, br, b = np.hsplit(p.b.data, 3)
    h = np.zeros((1, p.hidden_size))
    T = np.zeros((1, p.label_width))
    states, probs = [], []
    for t in range(Hstar.shape[0]):
        x = Hstar[t : t + 1]
        r = np_sigmoid(x @ Wr + h @ Ur + T @ Vr + br)
        z = np_sigmoid(x @ Wz + h @ Uz + T @ Vz + bz)
        cand = np.tanh(x @ W + (r * h) @ U + T @ V + b)
        h = (1.0 - z) * h + z * cand
        T = np.tanh(h @ p.W_T.data + p.b_T.data)
        y = T @ p.W_Y.data + p.b_Y.data
        e = np.exp(y - y.max())
        probs.append((e / e.sum())[0])
        states.append((h[0].copy(), T[0].copy()))
    return states, np.array(probs)


def reference_rmsprop(theta, acc, grad, learning_rate):
    """One dense RMSprop step on plain arrays (Tieleman & Hinton, 2012), decay
    0.9 and floor 1e-8; returns the new (theta, acc)."""
    acc = 0.9 * acc + (1.0 - 0.9) * grad * grad
    theta = theta - learning_rate * grad / np.sqrt(acc + 1e-8)
    return theta, acc


# Autodiff compositions of the fused kernels, built from the numerics ops:
# the embedding from a selector product, each recurrence as one small graph
# per character. They are the gradient oracles for the one-node kernels and
# share no code with them.

def oracle_mix_embed(text, vocab, lexicon, p):
    """The mixed embedding as a graph composition: char-table rows picked by a
    constant one-hot selector product, plus the word rows times the
    projection."""
    onehot = np.eye(p.char_table.shape[0])[vocab.ids(text)]
    return nm.add(nm.matmul(Tensor(onehot), p.char_table),
                  nm.matmul(Tensor(word_matrix(text, lexicon)), p.projection))


def row(X, t):
    """Row t of X as a (1, d) graph node: the product with a constant 0/1 row
    selector, so gradients flow back into X."""
    return nm.matmul(Tensor(np.eye(X.shape[0])[t : t + 1]), X)


def gate_blocks(t, count):
    """The `count` equal column blocks of a packed tensor, left to right, as
    graph nodes: products with constant 0/1 column selectors, so gradients
    flow back into t."""
    width = t.shape[1] // count
    eye = np.eye(t.shape[1])
    return [nm.matmul(t, Tensor(eye[:, i * width : (i + 1) * width]))
            for i in range(count)]


def _gate(terms, b):
    out = nm.matmul(*terms[0])
    for x, w in terms[1:]:
        out = nm.add(out, nm.matmul(x, w))
    return nm.add(out, b)


def _gru_update(z, h_prev, cand):
    ones = Tensor(np.ones(z.shape))
    return nm.add(nm.mul(sub(ones, z), h_prev), nm.mul(z, cand))


def oracle_gru_rows(X, p, reverse=False):
    """Per-step (1, d) states of one GRU pass over X's rows, in row order;
    with `reverse` the pass reads the rows last to first."""
    Wz, Wr, W = gate_blocks(p.W, 3)
    Uz, Ur = gate_blocks(p.U_zr, 2)
    bz, br, b = gate_blocks(p.b, 3)
    n = X.shape[0]
    h = Tensor(np.zeros((1, p.hidden_size)))
    rows = [None] * n
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        x = row(X, t)
        z = sigmoid(_gate([(x, Wz), (h, Uz)], bz))
        r = sigmoid(_gate([(x, Wr), (h, Ur)], br))
        cand = tanh(_gate([(x, W), (nm.mul(r, h), p.U)], b))
        h = _gru_update(z, h, cand)
        rows[t] = h
    return rows


def oracle_decode_rows(h_stars, p):
    """Per-step (1, d_dec) states, (1, tau) label rows and (1, k) tag
    probability rows of the label-feedback decoder."""
    Wz, Wr, W = gate_blocks(p.W, 3)
    Uz, Ur = gate_blocks(p.U_zr, 2)
    Vz, Vr, V = gate_blocks(p.V, 3)
    bz, br, b = gate_blocks(p.b, 3)
    h = Tensor(np.zeros((1, p.hidden_size)))
    T = Tensor(np.zeros((1, p.label_width)))
    states, labels, probs = [], [], []
    for t in range(h_stars.shape[0]):
        x = row(h_stars, t)
        r = sigmoid(_gate([(x, Wr), (h, Ur), (T, Vr)], br))
        z = sigmoid(_gate([(x, Wz), (h, Uz), (T, Vz)], bz))
        cand = tanh(_gate([(x, W), (nm.mul(r, h), p.U), (T, V)], b))
        h = _gru_update(z, h, cand)
        T = tanh(nm.add(nm.matmul(h, p.W_T), p.b_T))
        states.append(h)
        labels.append(T)
        probs.append(nm.softmax_rows(nm.add(nm.matmul(T, p.W_Y), p.b_Y)))
    return states, labels, probs


def weighted_row_sum(rows, weights):
    """sum_t rows[t] . weights[t] as a (1, 1) tensor, summed step by step."""
    total = nm.sum_all(nm.mul(rows[0], Tensor(weights[0:1])))
    for t in range(1, len(rows)):
        total = nm.add(total, nm.sum_all(nm.mul(rows[t], Tensor(weights[t : t + 1]))))
    return total


def reference_decode(tags, text, scheme):
    """Brute-force reference: enumerate all well-formed candidate spans by tag
    name, select them leftmost-greedily, then pair via an explicit distance
    table. Kept deliberately separate from the production scan."""
    n = len(tags)
    names = [scheme.tag_name(t) for t in tags]
    cands = []  # (start, end, relation, role), increasing (start, end)
    for s in range(n):
        for e in range(s + 1, n + 1):
            seg = names[s:e]
            if len(seg) == 1 and seg[0].startswith("S-"):
                base = seg[0][2:]
            elif (len(seg) >= 2 and seg[0].startswith("B-")
                  and seg[-1].startswith("E-") and seg[-1][2:] == seg[0][2:]
                  and all(x == "I-" + seg[0][2:] for x in seg[1:-1])):
                base = seg[0][2:]
            else:
                continue
            relation, role = base.rsplit("-", 1)
            cands.append((s, e, relation, int(role)))

    chosen = []
    pos = 0
    while pos < n:
        here = [c for c in cands if c[0] == pos]
        if here:
            chosen.append(here[0])  # smallest end first
            pos = here[0][1]
        else:
            pos += 1

    triples = []
    for relation in scheme.relations:
        heads = [(s, e) for s, e, r, role in chosen
                 if r == relation and role == HEAD]
        tails = [(s, e) for s, e, r, role in chosen
                 if r == relation and role == TAIL]
        used = [False] * len(tails)
        for h in heads:
            best = None
            best_d = None
            for i, t in enumerate(tails):
                if used[i]:
                    continue
                if t[0] >= h[1]:
                    d = t[0] - h[1]
                else:
                    d = h[0] - t[1]
                if best is None or d < best_d or (d == best_d
                                                  and t[0] > tails[best][0]):
                    best, best_d = i, d
            if best is not None:
                used[best] = True
                t = tails[best]
                triples.append(Triple(head=text[h[0]:h[1]], head_span=h,
                                      tail=text[t[0]:t[1]], tail_span=t,
                                      relation=relation))
    triples.sort(key=lambda t: (t.head_span, t.tail_span, t.relation))
    return triples


def random_valid_sentence(rng: np.random.Generator, relations,
                          min_len=4, max_len=30, max_triples=3):
    """A random sentence whose triples the codec can round-trip exactly:
    disjoint entity spans, at most one triple per relation."""
    n = int(rng.integers(min_len, max_len + 1))
    text = "".join(chr(0x4E00 + int(c)) for c in rng.integers(0, 500, n))
    n_triples = int(rng.integers(0, min(max_triples, len(relations), n // 4) + 1))
    spans = []
    tries = 0
    while len(spans) < 2 * n_triples and tries < 200:
        tries += 1
        length = int(rng.integers(1, 4))
        if length > n:
            continue
        start = int(rng.integers(0, n - length + 1))
        cand = (start, start + length)
        if all(cand[1] <= s or cand[0] >= e for s, e in spans):
            spans.append(cand)
    n_triples = len(spans) // 2
    spans = spans[: 2 * n_triples]
    rels = list(rng.choice(len(relations), size=n_triples, replace=False))
    triples = []
    for i in range(n_triples):
        h, t = spans[2 * i], spans[2 * i + 1]
        triples.append(Triple(head=text[h[0]:h[1]], head_span=h,
                              tail=text[t[0]:t[1]], tail_span=t,
                              relation=relations[int(rels[i])]))
    return text, triples
