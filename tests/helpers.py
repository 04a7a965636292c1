"""Shared test utilities: the named tensors of a parameter dataclass; the
finite-difference gradient oracle, the one harness that checks a backward
against it, and the complex-step directional derivative; a word lexicon
loaded from a vector file written from a dict; straight-line numpy
references for the word-vector loader, every one-node kernel (the mixed
embedding, one encoder direction, attention and the decoder) and the RMSprop
step; the tag names of the documented id layout, an independent reference
tag decoder, a random sentence maker and the exact-match triple F1 scorer.

No reference calls the library code it checks. The kernel references read
their parameters as plain arrays, a dict of dotted name -> array (`arrays`),
and the mixed embedding's reference reads its words from a word -> vector
dict and segments them itself. They stay complex-safe, so `complex_step`
differentiates them: with warnings as errors, a reference that casts a
complex value back to float raises ComplexWarning rather than report a zero
slope."""

import dataclasses
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

from tripletag import numerics as nm
from tripletag.embedding import WordLexicon, WordVectorParseError, load_word_vectors
from tripletag.numerics import Tensor
from tripletag.tagging import HEAD, TAIL, Triple


def named_tensors(p, prefix=""):
    """(dotted name, tensor) for every Tensor field of a (nested) parameter
    dataclass, in field order: `encoder.forward.W` for a Model."""
    out = []
    for f in dataclasses.fields(p):
        value = getattr(p, f.name)
        if isinstance(value, Tensor):
            out.append((prefix + f.name, value))
        elif dataclasses.is_dataclass(value):
            out += named_tensors(value, prefix + f.name + ".")
    return out


def arrays(p):
    """dotted name -> array, for every tensor of a parameter dataclass."""
    return {name: t.data for name, t in named_tensors(p)}


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


def weighted(out: Tensor, weights: np.ndarray) -> Tensor:
    """The scalar sum(weights * out), as graph ops."""
    return nm.sum_all(nm.mul(out, Tensor(weights)))


def check_finite_differences(forward: Callable[[], Tensor], named, weights,
                             atol: float = 1e-8) -> dict:
    """Back-propagates sum(weights * forward()) once, then checks the
    gradient of each (name, tensor) in `named` against central finite
    differences of that sum to < 1e-4 relative error, entries below atol on
    both sides counting as equal. Returns name -> finite-difference gradient,
    for a test's own checks on blocks of it."""
    nm.backward(weighted(forward(), weights))
    diffs = {}
    for name, theta in named:
        diffs[name] = finite_diff_grad(lambda: float((forward().data * weights).sum()),
                                       theta)
        assert relative_error(theta.grad, diffs[name], atol) < 1e-4, name
    return diffs


def complex_step(f: Callable[[np.ndarray], complex], x: np.ndarray,
                 v: np.ndarray, h: float = 1e-30) -> float:
    """The derivative of a real-analytic scalar function f at x along v, as
    Im f(x + i h v) / h (Squire & Trapp, SIAM Review 1998). No difference of
    two values is taken, so nothing cancels, and at h = 1e-30 the O(h^2)
    truncation error is far below rounding."""
    return float(f(x + 1j * h * v).imag) / h


def relative_error(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> float:
    """Max per-coordinate relative error, treating |x| < atol on both sides as 0."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), atol)
    err = np.abs(a - b) / denom
    err[(np.abs(a) < atol) & (np.abs(b) < atol)] = 0.0
    return float(err.max()) if err.size else 0.0


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_softmax(y):
    """Softmax of a row; the shift by the largest real part cancels out."""
    e = np.exp(y - y.real.max())
    return e / e.sum()


def reference_gru_sequence(E, p):
    """Straight-line numpy GRU pass over E's rows from a zero state; p maps
    W, U_zr, U and b to arrays."""
    Wz, Wr, W = np.hsplit(p["W"], 3)
    Uz, Ur = np.hsplit(p["U_zr"], 2)
    U = p["U"]
    bz, br, b = np.hsplit(p["b"], 3)
    h = np.zeros((1, U.shape[0]))
    out = []
    for t in range(E.shape[0]):
        w = E[t : t + 1]
        z = np_sigmoid(w @ Wz + h @ Uz + bz)
        r = np_sigmoid(w @ Wr + h @ Ur + br)
        cand = np.tanh(w @ W + (r * h) @ U + b)
        h = (1.0 - z) * h + z * cand
        out.append(h[0].copy())
    return np.array(out)


def lexicon_of(vectors: dict) -> WordLexicon:
    """The lexicon `load_word_vectors` reads from a vector file of a word ->
    vector dict, its rows in the dict's order. Each value is written by
    `repr`, which `float` reads back to the same bits."""
    dim = len(next(iter(vectors.values())))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vec.txt"
        path.write_text(f"{len(vectors)} {dim}\n" + "".join(
            word + "".join(f" {float(x)!r}" for x in vec) + "\n"
            for word, vec in vectors.items()), encoding="utf-8")
        return load_word_vectors(path)


def reference_load_word_vectors(path) -> dict:
    """The vector-file loader as one straight loop: text-mode UTF-8, one line
    and one `float` per value at a time, each row checked as it is read; one
    leading BOM is dropped from the header.
    Returns word -> vector, in first-occurrence order with the last
    occurrence's values; warns for each duplicate and raises
    WordVectorParseError for the first bad line."""
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().removeprefix("\ufeff").rstrip("\r\n")
        if not header.strip():
            raise WordVectorParseError("line 1: missing '<count> <dim>' header")
        fields = header.split()
        if len(fields) != 2:
            raise WordVectorParseError(f"line 1: expected '<count> <dim>', got {header!r}")
        try:
            count, dim = int(fields[0]), int(fields[1])
        except ValueError:
            raise WordVectorParseError(
                f"line 1: non-integer header fields {header!r}") from None
        if count <= 0 or dim <= 0:
            raise WordVectorParseError(f"line 1: non-positive count/dim {header!r}")
        rows_seen = 0
        lineno = 1
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rows_seen += 1
            if rows_seen > count:
                raise WordVectorParseError(
                    f"line {lineno}: more rows than the declared count {count}")
            parts = line.split()
            if len(parts) != dim + 1:
                raise WordVectorParseError(
                    f"line {lineno}: expected 1 word + {dim} values, "
                    f"got {len(parts)} fields")
            try:
                vec = np.array([float(x) for x in parts[1:]])
            except ValueError:
                raise WordVectorParseError(
                    f"line {lineno}: non-numeric vector component") from None
            if not np.isfinite(vec).all():
                raise WordVectorParseError(f"line {lineno}: non-finite vector component")
            if parts[0] in vectors:
                warnings.warn(f"duplicate word {parts[0]!r} at line {lineno}; "
                              "keeping the last occurrence")
            vectors[parts[0]] = vec
    if rows_seen < count:
        raise WordVectorParseError(
            f"line {lineno}: file ends after {rows_seen} of {count} rows")
    return vectors


def reference_mix_embed(text, vocab, vectors, p):
    """Straight-line numpy mixed embedding, one character at a time; p maps
    char_table and projection to arrays. The text is cut by forward maximum
    matching over the keys of the word -> vector dict `vectors`: at each
    position the longest key that starts there, else one character, and a
    character outside every key gets a zero word vector."""
    zeros = np.zeros(p["projection"].shape[0])
    words, i = [], 0
    while i < len(text):
        length = next((k for k in range(len(text) - i, 1, -1)
                       if text[i : i + k] in vectors), 1)
        words += [vectors.get(text[i : i + length], zeros)] * length
        i += length
    return np.array([p["char_table"][vocab.id_of(c)] + words[i] @ p["projection"]
                     for i, c in enumerate(text)])


def reference_attend(H, p):
    """Straight-line numpy self-attention, one output row at a time: row i is
    sum_j softmax_j(q_i . k_j / sqrt(d_k)) v_j; p maps W_Q, W_K and W_V to
    arrays."""
    Q, K, V = H @ p["W_Q"], H @ p["W_K"], H @ p["W_V"]
    return np.array([np_softmax(K @ q / np.sqrt(Q.shape[1])) @ V for q in Q])


def reference_decode_rollout(Hstar, p):
    """Straight-line numpy decode recurrence: the (h_t, T_t) rows of every
    step and the (n, k) tag probabilities; p maps the decoder's fields to
    arrays."""
    Wz, Wr, W = np.hsplit(p["W"], 3)
    Uz, Ur = np.hsplit(p["U_zr"], 2)
    U = p["U"]
    Vz, Vr, V = np.hsplit(p["V"], 3)
    bz, br, b = np.hsplit(p["b"], 3)
    h = np.zeros((1, U.shape[0]))
    T = np.zeros((1, p["W_T"].shape[1]))
    states, probs = [], []
    for t in range(Hstar.shape[0]):
        x = Hstar[t : t + 1]
        r = np_sigmoid(x @ Wr + h @ Ur + T @ Vr + br)
        z = np_sigmoid(x @ Wz + h @ Uz + T @ Vz + bz)
        cand = np.tanh(x @ W + (r * h) @ U + T @ V + b)
        h = (1.0 - z) * h + z * cand
        T = np.tanh(h @ p["W_T"] + p["b_T"])
        probs.append(np_softmax((T @ p["W_Y"] + p["b_Y"])[0]))
        states.append((h[0].copy(), T[0].copy()))
    return states, np.array(probs)


def reference_rmsprop(theta, acc, grad, learning_rate):
    """One dense RMSprop step on plain arrays (Tieleman & Hinton, 2012), decay
    0.9 and floor 1e-8; returns the new (theta, acc)."""
    acc = 0.9 * acc + (1.0 - 0.9) * grad * grad
    theta = theta - learning_rate * grad / np.sqrt(acc + 1e-8)
    return theta, acc


def tag_name(scheme, tag):
    """A tag id's name, spelled from the documented layout: "O" at id 0, then
    "<position>-<relation>-<role>" for positions B, I, E, S, each over the
    scheme's relations in order, each over roles 1 (head) and 2 (tail)."""
    return (["O"] + [f"{position}-{relation}-{role}" for position in "BIES"
                     for relation in scheme.relations for role in (1, 2)])[tag]


def reference_decode(tags, text, scheme):
    """Brute-force reference: enumerate all well-formed candidate spans by tag
    name, select them leftmost-greedily, then pair via an explicit distance
    table. Kept deliberately separate from the production scan."""
    n = len(tags)
    names = [tag_name(scheme, t) for t in tags]
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


def f1(predicted, gold) -> float:
    """Exact-match triple F1 over aligned lists of sentences' triples:
    2·correct / (predicted + gold), 0.0 when both counts are 0. A prediction
    is correct when its (head_span, tail_span, relation) equals a gold triple
    of the same sentence that no other prediction has matched. Raises
    ValueError when the two lists hold different sentence counts."""
    if len(predicted) != len(gold):
        raise ValueError(f"sentence count mismatch: {len(predicted)} predicted vs "
                         f"{len(gold)} gold")

    def keys(triples):
        return Counter((t.head_span, t.tail_span, t.relation) for t in triples)

    correct = sum(sum((keys(p) & keys(g)).values()) for p, g in zip(predicted, gold))
    total = sum(map(len, predicted)) + sum(map(len, gold))
    return 2 * correct / total if total else 0.0
