"""The tagging model composed from the library's public layer functions.

embedding -> encoder -> attention -> decoder, a per-character cross-entropy,
`nm.backward` and one RMSprop step per parameter. Two backward schedules give
the same gradients:

- monolithic: one `nm.backward` from the loss through every layer;
- staged: each layer runs on a detached leaf copy of its input, and backward
  runs layer by layer from the loss down. A stage's input gradient reaches the
  stage before it as the constant cotangent G of ``sum_all(mul(out, G))``, so
  by the chain rule every parameter gradient equals the monolithic one. The
  staged schedule lets a tracer time each layer's backward from outside.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tripletag import numerics as nm
from tripletag.attention import AttnParams, attend
from tripletag.decoder import DecoderParams, decode_sequence
from tripletag.embedding import CharVocab, EmbedParams, WordLexicon, load_word_vectors, mix_embed
from tripletag.encoder import BiGruParams, encode
from tripletag.numerics import Tensor
from tripletag.tagging import TagScheme, Triple, build_scheme, decode_triples, encode_tags

LAYERS = ("embedding", "encoder", "attention", "decoder")


@dataclass(frozen=True)
class Dims:
    m: int = 100
    word_dim: int = 100
    d_enc: int = 100
    d_dec: int = 100
    tau: int = 50


@dataclass
class Model:
    vocab: CharVocab
    lexicon: WordLexicon
    scheme: TagScheme
    embedding: EmbedParams
    encoder: BiGruParams
    attention: AttnParams
    decoder: DecoderParams
    optimizer: nm.RmspropState
    params: list[Tensor]


def _tensors(obj) -> list[Tensor]:
    """Every Tensor field of a (nested) parameter dataclass, in field order."""
    out = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, Tensor):
            out.append(value)
        elif dataclasses.is_dataclass(value):
            out.extend(_tensors(value))
    return out


def no_span(name: str):
    return nullcontext()


def build_model(vectors_path: Path, chars: list[str], relations: list[str],
                dims: Dims, seed: int, learning_rate: float,
                span=no_span) -> Model:
    """Program set-up: lexicon load, vocab, tag scheme, parameters, RMSprop
    state with one accumulator per parameter."""
    with span("embedding.load_word_vectors"):
        lexicon = load_word_vectors(vectors_path)
    vocab = CharVocab(chars)
    scheme = build_scheme(relations)
    rng = np.random.default_rng([seed, 4])
    embedding = EmbedParams.init(rng, len(vocab), dims.m, lexicon.dim)
    encoder = BiGruParams.init(rng, dims.m, dims.d_enc)
    attention = AttnParams.init(rng, 2 * dims.d_enc)
    decoder = DecoderParams.init(rng, attention.d_k, dims.d_dec, dims.tau, scheme.k)
    optimizer = nm.RmspropState(learning_rate=learning_rate)
    params = [p for layer in (embedding, encoder, attention, decoder)
              for p in _tensors(layer)]
    for p in params:
        optimizer.accumulator(p)
    return Model(vocab, lexicon, scheme, embedding, encoder, attention, decoder,
                 optimizer, params)


def _leaf(t: Tensor) -> Tensor:
    return Tensor(t.data.copy(), requires_grad=True)


def _same(t: Tensor) -> Tensor:
    return t


def forward(model: Model, text: str, span=no_span, staged: bool = False):
    """Tag ids, the (n x k) probabilities and the per-layer (name, input,
    output) triples; with `staged`, each layer's input is a detached leaf."""
    cut = _leaf if staged else _same
    with span("embedding.fwd"):
        E = mix_embed(text, model.vocab, model.lexicon, model.embedding)
    E_in = cut(E)
    with span("encoder.fwd"):
        H = encode(E_in, model.encoder)
    H_in = cut(H)
    with span("attention.fwd"):
        A = attend(H_in, model.attention)
    A_in = cut(A)
    with span("decoder.fwd"):
        tags, P = decode_sequence(A_in, model.decoder)
    stages = [("embedding", None, E), ("encoder", E_in, H),
              ("attention", H_in, A), ("decoder", A_in, P)]
    return tags, P, stages


def cross_entropy(probs: Tensor, gold: list[int]) -> Tensor:
    """Mean over characters of -log p(gold tag)."""
    n, k = probs.shape
    onehot = np.zeros((n, k))
    onehot[np.arange(n), gold] = 1.0
    return nm.scale(nm.sum_all(nm.mul(nm.log(probs), Tensor(onehot))), -1.0 / n)


def forward_backward(model: Model, text: str, triples: list[Triple],
                     span=no_span, staged: bool = False):
    """Loss and gradients for one sentence; returns (loss, gold tag ids,
    predicted tag ids, probabilities, stages, stage roots).

    The stage roots are the scalars `nm.backward` ran from: the loss alone
    when monolithic, the loss and one cotangent link per layer when staged.
    """
    tags, P, stages = forward(model, text, span, staged)
    with span("tagging.encode"):
        gold = encode_tags(len(text), triples, model.scheme)
    P_in = _leaf(P) if staged else P
    with span("loss.fwd"):
        loss = cross_entropy(P_in, gold)
    roots = [loss]
    with span("numerics.backward"):
        with span("loss.bwd"):
            nm.backward(loss)
        if staged:
            grad = P_in.grad
            for name, inp, out in reversed(stages):
                with span(name + ".bwd"):
                    root = nm.sum_all(nm.mul(out, Tensor(grad)))
                    nm.backward(root)
                roots.append(root)
                grad = inp.grad if inp is not None else None
    return loss.item(), gold, tags, P, stages, roots


def update(model: Model, span=no_span) -> None:
    with span("numerics.rmsprop"):
        for p in model.params:
            nm.rmsprop_step(p, model.optimizer)


def predict(model: Model, text: str, span=no_span):
    """Forward, argmax and triple decoding; returns (tag ids, probabilities,
    triples)."""
    tags, P, _ = forward(model, text, span)
    with span("tagging.decode"):
        triples = decode_triples(tags, text, model.scheme)
    return tags, P, triples


def graph_nodes(out: Tensor) -> int:
    """Op nodes recorded from `out` back to the leaves (parameters, constants
    and detached stage inputs), read-only."""
    seen = {id(out)}
    stack = [out]
    count = 0
    while stack:
        node = stack.pop()
        if not node._parents:
            continue
        count += 1
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return count


def snapshot(model: Model) -> list[np.ndarray]:
    return [p.data.copy() for p in model.params]


def restore(model: Model, initial: list[np.ndarray]) -> None:
    """Back to the initial parameters with zero gradients and accumulators."""
    for p, data in zip(model.params, initial):
        p.data[...] = data
        p.zero_grad()
        model.optimizer.accumulator(p)[...] = 0.0
