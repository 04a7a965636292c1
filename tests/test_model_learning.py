"""The whole model learns: trained under the benchmark's cross-entropy, one
sentence per RMSprop step, it overfits eight random sentences (three
relations, 12-30 characters) until its decoded triples score F1 = 1.0, and a
fixed seed gives bit-identical runs."""

import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import Model, lexicon_of, named_tensors, random_valid_sentence
from tripletag import numerics as nm
from tripletag.embedding import CharVocab
from tripletag.tagging import build_scheme, decode_triples, encode_tags, score

# the benchmark's own loss, loaded as tools/fingerprint.py loads the
# benchmark, so the model trains under the bits the benchmark reports
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from pipeline import cross_entropy  # noqa: E402

RELATIONS = ["r0", "r1", "r2"]
N_SENTENCES, DIM, TAU = 8, 32, 16
LEARNING_RATE = 3e-3
MAX_EPOCHS, SCORE_EVERY = 300, 10


def corpus_and_model(seed):
    """The corpus (text, gold triples), the scheme and a fresh model: the
    lexicon holds each text's 2-character words at even offsets."""
    rng = np.random.default_rng(seed)
    corpus = [random_valid_sentence(rng, RELATIONS, min_len=12, max_len=30)
              for _ in range(N_SENTENCES)]
    words = dict.fromkeys(text[i : i + 2] for text, _ in corpus
                          for i in range(0, len(text) - 1, 2))
    lexicon = lexicon_of({w: rng.uniform(-1, 1, DIM) for w in words})
    vocab = CharVocab("".join(text for text, _ in corpus))
    scheme = build_scheme(RELATIONS)
    model = Model.init(rng, vocab, lexicon, DIM, DIM, DIM, TAU, scheme.k)
    return corpus, scheme, model


def epoch(corpus, scheme, model, optimizer):
    """One pass in corpus order, one RMSprop step per sentence; returns the
    per-step losses."""
    params = [t for _, t in named_tensors(model)]
    losses = []
    for text, triples in corpus:
        loss = cross_entropy(model.forward(text)[1],
                             encode_tags(len(text), triples, scheme))
        nm.backward(loss)
        for theta in params:
            nm.rmsprop_step(theta, optimizer)
        losses.append(loss.item())
    return losses


def f1(corpus, scheme, model):
    predicted = [decode_triples(model.forward(text)[0], text, scheme)
                 for text, _ in corpus]
    return score(predicted, [triples for _, triples in corpus]).f1


@pytest.mark.parametrize("seed", range(3))
def test_overfits_a_small_corpus_to_f1_one(seed):
    corpus, scheme, model = corpus_and_model(seed)
    optimizer = nm.RmspropState(LEARNING_RATE)
    history = []
    for n in range(1, MAX_EPOCHS + 1):
        epoch(corpus, scheme, model, optimizer)
        if n % SCORE_EVERY == 0:
            history.append(f1(corpus, scheme, model))
            if history[-1] == 1.0:
                break
    assert history[-1] == 1.0, f"F1 every {SCORE_EVERY} epochs: {history}"


def test_a_fixed_seed_gives_bit_identical_losses():
    def run():
        corpus, scheme, model = corpus_and_model(0)
        optimizer = nm.RmspropState(LEARNING_RATE)
        return [loss for _ in range(10)
                for loss in epoch(corpus, scheme, model, optimizer)]

    first, second = run(), run()
    assert [x.hex() for x in first] == [x.hex() for x in second]
