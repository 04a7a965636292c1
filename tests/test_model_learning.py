"""The whole model learns: the benchmark's `pipeline.Model`, trained by the
benchmark's own step (`forward_backward`, then one RMSprop `update` per
sentence), overfits eight random sentences (three relations, 12-30
characters) until its decoded triples score F1 = 1.0, and a fixed seed gives
bit-identical runs."""

import numpy as np
import pytest

import corpus as bench_corpus
import pipeline
from helpers import f1, random_valid_sentence

RELATIONS = ["r0", "r1", "r2"]
N_SENTENCES, DIM, TAU = 8, 32, 16
DIMS = pipeline.Dims(m=DIM, word_dim=DIM, d_enc=DIM, d_dec=DIM, tau=TAU)
LEARNING_RATE = 3e-3
MAX_EPOCHS, SCORE_EVERY = 300, 10


def corpus_and_model(seed, vectors):
    """The corpus (text, gold triples) and a fresh model, set up as the
    benchmark sets up its own: the vector file `vectors` is written with each
    text's 2-character words at even offsets, then loaded by `build_model`."""
    rng = np.random.default_rng(seed)
    corpus = [random_valid_sentence(rng, RELATIONS, min_len=12, max_len=30)
              for _ in range(N_SENTENCES)]
    words = dict.fromkeys(text[i : i + 2] for text, _ in corpus
                          for i in range(0, len(text) - 1, 2))
    bench_corpus.write_word_vectors(vectors, seed, list(words), DIM)
    model = pipeline.build_model(vectors, list("".join(text for text, _ in corpus)),
                                 RELATIONS, DIMS, seed, LEARNING_RATE)
    return corpus, model


def train(corpus, model, epochs):
    """`epochs` passes in corpus order, one step per sentence; returns the
    per-step losses."""
    losses = []
    for text, triples in corpus * epochs:
        losses.append(pipeline.forward_backward(model, text, triples)[0])
        pipeline.update(model)
    return losses


def training_f1(corpus, model):
    """The F1 of the model's decoded triples on the corpus it trains on."""
    predicted = [pipeline.predict(model, text)[2] for text, _ in corpus]
    return f1(predicted, [triples for _, triples in corpus])


@pytest.mark.parametrize("seed", range(3))
def test_overfits_a_small_corpus_to_f1_one(seed, tmp_path):
    corpus, model = corpus_and_model(seed, tmp_path / "vectors.txt")
    history = []
    for _ in range(MAX_EPOCHS // SCORE_EVERY):
        train(corpus, model, SCORE_EVERY)
        history.append(training_f1(corpus, model))
        if history[-1] == 1.0:
            break
    assert history[-1] == 1.0, f"F1 every {SCORE_EVERY} epochs: {history}"


def test_a_fixed_seed_gives_bit_identical_losses(tmp_path):
    first, second = (train(*corpus_and_model(0, tmp_path / "vectors.txt"), 10)
                     for _ in range(2))
    assert [x.hex() for x in first] == [x.hex() for x in second]
