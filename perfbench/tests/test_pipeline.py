import numpy as np
import pytest

import corpus
import pipeline

TINY = pipeline.Dims(m=3, word_dim=2, d_enc=2, d_dec=2, tau=2)
RELATIONS = corpus.relation_names(3)
VOCAB = 12


@pytest.fixture(scope="module")
def model_and_corpus(tmp_path_factory):
    sents = corpus.make_corpus(5, (1, 4, 7, 12), VOCAB, RELATIONS)
    words = corpus.lexicon_words(5, [t for t, _ in sents], 20, VOCAB)
    path = tmp_path_factory.mktemp("lex") / "vectors.txt"
    corpus.write_word_vectors(path, 5, words, TINY.word_dim)
    model = pipeline.build_model(path, corpus.alphabet(VOCAB), RELATIONS, TINY, 5, 1e-2)
    return model, sents


def grads(model):
    return [p.grad.copy() for p in model.params]


def test_staged_backward_matches_monolithic_gradients(model_and_corpus):
    model, sents = model_and_corpus
    initial = pipeline.snapshot(model)
    for text, triples in sents:
        pipeline.restore(model, initial)
        mono_loss, *_ = pipeline.forward_backward(model, text, triples)
        mono = grads(model)
        pipeline.restore(model, initial)
        staged_loss, *_ = pipeline.forward_backward(model, text, triples, staged=True)
        assert staged_loss == mono_loss
        for g_staged, g_mono in zip(grads(model), mono):
            np.testing.assert_allclose(g_staged, g_mono, rtol=0, atol=1e-10)
        assert any(np.abs(g).max() > 0 for g in mono)
    pipeline.restore(model, initial)


def test_staged_graph_counts_partition_the_monolithic_graph(model_and_corpus):
    model, sents = model_and_corpus
    initial = pipeline.snapshot(model)
    text, triples = sents[-1]
    *_, roots = pipeline.forward_backward(model, text, triples)
    total = pipeline.graph_nodes(roots[0])
    *_, stages, staged_roots = pipeline.forward_backward(model, text, triples, staged=True)
    layers = sum(pipeline.graph_nodes(out) for _, _, out in stages)
    loss = pipeline.graph_nodes(staged_roots[0])
    assert loss == 4  # log, mul, sum_all, scale
    assert layers + loss == total
    # each cotangent link adds one mul and one sum_all
    assert sum(pipeline.graph_nodes(r) for r in staged_roots) == total + 2 * len(stages)
    pipeline.restore(model, initial)


def test_restore_undoes_an_update(model_and_corpus):
    model, sents = model_and_corpus
    initial = pipeline.snapshot(model)
    pipeline.forward_backward(model, *sents[-1])
    pipeline.update(model)
    assert any(not np.array_equal(p.data, x) for p, x in zip(model.params, initial))
    pipeline.restore(model, initial)
    for p, x in zip(model.params, initial):
        assert np.array_equal(p.data, x)
        assert not p.grad.any() and not model.optimizer.accumulator(p).any()


def test_predict_decodes_the_argmax_tags(model_and_corpus):
    model, sents = model_and_corpus
    text, _ = sents[-1]
    tags, P, triples = pipeline.predict(model, text)
    assert tags == np.argmax(P.data, axis=1).tolist()
    np.testing.assert_allclose(P.data.sum(axis=1), 1.0, atol=1e-12)
    assert all(t.relation in RELATIONS for t in triples)
