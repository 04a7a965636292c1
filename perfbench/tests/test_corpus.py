from collections import Counter

import pytest

import corpus
from tripletag.embedding import load_word_vectors, segment
from tripletag.tagging import build_scheme, decode_triples, encode_tags

RELATIONS = corpus.relation_names(19)


def small_corpus(seed, lengths=(4, 5, 9, 20, 60, 160), vocab=50):
    return corpus.make_corpus(seed, lengths, vocab, RELATIONS)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_corpus_is_a_function_of_the_seed(seed):
    assert small_corpus(seed) == small_corpus(seed)


def test_seeds_give_different_corpora():
    assert small_corpus(1) != small_corpus(2)


def test_lengths_are_the_requested_multiset_in_seeded_order():
    lengths = corpus.log_uniform_lengths(4, 160, 32)
    sents = corpus.make_corpus(3, lengths, 500, RELATIONS)
    assert sorted(len(t) for t, _ in sents) == sorted(lengths)


@pytest.mark.parametrize("seed", range(5))
def test_gold_triples_round_trip_through_the_codec(seed):
    scheme = build_scheme(RELATIONS)
    sents = corpus.make_corpus(seed, corpus.log_uniform_lengths(4, 160, 64), 500, RELATIONS)
    assert sum(len(triples) for _, triples in sents) > 0
    for text, triples in sents:
        assert set(text) <= set(corpus.alphabet(500))
        relations = Counter(t.relation for t in triples)
        assert all(c == 1 for c in relations.values())
        spans = sorted(s for t in triples for s in (t.head_span, t.tail_span))
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
        for t in triples:
            assert text[slice(*t.head_span)] == t.head
            assert text[slice(*t.tail_span)] == t.tail
        tags = encode_tags(len(text), triples, scheme)
        assert decode_triples(tags, text, scheme) == triples


def test_lexicon_is_deterministic_distinct_and_sized():
    texts = [t for t, _ in small_corpus(4)]
    words = corpus.lexicon_words(4, texts, 300, 50)
    assert words == corpus.lexicon_words(4, texts, 300, 50)
    assert len(words) == len(set(words)) == 300
    assert words != corpus.lexicon_words(5, texts, 300, 50)


def test_word_vector_file_loads_and_segmentation_finds_corpus_words(tmp_path):
    sents = small_corpus(2)
    texts = [t for t, _ in sents]
    words = corpus.lexicon_words(2, texts, 400, 50)
    path = tmp_path / "vectors.txt"
    corpus.write_word_vectors(path, 2, words, 5)
    first = path.read_bytes()
    corpus.write_word_vectors(path, 2, words, 5)
    assert path.read_bytes() == first
    lexicon = load_word_vectors(path)
    assert len(lexicon) == 400 and lexicon.dim == 5
    found = [s for text in texts for s in segment(text, lexicon) if s.length > 1]
    assert found and all(s.word in lexicon for s in found)
