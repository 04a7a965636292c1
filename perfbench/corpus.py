"""Seeded synthetic corpus and word-vector lexicon for the benchmark.

Every sentence carries gold triples that the BIES tag codec round-trips
exactly: entity spans are disjoint and each relation appears at most once per
sentence. Sentence lengths are a fixed multiset per workload (quantiles of the
length distribution), and a sentence's triple count and entity lengths depend
on its length only. The seed picks the order, the characters, the entity
positions and the relations, so runs on different seeds do the same work.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from tripletag.tagging import Triple

CJK_BASE = 0x4E00
MAX_SPAN = 4
MAX_TRIPLES = 3
WORD_LENGTHS = (2, 3, 4)


def alphabet(size: int) -> list[str]:
    """The first `size` CJK unified ideographs; the benchmark's char vocab."""
    return [chr(CJK_BASE + i) for i in range(size)]


def relation_names(count: int) -> list[str]:
    return [f"rel{i:02d}" for i in range(count)]


def stratified_lengths(lo: int, hi: int, count: int) -> list[int]:
    """`count` lengths evenly spaced over [lo, hi] (uniform quantiles)."""
    return [round(lo + (hi - lo) * (i + 0.5) / count) for i in range(count)]


def log_uniform_lengths(lo: int, hi: int, count: int) -> list[int]:
    """`count` quantiles of a log-uniform length law: mostly short, few long."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / count)) for i in range(count)]


def _sentence(rng: np.random.Generator, n: int, chars: Sequence[str],
              relations: Sequence[str]) -> tuple[str, list[Triple]]:
    text = "".join(chars[int(i)] for i in rng.integers(0, len(chars), n))
    n_triples = min(MAX_TRIPLES, len(relations), n // 8)
    if n_triples == 0:
        return text, []
    n_spans = 2 * n_triples
    max_span = min(MAX_SPAN, n // n_spans)
    lengths = rng.permutation([1 + j % max_span for j in range(n_spans)])
    # spread the O characters over the n_spans + 1 gaps around the spans
    gaps = rng.multinomial(n - int(lengths.sum()),
                           np.full(n_spans + 1, 1.0 / (n_spans + 1)))
    spans, pos = [], 0
    for gap, length in zip(gaps, lengths):
        pos += int(gap)
        spans.append((pos, pos + int(length)))
        pos += int(length)
    order = rng.permutation(n_spans)
    rels = rng.choice(len(relations), size=n_triples, replace=False)
    triples = []
    for i in range(n_triples):
        h, t = spans[order[2 * i]], spans[order[2 * i + 1]]
        triples.append(Triple(head=text[h[0]:h[1]], head_span=h,
                              tail=text[t[0]:t[1]], tail_span=t,
                              relation=relations[int(rels[i])]))
    triples.sort(key=lambda t: (t.head_span, t.tail_span, t.relation))
    return text, triples


def make_corpus(seed: int, lengths: Sequence[int], vocab_size: int,
                relations: Sequence[str]) -> list[tuple[str, list[Triple]]]:
    """One sentence per entry of `lengths`, in a seed-dependent order.

    Triples come sorted the way `decode_triples` returns them.
    """
    rng = np.random.default_rng([seed, 1])
    chars = alphabet(vocab_size)
    order = rng.permutation(len(lengths))
    return [_sentence(rng, int(lengths[i]), chars, relations) for i in order]


def lexicon_words(seed: int, texts: Sequence[str], count: int,
                  vocab_size: int) -> list[str]:
    """`count` distinct words: half of the corpus's 2-4 char substrings, so
    forward maximum matching finds them, then random n-grams over the
    alphabet up to the size of a realistic pretrained lexicon."""
    rng = np.random.default_rng([seed, 2])
    substrings = sorted({text[i:i + k] for text in texts for k in WORD_LENGTHS
                         for i in range(len(text) - k + 1)})
    keep = rng.random(len(substrings)) < 0.5
    words = [w for w, k in zip(substrings, keep) if k][:count]
    seen = set(words)
    chars = alphabet(vocab_size)
    while len(words) < count:
        k = WORD_LENGTHS[int(rng.integers(0, len(WORD_LENGTHS)))]
        w = "".join(chars[int(i)] for i in rng.integers(0, vocab_size, k))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def write_word_vectors(path: Path, seed: int, words: Sequence[str],
                       dim: int) -> None:
    """Text vector format: "<count> <dim>" header, one "word v1 .. v_dim" line
    per word, six decimals as common pretrained files carry."""
    rng = np.random.default_rng([seed, 3])
    vectors = rng.uniform(-0.5, 0.5, size=(len(words), dim))
    row = " ".join(["%.6f"] * dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {dim}\n")
        for word, vec in zip(words, vectors):
            fh.write(f"{word} {row % tuple(vec)}\n")
