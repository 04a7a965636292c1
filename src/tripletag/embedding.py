"""Character-word mixed embeddings.

Every character gets a trainable vector from a character table; characters of
a segmented word additionally share that word's frozen pretrained vector,
projected into the character dimension. The per-character mixed vector is the
sum of the two, so the word lexicon and its projection are required. Words
come from a plain-text vector file and are never updated; characters outside
the vocabulary map to the reserved UNK id 0.

`mix_embed` is one autodiff node: a gather of character-table rows plus one
matmul with the projection, whose backward touches the gathered rows only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import numerics as nm
from .numerics import Tensor

UNK = "<unk>"
# words per np.isfinite call in WordLexicon and load_word_vectors: a call per
# word costs ~50 ms on a 20k-word lexicon, one call on all rows stacked holds a
# second copy of them
FINITE_CHECK_WORDS = 256


class WordVectorParseError(ValueError):
    """Malformed word-vector file; message carries the offending line number."""


class CharVocab:
    """char -> dense id map with id 0 reserved for unknown characters."""

    def __init__(self, chars: Iterable[str]):
        self._id = {UNK: 0}
        for c in chars:
            if c not in self._id:
                self._id[c] = len(self._id)
        self._chars = list(self._id)

    def __len__(self) -> int:
        return len(self._id)

    def id_of(self, char: str) -> int:
        return self._id.get(char, 0)

    def chars(self) -> list[str]:
        """All entries ordered by id (index 0 is the UNK sentinel)."""
        return list(self._chars)

    def ids(self, text: str) -> list[int]:
        return [self.id_of(c) for c in text]


class WordLexicon:
    """word -> frozen pretrained vector, all of one dimension and finite."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise ValueError("lexicon is empty")
        dims = {v.shape for v in vectors.values()}
        if len(dims) != 1:
            raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
        if "" in vectors:
            raise ValueError("empty-string key")
        self._vec = {}
        for w, v in vectors.items():
            arr = np.asarray(v, dtype=np.float64).copy()
            arr.flags.writeable = False
            self._vec[w] = arr
        rows = list(self._vec.values())
        for i in range(0, len(rows), FINITE_CHECK_WORDS):
            if not np.isfinite(np.concatenate(rows[i : i + FINITE_CHECK_WORDS])).all():
                bad = next(w for w, v in self._vec.items() if not np.isfinite(v).all())
                raise ValueError(f"non-finite component in the vector of {bad!r}")
        self.dim = next(iter(self._vec.values())).shape[0]
        self.max_word_len = max(len(w) for w in self._vec)

    def __len__(self) -> int:
        return len(self._vec)

    def __contains__(self, word: str) -> bool:
        return word in self._vec

    def get(self, word: str) -> Optional[np.ndarray]:
        return self._vec.get(word)


def load_word_vectors(path) -> WordLexicon:
    """Read the classic text vector format: "<count> <dim>" header, then one
    line per word ("word v1 .. v_dim"). Duplicates keep the last occurrence.

    The file is read one line at a time, so only the parsed vectors are held
    in memory. Rows are checked for non-finite values in blocks, and any
    unchecked rows are checked before another error is raised, so the error
    still names the first bad line.
    """
    vectors: dict[str, np.ndarray] = {}
    unchecked: list[tuple[int, np.ndarray]] = []  # (line number, vector)
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline().rstrip("\r\n")
        count, dim = _parse_header(header_line)
        rows_seen = 0
        lineno = 1
        try:
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
                word = parts[0]
                try:
                    vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
                except ValueError:
                    raise WordVectorParseError(
                        f"line {lineno}: non-numeric vector component") from None
                if word in vectors:
                    warnings.warn(f"duplicate word {word!r} at line {lineno}; "
                                  "keeping the last occurrence")
                vectors[word] = vec
                unchecked.append((lineno, vec))
                if len(unchecked) == FINITE_CHECK_WORDS:
                    _check_finite(unchecked)
        except Exception:
            _check_finite(unchecked)
            raise
    _check_finite(unchecked)
    if rows_seen < count:
        raise WordVectorParseError(
            f"line {lineno}: file ends after {rows_seen} of {count} rows")
    return WordLexicon(vectors)


def _check_finite(rows: list[tuple[int, np.ndarray]]) -> None:
    """Raise for the first (line number, vector) with a non-finite value in
    it. Empties `rows` either way, so a second call does not raise again."""
    if rows and not np.isfinite(np.concatenate([v for _, v in rows])).all():
        bad = next(n for n, v in rows if not np.isfinite(v).all())
        rows.clear()
        raise WordVectorParseError(f"line {bad}: non-finite vector component")
    rows.clear()


def _parse_header(line: str) -> tuple[int, int]:
    """(count, dim) from the first line of a vector file."""
    if not line.strip():
        raise WordVectorParseError("line 1: missing '<count> <dim>' header")
    header = line.split()
    if len(header) != 2:
        raise WordVectorParseError(f"line 1: expected '<count> <dim>', got {line!r}")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise WordVectorParseError(
            f"line 1: non-integer header fields {line!r}") from None
    if count <= 0 or dim <= 0:
        raise WordVectorParseError(f"line 1: non-positive count/dim {line!r}")
    return count, dim


@dataclass
class Segment:
    word: str
    start: int
    length: int


def segment(text: str, lexicon: WordLexicon) -> list[Segment]:
    """Forward maximum matching against the lexicon keys.

    At each position take the longest lexicon word starting there; with no
    match, emit a single-character segment. Segments always cover the text.
    """
    if not text:
        raise ValueError("text is empty")
    out = []
    n = len(text)
    i = 0
    while i < n:
        match = None
        for length in range(min(lexicon.max_word_len, n - i), 0, -1):
            cand = text[i : i + length]
            if cand in lexicon:
                match = cand
                break
        if match is None:
            match = text[i]
        out.append(Segment(match, i, len(match)))
        i += len(match)
    return out


@dataclass
class EmbedParams:
    """Trainable character table (V_c x m) and word-vector projection (d_w x m)."""

    char_table: Tensor
    projection: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, vocab_size: int, m: int,
             word_dim: int) -> "EmbedParams":
        return cls(char_table=nm.uniform_init(rng, vocab_size, m),
                   projection=nm.uniform_init(rng, word_dim, m))


def mix_embed(text: str, vocab: CharVocab, lexicon: WordLexicon,
              params: EmbedParams) -> Tensor:
    """Mixed embedding: char row + projected word vector, one row per character.

    The word vector of a k-character segment contributes identically to all k
    rows; segments without a lexicon vector contribute zero. Gradients reach
    char_table and projection only; lexicon vectors stay fixed. Empty text
    raises ValueError("text is empty") from `segment`, and a character id
    outside char_table raises DimensionError (a ValueError).
    """
    word_mat = np.zeros((len(text), lexicon.dim))
    for seg in segment(text, lexicon):
        vec = lexicon.get(seg.word)
        if vec is not None:
            word_mat[seg.start : seg.start + seg.length, :] = vec
    ids = vocab.ids(text)
    table, projection = params.char_table, params.projection
    if max(ids) >= table.shape[0]:
        raise nm.DimensionError(f"mix_embed: char id {max(ids)} outside char_table")

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            np.add.at(table.grad, ids, g)  # ids may repeat; O(n * m), not O(V * m)
        nm.accumulate(projection, word_mat.T @ g)

    return nm.result(table.data[ids] + word_mat @ projection.data,
                     (table, projection), backward)
