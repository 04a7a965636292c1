"""Character-word mixed embeddings.

Every character gets a trainable vector from a character table; characters of
a segmented word additionally share that word's frozen pretrained vector,
projected into the character dimension. The per-character mixed vector is the
sum of the two, so the word lexicon and its projection are required. Words
come from a plain-text vector file and are never updated; characters outside
the vocabulary map to the reserved UNK id 0.

`load_word_vectors`, the one maker of a `WordLexicon`, reads the file in
text mode and parses its lines in blocks, by one `np.loadtxt` call or else
line by line. It writes each block straight into the rows of the lexicon's
one matrix, a `numerics.mapped_zeros` array, so a load peaks at one matrix
plus one block, not at two copies of the lexicon, and rows it never writes
take no memory. The matrix holds each value as a float32 code, half the
bytes of a float64, as long as every block read comes back from its code
bit for bit: six-decimal values, as pretrained files carry them, do. At the
first block that does not, the matrix becomes float64. Every value the
model computes with is the float64 the file's text names either way.

`mix_embed` is one autodiff node: a gather of character-table rows plus one
matmul with the projection, whose backward touches the gathered rows only.
"""

from __future__ import annotations

import os
import stat
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from . import numerics as nm
from .numerics import Tensor

UNK = "<unk>"
# lines per np.loadtxt call in load_word_vectors: larger blocks spread the
# call's fixed cost over more values but hold more line strings at once
BLOCK_LINES = 512


class WordVectorParseError(ValueError):
    """Malformed word-vector file; message carries the offending line number."""


class CharVocab:
    """char -> dense id map with id 0 reserved for unknown characters."""

    def __init__(self, chars: Iterable[str]):
        self._id = {UNK: 0}
        for c in chars:
            if c not in self._id:
                self._id[c] = len(self._id)

    def __len__(self) -> int:
        return len(self._id)

    def id_of(self, char: str) -> int:
        return self._id.get(char, 0)

    def ids(self, text: str) -> list[int]:
        return [self.id_of(c) for c in text]


class WordLexicon:
    """word -> frozen pretrained vector, all of one dimension and finite, as
    `load_word_vectors` reads them from a file, its one maker.

    The vectors are the rows of one read-only (words x dim) matrix, row
    rows[w] for word w, the words in first-occurrence order. The matrix
    stores float32 codes of the values (`_to_code`) or the float64 values
    themselves; `vectors`, the one read, returns the float64 values either
    way.
    """

    def __init__(self, rows: dict[str, int], stored: np.ndarray):
        stored.flags.writeable = False
        self._row = rows
        self._matrix = stored
        self.dim = stored.shape[1]
        self.max_word_len = max(map(len, rows))

    def __len__(self) -> int:
        return len(self._row)

    def __contains__(self, word: str) -> bool:
        return word in self._row

    def vectors(self, words: Sequence[str]) -> np.ndarray:
        """The (len(words), dim) float64 vectors of `words`, each in the
        lexicon, gathered and decoded at once into a new array."""
        stored = self._matrix[[self._row[w] for w in words]]
        return stored if stored.dtype == np.float64 else _from_code(stored)


def load_word_vectors(path) -> WordLexicon:
    """Read the classic text vector format: "<count> <dim>" header, then one
    line per word ("word v1 .. v_dim"), in UTF-8 with an optional BOM; lines
    end where text mode ends them, at "\n", "\r\n" or a lone "\r", and
    fields are separated by any whitespace `str.split` splits at. Duplicates
    keep the row of the first occurrence and the values of the last. Any
    malformed line, a byte that is not UTF-8 included, raises
    WordVectorParseError naming the first bad line.

    The body is read in blocks of BLOCK_LINES lines, and one `np.loadtxt`
    call parses a block's values. A block it rejects, or whose shape,
    finiteness or row count is wrong, is read again one line at a time with
    `float`, which names the first bad line or accepts the block: `float`
    also reads forms `np.loadtxt` rejects, such as "1_0" and non-ASCII
    digits. Either way the block's words take their rows in one word -> row
    dict, the lexicon's own, and its values come as one float64 array.

    Each accepted block is written straight into the lexicon's matrix, so a
    load holds one float32 code matrix plus one float64 block. The matrix
    is one `mapped_zeros` array, made after the header with room for the
    declared count of rows, but never for more rows than the file's size
    can hold. So `path` must name a regular file; anything else (a pipe, a
    device, a directory) raises ValueError before it is opened.

    The matrix stores float32 codes (`_to_code`) while every block comes
    back from its code bit for bit. At the first that does not, the rows
    stored so far are decoded into a float64 `mapped_zeros` matrix, and the
    load goes on in float64: a file of other values costs a float64 matrix,
    plus the float32 one until the switch.
    """
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        raise ValueError(f"{path}: not a regular file, so its size cannot "
                         "bound the lexicon")
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = enumerate(fh, start=1)
        lineno, header = next(lines, (1, ""))
        count, dim = _parse_header(
            _check_text(lineno, header).removeprefix("\ufeff").rstrip("\n"))
        # a row is at least a word and dim values, each one byte, with a
        # separator before each value, so the file's size bounds the rows
        # however large the header's count or dim
        matrix = nm.mapped_zeros((min(count, info.st_size // (2 * dim + 1)), dim),
                                 np.float32)
        rows: dict[str, int] = {}  # word -> matrix row, in first-occurrence order
        rows_seen = 0
        while block := list(islice(lines, BLOCK_LINES)):
            lineno = block[-1][0]
            start = len(rows)
            targets, values = (_parse_block(block, count - rows_seen, dim, rows)
                               or _parse_lines(block, rows_seen, count, dim, rows))
            matrix, values = _stored(matrix, values, len(rows))
            if len(rows) - start == len(targets):  # all new: the next rows
                matrix[start : len(rows)] = values
            else:
                for row, vec in zip(targets, values):
                    matrix[row] = vec
            rows_seen += len(values)
    if rows_seen < count:
        raise WordVectorParseError(
            f"line {lineno}: file ends after {rows_seen} of {count} rows")
    return WordLexicon(rows, matrix[: len(rows)])


def _check_text(lineno: int, line: str) -> str:
    """`line`, unless it holds a lone surrogate, which the loader's text mode
    leaves for a byte that is not UTF-8: then WordVectorParseError with the
    UnicodeDecodeError of the line's bytes."""
    try:
        line.encode(errors="surrogateescape").decode()
    except UnicodeDecodeError as e:
        raise WordVectorParseError(f"line {lineno}: not UTF-8 text ({e})") from None
    return line


def _parse_block(block: list[tuple[int, str]], room: int, dim: int,
                 rows: dict[str, int]) -> Optional[tuple[list[int], np.ndarray]]:
    """The block's words' matrix rows (`_row_of`) and its (rows, dim) values
    from one `np.loadtxt` call; None, with `rows` left as it was, for a block
    of blank lines, a word alone or holding a byte that is not UTF-8, more
    than `room` rows, a value `np.loadtxt` rejects (a byte that is not UTF-8
    in a value among them), a wrong shape or a non-finite value."""
    numbered_words, rests = [], []
    for lineno, line in block:
        parts = line.split(None, 1)
        if len(parts) == 1:
            return None
        if parts:
            numbered_words.append((lineno, parts[0]))
            rests.append(parts[1])
    if not rests or len(rests) > room:
        return None
    try:
        # a lone surrogate fails to encode in a word, as in a value it fails
        # np.loadtxt, with a ValueError either way
        "".join(word for _, word in numbered_words).encode()
        values = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rests), dim) or not np.isfinite(values).all():
        return None
    return [_row_of(rows, word, lineno) for lineno, word in numbered_words], values


def _parse_lines(block: list[tuple[int, str]], rows_seen: int, count: int,
                 dim: int, rows: dict[str, int]) -> tuple[list[int], np.ndarray]:
    """`_parse_block`'s result for a block of (line number, text-mode line),
    read one line at a time with `float`, raising for the first bad line.
    Each word takes its row (`_row_of`) before the next line is read, so a
    duplicate warns before a later line raises."""
    targets, vecs = [], []
    for lineno, line in block:
        if not _check_text(lineno, line).strip():
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
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise WordVectorParseError(
                f"line {lineno}: non-numeric vector component") from None
        if not np.isfinite(vec).all():
            raise WordVectorParseError(f"line {lineno}: non-finite vector component")
        targets.append(_row_of(rows, parts[0], lineno))
        vecs.append(vec)
    return targets, np.array(vecs, dtype=np.float64).reshape(len(vecs), dim)


def _stored(matrix: np.ndarray, values: np.ndarray,
            used: int) -> tuple[np.ndarray, np.ndarray]:
    """The matrix to store a block's `values` in, and the values as it
    stores them: their float32 code while `matrix` holds codes and every
    value of the block comes back from it; else the float64 values, in a
    float64 `mapped_zeros` matrix made at the first miss, which takes the
    values of `matrix`'s first `used` rows."""
    if matrix.dtype == np.float64:
        return matrix, values
    code = _to_code(values)
    if code is not None:
        return matrix, code
    wide = nm.mapped_zeros(matrix.shape)
    _from_code(matrix[:used], out=wide[:used])
    return wide, values


def _to_code(values: np.ndarray) -> Optional[np.ndarray]:
    """The float32 code of finite float64 values, or None when a value does
    not come back from it (`_from_code`) bit for bit. Every value of at most
    six decimals and magnitude below 8 does: its code is within half a
    float32 ulp, at most 2**-22, of k * 1e-6 for an integer k, so rint
    recovers k from code * 1e6, and the correctly rounded k / 1e6 is the
    value's own bits, as `float` reads them; -0.0 codes as -0.0."""
    with np.errstate(over="ignore"):  # a value beyond float32 codes as inf: a miss
        code = values.astype(np.float32)
    same = _from_code(code).view(np.int64) == values.view(np.int64)
    return code if same.all() else None


def _from_code(code: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The float64 values of a float32 code, rint(code * 1e6) / 1e6, written
    into `out` when it is given."""
    out = np.multiply(code, 1e6, out=out, dtype=np.float64)
    np.rint(out, out=out)
    out /= 1e6
    return out


def _row_of(rows: dict[str, int], word: str, lineno: int) -> int:
    """The matrix row of `word`: the row of its first occurrence, with a
    warning, or else the next free row."""
    row = rows.get(word)
    if row is None:
        row = rows[word] = len(rows)
    else:
        warnings.warn(f"duplicate word {word!r} at line {lineno}; "
                      "keeping the last occurrence")
    return row


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
    raises ValueError("text is empty") from `segment`; a character id outside
    char_table, or a lexicon width other than projection's row count, raises
    DimensionError (a ValueError).
    """
    hits = [seg for seg in segment(text, lexicon) if seg.word in lexicon]
    word_mat = np.zeros((len(text), lexicon.dim))
    for seg, vec in zip(hits, lexicon.vectors([seg.word for seg in hits])):
        word_mat[seg.start : seg.start + seg.length, :] = vec
    ids = vocab.ids(text)
    table, projection = params.char_table, params.projection
    if max(ids) >= table.shape[0]:
        raise nm.DimensionError(f"mix_embed: char id {max(ids)} outside char_table")
    if lexicon.dim != projection.shape[0]:
        raise nm.DimensionError(f"mix_embed: lexicon width {lexicon.dim}, "
                                f"projection expects {projection.shape[0]}")

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            np.add.at(table.grad, ids, g)  # ids may repeat; O(n * m), not O(V * m)
        nm.accumulate(projection, word_mat.T @ g)

    return nm.result(table.data[ids] + word_mat @ projection.data,
                     (table, projection), backward)
