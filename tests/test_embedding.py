import os
import re
import tempfile
import tracemalloc
import warnings
from concurrent import futures
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from helpers import (
    check_finite_differences, lexicon_of, named_tensors, reference_load_word_vectors)
from tripletag import embedding, numerics as nm
from tripletag.embedding import (
    CharVocab, EmbedParams, WordVectorParseError,
    load_word_vectors, mix_embed, segment)


class TestCharVocab:
    def test_unk_is_zero_and_dense(self):
        v = CharVocab("北京大学北")
        assert v.id_of("北") == 1
        assert len(v) == 5  # unk + 4 distinct
        assert v.id_of("?") == 0
        assert sorted(v.id_of(c) for c in "北京大学") == [1, 2, 3, 4]


def vector(lexicon, word) -> np.ndarray:
    """`word`'s vector, through the lexicon's one read."""
    return lexicon.vectors([word])[0]


# file bytes -> (the line the loader names, its whole message)
UNDECODABLE = {
    "2 2\n北京 1 2\n大学 3 4\n".encode("gbk"): (2, (
        "line 2: not UTF-8 text ('utf-8' codec can't decode byte 0xb1 in position 0: "
        "invalid start byte)")),
    b"3 2\na 1 2\nb 3 4\nc\xff 5 6\n": (4, (
        "line 4: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 1: "
        "invalid start byte)")),
    # a character cut short
    b"3 2\na 1 2\nb\xe5\x8c 3 4\nc 5 6\n": (3, (
        "line 3: not UTF-8 text ('utf-8' codec can't decode bytes in position 1-2: "
        "invalid continuation byte)")),
    # an earlier bad line comes first
    b"3 2\na 1 x\nb\xff 3 4\nc 5 6\n": (2, "line 2: non-numeric vector component"),
    b"\xff2 2\n": (1, (
        "line 1: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte)")),
    # in a value, not in the word
    b"2 2\na 1 \xff2\nb 3 4\n": (2, (
        "line 2: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 4: "
        "invalid start byte)")),
    # after a BOM, whose three bytes the position counts
    b"\xef\xbb\xbf\xff2 2\na 1 2\n": (1, (
        "line 1: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 3: "
        "invalid start byte)")),
    # a surrogate, which UTF-8 may not encode
    b"2 2\na\xed\xb2\x80 1 2\nb 1 2\n": (2, (
        "line 2: not UTF-8 text ('utf-8' codec can't decode byte 0xed in position 1: "
        "invalid continuation byte)")),
    # lines that end in a lone "\r", one with a character cut short
    b"2 2\ra 1 2\rb\xe5 3 4\r": (3, (
        "line 3: not UTF-8 text ('utf-8' codec can't decode byte 0xe5 in position 1: "
        "invalid continuation byte)")),
}


class TestLoadWordVectors:
    def test_direct_read_back(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 3\n北京 1 0 0\n大学 0 1 0\n", encoding="utf-8")
        lx = load_word_vectors(p)
        assert len(lx) == 2 and lx.dim == 3
        np.testing.assert_array_equal(vector(lx, "北京"), [1, 0, 0])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("")
        with pytest.raises(WordVectorParseError, match="line 1"):
            load_word_vectors(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 3\nok 1 2 3\nbad 1 2\n")
        with pytest.raises(WordVectorParseError, match="line 3"):
            load_word_vectors(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("3 2\na 1 2\n")
        with pytest.raises(WordVectorParseError, match="of 3 rows"):
            load_word_vectors(p)

    @pytest.mark.parametrize("body, last_line", [
        ("3 2\n", 1), ("3 2\na 1 2\n", 2), ("3 2\na 1 2\n\nb 3 4\n\n", 5)])
    def test_truncated_body_names_the_last_line(self, tmp_path, body, last_line):
        p = tmp_path / "vec.txt"
        p.write_text(body)
        with pytest.raises(WordVectorParseError,
                           match=f"^line {last_line}: file ends after"):
            load_word_vectors(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_component_names_line(self, tmp_path, value):
        p = tmp_path / "vec.txt"
        p.write_text(f"2 2\nok 1 2\nab {value} 1\n")
        with pytest.raises(WordVectorParseError, match="^line 3: non-finite"):
            load_word_vectors(p)

    @pytest.mark.parametrize("where", [0, 299, 599])
    def test_non_finite_row_in_any_block_names_its_line(self, tmp_path, where):
        rows = [f"w{i} 1 2" for i in range(600)]
        rows[where] = f"w{where} 1 nan"
        p = tmp_path / "vec.txt"
        p.write_text("600 2\n" + "\n".join(rows) + "\n")
        with pytest.raises(WordVectorParseError,
                           match=f"^line {where + 2}: non-finite"):
            load_word_vectors(p)

    @pytest.mark.parametrize("later", [
        "w 1 1",  # a duplicate that replaces the bad row
        "c 1",  # too few fields
        "c 1 x",  # non-numeric
        "c 1 1\nd 1 1",  # more rows than declared
        "",  # file ends early
    ])
    def test_non_finite_row_is_reported_before_a_later_problem(self, tmp_path, later):
        p = tmp_path / "vec.txt"
        p.write_text(f"3 2\na 1 2\nw inf 1\n{later}\n")
        with pytest.raises(WordVectorParseError, match="^line 3: non-finite"):
            load_word_vectors(p)

    def test_duplicate_last_wins_with_warning(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 2\nw 1 1\nw 2 2\n")
        with pytest.warns(UserWarning, match="duplicate"):
            lx = load_word_vectors(p)
        np.testing.assert_array_equal(vector(lx, "w"), [2, 2])

    def test_vectors_are_frozen(self, tmp_path):
        p = tmp_path / "vec.txt"
        for value in ("2", "0.1234567890123"):  # float32 and float64 storage
            p.write_text(f"1 2\nw 1 {value}\n")
            lx = load_word_vectors(p)
            with pytest.raises(ValueError):
                lx._matrix[0, 0] = 9.0
            lx.vectors(["w"])[0, 0] = 9.0  # a gather is the caller's copy
            np.testing.assert_array_equal(vector(lx, "w"), [1, float(value)])

    @pytest.mark.parametrize("data, line", [(d, line) for d, (line, _) in UNDECODABLE.items()])
    def test_undecodable_bytes_name_their_line(self, tmp_path, data, line):
        p = tmp_path / "vec.txt"
        p.write_bytes(data)
        message = UNDECODABLE[data][1]
        with pytest.raises(WordVectorParseError, match=f"^{re.escape(message)}$"):
            load_word_vectors(p)

    def test_a_leading_utf8_bom_is_skipped(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_bytes(b"\xef\xbb\xbf" + "2 2\n北京 1 2\n大学 3 4\n".encode())
        lx = load_word_vectors(p)
        assert len(lx) == 2
        np.testing.assert_array_equal(vector(lx, "北京"), [1, 2])

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_every_text_mode_line_end_is_read(self, tmp_path, newline):
        p = tmp_path / "vec.txt"
        p.write_bytes(newline.join(["2 2", "a 1 2", "", "b 3 4"]).encode())
        lx = load_word_vectors(p)
        np.testing.assert_array_equal(vector(lx, "b"), [3, 4])

    def test_a_load_holds_less_than_half_a_lexicon_more_than_it_keeps(self, tmp_path):
        # 8,000 words span 16 blocks. The lexicon's matrix is mapped outside
        # the heap tracemalloc sees, so the traced peak never holds a whole
        # matrix, and what the load frees is less than half of one
        words, dim = 8000, 64
        values = np.random.default_rng(0).uniform(-1, 1, (words, dim))
        p = tmp_path / "vec.txt"
        p.write_text(f"{words} {dim}\n" + "".join(
            f"w{i} " + " ".join(f"{x:.6f}" for x in row) + "\n"
            for i, row in enumerate(values)))
        tracemalloc.start()
        try:
            lx = load_word_vectors(p)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lx) == words and lx.dim == dim
        assert peak < words * dim * 8
        assert peak - kept < words * dim * 8 / 2

    @pytest.mark.parametrize("body, message", [
        ("3 1000000000\na 1\nb 2\n",
         "line 2: expected 1 word + 1000000000 values, got 2 fields"),
        ("1000000000000 2\na 1 2\nb 3 4\n",
         "line 3: file ends after 2 of 1000000000000 rows"),
    ], ids=["huge-dim", "huge-count"])
    def test_a_huge_header_is_bounded_by_the_file(self, tmp_path, body, message):
        p = tmp_path / "vec.txt"
        p.write_text(body)
        with pytest.raises(WordVectorParseError, match=f"^{re.escape(message)}$"):
            load_word_vectors(p)

    @pytest.mark.parametrize("second", [0, 7], ids=["first-line", "mid-block"])
    def test_a_duplicate_across_a_block_edge_keeps_first_row_last_values(
            self, tmp_path, second):
        rows = [f"w{i} {i} 0" for i in range(embedding.BLOCK_LINES + 20)]
        first = embedding.BLOCK_LINES - 1
        rows[first] = "dup 1 1"
        rows[first + 1 + second] = "dup 2 2"
        p = tmp_path / "vec.txt"
        p.write_text(f"{len(rows)} 2\n" + "\n".join(rows) + "\n")
        with pytest.warns(UserWarning, match=f"'dup' at line {first + 3 + second}"):
            lx = load_word_vectors(p)
        assert list(lx._row)[first] == "dup" and len(lx) == len(rows) - 1
        np.testing.assert_array_equal(vector(lx, "dup"), [2, 2])
        np.testing.assert_array_equal(vector(lx, f"w{len(rows) - 1}"), [len(rows) - 1, 0])

    def test_a_file_that_is_not_regular_is_rejected(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        with futures.ThreadPoolExecutor(max_workers=1) as pool:
            for path in ("/dev/null", fifo, tmp_path):
                load = pool.submit(load_word_vectors, path)
                try:
                    raised = load.exception(timeout=1)
                except futures.TimeoutError:  # opening the pipe waits for a writer
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                    pytest.fail(f"{path}: the load blocked")
                assert isinstance(raised, ValueError), (path, raised)
                assert "not a regular file" in str(raised)


def loaded_rows(path) -> dict:
    """The production loader's lexicon as word -> row, in row order."""
    lexicon = load_word_vectors(path)
    return dict(zip(lexicon._row, lexicon.vectors(list(lexicon._row))))


def outcome(load, path):
    """What a loader makes of a file: its words in order with the float.hex
    of every value, or its exception's type and message; and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            vectors = load(path)
            result = [(w, [float(x).hex() for x in v]) for w, v in vectors.items()]
        except Exception as e:
            result = (type(e), str(e))
    return result, [str(w.message) for w in caught]


# `float` reads every one of these; np.loadtxt rejects the last three
READABLE = ["0", "-0", "1.5", "-2e-3", ".5", "7.", "1e-320", "1_0", "١٢", "１"]
BAD = ["nan", "inf", "-Infinity", "1e999", "x", "1__0", "0x1"]


@st.composite
def vector_files(draw):
    """(file bytes, lines per block): a vector file of a few words, so words
    repeat, with blank, short, long and bad lines among valid rows, a header
    count near the row count, at least two blocks and maybe a leading BOM."""
    dim = draw(st.integers(1, 3))
    value = st.one_of(st.floats(-1e3, 1e3).map(repr),
                      st.floats(-10, 10).map(lambda x: f"{x:.6f}"),
                      st.sampled_from(READABLE))
    sep = st.sampled_from([" ", "\t", "\u3000", " \u3000 "])

    def row(n_values, bad=None):
        values = [draw(value) for _ in range(n_values)]
        if bad is not None:
            values[draw(st.integers(0, n_values - 1))] = bad
        word = draw(st.sampled_from(["a", "b", "c", "北京", "大学"]))
        return draw(st.sampled_from(["", " "])) + word + "".join(draw(sep) + v for v in values)

    lines = [row(dim) for _ in range(draw(st.integers(2, 14)))]
    for _ in range(draw(st.integers(0, 3))):
        odd = draw(st.sampled_from(["blank", "space", "short", "long", "bad"]))
        lines.insert(draw(st.integers(0, len(lines))), {
            "blank": lambda: "",
            "space": lambda: " \u3000\t",
            "short": lambda: row(dim - 1),
            "long": lambda: row(dim + 1),
            "bad": lambda: row(dim, draw(st.sampled_from(BAD))),
        }[odd]())
    rows = sum(1 for line in lines if line.strip())
    count = max(1, rows + draw(st.sampled_from([0, 0, 0, -1, 1, -2, 2])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([f"{count} {dim}", *lines]) + draw(st.sampled_from(["", newline]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + text).encode(), draw(st.integers(1, len(lines) - 1))


class TestLoaderMatchesReference:
    """The block loader against the straight-line `float` reference: the same
    words in order with the same bits and the same warnings in order, or the
    same exception type and message."""

    @settings(max_examples=300, deadline=None)
    @given(vector_files())
    # the line path warns for a duplicate before a later line raises
    @example((b"2 2\na 0.0 0.0\na 0.0 0.0\na 0.0 0.0\na 0.0 0.0", 3))
    def test_generated_files(self, file_and_block):
        data, block = file_and_block
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vec.txt"
            path.write_bytes(data)
            with mock.patch.object(embedding, "BLOCK_LINES", block):
                assert outcome(loaded_rows, path) == outcome(reference_load_word_vectors, path)

    @pytest.mark.parametrize("token", ["1_0", "١", "nan", "x"])
    @pytest.mark.parametrize("offset", [-1, 0], ids=["before-edge", "after-edge"])
    def test_a_line_at_the_first_block_edge(self, tmp_path, token, offset):
        rows = [f"w{i} 0.5 -1" for i in range(embedding.BLOCK_LINES + 20)]
        at = embedding.BLOCK_LINES + offset
        rows[at] = f"w{at} 2 {token}"
        path = tmp_path / "vec.txt"
        path.write_text(f"{len(rows)} 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert outcome(loaded_rows, path) == outcome(reference_load_word_vectors, path)

    @pytest.mark.parametrize("header, message", [
        ("2", "expected '<count> <dim>', got '2'"),
        ("2 3 4", "expected '<count> <dim>', got '2 3 4'"),
        ("a 3", "non-integer header fields 'a 3'"),
        ("2 1.5", "non-integer header fields '2 1.5'"),
        ("0 3", "non-positive count/dim '0 3'"),
        ("2 -1", "non-positive count/dim '2 -1'"),
        ("2\r", "expected '<count> <dim>', got '2'"),  # the quote ends before "\r\n"
    ], ids=["one-field", "three-fields", "word-count", "fractional-dim", "zero-count",
            "negative-dim", "one-field-crlf"])
    def test_a_bad_header(self, tmp_path, header, message):
        path = tmp_path / "vec.txt"
        path.write_text(header + "\na 1 2\n")
        error = (WordVectorParseError, "line 1: " + message)
        assert (outcome(loaded_rows, path) == outcome(reference_load_word_vectors, path)
                == (error, []))


def hexes(vector) -> list[str]:
    return [float(x).hex() for x in vector]


def six_decimal_rows(rows: int, dim: int) -> list[list[str]]:
    values = np.random.default_rng(0).uniform(-8, 8, (rows, dim))
    return [[f"{x:.6f}" for x in row] for row in values]


def write_rows(path, words, rows) -> None:
    path.write_text(f"{len(words)} {len(rows[0])}\n" + "".join(
        f"{w} {' '.join(row)}\n" for w, row in zip(words, rows)), encoding="utf-8")


class TestCodedStorage:
    """A lexicon stores six-decimal values as float32 codes, 4 bytes each,
    and gives back the float64 `float` reads from their text; the first value
    whose code would not give back its bits switches storage to float64."""

    def test_six_decimal_values_are_stored_in_four_bytes(self, tmp_path):
        words = [f"w{i}" for i in range(embedding.BLOCK_LINES + 20)]
        rows = six_decimal_rows(len(words), 6)
        rows[3] = ["-0.000000", "0.000001", "7.999999", "-7.999999", "-0.000001", "8"]
        first = embedding.BLOCK_LINES - 1  # a duplicate across the first block edge
        words[first] = words[first + 5] = "dup"
        p = tmp_path / "vec.txt"
        write_rows(p, words, rows)
        with pytest.warns(UserWarning, match="duplicate word 'dup'"):
            lx = load_word_vectors(p)
        assert lx._matrix.dtype == np.float32
        assert lx._matrix.nbytes == len(lx) * 6 * 4 and len(lx) == len(words) - 1
        expected = dict(zip(words, rows))  # the last occurrence's values
        for w, tokens in expected.items():
            assert hexes(vector(lx, w)) == [float(t).hex() for t in tokens], w
        assert hexes(vector(lx, "w3"))[0] == "-0x0.0p+0"

    def test_every_six_decimal_value_below_8_comes_back_from_its_code(self):
        # k / 1e6 is correctly rounded, so it is the float64 `float` reads
        # from the six-decimal text of k * 1e-6
        for start in range(-7_999_999, 8_000_000, 1_000_000):
            values = np.arange(start, min(start + 1_000_000, 8_000_000)) / 1e6
            assert embedding._to_code(values) is not None, start

    def test_the_benchmarks_vector_file_is_stored_in_four_bytes(self, tmp_path):
        words = [f"w{i}" for i in range(600)]
        corpus.write_word_vectors(tmp_path / "vec.txt", 3, words, 100)
        lx = load_word_vectors(tmp_path / "vec.txt")
        assert lx._matrix.dtype == np.float32 and lx._matrix.nbytes == 600 * 100 * 4

    @pytest.mark.parametrize("tokens, dtype", [
        ({10: "0.12345678901234567"}, np.float64),
        ({7: "1_0", 10: "0.12345678901234567"}, np.float64),
        ({7: "1_0"}, np.float32),
        ({10: "1e-320"}, np.float64),
        ({10: "16.000001"}, np.float64),
        ({10: "1e39"}, np.float64),
    ], ids=["17-digits", "slow-path-17-digits", "slow-path-six-decimals",
            "subnormal", "beyond-8", "beyond-float32"])
    def test_storage_follows_the_values_and_keeps_their_bits(
            self, tmp_path, tokens, dtype):
        # every row lands in the second block, read in one np.loadtxt call,
        # or, for a "1_0" that np.loadtxt rejects, one line at a time
        words = [f"w{i}" for i in range(embedding.BLOCK_LINES + 20)]
        rows = six_decimal_rows(len(words), 4)
        for offset, token in tokens.items():
            rows[embedding.BLOCK_LINES + offset][1] = token
        p = tmp_path / "vec.txt"
        write_rows(p, words, rows)
        lx = load_word_vectors(p)
        assert lx._matrix.dtype == dtype
        assert lx._matrix.nbytes == len(words) * 4 * np.dtype(dtype).itemsize
        assert outcome(loaded_rows, p) == outcome(reference_load_word_vectors, p)

    def test_mix_embed_reads_the_values_the_codes_stand_for(self, tmp_path):
        words = ["北京", "大学", "京大", "生"]
        rows = six_decimal_rows(len(words), 5)
        rows[1][2] = "-0.000000"
        p = tmp_path / "vec.txt"
        write_rows(p, words, rows)
        coded = load_word_vectors(p)
        assert coded._matrix.dtype == np.float32
        # a word no text holds, with a value no code gives back: float64 storage
        plain = lexicon_of({**{w: [float(t) for t in row] for w, row in zip(words, rows)},
                            "外": [0.12345678901234567] * 5})
        assert plain._matrix.dtype == np.float64
        vocab = CharVocab("北京大学生")
        params = EmbedParams.init(np.random.default_rng(3), len(vocab), 3, 5)
        for text in ("北京大学", "大学生北京", "学", "北京大学生京大"):
            out = mix_embed(text, vocab, coded, params).data
            assert hexes(out.ravel()) == hexes(
                mix_embed(text, vocab, plain, params).data.ravel()), text
        assert hexes(coded.vectors(words[::-1]).ravel()) == hexes(
            plain.vectors(words[::-1]).ravel())


class TestWordLexicon:
    """The lexicon as `load_word_vectors`, its one maker, gives it."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 2500], ids=["first", "late"])
    def test_non_finite_component_rejected(self, value, where):
        vectors = {f"w{i}": np.array([1.0, -1.0]) for i in range(3000)}
        vectors[f"w{where}"] = np.array([0.5, value])
        with pytest.raises(WordVectorParseError, match=f"^line {where + 2}: non-finite"):
            lexicon_of(vectors)

    def test_rows_are_the_words_in_order_without_a_copy(self):
        matrix = np.arange(6.0).reshape(3, 2) / 7  # no float32 code: float64 storage
        made, real = [], nm.mapped_zeros  # the load's matrices; the last is float64

        def mapped_zeros(*args):
            made.append(real(*args))
            return made[-1]

        with mock.patch.object(nm, "mapped_zeros", mapped_zeros):
            lx = lexicon_of(dict(zip(["c", "a", "b"], matrix)))
        assert list(lx._row) == ["c", "a", "b"] and len(lx) == 3
        np.testing.assert_array_equal(lx.vectors(["a", "b"]), matrix[1:])
        assert np.shares_memory(lx._matrix, made[-1])


class TestSegment:
    def test_longest_match_wins(self):
        lx = lexicon_of({"北京大学": [1.0], "北京": [2.0]})
        segs = segment("北京大学", lx)
        assert [(s.word, s.start, s.length) for s in segs] == [("北京大学", 0, 4)]

    def test_no_hits_gives_single_chars(self):
        lx = lexicon_of({"zz": [1.0]})
        segs = segment("abc", lx)
        assert [(s.word, s.start, s.length) for s in segs] == [
            ("a", 0, 1), ("b", 1, 1), ("c", 2, 1)]

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            segment("", lexicon_of({"a": [1.0]}))

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abcd", min_size=1, max_size=20),
           st.sets(st.text(alphabet="abcd", min_size=1, max_size=3),
                   min_size=1, max_size=8))
    def test_coverage(self, text, words):
        lx = lexicon_of({w: [1.0, 2.0] for w in words})
        segs = segment(text, lx)
        assert "".join(s.word for s in segs) == text
        pos = 0
        for s in segs:
            assert s.start == pos and s.length == len(s.word)
            pos += s.length
        assert pos == len(text)


class TestMixEmbed:
    def make(self, vocab, d_w, m, rng=None, zero=False):
        rng = rng or np.random.default_rng(1)
        p = EmbedParams.init(rng, len(vocab), m, d_w)
        if zero:
            p.char_table.data[:] = 0.0
            p.projection.data[:] = 0.0
        return p

    def test_zero_params_give_zero_output(self):
        vocab = CharVocab("ab")
        lx = lexicon_of({"ab": [1.0, 2.0, 3.0]})
        p = self.make(vocab, 3, 4, zero=True)
        out = mix_embed("ab", vocab, lx, p)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_empty_text_rejected(self):
        vocab = CharVocab("ab")
        lx = lexicon_of({"ab": [1.0, 2.0]})
        with pytest.raises(ValueError, match="text is empty"):
            mix_embed("", vocab, lx, self.make(vocab, 2, 3))

    def test_lexicon_width_must_match_projection(self):
        vocab = CharVocab("ab")
        lx = lexicon_of({"ab": [1.0, 2.0, 3.0]})
        with pytest.raises(nm.DimensionError,
                           match="lexicon width 3, projection expects 5"):
            mix_embed("ab", vocab, lx, self.make(vocab, 5, 4))

    def test_oov_char_equals_char_table_row(self):
        vocab = CharVocab("ab")
        lx = lexicon_of({"ab": [1.0, 2.0]})
        p = self.make(vocab, 2, 3)
        out = mix_embed("z", vocab, lx, p)  # char OOV, no word hit
        np.testing.assert_array_equal(out.data, p.char_table.data[0:1, :])

    def test_word_component_shared_across_span(self):
        vocab = CharVocab("xyz")
        lx = lexicon_of({"xyz": [0.5, -0.5]})
        rng = np.random.default_rng(2)
        p = self.make(vocab, 2, 4, rng=rng)
        out = mix_embed("xyz", vocab, lx, p)
        # subtract char rows; the word component of all 3 rows must agree
        comps = out.data - p.char_table.data[[vocab.id_of(c) for c in "xyz"], :]
        np.testing.assert_allclose(comps[0], comps[1], atol=1e-15)
        np.testing.assert_allclose(comps[1], comps[2], atol=1e-15)
        expected = np.asarray([0.5, -0.5]) @ p.projection.data
        np.testing.assert_allclose(comps[0], expected, atol=1e-15)

    def test_gradients_reach_table_and_projection_not_lexicon(self):
        vocab = CharVocab("xy")
        vec = np.array([1.0, 2.0])
        lx = lexicon_of({"xy": vec})
        p = self.make(vocab, 2, 3)
        before = vector(lx, "xy")
        out = mix_embed("xy", vocab, lx, p)
        nm.backward(nm.sum_all(out))
        assert np.any(p.char_table.grad != 0)
        assert np.any(p.projection.grad != 0)
        np.testing.assert_array_equal(vector(lx, "xy"), before)

    def test_gradient_matches_finite_differences(self):
        vocab = CharVocab("pqr")
        lx = lexicon_of({"pq": [0.3, -0.7], "r": [1.1, 0.2]})
        rng = np.random.default_rng(4)
        p = self.make(vocab, 2, 3, rng=rng)
        w = np.cos(np.arange(9)).reshape(3, 3)
        check_finite_differences(lambda: mix_embed("pqr", vocab, lx, p),
                                 named_tensors(p), w)

    def test_repeated_and_oov_chars_gradient(self):
        # 'p' three times, 'z' out of vocabulary (UNK row 0); 'r' and 's' absent
        vocab = CharVocab("pqrs")
        lx = lexicon_of({"pq": [0.3, -0.7], "zp": [1.1, 0.2]})
        p = self.make(vocab, 2, 3, rng=np.random.default_rng(5))
        text = "pqpzp"
        w = np.cos(np.arange(15)).reshape(5, 3)
        check_finite_differences(lambda: mix_embed(text, vocab, lx, p),
                                 named_tensors(p), w)
        absent = [vocab.id_of("r"), vocab.id_of("s")]
        np.testing.assert_array_equal(p.char_table.grad[absent], 0.0)
        assert np.all(p.char_table.grad[[0, 1, 2]] != 0)


def test_unk_constant_exported():
    assert embedding.UNK == "<unk>"
