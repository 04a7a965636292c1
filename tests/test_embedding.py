import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finite_diff_grad, relative_error
from tripletag import embedding, numerics as nm
from tripletag.embedding import (
    CharVocab, EmbedParams, WordLexicon, WordVectorParseError,
    load_word_vectors, mix_embed, segment)
from tripletag.numerics import Tensor


def lex(d: dict) -> WordLexicon:
    return WordLexicon({w: np.asarray(v, dtype=float) for w, v in d.items()})


class TestCharVocab:
    def test_unk_is_zero_and_dense(self):
        v = CharVocab("北京大学北")
        assert v.id_of("北") == 1
        assert len(v) == 5  # unk + 4 distinct
        assert v.id_of("?") == 0
        assert sorted(v.id_of(c) for c in "北京大学") == [1, 2, 3, 4]

    def test_round_trip_through_chars(self):
        v = CharVocab("abcab")
        rebuilt = CharVocab(v.chars()[1:])
        assert rebuilt.ids("abc") == v.ids("abc")


class TestLoadWordVectors:
    def test_direct_read_back(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 3\n北京 1 0 0\n大学 0 1 0\n", encoding="utf-8")
        lx = load_word_vectors(p)
        assert len(lx) == 2 and lx.dim == 3
        np.testing.assert_array_equal(lx.get("北京"), [1, 0, 0])

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

    def test_duplicate_last_wins_with_warning(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 2\nw 1 1\nw 2 2\n")
        with pytest.warns(UserWarning, match="duplicate"):
            lx = load_word_vectors(p)
        np.testing.assert_array_equal(lx.get("w"), [2, 2])

    def test_generated_file_round_trips_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(50)]
        vals = {w: rng.uniform(-1, 1, 4) for w in words}
        lines = ["50 4"] + [
            w + " " + " ".join(repr(float(x)) for x in vals[w]) for w in words]
        p = tmp_path / "vec.txt"
        p.write_text("\n".join(lines) + "\n")
        lx = load_word_vectors(p)
        for w in words:
            np.testing.assert_array_equal(lx.get(w), vals[w])

    def test_vectors_are_frozen(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("1 2\nw 1 2\n")
        lx = load_word_vectors(p)
        with pytest.raises(ValueError):
            lx.get("w")[0] = 9.0


class TestWordLexicon:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 2500], ids=["first", "late"])
    def test_non_finite_component_rejected(self, value, where):
        vectors = {f"w{i}": np.array([1.0, -1.0]) for i in range(3000)}
        vectors[f"w{where}"] = np.array([0.5, value])
        with pytest.raises(ValueError, match=f"non-finite .*'w{where}'"):
            WordLexicon(vectors)


class TestSegment:
    def test_longest_match_wins(self):
        lx = lex({"北京大学": [1.0], "北京": [2.0]})
        segs = segment("北京大学", lx)
        assert [(s.word, s.start, s.length) for s in segs] == [("北京大学", 0, 4)]

    def test_no_hits_gives_single_chars(self):
        lx = lex({"zz": [1.0]})
        segs = segment("abc", lx)
        assert [(s.word, s.start, s.length) for s in segs] == [
            ("a", 0, 1), ("b", 1, 1), ("c", 2, 1)]

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            segment("", lex({"a": [1.0]}))

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abcd", min_size=1, max_size=20),
           st.sets(st.text(alphabet="abcd", min_size=1, max_size=3),
                   min_size=1, max_size=8))
    def test_coverage(self, text, words):
        lx = lex({w: [1.0, 2.0] for w in words})
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
        lx = lex({"ab": [1.0, 2.0, 3.0]})
        p = self.make(vocab, 3, 4, zero=True)
        out = mix_embed("ab", vocab, lx, p)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_empty_text_rejected(self):
        vocab = CharVocab("ab")
        lx = lex({"ab": [1.0, 2.0]})
        with pytest.raises(ValueError, match="text is empty"):
            mix_embed("", vocab, lx, self.make(vocab, 2, 3))

    def test_oov_char_equals_char_table_row(self):
        vocab = CharVocab("ab")
        lx = lex({"ab": [1.0, 2.0]})
        p = self.make(vocab, 2, 3)
        out = mix_embed("z", vocab, lx, p)  # char OOV, no word hit
        np.testing.assert_array_equal(out.data, p.char_table.data[0:1, :])

    def test_word_component_shared_across_span(self):
        vocab = CharVocab("xyz")
        lx = lex({"xyz": [0.5, -0.5]})
        rng = np.random.default_rng(2)
        p = self.make(vocab, 2, 4, rng=rng)
        out = mix_embed("xyz", vocab, lx, p)
        # subtract char rows; the word component of all 3 rows must agree
        comps = out.data - p.char_table.data[[vocab.id_of(c) for c in "xyz"], :]
        np.testing.assert_allclose(comps[0], comps[1], atol=1e-15)
        np.testing.assert_allclose(comps[1], comps[2], atol=1e-15)
        expected = np.asarray([0.5, -0.5]) @ p.projection.data
        np.testing.assert_allclose(comps[0], expected, atol=1e-15)

    def test_row_count_equals_char_count(self):
        vocab = CharVocab("abcdef")
        lx = lex({"ab": [1.0], "cde": [2.0]})
        p = self.make(vocab, 1, 3)
        for text in ("a", "abc", "abcdef", "zzz"):
            assert mix_embed(text, vocab, lx, p).shape == (len(text), 3)

    def test_gradients_reach_table_and_projection_not_lexicon(self):
        vocab = CharVocab("xy")
        vec = np.array([1.0, 2.0])
        lx = lex({"xy": vec})
        p = self.make(vocab, 2, 3)
        before = lx.get("xy").copy()
        out = mix_embed("xy", vocab, lx, p)
        nm.backward(nm.sum_all(out))
        assert np.any(p.char_table.grad != 0)
        assert np.any(p.projection.grad != 0)
        np.testing.assert_array_equal(lx.get("xy"), before)

    def test_gradient_matches_finite_differences(self):
        vocab = CharVocab("pqr")
        lx = lex({"pq": [0.3, -0.7], "r": [1.1, 0.2]})
        rng = np.random.default_rng(4)
        p = self.make(vocab, 2, 3, rng=rng)
        w = np.cos(np.arange(9)).reshape(3, 3)

        def loss():
            return float((mix_embed("pqr", vocab, lx, p).data * w).sum())

        out = mix_embed("pqr", vocab, lx, p)
        nm.backward(nm.sum_all(nm.mul(out, Tensor(w))))
        for theta in (p.char_table, p.projection):
            fd = finite_diff_grad(loss, theta, h=1e-5)
            assert relative_error(theta.grad, fd) < 1e-4

    def test_repeated_and_oov_chars_gradient(self):
        # 'p' three times, 'z' out of vocabulary (UNK row 0); 'r' and 's' absent
        vocab = CharVocab("pqrs")
        lx = lex({"pq": [0.3, -0.7], "zp": [1.1, 0.2]})
        p = self.make(vocab, 2, 3, rng=np.random.default_rng(5))
        text = "pqpzp"
        w = np.cos(np.arange(15)).reshape(5, 3)

        def loss():
            return float((mix_embed(text, vocab, lx, p).data * w).sum())

        out = mix_embed(text, vocab, lx, p)
        nm.backward(nm.sum_all(nm.mul(out, Tensor(w))))
        for theta in (p.char_table, p.projection):
            fd = finite_diff_grad(loss, theta, h=1e-5)
            assert relative_error(theta.grad, fd) < 1e-4
        absent = [vocab.id_of("r"), vocab.id_of("s")]
        np.testing.assert_array_equal(p.char_table.grad[absent], 0.0)
        assert np.all(p.char_table.grad[[0, 1, 2]] != 0)


def test_unk_constant_exported():
    assert embedding.UNK == "<unk>"
