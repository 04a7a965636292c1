import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import f1, random_valid_sentence, reference_decode, tag_name
from tripletag import tagging
from tripletag.tagging import (
    TagEncodeError, Triple, build_scheme, decode_triples, encode_tags)


class TestScheme:
    def test_nineteen_relations_gives_153_tags(self):
        scheme = build_scheme([f"R{i}" for i in range(19)])
        assert scheme.k == 153

    def test_single_relation_gives_9_tags(self):
        assert build_scheme(["r"]).k == 9

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_scheme(["r", "r"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_scheme([])

    @pytest.mark.parametrize("relations", [(), ("a", "a"), ("a", "b", "a")],
                             ids=["empty", "adjacent", "apart"])
    def test_direct_construction_checked(self, relations):
        with pytest.raises(ValueError, match="empty|duplicate"):
            tagging.TagScheme(relations)

    def test_hashable_and_equal_schemes_share_a_key(self):
        a, b = build_scheme(["a", "b"]), build_scheme(["a", "b"])
        assert hash(a) == hash(b)
        assert {a: "first"}[b] == "first"
        assert len({a, b, build_scheme(["b", "a"])}) == 2
        from_list = tagging.TagScheme(["a", "b"])
        assert from_list == a and hash(from_list) == hash(a)

    def test_every_valid_field_triple_round_trips(self):
        scheme = build_scheme(["a", "b", "c"])
        fields = list(itertools.product(tagging.POSITIONS, scheme.relations,
                                        (tagging.HEAD, tagging.TAIL)))
        ids = [scheme.tag_id(*f) for f in fields]
        assert sorted(ids) == list(range(1, scheme.k))
        assert [scheme.tag_info(i) for i in ids] == fields
        assert scheme.tag_info(0) is None

    def test_ids_follow_the_documented_layout(self):
        scheme = build_scheme(["a", "b", "c"])
        for p, position in enumerate(tagging.POSITIONS):
            for r, relation in enumerate(scheme.relations):
                for role in (tagging.HEAD, tagging.TAIL):
                    assert scheme.tag_id(position, relation, role) == \
                           1 + p * 2 * len(scheme.relations) + r * 2 + (role - 1)

    @pytest.mark.parametrize("position, relation, role, message", [
        ("B", "a", 3, "role 3"),
        ("B", "a", 0, "role 0"),
        ("B", "a", -1, "role -1"),
        ("X", "a", 1, "position 'X'"),
        ("O", "a", 1, "position 'O'"),
        ("B", "z", 1, "relation 'z'"),
    ])
    def test_a_bad_field_is_rejected_by_name(self, position, relation, role, message):
        with pytest.raises(ValueError, match=message):
            build_scheme(["a", "b"]).tag_id(position, relation, role)


class TestEncode:
    def test_relation_outside_scheme_rejected(self):
        scheme = build_scheme(["r"])
        with pytest.raises(TagEncodeError, match="'s'"):
            encode_tags(5, [Triple("a", (0, 1), "c", (2, 3), "s")], scheme)

    def test_no_triples_all_other(self):
        scheme = build_scheme(["r"])
        assert encode_tags(5, [], scheme) == [0] * 5

    def test_single_triple_layout(self):
        scheme = build_scheme(["r"])
        t = Triple("ab", (0, 2), "d", (3, 4), "r")
        tags = encode_tags(5, [t], scheme)
        names = [tag_name(scheme, x) for x in tags]
        assert names == ["B-r-1", "E-r-1", "O", "S-r-2", "O"]

    def test_three_char_span_uses_bie(self):
        scheme = build_scheme(["r"])
        t = Triple("abc", (0, 3), "e", (4, 5), "r")
        names = [tag_name(scheme, x) for x in encode_tags(5, [t], scheme)]
        assert names == ["B-r-1", "I-r-1", "E-r-1", "O", "S-r-2"]

    def test_overlap_error_names_colliders(self):
        scheme = build_scheme(["r", "s"])
        t1 = Triple("ab", (0, 2), "c", (3, 4), "r")
        t2 = Triple("b", (1, 2), "e", (5, 6), "s")
        with pytest.raises(TagEncodeError, match="collision"):
            encode_tags(6, [t1, t2], scheme)

    def test_head_tail_overlap_within_triple(self):
        scheme = build_scheme(["r"])
        with pytest.raises(TagEncodeError, match="overlaps"):
            encode_tags(5, [Triple("ab", (0, 2), "bc", (1, 3), "r")], scheme)

    def test_span_out_of_bounds(self):
        scheme = build_scheme(["r"])
        with pytest.raises(TagEncodeError, match="outside"):
            encode_tags(3, [Triple("ab", (0, 2), "x", (3, 4), "r")], scheme)


class TestDecode:
    def test_all_other_empty(self):
        scheme = build_scheme(["r"])
        assert decode_triples([0] * 5, "abcde", scheme) == []

    def test_inverse_of_encode_example(self):
        scheme = build_scheme(["r"])
        tags = [scheme.tag_id("B", "r", 1), scheme.tag_id("E", "r", 1), 0,
                scheme.tag_id("S", "r", 2), 0]
        out = decode_triples(tags, "abcde", scheme)
        assert out == [Triple("ab", (0, 2), "d", (3, 4), "r")]

    def test_dangling_fragments_dropped(self):
        scheme = build_scheme(["r"])
        b, i, e = (scheme.tag_id(p, "r", 1) for p in "BIE")
        assert decode_triples([b, i, i, 0], "abcd", scheme) == []
        assert decode_triples([i, e, 0, 0], "abcd", scheme) == []
        assert decode_triples([e, 0, b, 0], "abcd", scheme) == []

    def test_role_switch_mid_span_dropped(self):
        scheme = build_scheme(["r"])
        tags = [scheme.tag_id("B", "r", 1), scheme.tag_id("I", "r", 2),
                scheme.tag_id("E", "r", 1)]
        assert decode_triples(tags, "abc", scheme) == []

    def test_nearest_pairing_tie_goes_right(self):
        scheme = build_scheme(["r"])
        s1, s2 = scheme.tag_id("S", "r", 1), scheme.tag_id("S", "r", 2)
        # tails at 0 and 4, head at 2: both at distance 1 -> pick position 4
        out = decode_triples([s2, 0, s1, 0, s2], "abcde", scheme)
        assert out == [Triple("c", (2, 3), "e", (4, 5), "r")]

    @pytest.mark.parametrize("n_tags", [2, 4])
    def test_tag_count_must_match_text(self, n_tags):
        scheme = build_scheme(["r"])
        s1, s2 = scheme.tag_id("S", "r", 1), scheme.tag_id("S", "r", 2)
        tags = ([s1, s2] + [0] * n_tags)[:n_tags]
        with pytest.raises(ValueError, match=f"{n_tags} tags for 3 characters"):
            decode_triples(tags, "abc", scheme)

    @pytest.mark.parametrize("tag", [9, -1])
    def test_tag_id_outside_scheme_rejected(self, tag):
        with pytest.raises(ValueError, match=rf"tag id {tag} outside \[0, 9\)"):
            decode_triples([0, tag, 0], "abc", build_scheme(["r"]))

    def test_unpaired_mentions_discarded(self):
        scheme = build_scheme(["r"])
        s1 = scheme.tag_id("S", "r", 1)
        assert decode_triples([s1, 0, s1], "abc", scheme) == []

    def test_never_emits_overlapping_or_mixed_relation(self):
        scheme = build_scheme(["a", "b"])
        rng = np.random.default_rng(7)
        for _ in range(300):
            tags = rng.integers(0, scheme.k, size=10).tolist()
            text = "x" * 10
            for t in decode_triples(tags, text, scheme):
                hs, he = t.head_span
                ts, te = t.tail_span
                assert not (max(hs, ts) < min(he, te))
                assert t.relation in scheme.relations


@pytest.mark.parametrize("seed", range(4))
def test_random_round_trip(seed):
    relations = ["r1", "r2", "r3", "r4"]
    scheme = build_scheme(relations)
    rng = np.random.default_rng(seed)
    for _ in range(250):
        text, triples = random_valid_sentence(rng, relations)
        tags = encode_tags(len(text), triples, scheme)
        decoded = decode_triples(tags, text, scheme)
        assert sorted(decoded, key=Triple.key) == sorted(triples, key=Triple.key)


def test_exhaustive_short_sequences_match_reference():
    scheme = build_scheme(["r"])
    text = "abcd"
    for combo in itertools.product(range(scheme.k), repeat=4):
        got = decode_triples(list(combo), text, scheme)
        want = reference_decode(list(combo), text, scheme)
        assert got == want, f"mismatch on {combo}"


@settings(max_examples=200, deadline=None)
# lengths are drawn first: a plain list strategy averages only a few elements
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=24), min_size=n, max_size=n)))
def test_decode_accepts_arbitrary_sequences(tags):
    scheme = build_scheme(["p", "q", "s"])
    text = "x" * len(tags)
    got = decode_triples(tags, text, scheme)
    assert got == reference_decode(tags, text, scheme)


class TestScore:
    """The exact-match triple F1 of `helpers.f1`, which the learning test
    reads."""

    def g(self, *keys):
        return [Triple("h", k[0], "t", k[1], k[2]) for k in keys]

    def test_perfect(self):
        gold = [self.g(((0, 1), (2, 3), "r"))] * 10
        assert f1(gold, gold) == 1.0

    def test_definitional_arithmetic(self):
        gold = [self.g(((0, 1), (2, 3), "r"), ((4, 5), (6, 7), "r"),
                       ((0, 1), (2, 3), "s"), ((4, 5), (6, 7), "s"),
                       ((8, 9), (10, 11), "r"))]
        pred = [self.g(((0, 1), (2, 3), "r"), ((4, 5), (6, 7), "r"),
                       ((9, 10), (2, 3), "s"), ((4, 5), (9, 10), "s"))]
        assert f1(pred, gold) == 2 * 2 / (4 + 5)  # precision 1/2, recall 2/5

    def test_empty_denominators(self):
        assert f1([[]], [[]]) == 0.0
        assert f1([self.g(((0, 1), (2, 3), "r"))], [[]]) == 0.0

    def test_each_gold_matchable_once(self):
        gold = [self.g(((0, 1), (2, 3), "r"))]
        pred = [self.g(((0, 1), (2, 3), "r"), ((0, 1), (2, 3), "r"))]
        assert f1(pred, gold) == 2 / 3  # one correct of two predicted, one gold

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^sentence count mismatch: 1 predicted vs 2 gold$"):
            f1([[]], [[], []])

    def test_permutation_symmetric(self):
        a = self.g(((0, 1), (2, 3), "r"), ((4, 5), (6, 7), "s"))
        assert f1([list(reversed(a))], [a]) == f1([a], [a]) == 1.0
