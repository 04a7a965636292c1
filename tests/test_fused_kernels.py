"""The one-node kernels (the mixed embedding, the encoder and decoder
recurrences, attention and the tag head) against straight-line references
and the autodiff oracles of tests/helpers.py, and the gradient gate they rely
on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    add, gru_node, lexicon_of, matmul, named_tensors, oracle_attend,
    oracle_decode_rows, oracle_gru_rows, oracle_mix_embed,
    oracle_tag_distribution, reference_decode_rollout, reference_gru_sequence,
    reference_mix_embed, weighted_row_sum)
from tripletag import numerics as nm
from tripletag.attention import AttnParams, attend
from tripletag.decoder import (DecoderParams, decode_sequence,
                               label_feedback_sequence, tag_distribution)
from tripletag.embedding import CharVocab, EmbedParams, mix_embed
from tripletag.encoder import BiGruParams, GruParams, encode
from tripletag.numerics import Tensor

ATOL = 1e-12


def gradients(loss_fn, thetas):
    """Fresh gradients of loss_fn() for every tensor in thetas."""
    for t in thetas:
        t.grad = np.zeros_like(t.data)
    nm.backward(loss_fn())
    return [t.grad.copy() for t in thetas]


def assert_same_gradients(fused_loss, oracle_loss, named):
    fused = gradients(fused_loss, [t for _, t in named])
    oracle = gradients(oracle_loss, [t for _, t in named])
    for (name, _), a, b in zip(named, fused, oracle):
        np.testing.assert_allclose(a, b, rtol=0, atol=ATOL, err_msg=name)


def weighted(out, weights):
    return nm.sum_all(nm.mul(out, Tensor(weights)))


def check_gru_sequence(rng, n, m, d):
    p = GruParams.init(rng, m, d)
    X = Tensor(rng.uniform(-2, 2, (n, m)), requires_grad=True)
    w = rng.uniform(-1, 1, (n, d))
    np.testing.assert_allclose(gru_node(X, p).data,
                               reference_gru_sequence(X.data, p), rtol=0, atol=ATOL)
    assert_same_gradients(lambda: weighted(gru_node(X, p), w),
                          lambda: weighted_row_sum(oracle_gru_rows(X, p), w),
                          [("X", X)] + named_tensors(p))


def check_encode(rng, n, m, d):
    p = BiGruParams.init(rng, m, d)
    E = Tensor(rng.uniform(-2, 2, (n, m)), requires_grad=True)
    w = rng.uniform(-1, 1, (n, 2 * d))
    want = np.hstack([reference_gru_sequence(E.data, p.forward),
                      reference_gru_sequence(E.data[::-1], p.backward)[::-1]])
    np.testing.assert_allclose(encode(E, p).data, want, rtol=0, atol=ATOL)

    def oracle():
        return add(
            weighted_row_sum(oracle_gru_rows(E, p.forward), w[:, :d]),
            weighted_row_sum(oracle_gru_rows(E, p.backward, reverse=True), w[:, d:]))

    named = [("E", E)] + [(side + "." + name, t) for side in ("forward", "backward")
                          for name, t in named_tensors(getattr(p, side))]
    assert_same_gradients(lambda: weighted(encode(E, p), w), oracle, named)


def check_decode_sequence(rng, n, d_v, d_dec, tau, k):
    p = DecoderParams.init(rng, d_v, d_dec, tau, k)
    Hstar = Tensor(rng.uniform(-2, 2, (n, d_v)), requires_grad=True)
    w = rng.uniform(-1, 1, (n, k))
    ids, probs = decode_sequence(Hstar, p)
    _, want = reference_decode_rollout(Hstar.data, p)
    np.testing.assert_allclose(probs.data, want, rtol=0, atol=ATOL)
    assert ids == np.argmax(want, axis=1).tolist()
    assert_same_gradients(lambda: weighted(decode_sequence(Hstar, p)[1], w),
                          lambda: weighted_row_sum(oracle_decode_rows(Hstar, p)[2], w),
                          [("h_stars", Hstar)] + named_tensors(p))


def check_attend(rng, n, d):
    p = AttnParams.init(rng, d)
    H = Tensor(rng.uniform(-2, 2, (n, d)), requires_grad=True)
    w = rng.uniform(-1, 1, (n, d))
    np.testing.assert_allclose(attend(H, p).data, oracle_attend(H, p).data,
                               rtol=0, atol=ATOL)
    assert_same_gradients(lambda: weighted(attend(H, p), w),
                          lambda: weighted(oracle_attend(H, p), w),
                          [("H", H)] + named_tensors(p))


def check_tag_distribution(rng, n, tau, k):
    p = DecoderParams.init(rng, 2, 2, tau, k)
    p.b_Y.data[:] = rng.uniform(-1, 1, (1, k))  # a bias that is not zero
    T = Tensor(rng.uniform(-1, 1, (n, tau)), requires_grad=True)
    w = rng.uniform(-1, 1, (n, k))
    np.testing.assert_allclose(tag_distribution(T, p).data,
                               oracle_tag_distribution(T, p).data, rtol=0, atol=ATOL)
    assert_same_gradients(lambda: weighted(tag_distribution(T, p), w),
                          lambda: weighted(oracle_tag_distribution(T, p), w),
                          [("T", T), ("W_Y", p.W_Y), ("b_Y", p.b_Y)])


dims = st.integers(1, 5)


@settings(max_examples=100, deadline=None)
@given(text=st.text(alphabet="abcxy", min_size=1, max_size=12),
       words=st.sets(st.text(alphabet="abcxy", min_size=1, max_size=3),
                     min_size=1, max_size=6),
       m=dims, d_w=dims, seed=st.integers(0, 2**32 - 1))
def test_mix_embed_matches_reference_and_oracle(text, words, m, d_w, seed):
    rng = np.random.default_rng(seed)
    vocab = CharVocab("abc")
    text += text[0] + "x"  # a repeated character and an out-of-vocabulary one
    lexicon = lexicon_of({w: rng.uniform(-1, 1, d_w) for w in sorted(words)})
    p = EmbedParams.init(rng, len(vocab), m, d_w)
    w = rng.uniform(-1, 1, (len(text), m))
    args = (text, vocab, lexicon, p)
    np.testing.assert_allclose(mix_embed(*args).data, reference_mix_embed(*args),
                               rtol=0, atol=ATOL)
    assert_same_gradients(lambda: weighted(mix_embed(*args), w),
                          lambda: weighted(oracle_mix_embed(*args), w), named_tensors(p))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), m=dims, d=dims, seed=st.integers(0, 2**32 - 1))
def test_gru_sequence_matches_reference_and_oracle(n, m, d, seed):
    check_gru_sequence(np.random.default_rng(seed), n, m, d)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), m=dims, d=dims, seed=st.integers(0, 2**32 - 1))
def test_encode_matches_reference_and_oracle(n, m, d, seed):
    check_encode(np.random.default_rng(seed), n, m, d)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), d_v=dims, d_dec=dims, tau=st.integers(1, 4),
       k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_decode_sequence_matches_reference_and_oracle(n, d_v, d_dec, tau, k, seed):
    check_decode_sequence(np.random.default_rng(seed), n, d_v, d_dec, tau, k)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), d=dims, seed=st.integers(0, 2**32 - 1))
def test_attend_matches_oracle(n, d, seed):
    check_attend(np.random.default_rng(seed), n, d)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), tau=st.integers(1, 4), k=st.integers(2, 5),
       seed=st.integers(0, 2**32 - 1))
def test_tag_distribution_matches_oracle(n, tau, k, seed):
    check_tag_distribution(np.random.default_rng(seed), n, tau, k)


def test_model_sized_kernels_match_oracle():
    # the benchmark's dims: d = 100, tau = 50, a 40-character sentence; attention
    # reads the 200-wide encoder output, also at train_long's longest length
    check_encode(np.random.default_rng(0), 40, 100, 100)
    check_attend(np.random.default_rng(8), 40, 200)
    check_attend(np.random.default_rng(9), 160, 200)
    check_decode_sequence(np.random.default_rng(1), 40, 200, 100, 50, 20)


def graph_nodes(out):
    """Op nodes recorded from out back to the leaves."""
    seen, stack, count = {id(out)}, [out], 0
    while stack:
        node = stack.pop()
        if node._parents:
            count += 1
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return count


def test_graph_size_does_not_grow_with_sentence_length():
    rng = np.random.default_rng(2)
    enc = BiGruParams.init(rng, 4, 3)
    att = AttnParams.init(rng, 6)
    dec = DecoderParams.init(rng, att.d_k, 3, 2, 5)
    counts = []
    for n in (1, 8, 40):
        E = Tensor(rng.uniform(-1, 1, (n, 4)), requires_grad=True)
        _, probs = decode_sequence(attend(encode(E, enc), att), dec)
        counts.append(graph_nodes(probs))
    assert counts[0] == counts[1] == counts[2], counts


def test_encode_is_one_node_above_its_input():
    rng = np.random.default_rng(4)
    E = Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
    out = encode(E, BiGruParams.init(rng, 3, 2))
    assert graph_nodes(out) == 1
    assert out._parents[0] is E


def test_mix_embed_is_one_node_above_its_parameters():
    vocab = CharVocab("ab")
    p = EmbedParams.init(np.random.default_rng(5), len(vocab), 3, 2)
    out = mix_embed("abza", vocab, lexicon_of({"ab": np.ones(2)}), p)
    assert graph_nodes(out) == 1
    assert out._parents == (p.char_table, p.projection)


def test_attend_is_one_node_above_its_inputs():
    rng = np.random.default_rng(10)
    H = Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
    p = AttnParams.init(rng, 4)
    out = attend(H, p)
    assert graph_nodes(out) == 1
    assert out._parents == (H, p.W_Q, p.W_K, p.W_V)


def test_decoder_is_two_nodes_above_its_input():
    rng = np.random.default_rng(11)
    X = Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
    p = DecoderParams.init(rng, 4, 3, 2, 5)
    _, probs = decode_sequence(X, p)
    assert graph_nodes(probs) == 2
    T = probs._parents[0]
    assert probs._parents == (T, p.W_Y, p.b_Y)
    assert T._parents[0] is X
    np.testing.assert_array_equal(T.data, label_feedback_sequence(X, p).data)
    np.testing.assert_array_equal(probs.data, tag_distribution(T, p).data)


def test_char_id_outside_char_table_rejected():
    vocab = CharVocab("abc")
    lexicon = lexicon_of({"ab": np.ones(2)})
    p = EmbedParams.init(np.random.default_rng(6), len(vocab) - 1, 3, 2)  # no row for c
    assert mix_embed("ab", vocab, lexicon, p).shape == (2, 3)
    with pytest.raises(nm.DimensionError, match="char id 3"):
        mix_embed("abc", vocab, lexicon, p)


@pytest.mark.parametrize("op", [nm.mul, matmul], ids=["mul", "matmul"])
def test_constant_operand_takes_no_gradient(op):
    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    c = Tensor(rng.uniform(-1, 1, (3, 3)))
    nm.backward(nm.sum_all(add(op(x, c), op(c, x))))
    assert c.grad is None
    assert np.all(x.grad != 0)


@pytest.mark.parametrize("width", [2, 4])
def test_wrong_input_width_rejected(width):
    rng = np.random.default_rng(3)
    with pytest.raises(nm.DimensionError):
        encode(Tensor(np.zeros((3, width))), BiGruParams.init(rng, 3, 2))
    with pytest.raises(nm.DimensionError):
        decode_sequence(Tensor(np.zeros((3, width))), DecoderParams.init(rng, 3, 2, 2, 3))
    with pytest.raises(nm.DimensionError, match="attend: input width"):
        attend(Tensor(np.zeros((3, width))), AttnParams.init(rng, 3))
