"""The one-node kernels (the mixed embedding, the encoder, attention and the
decoder) against the straight-line references of tests/helpers.py: the
values directly, and every input's and parameter's gradient against the
oracle, the complex-step derivative of the reference along a random
direction. Each kernel is compared with its reference here; the per-layer
files hold hand cases, invariants, input checks and finite differences. Also
the graph size and the gradient gate the kernels rely on."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    arrays, complex_step, lexicon_of, named_tensors, reference_attend,
    reference_decode_rollout, reference_gru_sequence, reference_mix_embed, weighted)
from pipeline import graph_nodes  # the benchmark's node count
from tripletag import numerics as nm
from tripletag.attention import AttnParams, attend
from tripletag.decoder import DecoderParams, decode_sequence
from tripletag.embedding import CharVocab, EmbedParams, mix_embed
from tripletag.encoder import BiGruParams, encode
from tripletag.numerics import Tensor

ATOL = 1e-12
GRAD_RTOL = 1e-12


def assert_gradients_match(out, reference, named, rng):
    """A kernel's backward against the reference's complex-step slope.

    out is the kernel's output tensor; reference(x) the reference's output
    for x, a dict that maps each name in `named` to an array. For the loss
    sum(w * out) with random weights w, and one random direction v per
    tensor, sum(grad * v) must equal the slope along v to GRAD_RTOL
    relative to sum(|grad * v|), or absolute where that sum is below one: a
    softmax that saturates leaves gradients near 1e-5 whose rounding,
    relative to them, can pass 1e-12.
    """
    w = rng.uniform(-1, 1, out.shape)
    for _, t in named:
        t.zero_grad()
    nm.backward(weighted(out, w))
    x = {name: t.data for name, t in named}
    for name, t in named:
        v = rng.uniform(-1, 1, t.shape)
        slope = complex_step(lambda a: (w * reference({**x, name: a})).sum(), t.data, v)
        terms = t.grad * v
        scale = max(np.abs(terms).sum(), 1.0)
        assert abs(terms.sum() - slope) <= GRAD_RTOL * scale, name


def check_encode(rng, n, m, d):
    p = BiGruParams.init(rng, m, d)
    E = Tensor(rng.uniform(-2, 2, (n, m)), requires_grad=True)
    named = [("E", E)] + named_tensors(p)

    def reference(x):
        fwd, bwd = ({f: x[side + "." + f] for f in arrays(p.forward)}
                    for side in ("forward", "backward"))
        return np.hstack([reference_gru_sequence(x["E"], fwd),
                          reference_gru_sequence(x["E"][::-1], bwd)[::-1]])

    out = encode(E, p)
    np.testing.assert_allclose(out.data, reference({name: t.data for name, t in named}),
                               rtol=0, atol=ATOL)
    assert_gradients_match(out, reference, named, rng)


def check_decode_sequence(rng, n, d_v, d_dec, tau, k):
    p = DecoderParams.init(rng, d_v, d_dec, tau, k)
    p.b_Y.data[:] = rng.uniform(-1, 1, (1, k))  # a bias that is not zero
    Hstar = Tensor(rng.uniform(-2, 2, (n, d_v)), requires_grad=True)
    ids, probs = decode_sequence(Hstar, p)
    _, want = reference_decode_rollout(Hstar.data, arrays(p))
    np.testing.assert_allclose(probs.data, want, rtol=0, atol=ATOL)
    assert ids == np.argmax(want, axis=1).tolist()
    assert_gradients_match(probs, lambda x: reference_decode_rollout(x["h_stars"], x)[1],
                           [("h_stars", Hstar)] + named_tensors(p), rng)


def check_attend(rng, n, d):
    p = AttnParams.init(rng, d)
    H = Tensor(rng.uniform(-2, 2, (n, d)), requires_grad=True)
    out = attend(H, p)
    np.testing.assert_allclose(out.data, reference_attend(H.data, arrays(p)),
                               rtol=0, atol=ATOL)
    assert_gradients_match(out, lambda x: reference_attend(x["H"], x),
                           [("H", H)] + named_tensors(p), rng)


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
    vectors = {w: rng.uniform(-1, 1, d_w) for w in sorted(words)}
    p = EmbedParams.init(rng, len(vocab), m, d_w)
    out = mix_embed(text, vocab, lexicon_of(vectors), p)
    args = (text, vocab, vectors)
    np.testing.assert_allclose(out.data, reference_mix_embed(*args, arrays(p)),
                               rtol=0, atol=ATOL)
    assert_gradients_match(out, lambda x: reference_mix_embed(*args, x),
                           named_tensors(p), rng)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), m=dims, d=dims, seed=st.integers(0, 2**32 - 1))
@example(n=1, m=3, d=2, seed=0)  # a single step each way, on every run
def test_encode_matches_reference_and_oracle(n, m, d, seed):
    check_encode(np.random.default_rng(seed), n, m, d)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), d_v=dims, d_dec=dims, tau=st.integers(1, 4),
       k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
@example(n=1, d_v=3, d_dec=2, tau=2, k=4, seed=0)  # a single step, on every run
def test_decode_sequence_matches_reference_and_oracle(n, d_v, d_dec, tau, k, seed):
    check_decode_sequence(np.random.default_rng(seed), n, d_v, d_dec, tau, k)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), d=dims, seed=st.integers(0, 2**32 - 1))
@example(n=1, d=3, seed=0)  # a single row, on every run
def test_attend_matches_oracle(n, d, seed):
    check_attend(np.random.default_rng(seed), n, d)


def test_model_sized_kernels_match_oracle():
    # the benchmark's dims: d = 100, tau = 50, a 40-character sentence; attention
    # reads the 200-wide encoder output, also at train_long's longest length
    check_encode(np.random.default_rng(0), 40, 100, 100)
    check_attend(np.random.default_rng(8), 40, 200)
    check_attend(np.random.default_rng(9), 160, 200)
    check_decode_sequence(np.random.default_rng(1), 40, 200, 100, 50, 20)


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
    assert counts == [3, 3, 3], counts  # encode, attend, decode_sequence


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


def test_decoder_is_one_node_above_its_input():
    rng = np.random.default_rng(11)
    X = Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
    p = DecoderParams.init(rng, 4, 3, 2, 5)
    _, probs = decode_sequence(X, p)
    assert graph_nodes(probs) == 1
    assert probs._parents == (X, p.W, p.U_zr, p.U, p.b, p.V, p.W_T, p.b_T,
                              p.W_Y, p.b_Y)


@pytest.mark.parametrize("n", [1, 7])
def test_kernels_leave_their_input_bit_identical(n):
    # the forward loops overwrite a whole-sequence array in place, which must
    # never be the input's data; the input is 6 wide, the width of encode's
    # gate rows at d = 1 and of the decoder's at d = 2, so an alias would fit
    rng = np.random.default_rng(12)
    kernels = (lambda X: encode(X, BiGruParams.init(rng, 6, 1)),
               lambda X: attend(X, AttnParams.init(rng, 6)),
               lambda X: decode_sequence(X, DecoderParams.init(rng, 6, 2, 2, 5))[1])
    for kernel in kernels:
        X = Tensor(rng.uniform(-2, 2, (n, 6)), requires_grad=True)
        before = X.data.copy()
        out = kernel(X)
        np.testing.assert_array_equal(X.data, before)
        nm.backward(weighted(out, rng.uniform(-1, 1, out.shape)))
        np.testing.assert_array_equal(X.data, before)
        assert X.grad.any()


def test_char_id_outside_char_table_rejected():
    vocab = CharVocab("abc")
    lexicon = lexicon_of({"ab": np.ones(2)})
    p = EmbedParams.init(np.random.default_rng(6), len(vocab) - 1, 3, 2)  # no row for c
    assert mix_embed("ab", vocab, lexicon, p).shape == (2, 3)
    with pytest.raises(nm.DimensionError, match="char id 3"):
        mix_embed("abc", vocab, lexicon, p)


def test_constant_operand_takes_no_gradient():
    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    c = Tensor(rng.uniform(-1, 1, (3, 3)))
    nm.backward(nm.sum_all(nm.mul(nm.mul(x, c), nm.mul(c, x))))
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
