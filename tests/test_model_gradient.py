"""The whole model composed at tiny dims: mixed embedding, Bi-GRU encoder,
self-attention and the label-feedback decoder under a mean cross-entropy
against the gold tags of one triple. Every parameter's gradient is checked
against finite differences."""

import numpy as np
import pytest

from helpers import finite_diff_grad, lexicon_of, named_tensors, relative_error
from tripletag import numerics as nm
from tripletag.attention import AttnParams, attend
from tripletag.decoder import DecoderParams, decode_sequence
from tripletag.embedding import CharVocab, EmbedParams, mix_embed
from tripletag.encoder import BiGruParams, encode
from tripletag.tagging import Triple, build_scheme, encode_tags

M, WORD_DIM, D_ENC, D_DEC, TAU = 2, 3, 2, 3, 2
TEXT = "王五创办乙"  # 创办 is the lexicon word, 乙 is out of vocabulary


def cross_entropy(probs, gold):
    """Mean over characters of -log p(gold tag), as one graph node."""
    n = len(gold)
    rows = np.arange(n)
    picked = probs.data[rows, gold]

    def backward(g):
        d = np.zeros_like(probs.data)
        d[rows, gold] = -g[0, 0] / (n * picked)
        nm.accumulate(probs, d)

    return nm.result(np.array([[-np.log(picked).mean()]]), (probs,), backward)


@pytest.mark.parametrize("seed", range(3))
def test_every_parameter_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    scheme = build_scheme(["founder"])
    gold = encode_tags(len(TEXT), [Triple(head="王五", head_span=(0, 2), tail="乙",
                                          tail_span=(4, 5), relation="founder")], scheme)
    vocab = CharVocab("王五创办")
    lexicon = lexicon_of({"创办": rng.uniform(-1, 1, WORD_DIM)})
    embed = EmbedParams.init(rng, len(vocab), M, WORD_DIM)
    enc = BiGruParams.init(rng, M, D_ENC)
    att = AttnParams.init(rng, 2 * D_ENC)
    dec = DecoderParams.init(rng, att.d_k, D_DEC, TAU, scheme.k)
    named = ([("embedding." + n, t) for n, t in named_tensors(embed)]
             + [(f"encoder.{side}.{n}", t) for side in ("forward", "backward")
                for n, t in named_tensors(getattr(enc, side))]
             + [("attention." + n, t) for n, t in named_tensors(att)]
             + [("decoder." + n, t) for n, t in named_tensors(dec)])

    def loss():
        E = mix_embed(TEXT, vocab, lexicon, embed)
        _, probs = decode_sequence(attend(encode(E, enc), att), dec)
        return cross_entropy(probs, gold)

    nm.backward(loss())
    for name, theta in named:
        fd = finite_diff_grad(lambda: loss().item(), theta)
        # the differences of a loss near 2 carry ~1e-11 of rounding, so the
        # error is taken relative to at least 1e-6
        assert relative_error(theta.grad, fd, atol=1e-6) < 1e-4, name
