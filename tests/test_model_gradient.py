"""The benchmark's `pipeline.Model` at tiny dims, set up by its own
`pipeline.build_model` over a `corpus.write_word_vectors` file: mixed
embedding, Bi-GRU encoder, self-attention and the label-feedback decoder
under the benchmark's mean cross-entropy against the gold tags of one
triple. Every parameter's gradient is checked against finite differences."""

import numpy as np
import pytest

import corpus
import pipeline
from helpers import check_finite_differences, named_tensors
from tripletag.tagging import Triple, encode_tags

DIMS = pipeline.Dims(m=2, word_dim=3, d_enc=2, d_dec=3, tau=2)
TEXT = "王五创办乙"  # 创办 is the lexicon word, 乙 is out of vocabulary


@pytest.mark.parametrize("seed", range(3))
def test_every_parameter_gradient_matches_finite_differences(seed, tmp_path):
    vectors = tmp_path / "vectors.txt"
    corpus.write_word_vectors(vectors, seed, ["创办"], DIMS.word_dim)
    model = pipeline.build_model(vectors, list("王五创办"), ["founder"], DIMS, seed,
                                 learning_rate=1e-2)
    gold = encode_tags(len(TEXT), [Triple(head="王五", head_span=(0, 2), tail="乙",
                                          tail_span=(4, 5), relation="founder")],
                       model.scheme)
    # the differences of a loss near 2 carry ~1e-11 of rounding, so the error
    # is taken relative to at least 1e-6
    check_finite_differences(
        lambda: pipeline.cross_entropy(pipeline.forward(model, TEXT)[1], gold),
        named_tensors(model), np.ones((1, 1)), atol=1e-6)
