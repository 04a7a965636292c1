"""The whole model composed at tiny dims: mixed embedding, Bi-GRU encoder,
self-attention and the label-feedback decoder under the benchmark's mean
cross-entropy against the gold tags of one triple. Every parameter's gradient
is checked against finite differences."""

import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import Model, check_finite_differences, lexicon_of, named_tensors
from tripletag.embedding import CharVocab
from tripletag.tagging import Triple, build_scheme, encode_tags

# the benchmark's own loss, loaded as tools/fingerprint.py loads the
# benchmark, so the gradient checked is the one the benchmark trains
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from pipeline import cross_entropy  # noqa: E402

M, WORD_DIM, D_ENC, D_DEC, TAU = 2, 3, 2, 3, 2
TEXT = "王五创办乙"  # 创办 is the lexicon word, 乙 is out of vocabulary


@pytest.mark.parametrize("seed", range(3))
def test_every_parameter_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    scheme = build_scheme(["founder"])
    gold = encode_tags(len(TEXT), [Triple(head="王五", head_span=(0, 2), tail="乙",
                                          tail_span=(4, 5), relation="founder")], scheme)
    lexicon = lexicon_of({"创办": rng.uniform(-1, 1, WORD_DIM)})
    model = Model.init(rng, CharVocab("王五创办"), lexicon, M, D_ENC, D_DEC, TAU,
                       scheme.k)
    # the differences of a loss near 2 carry ~1e-11 of rounding, so the error
    # is taken relative to at least 1e-6
    check_finite_differences(lambda: cross_entropy(model.forward(TEXT)[1], gold),
                             named_tensors(model), np.ones((1, 1)), atol=1e-6)
