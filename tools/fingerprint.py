"""Bit-identity fingerprint of the benchmark pipeline.

    python3 tools/fingerprint.py <repo root>

Runs one episode of each benchmark workload through the checkout's own
`perfbench` pipeline (imported, never modified) on seeds 3 and 5, from the
benchmark's initial parameters. For each it prints the first 16 hex digits of
the sha256 of a newline-joined list of `float.hex` values:

- `train_short` and `train_long`: the per-step losses, and every final
  parameter value in model order;
- `infer_mixed`: every probability of every prediction, row by row;
- every workload: the loaded word lexicon, as each generated word in order
  followed by the `float.hex` of every value of its vector.

Two checkouts that print the same lines compute the same bits. Run it on a
parent commit and on a change to check that a refactor kept the outputs.
The bits depend on the BLAS thread count, so it is pinned at two, the count
the prefixes recorded in CHANGES.md were taken with.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (3, 5)
BLAS_THREADS = "2"


def digest(values) -> str:
    return digest_text(float(v).hex() for v in values)


def digest_text(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def episode(run, name: str, seed: int) -> dict[str, str]:
    """The fingerprints of one episode of workload `name` on `seed`."""
    corpus, pipeline = run.corpus, run.pipeline
    w = run.WORKLOADS[name]
    relations = corpus.relation_names(run.N_RELATIONS)
    sents = corpus.make_corpus(seed, w.lengths, w.vocab_size, relations)
    words = corpus.lexicon_words(seed, [t for t, _ in sents], w.lexicon_words,
                                 w.vocab_size)
    with tempfile.TemporaryDirectory() as tmp:
        vectors = Path(tmp) / "vectors.txt"
        corpus.write_word_vectors(vectors, seed, words, w.dims.word_dim)
        model = pipeline.build_model(vectors, corpus.alphabet(w.vocab_size), relations,
                                     w.dims, run.INIT_SEED, run.LEARNING_RATE)
    lexicon = digest_text(item for word, vec in zip(words, model.lexicon.vectors(words))
                          for item in (word, *(float(v).hex() for v in vec)))
    if w.kind == "predict":
        probs = (v for text, _ in sents
                 for v in pipeline.predict(model, text)[1].data.ravel())
        return {"lexicon": lexicon, "probs": digest(probs)}
    losses = []
    for text, triples in sents * w.passes:
        losses.append(pipeline.forward_backward(model, text, triples)[0])
        pipeline.update(model)
    params = (v for p in model.params for v in p.data.ravel())
    return {"lexicon": lexicon, "losses": digest(losses), "params": digest(params)}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/fingerprint.py <repo root>", file=sys.stderr)
        return 2
    bench = Path(argv[1]).resolve() / "perfbench"
    sys.path[:0] = [str(bench), str(bench.parent / "src")]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # BLAS reads its thread count when numpy loads, so numpy loads first:
    # perfbench/run.py sets one thread for its own timed runs
    import numpy  # noqa: F401
    import run

    for name in run.WORKLOADS:
        for seed in SEEDS:
            for what, prefix in episode(run, name, seed).items():
                print(f"{name:12s} seed {seed}  {what:6s} {prefix}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
