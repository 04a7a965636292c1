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
The bits depend on the BLAS thread count. The first 16 lines are taken at
two threads, the count the prefixes recorded in CHANGES.md were taken with.
The `losses`, `params` and `probs` lines follow again at the benchmark's own
count (`perfbench/run.py`'s `BLAS_THREADS`), each ending in `threads <n>`:
those are the bits the benchmark computes. The lexicon lines are not
repeated, as no BLAS call makes them. BLAS reads its thread count when
numpy loads, so each count runs in its own process.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

SEEDS = (3, 5)
RECORDED_THREADS = 2


def digest(values) -> str:
    return digest_text(float(v).hex() for v in values)


def digest_text(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def line(name: str, seed: int, what: str, prefix: str,
         threads: int | None = None) -> str:
    """One printed line; `threads` marks a line taken at the benchmark's
    thread count, and the recorded lines carry no mark."""
    text = f"{name:12s} seed {seed}  {what:6s} {prefix}"
    return text if threads is None else f"{text}  threads {threads}"


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


def fingerprints(root: str, threads: int | None) -> tuple[int, list[tuple]]:
    """The BLAS thread count used, `threads` or the benchmark's own when
    None, and every episode's (workload, seed, what, prefix). Call it in a
    process that has not loaded numpy."""
    bench = Path(root) / "perfbench"
    sys.path[:0] = [str(bench), str(bench.parent / "src")]
    if threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)
        # numpy loads first: perfbench/run.py sets its own count on import
        import numpy  # noqa: F401
    import run

    return (run.BLAS_THREADS if threads is None else threads,
            [(name, seed, what, prefix) for name in run.WORKLOADS for seed in SEEDS
             for what, prefix in episode(run, name, seed).items()])


def in_fresh_process(root: str, threads: int | None) -> tuple[int, list[tuple]]:
    """`fingerprints(root, threads)` in a new process of its own."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(fingerprints, root, threads).result()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/fingerprint.py <repo root>", file=sys.stderr)
        return 2
    root = str(Path(argv[1]).resolve())
    _, recorded = in_fresh_process(root, RECORDED_THREADS)
    for item in recorded:
        print(line(*item), flush=True)
    threads, benchmarked = in_fresh_process(root, None)
    for name, seed, what, prefix in benchmarked:
        if what != "lexicon":
            print(line(name, seed, what, prefix, threads))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
