"""tripletag benchmark: one closed-loop caller, one sentence per operation.

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists):
  train_short  train steps, 20-60 chars, 500-char vocab
  train_long   train steps, 120-200 chars, 5,000-char vocab
  infer_mixed  predict calls, 4-160 chars (mostly short), 5,000-char vocab

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is the
separate traced run: it times the workload's operations untraced, then traced
with a staged backward, then the other operation kind traced (so each
workload reports every layer), and reports per-layer metrics. Every
operation's outputs are checked; a failed check counts in `failed`. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # one caller, one core: keeps runs steady on a shared 2-core host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np

import corpus
import pipeline
from tracing import Tracer
from tripletag.tagging import decode_triples, encode_tags

SETUPS = 5
WARMUP_OPS = 2
N_RELATIONS = 19
LEXICON_WORDS = 20_000
LEARNING_RATE = 1e-2
INIT_SEED = 0  # the same initial parameters on every seed; only the inputs vary
PROB_SUM_TOL = 1e-9
STAGED_GRAD_TOL = 1e-10
OUT_DIR = HERE / "out"
# The reference kernel's time on an idle core of the 2-core x86-64 host the
# bounds were set on; see speed_factor.
REF_NOMINAL_NS = 1_600_000
_REF = np.random.default_rng(0).standard_normal((102, 100)) * 0.1

END_TO_END = {"chars_per_s": "chars/s", "sents_per_s": "sents/s", "op_ms_p50": "ms",
              "op_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MiB", "loss_end": "nats"}
BWD_LAYERS = pipeline.LAYERS + ("loss",)
PER_LAYER = {
    **{f"{layer}.fwd_ms": "ms" for layer in BWD_LAYERS},
    **{f"{layer}.bwd_ms": "ms" for layer in BWD_LAYERS},
    "numerics.backward_ms": "ms", "numerics.rmsprop_ms": "ms",
    "tagging.encode_ms": "ms", "tagging.decode_ms": "ms",
    "embedding.load_word_vectors_s": "s",
    **{f"{layer}.graph_nodes_per_char": "nodes/char" for layer in BWD_LAYERS},
    "numerics.graph_nodes_per_char": "nodes/char",
    "trace.op_ms": "ms", "trace.chars_per_s_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "predict"
    vocab_size: int
    lengths: tuple[int, ...]
    passes: int  # passes over the sentences per episode
    lexicon_words: int = LEXICON_WORDS
    dims: pipeline.Dims = pipeline.Dims()


WORKLOADS = {
    "train_short": Workload("train", 500, tuple(corpus.stratified_lengths(20, 60, 16)), 2),
    "train_long": Workload("train", 5000, tuple(corpus.stratified_lengths(120, 200, 8)), 2),
    "infer_mixed": Workload("predict", 5000, tuple(corpus.log_uniform_lengths(4, 160, 64)), 1),
}


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": platform.python_version()}


def speed_factor() -> float:
    """REF_NOMINAL_NS over the time of a fixed numpy kernel that shares no
    code with the program.

    On a shared host, contention from other tenants slows this kernel and the
    operations timed beside it alike (by up to 2x within a minute), so an
    operation's time times this factor is its time at a steady reference
    speed; that cuts the run-to-run spread about fivefold.
    """
    W, b, h = _REF[:100], _REF[100:101], _REF[101:]
    t0 = time.perf_counter_ns()
    for _ in range(300):
        h = np.tanh(h @ W + b) * 0.5 + h * 0.5
    return REF_NOMINAL_NS / (time.perf_counter_ns() - t0)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


def output_problem(model, text, triples, tags, P, gold=None) -> str | None:
    """Why one operation's outputs are wrong, or None when they are right."""
    probs = P.data
    if not np.isfinite(probs).all() or np.abs(probs.sum(axis=1) - 1.0).max() > PROB_SUM_TOL:
        return "probability rows do not sum to 1"
    if np.argmax(probs, axis=1).tolist() != list(tags):
        return "tag ids differ from the argmax"
    if gold is None:
        gold = encode_tags(len(text), triples, model.scheme)
    if decode_triples(gold, text, model.scheme) != triples:
        return "gold triples do not survive encode_tags -> decode_triples"
    return None


def train_problem(model, loss: float) -> str | None:
    # a non-finite gradient leaves a NaN in its parameter after rmsprop_step,
    # so reading the parameters after the update checks every gradient
    if not np.isfinite(loss):
        return "non-finite loss"
    if not all(np.isfinite(p.data).all() for p in model.params):
        return "non-finite gradient"
    return None


class Phase:
    """Runs one kind of operation over the sentences, episode after episode,
    until `seconds` have passed and at least one episode is complete.

    A train episode restarts from the initial parameters, so every episode
    must repeat the first one's losses bit for bit; a predict episode must
    repeat its tag ids.
    """

    def __init__(self, model, initial, sents, kind, passes, tally, tracer=None):
        self.model, self.initial, self.sents = model, initial, sents
        self.kind, self.passes, self.tally, self.tracer = kind, passes, tally, tracer
        self.op_ns: list[int] = []
        self.ns_by_sentence: list[list[int]] = [[] for _ in sents]
        self.first_episode: list = []
        self.nodes: dict[str, int] = {}
        self.node_chars = 0
        self._factor = speed_factor()

    def _at_reference_speed(self, ns: int) -> float:
        """Scale by the mean speed factor measured just before and just after."""
        after = speed_factor()
        scaled = ns * (self._factor + after) / 2
        self._factor = after
        return scaled

    def _op(self, j, text, triples):
        """Time one operation; return (value to repeat across episodes, why
        its outputs are wrong or None)."""
        model = self.model
        span = self.tracer.span if self.tracer else pipeline.no_span
        root = self.tracer.operation(self.kind) if self.tracer else nullcontext()
        staged = self.tracer is not None
        try:
            if self.kind == "train":
                t0 = time.perf_counter_ns()
                with root:
                    loss, gold, tags, P, stages, roots = pipeline.forward_backward(
                        model, text, triples, span, staged)
                    pipeline.update(model, span)
                ns = self._at_reference_speed(time.perf_counter_ns() - t0)
                problem = (train_problem(model, loss)
                           or output_problem(model, text, triples, tags, P, gold))
                if staged:
                    self._count_nodes(stages, roots)
                    self.node_chars += len(text)
                value = loss
            else:
                t0 = time.perf_counter_ns()
                with root:
                    tags, P, _ = pipeline.predict(model, text, span)
                ns = self._at_reference_speed(time.perf_counter_ns() - t0)
                problem = output_problem(model, text, triples, tags, P)
                value = tags
        except Exception as exc:  # an operation that raises counts as failed
            return None, f"{self.kind} raised {exc!r}"
        self.op_ns.append(ns)
        self.ns_by_sentence[j].append(ns)
        return value, problem

    def _count_nodes(self, stages, roots) -> None:
        counts = {name: pipeline.graph_nodes(out) for name, _, out in stages}
        counts["loss"] = pipeline.graph_nodes(roots[0])
        counts["numerics"] = sum(pipeline.graph_nodes(r) for r in roots)
        for name, c in counts.items():
            self.nodes[name] = self.nodes.get(name, 0) + c

    def run(self, seconds: float) -> "Phase":
        deadline = time.perf_counter() + seconds
        episode = 0
        while True:
            if self.kind == "train":
                pipeline.restore(self.model, self.initial)
            for i, (text, triples) in enumerate(self.sents * self.passes):
                value, problem = self._op(i % len(self.sents), text, triples)
                if episode == 0:
                    self.first_episode.append(value)
                elif problem is None and value != self.first_episode[i]:
                    problem = f"episode {episode} op {i} differs from episode 0"
                self.tally.attempted += 1
                self.tally.check(problem is None, problem)
                if episode > 0 and time.perf_counter() > deadline:
                    return self
            episode += 1
            if time.perf_counter() > deadline:
                return self

    def rates(self) -> tuple[float, float]:
        """(chars/s, sents/s) of one pass over the sentences, each operation
        taking its sentence's median time: robust to bursts of host
        contention, and the same work on every seed."""
        timed = [(len(text), statistics.median(ns))
                 for (text, _), ns in zip(self.sents, self.ns_by_sentence) if ns]
        pass_s = sum(ns for _, ns in timed) / 1e9
        return sum(n for n, _ in timed) / pass_s, len(timed) / pass_s


def loss_end(phase: Phase, model, sents) -> float:
    """Train: mean loss over the last pass of an episode (deterministic).
    Predict: mean per-char cross-entropy of the first pass's predictions."""
    if phase.kind == "train":
        return statistics.fmean(phase.first_episode[-len(sents):])
    losses = []
    for text, triples in sents:
        _, P, _ = pipeline.predict(model, text)
        gold = encode_tags(len(text), triples, model.scheme)
        losses.append(pipeline.cross_entropy(P, gold).item())
    return statistics.fmean(losses)


def check_staged_gradients(model, initial, text, triples, tally) -> None:
    """Staged and monolithic backward must give the same parameter gradients."""
    pipeline.restore(model, initial)
    pipeline.forward_backward(model, text, triples)
    mono = [p.grad.copy() for p in model.params]
    pipeline.restore(model, initial)
    pipeline.forward_backward(model, text, triples, staged=True)
    err = max(float(np.abs(p.grad - g).max()) for p, g in zip(model.params, mono))
    tally.attempted += 1
    tally.check(err <= STAGED_GRAD_TOL, f"staged gradients differ by {err:.3g}")
    pipeline.restore(model, initial)


def run(name: str, w: Workload, seed: int, seconds: float, trace: bool,
        out_dir: Path = OUT_DIR) -> tuple[dict, Tally]:
    """Run one workload; return the metrics (name -> value) and the tally."""
    relations = corpus.relation_names(N_RELATIONS)
    sents = corpus.make_corpus(seed, w.lengths, w.vocab_size, relations)
    words = corpus.lexicon_words(seed, [t for t, _ in sents], w.lexicon_words, w.vocab_size)
    out_dir.mkdir(parents=True, exist_ok=True)
    vectors = out_dir / f"vectors-{name}-{seed}-{os.getpid()}.txt"
    tracer = Tracer() if trace else None
    setup_s = []
    try:
        corpus.write_word_vectors(vectors, seed, words, w.dims.word_dim)
        for _ in range(SETUPS):
            before = speed_factor()
            t0 = time.perf_counter()
            with tracer.operation("setup") if tracer else nullcontext():
                model = pipeline.build_model(
                    vectors, corpus.alphabet(w.vocab_size), relations, w.dims, INIT_SEED,
                    LEARNING_RATE, tracer.span if tracer else pipeline.no_span)
            setup_s.append((time.perf_counter() - t0) * (before + speed_factor()) / 2)
    finally:
        vectors.unlink(missing_ok=True)
    initial = pipeline.snapshot(model)
    tally = Tally()
    Phase(model, initial, sents[:WARMUP_OPS], w.kind, 1, tally).run(0)

    if not trace:
        phase = Phase(model, initial, sents, w.kind, w.passes, tally).run(seconds)
        op_ms = np.array(phase.op_ns) / 1e6
        chars_per_s, sents_per_s = phase.rates()
        metrics = {
            "chars_per_s": chars_per_s,
            "sents_per_s": sents_per_s,
            "op_ms_p50": float(np.percentile(op_ms, 50)),
            "op_ms_p90": float(np.percentile(op_ms, 90)),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "loss_end": loss_end(phase, model, sents),
        }
        return metrics, tally

    other = "predict" if w.kind == "train" else "train"
    check_staged_gradients(model, initial, *sents[0], tally)
    untraced = Phase(model, initial, sents, w.kind, w.passes, tally).run(seconds / 3)
    traced = {kind: Phase(model, initial, sents, kind, w.passes, tally, tracer).run(seconds / 3)
              for kind in (w.kind, other)}
    train = traced["train"]
    per_kind = {kind: tracer.per_op_ms(kind, frozenset({"numerics.backward", kind}))
                for kind in ("train", "predict")}
    own, rest = per_kind[w.kind], per_kind[other]
    metrics = {key: own.get(span, rest.get(span))
               for key, span in ((f"{layer}.{d}_ms", f"{layer}.{d}")
                                 for layer in BWD_LAYERS for d in ("fwd", "bwd"))}
    for key in ("numerics.backward", "numerics.rmsprop", "tagging.encode", "tagging.decode"):
        metrics[key + "_ms"] = own.get(key, rest.get(key))
    metrics["embedding.load_word_vectors_s"] = statistics.median(
        tracer.durations_ns("embedding.load_word_vectors")) / 1e9
    for layer in BWD_LAYERS + ("numerics",):
        metrics[f"{layer}.graph_nodes_per_char"] = train.nodes[layer] / train.node_chars
    metrics["trace.op_ms"] = own[w.kind]
    metrics["trace.chars_per_s_ratio"] = traced[w.kind].rates()[0] / untraced.rates()[0]
    tracer.write(out_dir / f"trace-{name}-{seed}.jsonl",
                 {"workload": name, "seed": seed, "environment": environment()})
    return metrics, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    metrics, tally = run(args.workload, WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(environment())}")
    for key, unit in units.items():
        print(f"{key:32s} {metrics[key]:14.6g} {unit}")
    print(f"{'attempted':32s} {tally.attempted:14d}")
    print(f"{'failed_frac':32s} {tally.failed / max(tally.attempted, 1):14.6g}")
    for problem in tally.problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {key: {"value": metrics[key], "unit": unit}
                                  for key, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
