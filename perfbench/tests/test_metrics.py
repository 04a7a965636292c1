import dataclasses
import json
import re
from pathlib import Path

import pytest

import corpus
import pipeline
import run

SPEC = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = run.Workload("train", 12, (3, 6, 9), 2, lexicon_words=30,
                    dims=pipeline.Dims(m=3, word_dim=2, d_enc=2, d_dec=2, tau=2))


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_names_match_the_emitted_ones():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_declared_names_and_bounds_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("kind", ["train", "predict"])
@pytest.mark.parametrize("trace", [False, True])
def test_a_run_emits_every_declared_metric_and_passes_its_checks(tmp_path, kind, trace):
    w = dataclasses.replace(TINY, kind=kind)
    metrics, tally = run.run("tiny", w, seed=3, seconds=0.01, trace=trace, out_dir=tmp_path)
    assert set(metrics) == set(declared("per_layer" if trace else "end_to_end"))
    assert tally.failed == 0 and tally.attempted > 0, tally.problems
    assert all(v > 0 for v in metrics.values())
    assert (tmp_path / "trace-tiny-3.jsonl").exists() == trace


def test_loss_end_repeats_exactly(tmp_path):
    first, _ = run.run("tiny", TINY, seed=4, seconds=0.01, trace=False, out_dir=tmp_path)
    second, _ = run.run("tiny", TINY, seed=4, seconds=0.01, trace=False, out_dir=tmp_path)
    assert first["loss_end"] == second["loss_end"]


def test_a_broken_gradient_is_counted_as_failed(tmp_path, monkeypatch):
    def nan_update(model, span=pipeline.no_span):
        model.params[0].data[0, 0] = float("nan")

    monkeypatch.setattr(pipeline, "update", nan_update)
    _, tally = run.run("tiny", TINY, seed=3, seconds=0.01, trace=False, out_dir=tmp_path)
    assert tally.failed == tally.attempted


def test_workload_lengths_are_seed_independent():
    for w in run.WORKLOADS.values():
        a = corpus.make_corpus(1, w.lengths, w.vocab_size, corpus.relation_names(19))
        b = corpus.make_corpus(2, w.lengths, w.vocab_size, corpus.relation_names(19))
        assert sorted(map(len, (t for t, _ in a))) == sorted(map(len, (t for t, _ in b)))
