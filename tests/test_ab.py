"""tools/ab.py's summary of paired benchmark runs, on canned results, and its
refusals of bad arguments: no benchmark process is started."""

import json
import subprocess
from pathlib import Path

import pytest

import ab

DECLARED = {"chars_per_s": {"better": "higher", "bound": 0.25},
            "op_ms_p90": {"better": "lower", "bound": 0.1}}


def result(chars_per_s, op_ms_p90, failed=0, attempted=100):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"chars_per_s": {"value": chars_per_s, "unit": "chars/s"},
                        "op_ms_p90": {"value": op_ms_p90, "unit": "ms"}}}


def test_quartiles_interpolate_linearly():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    pairs = [(result(100, 7.0), result(110, 6.0)),   # better on both
             (result(100, 7.0), result(90, 8.0)),    # worse on both
             (result(100, 7.0), result(100, 7.0))]   # a tie on both
    metrics = ab.summarize(pairs, DECLARED)["metrics"]
    assert [metrics[m]["wins"] for m in DECLARED] == [1, 1]
    assert all(metrics[m]["pairs"] == 3 for m in DECLARED)
    assert metrics["chars_per_s"]["parent"] == (100, 100, 100)
    assert metrics["chars_per_s"]["change"] == (95, 100, 105)


def test_gain_rule_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_spread():
    parent_p90 = [7.0, 7.1, 7.2, 7.3, 7.4, 7.5, 7.6, 7.7, 7.8, 7.9]  # IQR 0.45
    better = [p - 1.0 for p in parent_p90]

    def holds(change_p90):
        pairs = [(result(100, p), result(100, c)) for p, c in zip(parent_p90, change_p90)]
        return ab.summarize(pairs, DECLARED)["metrics"]["op_ms_p90"]["holds"]

    assert holds(better)
    assert holds(better[:9] + [parent_p90[9] + 1.0])  # 9/10 wins
    assert not holds(better[:8] + [p + 1.0 for p in parent_p90[8:]])  # 8/10
    assert not holds([p - 0.4 for p in parent_p90])  # 10/10, gap 0.4 < IQR
    assert holds([p - 0.5 for p in parent_p90])  # 10/10, gap 0.5 > IQR
    assert not holds([p + 1.0 for p in parent_p90])  # worse, 0/10


def test_no_regression_rule_bounds_each_median_by_its_declared_fraction():
    # chars_per_s may fall by 25% of the parent's median, op_ms_p90 rise by 10%
    def within(change_chars, change_p90):
        pairs = [(result(100, 10.0), result(change_chars, change_p90))]
        metrics = ab.summarize(pairs, DECLARED)["metrics"]
        return metrics["chars_per_s"]["within"], metrics["op_ms_p90"]["within"]

    assert within(120, 8.0) == (True, True)  # better on both
    assert within(76, 10.9) == (True, True)  # worse, inside each bound
    assert within(74, 11.1) == (False, False)  # worse, beyond each bound
    assert within(75, 11.0) == (True, True)  # on the bound
    text = ab.report("train_long", ab.summarize([(result(100, 10.0), result(74, 10.9))],
                                                DECLARED))
    assert "beyond 25%" in text.splitlines()[2] and "within 10%" in text.splitlines()[3]


def test_failed_operations_are_summed_per_side():
    pairs = [(result(100, 7.0, failed=1), result(100, 7.0, attempted=90)),
             (result(100, 7.0), result(100, 7.0, failed=2, attempted=80))]
    assert ab.summarize(pairs, DECLARED)["failed"] == {"parent": (1, 200), "change": (2, 170)}


def test_report_has_one_line_per_metric_and_the_failed_counts():
    pairs = [(result(100, 7.0), result(110, 6.0)), (result(102, 7.2), result(112, 6.1))]
    text = ab.report("infer_mixed", ab.summarize(pairs, DECLARED))
    lines = text.splitlines()
    assert lines[0].startswith("infer_mixed")
    assert [line.split()[0] for line in lines[2:4]] == list(DECLARED)
    assert all("2/2" in line and line.endswith("holds") for line in lines[2:4])
    assert lines[-1] == "  failed: parent 0/200, change 0/200"


@pytest.mark.parametrize("parent, change, ok", [
    ("/a/parent", "/a/change", True),
    ("/a/parent", "/a/ch", False),
])
def test_checkout_paths_must_have_the_same_length(parent, change, ok):
    problem = ab.path_problem(Path(parent), Path(change))
    assert (problem is None) == ok


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_is_refused_before_anything_runs(monkeypatch, capsys, pairs):
    def run(args, **kwargs):
        pytest.fail("a benchmark process was started")

    monkeypatch.setattr(ab.subprocess, "run", run)
    # neither checkout exists, so reading a BENCHMARK.json would raise
    assert ab.main(["/a/parent", "/a/change", "--pairs", pairs, "--seed", "1"]) == 2
    assert capsys.readouterr().err == "ab: --pairs must be at least 1\n"


def test_an_undeclared_workload_is_refused_before_anything_runs(monkeypatch, capsys, tmp_path):
    def run(args, **kwargs):
        pytest.fail("a benchmark process was started")

    monkeypatch.setattr(ab.subprocess, "run", run)
    spec = {"command": ["python3", "perfbench/run.py"], "run_seconds": 25,
            "workloads": [{"name": "infer_mixed"}, {"name": "train_short"}],
            "end_to_end": []}
    parent, change = tmp_path.resolve() / "parent", tmp_path.resolve() / "change"
    for checkout in (parent, change):  # paths of the same length
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(json.dumps(spec))
    argv = [str(parent), str(change), "--workloads", "infer_mixed", "train_shrot",
            "--seed", "1"]
    assert ab.main(argv) == 2
    assert capsys.readouterr().err == (f"ab: train_shrot not among the workloads of "
                                       f"{parent / 'BENCHMARK.json'}: infer_mixed, train_short\n")


@pytest.mark.parametrize("returncode, stdout, problem", [
    (0, "", "printed no JSON result"),
    (0, "# infer_mixed seed=1\nTraceback (most recent call last)\n", "printed no JSON result"),
    (3, '{"metrics": {}}\n', "exited with 3"),
])
def test_run_once_names_command_checkout_and_stderr_when_no_result(
        monkeypatch, returncode, stdout, problem):
    def run(args, **kwargs):  # stands in for the benchmark process
        return subprocess.CompletedProcess(args, returncode, stdout, "x" * 3000 + "stderr tail")

    monkeypatch.setattr(ab.subprocess, "run", run)
    with pytest.raises(RuntimeError) as raised:
        ab.run_once(["python3", "perfbench/run.py"], Path("/a/parent"), "infer_mixed", 1, 8.0)
    message = str(raised.value)
    assert message.startswith("python3 perfbench/run.py --workload infer_mixed --seed 1")
    assert " in /a/parent " in message and problem in message
    assert message.endswith("\n" + "x" * 1989 + "stderr tail")
