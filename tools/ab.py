"""Paired benchmark runs of two checkouts, and the gain rule applied to them.

    python3 tools/ab.py <parent checkout> <change checkout> \\
        [--workloads infer_mixed ...] [--pairs 10] [--seconds 25] --seed 4701

For each workload, pair i runs the parent's benchmark command (`command` in
its BENCHMARK.json, `python3 perfbench/run.py`) with `--workload <w> --seed
<seed + i> --seconds <s> --trace 0` once in each checkout, one process at a
time. The parent goes first in even pairs and the change in odd ones. It
prints each pair's values as it goes, then, per workload and end-to-end
metric:

- each side's median and quartiles;
- the change's wins: pairs where its value is better in the metric's
  `better` direction (ties count for neither);
- whether the no-regression rule holds: the change's median is worse than
  the parent's by no more than the metric's `bound`, a fraction of the
  parent's median ("within 25%" or "beyond 25%");
- whether the gain rule holds: the change wins at least 9 of every 10 pairs,
  and its median is better than the parent's by more than the parent's
  interquartile range;
- each side's failed operations out of those attempted.

The two checkouts' absolute paths must have the same length. The path's
length moves the process's memory layout, and with it the timings by a few
per cent on identical code. `--workloads` defaults to every workload and
`--seconds` to `run_seconds`, both from the parent's BENCHMARK.json. A
workload that file does not declare, like too few pairs, exits with 2 before
any benchmark process starts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WINS_NEEDED = (9, 10)  # a gain needs at least 9 wins in every 10 pairs


def path_problem(parent: Path, change: Path) -> str | None:
    """Why two checkouts cannot be compared, or None when they can."""
    if len(str(parent)) != len(str(change)):
        return (f"checkout paths differ in length ({len(str(parent))} and "
                f"{len(str(change))} characters): {parent}, {change}")
    return None


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark process in `checkout`; its JSON result line.
    Raises RuntimeError, naming the command, the checkout and the tail of
    its stderr, when it exits non-zero or its last line is not JSON."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    # subprocess.run kills and reaps the child when its wait is interrupted,
    # by Ctrl-C as well, so no benchmark process outlives this one
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
        problem = f"exited with {proc.returncode}"
    except (IndexError, json.JSONDecodeError):
        problem = "printed no JSON result as its last line"
    raise RuntimeError(f"{' '.join(args)} in {checkout} {problem}:\n{proc.stderr[-2000:]}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated linearly."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], declared: dict[str, dict]) -> dict:
    """One workload's (parent, change) results, paired by seed: per metric
    of `declared` (name -> its BENCHMARK.json entry, with `better`, "higher"
    or "lower", and `bound`), each side's quartiles, the change's wins, and
    whether the no-regression rule and the gain rule hold; and each side's
    failed and attempted operations."""
    metrics = {}
    for name, spec in declared.items():
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent, change = ([r["metrics"][name]["value"] for r in side] for side in zip(*pairs))
        p, c = quartiles(parent), quartiles(change)
        wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
        metrics[name] = {
            "parent": p, "change": c, "wins": wins, "pairs": len(pairs),
            "bound": spec["bound"],
            "within": -sign * (c[1] - p[1]) <= spec["bound"] * abs(p[1]),
            "holds": (wins * WINS_NEEDED[1] >= WINS_NEEDED[0] * len(pairs)
                      and sign * (c[1] - p[1]) > p[2] - p[0]),
        }
    failed = {side: (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
              for side, runs in zip(("parent", "change"), zip(*pairs))}
    return {"metrics": metrics, "failed": failed}


def report(workload: str, summary: dict) -> str:
    """The summary as a table, one line per metric."""
    def side(q):
        return f"{q[1]:.6g} ({q[0]:.6g} / {q[2]:.6g})"

    lines = [f"{workload}: median (quartiles), parent -> change",
             f"  {'metric':12s} {'parent':34s} {'change':34s} {'shift':>8s} "
             f"{'wins':>6s}  {'bound':11s}  gain rule"]
    for name, m in summary["metrics"].items():
        p, c = m["parent"][1], m["change"][1]
        shift = f"{(c - p) / p:+.1%}" if p else "n/a"
        lines.append(f"  {name:12s} {side(m['parent']):34s} {side(m['change']):34s} "
                     f"{shift:>8s} {m['wins']:>3d}/{m['pairs']:<2d}  "
                     f"{'within' if m['within'] else 'beyond'} {m['bound']:<4.0%}  "
                     f"{'holds' if m['holds'] else 'does not hold'}")
    lines.append("  failed: " + ", ".join(f"{s} {f}/{a}"
                                          for s, (f, a) in summary["failed"].items()))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        print("ab: --pairs must be at least 1", file=sys.stderr)
        return 2
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    problem = path_problem(*checkouts.values())
    if problem:
        print(f"ab: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        print(f"ab: {', '.join(unknown)} not among the workloads of "
              f"{checkouts['parent'] / 'BENCHMARK.json'}: {', '.join(names)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {side: run_once(spec["command"], checkouts[side], workload,
                                      args.seed + i, seconds) for side in order}
                pairs.append((got["parent"], got["change"]))
                values = "  ".join(
                    f"{name} {got['parent']['metrics'][name]['value']:.6g}"
                    f" -> {got['change']['metrics'][name]['value']:.6g}" for name in declared)
                print(f"{workload} pair {i + 1} seed {args.seed + i} ({order[0]} first): "
                      f"{values}", flush=True)
            print(report(workload, summarize(pairs, declared)), flush=True)
    except KeyboardInterrupt:
        print("ab: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
