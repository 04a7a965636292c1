"""In-memory spans around layer calls, written out when the run ends.

A span records its name, start and end (perf_counter ns), the id of the span
that encloses it and the id of the operation it belongs to. A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_kinds: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0, 0, self._open[-1] if self._open else None,
               len(self.op_kinds) - 1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[END] = time.perf_counter_ns()
            self._open.pop()

    def operation(self, kind: str):
        """Root span of one operation; spans opened inside carry its id."""
        self.op_kinds.append(kind)
        return self.span(kind)

    def durations_ns(self, name: str) -> list[int]:
        return [rec[END] - rec[START] for rec in self.spans if rec[NAME] == name]

    def self_ns(self) -> list[int]:
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] is not None:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def per_op_ms(self, kind: str, inclusive: frozenset = frozenset()) -> dict[str, float]:
        """Mean milliseconds per operation of `kind`, by span name: self time,
        or the whole duration for names in `inclusive`."""
        own = self.self_ns()
        total: dict[str, int] = defaultdict(int)
        for rec, ns in zip(self.spans, own):
            if self.op_kinds[rec[OP]] == kind:
                total[rec[NAME]] += rec[END] - rec[START] if rec[NAME] in inclusive else ns
        ops = self.op_kinds.count(kind)
        return {name: ns / ops / 1e6 for name, ns in total.items()}

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": rec[NAME], "start_ns": rec[START],
                                     "end_ns": rec[END], "parent": rec[PARENT],
                                     "op": rec[OP]}) + "\n")
