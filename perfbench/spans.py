"""Spans around calls into chromasum's layers, recorded from outside the
package.

While installed, a Tracer replaces the layer functions that run_campaign
reaches through module attributes with wrappers that time each call:

- families: families.make
- solvers: chromatic_number, b_chromatic_number, chi_sum, b_sum (as
  verification calls them), with the node count of each result
- coloring: optimal_labeling (as the solvers call it), Coloring.from_json
- verification: ResultsCache load, get and save, run_campaign, write_reports

Pool workers that run_campaign forks inherit the wrappers.  A worker writes
each finished top-level span, with the spans inside it, as one line of a
file of its own under the spool directory; collect() reads them back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

# Solver functions and the span name of each quantity their results carry.
SOLVER_SPANS = {
    "chi": "solvers.chi",
    "b_chromatic": "solvers.phi",
    "chi_sum_min": "solvers.chi_sum_min",
    "chi_sum_max": "solvers.chi_sum_max",
    "b_sum_min": "solvers.b_sum_min",
    "b_sum_max": "solvers.b_sum_max",
}


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.owner = os.getpid()  # the benchmark process
        self.pid = self.owner  # the process self.spans belongs to
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._group = ""

    def _begin(self, name: str) -> dict:
        if os.getpid() != self.pid:  # first span in a forked worker
            self.pid = os.getpid()
            self.spans, self._stack = [], []
        span = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pid": self.pid,
            "group": self._group,
            "t0": time.perf_counter(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: dict):
        span["dur"] = time.perf_counter() - span["t0"]
        self._stack.pop()
        if self._stack or self.pid == self.owner:
            return
        # A worker exits without running Python's clean-up, so each finished
        # top-level span is written out at once.
        with open(self.spool_dir / f"spans-{self.pid}.jsonl", "a") as out:
            out.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def wrap(self, name, fn, annotate=None):
        """fn with a span around each call; annotate(span, result) may add
        fields or rename the span from the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(span, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    @contextmanager
    def installed(self, cs):
        """Patch chromasum's layer functions for the duration of the block
        and yield the entry points the benchmark calls: ResultsCache,
        run_campaign and write_reports, each traced."""
        v = cs.verification
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        traced_make = self.wrap("families.make", cs.families.make)

        def make(kind, n):
            # run_campaign solves one (family, n) group per make call.
            self._group = f"{kind}:{n}"
            return traced_make(kind, n)

        def solver_result(span, result):
            span["name"] = SOLVER_SPANS[result.quantity]
            span["nodes"] = result.nodes_explored

        coloring_cls = cs.coloring.Coloring
        from_json = coloring_cls.__dict__["from_json"].__func__
        patches = [
            (cs.families, "make", make),
            (cs.solvers, "optimal_labeling", self.wrap("coloring.label", cs.solvers.optimal_labeling)),
            (coloring_cls, "from_json", classmethod(self.wrap("coloring.decode", from_json))),
        ]
        for fn_name in ("chromatic_number", "b_chromatic_number", "chi_sum", "b_sum"):
            patches.append((v, fn_name, self.wrap("solvers", getattr(v, fn_name), solver_result)))

        def results_cache(path):
            with self.span("verification.cache_load"):
                cache = v.ResultsCache(path)
            cache.get = self.wrap("verification.cache_get", cache.get, _mark_hit)
            cache.save = self.wrap("verification.cache_save", cache.save)
            return cache

        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        try:
            yield SimpleNamespace(
                ResultsCache=results_cache,
                run_campaign=self.wrap("verification.run_campaign", v.run_campaign),
                write_reports=self.wrap("verification.write_reports", v.write_reports),
            )
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    def collect(self) -> list[dict]:
        """This process's spans followed by every worker's, parent indices
        made global; clears both."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                base = len(spans)
                for span in json.loads(line):
                    if span["parent"] is not None:
                        span["parent"] += base
                    spans.append(span)
            path.unlink()
        return spans


def _mark_hit(span: dict, result):
    span["hit"] = result is not None


def discount(spans: list[dict], pauses: list[tuple[float, float]], pid: int):
    """Take out of each span of process pid the pauses, (start, seconds),
    that began inside it."""
    for span in spans:
        if span["pid"] == pid:
            end = span["t0"] + span["dur"]
            span["dur"] -= sum(d for s, d in pauses if span["t0"] <= s < end)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of the spans directly inside it."""
    own = [s["dur"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["dur"]
    return own
