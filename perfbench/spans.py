"""Spans recorded around the package's layer calls, from outside the package.

Each call site in SITES is a module attribute that a caller inside ``apc``
(or the benchmark itself) looks up at call time, so replacing the attribute
with a recording wrapper sees every call without editing the package. A
renamed or inlined call site makes ``install`` fail, or leaves its layer
with no calls, which the runner reports as an error.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import apc.exact
import apc.heuristic
import apc.instance


def _ap_value(result):
    return None if result is None else result[1]


# (module, attribute, span name, summary of the return value kept on the span)
SITES = (
    (apc.instance, "generate_instance", "instance.generate", None),
    (apc.instance, "write_instance", "instance.write", None),
    (apc.instance, "parse_instance", "instance.parse", lambda inst: len(inst.conflicts)),
    (apc.exact, "solve_exact", "exact.solve", lambda sol: sol.nodes),
    (apc.exact, "run_heuristic", "exact.seed_heuristic", None),
    (apc.exact, "find_violated_conflict", "exact.scan", None),
    (apc.exact, "MaskedCosts", "hungarian.masked_costs", None),
    (apc.exact, "solve_ap", "hungarian.solve_ap", _ap_value),
    (apc.heuristic, "run_heuristic", "heuristic.run", lambda sol: sol is not None),
    (apc.heuristic, "construct_greedy", "heuristic.construct", lambda sol: sol is not None),
    (apc.heuristic, "local_search", "heuristic.local_search", None),
    (apc.heuristic, "check_feasible", "model.check_feasible", None),
    (apc.heuristic, "evaluate", "model.evaluate", None),
)

# Span fields, stored as lists for low overhead.
NAME, PARENT, START, END, PHASE, INFO = range(6)


class Tracer:
    """Keeps every span in memory; ``phase`` labels the spans recorded next."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = ""
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, summarize in SITES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, summarize))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name, summarize):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, 0.0, 0.0, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if summarize is not None:
                span[INFO] = summarize(result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, parent, start, end, phase, info) in enumerate(self.spans):
                record = {"id": i, "name": name, "parent": parent, "start": start,
                          "end": end, "phase": phase}
                if info is not None:
                    record["info"] = info
                out.write(json.dumps(record) + "\n")


@dataclass
class LayerTotals:
    """Calls, wall time, self time and kept summaries of one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    infos: list = field(default_factory=list)


def totals(spans: list[list], phase: str) -> dict[str, LayerTotals]:
    """Aggregate the spans of one phase by name. Self time is a span's
    duration minus the durations of its direct children; spans nest strictly
    because the benchmark is single-threaded."""
    child_s: dict[int, float] = {}
    for span in spans:
        if span[PHASE] == phase and span[PARENT] is not None:
            child_s[span[PARENT]] = child_s.get(span[PARENT], 0.0) + span[END] - span[START]
    out: dict[str, LayerTotals] = {}
    for i, span in enumerate(spans):
        if span[PHASE] != phase:
            continue
        t = out.setdefault(span[NAME], LayerTotals())
        duration = span[END] - span[START]
        t.calls += 1
        t.total_s += duration
        t.self_s += duration - child_s.get(i, 0.0)
        t.infos.append(span[INFO])
    return out


def first_child_infos(spans: list[list], phase: str, parent: str, child: str) -> list:
    """Summary of the first `child` span under each `parent` span."""
    seen: set[int] = set()
    out = []
    for span in spans:
        p = span[PARENT]
        if (span[PHASE] == phase and span[NAME] == child and p is not None
                and p not in seen and spans[p][NAME] == parent):
            seen.add(p)
            out.append(span[INFO])
    return out
