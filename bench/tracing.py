"""Span recording for the traced runs.

Spans are recorded by the benchmark's own code only, around the calls it
makes into the package; nothing inside the package is instrumented.  A
span has an id, a name, the layer (package module) it belongs to, start
and end times, the id of the span that was open when it began, an op id
shared by every span of one op, and the number of calls it covers.
Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("ffield", "fpoly", "totient", "cyclo", "lehmer_search", "intmath",
          "suites", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, op: int | None = None, calls: int = 1):
        sid = len(self.spans) + len(self._stack) + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "layer": layer,
                               "start": start, "end": end, "parent": parent,
                               "op": op, "calls": calls})

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s["layer"] in out:
            out[s["layer"]] += own[s["id"]]
    return out


def per_call(spans: list[dict], name: str) -> float:
    """Mean seconds per call over every span named ``name``."""
    chosen = [s for s in spans if s["name"] == name]
    if not chosen:
        raise KeyError(f"no span named {name!r}")
    return sum(s["end"] - s["start"] for s in chosen) / sum(s["calls"] for s in chosen)


def total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
