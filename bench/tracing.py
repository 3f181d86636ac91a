"""In-memory spans for the traced benchmark run.

A span covers one call from the benchmark into a planarwind layer: its
name, start, end, the span that was open when it began (its parent) and
the pass it belongs to.  Spans stay in memory and are written out once,
when the run ends, so a traced call costs two clock reads and an append.
The untraced run uses :data:`OFF`, whose spans do nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    """Records spans; ``pass_id`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.pass_id = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "pass": self.pass_id,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def self_ns(self) -> list[int]:
        """Self time of each span: its duration less its children's.

        The benchmark is single-threaded, so children of one span never
        overlap and the part of the parent they cover is their sum.
        """
        own = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own

    def self_seconds_by_pass(self, name: str) -> dict:
        """Summed self time (s) of the spans called ``name``, keyed by pass."""
        out: dict = {}
        for s, ns in zip(self.spans, self.self_ns()):
            if s["name"] == name:
                out[s["pass"]] = out.get(s["pass"], 0.0) + ns * 1e-9
        return out

    def layer_self_seconds(self) -> dict:
        """Self time (s) per layer, the module part of each span name."""
        out: dict = {}
        for s, ns in zip(self.spans, self.self_ns()):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + ns * 1e-9
        return out

    def write(self, path: Path, meta: dict) -> None:
        own = self.self_ns()
        spans = [dict(s, self_ns=ns) for s, ns in zip(self.spans, own)]
        document = dict(meta, layer_self_s=self.layer_self_seconds(), spans=spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n")


class _Off:
    """Tracer stand-in for the untraced run: spans cost one call."""

    pass_id = None
    _span = nullcontext()

    def span(self, name: str):
        return self._span


OFF = _Off()
