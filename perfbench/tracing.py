"""In-memory span tracer installed around the program's layer boundaries.

The program has no spans of its own, so the traced run patches the
public entry point of each layer (module) from here: every call through
a wrapped function records one span (name, layer, start, end, parent,
process, thread) in a list held by a :class:`Tracer`.  Nothing is
written until the run ends; then :func:`chrome_trace` renders the spans
as Chrome trace-event JSON and :func:`layer_table` sums them per layer.

Processes the benchmark starts (prediction server, store service) call
:func:`install` themselves and hand their spans back in a JSON file when
they stop, so one trace covers client and servers.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    layer: str
    start: float          # time.time() seconds, comparable across processes
    end: float
    span_id: int
    parent: Optional[int]
    pid: int
    tid: int
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict:
        return {"name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "span_id": self.span_id,
                "parent": self.parent, "pid": self.pid, "tid": self.tid,
                "counts": self.counts}

    @classmethod
    def from_dict(cls, d: Dict) -> "Span":
        return cls(**d)


class Tracer:
    """Keeps spans in memory; one per process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._pid = os.getpid()

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            # ids unique across the processes whose spans get merged
            return self._pid * 1_000_000 + self._next

    def wrap(self, fn: Callable, name: str, layer: str,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``count(args, kwargs,
        result)`` returns extra counters for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_id = self._new_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.time()
                stack.pop()
            span = Span(name, layer, start, end, span_id, parent,
                        os.getpid(), threading.get_ident())
            if count is not None:
                span.counts = count(args, kwargs, result)
            with self._lock:
                self.spans.append(span)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, layer: str,
              count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with its traced version.  Module-level
        functions are also replaced in every loaded ``repro`` module that
        imported them by name."""
        original = getattr(owner, attr)
        traced = self.wrap(original, name, layer, count)
        targets = [owner]
        if isinstance(owner, type(sys)):
            targets += [m for key, m in list(sys.modules.items())
                        if key.startswith("repro") and m is not owner
                        and getattr(m, attr, None) is original]
        for target in targets:
            setattr(target, attr, traced)


def _forest_nodes(model) -> int:
    regressor = getattr(model, "regressor", None)
    return int(sum(t.n_nodes for t in getattr(regressor, "estimators_", [])))


def _campaign_counts(args, kwargs, result) -> Dict[str, float]:
    runner = args[0]
    stats = runner.stats
    corner_cycles = sum(stats.job_cycles[i] * stats.job_corners[i]
                        for i in stats.job_cycles)
    return {"sim_s": stats.sim_seconds, "wall_s": stats.wall_seconds,
            "workers": runner.n_workers, "shards": stats.total_shards,
            "corner_cycles": corner_cycles, "misses": stats.misses}


def _wire_counts(args, kwargs, result) -> Dict[str, float]:
    data = args[2] if len(args) > 2 else kwargs.get("data")
    return {"bytes_out": len(data or b""), "bytes_in": len(result[0])}


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every layer in this process."""
    import numpy as np

    from repro.api import workspace
    from repro.core import features, model
    from repro.flow import campaign, tracestore
    from repro.remote import client as remote_client
    from repro.serve import client as serve_client
    from repro.serve import engine, registry, server
    from repro.sim.engine import available_backends, get_backend

    p = tracer.patch
    p(workspace.Workspace, "train", "Workspace.train", "api")
    p(workspace.Workspace, "characterize", "Workspace.characterize", "api")
    p(model.TEVoT, "fit", "TEVoT.fit", "ml",
      lambda a, k, r: {"rows": int(np.asarray(a[1]).shape[0]),
                       "tree_nodes": _forest_nodes(r)})
    p(model.TEVoT, "predict_delay", "TEVoT.predict_delay", "ml",
      lambda a, k, r: {"rows": int(np.asarray(a[1]).shape[0])})
    p(features, "build_training_set", "build_training_set", "core")
    p(model, "loads_model", "loads_model", "core",
      lambda a, k, r: {"bytes": len(a[0])})
    seen = set()
    for name in available_backends():
        cls = type(get_backend(name))
        if cls not in seen:
            seen.add(cls)
            p(cls, "run_delays", f"{name}.run_delays", "sim")
    p(campaign.CampaignRunner, "run", "CampaignRunner.run", "flow",
      _campaign_counts)
    p(tracestore.TraceStore, "put", "TraceStore.put", "flow",
      lambda a, k, r: {"bytes": int(a[2].delays.nbytes)})
    p(serve_client.ServeClient, "predict_many", "ServeClient.predict_many",
      "serve", lambda a, k, r: {"requests": len(a[1])})
    p(server.MicroBatcher, "submit_many", "MicroBatcher.submit_many",
      "serve", lambda a, k, r: {"requests": len(a[1])})
    p(engine.PredictionEngine, "predict_batch",
      "PredictionEngine.predict_batch", "serve",
      lambda a, k, r: {"requests": len(a[1])})
    p(registry.ModelRegistry, "publish", "ModelRegistry.publish", "serve")
    p(remote_client.RemoteModelRegistry, "publish",
      "RemoteModelRegistry.publish", "serve")
    p(remote_client.RemoteTraceStore, "get", "RemoteTraceStore.get",
      "remote")
    p(remote_client.RemoteTraceStore, "put", "RemoteTraceStore.put",
      "remote")
    p(remote_client.RemoteModelRegistry, "resolve",
      "RemoteModelRegistry.resolve", "remote")
    # the byte transport under the remote clients' get/put/resolve
    p(remote_client._RemoteBase, "_request_bytes", "remote.request_bytes",
      "remote", _wire_counts)
    return tracer


# -- reporting ---------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of it its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        last = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, last), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                last = hi
        out[s.span_id] = s.dur - covered
    return out


def layer_table(spans: List[Span]) -> List[Dict]:
    """Per layer: span count, busy seconds (spans not nested in a span
    of the same layer) and self seconds."""
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)
    rows: Dict[str, Dict] = {}
    for s in spans:
        row = rows.setdefault(s.layer, {"layer": s.layer, "count": 0,
                                        "busy_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["self_s"] += selfs[s.span_id]
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None or parent.layer != s.layer:
            row["busy_s"] += s.dur
    return sorted(rows.values(), key=lambda r: -r["busy_s"])


def format_layer_table(rows: List[Dict]) -> str:
    lines = [f"{'layer':8s} {'count':>7s} {'busy_s':>10s} {'self_s':>10s}"]
    for r in rows:
        lines.append(f"{r['layer']:8s} {r['count']:7d} {r['busy_s']:10.4f} "
                     f"{r['self_s']:10.4f}")
    return "\n".join(lines)


def chrome_trace(spans: List[Span]) -> Dict:
    """Chrome trace-event JSON (complete events, microseconds)."""
    if not spans:
        return {"traceEvents": []}
    t0 = min(s.start for s in spans)
    events = [{"name": s.name, "cat": s.layer, "ph": "X",
               "ts": round((s.start - t0) * 1e6, 3),
               "dur": round(s.dur * 1e6, 3), "pid": s.pid,
               "tid": s.tid % 1_000_000,
               "args": {"span_id": s.span_id, "parent": s.parent,
                        **s.counts}}
              for s in sorted(spans, key=lambda s: s.start)]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
