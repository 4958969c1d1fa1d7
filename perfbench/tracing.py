"""Span timers and counters wrapped around the program's entry points.

The tracer never edits the program: :func:`install` replaces
attributes of :mod:`repro` modules and classes with timing wrappers
from this file and :meth:`Tracer.remove` puts the originals back.  Spans
live in memory as ``(id, parent, op, name, start, end)`` and are written
as JSONL once the run ends.

A span's *self* time is its duration minus the durations of its direct
children.  The program is single-threaded on every path the benchmark
drives, so children nest strictly inside their parent.  A call that
re-enters a span name already open on the stack (a subclass method
delegating to its base, a planner fallback into ``build`` from inside
``build``) is not recorded again, so counts and times are not doubled.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, Optional[int], int, str, float, float]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op = 0  #: operation id shared by the spans of one request
        self._stack: List[int] = []  #: ids of the open spans
        self._open: Counter = Counter()
        self._next = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        if self._open[name]:
            yield
            return
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._open[name] += 1
        self.counts[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            self.spans.append((sid, parent, self.op, name, start, end))

    def is_open(self, name: str) -> bool:
        return bool(self._open[name])

    def wrap(self, func: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return func(*args, **kwargs)

        traced.__wrapped__ = func
        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        self.patch_with(owner, attr, lambda original: self.wrap(original, name))

    def patch_with(self, owner: object, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` by ``make(original)`` (custom counters)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Inclusive seconds per span name."""
        out: Dict[str, float] = defaultdict(float)
        for _sid, _parent, _op, name, start, end in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name minus the time of its direct children."""
        child: Dict[int, float] = defaultdict(float)
        for _sid, parent, _op, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for sid, _parent, _op, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end in sorted(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every entry point the per-layer metrics read."""
    from repro.algorithms import acyclic_guarded
    from repro.analysis import scale
    from repro.core.exceptions import DecompositionError
    from repro.core.scheme import BroadcastScheme
    from repro.estimation import online
    from repro.planning import collapsed, planner, repair
    from repro.runtime import engine
    from repro.service import ledger, plane, server
    from repro.sessions import broker
    from repro.simulation import core as sim_core
    from repro.simulation.backends import sharded

    tracer.patch(server.InProcessTransport, "submit_batch", "service.transport")
    tracer.patch(plane.ControlPlane, "submit_batch", "service.batch")
    tracer.patch(ledger.ReservationLedger, "append", "service.ledger")
    for cls in (broker.CapacityBroker, broker.WaterfillBroker):
        tracer.patch(cls, "arbitrate", "sessions.arbitrate")
    for cls in (
        planner.FullRebuildPlanner,
        repair.IncrementalRepairPlanner,
        collapsed.ClassCollapsedPlanner,
    ):
        tracer.patch(cls, "build", "planning.build")

    def replan(original):
        timed = tracer.wrap(original, "planning.replan")

        def traced(self, *args, **kwargs):
            outer = not tracer.is_open("planning.replan")
            outcome = timed(self, *args, **kwargs)
            if outer:
                # Counted here rather than read from ServiceStats, whose
                # totals forget the sessions that were stopped.
                tracer.counts["planning.repairs"] += outcome.op == "repair"
                tracer.counts["planning.fallbacks"] += bool(outcome.fallback)
            return outcome

        return traced

    for cls in (
        planner.Planner,
        repair.IncrementalRepairPlanner,
        collapsed.ClassCollapsedPlanner,
    ):
        tracer.patch_with(cls, "replan", replan)
    tracer.patch(acyclic_guarded, "optimal_acyclic_throughput", "algorithms.solve")
    tracer.patch(acyclic_guarded, "collapsed_scheme", "algorithms.collapsed")
    tracer.patch(scale, "collapsed_scheme", "algorithms.collapsed")
    tracer.patch(acyclic_guarded, "greedy_segments", "algorithms.segment_probe")
    tracer.patch(BroadcastScheme, "validate", "core.validate")
    tracer.patch(online.EstimatedPlatformView, "refresh", "estimation.refresh")
    tracer.patch(online, "estimate_lastmile", "estimation.fit")

    def probe(original):
        def traced(self, platform, now):
            with tracer.span("estimation.probe"):
                probes = original(self, platform, now)
            tracer.counts["estimation.probes"] += len(probes)
            return probes

        return traced

    tracer.patch_with(online.ProbeScheduler, "probe", probe)
    tracer.patch(engine, "simulate_packet_broadcast", "simulation.epoch")

    def make_backend(original):
        def traced(name, config, rng):
            try:
                backend = original(name, config, rng)
            except DecompositionError:
                tracer.counts["simulation.auto_fallbacks"] += 1
                raise
            tracer.counts[f"simulation.backend.{backend.name}"] += 1
            return backend

        return traced

    tracer.patch_with(sim_core, "make_backend", make_backend)
    tracer.patch(scale.ShardFleet, "run", "simulation.fleet_run")
    tracer.patch(sharded, "decompose_broadcast_trees", "flows.decompose")
    tracer.patch(scale, "decompose_broadcast_arrays", "flows.decompose")
