"""``churn-estimated``: the runtime engine re-planning on measured
bandwidths while a swarm churns.

Each round is one :class:`~repro.runtime.RuntimeEngine` run over its own
``SteadyChurn`` swarm (``SIZE`` peers at the start, joins and leaves at
``RATE`` per slot each, ``HORIZON`` slots), under an
:class:`~repro.runtime.IncrementalController` owned by the benchmark,
with ``estimation="online"``, ``sim_backend="auto"`` and
``plan_slack=SLACK``.  Round ``r`` of seed ``s`` draws its swarm from
seed ``s * 1000 + r``.  A run plays rounds 0, 1, ... until
``--seconds`` have passed and it has run at least ``MIN_EPOCHS`` epochs.
The horizon is short so that a run averages over many swarms, and so
that each swarm's size (a random walk under equal join and leave rates)
stays near ``SIZE``.

``auto`` rather than ``sharded``: with online estimation the sharded
backend raises ``DecompositionError`` at the first epoch whose
truth-clipped scheme does not decompose.  ``SLACK`` keeps repairs
possible: without it nearly every repair falls back to a build.

An operation is one epoch, timed from one controller decision to the
next (the first from the return of ``start()``, the last to the return
of ``run()``).  Set-up is every round's engine construction until
``start()`` returns (first estimate and first plan).
"""

from __future__ import annotations

import copy
import math
import sys
import time
from typing import Dict, List, Tuple

from common import CheckFailed, check, lemma51_from_sums, op_metrics, peak_rss_mb

SIZE = 40
RATE = 0.1
HORIZON = 50
SLACK = 0.05
#: Epochs every run completes (about 9 a round): they give the
#: ``op_tail_ms`` rung, and the rounds that first reach this many give
#: the ``goodput_frac`` average.
MIN_EPOCHS = 100


def make_round(seed: int, r: int):
    from repro.runtime import SteadyChurn

    scenario = SteadyChurn(size=SIZE, join_rate=RATE, leave_rate=RATE, horizon=HORIZON)
    return scenario.build(seed * 1000 + r)


def _controller(tracer=None):
    from repro.runtime import IncrementalController

    class Timed(IncrementalController):
        """Records when each decision returns; that is where epochs end."""

        def __init__(self) -> None:
            super().__init__()
            self.marks: List[float] = []

        def start(self, engine):
            plan = super().start(engine)
            self.marks.append(time.perf_counter())
            return plan

        def on_change(self, engine, events):
            if tracer is None:
                plan = super().on_change(engine, events)
            else:
                with tracer.span("runtime.decide"):
                    plan = super().on_change(engine, events)
            self.marks.append(time.perf_counter())
            return plan

    return Timed()


def _engine(run, seed: int):
    from repro.runtime import RuntimeEngine

    return RuntimeEngine(
        copy.deepcopy(run.platform),
        run.events,
        run.horizon,
        seed=seed,
        estimation="online",
        sim_backend="auto",
        plan_slack=SLACK,
    )


def play(run, seed: int, tracer=None):
    """One round: returns the run result, the set-up seconds and the
    epoch durations."""
    started = time.perf_counter()
    controller = _controller(tracer)
    engine = _engine(run, seed)
    result = engine.run(controller)
    done = time.perf_counter()
    marks = controller.marks + [done]
    check(
        len(marks) == len(result.epochs) + 1,
        f"{len(result.epochs)} epochs but {len(marks) - 1} decisions",
    )
    durations = [b - a for a, b in zip(marks, marks[1:])]
    return result, marks[0] - started, durations


def true_bounds(run, epochs) -> List[float]:
    """Lemma 5.1 bound of the true alive swarm at each epoch's start,
    rebuilt from the round's own platform and event list."""
    from repro.runtime.events import NodeJoin, NodeLeave

    alive: Dict[int, Tuple[str, float]] = {
        i: (s.kind, s.bandwidth) for i, s in run.platform.nodes.items() if s.alive
    }
    events = sorted(run.events, key=lambda ev: ev.time)
    k = 0
    bounds = []
    for epoch in epochs:
        while k < len(events) and events[k].time <= epoch.start:
            ev = events[k]
            if isinstance(ev, NodeJoin):
                alive[ev.node_id] = (ev.kind, ev.bandwidth)
            elif isinstance(ev, NodeLeave):
                del alive[ev.node_id]
            k += 1
        check(
            len(alive) == epoch.num_alive,
            f"epoch at {epoch.start}: {epoch.num_alive} alive, event list says {len(alive)}",
        )
        opens = [bw for kind, bw in alive.values() if kind == "open"]
        guardeds = [bw for kind, bw in alive.values() if kind == "guarded"]
        bounds.append(
            lemma51_from_sums(
                run.platform.source_bw,
                len(opens),
                math.fsum(opens),
                len(guardeds),
                math.fsum(guardeds),
            )
        )
    return bounds


def check_round(run, result) -> Tuple[float, float]:
    """No epoch's worst receiver beats the bound; returns the
    slot-weighted sums of (worst goodput / bound) and of slots."""
    ratio_slots = slots = 0.0
    for epoch, bound in zip(result.epochs, true_bounds(run, result.epochs)):
        check(
            epoch.min_goodput <= bound * (1.0 + 1e-9),
            f"epoch [{epoch.start}, {epoch.end}): worst goodput {epoch.min_goodput!r} "
            f"> Lemma 5.1 bound {bound!r}",
        )
        ratio_slots += epoch.min_goodput / bound * epoch.slots
        slots += epoch.slots
    return ratio_slots, slots


def reports(result) -> list:
    """The epoch reports a traced run must reproduce exactly."""
    return [(e.start, e.end, e.plan_op, e.min_goodput, e.probes) for e in result.epochs]


def session(seed: int, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` pass and ``MIN_EPOCHS`` epochs ran
    (``seconds=0``: until the epochs alone)."""
    played: List[dict] = []
    epochs = failed = 0
    first = None  #: rounds that reached ``MIN_EPOCHS``
    started = time.perf_counter()
    while epochs < MIN_EPOCHS or (seconds and time.perf_counter() - started < seconds):
        check(failed < 10, "10 rounds raised")
        r = len(played) + failed
        run = make_round(seed, r)
        if tracer is not None:
            tracer.op += 1
        try:
            result, setup, durations = play(run, seed * 1000 + r, tracer)
        except CheckFailed:
            raise
        except Exception as exc:  # an epoch raised: count it and go on
            print(f"round {r}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            continue
        played.append({"run": run, "result": result, "setup": setup, "durations": durations})
        epochs += len(result.epochs)
        if first is None and epochs >= MIN_EPOCHS:
            first = len(played)
            rss_mb = peak_rss_mb()
    return {
        "played": played,
        "first": first,
        "attempted": epochs + failed,
        "failed": failed,
        "rss_mb": rss_mb,
    }


def goodput(result) -> float:
    """Checks every epoch of every round played; returns the
    slot-weighted worst-receiver goodput over the true bound of the
    rounds that first reached ``MIN_EPOCHS`` epochs."""
    ratio_slots = slots = 0.0
    for k, entry in enumerate(result["played"]):
        a, b = check_round(entry["run"], entry["result"])
        if k < result["first"]:
            ratio_slots += a
            slots += b
    return ratio_slots / slots


def run(seed: int, seconds: float, out_dir):
    result = session(seed, seconds)
    played = result["played"]
    durations = [d for entry in played for d in entry["durations"]]
    metrics = op_metrics(
        [entry["setup"] for entry in played],
        durations,
        MIN_EPOCHS,
        sum(e.num_alive * e.slots for entry in played for e in entry["result"].epochs),
        math.fsum(durations),
        goodput(result),
        result["rss_mb"],
    )
    return result["attempted"], result["failed"], metrics


def fixed(seed: int, out_dir, tracer=None) -> dict:
    """Rounds until ``MIN_EPOCHS`` epochs: the work a traced run and its
    untraced reference both do."""
    started = time.perf_counter()
    result = session(seed, 0, tracer)
    result["seconds"] = time.perf_counter() - started
    runs = [entry["result"] for entry in result["played"]]
    layers = {
        "planning.cache_hits": sum(r.cache_hits for r in runs),
        "planning.cache_misses": sum(r.cache_misses for r in runs),
        "runtime.epochs": sum(len(r.epochs) for r in runs),
    }
    if tracer is not None:
        # The epoch minus simulation and decision: event application,
        # estimation and the engine's own bookkeeping.
        totals = tracer.totals()
        layers["runtime.boundary_ms"] = (
            math.fsum(d for entry in result["played"] for d in entry["durations"])
            - totals.get("simulation.epoch", 0.0)
            - totals.get("runtime.decide", 0.0)
        ) * 1e3
    result["layers"] = layers
    return result


def verify(result) -> Tuple[int, dict]:
    runs = [entry["result"] for entry in result["played"]]
    digest = {
        "goodput_frac": goodput(result),
        "epochs": [reports(r) for r in runs],
        "counters": [(r.rebuilds, r.repairs, r.repair_fallbacks, r.probes) for r in runs],
    }
    return result["failed"], digest
