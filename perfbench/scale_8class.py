"""``scale-8class``: class-collapsed planning and the sharded array
transport on an 8-class swarm.

Each run builds ``SWARMS`` swarms of ``SIZE`` receivers from its seed
(swarm ``k`` from seed ``s * 1000 + k``).  A swarm has 8 bandwidth
classes drawn from ``Unif100``, and the receivers are spread over the
classes by a multinomial split, as ``random_class_runs`` does; ranked by
bandwidth, the classes alternate open, guarded, open, ...  The source
gets the saturating default.  This shape sends the planner through its
whole dichotomic search on nearly every swarm (19 of 20 seeds tried).  With kinds drawn at random, as
``random_class_runs`` draws them, about half of the swarms end the
search at its first probe, so set-up time is bimodal across seeds; with
the 4 highest classes open, the trees grow deep and shard building, not
planning, dominates set-up.

Set-up is ``analysis.scale.build_fleet`` (plan, decompose, shard) once
per swarm, with ``workers=1``.  An operation is one ``ShardFleet.run``
of ``CHUNK`` slots; a round runs one on every swarm, and the timed
sample is the round, so every sample averages over the swarms.
"""

from __future__ import annotations

import math
import sys
import time
from typing import List, Tuple

import numpy as np

from common import ACYCLIC_RATIO, check, lemma51_from_sums, op_metrics, peak_rss_mb

SIZE = 2_000
SWARMS = 9
CLASSES = 8
CHUNK = 4
PACKETS_PER_SLOT = 64.0
#: Worst-receiver goodput is read over the first ``WINDOW`` slots of
#: every swarm, so it does not depend on how long the run lasts.
WINDOW = 96
#: Rounds every run completes: every swarm gets past ``WINDOW`` slots,
#: and 100 samples put ``op_tail_ms`` at p90.
MIN_ROUNDS = 100
#: The chunked-equals-one-shot check runs at this size.
SMALL = 400


def classes_for(seed: int, size: int = SIZE):
    rng = np.random.default_rng(seed)
    bws = np.sort(rng.uniform(1.0, 100.0, CLASSES))[::-1]
    counts = np.ones(CLASSES, dtype=np.int64) + rng.multinomial(
        size - CLASSES, np.full(CLASSES, 1.0 / CLASSES)
    )
    return [
        ("open" if i % 2 == 0 else "guarded", float(bws[i]), int(counts[i]))
        for i in range(CLASSES)
    ]


def class_bound(runs, classes) -> float:
    """Lemma 5.1 bound from the class aggregates; ``b0`` is the
    source the swarm was given."""
    opens = [(bw, c) for kind, bw, c in classes if kind == "open"]
    guardeds = [(bw, c) for kind, bw, c in classes if kind == "guarded"]
    return lemma51_from_sums(
        runs.source_bw,
        sum(c for _, c in opens),
        math.fsum(bw * c for bw, c in opens),
        sum(c for _, c in guardeds),
        math.fsum(bw * c for bw, c in guardeds),
    )


def build(classes, tracer=None):
    from repro.analysis.scale import build_fleet
    from repro.instances import class_runs

    runs = class_runs(None, classes)
    started = time.perf_counter()
    if tracer is None:
        fleet, rate, timings = build_fleet(runs, packets_per_slot=PACKETS_PER_SLOT, workers=1)
    else:
        with tracer.span("analysis.build_fleet"):
            fleet, rate, timings = build_fleet(
                runs, packets_per_slot=PACKETS_PER_SLOT, workers=1
            )
    seconds = time.perf_counter() - started
    bound = class_bound(runs, classes)
    check_rate(rate, bound)
    return fleet, rate, timings, bound, seconds


def check_rate(rate: float, bound: float) -> None:
    check(
        ACYCLIC_RATIO * bound * (1.0 - 1e-9) <= rate <= bound * (1.0 + 1e-9),
        f"planned rate {rate!r} outside [5/7, 1] x bound {bound!r}",
    )


def ppu(rate: float) -> float:
    """Packets per bandwidth unit the shards were built with."""
    from repro.analysis.scale import RATE_BACKOFF

    return PACKETS_PER_SLOT / (rate * RATE_BACKOFF)


def worst_goodput(rate, dropped, delivered) -> float:
    """Worst receiver's rate over slots ``[0, WINDOW)``: at most the
    simulated rate, since no receiver holds more than the source
    injected, and within 5% of it once the pipelines have filled."""
    simulated = rate - dropped
    got = float(delivered[1:].min() / WINDOW / ppu(rate))
    check(
        got <= simulated * (1.0 + 1e-9),
        f"worst goodput {got!r} > simulated rate {simulated!r}",
    )
    check(
        got >= 0.95 * simulated,
        f"worst goodput {got!r} not within 5% of the simulated rate {simulated!r}",
    )
    return got


def check_chunking(seed: int) -> None:
    """At a small size, ``CHUNK``-slot runs deliver what one run does."""
    classes = classes_for(seed, SMALL)
    chunked, rate, _t, _b, _s = build(classes)
    whole, _rate, _t, _b, _s = build(classes)
    try:
        for _ in range(WINDOW // CHUNK):
            chunked.run(CHUNK)
        whole.run(WINDOW)
        check(
            np.array_equal(chunked.delivered(), whole.delivered()),
            "chunked run delivered other packets than the one-shot run",
        )
    finally:
        chunked.close()
        whole.close()


def session(seed: int, seconds: float, tracer=None):
    swarms = []
    setups: List[float] = []
    for k in range(SWARMS):
        if tracer is not None:
            tracer.op += 1
        fleet, rate, timings, bound, took = build(classes_for(seed * 1000 + k), tracer)
        setups.append(took)
        swarms.append(
            {"fleet": fleet, "rate": rate, "dropped": timings["dropped_rate"], "bound": bound, "slots": 0}
        )
    rounds: List[float] = []
    node_slots = failed = 0
    ratios = []
    started = time.perf_counter()
    try:
        while len(rounds) < MIN_ROUNDS or (
            seconds and time.perf_counter() - started < seconds
        ):
            if tracer is not None:
                tracer.op += 1
            took = 0.0
            for swarm in swarms:
                fleet = swarm["fleet"]
                t0 = time.perf_counter()
                try:
                    fleet.run(CHUNK)
                except Exception as exc:  # a chunk raised: count it and go on
                    print(f"round {len(rounds)}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    failed += 1
                took += time.perf_counter() - t0
                swarm["slots"] += CHUNK
                node_slots += fleet.num * CHUNK
                if swarm["slots"] == WINDOW:
                    got = worst_goodput(swarm["rate"], swarm["dropped"], fleet.delivered())
                    ratios.append(got / swarm["bound"])
            rounds.append(took)
            if len(rounds) == MIN_ROUNDS:
                rss_mb = peak_rss_mb()
    finally:
        for swarm in swarms:
            swarm["fleet"].close()
    check(len(ratios) == SWARMS, "a swarm never reached the goodput window")
    return {
        "setups": setups,
        "rounds": rounds,
        "node_slots": node_slots,
        "goodput_frac": math.fsum(ratios) / len(ratios),
        "rates": [s["rate"] for s in swarms],
        "failed": failed,
        "rss_mb": rss_mb,
    }


def run(seed: int, seconds: float, out_dir):
    check_chunking(seed)
    result = session(seed, seconds)
    metrics = op_metrics(
        result["setups"],
        result["rounds"],
        MIN_ROUNDS,
        result["node_slots"],
        math.fsum(result["rounds"]),
        result["goodput_frac"],
        result["rss_mb"],
    )
    return len(result["rounds"]) * SWARMS, result["failed"], metrics


def fixed(seed: int, out_dir, tracer=None) -> dict:
    """Set-up and exactly ``MIN_ROUNDS`` rounds: the work a traced run
    and its untraced reference both do."""
    started = time.perf_counter()
    result = session(seed, 0, tracer)
    result["seconds"] = time.perf_counter() - started
    result["attempted"] = len(result["rounds"]) * SWARMS
    result["layers"] = {}
    return result


def verify(result) -> Tuple[int, dict]:
    return result["failed"], {"goodput_frac": result["goodput_frac"], "rates": result["rates"]}
