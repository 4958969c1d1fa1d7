"""``serve-paired``: a closed-loop client driving the control plane.

One client waits on each reply (a closed loop with one client, no think
time) and talks to a :class:`~repro.service.ControlPlane` through
:class:`~repro.service.InProcessTransport`, so both legs pay the JSON
codec but no socket.  The plane runs the ``waterfill`` broker,
``incremental`` planning and a :class:`~repro.service.ReservationLedger`
journaling to a file under the run's output directory.

A run is a series of episodes until ``--seconds`` have passed, at least
``MIN_EPISODES`` of them.  Each builds a fresh plane on a platform of
its own and runs ``ROUNDS`` rounds on it, so a run averages over as many
platforms as it has episodes, and the plane's state (its ledger keeps
every record in memory) never grows past one episode's.

Inputs, all from the seed and the episode number: the static platform
of a ``SteadyChurn`` swarm of ``PAIRS * (2 * PEERS - SHARED)`` peers,
cut into ``PAIRS`` blocks.  Channels ``a<k>`` and ``b<k>`` take the first and last
``PEERS`` peers of block ``k`` and share ``SHARED`` of them, so the
eight channels form four claim components.  After the channels start,
each evicts its ``EVICT`` lowest-bandwidth peers that it does not share;
a scratch channel ``roam`` then lives on two of those evicted peers and
swaps one for another, so it forms a fifth component of its own.

A round is ``ROUND`` in shuffled order: roamer swaps, within-pair
migrations (an unshared peer moves from one channel of a pair to the
other, both ways, so channel sizes stay fixed), priority changes to a
random weight, one channel stopped and started again, and whole-plane
and per-channel queries.  Each mutating batch touches one component, so
the arbitration memo misses on that one and hits on the other four.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from collections import defaultdict
from dataclasses import asdict
from typing import Dict, List, Tuple

from common import ACYCLIC_RATIO, check, lemma51_bound, op_metrics, peak_rss_mb

PAIRS = 4
PEERS = 250
SHARED = 100
EVICT = 4
#: Batch kinds of one round, shuffled per round.
ROUND = (
    ["swap"] * 6
    + [f"move:{k}:{d}" for k in range(PAIRS) for d in (0, 1)]
    + ["priority"] * 2
    + ["restart"]
    + ["query-all", "query-one", "query-one"]
)
#: Rounds of one episode.
ROUNDS = 12
#: Episodes every run completes.  21 batches and 29 requests a round:
#: 4 episodes of 12 rounds give the 1000 batches that put ``op_tail_ms``
#: at p99, and more than 1000 requests.  Their journals are checked.
MIN_EPISODES = 4
MIN_BATCHES = MIN_EPISODES * ROUNDS * (len(ROUND) + 1)
#: Episodes whose journal is also replayed (a replay costs what the
#: episode did).
REPLAYED = 1
FAILED = ("error", "rejected")


def make_inputs(seed: int, episode: int):
    from repro.runtime import SteadyChurn

    block = 2 * PEERS - SHARED
    platform = SteadyChurn(size=PAIRS * block).build(seed * 1000 + episode).platform
    ids = platform.alive_ids()
    random.Random(f"{seed}:{episode}:serve-paired:blocks").shuffle(ids)
    channels: Dict[str, Tuple[int, ...]] = {}
    for k in range(PAIRS):
        nodes = ids[k * block : (k + 1) * block]
        channels[f"a{k}"] = tuple(sorted(nodes[:PEERS]))
        channels[f"b{k}"] = tuple(sorted(nodes[block - PEERS :]))
    return platform, channels


class Client:
    """Generates the request stream and tracks membership to keep every
    request valid (the plane answers nothing ``error`` or ``rejected``)."""

    def __init__(self, seed: int, episode: int, platform, channels) -> None:
        self.rng = random.Random(f"{seed}:{episode}:serve-paired:stream")
        self.platform = platform
        self.source_bw = platform.source_bw
        self.members = {name: list(m) for name, m in channels.items()}
        self.partner = {}
        for k in range(PAIRS):
            self.partner[f"a{k}"] = f"b{k}"
            self.partner[f"b{k}"] = f"a{k}"
        self.held: List[int] = []
        self.free: List[int] = []
        self.swaps = 0

    def start(self, name: str):
        from repro.service import StartSession

        return (
            StartSession(
                name=name,
                source_bw=self.source_bw,
                members=tuple(self.members[name]),
            ),
        )

    def exclusive(self, name: str) -> List[int]:
        other = set(self.members[self.partner[name]])
        return [n for n in self.members[name] if n not in other]

    def prelude(self) -> List[tuple]:
        """Evict the pool and start the roamer on two evicted peers."""
        from repro.service import MigrateSession, StartSession

        nodes = self.platform.nodes
        batches = []
        for name in self.members:
            ranked = sorted(self.exclusive(name), key=lambda n: (nodes[n].bandwidth, n))
            evicted = tuple(ranked[:EVICT])
            for n in evicted:
                self.members[name].remove(n)
            self.free.extend(evicted)
            batches.append((MigrateSession(name=name, remove=evicted),))
        self.held = [self.free.pop(0), self.free.pop(0)]
        batches.append(
            (StartSession(name="roam", source_bw=self.source_bw, members=tuple(self.held)),)
        )
        return batches

    def round(self) -> List[tuple]:
        from repro.service import MigrateSession, PriorityChange, Query, StopSession

        kinds = list(ROUND)
        self.rng.shuffle(kinds)
        channels = sorted(self.members)
        batches = []
        for kind in kinds:
            if kind == "swap":
                fresh = self.free.pop(self.rng.randrange(len(self.free)))
                slot = self.swaps % 2
                out, self.held[slot] = self.held[slot], fresh
                self.free.append(out)
                self.swaps += 1
                batches.append(
                    (MigrateSession(name="roam", add=(fresh,), remove=(out,)),)
                )
            elif kind.startswith("move:"):
                _, k, d = kind.split(":")
                src, dst = (f"a{k}", f"b{k}") if d == "0" else (f"b{k}", f"a{k}")
                node = self.rng.choice(self.exclusive(src))
                self.members[src].remove(node)
                self.members[dst].append(node)
                batches.append(
                    (
                        MigrateSession(name=src, remove=(node,)),
                        MigrateSession(name=dst, add=(node,)),
                    )
                )
            elif kind == "priority":
                name = self.rng.choice(channels)
                weight = round(self.rng.uniform(0.5, 2.0), 3)
                batches.append((PriorityChange(name=name, priority=weight),))
            elif kind == "restart":
                name = self.rng.choice(channels)
                batches.append((StopSession(name=name),))
                batches.append(self.start(name))
            elif kind == "query-all":
                batches.append((Query(),))
            else:
                batches.append((Query(name=self.rng.choice(channels)),))
        return batches


def episode(seed: int, k: int, out_dir, tag: str, tracer=None) -> dict:
    """Episode ``k``: set-up on a fresh platform, then ``ROUNDS`` timed
    rounds.  Returns what the checks and the metrics need."""
    from repro.service import ControlPlane, InProcessTransport, ReservationLedger

    platform, channels = make_inputs(seed, k)
    client = Client(seed, k, platform, channels)
    journal = out_dir / f"ledger-{tag}-{k}.jsonl"
    journal.unlink(missing_ok=True)  # the ledger appends
    attempted = failed = 0

    def submit(batch):
        nonlocal attempted, failed
        answer = transport.submit_batch(batch)
        attempted += len(answer)
        failed += sum(1 for r in answer if r.status in FAILED)

    if tracer is not None:
        tracer.op += 1
    started = time.perf_counter()
    plane = ControlPlane(
        platform,
        broker="waterfill",
        planning="incremental",
        seed=seed,
        ledger=ReservationLedger(str(journal)),
    )
    transport = InProcessTransport(plane)
    for name in sorted(channels):
        submit(client.start(name))
    setup = time.perf_counter() - started
    for batch in client.prelude():
        submit(batch)
    latencies: List[float] = []
    requests = 0
    for _ in range(ROUNDS):
        for batch in client.round():
            if tracer is not None:
                tracer.op += 1
            started = time.perf_counter()
            submit(batch)
            latencies.append(time.perf_counter() - started)
            requests += len(batch)
    plane.ledger.close()
    stats = asdict(plane.stats())
    for timing in ("latency_p50_ms", "latency_p99_ms", "requests_per_sec"):
        del stats[timing]
    return {
        "journal": journal,
        "setup": setup,
        "latencies": latencies,
        "requests": requests,
        "attempted": attempted,
        "failed": failed,
        "stats": stats,
        "cache": plane.cache.stats(),
    }


def session(seed: int, out_dir, tag: str, seconds: float, tracer=None) -> dict:
    """Whole episodes until ``seconds`` pass (``seconds=0``: exactly
    ``MIN_EPISODES``, the traced run and its untraced reference).  The
    journals of later episodes are deleted as soon as they end."""
    episodes: List[dict] = []
    started = time.perf_counter()
    while len(episodes) < MIN_EPISODES or (
        seconds and time.perf_counter() - started < seconds
    ):
        ep = episode(seed, len(episodes), out_dir, tag, tracer)
        if len(episodes) >= MIN_EPISODES:
            ep["journal"].unlink()
        episodes.append(ep)
        if len(episodes) == MIN_EPISODES:
            rss_mb = peak_rss_mb()
    return {
        "episodes": episodes,
        "attempted": sum(ep["attempted"] for ep in episodes),
        "failed": sum(ep["failed"] for ep in episodes),
        "rss_mb": rss_mb,
    }


def check_journal(path) -> Tuple[List[float], str]:
    """Output checks on one episode's journal; returns, per query, the
    sum of plan rates over the sum of bounds, and a digest of every
    record's grants."""
    from repro.service import ReservationLedger

    records = ReservationLedger.read(str(path))
    check(bool(records) and records[0].get("header"), "journal has no header")
    nodes = records[0]["platform"]["nodes"]
    kind = {int(k): v["kind"] for k, v in nodes.items()}
    bandwidth = {int(k): v["bandwidth"] for k, v in nodes.items()}
    b0_of: Dict[str, float] = {}
    seen: Dict[str, dict] = {}  #: session -> grants its bound was computed on
    bound_of: Dict[str, float] = {}
    load: Dict[int, float] = defaultdict(float)
    ratios: List[float] = []
    for rec in records[1:]:
        for req, resp in zip(rec["requests"], rec["responses"]):
            if req["op"] == "start_session" and resp["status"] in ("admitted", "degraded"):
                b0_of[req["name"]] = min(req["source_bw"], req["demand"])
            elif req["op"] == "stop_session" and resp["status"] == "stopped":
                del b0_of[req["name"]]
        grants = rec["grants"]
        check(set(grants) == set(b0_of), f"seq {rec['seq']}: sessions {sorted(grants)}")
        # Per-node load moves only with the sessions whose grants moved.
        moved = set()
        for name in list(seen):
            if grants.get(name) != seen[name]:
                for node, grant in seen.pop(name).items():
                    load[int(node)] -= grant
                    moved.add(int(node))
        for name, per_node in grants.items():
            if name in seen:
                continue
            seen[name] = per_node
            opens, guardeds = [], []
            for node, grant in per_node.items():
                load[int(node)] += grant
                moved.add(int(node))
                (guardeds if kind[int(node)] == "guarded" else opens).append(grant)
            bound_of[name] = lemma51_bound(b0_of[name], opens, guardeds)
        for node in moved:
            # Loads are running sums; the slack covers their rounding.
            check(
                load[node] <= bandwidth[node] * (1.0 + 1e-9),
                f"seq {rec['seq']}: node {node} granted {load[node]!r} > bandwidth {bandwidth[node]!r}",
            )
        for name in grants:
            recorded = rec["bounds"][name]
            check(
                math.isclose(recorded, bound_of[name], rel_tol=1e-9),
                f"seq {rec['seq']}: {name} bound {recorded!r} != closed form {bound_of[name]!r}",
            )
        for resp in rec["responses"]:
            if resp["op"] != "query" or resp["status"] != "ok":
                continue
            state = resp["state"]
            states = state["sessions"] if resp["name"] == "" or resp["name"] is None else {resp["name"]: state}
            rate_sum = bound_sum = 0.0
            for name, st in states.items():
                bound = bound_of[name]
                check(
                    ACYCLIC_RATIO * bound * (1.0 - 1e-9) <= st["plan_rate"] <= bound * (1.0 + 1e-6),
                    f"seq {rec['seq']}: {name} plan rate {st['plan_rate']!r} "
                    f"outside [5/7, 1] x bound {bound!r}",
                )
                rate_sum += st["plan_rate"]
                bound_sum += bound
            ratios.append(rate_sum / bound_sum)
    check(bool(ratios), "no query answered in the stream")
    digest = hashlib.sha256(
        json.dumps([rec["grants"] for rec in records[1:]], sort_keys=True).encode()
    ).hexdigest()
    return ratios, digest


def outputs(result) -> Tuple[float, dict]:
    """Check the journals of the first ``MIN_EPISODES`` episodes and
    replay the first ``REPLAYED``; returns ``goodput_frac`` over their
    queries and the digest a traced run must reproduce exactly.  Checked
    journals are deleted."""
    from repro.service import ControlPlane

    ratios: List[float] = []
    digest = {"grants": [], "stats": []}
    for k, ep in enumerate(result["episodes"][:MIN_EPISODES]):
        path = ep["journal"]
        episode_ratios, grants = check_journal(path)
        if k < REPLAYED:
            ControlPlane.recover(str(path), verify=True, resume_appending=False)
        ratios += episode_ratios
        path.unlink()
        digest["grants"].append(grants)
        digest["stats"].append(ep["stats"])
    goodput = math.fsum(ratios) / len(ratios)
    digest["goodput_frac"] = goodput
    return goodput, digest


def run(seed: int, seconds: float, out_dir) -> Tuple[int, int, Dict[str, float]]:
    result = session(seed, out_dir, "e2e", seconds)
    goodput, _digest = outputs(result)
    episodes = result["episodes"]
    latencies = [t for ep in episodes for t in ep["latencies"]]
    metrics = op_metrics(
        [ep["setup"] for ep in episodes],
        latencies,
        MIN_BATCHES,
        sum(ep["requests"] for ep in episodes),
        math.fsum(latencies),
        goodput,
        result["rss_mb"],
    )
    return result["attempted"], result["failed"], metrics


def fixed(seed: int, out_dir, tracer=None) -> dict:
    """Exactly ``MIN_EPISODES`` episodes: the work a traced run and its
    untraced reference both do."""
    tag = "reference" if tracer is None else "traced"
    started = time.perf_counter()
    result = session(seed, out_dir, tag, 0, tracer)
    result["seconds"] = time.perf_counter() - started
    episodes = result["episodes"]
    result["layers"] = {
        "service.arb_hits": sum(ep["stats"]["arb_hits"] for ep in episodes),
        "service.arb_misses": sum(ep["stats"]["arb_misses"] for ep in episodes),
        "planning.cache_hits": sum(ep["cache"][0] for ep in episodes),
        "planning.cache_misses": sum(ep["cache"][1] for ep in episodes),
    }
    return result


def verify(result) -> Tuple[int, dict]:
    _goodput, digest = outputs(result)
    return result["failed"], digest
