"""The benchmark's own fast tests: tiny smoke runs of every workload,
each output check shown to reject a wrong input, and the tracer.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps the repository's test run from collecting it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import CheckFailed, import_repro, lemma51_bound, tail_quantile  # noqa: E402

import_repro()

import churn_estimated  # noqa: E402
import scale_8class  # noqa: E402
import serve_paired  # noqa: E402
from tracing import Tracer, install  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a size that runs in a second or two."""
    for name, value in {
        "PEERS": 24, "SHARED": 8, "EVICT": 2, "ROUNDS": 2, "MIN_EPISODES": 2,
    }.items():
        monkeypatch.setattr(serve_paired, name, value)
    monkeypatch.setattr(
        serve_paired, "MIN_BATCHES", 2 * 2 * (len(serve_paired.ROUND) + 1)
    )
    for name, value in {
        "SIZE": 12, "HORIZON": 120, "MIN_EPOCHS": 20,
    }.items():
        monkeypatch.setattr(churn_estimated, name, value)
    for name, value in {
        "SIZE": 300, "SWARMS": 2, "WINDOW": 48, "MIN_ROUNDS": 24, "SMALL": 60,
    }.items():
        monkeypatch.setattr(scale_8class, name, value)


WORKLOADS = (serve_paired, churn_estimated, scale_8class)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda m: m.__name__)
def test_smoke_run(workload, tiny, tmp_path):
    attempted, failed, metrics = workload.run(3, 0.2, tmp_path)
    assert attempted > 0 and failed == 0
    assert set(metrics) == {
        "setup_s", "op_mean_ms", "op_tail_ms", "work_per_s", "goodput_frac", "peak_rss_mb"
    }
    assert all(v > 0 and math.isfinite(v) for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda m: m.__name__)
def test_tracing_keeps_outputs(workload, tiny, tmp_path):
    reference = workload.fixed(5, tmp_path)
    tracer = Tracer()
    install(tracer)
    try:
        traced = workload.fixed(5, tmp_path, tracer)
    finally:
        tracer.remove()
    assert workload.verify(traced) == workload.verify(reference)
    assert tracer.spans


def test_tracer_removes_every_wrapper():
    from repro.service import ControlPlane

    original = ControlPlane.submit_batch
    tracer = Tracer()
    install(tracer)
    assert ControlPlane.submit_batch is not original
    tracer.remove()
    assert ControlPlane.submit_batch is original


def test_self_time_subtracts_children_and_skips_reentry():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("inner"):  # re-entry: not a second span
                pass
    assert tracer.counts == {"outer": 1, "inner": 1}
    totals, selfs = tracer.totals(), tracer.self_times()
    assert selfs["outer"] == pytest.approx(totals["outer"] - totals["inner"])
    assert selfs["inner"] == totals["inner"]


def test_tail_rung_keeps_ten_samples_beyond_it():
    assert tail_quantile(1008) == 0.99
    assert tail_quantile(300) == 0.95
    assert tail_quantile(100) == 0.9
    with pytest.raises(ValueError):
        tail_quantile(10)


def test_closed_form_matches_lemma51():
    from repro.sessions.broker import lemma51_bound as program_bound

    rng = random.Random(7)
    for _ in range(200):
        kinds = {i: rng.choice(["open", "guarded"]) for i in range(1, 12)}
        bws = {i: rng.uniform(1, 100) for i in kinds}
        b0 = rng.uniform(1, 100)
        ours = lemma51_bound(
            b0,
            [bws[i] for i in kinds if kinds[i] == "open"],
            [bws[i] for i in kinds if kinds[i] == "guarded"],
        )
        assert ours == pytest.approx(program_bound(b0, math.inf, kinds, kinds, bws))


# ----------------------------------------------------------------------
# Each check rejects a deliberately wrong output
# ----------------------------------------------------------------------
def _journal(tmp_path):
    result = serve_paired.episode(4, 0, tmp_path, "t")
    path = Path(result["journal"])
    return path, [json.loads(line) for line in path.read_text().splitlines()]


def _rewrite(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _first_grant(records):
    for rec in records[1:]:
        for name, grants in rec["grants"].items():
            if grants:
                return rec, name, next(iter(grants))
    raise AssertionError("no grant in the journal")


def test_serve_journal_passes_untouched(tiny, tmp_path):
    path, _records = _journal(tmp_path)
    ratios, _digest = serve_paired.check_journal(path)
    assert ratios and all(0 < r <= 1 for r in ratios)


def test_serve_rejects_grant_over_capacity(tiny, tmp_path):
    path, records = _journal(tmp_path)
    rec, name, node = _first_grant(records)
    rec["grants"][name][node] = records[0]["platform"]["nodes"][node]["bandwidth"] * 1.5
    _rewrite(path, records)
    with pytest.raises(CheckFailed, match="> bandwidth"):
        serve_paired.check_journal(path)


def test_serve_rejects_bound_off_the_closed_form(tiny, tmp_path):
    path, records = _journal(tmp_path)
    rec, name, _node = _first_grant(records)
    rec["bounds"][name] *= 1.01
    _rewrite(path, records)
    with pytest.raises(CheckFailed, match="closed form"):
        serve_paired.check_journal(path)


@pytest.mark.parametrize("factor", [1.01, 0.7])
def test_serve_rejects_plan_rate_outside_the_band(tiny, tmp_path, factor):
    path, records = _journal(tmp_path)
    for rec in records[1:]:
        for resp in rec["responses"]:
            if resp["op"] == "query" and resp["name"]:
                resp["state"]["plan_rate"] = resp["state"]["bound"] * factor
                _rewrite(path, records)
                with pytest.raises(CheckFailed, match="plan rate"):
                    serve_paired.check_journal(path)
                return
    raise AssertionError("no per-channel query in the journal")


def test_churn_rejects_goodput_above_the_bound(tiny):
    run = churn_estimated.make_round(6, 0)
    result, _setup, _durations = churn_estimated.play(run, 6)
    churn_estimated.check_round(run, result)
    bound = churn_estimated.true_bounds(run, result.epochs[:1])[0]
    result.epochs[0] = dataclasses.replace(result.epochs[0], min_goodput=bound * 1.001)
    with pytest.raises(CheckFailed, match="Lemma 5.1"):
        churn_estimated.check_round(run, result)


def test_churn_rejects_an_alive_count_the_events_deny(tiny):
    run = churn_estimated.make_round(6, 0)
    result, _setup, _durations = churn_estimated.play(run, 6)
    result.epochs[0] = dataclasses.replace(
        result.epochs[0], num_alive=result.epochs[0].num_alive + 1
    )
    with pytest.raises(CheckFailed, match="alive"):
        churn_estimated.check_round(run, result)


def test_scale_rejects_rates_outside_the_band():
    scale_8class.check_rate(0.9, 1.0)
    for rate in (1.001, 0.7):
        with pytest.raises(CheckFailed, match="planned rate"):
            scale_8class.check_rate(rate, 1.0)


def test_scale_rejects_goodput_beyond_or_far_below_the_rate(tiny):
    import numpy as np

    rate = 10.0
    per_slot = rate * scale_8class.ppu(rate)
    full = np.full(5, per_slot * scale_8class.WINDOW)
    assert scale_8class.worst_goodput(rate, 0.0, full * 0.99) == pytest.approx(rate * 0.99)
    with pytest.raises(CheckFailed, match="> simulated"):
        scale_8class.worst_goodput(rate, 0.0, full * 1.01)
    with pytest.raises(CheckFailed, match="within 5%"):
        scale_8class.worst_goodput(rate, 0.0, full * 0.9)
