"""Shared pieces of the benchmark: timing, percentiles, the Lemma 5.1
closed form, the result line and the output directory.

Nothing here imports :mod:`repro`; the workload modules do, after
:func:`import_repro` has put the checkout's ``src`` first on the path.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Percentile ladder for ``op_tail_ms``: the highest rung with at least
#: ten samples beyond it, judged on the workload's guaranteed minimum
#: operation count so every run of a workload reports the same rung.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)

#: Acyclic overlays reach at least this share of the Lemma 5.1 bound
#: (the paper's worst-case ratio).
ACYCLIC_RATIO = 5.0 / 7.0


class CheckFailed(AssertionError):
    """An output check computed by the benchmark rejected the program's
    output.  Raised, never asserted, so ``python -O`` keeps the checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def import_repro():
    """Import :mod:`repro` from this checkout's ``src`` or exit 2.

    The benchmark builds nothing and installs nothing: without the
    checkout's sources it must fail instead of measuring some other
    copy of the package that happens to be importable.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: imported repro from {origin}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return repro


def tail_quantile(min_ops: int) -> float:
    """Ladder rung for a workload guaranteeing ``min_ops`` samples."""
    for q in TAIL_LADDER:
        if min_ops * (1.0 - q) + 1e-9 >= 10.0:  # 100 * (1 - 0.9) < 10 in floats
            return q
    raise ValueError(f"{min_ops} operations are too few for a tail")


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = (len(ordered) - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def lemma51_bound(
    b0: float, opens: Iterable[float], guardeds: Iterable[float]
) -> float:
    """``min(b0, (b0+O)/m, (b0+O+G)/(n+m))`` from bandwidth lists.

    The benchmark's own copy of the closed form: every bound an output
    check compares against is computed here, never by the program.
    """
    opens = list(opens)
    guardeds = list(guardeds)
    return lemma51_from_sums(
        b0, len(opens), math.fsum(opens), len(guardeds), math.fsum(guardeds)
    )


def lemma51_from_sums(b0: float, n: int, o_sum: float, m: int, g_sum: float) -> float:
    if n + m == 0:
        return math.inf
    bound = min(b0, (b0 + o_sum + g_sum) / (n + m))
    if m:
        bound = min(bound, (b0 + o_sum) / m)
    return bound


def peak_rss_mb() -> float:
    """Process high-water mark (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_metrics(
    setups: Sequence[float],
    op_seconds: Sequence[float],
    min_ops: int,
    work: float,
    work_seconds: float,
    goodput_frac: float,
    rss_mb: float,
) -> Dict[str, float]:
    """The six end-to-end metrics every workload reports.

    ``rss_mb`` is the high-water mark read once the workload's minimum
    work is done, so it does not grow with how much more work a fast
    host fits into the run, nor with the checks that follow."""
    if len(op_seconds) < min_ops:
        raise CheckFailed(f"{len(op_seconds)} operations timed, need {min_ops}")
    return {
        "setup_s": statistics.median(setups),
        "op_mean_ms": math.fsum(op_seconds) / len(op_seconds) * 1e3,
        "op_tail_ms": quantile(op_seconds, tail_quantile(min_ops)) * 1e3,
        "work_per_s": work / work_seconds,
        "goodput_frac": goodput_frac,
        "peak_rss_mb": rss_mb,
    }


UNITS = {
    "setup_s": "s",
    "op_mean_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "goodput_frac": "frac",
    "peak_rss_mb": "MB",
}


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    units: Optional[Dict[str, str]] = None,
) -> str:
    units = units or UNITS
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        },
        sort_keys=False,
    )


def make_out_dir(out: str, workload: str, seed: int, trace: int) -> Path:
    """A fresh directory under the output path for one run's files."""
    base = Path(out)
    if not base.is_absolute():
        base = Path.cwd() / base
    path = base / f"{workload}-seed{seed}-trace{trace}-pid{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path

