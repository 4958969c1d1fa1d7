"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/steadiness.py                      # 2 sets x 10 seeds x 3 workloads
    python3 perfbench/steadiness.py --seeds 5 --workloads churn-estimated

Every run is its own ``run.py`` process, one after another.  Set ``k``
uses seeds ``k * seeds + 1 ..``, so the two sets differ in inputs as well
as in host noise.  For each workload and end-to-end metric it reports
each set's median and spread (quartile distance over median, from
``statistics.quantiles(n=4)``) and fails unless

* every spread except ``setup_s``'s stays within the metric's bound,
* the second median is not worse than the first by more than the bound,
* every run reports the same share of failed operations.

Before every run it times a fixed pure-Python loop in this process and
reports that loop's spread as the host's noise floor: no metric can be
steadier than the host it runs on.  Raw results go to
``<out>/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def noise_loop() -> float:
    """Seconds for a fixed amount of pure-Python work."""
    started = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i
    return time.perf_counter() - started


def run_once(workload: str, seed: int, seconds: int, out: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
        "--out", out,
    ]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default="perfbench-out")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")

    runs = {}
    floor = {}
    for k in range(args.sets):
        for workload in args.workloads.split(","):
            for seed in range(k * args.seeds + 1, (k + 1) * args.seeds + 1):
                floor.setdefault(k, []).append(noise_loop())
                result = run_once(workload, seed, args.seconds, args.out)
                runs.setdefault(workload, {}).setdefault(k, []).append(result)
                print(f"set {k} {workload} seed {seed}: attempted {result['attempted']} "
                      f"failed {result['failed']} wall {result['wall_s']:.1f}s",
                      file=sys.stderr, flush=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps({"runs": runs, "noise_loop_s": floor}, indent=1))
    for k, loops in floor.items():
        print(f"host noise floor, set {k}: fixed loop median {statistics.median(loops):.3f} s, "
              f"spread {spread(loops):.3f} over {len(loops)} runs")

    ok = True
    print(f"{'workload':16} {'metric':13} {'bound':>5} " + " ".join(
        f"{'median' + str(k):>12} {'spread' + str(k):>8}" for k in range(args.sets)
    ) + f" {'worse':>7}  verdict")
    for workload, sets in runs.items():
        shares = {
            r["failed"] / r["attempted"] for results in sets.values() for r in results
        }
        if len(shares) != 1:
            ok = False
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for k in range(args.sets):
                values = [r["metrics"][name]["value"] for r in sets[k]]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            worse = max(worse_by(medians[0], m, metric["better"]) for m in medians[1:]) if len(medians) > 1 else 0.0
            bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
            ok &= not bad
            cells = " ".join(f"{m:12.5g} {s:8.3f}" for m, s in zip(medians, spreads))
            print(f"{workload:16} {name:13} {bound:5.2f} {cells} {worse:7.3f}  "
                  f"{'FAIL' if bad else 'ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
