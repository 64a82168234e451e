"""walsh-lab benchmark: seeded workloads, oracle-checked results, metrics by name and unit.

    python3 bench/run.py --workload bulk-transform|small-estimate|cli-sweep|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is taken from ``src/`` and
nothing needs installing.  Each workload runs in its own worker process
(``bench/worker.py``), started ``SETUP_REPEATS`` times so that set-up time is
a median.  ``--trace 0`` prints the end-to-end metrics that BENCHMARK.json
lists; ``--trace 1`` measures half the time untraced, then one traced cycle
of the op mix, and prints the per-layer metrics, with counts and self times
for that one cycle.  The traced cycle has the inputs of the first untraced
cycle, and the tracing overhead compares the two.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with the environment, goes to ``bench/results/``.

Statistics are taken over the fixed op mix, so they do not depend on where
in a cycle the time ran out: ``ops_per_s`` is ops per cycle divided by the
sum of each op kind's median latency, ``cpu_per_op_ms`` the mean over kinds
of each kind's median CPU, and the latency percentiles weight every sample
by 1 / (samples of its kind).  A failed op counts as an infinite latency.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("bulk-transform", "small-estimate", "cli-sweep")
SETUP_REPEATS = 3
# The tail percentile is fixed per workload, so that runs stay comparable when
# a faster program completes more ops.  It is the highest of these that left
# at least 10 samples beyond it when the benchmark was defined (about 25 of
# 250 on bulk-transform, about 15 of 100 on small-estimate).  cli-sweep
# completes only about 13 jobs in a run, too few for any upper percentile to
# have 10 beyond it; its p90 is the latency of the slowest job kind.
TAIL_PERCENTILE = {"bulk-transform": 90, "small-estimate": 85, "cli-sweep": 90}
RUN_LIMIT_S = 175.0


class WorkerFailed(Exception):
    pass


def start_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{workload} worker did not finish within the run limit") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited with code {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_done"] - started
    return out


def weighted_quantile(points: list[tuple[float, float]], p: float) -> float:
    """Quantile of (value, weight) points, interpolating between weight midpoints."""
    points = sorted(points)
    total = sum(w for _, w in points)
    mids, cum = [], 0.0
    for _, w in points:
        mids.append((cum + w / 2) / total)
        cum += w
    values = [v for v, _ in points]
    if p <= mids[0]:
        return values[0]
    for i in range(1, len(points)):
        if p <= mids[i]:
            lo, hi = values[i - 1], values[i]
            if math.isinf(hi):
                return hi
            return lo + (hi - lo) * (p - mids[i - 1]) / (mids[i] - mids[i - 1])
    return values[-1]


def mix_stats(samples: list, tail_percentile: float) -> dict:
    """End-to-end statistics over the fixed op mix (see the module docstring)."""
    wall, cpu = defaultdict(list), defaultdict(list)
    for kind, wall_s, cpu_s, ok in samples:
        wall[kind].append(wall_s if ok else math.inf)
        cpu[kind].append(cpu_s)
    medians = [statistics.median(v) for v in wall.values()]
    points = [(v, 1.0 / len(vals)) for vals in wall.values() for v in vals]
    tail = weighted_quantile(points, tail_percentile / 100)
    return {
        "ops_per_s": len(wall) / sum(medians),
        "op_p50_ms": weighted_quantile(points, 0.5) * 1e3,
        "op_tail_ms": tail * 1e3,
        "cpu_per_op_ms": statistics.fmean(statistics.median(v) for v in cpu.values()) * 1e3,
        "tail_percentile": tail_percentile,
        "tail_beyond": sum(1 for v, _ in points if v > tail),
        "kind_median_s": {k: statistics.median(v) for k, v in wall.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(start_worker(workload, seed, seconds, trace, True, deadline)["setup_s"])
    main = start_worker(workload, seed, seconds, trace, False, deadline)
    setups.append(main["setup_s"])
    samples = main["samples"] + main["traced_samples"]
    stats = mix_stats(main["samples"], TAIL_PERCENTILE[workload])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(samples), "failed": sum(1 for s in samples if not s[3]),
        "errors": main["errors"], "env": main["env"], "stats": stats,
        "samples": main["samples"], "traced_samples": main["traced_samples"],
    }
    if not trace:
        metrics = {key: stats[key] for key in ("ops_per_s", "op_p50_ms", "op_tail_ms", "cpu_per_op_ms")}
        metrics["peak_rss_mb"] = main["peak_rss_kb"] / 1024
        metrics["setup_s"] = statistics.median(setups)
        record["setup_samples_s"] = setups
    else:
        # The traced cycle repeats the inputs of the first untraced cycle.
        cycle = len(main["traced_samples"])
        untraced = mix_stats(main["samples"][:cycle], TAIL_PERCENTILE[workload])
        traced = mix_stats(main["traced_samples"], TAIL_PERCENTILE[workload])
        metrics = dict(main["layers"])
        t1, t2 = (stats["kind_median_s"].get(f"grid-alternating-t{n}") for n in (1, 2))
        metrics["cli.threads2_ratio"] = t2 / t1 if t1 and t2 else 0.0
        metrics["trace.cycle_s"] = sum(sample[1] for sample in main["traced_samples"])
        metrics["trace.ops_per_s_untraced"] = untraced["ops_per_s"]
        metrics["trace.ops_per_s_traced"] = traced["ops_per_s"]
        metrics["trace.overhead_frac"] = untraced["ops_per_s"] / traced["ops_per_s"] - 1.0
    record["metrics"] = metrics
    return record


def _number(value):
    return value if math.isfinite(value) else None


def report(record: dict, specs: list[dict]) -> list[str]:
    stats, env = record["stats"], record["env"]
    n = record["attempted"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
             f"ops {n}  failed {record['failed']}  fail_frac {record['failed'] / n:g}"]
    for spec in specs:
        value = record["metrics"][spec["name"]]
        note = ""
        if spec["name"] == "op_tail_ms":
            note = f"  (p{stats['tail_percentile']} of the mix; {stats['tail_beyond']} of {n} samples beyond)"
        lines.append(f"  {spec['name']:<44} {value:>16.6g} {spec['unit']}{note}")
    lines.append("  environment: " + json.dumps(env, sort_keys=True))
    lines.extend(f"  FAILED {e.strip()}" for e in record["errors"][:5])
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "walsh_lab" / "__init__.py").is_file():
        print(f"error: no walsh_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = declared["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        missing = [s["name"] for s in specs if s["name"] not in record["metrics"]]
        if missing:
            print(f"error: {name} did not produce {missing}", file=sys.stderr)
            return 1
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        print("\n".join(report(record, specs)))
        prefix = "" if len(names) == 1 else f"{name}."
        summary["correct"] = summary["correct"] and record["failed"] == 0
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        for spec in specs:
            summary["metrics"][prefix + spec["name"]] = {
                "value": _number(record["metrics"][spec["name"]]), "unit": spec["unit"]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
