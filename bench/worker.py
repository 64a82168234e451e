"""Run one workload in this process and print its raw samples as one JSON line.

    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``bench/run.py`` starts this once per set-up sample and once for the
measured run, so that peak memory and lazy caches never leak between
workloads, and turns the samples into metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter, process_time

from workloads import WORKLOADS

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _cpu_s() -> float:
    """CPU of this process (all its threads) plus every child it has waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + ru.ru_utime + ru.ru_stime


def measure(workload, seconds: float, cycles: int | None = None, tracer=None):
    """Run the cycled op mix until ``seconds`` of op time are spent and at
    least one whole cycle is done, or for exactly ``cycles`` cycles.

    Returns samples ``[kind, wall_s, cpu_s, ok]`` and the failure messages.
    """
    samples, errors = [], []
    busy = 0.0
    index = 0
    while cycles is None or index < cycles:
        for op in workload.cycle(index):
            if cycles is None and index >= 1 and busy >= seconds:
                return samples, errors
            c0, t0 = _cpu_s(), perf_counter()
            try:
                out, ok = op.run(), True
            except Exception:
                out, ok = None, False
                errors.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
            t1 = perf_counter()
            cpu = _cpu_s() - c0
            busy += t1 - t0
            if ok:
                if tracer is not None:
                    tracer.enabled = False
                try:
                    op.check(out)
                except Exception as exc:
                    ok = False
                    errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                finally:
                    if tracer is not None:
                        tracer.enabled = True
            out = None
            samples.append([op.kind, t1 - t0, cpu, ok])
        index += 1
    return samples, errors


def _openblas() -> tuple[str, int | str]:
    """OpenBLAS version and its current thread count, read from numpy's copy."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    if not libs:
        return "unknown", "unknown"
    lib = ctypes.CDLL(libs[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode().split("  ")[0], get_threads()
    return "unknown", "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def environment(workload) -> dict:
    import numpy
    import scipy

    blas_version, blas_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "caches": _cache_sizes(),
        "largest_array_bytes": workload.largest_array_bytes(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    import_s = None
    if workload.in_process:
        t0 = perf_counter()
        import walsh_lab  # noqa: F401

        import_s = perf_counter() - t0
    workload.setup(args.seed)
    result = {"setup_done": time.monotonic(), "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    if not args.trace:
        samples, errors = measure(workload, args.seconds)
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        traced = []
    else:
        from tracing import Tracer, layer_metrics, load_spans

        # untraced half for the overhead comparison, then one traced cycle
        samples, errors = measure(workload, args.seconds / 2)
        tracer = Tracer()
        if workload.in_process:
            tracer.add_span("cli.import", 0.0, import_s)
            tracer.install()
        workload.traced = True
        traced, traced_errors = measure(workload, 0.0, cycles=1, tracer=tracer)
        errors += traced_errors
        spans = tracer.spans + load_spans(workload.span_files, first_id=next(tracer.ids))
        for path in workload.span_files:
            path.unlink()
        RESULTS_DIR.mkdir(exist_ok=True)
        with open(RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(spans, fh)
        result["layers"] = layer_metrics(spans)
        tracer.enabled = False
    failures = workload.finish()
    for sample in samples + traced:
        if sample[0] in failures:
            sample[3] = False
    errors += [f"{kind}: {message}" for kind, message in failures.items()]
    result.update(samples=samples, traced_samples=traced, errors=errors, env=environment(workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
