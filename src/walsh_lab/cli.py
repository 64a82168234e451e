"""Command-line front end: verification suites, sweeps and probes.

Every stochastic path is driven by a single 64-bit seed (numpy PCG64 via
``default_rng``), printed in the output, so reruns with the same
configuration are byte-identical.  Sweep files are written to a temporary
name and atomically renamed; a partial file is never left behind.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from .dyadic import Resolution
from .metrics import _check_exponent
from .multiplier import MultiplierMatrix
from .opnorm import _bracket, _checked, constant_probe
from .spectral import SpectralQuery, compactness_report, membership
from .symbols import Symbol, symbol_from_json
from .verify import SUITES, run_suite

OPNORM_HEADER = ["family", "m", "p_in", "p_out", "N", "estimate", "kind", "analytic_sup", "iterations", "seed"]
DECAY_HEADER = ["family", "p_in", "p_out", "m", "N", "estimate", "analytic_sup", "verdict"]
GRID_HEADER = ["family", "m", "p", "lambda_re", "lambda_im", "delta", "verdict"]
PROBE_HEADER = ["inequality", "p", "m", "trials", "seed", "best_ratio", "witness_sha256"]


class ConfigError(Exception):
    pass


def _parse_exponent(text: str) -> float:
    try:
        p = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad exponent {text!r}") from exc
    return _check_exponent(p)


def _parse_exponent_list(text: str) -> list[float]:
    return [_parse_exponent(tok) for tok in text.split(",") if tok]


def _parse_cutoffs(text: str) -> list[int]:
    try:
        cuts = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"bad cutoff list {text!r}") from exc
    return cuts


def _parse_grid(text: str) -> tuple[float, float, float, float, int]:
    toks = text.split(",")
    if len(toks) != 5:
        raise ConfigError("grid must be re_min,re_max,im_min,im_max,steps")
    try:
        re_min, re_max, im_min, im_max = map(float, toks[:4])
        steps = int(toks[4])
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {text!r}") from exc
    if steps < 2 or re_max <= re_min or im_max <= im_min:
        raise ConfigError("grid needs re_min < re_max, im_min < im_max, steps >= 2")
    return re_min, re_max, im_min, im_max, steps


def _load_symbol(spec: str) -> Symbol:
    text = spec.strip()
    try:
        if text.startswith("{"):
            return symbol_from_json(text)
        path = Path(text)
        if path.is_file():
            return symbol_from_json(path.read_text())
        # bare family name shorthand for the parameter-free families
        return symbol_from_json({"family": text})
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"cannot parse symbol spec {spec!r}: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(rows: list[dict], header: list[str], fmt: str, out: str | None, seed: int) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# walsh-lab sweep seed={seed}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[key]) for key in header])
        payload = buf.getvalue()
    else:
        payload = json.dumps({"seed": seed, "rows": rows}, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(payload)
        return
    target = Path(out)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, str(target))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _map_ordered(fn, items, threads: int):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite, seed=args.seed)
    except KeyError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    width = max(len(r.name) for r in results) + 2
    failures = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        detail = f"  {r.detail}" if r.detail else ""
        print(f"{r.name:<{width}}{status}{detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _sweep_tail_decay(args) -> tuple[list[dict], list[str]]:
    sym = _load_symbol(args.symbol)
    res = Resolution(args.m)
    cutoffs = _parse_cutoffs(args.cutoffs)
    p_in = _parse_exponent(args.p_in)
    p_out = _parse_exponent(args.p_out)
    report = compactness_report(sym, p_in, p_out, res, cutoffs, seed=args.seed, tol=args.tol)
    rows = [
        {
            "family": report.family,
            "p_in": p_in,
            "p_out": p_out,
            "m": args.m,
            "N": row.cutoff,
            "estimate": row.estimate.value,
            "analytic_sup": row.analytic_sup,
            "verdict": report.verdict,
        }
        for row in report.rows
    ]
    return rows, DECAY_HEADER


def _sweep_opnorm(args) -> tuple[list[dict], list[str]]:
    sym = _load_symbol(args.symbol)
    res = Resolution(args.m)
    pairs = [
        _checked(pi, po, args.tol) for pi in _parse_exponent_list(args.p_in) for po in _parse_exponent_list(args.p_out)
    ]
    # One record serves every pair.  Its fields are read here, before any
    # thread starts: ``cached_property`` takes no lock on Python >= 3.12, so
    # the pool's first rows would each derive them.
    op = MultiplierMatrix(sym, res)
    diag_sup = op.sup
    if args.threads > 1:
        _ = op.transform, op.popcount_max, op.kernel_l1_upper

    def row_for(pair):
        pi, po = pair
        est = _bracket(op, pi, po, seed=args.seed, tol=args.tol)
        return {
            "family": sym.family,
            "m": args.m,
            "p_in": pi,
            "p_out": po,
            "N": "",
            "estimate": est.value,
            "kind": est.kind,
            "analytic_sup": diag_sup,
            "iterations": est.iterations,
            "seed": args.seed,
        }

    return _map_ordered(row_for, pairs, args.threads), OPNORM_HEADER


def _sweep_spectrum_grid(args) -> tuple[list[dict], list[str]]:
    sym = _load_symbol(args.symbol)
    if args.grid is None:
        raise ConfigError("spectrum-grid needs --grid re_min,re_max,im_min,im_max,steps")
    re_min, re_max, im_min, im_max, steps = _parse_grid(args.grid)
    p = _parse_exponent(args.p_in)
    res = np.linspace(re_min, re_max, steps)
    ims = np.linspace(im_min, im_max, steps)
    queries = [SpectralQuery(complex(re, im), p=p, m=args.m, tolerance=args.tol) for im in ims for re in res]
    certs = _map_ordered(partial(membership, sym), queries, args.threads)
    rows = [
        {
            "family": sym.family,
            "m": args.m,
            "p": p,
            "lambda_re": cert.lam.real,
            "lambda_im": cert.lam.imag,
            "delta": cert.delta,
            "verdict": cert.verdict,
        }
        for cert in certs
    ]
    return rows, GRID_HEADER


def _sweep_probe_constants(args) -> tuple[list[dict], list[str]]:
    if args.inequality not in ("hy", "synthesis"):
        raise ConfigError("probe-constants needs --inequality hy|synthesis")
    p = _parse_exponent(args.p_in)
    probe = constant_probe(args.inequality, p, Resolution(args.m), trials=args.trials, seed=args.seed)
    digest = hashlib.sha256(np.ascontiguousarray(probe.witness).tobytes()).hexdigest()
    row = {
        "inequality": probe.inequality,
        "p": p,
        "m": args.m,
        "trials": probe.trials,
        "seed": probe.seed,
        "best_ratio": probe.best_ratio,
        "witness_sha256": digest,
    }
    return [row], PROBE_HEADER


def cmd_sweep(args) -> int:
    kinds = {
        "tail-decay": _sweep_tail_decay,
        "opnorm": _sweep_opnorm,
        "spectrum-grid": _sweep_spectrum_grid,
        "probe-constants": _sweep_probe_constants,
    }
    try:
        rows, header = kinds[args.kind](args)
        _emit(rows, header, args.format, args.out, args.seed)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walsh-lab",
        description="Walsh multiplier laboratory: verification, sweeps, probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run module invariant suites")
    v.add_argument("suite", nargs="?", default="all", choices=["all", *SUITES])
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("sweep", help="deterministic sweeps with CSV/JSON output")
    s.add_argument("kind", choices=["tail-decay", "opnorm", "spectrum-grid", "probe-constants"])
    s.add_argument("--symbol", default="reciprocal", help="family name, inline JSON, or a JSON file path")
    s.add_argument("--m", type=int, default=6, help="dyadic levels (dim = 2**m)")
    s.add_argument("--p-in", default="2", help="domain exponent(s), comma separated for opnorm")
    s.add_argument("--p-out", default="2", help="range exponent(s), comma separated for opnorm")
    s.add_argument("--cutoffs", default="1,3,7,15,31", help="strictly increasing truncation cutoffs")
    s.add_argument("--grid", default=None, help="re_min,re_max,im_min,im_max,steps")
    s.add_argument("--inequality", default=None, help="hy | synthesis (probe-constants)")
    s.add_argument("--trials", type=int, default=10000,
                   help="echoed in the probe-constants row; the probed constants are exact")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tol", type=float, default=1e-12)
    s.add_argument("--out", default=None, help="output path (default: stdout)")
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.add_argument("--threads", type=int, default=1, help="parallel sweep evaluation")
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
