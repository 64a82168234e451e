"""The three benchmark workloads: seeded inputs, a fixed cycled op mix, oracles.

Each workload is a closed loop with one client.  ``setup(seed)`` generates
the inputs and warms lazy caches; ``cycle(index)`` returns the ops of one
pass over the mix, each an ``Op(kind, run, check)``.  ``check`` receives
what ``run`` returned and raises ``CheckFailed`` on a wrong result; it runs
outside the timed region.  ``finish()`` runs after the timed loop and
returns ``{kind: message}`` for kinds whose results turned out wrong.
Inputs derive only from the seed (and, where a cycle draws fresh inputs,
from the cycle index).

Why these workloads: each layer the ROADMAP plans to optimise does most of
the work in one of them and little in another.

* bulk-transform: 2-16 MB arrays, where the butterfly's memory passes and
  the Paley bit-reversal gather dominate and per-call overhead does not.
* small-estimate: thousands of transforms of 64-256-point rows per op, where
  per-call dispatch, the norm/duality helpers, probe transforms and the small
  dense path dominate and butterfly bandwidth does not.
* cli-sweep: fresh ``python -m walsh_lab sweep`` processes, the only place
  that pays interpreter start, the numpy/scipy import and per-process lazy
  caches, and the only one that drives membership grids, CSV emission and
  the ``--threads`` pool.
"""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle

INF = math.inf
BENCH_DIR = Path(__file__).resolve().parent
RUN_DIR = BENCH_DIR / "results" / "jobs"


class CheckFailed(Exception):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Workload:
    name: str
    in_process = True  # False: every op is a child process
    traced = False  # set by the worker before the traced cycle
    span_files: tuple | list = ()  # span files written by traced child processes

    def finish(self) -> dict[str, str]:
        return {}


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _fingerprint(out) -> tuple:
    arr = np.ascontiguousarray(getattr(out, "values", out))
    return (arr.dtype.str, arr.shape, zlib.crc32(memoryview(arr).cast("B")))


# ---------------------------------------------------------------------------
# bulk-transform


class BulkTransform(Workload):
    """Fixed inputs, so every result of a kind must repeat the first exactly.

    The oracle's temporaries would raise the peak memory of the process, so
    the full oracle check runs in ``finish()``, after peak memory is read:
    it recomputes each kind once, checks it against the oracle and requires
    the timed results' fingerprints to match it.
    """

    name = "bulk-transform"
    levels = (18, 20)
    batch_shape = (64, 1 << 14)
    walsh_checks = 2  # W_n inputs checked bit for bit per (symbol, m)

    def setup(self, seed: int) -> None:
        import walsh_lab as wl

        self.wl = wl
        rng = np.random.default_rng(seed)
        self.inputs = {}
        for m in self.levels:
            n = 1 << m
            xc = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            prefix = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            self.inputs[m] = {
                "f64": rng.standard_normal(n),
                "c128": xc,
                "i64": 2 * rng.integers(0, 2, n, dtype=np.int64) - 1,
                "f": wl.StepFunction(wl.Resolution(m), xc),
                "prefix": prefix,
                "explicit": wl.ExplicitSymbol(prefix, "zero"),
                "walsh_n": [int(k) for k in rng.integers(0, n, self.walsh_checks)],
            }
        self.batch = rng.standard_normal(self.batch_shape) + 1j * rng.standard_normal(self.batch_shape)
        self.reciprocal = wl.ReciprocalSymbol()
        self.fingerprints: dict[str, tuple] = {}
        self.full_checks: dict[str, Callable[[Any], None]] = {}
        self.ops = self._build_ops()
        # warm-up: the per-length permutation caches and every code path
        for n in {1 << m for m in self.levels} | {self.batch_shape[1]}:
            wl.fwht(np.zeros(n))
        small = wl.step_function(np.ones(16, dtype=np.complex128))
        wl.apply(self.reciprocal, small)
        wl.synthesis(wl.analysis(small))
        wl.lp_norm(small, 3)

    def largest_array_bytes(self) -> int:
        return max((1 << max(self.levels)) * 16, self.batch.nbytes)

    def cycle(self, index: int) -> list[Op]:
        return self.ops

    def finish(self) -> dict[str, str]:
        failures = {}
        for op in self.ops:
            try:
                out = op.run()
                self.full_checks[op.kind](out)
                expect(self._fingerprint(op.kind, out) == self.fingerprints.get(op.kind),
                       f"{op.kind}: timed results differ from the checked one")
            except Exception as exc:  # a crash here fails the kind, like a crash in the timed loop
                failures[op.kind] = f"{type(exc).__name__}: {exc}"
            out = None
        return failures

    @staticmethod
    def _fingerprint(kind: str, out):
        return float(out) if kind.startswith("lp") else _fingerprint(out)

    def _add(self, ops: list[Op], kind: str, run: Callable[[], Any], full_check: Callable[[Any], None]) -> None:
        def check(out):
            fp = self._fingerprint(kind, out)
            expect(self.fingerprints.setdefault(kind, fp) == fp, f"{kind}: result differs from the first one")

        self.full_checks[kind] = full_check
        ops.append(Op(kind, run, check))

    def _build_ops(self) -> list[Op]:
        wl = self.wl
        ops: list[Op] = []
        for m in self.levels:
            inp = self.inputs[m]
            for dt in ("f64", "c128", "i64"):
                self._add(ops, f"fwht-{dt}-m{m}", lambda x=inp[dt]: wl.fwht(x), self._fwht_check(inp[dt]))
            recip_diag = 1.0 / (np.arange(1 << m, dtype=np.float64) + 1.0)
            for label, sym, diag in (("reciprocal", self.reciprocal, recip_diag), ("explicit", inp["explicit"], inp["prefix"])):
                self._add(ops, f"apply-{label}-m{m}", lambda sym=sym, f=inp["f"]: wl.apply(sym, f),
                          self._apply_check(sym, diag, inp, m))
            self._add(ops, f"roundtrip-m{m}", lambda f=inp["f"]: wl.synthesis(wl.analysis(f)),
                      self._roundtrip_check(inp["c128"]))
            self._add(ops, f"lp3-m{m}", lambda f=inp["f"]: wl.lp_norm(f, 3), self._lp_check(inp["c128"]))
        self._add(ops, "fwht-batch-64x16384", lambda: wl.fwht(self.batch), self._fwht_check(self.batch))
        return ops

    def _fwht_check(self, x):
        def check(out):
            expect(isinstance(out, np.ndarray) and out.shape == x.shape, "fwht: wrong shape")
            ref = oracle.paley_transform(x)
            expect(out.dtype == ref.dtype, f"fwht: dtype {out.dtype}, expected {ref.dtype}")
            if x.dtype.kind == "i":
                expect(np.array_equal(out, ref), "fwht: int64 result differs from the exact transform")
                expect(np.array_equal(self.wl.fwht(out), x.shape[-1] * x), "fwht(fwht(x)) != N x on +-1 input")
            else:
                expect(oracle.close(out, ref, np.linalg.norm(ref)), "fwht: differs from the reference transform")

        return check

    def _apply_check(self, sym, diag, inp, m):
        wl = self.wl
        xc = inp["c128"]

        def check(out):
            ref = oracle.apply_multiplier(diag, xc)
            scale = np.linalg.norm(xc) * float(np.abs(diag).max())
            expect(oracle.close(out.values, ref, scale), "apply: differs from H (a * H f) / N")
            res = wl.Resolution(m)
            for n in inp["walsh_n"]:
                got = wl.apply(sym, wl.walsh_step(n, res)).values
                expect(np.array_equal(got, diag[n] * oracle.walsh_function(n, m)),
                       f"apply(W_{n}) is not a_n W_n bit for bit at m={m}")

        return check

    def _roundtrip_check(self, xc):
        def check(out):
            err = float(np.abs(out.values - xc).max())
            expect(err <= oracle.REL_TOL * float(np.abs(xc).max()), f"synthesis(analysis(f)) != f (max error {err:.3g})")

        return check

    def _lp_check(self, xc):
        def check(out):
            expect(oracle.rel_eq(out, oracle.lp_norm(xc, 3.0)), f"lp_norm(f, 3) = {out!r} differs from the reference")

        return check


# ---------------------------------------------------------------------------
# small-estimate

REGIMES = ((1.5, 1.5), (3.0, 3.0), (1.5, 3.0), (3.0, 1.5), (2.0, 2.0), (1.0, 1.0), (INF, INF), (1.0, 3.0))


def _p(x: float) -> str:
    return "inf" if x == INF else f"{x:g}"


class SmallEstimate(Workload):
    """Random symbols are unimodular with seeded phases, fresh every cycle.

    With complex-normal prefixes the power iteration's cost depends on the
    gap between the largest |a_n| and varies 3-4x between draws, so a run of
    about five draws per kind differed by 12% between seeds; random phases
    cost the same on average and vary by about 8%.
    """

    name = "small-estimate"
    levels = (6, 8)
    probe_trials = 2000

    def setup(self, seed: int) -> None:
        import walsh_lab as wl

        self.wl = wl
        self.seed = seed
        tiny = wl.ExplicitSymbol(np.arange(1, 5, dtype=np.complex128), "zero")
        for p, q in REGIMES:
            wl.opnorm(tiny, wl.Resolution(2), p, q)
        wl.multiplier_bound_check(tiny, wl.Resolution(2), 1.5)
        wl.constant_probe("hy", 1.5, wl.Resolution(2), trials=4)
        wl.constant_probe("synthesis", 1.25, wl.Resolution(2), trials=4)
        for m in self.levels:
            wl.fwht(np.zeros(1 << m))

    def largest_array_bytes(self) -> int:
        return self.probe_trials * (1 << min(self.levels)) * 16

    def cycle(self, index: int) -> list[Op]:
        wl = self.wl
        rng = np.random.default_rng([self.seed, index])

        def random_symbol(m):
            prefix = np.exp(2j * np.pi * rng.random(1 << m))
            return wl.ExplicitSymbol(prefix, "zero"), prefix

        ops = []
        for m in self.levels:
            for p, q in REGIMES:
                sym, diag = random_symbol(m)
                s = int(rng.integers(2**31))
                ops.append(Op(f"opnorm-m{m}-{_p(p)}-{_p(q)}",
                              lambda sym=sym, m=m, p=p, q=q, s=s: wl.opnorm(sym, wl.Resolution(m), p, q, seed=s),
                              self._opnorm_check(diag, p, q)))
        n8 = np.arange(1 << 8, dtype=np.float64)
        families = (
            ("reciprocal", wl.ReciprocalSymbol(), 1.0 / (n8 + 1.0)),
            ("alternating", wl.AlternatingSymbol(), 1.0 - 2.0 * (np.arange(1 << 8) & 1)),
            ("geometric0.9", wl.GeometricSymbol(0.9), np.complex128(0.9) ** np.arange(1 << 8)),
        )
        for label, sym, diag in families:
            s = int(rng.integers(2**31))
            ops.append(Op(f"opnorm-m8-1.5-3-{label}",
                          lambda sym=sym, s=s: wl.opnorm(sym, wl.Resolution(8), 1.5, 3.0, seed=s),
                          self._opnorm_check(np.asarray(diag, dtype=np.complex128), 1.5, 3.0)))
        sym, diag = random_symbol(6)
        s = int(rng.integers(2**31))
        ops.append(Op("mbc-m6-1.5", lambda: wl.multiplier_bound_check(sym, wl.Resolution(6), 1.5, seed=s),
                      self._mbc_check(diag)))
        for ineq, p in (("hy", 1.5), ("synthesis", 1.25)):
            s = int(rng.integers(2**31))
            ops.append(Op(f"probe-{ineq}-{p:g}-m6",
                          lambda ineq=ineq, p=p, s=s: wl.constant_probe(ineq, p, wl.Resolution(6), trials=self.probe_trials, seed=s),
                          self._probe_check(ineq, p)))
        return ops

    @staticmethod
    def _in_bracket(value: float, diag, p: float, q: float, what: str) -> None:
        lower, upper = oracle.norm_bracket(diag, p, q)
        slack = oracle.REL_TOL
        expect(lower * (1 - slack) <= value <= upper * (1 + slack),
               f"{what}: {value!r} outside [sup|a_n|, ||k||_r] = [{lower!r}, {upper!r}]")
        if p == q == 2.0:
            expect(oracle.rel_eq(value, lower), f"{what}: (2,2) norm {value!r} != sup|a_n| {lower!r}")
        if p == q and p in (1.0, INF):
            expect(oracle.rel_eq(value, upper), f"{what}: ({p:g},{q:g}) norm {value!r} != ||k||_1 {upper!r}")

    def _opnorm_check(self, diag, p, q):
        def check(est):
            self._in_bracket(est.value, diag, p, q, f"opnorm({_p(p)},{_p(q)})")

        return check

    def _mbc_check(self, diag):
        def check(report):
            self._in_bracket(report.estimate.value, diag, 1.5, 1.5, "multiplier_bound_check")
            self._in_bracket(report.dual_estimate.value, np.conj(diag), 3.0, 3.0, "multiplier_bound_check dual")
            sup = float(np.abs(diag).max())
            expect(oracle.rel_eq(report.ratio, report.estimate.value / sup), "multiplier_bound_check: ratio != value / sup")
            recomputed = report.probe.recompute()
            expect(oracle.rel_eq(recomputed, report.probe.best_ratio, 1e-9),
                   f"multiplier-bound probe: recompute() {recomputed!r} != best_ratio {report.probe.best_ratio!r}")

        return check

    def _probe_check(self, ineq, p):
        def check(probe):
            w = probe.witness
            expect(oracle.rel_eq(probe.recompute(), probe.best_ratio), f"probe {ineq}: recompute() != best_ratio")
            coeffs = oracle.paley_transform(w)
            q = p / (p - 1.0)
            if ineq == "hy":
                ratio = float(np.sum(np.abs(coeffs / w.size) ** q) ** (1 / q)) / oracle.lp_norm(w, p)
                expect(probe.best_ratio <= 1.0 + 1e-9, f"probe hy: ratio {probe.best_ratio!r} above 1")
            else:
                ratio = oracle.lp_norm(coeffs, p) / float(np.sum(np.abs(w) ** q) ** (1 / q))
            expect(oracle.rel_eq(ratio, probe.best_ratio, 1e-10),
                   f"probe {ineq}: witness ratio {ratio!r} != best_ratio {probe.best_ratio!r}")

        return check


# ---------------------------------------------------------------------------
# cli-sweep

GRID_STEPS = 21
TAIL_CUTOFFS = (1, 3, 7, 15, 31, 63, 127, 255)
PROBE_TRIALS = 2000
HEADERS = {
    "spectrum-grid": "family,m,p,lambda_re,lambda_im,delta,verdict",
    "tail-decay": "family,p_in,p_out,m,N,estimate,analytic_sup,verdict",
    "opnorm": "family,m,p_in,p_out,N,estimate,kind,analytic_sup,iterations,seed",
    "probe-constants": "inequality,p,m,trials,seed,best_ratio,witness_sha256",
}


class CliSweep(Workload):
    """Each cycle draws its own sweep ``--seed`` and grid bounds, so that a
    run averages over several probe and power-iteration starts."""

    name = "cli-sweep"
    in_process = False

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.env = dict(os.environ)
        RUN_DIR.mkdir(parents=True, exist_ok=True)
        self.span_files: list[Path] = []
        self.run_job(["sweep", "opnorm", "--m", "2", "--out", str(RUN_DIR / "warmup.csv")], traced=False)

    def largest_array_bytes(self) -> int:
        # probe batch (trials x 256 complex) vs the dense m=10 matrix (float64)
        return max(PROBE_TRIALS * 256 * 16, (1 << 20) * 8)

    def run_job(self, args: list[str], traced: bool) -> None:
        if traced:
            spans = RUN_DIR / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "walsh_lab", *args]
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=150)
        if proc.returncode != 0:
            raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")

    def cycle(self, index: int) -> list[Op]:
        self._t1_bytes = None
        rng = np.random.default_rng([self.seed, index])
        seed = int(rng.integers(2**31))
        u = rng.uniform(0.0, 0.5, 8)
        alternating = (-2.0 - u[0], 2.0 + u[1], -2.0 - u[2], 2.0 + u[3])
        reciprocal = (-0.5 - u[4], 1.5 + u[5], -1.0 - u[6], 1.0 + u[7])
        s = str(seed)
        grid = ["sweep", "spectrum-grid", "--seed", s]
        alt = [*grid, "--symbol", "alternating", "--m", "8", "--p-in", "3", _grid_arg(alternating)]
        jobs = [
            ("grid-alternating-t1", [*alt, "--threads", "1"], _grid_check("alternating", alternating)),
            ("grid-alternating-t2", [*alt, "--threads", "2"], _grid_check("alternating", alternating)),
            ("grid-reciprocal", [*grid, "--symbol", "reciprocal", "--m", "10", "--p-in", "2", _grid_arg(reciprocal)],
             _grid_check("reciprocal", reciprocal)),
            ("tail-decay", ["sweep", "tail-decay", "--symbol", "reciprocal", "--m", "10", "--p-in", "1", "--p-out", "1",
                            "--cutoffs", ",".join(map(str, TAIL_CUTOFFS)), "--seed", s], _tail_check),
            ("opnorm", ["sweep", "opnorm", "--symbol", "reciprocal", "--m", "8", "--p-in", "1.5,3", "--p-out", "1.5,3",
                        "--seed", s], lambda rows: _opnorm_check(rows, s)),
            ("probe-hy", ["sweep", "probe-constants", "--inequality", "hy", "--p-in", "1.5", "--m", "8",
                          "--trials", str(PROBE_TRIALS), "--seed", s], lambda rows: _probe_check(rows, s)),
        ]
        ops = []
        for kind, args, row_check in jobs:
            out = RUN_DIR / f"{kind}.csv"
            ops.append(Op(kind, lambda args=args, out=out: self._run(args, out),
                          self._csv_check(kind, args[1], s, row_check)))
        return ops

    def _run(self, args: list[str], out: Path) -> Path:
        out.unlink(missing_ok=True)
        self.run_job([*args, "--out", str(out)], self.traced)
        return out

    def _csv_check(self, kind: str, sweep: str, seed: str, row_check):
        def check(path: Path):
            data = path.read_bytes()
            lines = data.decode().splitlines()
            expect(lines[0] == f"# walsh-lab sweep seed={seed}", f"{kind}: bad seed comment {lines[0]!r}")
            expect(lines[1] == HEADERS[sweep], f"{kind}: bad header {lines[1]!r}")
            row_check(list(csv.DictReader(lines[1:])))
            if kind == "grid-alternating-t1":
                self._t1_bytes = data
            elif kind == "grid-alternating-t2" and self._t1_bytes is not None:
                expect(data == self._t1_bytes, "--threads 2 output differs from --threads 1")

        return check


def _grid_arg(bounds) -> str:
    return "--grid=" + ",".join(repr(float(v)) for v in bounds) + f",{GRID_STEPS}"


def _grid_check(family: str, bounds):
    re_min, re_max, im_min, im_max = bounds
    points = [complex(re, im) for im in np.linspace(im_min, im_max, GRID_STEPS)
              for re in np.linspace(re_min, re_max, GRID_STEPS)]
    distance = oracle.alternating_distance if family == "alternating" else oracle.reciprocal_distance

    def check(rows):
        expect(len(rows) == len(points), f"grid {family}: {len(rows)} rows, expected {len(points)}")
        for row, lam in zip(rows, points):
            expect(float(row["lambda_re"]) == lam.real and float(row["lambda_im"]) == lam.imag,
                   f"grid {family}: point {row['lambda_re']},{row['lambda_im']} out of order")
            delta = distance(lam)
            expect(oracle.rel_eq(float(row["delta"]), delta), f"grid {family}: delta {row['delta']} != {delta!r} at {lam}")
            want = ("in_resolvent", "undetermined") if delta > 1e-12 else ("in_spectrum",)
            expect(row["verdict"] in want, f"grid {family}: verdict {row['verdict']} at distance {delta!r}")

    return check


def _tail_check(rows) -> None:
    expect(len(rows) == len(TAIL_CUTOFFS), f"tail-decay: {len(rows)} rows, expected {len(TAIL_CUTOFFS)}")
    n = np.arange(1 << 10, dtype=np.float64)
    for row, cut in zip(rows, TAIL_CUTOFFS):
        expect(int(row["N"]) == cut, f"tail-decay: cutoff {row['N']} != {cut}")
        expect(oracle.rel_eq(float(row["analytic_sup"]), 1.0 / (cut + 2)), f"tail-decay: analytic_sup at N={cut}")
        diag = np.where(n > cut, 1.0 / (n + 1.0), 0.0)
        _, l1 = oracle.norm_bracket(diag, 1.0, 1.0)
        expect(oracle.rel_eq(float(row["estimate"]), l1), f"tail-decay: estimate {row['estimate']} != ||k||_1 {l1!r}")
        expect(row["verdict"] == "compact", f"tail-decay: verdict {row['verdict']}")


def _opnorm_check(rows, seed: str) -> None:
    pairs = [(1.5, 1.5), (1.5, 3.0), (3.0, 1.5), (3.0, 3.0)]
    expect(len(rows) == len(pairs), f"opnorm: {len(rows)} rows, expected {len(pairs)}")
    diag = 1.0 / (np.arange(1 << 8, dtype=np.float64) + 1.0)
    for row, (p, q) in zip(rows, pairs):
        expect((float(row["p_in"]), float(row["p_out"])) == (p, q), f"opnorm: row order {row['p_in']},{row['p_out']}")
        lower, upper = oracle.norm_bracket(diag, p, q)
        value = float(row["estimate"])
        expect(lower * (1 - oracle.REL_TOL) <= value <= upper * (1 + oracle.REL_TOL),
               f"opnorm ({p:g},{q:g}): {value!r} outside [{lower!r}, {upper!r}]")
        expect(float(row["analytic_sup"]) == 1.0, "opnorm: analytic_sup != sup 1/(n+1) = 1")
        expect(row["seed"] == seed, "opnorm: seed column")


def _probe_check(rows, seed: str) -> None:
    expect(len(rows) == 1, f"probe-constants: {len(rows)} rows")
    row = rows[0]
    expect((row["inequality"], float(row["p"]), int(row["m"]), int(row["trials"]), row["seed"])
           == ("hy", 1.5, 8, PROBE_TRIALS, seed), f"probe-constants: row {row}")
    ratio = float(row["best_ratio"])
    expect(0.0 < ratio <= 1.0 + 1e-9, f"probe-constants: hy ratio {ratio!r} outside (0, 1]")
    expect(len(row["witness_sha256"]) == 64, "probe-constants: witness digest")


WORKLOADS = {w.name: w for w in (BulkTransform, SmallEstimate, CliSweep)}
