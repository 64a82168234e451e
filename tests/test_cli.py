import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walsh_lab
from walsh_lab import ReciprocalSymbol, fwht, tail, verify
from walsh_lab.cli import main
from walsh_lab.verify import CheckResult

opnorm_module = importlib.import_module("walsh_lab.opnorm")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_metrics_mentions_distance_lemma(capsys):
    code, out, _ = run_cli(capsys, "verify", "metrics")
    assert code == 0
    lines = out.splitlines()
    assert "walsh distance lemma" in lines[0] and "1,1.5,2,3,10,inf" in lines[0]
    assert all("  pass" in line for line in lines[:-1])
    assert "FAIL" not in out
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


def test_verify_failing_check_exits_1(capsys, monkeypatch):
    planted = [CheckResult("planted check", False, "max err = 1.00e+00"), CheckResult("sound check", True)]
    monkeypatch.setitem(verify.SUITES, "metrics", lambda seed: planted)
    code, out, _ = run_cli(capsys, "verify", "metrics")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].split() == ["planted", "check", "FAIL", "max", "err", "=", "1.00e+00"]
    assert lines[1].split() == ["sound", "check", "pass"]
    assert lines[2] == "1/2 checks passed"


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "everything"])
    assert err.value.code == 2


def test_tail_decay_sweep_matches_derived_values(capsys, tmp_path):
    out_file = tmp_path / "decay.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "tail-decay",
        "--symbol", "reciprocal",
        "--m", "6",
        "--p-in", "2", "--p-out", "2",
        "--cutoffs", "1,3,7,15,31",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# walsh-lab sweep seed=0")
    assert lines[1] == "family,p_in,p_out,m,N,estimate,analytic_sup,verdict"
    estimates = [float(line.split(",")[5]) for line in lines[2:]]
    assert np.allclose(estimates, [1 / 3, 1 / 5, 1 / 9, 1 / 17, 1 / 33], atol=1e-12)
    assert all(line.endswith("compact") for line in lines[2:])


def test_sweep_rerun_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "sweep", "opnorm", "--symbol", "alternating", "--m", "5",
        "--p-in", "1.5", "--p-out", "1.5", "--seed", "7",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_opnorm_sweep_threads_byte_identical(capsys):
    args = [
        "sweep", "opnorm", "--symbol", "reciprocal", "--m", "5",
        "--p-in", "1.5,3", "--p-out", "1.5,3", "--seed", "4",
    ]
    _, one, _ = run_cli(capsys, *args, "--threads", "1")
    _, two, _ = run_cli(capsys, *args, "--threads", "2")
    assert one == two
    assert len(one.splitlines()) == 6


@pytest.mark.parametrize("threads", ["1", "2"])
def test_opnorm_sweep_reads_the_values_once(capsys, monkeypatch, threads):
    # One record serves every pair, and its values are read before the pool
    # starts; the rows match the single-threaded run byte for byte.
    args = ["sweep", "opnorm", "--m", "8", "--p-in", "1.5,3", "--p-out", "1.5,3", "--seed", "3"]
    _, want, _ = run_cli(capsys, *args, "--threads", "1")
    reads = []
    base_range = ReciprocalSymbol._range

    def counting(self, start, stop):
        reads.append((start, stop))
        return base_range(self, start, stop)

    monkeypatch.setattr(ReciprocalSymbol, "_range", counting)
    code, out, _ = run_cli(capsys, *args, "--threads", threads)
    assert code == 0 and out == want
    assert reads == [(0, 256)]
    # The closed reciprocal brackets run no power step.
    assert [row.split(",")[6:9] for row in out.splitlines()[2:]] == [
        ["lower", "1.0", "0"], ["lower", "1.0", "0"], ["exact", "1.0", "0"], ["lower", "1.0", "0"]
    ]


def test_geometric_product_row_at_m20(capsys):
    # The product of two-point norms at every m <= 20, where the power loop
    # does not run; the power lower at m = 12 is 1.438221998068.
    code, out, _ = run_cli(
        capsys, "sweep", "opnorm", "--symbol", '{"family": "geometric", "r": 0.9}', "--m", "20",
        "--p-in", "1.5", "--p-out", "3",
    )
    assert code == 0
    fields = out.splitlines()[2].split(",")
    assert float(fields[5]) >= 1.4382219980
    assert fields[6:9] == ["lower", "1.0", "0"]


@pytest.mark.parametrize("threads", ["2", "4"])
def test_spectrum_grid_threads_compute_bound_constant_once(capsys, monkeypatch, threads):
    # The p != 2 resolvent bound is the kernel norm of the inverse symbol, so
    # no measured constant (and no multiplier_bound_check trial) is needed at
    # any thread count, and the rows match the single-threaded run.
    calls = []
    real = opnorm_module.multiplier_bound_check

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "walsh_lab" and getattr(mod, "multiplier_bound_check", None) is real:
            monkeypatch.setattr(mod, "multiplier_bound_check", counted)
    args = [
        "sweep", "spectrum-grid", "--symbol", "alternating", "--m", "6",
        "--p-in", "3", "--grid=-2,2,-2,2,3",
    ]
    code_one, one, _ = run_cli(capsys, *args, "--threads", "1")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        code_many, many, _ = run_cli(capsys, *args, "--threads", threads)
    finally:
        sys.setswitchinterval(interval)
    assert code_one == code_many == 0
    assert len(one.splitlines()) == 2 + 9
    assert one == many
    assert calls == []


@pytest.mark.parametrize("symbol", ["alternating", "reciprocal"])
def test_spectrum_grid_thread_chunks_are_byte_identical(capsys, symbol):
    # 49 shifts split into 1, 2 and 4 contiguous chunks, with spectrum points
    # among them: -1 and 1 for alternating, 0, 1 and (within 1e-12) 1/3 for
    # reciprocal.
    args = ["sweep", "spectrum-grid", "--symbol", symbol, "--m", "7", "--p-in", "1.5",
            "--grid=-1,1,-1,1,7"]
    outs = [run_cli(capsys, *args, "--threads", t) for t in ("1", "2", "4")]
    assert [code for code, _, _ in outs] == [0, 0, 0]
    assert outs[0][1] == outs[1][1] == outs[2][1]
    assert len(outs[0][1].splitlines()) == 2 + 49
    assert "in_spectrum" in outs[0][1]


_SCIPY_MODULES = "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"


@pytest.mark.parametrize("code", [
    "import sys, walsh_lab",
    "import sys, runpy; sys.argv = ['walsh_lab', 'sweep', 'opnorm', '--m', '2']\n"
    "try:\n    runpy.run_module('walsh_lab', run_name='__main__')\n"
    "except SystemExit as exc:\n    assert exc.code == 0, exc.code",
    "import sys, runpy; sys.argv = ['walsh_lab', 'verify']\n"
    "try:\n    runpy.run_module('walsh_lab', run_name='__main__')\n"
    "except SystemExit as exc:\n    assert exc.code == 0, exc.code",
    "import sys, runpy\n"
    "sys.argv = ['walsh_lab', 'sweep', 'opnorm', '--m', '14', '--p-in', '1.5', '--p-out', '3']\n"
    "try:\n    runpy.run_module('walsh_lab', run_name='__main__')\n"
    "except SystemExit as exc:\n    assert exc.code == 0, exc.code",
])
def test_import_and_sweep_load_no_scipy(code):
    assert _last_line_of_fresh_python(f"{code}\n{_SCIPY_MODULES}") == "[]"


def test_import_and_small_fwht_start_no_thread():
    # The transform worker starts on the first multi-tile transform only.
    code = (
        "import sys, threading, numpy as np, walsh_lab\n"
        "walsh_lab.fwht(np.ones(1 << 10))\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    assert _last_line_of_fresh_python(code) == "1 False"


_MAXRSS_KB = "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"


def test_probe_constants_process_stays_near_the_import_footprint(tmp_path):
    # The probe builds one 2**m witness, whatever the trial count.
    base = int(_last_line_of_fresh_python(f"import walsh_lab.cli\n{_MAXRSS_KB}"))
    argv = ["sweep", "probe-constants", "--inequality", "hy", "--p-in", "1.5", "--m", "8",
            "--trials", "2000", "--out", str(tmp_path / "probe.csv")]
    code = f"import walsh_lab.cli\nassert walsh_lab.cli.main({argv!r}) == 0\n{_MAXRSS_KB}"
    probe = int(_last_line_of_fresh_python(code))
    assert probe - base <= 12 * 1024, f"{probe - base} kB over the import"


def _last_line_of_fresh_python(code: str) -> str:
    src = str(Path(walsh_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_tail_decay_endpoint_sweep_beyond_dense_resolutions(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "tail-decay", "--symbol", "reciprocal", "--m", "14",
        "--p-in", "1", "--p-out", "1",
    )
    assert code == 0
    rows = out.splitlines()[2:]
    assert [int(row.split(",")[4]) for row in rows] == [1, 3, 7, 15, 31]
    dim = 1 << 14
    for row in rows:
        cutoff, estimate = int(row.split(",")[4]), float(row.split(",")[5])
        diag = tail(ReciprocalSymbol(), cutoff).values(dim)
        k_l1 = np.abs(fwht(diag)).sum() / dim
        assert estimate == pytest.approx(k_l1, rel=1e-13)


def test_opnorm_and_tail_decay_sweeps_answer_above_m12(capsys):
    # Above the power loop's cap the alternating symbol's product path
    # prints N**(1/p - 1/q), exact, with no iteration.
    code, out, _ = run_cli(
        capsys, "sweep", "opnorm", "--symbol", "alternating", "--m", "13", "--p-in", "1.5", "--p-out", "3",
    )
    assert code == 0
    fields = out.splitlines()[2].split(",")
    assert fields[6:9] == ["exact", "1.0", "0"]
    assert float(fields[5]) == pytest.approx(2 ** (13 / 3), rel=1e-12)
    code, out, _ = run_cli(capsys, "sweep", "tail-decay", "--m", "14", "--p-in", "1.5", "--p-out", "1.5")
    assert code == 0
    rows = [row.split(",") for row in out.splitlines()[2:]]
    assert len(rows) == 5 and all(row[5] == row[6] for row in rows)
    code, out, _ = run_cli(capsys, "sweep", "opnorm", "--m", "16", "--p-in", "1", "--p-out", "3")
    assert code == 0
    assert out.splitlines()[2].split(",")[6] == "exact"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("kind", ["opnorm", "tail-decay"])
def test_sweeps_refuse_negative_or_non_finite_tol(capsys, kind, tol):
    code, out, err = run_cli(
        capsys,
        "sweep", kind, "--symbol", "alternating", "--m", "8", "--p-in", "1.5", "--p-out", "3", f"--tol={tol}",
    )
    assert code == 2 and out == ""
    assert err.startswith("config error: tol must be finite and >= 0")


def test_opnorm_sweep_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "opnorm", "--symbol", "reciprocal", "--m", "5",
        "--p-in", "2", "--p-out", "2", "--seed", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "family,m,p_in,p_out,N,estimate,kind,analytic_sup,iterations,seed"
    fields = lines[2].split(",")
    assert fields[0] == "reciprocal"
    assert fields[6] == "exact"
    assert float(fields[5]) == pytest.approx(1.0)
    assert fields[9] == "3"


def test_spectrum_grid_classifies_alternating(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "spectrum-grid", "--symbol", "alternating", "--m", "5",
        "--p-in", "2", "--grid=-2,2,-2,2,41",
    )
    assert code == 0
    lines = out.splitlines()[2:]
    assert len(lines) == 41 * 41
    for line in lines:
        fields = line.split(",")
        lam = complex(float(fields[3]), float(fields[4]))
        near = min(abs(lam - 1), abs(lam + 1)) <= 1e-9
        want = "in_spectrum" if near else "in_resolvent"
        assert fields[6] == want, line


def test_probe_constants_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "probe-constants", "--inequality", "hy",
        "--p-in", "1.5", "--m", "6", "--trials", "500", "--seed", "42",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "inequality,p,m,trials,seed,best_ratio,witness_sha256"
    fields = lines[2].split(",")
    assert fields[0] == "hy"
    assert float(fields[5]) <= 1.0 + 1e-9
    assert len(fields[6]) == 64  # sha256 hex


def test_probe_constants_answers_at_the_transform_cap(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "probe-constants", "--inequality", "synthesis", "--p-in", "1.25", "--m", "20",
    )
    assert code == 0
    fields = out.splitlines()[2].split(",")
    assert fields[:5] == ["synthesis", "1.25", "20", "10000", "0"]
    assert fields[5] == "64.0"  # N**(1/p - 1/2) = 2**(20 * 0.3)


def test_probe_constants_refuses_levels_above_the_cap(capsys, tmp_path):
    out_file = tmp_path / "probe.csv"
    code, out, err = run_cli(
        capsys,
        "sweep", "probe-constants", "--inequality", "hy", "--p-in", "1.5", "--m", "21",
        "--trials", "1", "--out", str(out_file),
    )
    assert code == 2 and out == ""
    assert err.startswith("config error: resolution levels limited to m <= 20, got 21")
    assert not out_file.exists()


@pytest.mark.parametrize(
    "spec",
    [
        '{"family":"geometric","r":NaN}',
        '{"family":"constant","c":Infinity}',
        '{"family":"explicit","prefix":[1,NaN,2]}',
    ],
)
def test_non_finite_symbol_parameters_are_config_errors(capsys, spec):
    code, out, err = run_cli(
        capsys, "sweep", "opnorm", "--symbol", spec, "--m", "4", "--p-in", "1.5,2", "--p-out", "3,2",
    )
    assert code == 2 and out == ""
    assert err.startswith("config error: cannot parse symbol spec")


def test_spectrum_grid_refuses_a_negative_level(capsys, tmp_path):
    out_file = tmp_path / "grid.csv"
    code, out, err = run_cli(
        capsys, "sweep", "spectrum-grid", "--symbol", "alternating", "--m", "-1",
        "--grid=-1,1,-1,1,3", "--out", str(out_file),
    )
    assert code == 2 and out == ""
    assert err.startswith("config error: resolution level must be a nonnegative integer, got -1")
    assert list(tmp_path.iterdir()) == []


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "tail-decay", "--symbol", "alternating", "--m", "5",
        "--cutoffs", "1,3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 0
    assert [row["estimate"] for row in doc["rows"]] == [1.0, 1.0]
    assert all(row["verdict"] == "not_compact" for row in doc["rows"])


def test_sweep_inline_json_symbol(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "opnorm",
        "--symbol", '{"family": "geometric", "r": [0.5, 0.0]}',
        "--m", "4", "--p-in", "2", "--p-out", "2",
    )
    assert code == 0
    assert "geometric" in out


def test_sweep_symbol_file(capsys, tmp_path):
    spec = tmp_path / "sym.json"
    spec.write_text('{"family": "unit_dirac", "n0": 3}')
    code, out, _ = run_cli(
        capsys, "sweep", "opnorm", "--symbol", str(spec), "--m", "4",
        "--p-in", "2", "--p-out", "2",
    )
    assert code == 0
    assert "unit_dirac" in out


def test_config_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "tail-decay", "--symbol", "nonsense{")
    assert code == 2 and "config error" in err
    code, _, err = run_cli(capsys, "sweep", "spectrum-grid", "--symbol", "alternating")
    assert code == 2 and "grid" in err
    code, _, err = run_cli(capsys, "sweep", "probe-constants", "--p-in", "1.5", "--m", "4")
    assert code == 2 and "inequality" in err
    code, _, err = run_cli(capsys, "sweep", "tail-decay", "--m", "25")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_no_partial_file_on_failure(capsys, tmp_path):
    out_file = tmp_path / "never.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "tail-decay", "--symbol", "reciprocal", "--m", "6",
        "--cutoffs", "64,65", "--out", str(out_file),
    )
    assert code == 2
    assert not out_file.exists()
    assert list(tmp_path.iterdir()) == []
