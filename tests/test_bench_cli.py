import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_api_surface import memoized_functions

from qsvt_refine import bench_cli, refine
from qsvt_refine.bench_cli import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    gen_poisson,
    main,
    run_complexity,
)
from qsvt_refine.numerics import singular_value_ratio, svd
from qsvt_refine.qsp_phases import PhaseFindingError
from qsvt_refine.qsvt_core import PostSelectionError


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "experiment": "convergence",
        "n_qubits": 3,
        "kappa": [10.0],
        "eps_l": [1e-2, 1e-3],
        "eps_target": 1e-11,
        "backend": "spectral_oracle",
        "seeds": [0, 1],
        "out": str(tmp_path / "out.csv"),
        "readout": "exact",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_gen_poisson_smallest_case():
    a, h = gen_poisson(1)
    assert h == pytest.approx(1.0 / 3.0)
    np.testing.assert_allclose(a, [[18.0, -9.0], [-9.0, 18.0]])
    np.testing.assert_allclose(a, a.T)


def test_gen_poisson_condition_growth():
    k8 = singular_value_ratio(svd(gen_poisson(3)[0])[1])
    k16 = singular_value_ratio(svd(gen_poisson(4)[0])[1])
    assert k16 > k8 > 1.0


def test_convergence_run_and_csv_shape(tmp_path):
    path, cfg = write_config(tmp_path)
    assert main(["--config", str(path)]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # one row per recorded residual: iterations + 1 per run
    runs = {}
    for line in lines[1:]:
        fields = dict(zip(CSV_COLUMNS, line.split(",")))
        runs.setdefault(fields["run_id"], []).append(int(fields["iter"]))
        assert fields["converged"] == "True"
        assert int(fields["iter"]) <= int(fields["theorem_bound"])
    assert len(runs) == 4  # 2 eps_l x 2 seeds
    for iters in runs.values():
        assert iters == list(range(len(iters)))
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert meta["config"]["experiment"] == "convergence"
    assert "log-spaced" in meta["notes"]["matrix_ensemble"]


def test_determinism_byte_identical(tmp_path):
    path, cfg = write_config(tmp_path)
    assert main(["--config", str(path)]) == 0
    first = (tmp_path / "out.csv").read_bytes()
    assert main(["--config", str(path)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first


def cli_csv_under_blas_threads(tmp_path, flags, threads):
    """CSV bytes of one fresh CLI process run with ``threads`` OpenBLAS threads."""
    out = tmp_path / f"threads-{threads}.csv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=str(Path(bench_cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "qsvt_refine.bench_cli", "--experiment",
                          *flags.split(), "--out", str(out)],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return out.read_bytes()


@pytest.mark.parametrize("flags", [
    "convergence",
    "convergence --backend noisy_oracle",
    "convergence --backend qsvt_full --seeds 0,1",
])
def test_cli_csv_does_not_depend_on_the_blas_thread_count(tmp_path, flags):
    one, two = (cli_csv_under_blas_threads(tmp_path, flags, threads) for threads in ("1", "2"))
    assert one == two


def outputs_after_clearing_the_memos(backend, kappa, rate, seed):
    """CSV bytes and ``meta.json`` of two runs of one config, every memo in
    the package cleared before each run."""
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for run in ("first", "second"):
            for _, memo in memoized_functions():
                memo.cache_clear()
            path, cfg = write_config(
                Path(tmp), name=f"{run}.json", kappa=[kappa], eps_l=[rate / kappa],
                seeds=[seed], n_qubits=2, backend=backend, eps_target=1e-10,
                out=str(Path(tmp) / f"{run}.csv"),
            )
            assert main(["--config", str(path)]) in (0, 1)  # a failed run still writes
            meta = json.loads(Path(cfg["out"] + ".meta.json").read_text())
            meta["config"].pop("out")
            outputs.append((Path(cfg["out"]).read_bytes(), meta))
    return outputs


@settings(max_examples=8, deadline=None)
@given(kappa=st.floats(2.0, 10.0), rate=st.floats(1e-3, 0.9), seed=st.integers(0, 2**16))
def test_qsvt_full_csv_is_identical_after_clearing_the_memos(kappa, rate, seed):
    # the second run finds its series and phases afresh, so the CSV holds
    # only if phase finding gives the same phases every time
    first, second = outputs_after_clearing_the_memos("qsvt_full", kappa, rate, seed)
    assert first == second


@settings(max_examples=8, deadline=None)
@given(kappa=st.floats(2.0, 10.0), rate=st.floats(1e-3, 0.9), seed=st.integers(0, 2**16))
def test_spectral_oracle_csv_is_identical_after_clearing_the_memos(kappa, rate, seed):
    # the second run builds its series and its grid evaluator afresh
    first, second = outputs_after_clearing_the_memos("spectral_oracle", kappa, rate, seed)
    assert first == second


def test_missing_and_invalid_config(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2
    bad.write_text("5")
    assert main(["--config", str(bad), "--experiment", "convergence"]) == 2
    path, _ = write_config(tmp_path, experiment="weird")
    assert main(["--config", str(path)]) == 2
    assert main([]) == 2


def test_flag_overrides(tmp_path):
    path, _ = write_config(tmp_path, seeds=[0, 1, 2])
    out = tmp_path / "other.csv"
    assert main(["--config", str(path), "--out", str(out), "--seeds", "5"]) == 0
    rows = out.read_text().splitlines()[1:]
    assert all(",5," in r for r in rows)

    # --experiment resolves the kappa defaults of the flagged experiment,
    # not of the file's
    cfg = tmp_path / "lone.json"
    cfg.write_text(json.dumps({"experiment": "convergence", "n_qubits": 2,
                               "eps_target": 1e-8}))
    assert main(["--config", str(cfg), "--out", str(out),
                 "--experiment", "large_kappa"]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert {r[1] for r in rows} == {"large_kappa"}
    assert {(r[3], r[4]) for r in rows} == {
        (repr(k), repr(0.4 / k)) for k in (100.0, 200.0, 300.0)
    }
    cfg.write_text(json.dumps({"experiment": "poisson", "n_qubits": 2}))
    assert main(["--config", str(cfg), "--out", str(out),
                 "--experiment", "convergence"]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert {(r[1], r[3]) for r in rows} == {("convergence", repr(10.0))}


def test_large_kappa_defaults_and_rejection(tmp_path):
    path, _ = write_config(
        tmp_path, experiment="large_kappa", kappa=[100.0, 200.0], eps_l=None,
        eps_target=1e-8, seeds=[0],
    )
    assert main(["--config", str(path)]) == 0
    rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
    eps_ls = {r.split(",")[4] for r in rows}
    assert eps_ls == {repr(0.4 / 100.0), repr(0.4 / 200.0)}

    path, _ = write_config(
        tmp_path, name="bad.json", experiment="large_kappa", kappa=[100.0],
        eps_l=[0.5], eps_target=1e-8,
    )
    assert main(["--config", str(path)]) == 2  # eps_l * kappa >= 1

    path, _ = write_config(
        tmp_path, name="qsvt.json", experiment="large_kappa", kappa=[100.0],
        eps_l=None, eps_target=1e-8, backend="qsvt_full", n_qubits=4,
    )
    assert main(["--config", str(path)]) == 2


def test_qsvt_backend_qubit_guard(tmp_path):
    # qsvt_full has no qubit guard beyond the spectral oracle's: it applies
    # the sequence on the singular pairs, with no 2N x 2N sweep to guard
    cfg = ExperimentConfig(experiment="convergence", backend="qsvt_full", n_qubits=7)
    assert cfg.n_qubits == 7 and cfg.backend == "qsvt_full"
    path, _ = write_config(tmp_path, backend="qsvt_full", n_qubits=7, eps_l=[1e-2], seeds=[0])
    assert main(["--config", str(path)]) == 0
    rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
    assert rows and all(dict(zip(CSV_COLUMNS, row.split(",")))["converged"] == "True"
                        for row in rows)


def test_complexity_rows_and_assertions(tmp_path):
    cfg = ExperimentConfig(
        experiment="complexity", n_qubits=2, kappa=[2.0], eps_l=[0.4],
        eps_target=1e-8, backend="spectral_oracle", seeds=[0],
        out=str(tmp_path / "c.csv"),
    )
    rows, failures = run_complexity(cfg)
    assert failures == []
    measured = [r for r in rows if r["backend"] == "spectral_oracle"]
    direct = [r for r in rows if r["backend"] == "direct"]
    assert len(measured) == len(direct) > 3
    # curves coincide at eps = eps_l
    top_m = [r for r in measured if r["eps_target"] == repr(0.4)][0]
    top_d = [r for r in direct if r["eps_target"] == repr(0.4)][0]
    assert top_m["be_calls_cum"] == top_d["be_calls_cum"]
    assert top_m["samples_cum"] == top_d["samples_cum"]
    # the CSV prices both paths by the one cost model
    for row in direct:
        cost = refine.direct_cost(2.0, float(row["eps_target"]))
        assert (row["be_calls_cum"], row["samples_cum"]) == (
            cost.be_calls_per_solve, cost.samples_per_solve)
    for row in measured:
        assert (row["be_calls_cum"], row["samples_cum"]) == (
            row["iter"] * refine.nominal_degree(2.0, 0.4 / 2.0),
            row["iter"] * refine.samples_for_accuracy(0.4))


@pytest.mark.parametrize("flags", [["--backend", "noisy_oracle"], ["--readout", "shot"]])
def test_complexity_with_noisy_first_solves_exits_0(tmp_path, capsys, flags):
    # a noisy first solve can leave omega above eps_l, and a second solve
    # doubles the total; the per-solve cost still matches the direct one
    out = str(tmp_path / "c.csv")
    assert main(["--experiment", "complexity", "--out", out, *flags]) == 0
    assert "all run-level assertions passed" in capsys.readouterr().out


@pytest.mark.parametrize("backend, code", [("spectral_oracle", 1), ("noisy_oracle", 0)])
def test_complexity_totals_check_fails_only_the_exact_polynomial_backends(
        tmp_path, monkeypatch, capsys, backend, code):
    # one more solve keeps the per-solve cost and breaks the equal totals
    real = bench_cli.iterative_refine

    def one_more_solve(*args, **kwargs):
        x, trace, cost = real(*args, **kwargs)
        return x, trace, refine.CostReport(cost.solves + 1, cost.be_calls_per_solve,
                                           cost.samples_per_solve)

    monkeypatch.setattr(bench_cli, "iterative_refine", one_more_solve)
    out = str(tmp_path / "c.csv")
    assert main(["--experiment", "complexity", "--backend", backend, "--out", out]) == code
    assert ("totals disagree at eps = eps_l" in capsys.readouterr().out) == (code == 1)


def test_poisson_experiment(tmp_path):
    path, _ = write_config(
        tmp_path, experiment="poisson", n_qubits=3, eps_l=[1e-3],
        eps_target=1e-10, kappa=None,
    )
    assert main(["--config", str(path)]) == 0
    rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
    kappa = float(rows[0].split(",")[3])
    assert kappa == pytest.approx(
        singular_value_ratio(svd(gen_poisson(3)[0])[1]), rel=1e-6)


@pytest.mark.parametrize("overrides, message", [
    ({"eps_l": [0.0]}, "positive"),
    ({"kappa": [0.5]}, ">= 1"),
    ({"seeds": ["x"]}, "numbers"),
    ({"eps_target": 1e-15}, "eps_target"),
    ({"backend": "qsvt_full", "kappa": [20.0], "eps_l": [1e-3]}, "phase-finding cap"),
    ({"backend": "qsvt_full", "experiment": "poisson", "eps_l": None}, "phase-finding cap"),
    ({"eps_target": math.inf}, "eps_target"),
    ({"eps_target": 2.0}, "eps_target"),
    ({"experiment": "complexity", "kappa": [2.0, 4.0], "eps_l": [0.1, 0.05]},
     "complexity takes one kappa and one eps_l"),
    ({"n_qubits": 2.5}, "n_qubits = 2.5 must be an integer"),
    ({"n_qubits": True}, "n_qubits = True must be an integer"),
    ({"seeds": [2.7]}, "seeds must be a list of numbers: 2.7 is not an integer"),
    ({"seeds": [True]}, "seeds must be a list of numbers: True is not an integer"),
    ({"kappa": [True]}, "kappa must be a list of numbers: True is not a number"),
    ({"seeds": "12"}, "seeds must be a list of numbers, not the string '12'"),
    ({"kappa": "10"}, "kappa must be a list of numbers, not the string '10'"),
    ({"eps_l": "0.01"}, "eps_l must be a list of numbers, not the string '0.01'"),
    ({"seeds": [0, -1]}, "seeds must be non-negative, got -1"),
    ({"experiment": "complexity", "eps_l": None, "seeds": [-1]},
     "seeds must be non-negative, got -1"),
    ({"out": 5}, "out = 5 must be a nonempty path string"),
    ({"out": None}, "out = None must be a nonempty path string"),
    ({"out": ""}, "out = '' must be a nonempty path string"),
    # a type is checked before its value: these failed on a comparison or
    # a hash, in a message that named no field
    ({"eps_target": "1e-11"}, "eps_target = '1e-11' must be a number in [1e-14, 1)"),
    ({"eps_target": None}, "eps_target = None must be a number in [1e-14, 1)"),
    ({"eps_target": True}, "eps_target = True must be a number in [1e-14, 1)"),
    ({"backend": ["x"]}, "unknown backend ['x']"),
    ({"experiment": ["convergence"]}, "unknown experiment ['convergence']"),
    ({"readout": 0}, "unknown readout mode 0"),
    # 1/eps_l^2 is not a finite float: the runs used to fail with a traceback
    ({"eps_l": [1e-160]}, "eps_l = 1e-160: eps = 1e-160 is too small for the sampling cost model"),
    ({"eps_l": [1e-200], "backend": "qsvt_full"},
     "eps_l = 1e-200: eps = 1e-200 is too small for the sampling cost model"),
])
def test_bad_config_exits_2_before_any_run(tmp_path, capsys, monkeypatch, overrides, message):
    monkeypatch.setattr(bench_cli, "iterative_refine", lambda *args, **kwargs: pytest.fail("ran"))
    path, _ = write_config(tmp_path, **overrides)
    assert main(["--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_an_out_that_names_a_directory_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    # the runs used to finish and the write to die on IsADirectoryError
    monkeypatch.setattr(bench_cli, "iterative_refine", lambda *args, **kwargs: pytest.fail("ran"))
    path, _ = write_config(tmp_path)
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: out = {str(tmp_path)!r} names a directory, not a CSV path\n"


def test_an_output_that_cannot_be_written_exits_1_with_one_line(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    path, _ = write_config(tmp_path, out=str(tmp_path / "file" / "out.csv"), seeds=[0])
    assert main(["--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("field", ["kappa", "eps_l", "seeds"])
def test_a_bytes_value_for_a_list_field_is_a_config_error(field):
    with pytest.raises(ConfigError, match=f"{field} must be a list of numbers, not the string"):
        ExperimentConfig(experiment="convergence", **{field: b"10"})


def test_poisson_kappa_is_resolved_in_the_config():
    cfg = ExperimentConfig(experiment="poisson", n_qubits=3, kappa=[10.0])
    assert cfg.kappa == [singular_value_ratio(svd(gen_poisson(3)[0])[1])]


@pytest.mark.parametrize("target, error", [
    ("spectral_oracle_backend", PhaseFindingError(1e-3, 1e-10)),
    ("iterative_refine", PostSelectionError("post-selection failure: success probability 0")),
    ("iterative_refine", ValueError("swept state is not normalized: |norm^2 - 1| = 1.000e-03")),
])
def test_numerical_failure_fails_only_its_run(tmp_path, monkeypatch, capsys, target, error):
    factory = target == "spectral_oracle_backend"  # reached through the name -> factory map
    real = bench_cli._BACKENDS["spectral_oracle"] if factory else getattr(bench_cli, target)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise error
        return real(*args, **kwargs)

    if factory:
        monkeypatch.setitem(bench_cli._BACKENDS, "spectral_oracle", flaky)
    else:
        monkeypatch.setattr(bench_cli, target, flaky)
    path, _ = write_config(tmp_path)  # 2 eps_l x 2 seeds: 4 runs
    assert main(["--config", str(path)]) == 1
    assert f"{type(error).__name__} at kappa=10.0 eps_l=0.01 seed=1" in capsys.readouterr().out
    rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
    runs = {r.split(",")[0] for r in rows}
    assert len(calls) == 4 and len(runs) == 3
