"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Tiny runs (``--seconds 0`` runs exactly each workload's count window)
check the emitted metric names against BENCHMARK.json and that count
metrics repeat exactly for one seed; in-process tests check the tracer
and the failure accounting.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as runner  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


_results: dict[tuple[str, int], dict] = {}


def tiny(workload: str, trace: int) -> dict:
    if (workload, trace) not in _results:
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _results[(workload, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[(workload, trace)]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_the_declared_metrics(workload, trace):
    result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(declared)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_layer_rationale_on_spectral_and_qsvt_paths():
    oracle = tiny("oracle_n32", 1)["metrics"]
    qsvt = tiny("qsvt_n16", 1)["metrics"]
    assert oracle["qsp_phases.find_phases.calls"]["value"] == 0
    assert oracle["qsvt_core.apply_inverse_state.calls"]["value"] == 0
    assert oracle["numerics.svd.calls"]["value"] == 1
    assert qsvt["qsp_phases.find_phases.calls"]["value"] > 0
    assert 0 < qsvt["qsvt_core.success_prob"]["value"] <= 1
    assert qsvt["qsp_phases.verify_max_err"]["value"] <= 1e-10


def test_count_metrics_repeat_for_one_seed():
    counts = [n for n in tiny("qsvt_n16", 1)["metrics"]
              if n.endswith(".calls") or n in ("refine.iterations", "refine.inner_solves",
                                               "invpoly.degree")]
    for trace, names in ((0, ["model_cost_per_solve"]), (1, counts)):
        first = tiny("qsvt_n16", trace)["metrics"]
        proc = bench("qsvt_n16", trace)
        assert proc.returncode == 0, proc.stderr
        again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        for name in names:
            assert again[name]["value"] == first[name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("oracle_n32", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_skips_missing_layers_and_restores(monkeypatch):
    import qsvt_refine
    from qsvt_refine import blockenc, numerics, refine

    original = numerics.svd
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (("numerics", "gone"), ("nowhere", "f")))
    t = tracer.Tracer()
    missing = t.install()
    try:
        assert missing == ["numerics.gone", "nowhere.f"]
        assert refine.svd is blockenc.svd is numerics.svd is not original
        assert "qsvt_refine.refine.svd" in tracer.installed_wrappers()
        numerics.svd(qsvt_refine.random_with_condition(4, 2.0, 0))
    finally:
        t.uninstall()
    assert tracer.installed_wrappers() == []
    assert refine.svd is blockenc.svd is numerics.svd is original
    assert t.totals() == {"numerics.svd": (1, pytest.approx(t.self_times()[0]))}


def _args(workload: str) -> Namespace:
    return Namespace(workload=workload, seed=SEED, seconds=0.0, t0=time.monotonic(),
                     trace=0, setup_only=False, first=0)


def test_library_errors_count_as_failed_solves(monkeypatch):
    from qsvt_refine import qsp_phases, refine

    def broken(*_args, **_kwargs):
        raise qsp_phases.PhaseFindingError(1.0, 1e-10)

    monkeypatch.setattr(refine, "spectral_oracle_backend", broken)
    out = worker.run(_args("oracle_n32"))
    window = worker.WORKLOADS["oracle_n32"].window
    assert out["attempted"] == window
    assert out["failed"] == {"PhaseFindingError": window}
    assert out["latencies_ms"] == []


def test_gate_rejects_a_wrong_solution(monkeypatch):
    from qsvt_refine import refine

    real = refine.iterative_refine

    def sloppy(a, b, backend, eps_target):
        x, trace, cost = real(a, b, backend, eps_target=eps_target)
        return x * (1.0 + 1e-6), trace, cost

    monkeypatch.setattr(refine, "iterative_refine", sloppy)
    out = worker.run(_args("oracle_n32"))
    assert out["failed"] == {"gate": out["attempted"]}
    assert "residual" in out["gate_failures"][0]


def _in_process(workload, seed, seconds, trace, deadline, setup_only=False, first=0):
    """Stand-in for ``run.worker`` that runs the worker in this process."""
    out = worker.run(Namespace(workload=workload, seed=seed, seconds=seconds,
                               t0=time.monotonic(), trace=trace, setup_only=setup_only,
                               first=first))
    return json.loads(json.dumps(out))


def test_a_run_with_raising_solves_is_not_correct(monkeypatch):
    from qsvt_refine import refine

    real = refine.iterative_refine
    calls = []

    def flaky(a, b, backend, eps_target):
        calls.append(None)
        if len(calls) % 3 == 0:
            raise ValueError("injected")
        return real(a, b, backend, eps_target=eps_target)

    monkeypatch.setattr(refine, "iterative_refine", flaky)
    monkeypatch.setattr(runner, "worker", _in_process)
    result, _, notes = runner.run("oracle_n32", SEED, 0.0, 0)
    assert result["correct"] is False
    assert result["failed"] == len(calls) // 3 > 0
    assert result["attempted"] == len(calls)
    assert any('"ValueError"' in note for note in notes)


def test_a_run_without_a_completed_solve_is_an_error(monkeypatch):
    from qsvt_refine import refine

    def broken(*_args, **_kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(refine, "iterative_refine", broken)
    monkeypatch.setattr(runner, "worker", _in_process)
    with pytest.raises(runner.BenchError, match="no solve completed"):
        runner.run("oracle_n32", SEED, 0.0, 0)
