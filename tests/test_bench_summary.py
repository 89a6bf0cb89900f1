"""tools/bench_summary.py on a synthetic perfbench output directory."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
PROVENANCE = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
              "blas": {"threads_env": "1", "threads": 1, "name": "openblas"},
              "git_commit": "abc123", "src_sha256": "f00d"}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def write_run(out_dir, workload, seed, p50, correct=True, **provenance):
    prov = dict(PROVENANCE, workload=workload, seed=seed, **provenance)
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
              "metrics": {"solve_ms_p50": {"value": p50, "unit": "ms"},
                          "model_cost_per_solve": {"value": 7.0, "unit": "count"}}}
    (out_dir / f"{workload}-seed{seed}-trace0.json").write_text(
        json.dumps({"provenance": prov, "result": result, "notes": [], "raw": []}))


def test_medians_over_the_listed_seeds(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    for seed, p50 in ((1, 3.0), (2, 1.0), (3, 2.0), (9, 100.0)):
        write_run(out, "large_kappa", seed, p50)
    write_run(out, "oracle_n32", 1, 0.5)
    write_run(out, "oracle_n32", 2, 0.7, correct=False)
    write_run(out, "oracle_n32", 3, 0.6)
    (out / "large_kappa-seed1-trace1.json").write_text("not read")  # a traced run
    assert load_tool().main(["t1", "--seeds", "3,1,2", "--out-dir", str(out),
                             "--dest", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "BENCH_t1.json").read_text())
    assert summary["label"] == "t1"
    assert summary["provenance"] == {"git_commit": "abc123", "src_sha256": "f00d",
                                     "numpy": "2.4.6", "blas_threads": 1}
    large, oracle = summary["workloads"]["large_kappa"], summary["workloads"]["oracle_n32"]
    assert large["seeds"] == oracle["seeds"] == [1, 2, 3]
    assert large["metrics"]["solve_ms_p50"] == {"unit": "ms", "values": [3.0, 1.0, 2.0],
                                                "median": 2.0}
    assert large["metrics"]["model_cost_per_solve"]["median"] == 7.0
    assert large["correct"] is True and oracle["correct"] is False
    assert oracle["metrics"]["solve_ms_p50"]["median"] == 0.6


@pytest.mark.parametrize("case, message", [
    ("missing seed", "has no run of seed(s) [2]"),
    ("other tree", "has provenance"),
    ("malformed", "is not a perfbench result"),
    ("no runs", "no run of seeds"),
])
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, case, message):
    out = tmp_path / "out"
    out.mkdir()
    if case != "no runs":
        write_run(out, "qsvt_n16", 1, 1.0)
    if case == "other tree":
        write_run(out, "qsvt_n16", 2, 1.0, src_sha256="beef")
    elif case == "malformed":
        (out / "qsvt_n16-seed2-trace0.json").write_text("{}")
    assert load_tool().main(["bad", "--seeds", "1,2", "--out-dir", str(out),
                             "--dest", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "BENCH_bad.json").exists()
