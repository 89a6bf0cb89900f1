"""Benchmark of refined solves with qsvt_refine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload as a single-client closed loop in fresh worker
processes (``worker.py``) with one BLAS thread, checks every solve, and
prints the metrics, a provenance line and, last, one JSON result line:

* ``--trace 0``: the end-to-end metrics. ``WORKERS`` processes in turn
  each run a third of ``--seconds``, continuing one request sequence, and
  their solves are pooled, so no single process's memory layout or host
  state decides the result. Set-up time is the median over them and
  ``SETUP_PROBES`` set-up-only processes.
* ``--trace 1``: the per-layer metrics. An untraced worker and a traced
  worker each run half of ``--seconds`` on the same seed; the ratio of
  their median latencies is ``trace.overhead``.

Metric names, units and the workloads are listed in README.md next to
this file. The full result, spans included, is also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scipy.special import betainc

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle_n32", "large_kappa", "qsvt_n16", "qsvt_rhs_n32")
WORKERS = 3        # measuring processes per untraced run, each for a third of --seconds
SETUP_PROBES = 2   # extra set-up-only processes; set-up is the median over all
BLAS_THREADS = "1"
RUN_BUDGET_S = 170.0  # every worker of a run must end within this many seconds
# Tail percentile per workload: the highest of p75, p90, p95, ... with at
# least 10 samples beyond it in every run when the benchmark was defined
# (qsvt_n16 has ~16 solves a run, so p90 is the best it offers). It is fixed
# so that every commit reports the same percentile; a rule picking it from
# each run's sample count jumped between p75 and p90 on large_kappa.
TAIL_Q = {"oracle_n32": 90.0, "large_kappa": 75.0, "qsvt_n16": 90.0, "qsvt_rhs_n32": 75.0}
NOTE = ("one worker, one client, no queues: no wait time exists to report; "
        "count metrics cover the first `window` requests, time metrics all requests")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (q in (0, 100)): a
    Beta-weighted mean of all order statistics (Harrell & Davis, Biometrika
    1982). On a two-class mix such as qsvt_n16 the plain median is the
    midpoint of the two classes' facing extremes and swings with them."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q / 100.0, (n + 1) * (1.0 - q / 100.0)
    cdf = betainc(a, b, [k / n for k in range(n + 1)])
    return float(sum((cdf[k + 1] - cdf[k]) * x for k, x in enumerate(ordered)))


def worker(workload: str, seed: int, seconds: float, trace: int, deadline: float,
           setup_only: bool = False, first: int = 0) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--first", str(first)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=HERE, capture_output=True,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {RUN_BUDGET_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def provenance(workload: str, seed: int, child: dict) -> dict:
    src = ROOT / "src" / "qsvt_refine"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return dict(child["provenance"], nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)), workload=workload, seed=seed,
                git_commit=commit, src_sha256=digest.hexdigest())


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def end_to_end(workload: str, runs: list[dict], setups: list[dict]) -> tuple[dict, list[str]]:
    lat = [ms for r in runs for ms in r["scaled_ms"]]
    raw = [ms for r in runs for ms in r["latencies_ms"]]
    attempted = sum(r["attempted"] for r in runs)
    failures: dict[str, int] = {}
    for r in runs:
        for kind, count in r["failed"].items():
            failures[kind] = failures.get(kind, 0) + count
    q = TAIL_Q[workload]
    metrics = {
        "setup_s": (statistics.median(s["setup_scaled_s"] for s in setups), "s"),
        "solve_ms_p50": (percentile(lat, 50.0), "ms"),
        "solve_ms_tail": (percentile(lat, q), "ms"),
        "solves_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
        "model_cost_per_solve": (_mean(runs[0]["counts"]["model_cost"]), "count"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MiB"),
    }
    failed = sum(failures.values())
    notes = [f"solve_ms_tail is p{q:g} of {len(lat)} solves in {len(runs)} processes "
             f"({len(lat) * (100.0 - q) / 100.0:.3g} beyond it)",
             f"setup_s is the median of {len(setups)} set-ups",
             f"unscaled wall times: solve p50 {statistics.median(raw):.4g} ms, "
             f"setup {statistics.median(s['setup_s'] for s in setups):.4g} s; host at "
             f"{statistics.median(f for r in runs for f in r['speed']):.3g}x its reference "
             "speed (median over requests)",
             f"failed_frac {failed / attempted:g} ({failed} of {attempted} solves"
             f"{', by type ' + json.dumps(failures) if failed else ''})"]
    return metrics, notes


def per_layer(untraced: dict, traced: dict) -> dict:
    t = traced["trace"]
    window = min(traced["window"], traced["attempted"])
    metrics = {}
    for mod, fn in LAYERS:
        name = f"{mod}.{fn}"
        metrics[f"{name}.calls"] = (t["window"].get(name, [0, 0.0])[0] / window, "count")
        metrics[f"{name}.self_ms"] = (
            t["all"].get(name, [0, 0.0])[1] * 1e3 / traced["attempted"], "ms")
    c = traced["counts"]
    metrics["invpoly.degree"] = (_mean(c["degree"]), "count")
    metrics["qsp_phases.verify_max_err"] = (t["verify_max_err"], "1")
    probs = t["success_probs"]
    metrics["qsvt_core.success_prob"] = (_mean(probs), "1")
    metrics["qsvt_core.repeats_per_solve"] = (_mean(1.0 / p for p in probs), "count")
    metrics["refine.backend_build_ms"] = (
        sum((end - start) * traced["speed"][request - traced["first"]]
            for name, start, end, _, request in t["spans"] if name == "refine.backend_build")
        * 1e3 / traced["attempted"], "ms")
    metrics["refine.iterative_refine.self_ms"] = (
        t["all"].get("refine.iterative_refine", [0, 0.0])[1] * 1e3 / traced["attempted"], "ms")
    metrics["refine.inner_solves"] = (_mean(c["inner_solves"]), "count")
    metrics["refine.iterations"] = (_mean(c["iterations"]), "count")
    metrics["refine.iters_over_bound"] = (_mean(c["iters_over_bound"]), "1")
    metrics["refine.first_omega_over_charged"] = (max(c["first_omega_over_charged"], default=0.0), "1")
    metrics["refine.contraction_worst"] = (max(c["contraction_worst"], default=0.0), "1")
    metrics["trace.overhead"] = (
        percentile(traced["scaled_ms"], 50.0) / percentile(untraced["scaled_ms"], 50.0), "1")
    return metrics


def _solved(out: dict) -> dict:
    """``out`` unchanged if at least one of its solves completed."""
    if not out["latencies_ms"]:
        raise BenchError(f"no solve completed: {out['attempted']} attempted, "
                         f"failures by type {json.dumps(out['failed'])}")
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, list[str]]:
    if not (ROOT / "src" / "qsvt_refine" / "__init__.py").is_file():
        raise BenchError(f"no qsvt_refine sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        untraced = _solved(worker(workload, seed, seconds / 2.0, 0, deadline))
        traced = _solved(worker(workload, seed, seconds / 2.0, 1, deadline))
        if not traced["trace"]["restored"]:
            raise BenchError("tracer left wrappers installed")
        runs = [untraced, traced]
        metrics = per_layer(untraced, traced)
        notes = [f"traced layers: {', '.join(traced['trace']['wrapped'])}",
                 f"layers not found (reported as 0 calls): {traced['trace']['missing'] or 'none'}"]
    else:
        runs = []
        for _ in range(WORKERS):
            first = sum(r["attempted"] for r in runs)
            runs.append(_solved(worker(workload, seed, seconds / WORKERS, 0, deadline,
                                       first=first)))
        setups = [worker(workload, seed, 0.0, 0, deadline, setup_only=True)
                  for _ in range(SETUP_PROBES)]
        metrics, notes = end_to_end(workload, runs, setups + runs)
    notes.append(NOTE)
    failed = sum(sum(r["failed"].values()) for r in runs)
    result = {
        # A solve that raised or failed the gate makes the run incorrect: the
        # time and cost figures cover only the solves that completed.
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for r in runs:
        for reason in r["gate_failures"]:
            notes.append(f"gate failure: {reason}")
    prov = provenance(workload, seed, runs[0])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"provenance": prov, "result": result, "notes": notes, "raw": runs}))
    return result, prov, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsvt_refine refined-solve benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        result, prov, notes = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
