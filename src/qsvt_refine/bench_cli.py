"""Command-line experiment runner.

Four experiments, one row schema, deterministic output: convergence
sweeps on random matrices, the large-condition-number regime, the
cost-crossover comparison against a single high-precision solve, and
the 1-D Poisson system. Results go to CSV (fixed column order) with a
sidecar JSON recording the config and provenance notes; identical
configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import numbers
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .numerics import random_with_condition, singular_value_ratio, svd
from .qsp_phases import MAX_DEGREE, PhaseFindingError
from .qsvt_core import PostSelectionError
from .refine import (
    MIN_EPS_TARGET,
    DivergenceError,
    contraction_check,
    direct_cost,
    iterative_refine,
    noisy_oracle_backend,
    nominal_degree,
    qsvt_backend,
    samples_for_accuracy,
    spectral_oracle_backend,
    theorem_iteration_bound,
)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "gen_poisson",
    "run_complexity",
    "main",
    "cli",
]

CSV_COLUMNS = [
    "run_id", "experiment", "n", "kappa", "eps_l", "eps_target", "backend",
    "readout", "seed", "iter", "omega", "mu", "be_calls_cum", "samples_cum",
    "converged", "theorem_bound",
]

_EXPERIMENTS = ("convergence", "large_kappa", "complexity", "poisson")
_BACKENDS = {
    "spectral_oracle": spectral_oracle_backend,
    "noisy_oracle": noisy_oracle_backend,
    "qsvt_full": qsvt_backend,
}

# Numerical failures that fail one run (exit code 1) while the others go
# on; a ValueError here is numerical, as the config is checked up front.
_RUN_ERRORS = (DivergenceError, PhaseFindingError, PostSelectionError, ValueError)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


@dataclass
class ExperimentConfig:
    experiment: str
    n_qubits: int = 4
    kappa: list = None
    eps_l: Optional[list] = None
    eps_target: float = 1e-11
    backend: str = "spectral_oracle"
    seeds: list = None
    out: str = "results.csv"
    readout: str = "exact"

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not isinstance(self.backend, str) or self.backend not in _BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        if not isinstance(self.readout, str) or self.readout not in ("exact", "shot"):
            raise ConfigError(f"unknown readout mode {self.readout!r}")
        if type(self.n_qubits) is not int or self.n_qubits < 1:  # type(): a bool is an int too
            raise ConfigError(f"n_qubits = {self.n_qubits!r} must be an integer >= 1")
        if not isinstance(self.out, str) or not self.out:
            raise ConfigError(f"out = {self.out!r} must be a nonempty path string")
        if Path(self.out).is_dir():
            raise ConfigError(f"out = {self.out!r} names a directory, not a CSV path")
        if self.kappa is None:
            self.kappa = {"large_kappa": [100.0, 200.0, 300.0]}.get(self.experiment, [10.0])
        elif self.experiment == "poisson":
            raise ConfigError("poisson takes no kappa: its matrix sets the condition number")
        self.kappa = _coerced("kappa", self.kappa, float)
        if not self.kappa:
            raise ConfigError("kappa list must be nonempty")
        if self.eps_l is not None:
            self.eps_l = _coerced("eps_l", self.eps_l, float)
            if not self.eps_l:
                raise ConfigError("eps_l list must be nonempty when given")
        if self.seeds is None:
            self.seeds = [0]
        self.seeds = _coerced("seeds", self.seeds, int)
        if not self.seeds:
            raise ConfigError("seeds list must be nonempty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        if (isinstance(self.eps_target, bool) or not isinstance(self.eps_target, numbers.Real)
                or not MIN_EPS_TARGET <= self.eps_target < 1.0):
            raise ConfigError(f"eps_target = {self.eps_target!r} must be a number in "
                              f"[{MIN_EPS_TARGET:g}, 1)")
        if self.experiment == "poisson":
            self.kappa = [singular_value_ratio(svd(gen_poisson(self.n_qubits)[0])[1])]
        points = _run_points(self)
        if self.experiment == "complexity" and len(points) != 1:
            raise ConfigError(f"complexity takes one kappa and one eps_l, not {len(points)} pairs")
        for kappa, eps_l in points:
            if eps_l * kappa >= 1.0:
                raise ConfigError(
                    f"eps_l * kappa = {eps_l * kappa:g} >= 1 breaks the contraction "
                    "hypothesis; pick eps_l < 1/kappa"
                )
            try:  # the library's own checks: kappa >= 1, eps_l > 0, a finite sampling cost
                degree = nominal_degree(kappa, eps_l / kappa)
                samples_for_accuracy(eps_l)
            except ValueError as exc:
                raise ConfigError(f"kappa = {kappa:g}, eps_l = {eps_l:g}: {exc}") from exc
            if self.backend == "qsvt_full" and degree > MAX_DEGREE:
                raise ConfigError(
                    f"qsvt_full needs degree {degree} at kappa={kappa:g} "
                    f"eps_l={eps_l:g}, above the phase-finding cap ({MAX_DEGREE})"
                )
        run_ids = [_run_id(self.experiment, 2**self.n_qubits, kappa, eps_l, seed, eps)
                   for kappa, eps_l in points for seed in self.seeds
                   for eps in (_complexity_eps_sweep(eps_l, self.eps_target)
                               if self.experiment == "complexity" else [None])]
        repeated = [run_id for i, run_id in enumerate(run_ids) if run_id in run_ids[:i]]
        if repeated:  # the ids keep 6 significant digits of each value
            raise ConfigError(f"runs would share the run_id {repeated[0]!r}")


def _load_config(path: Optional[str], overrides: dict) -> ExperimentConfig:
    """The config file's fields (none without a file) with the flag
    overrides merged in, so every default is resolved once."""
    fields = {}
    if path:
        try:
            fields = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(fields, dict):
            raise ConfigError("config file must hold a JSON object")
    fields.update(overrides)
    bad = set(fields) - set(ExperimentConfig.__dataclass_fields__)
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    try:
        return ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _coerced(name: str, values, kind) -> list:
    if isinstance(values, (str, bytes)):  # iterating would read it digit by digit
        raise ConfigError(f"{name} must be a list of numbers, not the string {values!r}")
    try:  # a bool, or a fractional value for an int field, is rejected, not truncated
        for v in values:
            if isinstance(v, bool) or (kind is int and isinstance(v, float) and v != int(v)):
                raise ValueError(f"{v!r} is not {'an integer' if kind is int else 'a number'}")
        return [kind(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a list of numbers: {exc}") from exc


def _run_points(cfg: ExperimentConfig) -> list[tuple[float, float]]:
    """``(kappa, eps_l)`` of every refinement sweep the experiment runs;
    eps_l defaults to 0.4 / kappa."""
    points = []
    for kappa in cfg.kappa:
        eps_l_list = cfg.eps_l if cfg.eps_l is not None else [0.4 / kappa]
        points.extend((kappa, eps_l) for eps_l in eps_l_list)
    return points


def gen_poisson(n_qubits: int) -> tuple[np.ndarray, float]:
    """1-D Poisson finite-difference system: (1/h^2) tridiag(-1, 2, -1)
    with N = 2^n_qubits interior points and step h = 1/(N+1)."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    n = 2**n_qubits
    h = 1.0 / (n + 1)
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return a / h**2, h


def _rhs_vector(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0xB])
    b = rng.standard_normal(n)
    return b / np.linalg.norm(b)


def _make_backend(cfg: ExperimentConfig, a, kappa: float, eps_l: float, seed: int):
    return _BACKENDS[cfg.backend](a, eps_l, kappa, seed=seed, shot_readout=cfg.readout == "shot")


def _run_id(experiment: str, n: int, kappa: float, eps_l: float, seed: int,
            eps: Optional[float] = None) -> str:
    """The id of one run's rows (``eps``: a complexity run's target), unique in a config."""
    run_id = f"{experiment}-n{n}-k{kappa:g}-el{eps_l:g}-s{seed}"
    return run_id if eps is None else f"{run_id}-e{eps:g}"


def _trace_rows(cfg: ExperimentConfig, n: int, kappa: float, eps_l: float,
                seed: int, trace, backend) -> list[dict]:
    samples = samples_for_accuracy(eps_l)
    return [{
        "run_id": _run_id(cfg.experiment, n, kappa, eps_l, seed),
        "experiment": cfg.experiment,
        "n": n,
        "kappa": repr(kappa),
        "eps_l": repr(eps_l),
        "eps_target": repr(cfg.eps_target),
        "backend": cfg.backend,
        "readout": cfg.readout,
        "seed": seed,
        "iter": i,
        "omega": repr(omega),
        "mu": repr(trace.mu_values[i]),
        "be_calls_cum": (i + 1) * backend.degree,
        "samples_cum": (i + 1) * samples,
        "converged": trace.converged,
        "theorem_bound": trace.theorem_bound,
    } for i, omega in enumerate(trace.scaled_residuals)]


def _run_sweep(cfg: ExperimentConfig) -> tuple[list[dict], list[str]]:
    """One refinement per (kappa, eps_l, seed) on the seeded random matrix
    of prescribed spectrum, or for ``poisson`` the finite-difference
    matrix (the config holds its condition number as the only kappa)."""
    poisson = gen_poisson(cfg.n_qubits)[0] if cfg.experiment == "poisson" else None
    rows: list[dict] = []
    failures: list[str] = []
    for kappa, eps_l in _run_points(cfg):
        cap = max(theorem_iteration_bound(cfg.eps_target, eps_l, kappa), 10) + 10
        for seed in cfg.seeds:
            where = f"kappa={kappa} eps_l={eps_l} seed={seed}"
            a = (poisson if poisson is not None
                 else random_with_condition(2**cfg.n_qubits, kappa, seed))
            b = _rhs_vector(a.shape[0], seed)
            diverged = False
            try:
                backend = _make_backend(cfg, a, kappa, eps_l, seed)
                _x, trace, _cost = iterative_refine(
                    a, b, backend, cfg.eps_target, max_iter=cap,
                )
            except DivergenceError as exc:
                trace, diverged = exc.trace, True
            except _RUN_ERRORS as exc:
                failures.append(f"{type(exc).__name__} at {where}: {exc}")
                continue
            rows.extend(_trace_rows(cfg, a.shape[0], kappa, eps_l, seed, trace, backend))
            if diverged:  # one failure per run: its trace is not converged either
                failures.append(f"divergence at {where}")
            elif trace.converged:
                if trace.iterations > trace.theorem_bound:
                    failures.append(
                        f"iteration bound exceeded at {where}: "
                        f"{trace.iterations} > {trace.theorem_bound}"
                    )
                check = contraction_check(trace, kappa, eps_l)
                if cfg.readout == "exact" and not check.passed:
                    failures.append(
                        f"contraction violated at {where} "
                        f"(worst ratio {check.worst_ratio:.3f})"
                    )
            else:
                failures.append(f"no convergence at {where}")
    return rows, failures


def _complexity_eps_sweep(eps_l: float, eps_floor: float) -> list[float]:
    sweep = [eps_l]
    k = 1
    while 10.0**-k >= eps_floor:
        if 10.0**-k < eps_l:
            sweep.append(10.0**-k)
        k += 1
    return sweep


def run_complexity(cfg: ExperimentConfig) -> tuple[list[dict], list[str]]:
    """Cost crossover: measured refined-path totals against the
    closed-form direct QSVT cost, for a sweep of targets eps down to
    ``cfg.eps_target``. Both curves share the row schema; the direct
    rows carry backend="direct"."""
    [(kappa, eps_l)] = _run_points(cfg)
    rows: list[dict] = []
    failures: list[str] = []
    n = 2**cfg.n_qubits
    for seed in cfg.seeds:
        a = random_with_condition(n, kappa, seed)
        b = _rhs_vector(n, seed)
        try:
            backend = _make_backend(cfg, a, kappa, eps_l, seed)
        except _RUN_ERRORS as exc:
            failures.append(f"{type(exc).__name__} at seed={seed}: {exc}")
            continue
        for eps in _complexity_eps_sweep(eps_l, cfg.eps_target):
            try:
                _x, trace, cost = iterative_refine(a, b, backend, eps, max_iter=400)
            except _RUN_ERRORS as exc:
                failures.append(f"{type(exc).__name__} at eps={eps} seed={seed}: {exc}")
                continue
            direct = direct_cost(kappa, eps)
            common = {
                "run_id": _run_id("complexity", n, kappa, eps_l, seed, eps),
                "experiment": "complexity", "n": n,
                "kappa": repr(kappa), "eps_l": repr(eps_l), "eps_target": repr(eps),
                "readout": cfg.readout, "seed": seed,
                "converged": trace.converged, "theorem_bound": trace.theorem_bound,
            }
            rows.append({**common, "backend": cfg.backend,
                         "iter": cost.solves,
                         "omega": repr(trace.scaled_residuals[-1]),
                         "mu": repr(trace.mu_values[0]),
                         "be_calls_cum": cost.solves * cost.be_calls_per_solve,
                         "samples_cum": cost.solves * cost.samples_per_solve})
            rows.append({**common, "backend": "direct", "iter": 1,
                         "omega": repr(eps), "mu": repr(0.0),
                         "be_calls_cum": direct.be_calls_per_solve,
                         "samples_cum": direct.samples_per_solve})
            if not trace.converged:
                failures.append(f"no convergence at eps={eps} seed={seed}")
            # a noisy direction or a shot readout can leave omega above eps_l
            # after the first solve; then only one solve's cost must match
            exact = cfg.backend != "noisy_oracle" and cfg.readout == "exact"
            ours, theirs = (c.total if exact else c.be_calls_per_solve * c.samples_per_solve
                            for c in (cost, direct))
            if eps == eps_l and ours != theirs:
                failures.append(f"{'totals' if exact else 'per-solve costs'} disagree "
                                f"at eps = eps_l: {ours} vs {theirs}")
            # the crossover, checked below eps_l: at eps_l one refined solve is the direct one
            if eps < eps_l and eps <= 1e-3 and not cost.total < direct.total:
                failures.append(
                    f"refined total {cost.total} not below direct {direct.total} "
                    f"at eps={eps}"
                )
    return rows, failures


def _metadata(cfg: ExperimentConfig) -> dict:
    return {
        "config": asdict(cfg),
        "notes": {
            "matrix_ensemble": "prescribed log-spaced singular spectrum with "
                               "seeded random orthogonal factors (distribution "
                               "is this artifact's choice)",
            "eps_l_default": "0.4 / kappa when eps_l is omitted",
            "shot_readout": "Gaussian surrogate of norm 1/sqrt(shots); "
                            "physical sign recovery is not modeled",
            "polynomial_accuracy": "inner series built at eps' = eps_l / kappa",
        },
    }


def _write_outputs(cfg: ExperimentConfig, rows: list[dict]) -> None:
    sort_key = ("experiment", "kappa", "eps_l", "eps_target", "backend", "seed", "iter")
    rows = sorted(rows, key=lambda r: tuple(str(r[k]) for k in sort_key))
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    meta = out.with_suffix(out.suffix + ".meta.json")
    meta.write_text(json.dumps(_metadata(cfg), indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    """Parse flags, run the experiment, write CSV/JSON, print a summary.

    Exit codes: 0 success; 1 a run failed, by a run-level assertion or a
    numerical error inside it (the other runs' rows are written), or the
    outputs could not be written; 2 bad config, found before any run.
    """
    parser = argparse.ArgumentParser(
        prog="qsvt-refine-bench",
        description="Benchmark runner for the mixed-precision QSVT solver.",
    )
    parser.add_argument("--experiment", choices=_EXPERIMENTS)
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--seeds", help="comma-separated seed list")
    parser.add_argument("--backend", choices=_BACKENDS)
    parser.add_argument("--readout", choices=("exact", "shot"))
    args = parser.parse_args(argv)

    try:
        if not (args.config or args.experiment):
            raise ConfigError("either --config or --experiment is required")
        overrides = {key: val for key in ("experiment", "out", "backend", "readout")
                     if (val := getattr(args, key)) is not None}
        if args.seeds is not None:
            overrides["seeds"] = [s for s in args.seeds.split(",") if s]
        cfg = _load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    run = run_complexity if cfg.experiment == "complexity" else _run_sweep
    rows, failures = run(cfg)
    try:
        _write_outputs(cfg, rows)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    runs = {r["run_id"] for r in rows}
    print(f"experiment : {cfg.experiment}")
    print(f"rows       : {len(rows)} across {len(runs)} runs -> {cfg.out}")
    if failures:
        print(f"FAILURES ({len(failures)}):")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print("all run-level assertions passed")
    return 0


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
