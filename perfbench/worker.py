"""One measurement process of the benchmark.

Started by ``run.py`` in a fresh interpreter with one BLAS thread. It
imports ``qsvt_refine`` from the checkout's ``src/``, generates the first
request, reports its set-up time, then runs a single-client closed loop
of refined solves for ``--seconds`` and prints one JSON line of raw
results. With ``--trace`` the layer functions are wrapped (see
``tracer.py``); without it the process checks that no wrapper is bound.

The host's speed swings (a fixed computation was measured taking from 1x
to 2x its best time within seconds), so a timer signal samples a fixed
reference computation that does not touch qsvt_refine every ``SAMPLE_S``.
Each latency, with the sampling time taken out, is also reported scaled
by the reference's time at full speed over its mean time sampled during
that request: the time the request would have taken at full speed.

A request is one seeded ``(A, b)`` taken to ``EPS_TARGET`` through the
documented API only: a backend factory (``spectral_oracle_backend`` or
``qsvt_backend``) and ``iterative_refine``. Nothing is shared between
requests except, on ``qsvt_rhs_n32``, the backend of the matrix the
request belongs to.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import signal
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EPS_TARGET = 1e-11
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
FAILURE_TYPES = ("DivergenceError", "PhaseFindingError", "PostSelectionError", "ValueError")
HARD_STOP_S = 40.0  # a loop ends here even inside its count window
WINDOW_SEED = 0  # the count window's inputs are the same for every workload seed
# Reference computation, time per repetition on a 2-vCPU x86-64 VM
# (OpenBLAS SkylakeX kernel) at its full speed; times are scaled to it.
# Set-up is sampled without numpy (it is not imported yet), the loop with.
SETUP_REP_MS = 0.26
LOOP_REP_MS = 0.50
SAMPLE_S = 0.05  # two reference repetitions per interval: about 2% of the loop


@dataclass(frozen=True)
class Workload:
    backend: str       # "spectral_oracle" | "qsvt_full"
    n: int             # matrix size
    cycle: int         # requests per cycle; a run ends on a cycle boundary
    window: int        # count window: the first `window` requests
    rhs_per_matrix: int = 1


# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "oracle_n32": Workload("spectral_oracle", 32, cycle=3, window=12),
    "large_kappa": Workload("spectral_oracle", 16, cycle=8, window=16),
    "qsvt_n16": Workload("qsvt_full", 16, cycle=2, window=4),
    "qsvt_rhs_n32": Workload("qsvt_full", 32, cycle=16, window=16, rhs_per_matrix=16),
}


@dataclass
class Request:
    matrix: int        # requests with the same matrix id share one backend
    kappa: float
    eps_l: float
    a: object
    b: object


class RequestStream:
    """Deterministic inputs of one workload from the workload seed."""

    def __init__(self, name: str, seed: int, np, random_with_condition):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self._np = np
        self._random_with_condition = random_with_condition
        self._matrix = (-1, None)

    def _seed(self, i: int) -> int:
        return WINDOW_SEED if i < self.spec.window else self.seed

    def _kappa_eps(self, i: int) -> tuple[float, float]:
        if self.name == "oracle_n32":
            return 10.0, (1e-2, 1e-3, 1e-4)[i % 3]
        if self.name == "qsvt_n16":
            return 10.0, (1e-2, 1e-3)[i % 2]
        if self.name == "qsvt_rhs_n32":
            return 10.0, 1e-2
        # large_kappa: log-uniform on [100, 300], stratified so each cycle
        # holds one kappa per stratum; the stratum offset moves from cycle to
        # cycle, so no two requests share (kappa, eps').
        cycle, slot = divmod(i, self.spec.cycle)
        order = self._np.random.default_rng([self._seed(i), cycle, 2]).permutation(self.spec.cycle)
        offset = (0.5 + cycle * GOLDEN) % 1.0
        u = (order[slot] + offset) / self.spec.cycle
        kappa = 100.0 * 3.0**u
        return kappa, 0.4 / kappa

    def request(self, i: int) -> Request:
        np = self._np
        matrix = i // self.spec.rhs_per_matrix
        kappa, eps_l = self._kappa_eps(i)
        if self._matrix[0] != matrix:
            mseed = int(np.random.SeedSequence([self._seed(i), matrix, 0]).generate_state(1)[0])
            self._matrix = (matrix, self._random_with_condition(self.spec.n, kappa, mseed))
        b = np.random.default_rng([self._seed(i), i, 1]).standard_normal(self.spec.n)
        return Request(matrix, kappa, eps_l, self._matrix[1], b)


def gate(np, req: Request, x, trace, contraction_check) -> str | None:
    """Per-solve correctness check; returns the reason for a failure."""
    if not trace.converged:
        return "not converged"
    b_norm = np.linalg.norm(req.b)
    omega = float(np.linalg.norm(req.b - req.a @ x) / b_norm)
    if not omega <= EPS_TARGET * (1.0 + 1e-6):
        return f"residual {omega:.3e} above {EPS_TARGET:.0e}"
    x_ref = np.linalg.solve(req.a, req.b)
    forward = float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))
    # kappa * omega bounds the forward error; the reference solve itself is
    # off by up to ~kappa * n * machine epsilon.
    allowed = req.kappa * (omega + req.a.shape[0] * np.finfo(float).eps)
    if not forward <= allowed:
        return f"forward error {forward:.3e} above kappa*omega {allowed:.3e}"
    bound = math.ceil(math.log(EPS_TARGET) / math.log(req.eps_l * req.kappa))
    if trace.iterations > bound:
        return f"{trace.iterations} iterations above the bound {bound}"
    check = contraction_check(trace, req.kappa, req.eps_l)
    if not check.passed:
        return f"contraction ratio {check.worst_ratio:.3f} fails"
    return None


def reference_ms_per_rep(reps: int, matrix=None) -> float:
    """Time per repetition of fixed work that does not touch qsvt_refine:
    interpreter work, plus small matrix-vector products when ``matrix``
    (a 16 x 16 numpy array) is given."""
    start = time.perf_counter()
    for _ in range(reps):
        acc = 0.0
        items = []
        for k in range(1200):
            acc += (k * 0.5) ** 0.5
            items.append(k * 7919 % 1201)
        items.sort()
        table = dict.fromkeys(items, acc)
        acc = sum(table.values())
        if matrix is not None:
            v = matrix[0]
            for _ in range(60):
                v = matrix @ v
                v = v / (v @ v) ** 0.5
    return (time.perf_counter() - start) * 1e3 / reps


class HostSpeed:
    """Samples the reference from a SIGALRM handler on the main thread."""

    def __init__(self, rep_ms: float, matrix=None):
        self.rep_ms = rep_ms  # the reference's time per repetition at full speed
        self.matrix = matrix
        self.times: list[float] = []
        self.ms: list[float] = []
        self.spent = 0.0  # seconds spent inside the handler

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        # The first repetition runs with caches full of the library's data and
        # was measured up to 2x slow for that reason alone; time the second.
        reference_ms_per_rep(1, self.matrix)
        self.ms.append(reference_ms_per_rep(1, self.matrix))
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Scale from the host's speed during ``[t0, t1]`` to reference speed."""
        lo = bisect.bisect_left(self.times, t0 - SAMPLE_S)
        hi = bisect.bisect_right(self.times, t1 + SAMPLE_S)
        window = self.ms[lo:hi] or self.ms[max(lo - 1, 0):lo + 1]
        if not window:  # nothing sampled yet: the interval was shorter than SAMPLE_S
            reference_ms_per_rep(1, self.matrix)
            window = [reference_ms_per_rep(1, self.matrix)]
        return self.rep_ms * len(window) / sum(window)


def blas_info(np) -> dict:
    """BLAS library name/version and the thread count it reports."""
    import ctypes
    import glob

    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def _find_error_types(modules) -> tuple[type, ...]:
    found = [ValueError]
    for name in FAILURE_TYPES[:-1]:
        for mod in modules:
            cls = getattr(mod, name, None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                found.append(cls)
                break
    return tuple(found)


def run(args) -> dict:
    setup_host = HostSpeed(SETUP_REP_MS)
    setup_host.start()
    try:
        return _run(args, setup_host)
    finally:
        setup_host.stop()


def _run(args, setup_host: HostSpeed) -> dict:
    t_sampling = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy
    import qsvt_refine
    from qsvt_refine import qsp_phases, qsvt_core, refine

    if not Path(qsvt_refine.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"qsvt_refine imported from {qsvt_refine.__file__}, not the checkout")
    stream = RequestStream(args.workload, args.seed, np, qsvt_refine.random_with_condition)
    spec = stream.spec
    pending = stream.request(args.first)
    setup_s = time.monotonic() - args.t0 - setup_host.spent
    setup_host.stop()
    setup = {"setup_s": setup_s,
             "setup_scaled_s": setup_s * setup_host.factor(t_sampling, time.perf_counter())}
    if args.setup_only:
        return setup
    host = HostSpeed(LOOP_REP_MS, np.random.default_rng(0).standard_normal((16, 16)) / 8.0)

    from tracer import Tracer, installed_wrappers

    tracer = Tracer() if args.trace else None
    missing: list[str] = []
    probs: dict[int, list[float]] = {}
    found_phases: list[tuple[object, object]] = []
    if tracer is not None:
        missing = tracer.install()

        def on_state(_args, _kwargs, result):
            probs.setdefault(tracer.request, []).append(float(result[1]))

        def on_phases(call_args, kwargs, result):
            if tracer.request < spec.window:
                found_phases.append((result, kwargs.get("target", call_args[0] if call_args else None)))

        tracer.observe("qsvt_core.apply_inverse_state", on_state)
        tracer.observe("qsp_phases.find_phases", on_phases)
    elif installed_wrappers():
        raise SystemExit(f"untraced run has tracer wrappers bound: {installed_wrappers()}")

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    errors = _find_error_types((refine, qsp_phases, qsvt_core))
    factory = (refine.spectral_oracle_backend if spec.backend == "spectral_oracle"
               else refine.qsvt_backend)

    latencies: list[float] = []   # ms of completed solves, sampling time taken out
    spans: list[tuple[float, float]] = []  # (start, end) of every request
    solved: list[int] = []        # request index of each entry in `latencies`
    failed: dict[str, int] = {}
    gate_failures: list[str] = []
    counts = {k: [] for k in ("model_cost", "inner_solves", "iterations", "iters_over_bound",
                              "first_omega_over_charged", "contraction_worst", "degree")}
    backend = None
    host.start()
    start = time.perf_counter()
    deadline = start + args.seconds
    i = args.first
    while True:
        req = pending
        if tracer is not None:
            tracer.request = i
        if i % spec.rhs_per_matrix == 0:
            backend = None
        t0, spent0 = time.perf_counter(), host.spent
        try:
            if backend is None:
                with span("refine.backend_build"):
                    backend = factory(req.a, req.eps_l, kappa=req.kappa, seed=req.matrix)
            with span("refine.iterative_refine"):
                x, trace, cost = refine.iterative_refine(req.a, req.b, backend,
                                                         eps_target=EPS_TARGET)
            t1 = time.perf_counter()
            elapsed = t1 - t0 - (host.spent - spent0)
        except errors as exc:
            t1 = time.perf_counter()
            failed[type(exc).__name__] = failed.get(type(exc).__name__, 0) + 1
        else:
            reason = gate(np, req, x, trace, refine.contraction_check)
            if reason is not None:
                failed["gate"] = failed.get("gate", 0) + 1
                gate_failures.append(f"request {i}: {reason}")
            latencies.append(elapsed * 1e3)
            solved.append(i)
            if i < spec.window:
                omegas = trace.scaled_residuals
                charged = req.eps_l * req.kappa
                counts["model_cost"].append(cost.total)
                counts["inner_solves"].append(cost.solves)
                counts["iterations"].append(trace.iterations)
                counts["iters_over_bound"].append(trace.iterations / max(trace.theorem_bound, 1))
                counts["first_omega_over_charged"].append(omegas[0] / charged)
                counts["contraction_worst"].append(
                    refine.contraction_check(trace, req.kappa, req.eps_l).worst_ratio)
                counts["degree"].append(cost.be_calls_per_solve)
        spans.append((t0, t1))
        i += 1
        now = time.perf_counter()
        if now - start > HARD_STOP_S:
            break
        if (i - args.first) % spec.cycle == 0 and i >= spec.window and now >= deadline:
            break
        pending = stream.request(i)
    host.stop()
    # speed[r]: factor that scales request r's times to the reference speed
    speed = [host.factor(t0, t1) for t0, t1 in spans]

    out = dict(setup)
    out.update({
        "first": args.first,
        "attempted": i - args.first,
        "failed": failed,
        "gate_failures": gate_failures[:20],
        "latencies_ms": latencies,
        "scaled_ms": [ms * speed[r - args.first] for ms, r in zip(latencies, solved)],
        "speed": speed,
        "window": spec.window,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(np),
        },
    })
    if tracer is None:
        if installed_wrappers():
            raise SystemExit("tracer wrappers appeared during the untraced run")
        return out

    tracer.uninstall()
    verify = []
    verify_phases = getattr(qsp_phases, "verify_phases", None)
    if verify_phases is not None:
        for phases, target in found_phases:
            try:
                verify.append(float(verify_phases(phases, target)))
            except (TypeError, ValueError, AttributeError):
                pass
    window_ids = set(range(args.first, min(spec.window, i)))
    window_probs = [p for r, ps in probs.items() if r in window_ids for p in ps]
    out["trace"] = {
        "wrapped": tracer.wrapped_layers,
        "missing": missing,
        "restored": not installed_wrappers(),
        "all": {k: list(v) for k, v in tracer.totals(
            weight={args.first + k: f for k, f in enumerate(speed)}).items()},
        "window": {k: list(v) for k, v in tracer.totals(window_ids).items()},
        "success_probs": window_probs,
        "verify_max_err": max(verify) if verify else 0.0,
        "spans": tracer.spans,
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first", type=int, default=0,
                        help="index of the first request; a multiple of the workload's cycle")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
