"""Mixed-precision iterative refinement around a low-accuracy inner solve.

The refinement loop runs in native double precision on the host while
each correction direction comes from a pluggable low-accuracy backend:

* ``qsvt_full``      -- dilation encoding + phase sequence, the honest
                        simulated pipeline;
* ``spectral_oracle`` -- the same inverse polynomial applied through the
                        SVD (ground truth for the circuit path);
* ``noisy_oracle``   -- exact solve plus seeded noise of relative size
                        eps_l, for stress sweeps.

Every backend returns a unit direction; the magnitude is recovered
classically by minimizing ||A (x + mu eta) - b|| over mu. The scaled
residual omega = ||b - A x|| / ||b|| both stops the loop and certifies
the result: omega contracts by at least eps_l * kappa per iteration, so
the iteration count is bounded by ceil(ln eps / ln(eps_l kappa)).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .blockenc import BlockEncoding, dilation_encoding
from .invpoly import ChebyshevSeries, clenshaw_eval, degree_params, \
    enforce_qsvt_bounds, inverse_cheb_series, make_inverse_spec
from .numerics import StateVector, Svd, as_matrix, condition_number, svd, two_norm
from .qsp_phases import PhaseVector, find_phases
from .qsvt_core import apply_inverse_state

__all__ = [
    "SolverBackend",
    "RefinementTrace",
    "CostReport",
    "ContractionResult",
    "DivergenceError",
    "spectral_oracle_backend",
    "noisy_oracle_backend",
    "qsvt_backend",
    "nominal_degree",
    "samples_for_accuracy",
    "solve_once",
    "denormalize",
    "iterative_refine",
    "contraction_check",
]

_NOISE_SAFETY = 0.95  # noisy-oracle perturbation stays strictly inside eps_l
MIN_EPS_TARGET = 1e-14  # double-precision residuals leave no headroom below this
_SERIES_CACHE_SIZE = 16  # distinct (kappa, eps') series kept by _bounded_inverse_series


class DivergenceError(RuntimeError):
    """Scaled residual failed to decrease for three consecutive steps."""

    def __init__(self, trace: "RefinementTrace"):
        self.trace = trace
        super().__init__(
            "iterative refinement diverged: scaled residual non-decreasing "
            f"for 3 consecutive iterations (last omega {trace.scaled_residuals[-1]:.3e})"
        )


@dataclass(frozen=True)
class SolverBackend:
    """One low-accuracy solver instance bound to a specific matrix.

    ``shots=None`` means exact readout; an integer turns on the
    shot-noise surrogate (seeded Gaussian direction of norm
    1/sqrt(shots), then renormalization). The surrogate stands in for
    physical sampling, whose sign recovery the source material leaves
    unspecified; outputs are flagged accordingly in bench metadata.
    """

    kind: str  # "qsvt_full" | "spectral_oracle" | "noisy_oracle"
    eps_l: float
    kappa: float
    degree: int
    shots: Optional[int] = None
    series: Optional[ChebyshevSeries] = None
    factorization: Optional[Svd] = None          # SVD of the solve matrix
    oracle_diag: Optional[np.ndarray] = None     # P(sigma_i), precomputed
    encoding: Optional[BlockEncoding] = None     # block-encoding of A^H / ||A||
    phases: Optional[PhaseVector] = None
    matrix: Optional[np.ndarray] = None          # noisy_oracle exact path
    rng: Optional[np.random.Generator] = None


def samples_for_accuracy(eps: float) -> int:
    """Sampling cost model: ceil(1 / eps^2) runs per solve."""
    if eps <= 0.0:
        return 1
    return math.ceil(1.0 / eps**2)


def nominal_degree(kappa: float, eps_prime: float) -> int:
    """Degree of the inverse series at polynomial accuracy ``eps_prime``."""
    b, cap = degree_params(kappa, eps_prime)
    return 2 * min(cap, b - 1) + 1


@functools.lru_cache(maxsize=_SERIES_CACHE_SIZE)
def _bounded_inverse_series(kappa: float, eps_prime: float) -> ChebyshevSeries:
    """Bounded inverse series at accuracy eps' (callers pass eps_l / kappa).

    It depends on nothing else, so backends with the same (kappa, eps')
    share one memoized, read-only series object."""
    series = inverse_cheb_series(make_inverse_spec(kappa, eps_prime))
    bounded, _ = enforce_qsvt_bounds(series)
    bounded.coefficients.flags.writeable = False
    return bounded


def spectral_oracle_backend(a, eps_l: float, kappa: Optional[float] = None,
                            seed: int = 0, shots: Optional[int] = None) -> SolverBackend:
    """Inverse polynomial applied via the SVD, no circuits."""
    a = as_matrix(a)
    fac = svd(a)
    if kappa is None:
        kappa = float(fac.singular_values[0] / fac.singular_values[-1])
    series = _bounded_inverse_series(kappa, eps_l / kappa)
    norm = float(fac.singular_values[0])
    fac = Svd(u=fac.u, singular_values=fac.singular_values / norm, v=fac.v)
    return SolverBackend(
        kind="spectral_oracle",
        eps_l=eps_l,
        kappa=kappa,
        degree=series.degree,
        shots=shots,
        series=series,
        factorization=fac,
        oracle_diag=clenshaw_eval(series, fac.singular_values),
        rng=np.random.default_rng([seed, 0x5EC7]),
    )


def noisy_oracle_backend(a, eps_l: float, kappa: Optional[float] = None,
                         seed: int = 0, shots: Optional[int] = None) -> SolverBackend:
    """Exact solve perturbed by seeded noise of relative size eps_l."""
    a = as_matrix(a)
    if kappa is None:
        kappa = condition_number(a)
    degree = 1  # cost-model degree; no polynomial exists outside (0, 1)
    if 0.0 < eps_l / kappa < 1.0:
        degree = nominal_degree(kappa, eps_l / kappa)
    return SolverBackend(
        kind="noisy_oracle",
        eps_l=eps_l,
        kappa=kappa,
        degree=degree,
        shots=shots,
        matrix=a.astype(float) if not np.iscomplexobj(a) else a,
        rng=np.random.default_rng([seed, 0x0153]),
    )


def qsvt_backend(a, eps_l: float, kappa: Optional[float] = None, seed: int = 0,
                 shots: Optional[int] = None) -> SolverBackend:
    """Full simulated pipeline: scale to unit norm, dilation-encode A^H,
    find phases for the bounded inverse series."""
    a = as_matrix(a)
    fac = svd(a)
    norm = float(fac.singular_values[0])
    if kappa is None:
        kappa = float(fac.singular_values[0] / fac.singular_values[-1])
    series = _bounded_inverse_series(kappa, eps_l / kappa)
    phases = find_phases(series)
    encoding = dilation_encoding((a / norm).conj().T, alpha=1.0)
    return SolverBackend(
        kind="qsvt_full",
        eps_l=eps_l,
        kappa=kappa,
        degree=series.degree,
        shots=shots,
        series=series,
        encoding=encoding,
        phases=phases,
        rng=np.random.default_rng([seed, 0x95F7]),
    )


def _noisy_direction(backend: SolverBackend, rhs_hat: np.ndarray) -> np.ndarray:
    """Exact solve plus noise, shrunk until the de-normalized solution is
    guaranteed within eps_l relative error (the backend contract is "by
    construction", and magnitude recovery optimizes the residual, which
    can amplify a raw direction error)."""
    a = backend.matrix
    x = np.linalg.solve(a, rhs_hat)
    nx = np.linalg.norm(x)
    eta = x / nx
    if backend.eps_l <= 0.0:
        return eta
    g = backend.rng.standard_normal(eta.size)
    g /= np.linalg.norm(g)
    magnitude = _NOISE_SAFETY * backend.eps_l
    for _ in range(60):
        cand = eta + magnitude * g
        cand /= np.linalg.norm(cand)
        a_cand = a @ cand
        mu = float(np.vdot(a_cand, rhs_hat).real / np.vdot(a_cand, a_cand).real)
        if np.linalg.norm(mu * cand - x) <= _NOISE_SAFETY * backend.eps_l * nx:
            return cand
        magnitude *= 0.5
    return eta


def _direction(backend: SolverBackend, rhs_hat: np.ndarray) -> np.ndarray:
    if backend.kind == "spectral_oracle":
        fac = backend.factorization
        raw = (fac.v * backend.oracle_diag) @ (fac.u.conj().T @ rhs_hat)
        return raw / np.linalg.norm(raw)
    if backend.kind == "noisy_oracle":
        return _noisy_direction(backend, rhs_hat)
    if backend.kind == "qsvt_full":
        out, _prob = apply_inverse_state(
            backend.encoding, backend.phases, backend.series, StateVector(rhs_hat)
        )
        return out.amplitudes.real
    raise ValueError(f"unknown backend kind {backend.kind!r}")


def solve_once(backend: SolverBackend, a, rhs) -> tuple[np.ndarray, np.ndarray]:
    """One low-accuracy solve: normalize, run the backend, apply readout.

    Returns ``(eta, readout)``: the backend's unit direction and the
    direction the classical side actually receives (identical for exact
    readout, shot-perturbed otherwise).
    """
    rhs = np.asarray(rhs)
    nrm = two_norm(rhs)
    if nrm == 0.0:
        raise ValueError("rhs must be nonzero")
    eta = _direction(backend, rhs / nrm)
    if backend.shots is None:
        return eta, eta
    g = backend.rng.standard_normal(eta.size)
    readout = eta + g / (np.linalg.norm(g) * math.sqrt(backend.shots))
    return eta, readout / np.linalg.norm(readout)


def denormalize(a, x_current, eta, b, method: str = "closed_form") -> float:
    """Magnitude recovery: minimize ||A (x + mu eta) - b|| over real mu.

    The objective is an exact quadratic, so the default path is the
    closed form mu = <A eta, b - A x> / ||A eta||^2; ``method="brent"``
    runs a bracketed scalar minimization instead, kept as an independent
    cross-check of the closed form. Function-value minimization alone
    localizes a quadratic minimum only to ~sqrt(machine eps), so the
    Brent result is refined by one parabolic-vertex fit on a
    well-separated stencil (still pure function evaluations).
    """
    a = as_matrix(a)
    a_eta = a @ np.asarray(eta)
    gram = float(np.vdot(a_eta, a_eta).real)
    if gram <= 1e-28:
        raise ValueError("degenerate direction: ||A eta|| ~ 0")
    residual = np.asarray(b) - a @ np.asarray(x_current)
    if method == "closed_form":
        return float(np.vdot(a_eta, residual).real / gram)
    if method == "brent":
        def objective(mu: float) -> float:
            diff = residual - mu * a_eta
            return float(np.vdot(diff, diff).real)

        located = float(
            minimize_scalar(objective, method="brent", options={"xtol": 1e-10}).x
        )
        h = max(1.0, abs(located)) * 1e-3
        below, mid, above = objective(located - h), objective(located), objective(located + h)
        curvature = below - 2.0 * mid + above
        if curvature <= 0.0:
            return located
        return located + 0.5 * h * (below - above) / curvature
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class RefinementTrace:
    """Everything observed during one refinement run."""

    scaled_residuals: list[float]
    mu_values: list[float]
    iterations: int
    converged: bool
    be_calls_total: int
    samples_total: int
    theorem_bound: int
    contraction_hypothesis_ok: bool = True

    def to_dict(self) -> dict:
        return {
            "scaled_residuals": list(self.scaled_residuals),
            "mu_values": list(self.mu_values),
            "iterations": self.iterations,
            "converged": self.converged,
            "be_calls_total": self.be_calls_total,
            "samples_total": self.samples_total,
            "theorem_bound": self.theorem_bound,
            "contraction_hypothesis_ok": self.contraction_hypothesis_ok,
        }


@dataclass(frozen=True)
class CostReport:
    """Table-style cost accounting: total = solves x degree x samples."""

    solves: int
    be_calls_per_solve: int
    samples_per_solve: int
    total: int
    comparison_direct: Optional["CostReport"] = None

    def __post_init__(self):
        if self.total != self.solves * self.be_calls_per_solve * self.samples_per_solve:
            raise ValueError("cost total is not the product of its factors")

    def to_dict(self) -> dict:
        out = {
            "solves": self.solves,
            "be_calls_per_solve": self.be_calls_per_solve,
            "samples_per_solve": self.samples_per_solve,
            "total": self.total,
        }
        if self.comparison_direct is not None:
            out["comparison_direct"] = self.comparison_direct.to_dict()
        return out


def theorem_iteration_bound(eps_target: float, eps_l: float, kappa: float) -> int:
    """ceil(ln eps / ln(eps_l kappa)), the refinement iteration bound."""
    rate = eps_l * kappa
    if not 0.0 < rate < 1.0:
        return 0
    return math.ceil(math.log(eps_target) / math.log(rate))


def direct_cost(kappa: float, eps_target: float) -> CostReport:
    """Closed-form cost of one high-precision solve at accuracy eps."""
    degree = nominal_degree(kappa, eps_target / kappa)
    samples = samples_for_accuracy(eps_target)
    return CostReport(
        solves=1,
        be_calls_per_solve=degree,
        samples_per_solve=samples,
        total=degree * samples,
    )


def iterative_refine(a, b, backend: SolverBackend, eps_target: float,
                     max_iter: int = 100) -> tuple[np.ndarray, RefinementTrace, CostReport]:
    """Refine low-accuracy solves until the scaled residual meets eps.

    First solve produces x0; then repeat: residual in working precision,
    correction direction from the backend, magnitude from ``denormalize``,
    update. Stops at omega <= eps_target or ``max_iter``; three
    consecutive non-decreasing residuals raise ``DivergenceError``
    carrying the partial trace.
    """
    a = as_matrix(a)
    b = np.asarray(b, dtype=float if not np.iscomplexobj(b) else complex)
    if eps_target < MIN_EPS_TARGET:
        raise ValueError(
            f"eps_target below {MIN_EPS_TARGET:g}: double-precision residuals leave "
            "no headroom (working precision must stay well under the target)"
        )
    hypothesis_ok = backend.eps_l * backend.kappa < 1.0
    if not hypothesis_ok:
        warnings.warn(
            f"eps_l * kappa = {backend.eps_l * backend.kappa:.3g} >= 1: convergence "
            "is not guaranteed; proceeding",
            stacklevel=2,
        )
    bound = theorem_iteration_bound(eps_target, backend.eps_l, backend.kappa)
    b_norm = two_norm(b)
    if b_norm == 0.0:
        raise ValueError("b must be nonzero")

    omegas: list[float] = []
    mus: list[float] = []

    def make_trace(converged: bool) -> RefinementTrace:
        solves = len(mus)
        return RefinementTrace(
            scaled_residuals=omegas,
            mu_values=mus,
            iterations=len(omegas) - 1,
            converged=converged,
            be_calls_total=solves * backend.degree,
            samples_total=solves * samples_for_accuracy(backend.eps_l),
            theorem_bound=bound,
            contraction_hypothesis_ok=hypothesis_ok,
        )

    x = np.zeros_like(b)
    stall = 0
    while True:
        residual = b - a @ x
        _eta, readout = solve_once(backend, a, residual)
        mu = denormalize(a, x, readout, b)
        x = x + mu * readout
        mus.append(mu)
        omega = two_norm(b - a @ x) / b_norm
        omegas.append(omega)
        if omega <= eps_target:
            break
        if len(omegas) >= 2 and omega >= omegas[-2]:
            stall += 1
            if stall >= 3:
                raise DivergenceError(make_trace(False))
        else:
            stall = 0
        if len(omegas) - 1 >= max_iter:
            break

    trace = make_trace(omegas[-1] <= eps_target)
    solves = len(mus)
    samples = samples_for_accuracy(backend.eps_l)
    cost = CostReport(
        solves=solves,
        be_calls_per_solve=backend.degree,
        samples_per_solve=samples,
        total=solves * backend.degree * samples,
        comparison_direct=direct_cost(backend.kappa, eps_target),
    )
    return x, trace, cost


@dataclass(frozen=True)
class ContractionResult:
    passed: bool
    worst_ratio: float


def contraction_check(trace: RefinementTrace, kappa: float, eps_l: float,
                      slack: float = 0.10) -> ContractionResult:
    """Verify omega_i <= (eps_l kappa)^(i+1) (1 + slack) for the trace.

    The 10% default slack absorbs readout noise and finite-sample
    wiggle. Returns the pass flag and the worst observed ratio.
    """
    rate = eps_l * kappa
    worst = 0.0
    for i, omega in enumerate(trace.scaled_residuals):
        bound = rate ** (i + 1)
        if bound == 0.0:
            if omega > 0.0:
                worst = math.inf
            continue
        worst = max(worst, omega / bound)
    return ContractionResult(passed=worst <= 1.0 + slack, worst_ratio=worst)
