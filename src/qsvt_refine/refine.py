"""Mixed-precision iterative refinement around a low-accuracy inner solve.

The refinement loop runs in native double precision on the host. Each
correction direction comes from a backend, a frozen ``SolverBackend``
subtype bound to one matrix, whose one method ``direction(rhs_hat)``
maps a unit right-hand side to a unit direction with relative error at
most eps_l; the loop needs nothing else from it:

* ``QsvtBackend`` (``qsvt_full``) -- dilation encoding + phase sequence,
  the honest simulated pipeline; real inputs only. The bounded inverse
  series and its phase factors depend only on (kappa, eps' = eps_l /
  kappa), so each is found once per process and shared, read-only, by
  every backend with that key (the last 16 keys are kept);
* ``SpectralOracleBackend`` (``spectral_oracle``) -- the same inverse
  polynomial applied through the SVD (ground truth for the circuit path);
* ``NoisyOracleBackend`` (``noisy_oracle``) -- exact solve plus seeded
  noise of relative size eps_l, for stress sweeps.

The magnitude is recovered classically by minimizing ||A (x + mu eta) - b||
over mu. The scaled residual omega = ||b - A x|| / ||b|| both stops the
loop and certifies the result: omega contracts by at least eps_l * kappa
per iteration, so the iteration count is bounded by
ceil(ln eps / ln(eps_l kappa)).
"""

from __future__ import annotations

import functools
import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from decimal import ROUND_CEILING, Context
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .blockenc import BlockEncoding, dilation_encoding
from .invpoly import ChebyshevSeries, cheb_eval, degree_params, \
    enforce_qsvt_bounds, inverse_cheb_series, make_inverse_spec
from .numerics import StateVector, as_matrix, condition_number, svd, two_norm
from .qsp_phases import PhaseVector, find_phases
from .qsvt_core import apply_inverse_state

__all__ = [
    "SolverBackend",
    "SpectralOracleBackend",
    "NoisyOracleBackend",
    "QsvtBackend",
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
_MEMO_SIZE = 16  # distinct (kappa, eps') kept by each per-key memo


class DivergenceError(RuntimeError):
    """Scaled residual failed to decrease for three consecutive steps."""

    def __init__(self, trace: "RefinementTrace"):
        self.trace = trace
        super().__init__(
            "iterative refinement diverged: scaled residual non-decreasing "
            f"for 3 consecutive iterations (last omega {trace.scaled_residuals[-1]:.3e})"
        )


@dataclass(frozen=True)
class SolverBackend(ABC):
    """One low-accuracy solver bound to a specific matrix.

    A subtype holds what its solve needs and implements ``direction``.
    ``shots=None`` means exact readout; an integer turns on the
    shot-noise surrogate (seeded Gaussian direction of norm
    1/sqrt(shots), then renormalization). The surrogate stands in for
    physical sampling, whose sign recovery the source material leaves
    unspecified; outputs are flagged accordingly in bench metadata.
    """

    eps_l: float
    kappa: float
    degree: int
    shots: Optional[int]
    rng: np.random.Generator

    @abstractmethod
    def direction(self, rhs_hat: np.ndarray) -> np.ndarray:
        """Unit solution direction for the unit right-hand side ``rhs_hat``."""


@dataclass(frozen=True)
class SpectralOracleBackend(SolverBackend):
    """The bounded inverse series applied through the SVD A = U S V^H;
    ``diag`` holds P(sigma_i / sigma_max)."""

    series: ChebyshevSeries
    u: np.ndarray
    v: np.ndarray
    diag: np.ndarray

    def direction(self, rhs_hat: np.ndarray) -> np.ndarray:
        raw = (self.v * self.diag) @ (self.u.conj().T @ rhs_hat)
        return raw / np.linalg.norm(raw)


@dataclass(frozen=True)
class NoisyOracleBackend(SolverBackend):
    """Exact solve with ``matrix`` plus seeded noise of relative size eps_l."""

    matrix: np.ndarray

    def direction(self, rhs_hat: np.ndarray) -> np.ndarray:
        """Exact solve plus noise, shrunk until the de-normalized solution is
        guaranteed within eps_l relative error (the backend contract is "by
        construction", and magnitude recovery optimizes the residual, which
        can amplify a raw direction error)."""
        a = self.matrix
        x = np.linalg.solve(a, rhs_hat)
        nx = np.linalg.norm(x)
        eta = x / nx
        if self.eps_l <= 0.0:
            return eta
        g = self.rng.standard_normal(eta.size)
        g /= np.linalg.norm(g)
        magnitude = _NOISE_SAFETY * self.eps_l
        for _ in range(60):
            cand = eta + magnitude * g
            cand /= np.linalg.norm(cand)
            a_cand = a @ cand
            mu = float(np.vdot(a_cand, rhs_hat).real / np.vdot(a_cand, a_cand).real)
            if np.linalg.norm(mu * cand - x) <= _NOISE_SAFETY * self.eps_l * nx:
                return cand
            magnitude *= 0.5
        return eta


@dataclass(frozen=True)
class QsvtBackend(SolverBackend):
    """The phase sequence simulated on ``encoding`` (a dilation of
    A^H / ||A||); real inputs only."""

    series: ChebyshevSeries
    encoding: BlockEncoding
    phases: PhaseVector

    def direction(self, rhs_hat: np.ndarray) -> np.ndarray:
        if np.any(np.imag(rhs_hat)):
            raise ValueError("qsvt_full is real-only: the right-hand side is complex")
        out, _prob = apply_inverse_state(self.encoding, self.phases, self.series,
                                         StateVector(rhs_hat))
        return out.amplitudes.real


def samples_for_accuracy(eps: float) -> int:
    """Sampling cost model: ceil(1 / eps^2) runs per solve."""
    if eps <= 0.0:
        return 1
    return math.ceil(1.0 / eps**2)


def nominal_degree(kappa: float, eps_prime: float) -> int:
    """Degree of the inverse series at polynomial accuracy ``eps_prime``."""
    b, cap = degree_params(kappa, eps_prime)
    return 2 * min(cap, b - 1) + 1


def _measured_kappa(singular_values: np.ndarray) -> float:
    """sigma_max / sigma_min rounded up to 12 significant digits, so that
    matrices of one nominal kappa share the memo keys and [1/kappa, 1]
    still covers every singular value."""
    ratio = float(singular_values[0] / singular_values[-1])
    return float(Context(prec=12, rounding=ROUND_CEILING).create_decimal(ratio))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _bounded_inverse_series(kappa: float, eps_prime: float) -> ChebyshevSeries:
    """Bounded inverse series at accuracy eps' (callers pass eps_l / kappa).

    It depends on nothing else, so backends with the same (kappa, eps')
    share one memoized, read-only series object."""
    series = inverse_cheb_series(make_inverse_spec(kappa, eps_prime))
    bounded, _ = enforce_qsvt_bounds(series)
    bounded.coefficients.flags.writeable = False
    return bounded


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _inverse_phases(kappa: float, eps_prime: float) -> PhaseVector:
    """Phase factors of ``_bounded_inverse_series(kappa, eps')``.

    A classical precomputation that depends on the series alone, so QSVT
    backends with the same (kappa, eps') share one memoized, read-only
    phase vector. A ``PhaseFindingError`` is raised, not cached: the next
    call with that key tries again."""
    phases = find_phases(_bounded_inverse_series(kappa, eps_prime))
    phases.phases.flags.writeable = False
    return phases


def spectral_oracle_backend(a, eps_l: float, kappa: Optional[float] = None,
                            seed: int = 0, shots: Optional[int] = None) -> SpectralOracleBackend:
    """Inverse polynomial applied via the SVD, no circuits."""
    fac = svd(as_matrix(a))
    sv = fac.singular_values
    if kappa is None:
        kappa = _measured_kappa(sv)
    series = _bounded_inverse_series(kappa, eps_l / kappa)
    return SpectralOracleBackend(
        eps_l=eps_l, kappa=kappa, degree=series.degree, shots=shots,
        rng=np.random.default_rng([seed, 0x5EC7]),
        series=series, u=fac.u, v=fac.v, diag=cheb_eval(series, sv / sv[0]),
    )


def noisy_oracle_backend(a, eps_l: float, kappa: Optional[float] = None,
                         seed: int = 0, shots: Optional[int] = None) -> NoisyOracleBackend:
    """Exact solve perturbed by seeded noise of relative size eps_l."""
    a = as_matrix(a)
    if kappa is None:
        kappa = condition_number(a)
    degree = 1  # cost-model degree; no polynomial exists outside (0, 1)
    if 0.0 < eps_l / kappa < 1.0:
        degree = nominal_degree(kappa, eps_l / kappa)
    return NoisyOracleBackend(
        eps_l=eps_l, kappa=kappa, degree=degree, shots=shots,
        rng=np.random.default_rng([seed, 0x0153]),
        matrix=a.astype(float) if not np.iscomplexobj(a) else a,
    )


def qsvt_backend(a, eps_l: float, kappa: Optional[float] = None, seed: int = 0,
                 shots: Optional[int] = None) -> QsvtBackend:
    """Full simulated pipeline: scale to unit norm, dilation-encode A^H,
    take the memoized phases of the bounded inverse series. Real matrices
    only."""
    a = as_matrix(a)
    if np.any(np.imag(a)):
        raise ValueError("qsvt_full is real-only: the matrix has a nonzero imaginary part")
    fac = svd(a)
    norm = float(fac.singular_values[0])
    if kappa is None:
        kappa = _measured_kappa(fac.singular_values)
    eps_prime = eps_l / kappa
    series = _bounded_inverse_series(kappa, eps_prime)
    return QsvtBackend(
        eps_l=eps_l, kappa=kappa, degree=series.degree, shots=shots,
        rng=np.random.default_rng([seed, 0x95F7]),
        series=series, phases=_inverse_phases(kappa, eps_prime),
        encoding=dilation_encoding((a / norm).conj().T, alpha=1.0),
    )


def solve_once(backend: SolverBackend, rhs) -> tuple[np.ndarray, np.ndarray]:
    """One low-accuracy solve: normalize, run the backend, apply readout.

    Returns ``(eta, readout)``: the backend's unit direction and the
    direction the classical side actually receives (identical for exact
    readout, shot-perturbed otherwise).
    """
    rhs = np.asarray(rhs)
    nrm = two_norm(rhs)
    if nrm == 0.0:
        raise ValueError("rhs must be nonzero")
    eta = backend.direction(rhs / nrm)
    if backend.shots is None:
        return eta, eta
    g = backend.rng.standard_normal(eta.size)
    readout = eta + g / (np.linalg.norm(g) * math.sqrt(backend.shots))
    return eta, readout / np.linalg.norm(readout)


def denormalize(a_eta, residual, method: str = "closed_form") -> float:
    """Magnitude recovery: minimize ||A (x + mu eta) - b|| over real mu,
    given ``a_eta`` = A eta and ``residual`` = b - A x.

    The objective is an exact quadratic, so the default path is the
    closed form mu = <A eta, b - A x> / ||A eta||^2; ``method="brent"``
    runs a bracketed scalar minimization instead, kept as an independent
    cross-check of the closed form. Function-value minimization alone
    localizes a quadratic minimum only to ~sqrt(machine eps), so the
    Brent result is refined by one parabolic-vertex fit on a
    well-separated stencil (still pure function evaluations).
    """
    a_eta, residual = np.asarray(a_eta), np.asarray(residual)
    gram = float(np.vdot(a_eta, a_eta).real)
    if gram <= 1e-28:
        raise ValueError("degenerate direction: ||A eta|| ~ 0")
    if method == "closed_form":
        return float(np.vdot(a_eta, residual).real / gram)
    if method == "brent":
        def objective(mu: float) -> float:
            diff = residual - mu * a_eta
            return float(np.vdot(diff, diff).real)

        located = float(
            minimize_scalar(objective, method="brent", options={"xtol": 1e-10}).x
        )
        mid = objective(located)
        # the three values carry rounding ~eps * objective, which moves the
        # vertex by that over gram * h: widen the stencil until its rise
        # gram * h^2 reaches the floor value, where that shift is smallest
        h = max(max(1.0, abs(located)) * 1e-3, math.sqrt(mid / gram))
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
    theorem_bound: int
    contraction_hypothesis_ok: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


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
    update. Each step costs two products with A: A eta for the magnitude
    and A x for the next residual, which also gives omega. Stops at
    omega <= eps_target or ``max_iter``; three consecutive non-decreasing
    residuals raise ``DivergenceError`` carrying the partial trace.
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
        return RefinementTrace(
            scaled_residuals=omegas,
            mu_values=mus,
            iterations=len(omegas) - 1,
            converged=converged,
            theorem_bound=bound,
            contraction_hypothesis_ok=hypothesis_ok,
        )

    x = np.zeros_like(b)
    residual = b  # b - A x at x = 0
    stall = 0
    while True:
        _eta, readout = solve_once(backend, residual)
        mu = denormalize(a @ readout, residual)
        x = x + mu * readout
        mus.append(mu)
        residual = b - a @ x
        omega = two_norm(residual) / b_norm
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
