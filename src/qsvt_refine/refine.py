"""Mixed-precision iterative refinement around a low-accuracy inner solve.

The refinement loop runs in native double precision on the host. Each
correction direction comes from a backend, a frozen ``SolverBackend``
subtype bound to one matrix, whose one method ``direction(rhs_hat)``
maps a unit right-hand side to a unit direction with relative error at
most eps_l; the loop needs nothing else from it:

* ``QsvtBackend`` (``qsvt_full``) -- the phase sequence on the dilation
  encoding of A^H / sigma_max, the honest simulated pipeline; real inputs
  only (the real part of one sequence is the +-Phi average only for a
  real encoding and b). The sequence acts on each singular pair of that
  dilation as the 2x2 signal product, so the factory reads the key's Re p
  at the singular values of A (``inverse_block``): one SVD and no 2N x 2N
  matrix per build, and each inner solve is one product with the real
  N x N ``block`` (simulator time only: the model still charges
  ``degree`` calls per inner solve);
* ``SpectralOracleBackend`` (``spectral_oracle``) -- the same inverse
  polynomial P applied through the SVD (ground truth for the circuit
  path), kept as the N x N ``operator`` V P(S / sigma_max) U^H of the
  unscaled series (``singular_value_operator``);
* ``NoisyOracleBackend`` (``noisy_oracle``) -- exact solve plus seeded
  noise of relative size eps_l, for stress sweeps.

Each backend reports the ``size`` N it was built for, which
``iterative_refine`` checks. A factory takes the caller's kappa, for which
the series is built, and the backend derives the rest: its charged
``degree`` and a shot readout's count. Every factory enters through
``_factorize``, which takes A's one SVD and rejects a matrix that is not
square, is empty or is numerically singular, and a kappa below its
sigma_max / sigma_min, before any memo is touched. The inverse series
and its phase factors, each with an M-grid evaluator (the series' own
``evaluate``; the Re p the sequence realizes), depend only on (kappa,
eps' = eps_l / kappa); two memos of 16 keys own them. A QSVT circuit
needs |P| <= 1, so phase finding runs the bound check (one 16M-grid scan
certifying a bound on max|P|, rescaled to at most 0.9) on the memoized
series, once per key. The spectral operator keeps the unscaled series:
raw / ||raw|| does not see a positive factor on P, so a spectral build
runs no bound check.

The magnitude is recovered classically by minimizing ||A (x + mu eta) - b||
over mu. The scaled residual omega = ||b - A x|| / ||b|| both stops the
loop and certifies the result: omega contracts by at least eps_l * kappa
per iteration, so the iteration count is bounded by
ceil(ln eps / ln(eps_l kappa)).
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .invpoly import ChebyshevSeries, bound_series, degree_params, inverse_cheb_series
from .numerics import require_power_of_two, singular_value_ratio, svd, two_norm
from .qsp_phases import find_phases
from .qsvt_core import (apply_inverse_state, inverse_block, sequence_evaluator,
                        singular_value_operator)

__all__ = [
    "SolverBackend",
    "SpectralOracleBackend",
    "NoisyOracleBackend",
    "QsvtBackend",
    "RefinementTrace",
    "CostReport",
    "ContractionResult",
    "DivergenceError",
    "MIN_EPS_TARGET",
    "spectral_oracle_backend",
    "noisy_oracle_backend",
    "qsvt_backend",
    "nominal_degree",
    "samples_for_accuracy",
    "theorem_iteration_bound",
    "direct_cost",
    "solve_once",
    "denormalize",
    "iterative_refine",
    "contraction_check",
]

_NOISE_SAFETY = 0.95  # noisy-oracle perturbation stays strictly inside eps_l
MIN_EPS_TARGET = 1e-14  # double-precision residuals leave no headroom below this
_MEMO_SIZE = 16  # distinct (kappa, eps') kept by each per-key memo
_CONTRACTION_SLACK = 0.10  # absorbs readout noise and finite-sample wiggle
# A passed kappa may sit below the measured ratio by max(1e-9, 8 u ratio), u = 2^-53:
# an SVD gives sigma_min to about u sigma_max, which put random_with_condition's
# ratio up to 1.25 u kappa above its kappa (N = 2-128, kappa 1e4-1e13).
_KAPPA_SLACK = 1e-9


class DivergenceError(RuntimeError):
    """Scaled residual failed to decrease for three consecutive steps."""

    def __init__(self, trace: "RefinementTrace"):
        self.trace = trace
        super().__init__(
            "iterative refinement diverged: scaled residual non-decreasing "
            f"for 3 consecutive iterations (last omega {trace.scaled_residuals[-1]:.3e})"
        )


@dataclass(frozen=True, kw_only=True)
class SolverBackend(ABC):
    """One low-accuracy solver bound to a specific matrix.

    A subtype holds what its solve needs and implements ``direction``.
    ``kappa`` must be finite and >= 1, ``eps_l`` finite and >= 0 (0 is the
    noisy oracle's exact solve) with a finite ``samples_for_accuracy`` cost,
    and ``shot_readout`` a bool, else ``ValueError``. ``degree``, the calls
    charged per solve, is derived: ``nominal_degree(kappa, eps_l / kappa)``
    as ``direct_cost`` charges, 1 where that eps' is outside (0, 1). Shot
    readout adds a seeded Gaussian direction of norm
    1/sqrt(samples_for_accuracy(eps_l)) and renormalizes, a surrogate for
    physical sampling whose sign recovery is left unmodeled (bench metadata
    flags it); ``rng`` draws that noise and the noisy oracle's, else None.
    """

    eps_l: float
    kappa: float
    rng: Optional[np.random.Generator]
    shot_readout: bool = False
    degree: int = field(init=False)

    def __post_init__(self):
        _check_backend_inputs(self.kappa, self.eps_l, self.shot_readout)
        eps_prime = self.eps_l / self.kappa
        object.__setattr__(self, "degree", nominal_degree(self.kappa, eps_prime)
                           if 0.0 < eps_prime < 1.0 else 1)

    @property
    @abstractmethod
    def size(self) -> int:
        """The N of the N x N matrix the backend was built for."""

    @abstractmethod
    def direction(self, rhs_hat: np.ndarray) -> np.ndarray:
        """Unit solution direction for the unit right-hand side ``rhs_hat``."""


@dataclass(frozen=True)
class SpectralOracleBackend(SolverBackend):
    """The inverse series P applied through the SVD A = U S V^H, kept as
    the read-only N x N ``operator`` V P(S / sigma_max) U^H. P is the key's
    unscaled series, not the bounded one a QSVT circuit needs: ``direction``
    returns raw / ||raw||, which a positive factor on P does not change, so
    the bound check's rescale factor would cancel."""

    operator: np.ndarray

    @property
    def size(self) -> int:
        return self.operator.shape[1]

    def direction(self, rhs_hat: np.ndarray) -> np.ndarray:
        raw = self.operator @ rhs_hat
        return raw / two_norm(raw)


@dataclass(frozen=True)
class NoisyOracleBackend(SolverBackend):
    """Exact solve with ``matrix`` plus seeded noise of relative size eps_l;
    the factory stores a read-only copy of A over a power of two
    (``_unit_scaled``), which leaves every direction unchanged and keeps
    the squared norms in range."""

    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[1]

    def direction(self, rhs_hat: np.ndarray) -> np.ndarray:
        """Exact solve plus noise, shrunk until the solution de-normalized by
        ``denormalize``, the loop's own magnitude recovery, is within eps_l
        relative error (the backend contract is "by construction", and
        magnitude recovery optimizes the residual, which can amplify a raw
        direction error)."""
        a = self.matrix
        x = np.linalg.solve(a, rhs_hat)
        nx = two_norm(x)
        eta = x / nx
        if self.eps_l <= 0.0:
            return eta
        g = self.rng.standard_normal(eta.size)
        g /= two_norm(g)
        magnitude = _NOISE_SAFETY * self.eps_l
        for _ in range(60):
            cand = eta + magnitude * g
            cand /= two_norm(cand)
            mu = denormalize(a @ cand, rhs_hat)
            if two_norm(mu * cand - x) <= _NOISE_SAFETY * self.eps_l * nx:
                return cand
            magnitude *= 0.5
        return eta


@dataclass(frozen=True)
class QsvtBackend(SolverBackend):
    """The phase sequence simulated on the dilation of A^H / ||A||, kept as
    the read-only real block of ``inverse_block``; real inputs only."""

    block: np.ndarray

    @property
    def size(self) -> int:
        return self.block.shape[1]

    def direction(self, rhs_hat: np.ndarray) -> np.ndarray:
        return apply_inverse_state(self.block, rhs_hat)[0]


def _check_backend_inputs(kappa: float, eps_l: float, shot_readout: bool) -> None:
    """``SolverBackend``'s checks, run by ``_factorize`` for every factory too."""
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa!r}")
    if not 0.0 <= eps_l < math.inf:
        raise ValueError(f"eps_l must be finite and >= 0, got {eps_l!r}")
    samples_for_accuracy(eps_l)
    if not isinstance(shot_readout, bool):
        raise ValueError(f"shot_readout must be a bool, got {shot_readout!r}")


def _unit_scaled(v, name: str = "matrix") -> tuple[np.ndarray, int]:
    """``(v / 2^k, k)`` with 2^k just above the largest |entry| of ``v``, so
    the scaled entries peak in [0.5, 1): exact, and no multiply at k = 0.
    k stops at -1023, where 2^-k is still a float. The scan that finds the
    peak also rejects a non-finite ``v``, named ``name``."""
    peak = float(np.abs(v).max(initial=0.0))
    if not math.isfinite(peak):
        raise ValueError(f"{name} has non-finite entries")
    k = max(math.frexp(peak)[1], -1023)
    return (v * math.ldexp(1.0, -k) if k else v), k


def _times_power_of_two(v, k: int):
    """``v * 2^k``, exact while the result is a normal float: no multiply at
    k = 0, one while 2^k is a float and two beyond (up to |k| = 2046, the
    widest gap between two ``_unit_scaled`` exponents)."""
    if k == 0:
        return v
    if -1074 <= k <= 1023:
        return v * math.ldexp(1.0, k)
    return v * math.ldexp(1.0, k // 2) * math.ldexp(1.0, k - k // 2)


def samples_for_accuracy(eps: float) -> int:
    """Sampling cost model: ceil(1 / eps^2) runs per solve, 1 outside
    (0, 1); an eps whose 1 / eps^2 is not a finite float raises ``ValueError``."""
    if eps <= 0.0 or eps >= 1.0:  # eps^2 overflows past 1.3e154
        return 1
    runs = 1.0 / eps**2 if eps**2 > 0.0 else math.inf
    if not runs < math.inf:
        raise ValueError(f"eps = {eps!r} is too small for the sampling cost model")
    return math.ceil(runs)


def nominal_degree(kappa: float, eps_prime: float) -> int:
    """Degree of the inverse series at polynomial accuracy ``eps_prime``."""
    b, cap = degree_params(kappa, eps_prime)
    return 2 * min(cap, b - 1) + 1


def _factorize(a, eps_l: float, kappa: float, shot_readout: bool):
    """Every factory's first step: ``(A, svd(A))`` for a nonempty square,
    numerically nonsingular A whose singular values over sigma_max lie in
    [1/kappa, 1] up to ``_KAPPA_SLACK``. A's one 2-D and finiteness check is
    the ``as_matrix`` inside ``svd``; the square check follows it."""
    factors = svd(a)
    a = np.asarray(a)
    if a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"a backend needs a nonempty square matrix, got shape {a.shape}")
    ratio = singular_value_ratio(factors[1])
    _check_backend_inputs(kappa, eps_l, shot_readout)
    if kappa < ratio * (1.0 - max(_KAPPA_SLACK, 8 * 2.0**-53 * ratio)):
        raise ValueError(f"kappa = {kappa!r} is below the matrix's sigma_max / sigma_min "
                         f"= {ratio!r}")
    return a, factors


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _inverse_series(kappa: float, eps_prime: float) -> ChebyshevSeries:
    """The inverse series at accuracy eps' (callers pass eps_l / kappa):
    one read-only series per key, unscaled, with no bound check. Its
    evaluator gives the spectral oracle its P(sigma), and the bound check
    that only phase finding runs scans it."""
    return inverse_cheb_series(kappa, eps_prime)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _inverse_phases(kappa: float, eps_prime: float) -> tuple[np.ndarray, Callable]:
    """``(phases, evaluate)``: the phase table of the bounded series of
    ``_inverse_series(kappa, eps')`` and its ``sequence_evaluator``.

    A classical precomputation that depends on the series alone, so QSVT
    backends with the same (kappa, eps') share one memoized, read-only
    phase array, and its Re p on read-only M-grid values: the key's one
    ``signal_row`` pass and pair-unitarity check. The key's one bound check
    (``bound_series``) runs here, on the memoized series, and adds the one
    16M-grid transform of its scan, whose certified peak sets the rescale
    factor, and, when that factor is below 1, the rescaled series' M-grid
    transform; ``find_phases`` takes its result. A ``PhaseFindingError``
    is raised, not cached: the next call with that key tries again."""
    target = bound_series(_inverse_series(kappa, eps_prime))
    phases = find_phases(target)
    phases.flags.writeable = False
    return phases, sequence_evaluator(phases)


def spectral_oracle_backend(a, eps_l: float, kappa: float, seed: int = 0,
                            shot_readout: bool = False) -> SpectralOracleBackend:
    """Inverse polynomial applied via the SVD, no circuits, as one operator,
    from the key's unscaled series: no bound check (no 16M-grid scan) runs."""
    factors = _factorize(a, eps_l, kappa, shot_readout)[1]
    return SpectralOracleBackend(
        eps_l=eps_l, kappa=kappa, shot_readout=shot_readout,
        rng=np.random.default_rng([seed, 0x5EC7]) if shot_readout else None,
        operator=singular_value_operator(factors, _inverse_series(kappa, eps_l / kappa).evaluate),
    )


def noisy_oracle_backend(a, eps_l: float, kappa: float, seed: int = 0,
                         shot_readout: bool = False) -> NoisyOracleBackend:
    """Exact solve perturbed by seeded noise of relative size eps_l."""
    a, _ = _factorize(a, eps_l, kappa, shot_readout)
    matrix, _ = _unit_scaled(np.array(a, dtype=None if np.iscomplexobj(a) else float))
    matrix.flags.writeable = False
    return NoisyOracleBackend(
        eps_l=eps_l, kappa=kappa, shot_readout=shot_readout,
        rng=np.random.default_rng([seed, 0x0153]), matrix=matrix,
    )


def qsvt_backend(a, eps_l: float, kappa: float, seed: int = 0,
                 shot_readout: bool = False) -> QsvtBackend:
    """Full simulated pipeline: take the memoized phases of the bounded
    inverse series and apply their sequence on the dilation of
    A^H / sigma_max once, through the singular pairs of A. Real matrices
    of a power-of-two size (a qubit register) only."""
    a = np.asarray(a)
    if a.dtype.kind == "c" and not np.any(a.imag):
        a = a.real  # the real SVD, so a + 0j builds the bytes of a real A
    a, factors = _factorize(a, eps_l, kappa, shot_readout)
    if np.iscomplexobj(a):  # a complex A left here has a nonzero imaginary part
        raise ValueError("qsvt_full is real-only: the matrix has a nonzero imaginary part")
    require_power_of_two(a.shape[0], "matrix dimension")
    return QsvtBackend(
        eps_l=eps_l, kappa=kappa, shot_readout=shot_readout,
        rng=np.random.default_rng([seed, 0x95F7]) if shot_readout else None,
        block=inverse_block(factors, _inverse_phases(kappa, eps_l / kappa)[1]),
    )


def solve_once(backend: SolverBackend, rhs) -> tuple[np.ndarray, np.ndarray]:
    """One low-accuracy solve: normalize, run the backend, apply readout.

    Returns ``(eta, readout)``: the backend's unit direction and the
    direction the classical side actually receives (identical for exact
    readout, shot-perturbed otherwise). An ``rhs`` that is zero, not finite
    or not of shape ``(backend.size,)`` raises ``ValueError``.
    """
    rhs = np.asarray(rhs)
    if rhs.shape != (backend.size,) or not np.all(np.isfinite(rhs)):
        raise ValueError(f"rhs must be finite and of shape ({backend.size},), got {rhs.shape}")
    return _normalized_solve(backend, rhs, two_norm(rhs))


def _normalized_solve(backend: SolverBackend, rhs: np.ndarray, norm: float):
    """``solve_once`` given ``norm`` = ``two_norm(rhs)``, which the loop took for omega."""
    if norm == 0.0:
        raise ValueError("rhs must be nonzero")
    eta = backend.direction(rhs / norm)
    if not backend.shot_readout:
        return eta, eta
    g = backend.rng.standard_normal(eta.size)
    readout = eta + g / (two_norm(g) * math.sqrt(samples_for_accuracy(backend.eps_l)))
    return eta, readout / two_norm(readout)


def denormalize(a_eta, residual) -> float:
    """Magnitude recovery: minimize ||A (x + mu eta) - b|| over real mu,
    given ``a_eta`` = A eta and ``residual`` = b - A x.

    The objective is an exact quadratic, so mu is its closed-form minimizer
    <A eta, b - A x> / ||A eta||^2; an A eta whose ||A eta||^2 is not
    finite and above 1e-28 (NaN included) raises ``ValueError``. The tests
    check it against a bracketed Brent search on the objective's values alone.
    Contiguous float64 vectors of two or more entries take ``dot``, ``np.vdot``'s
    bits without its dispatch (``dot`` of a reversed view or of one entry differs).
    """
    a_eta, residual = np.asarray(a_eta), np.asarray(residual)
    real = (a_eta.strides == residual.strides == (8,) and a_eta.size == residual.size > 1
            and a_eta.dtype == residual.dtype == np.float64)
    gram = float(a_eta.dot(a_eta) if real else np.vdot(a_eta, a_eta).real)
    if not 1e-28 < gram < math.inf:
        raise ValueError(f"degenerate direction: ||A eta||^2 = {gram:.3g}")
    return float((a_eta.dot(residual) if real else np.vdot(a_eta, residual).real) / gram)


@dataclass(frozen=True)
class RefinementTrace:
    """Everything observed during one refinement run."""

    scaled_residuals: list[float]
    mu_values: list[float]
    converged: bool
    theorem_bound: int

    @property
    def iterations(self) -> int:
        """Refinement steps after the first solve."""
        return len(self.scaled_residuals) - 1


@dataclass(frozen=True)
class CostReport:
    """Table-style cost accounting: total = solves x degree x samples, derived."""

    solves: int
    be_calls_per_solve: int
    samples_per_solve: int

    @property
    def total(self) -> int:
        return self.solves * self.be_calls_per_solve * self.samples_per_solve


def theorem_iteration_bound(eps_target: float, eps_l: float, kappa: float) -> int:
    """ceil(ln eps / ln(eps_l kappa)), the refinement iteration bound."""
    rate = eps_l * kappa
    if not 0.0 < rate < 1.0:
        return 0
    return math.ceil(math.log(eps_target) / math.log(rate))


def direct_cost(kappa: float, eps_target: float) -> CostReport:
    """Closed-form cost of one high-precision solve at accuracy eps."""
    return CostReport(
        solves=1,
        be_calls_per_solve=nominal_degree(kappa, eps_target / kappa),
        samples_per_solve=samples_for_accuracy(eps_target),
    )


def iterative_refine(a, b, backend: SolverBackend, eps_target: float,
                     max_iter: int = 100) -> tuple[np.ndarray, RefinementTrace, CostReport]:
    """Refine low-accuracy solves until the scaled residual meets eps.

    First solve produces x0; then repeat: residual in working precision,
    correction direction from the backend, magnitude from ``denormalize``,
    update. Each step costs two products with A, A eta for the magnitude
    and A x for the next residual, and one norm of that residual, which gives
    omega and the next solve's unit right-hand side. Stops at omega <=
    eps_target or ``max_iter``; three consecutive residuals that fail to
    decrease (NaN included) raise ``DivergenceError`` carrying the partial
    trace. An A that is not square, a ``b`` not of shape (n,), a backend
    built for another size, a non-finite entry in A or b, an eps_target
    outside [MIN_EPS_TARGET, 1) or a ``max_iter`` that is not an integer
    >= 0 (0 stops after the first solve) raises ``ValueError`` before any solve.

    The loop runs on A / 2^ka and b / 2^kb, each scaled apart to peak near
    1 (``_unit_scaled``), so its squared norms neither overflow nor
    underflow whatever the scale of the system. It solves for
    y = 2^(ka - kb) x; x and every recorded mu are mapped back by that
    power of two, exactly, and omega is the same for both systems.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    b = np.asarray(b, dtype=float if not np.iscomplexobj(b) else complex)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"need a square A and b of shape (n,): got A {a.shape}, b {b.shape}")
    if backend.size != n:
        raise ValueError(f"the backend was built for a {backend.size} x {backend.size} matrix, "
                         f"A is {n} x {n}")
    a, ka = _unit_scaled(a)
    b, kb = _unit_scaled(b, "b")
    if not MIN_EPS_TARGET <= eps_target < 1.0:
        raise ValueError(
            f"eps_target = {eps_target!r} must lie in [{MIN_EPS_TARGET:g}, 1): "
            "double-precision residuals leave no headroom below it"
        )
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    if not backend.eps_l * backend.kappa < 1.0:
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
            converged=converged,
            theorem_bound=bound,
        )

    x = np.zeros(n, dtype=b.dtype)
    residual, norm = b, b_norm  # b - A x and its norm at x = 0
    stall = 0
    while True:
        readout = _normalized_solve(backend, residual, norm)[1]
        mu = denormalize(a.dot(readout), residual)
        x = x + mu * readout
        mus.append(_times_power_of_two(mu, kb - ka))
        residual = b - a.dot(x)
        norm = two_norm(residual)
        omega = norm / b_norm
        omegas.append(omega)
        if omega <= eps_target:
            break
        if len(omegas) >= 2 and not omega < omegas[-2]:  # a NaN omega stalls too
            stall += 1
            if stall >= 3:
                raise DivergenceError(make_trace(False))
        else:
            stall = 0
        if len(omegas) - 1 >= max_iter:
            break

    cost = CostReport(
        solves=len(mus),
        be_calls_per_solve=backend.degree,
        samples_per_solve=samples_for_accuracy(backend.eps_l),
    )
    return _times_power_of_two(x, kb - ka), make_trace(omegas[-1] <= eps_target), cost


@dataclass(frozen=True)
class ContractionResult:
    passed: bool
    worst_ratio: float


def contraction_check(trace: RefinementTrace, kappa: float, eps_l: float) -> ContractionResult:
    """Verify omega_i <= (eps_l kappa)^(i+1) (1 + ``_CONTRACTION_SLACK``) for
    the trace; returns the pass flag and the worst observed ratio (inf for
    a NaN omega, which fails the check at any rate)."""
    rate = eps_l * kappa
    worst = 0.0
    for i, omega in enumerate(trace.scaled_residuals):
        bound = rate ** (i + 1)
        ratio = omega / bound if bound > 0.0 else (0.0 if omega <= 0.0 else math.inf)
        if not ratio <= worst:  # max() would skip a NaN
            worst = math.inf if math.isnan(ratio) else ratio
    return ContractionResult(passed=worst <= 1.0 + _CONTRACTION_SLACK, worst_ratio=worst)
