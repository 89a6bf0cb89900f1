"""The refinement loop as it was before it took each residual's norm once.

``iterative_refine`` here normalizes every right-hand side through
``solve_once``, which takes the norm again, although the loop took it one
line earlier for omega; ``denormalize`` takes both inner products with
``np.vdot``, and every norm is ``np.linalg.norm``. The library's loop must
return the same bytes of ``x``, the same trace and the same cost report,
or raise the same exception type with the same message, on every input.
Backends and the power-of-two scaling helpers are the library's own.
"""

import math
import numbers
import warnings

import numpy as np

from qsvt_refine.refine import (MIN_EPS_TARGET, CostReport, DivergenceError, RefinementTrace,
                                _times_power_of_two, _unit_scaled, samples_for_accuracy,
                                theorem_iteration_bound)


def two_norm(vec) -> float:
    v = np.asarray(vec)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return float(np.linalg.norm(v))


def solve_once(backend, rhs):
    """One low-accuracy solve: normalize, run the backend, apply readout."""
    rhs = np.asarray(rhs)
    nrm = two_norm(rhs)
    if nrm == 0.0:
        raise ValueError("rhs must be nonzero")
    eta = backend.direction(rhs / nrm)
    if not backend.shot_readout:
        return eta, eta
    g = backend.rng.standard_normal(eta.size)
    readout = eta + g / (two_norm(g) * math.sqrt(samples_for_accuracy(backend.eps_l)))
    return eta, readout / two_norm(readout)


def denormalize(a_eta, residual) -> float:
    """<A eta, b - A x> / ||A eta||^2 by ``np.vdot``."""
    a_eta, residual = np.asarray(a_eta), np.asarray(residual)
    gram = float(np.vdot(a_eta, a_eta).real)
    if not 1e-28 < gram < math.inf:
        raise ValueError(f"degenerate direction: ||A eta||^2 = {gram:.3g}")
    return float(np.vdot(a_eta, residual).real / gram)


def iterative_refine(a, b, backend, eps_target, max_iter=100):
    """Refine low-accuracy solves until the scaled residual meets eps."""
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
        return RefinementTrace(scaled_residuals=omegas, mu_values=mus, converged=converged,
                               theorem_bound=bound)

    x = np.zeros(n, dtype=b.dtype)
    residual = b  # b - A x at x = 0
    stall = 0
    while True:
        _eta, readout = solve_once(backend, residual)
        mu = denormalize(a.dot(readout), residual)
        x = x + mu * readout
        mus.append(_times_power_of_two(mu, kb - ka))
        residual = b - a.dot(x)
        omega = two_norm(residual) / b_norm
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
