import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsvt_refine
from cheb_reference import clenshaw_eval, random_odd_target
from qsvt_refine.invpoly import (
    QSVT_PEAK,
    BoundedSeries,
    ChebyshevSeries,
    bound_series,
    cheb_eval,
    inverse_cheb_series,
)
from qsvt_refine.qsp_phases import (
    PhaseFindingError,
    find_phases,
    signal_row,
    verify_phases,
)

T1 = ChebyshevSeries(np.array([0.0, 1.0]))


def signal_unitary(x: float, phases: np.ndarray) -> np.ndarray:
    """Reference: the 2x2 signal product at point ``x`` (|x| <= 1), one
    matrix product per phase.

    An empty phase table gives the identity (the constant polynomial 1).
    """
    if abs(x) > 1.0 + 1e-12:
        raise ValueError("signal_unitary requires |x| <= 1")
    s = np.sqrt(max(0.0, 1.0 - x * x))
    w = np.array([[x, 1j * s], [1j * s, x]])
    m = np.eye(2, dtype=complex)
    for phi in phases:
        e = np.exp(1j * phi)
        m = m @ np.array([[e, 0.0], [0.0, np.conj(e)]]) @ w
    return m


def test_signal_unitary_single_w():
    phases = np.array([0.0])
    for x in np.linspace(-1.0, 1.0, 7):
        m = signal_unitary(x, phases)
        assert m[0, 0].real == pytest.approx(x)


def test_signal_unitary_empty_is_identity():
    m = signal_unitary(0.37, np.zeros(0))
    np.testing.assert_allclose(m, np.eye(2))


def test_signal_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for _ in range(10):
        phases = rng.uniform(-np.pi, np.pi, rng.integers(1, 9))
        m = signal_unitary(rng.uniform(-1, 1), phases)
        assert np.linalg.norm(m.conj().T @ m - np.eye(2), 2) <= 1e-13


def test_signal_unitary_domain_check():
    with pytest.raises(ValueError):
        signal_unitary(1.01, np.array([0.0]))


def test_find_phases_t1():
    phases = find_phases(bound_series(ChebyshevSeries(np.array([0.0, 0.9]))))
    xs = np.random.default_rng(1).uniform(-1, 1, 100)
    for x in xs:
        assert signal_unitary(x, phases)[0, 0].real == pytest.approx(0.9 * x, abs=1e-10)


def test_find_phases_scaled_t3():
    target = bound_series(ChebyshevSeries(np.array([0.0, 0.0, 0.0, 0.9])))
    phases = find_phases(target)
    assert verify_phases(phases, target) <= 1e-9


def test_find_phases_inverse_polynomial():
    bounded = bound_series(inverse_cheb_series(2.0, 0.1))
    phases = find_phases(bounded)
    assert phases.shape == (bounded.series.degree,)
    assert verify_phases(phases, bounded) <= 1e-8


def test_find_phases_random_odd_targets():
    # completeness sweep: bounded odd targets up to degree 31
    rng = np.random.default_rng(42)
    for trial in range(50):
        degree = int(rng.choice([3, 7, 11, 15, 23, 31]))
        target = random_odd_target(rng, degree, 0.8)
        phases = find_phases(target)
        assert verify_phases(phases, target) <= 1e-8, f"trial {trial}"


def test_odd_phases_respect_parity_at_zero():
    rng = np.random.default_rng(3)
    target = random_odd_target(rng, 7, 0.7)
    phases = find_phases(target)
    assert abs(signal_unitary(0.0, phases)[0, 0].real) <= 1e-10


def test_find_phases_even_target():
    # 0.8 T_2: even degrees fold d phases into d/2 + 1 unknowns
    target = bound_series(ChebyshevSeries(np.array([0.0, 0.0, 0.8])))
    assert target.series.parity == "even"
    phases = find_phases(target)
    assert verify_phases(phases, target) <= 1e-9


def test_find_phases_preconditions():
    with pytest.raises(ValueError, match="parity"):
        find_phases(bound_series(ChebyshevSeries(np.array([0.5, 0.5]))))
    with pytest.raises(ValueError, match="degree"):
        find_phases(bound_series(ChebyshevSeries(np.array([0.9]))))
    # a hand-built record whose unrescaled peak sits 1e-6 above QSVT_PEAK
    over = ChebyshevSeries(np.array([0.0, QSVT_PEAK + 1e-6]))
    with pytest.raises(ValueError, match=r"above 0\.9; rescale"):
        find_phases(BoundedSeries(over, 1.0, QSVT_PEAK + 1e-6, lambda x: cheb_eval(over, x)))
    big = ChebyshevSeries(np.concatenate([np.zeros(503), [0.5]]))
    with pytest.raises(ValueError, match="cap"):
        find_phases(bound_series(big))


def test_find_phases_iteration_cap_error(monkeypatch):
    # no iterate reaches a zero node residual, so the iteration stops
    # when the residual no longer falls and reports the best one
    monkeypatch.setattr(qsvt_refine.qsp_phases, "_NODE_TOL", 0.0)
    rng = np.random.default_rng(9)
    target = random_odd_target(rng, 15, 0.8)
    with pytest.raises(PhaseFindingError) as excinfo:
        find_phases(target)
    assert excinfo.value.residual > 0.0


@st.composite
def definite_parity_targets(draw):
    parity = draw(st.sampled_from(["odd", "even"]))
    degree = 2 * draw(st.integers(0, 31)) + 1 if parity == "odd" else 2 * draw(st.integers(1, 31))
    coefs = np.zeros(degree + 1)
    coefs[degree % 2::2] = draw(st.lists(st.floats(-1.0, 1.0), min_size=degree // 2 + 1,
                                         max_size=degree // 2 + 1))
    coefs[degree] = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    # find_phases' domain: a checked peak of at most QSVT_PEAK; the record is
    # built by hand, unrescaled, so the drawn peak is the one it carries
    peak = draw(st.floats(0.5, QSVT_PEAK))
    series = ChebyshevSeries(coefs * (peak / bound_series(ChebyshevSeries(coefs)).peak))
    assert series.parity == parity
    return BoundedSeries(series, 1.0, peak, lambda x: cheb_eval(series, x))


@settings(max_examples=80, deadline=None)
@given(target=definite_parity_targets())
def test_find_phases_realizes_definite_parity_targets(target):
    phases = find_phases(target)
    d = target.series.degree
    assert phases.shape == (d,) and phases.dtype == np.float64
    assert verify_phases(phases, target) <= 1e-10
    # verify_phases reads the grid the node targets came from; Clenshaw's
    # recurrence shares no code with it
    xs = np.linspace(-1.0, 1.0, 10_000)
    realized = signal_row(phases, xs)[0].real
    assert np.max(np.abs(realized - clenshaw_eval(target.series, xs))) <= 1e-10
    # phi_j == phi_{d+2-j} for j = 2..d, exactly: the phases are unfolded
    # from the symmetric reduced ones
    assert np.array_equal(phases[1:], phases[1:][::-1])


def test_find_phases_is_identical_across_processes():
    # kappa = 4, eps_l = 1e-2 (degree 79): a key where an iterative finder
    # has returned different phases in different processes; kappa = 10,
    # eps_l = 1e-3 (degree 287, m = 144 nodes): a key where a dense solve
    # in the step rounded differently under 1 and 2 BLAS threads
    script = (
        "import hashlib; from qsvt_refine import refine; "
        "print(*(hashlib.sha1(refine._inverse_phases(k, e).tobytes()).hexdigest() "
        "for k, e in ((4.0, 1e-2 / 4.0), (10.0, 1e-3 / 10.0))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qsvt_refine.__file__).resolve().parents[1]))
    digests = {
        subprocess.run([sys.executable, "-c", script], env=dict(env, OPENBLAS_NUM_THREADS=threads),
                       check=True, capture_output=True, text=True).stdout.strip()
        for threads in ("1", "2", "1")
    }
    assert len(digests) == 1 and [len(h) for h in digests.pop().split()] == [40, 40]


def test_an_empty_phase_table_is_named():
    # the one check lives in signal_row: an empty table has no product
    # to take, and verify_phases reads signal_row
    xs = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="need a nonempty phase table"):
        signal_row(np.zeros(0), xs)
    target = BoundedSeries(T1, 1.0, 1.0, lambda x: cheb_eval(T1, x))
    with pytest.raises(ValueError, match="need a nonempty phase table"):
        verify_phases(np.zeros(0), target)


def test_verify_phases_exact_and_perturbed():
    phases = np.array([0.0])
    target = BoundedSeries(T1, 1.0, 1.0, lambda x: cheb_eval(T1, x))
    assert verify_phases(phases, target) <= 1e-12
    bumped = phases + np.array([0.1])
    assert verify_phases(bumped, target) > 1e-3


def _plain_signal_rows(phases, xs, need_grad):
    """The textbook recurrence, a fresh array per step: the first row (p, q)
    of M(x) and, with ``need_grad``, d(M00)/d(phi_j), (d, len(xs))."""
    s = np.sqrt(np.maximum(0.0, 1.0 - xs * xs))
    e = np.exp(1j * phases)
    a00, a01 = np.outer(e, xs), 1j * np.outer(e, s)
    a10, a11 = 1j * np.outer(np.conj(e), s), np.outer(np.conj(e), xs)
    f = [(np.ones_like(xs, dtype=complex), np.zeros_like(xs, dtype=complex))]
    for j in range(phases.size):
        f0, f1 = f[-1]
        f.append((f0 * a00[j] + f1 * a10[j], f0 * a01[j] + f1 * a11[j]))
    if not need_grad:
        return f[-1], None
    b = [(np.ones_like(xs, dtype=complex), np.zeros_like(xs, dtype=complex))]
    for j in range(phases.size - 1, -1, -1):
        b0, b1 = b[-1]
        b.append((a00[j] * b0 + a01[j] * b1, a10[j] * b0 + a11[j] * b1))
    b = b[::-1]
    grad = [1j * (f[j][0] * b[j][0] - f[j][1] * b[j][1]) for j in range(phases.size)]
    return f[-1], np.array(grad).reshape(phases.size, xs.size)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 401), nx=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_signal_row_matches_the_signal_rows_forward_pass(d, nx, seed):
    # the pairwise product tree against the left-to-right recurrence: the
    # whole first row, its real part as verify_phases reads it, and a unit
    # row at every point, the end points included
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-np.pi, np.pi, d)
    xs = np.concatenate((rng.uniform(-1.0, 1.0, nx), [-1.0, 0.0, 1.0]))
    (ref_p, ref_q), _ = _plain_signal_rows(phases, xs, need_grad=False)
    p, q = signal_row(phases, xs)
    np.testing.assert_allclose(p, ref_p, rtol=0, atol=1e-13)
    np.testing.assert_allclose(q, ref_q, rtol=0, atol=1e-13)
    np.testing.assert_allclose(p.real, ref_p.real, rtol=0, atol=1e-13)
    assert np.max(np.abs(np.abs(p) ** 2 + np.abs(q) ** 2 - 1.0)) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 21, 22])
def test_closed_form_step_is_the_jacobian_at_the_symmetric_start(d):
    # find_phases' step r <- r + (1/m) R T^T err is -J0^{-1} err for
    # J0 = -T R D, T = T_{2i+par}(x_k) on its nodes, R the reversal and
    # D = diag(2, ..., 2, 2 or 1) the multiplicities of the reduced phases
    m = (d + 2) // 2
    angles = (2 * np.arange(1, m + 1) - 1) * np.pi / (4 * m)
    xs = np.cos(angles)
    j = np.arange(d)
    idx, w = np.minimum(j, d - j), np.where(j == 0, 2.0, 1.0)
    start = np.zeros(m)
    start[0] = np.pi / 4.0
    _, grad = _plain_signal_rows(w * start[idx], xs, need_grad=True)
    jacobian = np.zeros((m, m))  # node k, reduced phase i
    np.add.at(jacobian.T, idx, w[:, None] * grad.real)
    t_r = np.cos(np.outer(angles, 2 * np.arange(m)[::-1] + d % 2))
    mult = np.full(m, 2.0)
    if d % 2 == 0:
        mult[-1] = 1.0  # the middle phase of an even d appears once
    np.testing.assert_allclose(jacobian, -t_r * mult, rtol=0, atol=1e-13)
    np.testing.assert_allclose(t_r.T @ jacobian / m, -np.eye(m), rtol=0, atol=1e-13)


@pytest.mark.parametrize("kappa, eps_l", [(10.0, 1e-2), (4.0, 1e-2)])
def test_find_phases_calls_no_linear_solve(monkeypatch, kappa, eps_l):
    # the step is closed-form; a LAPACK solve (whose rounding depends on the
    # BLAS thread count) would raise here
    def refused(*args, **kwargs):
        raise AssertionError("find_phases called a linear solve")

    for name in ("solve", "lstsq", "inv"):
        monkeypatch.setattr(np.linalg, name, refused)
    target = bound_series(inverse_cheb_series(kappa, eps_l / kappa))
    assert verify_phases(find_phases(target), target) <= 1e-10
