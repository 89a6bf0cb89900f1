import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from unitary_reference import check_unitary as reference_check_unitary

from qsvt_refine.numerics import (
    check_unitary,
    random_with_condition,
    singular_value_ratio,
    svd,
    two_norm,
)


def reconstruct(fac):
    u, s, vh = fac
    return (u * s) @ vh


def test_svd_identity():
    u, s, vh = svd(np.eye(2))
    np.testing.assert_allclose(s, [1.0, 1.0])
    np.testing.assert_allclose(u, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(vh.conj().T, np.eye(2), atol=1e-14)


def test_svd_diagonal():
    np.testing.assert_allclose(svd(np.diag([3.0, 1.0]))[1], [3.0, 1.0])


def test_svd_reconstructs_random_complex():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    fac = svd(a)
    assert np.linalg.norm(reconstruct(fac) - a, 2) <= 1e-10 * np.linalg.norm(a, 2)
    assert np.all(np.diff(fac[1]) <= 1e-14)


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (6, 1), (1, 4)])
def test_svd_non_square(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    fac = svd(a)
    u, _, vh = fac
    assert u.shape == (shape[0], min(shape))
    assert vh.conj().T.shape == (shape[1], min(shape))
    np.testing.assert_allclose(reconstruct(fac), a, atol=1e-11)


def test_svd_singular_matrix_completes_basis():
    u, s, _ = svd(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(s, [1.0, 0.0])
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 24),
    n=st.integers(1, 24),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_svd_contract(m, n, is_complex, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if is_complex:
        a = a + 1j * rng.standard_normal((m, n))
    u, s, vh = svd(a)
    k = min(m, n)
    assert u.shape == (m, k)
    assert vh.conj().T.shape == (n, k)
    assert s.shape == (k,)
    assert np.all(np.diff(s) <= 0.0)
    for q in (u, vh.conj().T):
        assert np.linalg.norm(q.conj().T @ q - np.eye(k)) <= 1e-13
    assert np.linalg.norm((u * s) @ vh - a) <= 1e-13 * np.linalg.norm(a)
    # numpy's own economy factors, bit for bit
    for mine, own in zip((u, s, vh), np.linalg.svd(a, full_matrices=False)):
        assert mine.tobytes() == own.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 32),
    kappa=st.floats(1.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_svd_sigma_min_relative_accuracy(n, kappa, seed):
    s = svd(random_with_condition(n, kappa, seed))[1]
    assert abs(s[-1] * kappa - 1.0) <= 1e-12


def test_svd_values_unitary_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    ref = svd(a)[1]
    for trial in range(3):
        w = svd(rng.standard_normal((6, 6)))[0]  # any unitary works
        v = svd(rng.standard_normal((6, 6)))[0]
        rotated = svd(w @ a @ v)[1]
        np.testing.assert_allclose(rotated, ref, atol=1e-10)


def condition_number(a):
    # how the library measures kappa from a matrix
    return singular_value_ratio(svd(a)[1])


def test_condition_number_cases():
    assert condition_number(np.eye(3)) == pytest.approx(1.0)
    assert condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)
    a = random_with_condition(16, 100.0, 3)
    assert condition_number(a) == pytest.approx(100.0, rel=1e-8)


def test_condition_number_singular():
    with pytest.raises(ValueError, match="singular"):
        condition_number(np.diag([1.0, 1e-20]))


def test_random_with_condition_basics():
    one = random_with_condition(1, 1.0, 9)
    assert one.shape == (1, 1)
    assert abs(abs(one[0, 0]) - 1.0) < 1e-12

    a = random_with_condition(16, 10.0, 7)
    b = random_with_condition(16, 10.0, 7)
    np.testing.assert_array_equal(a, b)
    assert not np.iscomplexobj(a)
    assert condition_number(a) == pytest.approx(10.0, rel=1e-8)
    assert svd(a)[1][0] == pytest.approx(1.0, abs=1e-10)


def test_random_with_condition_rejects_bad_kappa():
    # NaN fails every comparison, so a kappa < 1 test alone let it through
    # to a NaN matrix; inf reached numpy's geomspace
    for kappa in (0.5, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa must be finite and >= 1"):
            random_with_condition(4, kappa, 0)


def test_vector_ops():
    assert two_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
    with pytest.raises(ValueError, match="1-D"):
        two_norm(np.eye(2))


FLOATS = st.floats(allow_nan=False, width=64)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(FLOATS, max_size=200), imag=st.lists(FLOATS, max_size=200),
       ints=st.lists(st.integers(-2**31, 2**31), max_size=200))
def test_two_norm_is_numpys_norm_bit_for_bit(values, imag, ints):
    # the contiguous float64 vector that skips the ravel, and the strided and
    # reversed views, size 0 and 1 (contiguous or strided), unaligned,
    # complex128, int64, float32 and big-endian vectors that keep it or take
    # np.linalg.norm: every one is summed in the order np.linalg.norm sums it
    v = np.array(values, dtype=np.float64)
    z = np.zeros(min(len(values), len(imag)), dtype=np.complex128)
    z.real, z.imag = values[: z.size], imag[: z.size]
    unaligned = np.frombuffer(b"\0" + v.tobytes(), dtype=np.float64, offset=1)
    with np.errstate(over="ignore"):
        single = v.astype(np.float32)
    big = v.astype(">f8")
    for vec in (v, v[::2], v[1::3], v[::-1], v[:0], v[:1], v[::7][:1], v[::-1][:1], unaligned,
                z, z.real, np.array(ints, dtype=np.int64), single, single[::2], big, big[::-1]):
        with np.errstate(over="ignore"):
            expected = np.float64(np.linalg.norm(vec))
            got = two_norm(vec)
        assert type(got) is float
        assert np.float64(got).tobytes() == expected.tobytes(), (vec.dtype, vec.strides)


@pytest.mark.parametrize("spread", [0.5, 2.0])
def test_check_unitary_falls_back_to_the_spectral_norm(spread):
    # U^H U - I = s I: its Frobenius norm s * sqrt(16) = 4 s tops the
    # tolerance 16 * 1e-6 whenever s > 4e-6, so these verdicts come from the
    # spectral norm s: a pass at s = 8e-6, a raise at s = 3.2e-5
    dim, tol_factor = 16, 1e-6
    defect = spread * tol_factor * dim
    q = random_with_condition(dim, 1.0, 3)
    u = q * np.sqrt(1.0 + defect)
    gram = u.T @ u - np.eye(dim)
    assert np.linalg.norm(gram) > tol_factor * dim
    assert np.linalg.norm(gram, 2) == pytest.approx(defect, rel=1e-6)
    if spread < 1.0:
        check_unitary(u, tol_factor)
    else:
        with pytest.raises(ValueError, match=r"not unitary: \|\|U\^H U - I\|\| = 3\.200e-05"):
            check_unitary(u, tol_factor)


def test_check_unitary_passes_unitaries_and_rejects_non_square():
    check_unitary(random_with_condition(8, 1.0, 0), 1e-12)
    check_unitary(np.diag(np.exp(1j * np.arange(4.0))), 1e-12)
    with pytest.raises(ValueError, match="square"):
        check_unitary(np.ones((2, 3)), 1e-12)


def test_check_unitary_checks_the_columns_of_a_tall_matrix():
    # U^H U - I = s I for 5 orthonormal columns of length 12: the spectral
    # defect s is held to tol_factor * rows, so s = 8e-6 passes although it
    # tops tol_factor * columns, and s = 1.6e-5 raises
    rows, cols, tol_factor = 12, 5, 1e-6
    q = random_with_condition(rows, 1.0, 4)[:, :cols]
    check_unitary(q, tol_factor)
    check_unitary(q * np.sqrt(1.0 + 8e-6), tol_factor)
    with pytest.raises(ValueError,
                       match=r"columns are not orthonormal: \|\|U\^H U - I\|\| = 1\.600e-05"):
        check_unitary(q * np.sqrt(1.0 + 1.6e-5), tol_factor)


def verdict(check, u, tol_factor):
    """``None`` for a pass, else the exception's type and message."""
    try:
        check(u, tol_factor)
    except Exception as exc:  # the type is part of the verdict
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 24), cols=st.integers(1, 24), complex_=st.booleans(),
       tol_factor=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6]),
       threshold=st.sampled_from(["frobenius", "spectral"]),
       side=st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 10.0]),
       one_column=st.booleans(), seed=st.integers(0, 2**16))
def test_check_unitary_gives_the_reference_verdict_and_message(
        rows, cols, complex_, tol_factor, threshold, side, one_column, seed):
    # orthonormal columns scaled by sqrt(1 + s) give U^H U - I = s I (or
    # s e_1 e_1^T when only the first column is scaled): Frobenius defect
    # s sqrt(cols) (or s), spectral defect s. s is drawn on both sides of
    # the tolerance tol_factor * rows of either norm, away from the
    # threshold itself, where rounding decides; a wide draw checks the
    # shape message
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((max(rows, cols), max(rows, cols)))
    if complex_:
        z = z + 1j * rng.standard_normal(z.shape)
    q = np.linalg.qr(z)[0][:rows, :cols]
    tol = tol_factor * rows
    s = side * (tol if threshold == "spectral" or one_column else tol / math.sqrt(cols))
    scale = np.full(cols, math.sqrt(1.0 + s))
    if one_column:
        scale[1:] = 1.0
    u = q * scale
    assert verdict(check_unitary, u, tol_factor) == verdict(reference_check_unitary, u,
                                                            tol_factor)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), complex_=st.booleans(),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), count=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_check_unitary_names_non_finite_entries_as_the_reference_does(
        rows, cols, complex_, bad, count, seed):
    # an orthonormal, tall or wide matrix with a NaN or +-inf entry (in
    # the imaginary part too) raises "matrix has non-finite entries", as
    # before; no such input reaches the spectral norm
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((max(rows, cols), max(rows, cols))) + (1j if complex_ else 0)
    u = np.linalg.qr(z)[0][:rows, :cols].copy()
    for _ in range(count):
        i, j = rng.integers(rows), rng.integers(cols)
        if complex_ and rng.integers(2):
            u[i, j] = u[i, j].real + 1j * bad
        else:
            u[i, j] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        got = verdict(check_unitary, u, 1e-10)
        assert got == verdict(reference_check_unitary, u, 1e-10)
    assert got == (ValueError, "matrix has non-finite entries")


@pytest.mark.parametrize("shape", [(), (4,), (2, 2, 2)])
def test_check_unitary_names_a_matrix_that_is_not_2d(shape):
    u = np.ones(shape)
    want = (ValueError, f"expected a 2-D matrix, got shape {shape}")
    assert verdict(check_unitary, u, 1e-10) == want == verdict(reference_check_unitary, u, 1e-10)


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float32, np.complex64])
def test_check_unitary_promotes_other_dtypes_as_the_reference_does(dtype):
    # U^H U - I is taken against a float64 identity: an integer, boolean or
    # single-precision identity passes, and a non-unitary matrix of that
    # dtype gets the reference's message
    assert verdict(check_unitary, np.eye(3, dtype=dtype), 1e-10) is None
    u = np.array([[1, 1], [0, 1]], dtype=dtype)
    assert verdict(check_unitary, u, 1e-10) == verdict(reference_check_unitary, u, 1e-10)
    assert verdict(check_unitary, u, 1e-10)[0] is ValueError


def test_check_unitary_leaves_its_input_unchanged():
    u = 1.001 * random_with_condition(6, 1.0, 7)
    before = u.tobytes()
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(u, 1e-10)
    check_unitary(u[:, :0], 1e-10)
    assert u.tobytes() == before
