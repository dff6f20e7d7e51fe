import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateau.linalg import (
    check_hermitian,
    check_unitary,
    gue_hermitian,
    haar_from_ginibre,
    haar_state,
    haar_unitary,
    hs_norm_sq,
    partial_trace,
    pauli_string,
)
from plateau.twirl import second_moment


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
def test_haar_unitary_is_unitary(dim):
    u = haar_unitary(dim, rng_for(0))
    assert u.shape == (dim, dim)
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12


def test_haar_unitary_deterministic_per_seed():
    a = haar_unitary(4, rng_for(123))
    b = haar_unitary(4, rng_for(123))
    c = haar_unitary(4, rng_for(124))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_haar_kernel_stack_matches_single_draws():
    rng = rng_for(4)
    z = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    z[2, :, 1] = 0.0  # rank-deficient draw
    q, bad = haar_from_ginibre(z)
    assert bad.tolist() == [False, False, True, False, False]
    for k in (0, 1, 3, 4):
        qk, bad_k = haar_from_ginibre(z[k])
        assert not bad_k
        assert q[k].tobytes() == qk.tobytes()


def test_check_unitary_on_a_stack():
    stack = np.stack([haar_unitary(3, rng_for(k)) for k in range(4)])
    check_unitary(stack)
    stack[2, 0, 0] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(stack)
    stack[2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        check_unitary(stack)


def test_haar_unitary_moments_match_twirl():
    # first and second moments of |U_00|^2 over 1e5 draws, against the
    # exact twirl prediction for the same index pattern
    samples = 100_000
    rng = rng_for(7)
    u00 = np.empty(samples, dtype=complex)
    for k in range(samples):
        u00[k] = haar_unitary(4, rng)[0, 0]
    p2 = np.abs(u00) ** 2
    e00 = np.zeros((4, 4))
    e00[0, 0] = 1.0
    pred2 = 1.0 / 4.0
    pred4 = second_moment(np.kron(e00, e00), 4)[0, 0].real
    assert abs(pred4 - 0.1) < 1e-14
    for vals, pred in ((p2, pred2), (p2**2, pred4)):
        err = abs(np.mean(vals) - pred)
        assert err <= 3.0 * np.std(vals, ddof=1) / np.sqrt(samples)


def test_haar_state_normalized_and_uniform():
    rng = rng_for(3)
    v = haar_state(8, rng)
    assert v.shape == (8,)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    probs = np.mean([np.abs(haar_state(8, rng)) ** 2 for _ in range(4000)], axis=0)
    assert np.max(np.abs(probs - 1.0 / 8.0)) < 0.01


def test_gue_hermitian_properties():
    h = gue_hermitian(6, rng_for(11))
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    assert abs(np.max(np.abs(np.linalg.eigvalsh(h))) - 1.0) < 1e-12
    assert np.array_equal(h, gue_hermitian(6, rng_for(11)))


def test_gate_validation():
    with pytest.raises(ValueError):
        check_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        check_unitary(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        check_hermitian(np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        check_hermitian(np.diag([1.0, np.inf]))
    # both return the checked input as a complex array
    assert check_unitary(np.eye(2)).dtype == complex
    assert check_hermitian(np.diag([1.0, -1.0])).dtype == complex


def test_check_hermitian_on_a_stack():
    # each matrix is judged on its own scale: a 1e-8 asymmetry passes
    # beside entries of 1e3 but fails beside entries of order one
    big = 1e3 * gue_hermitian(3, rng_for(1))
    big[0, 1] += 1e-8
    check_hermitian(np.stack([gue_hermitian(3, rng_for(0)), big]))
    small = gue_hermitian(3, rng_for(2))
    small[0, 1] += 1e-8
    with pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian(np.stack([big, small]))


cdim = st.integers(min_value=1, max_value=4)


@st.composite
def complex_matrix(draw, side):
    n = draw(side)
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = rng_for(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@given(complex_matrix(cdim), complex_matrix(cdim))
@settings(deadline=None)
def test_partial_trace_of_product(a, b):
    m = np.kron(a, b)
    dims = (a.shape[0], b.shape[0])
    assert np.allclose(partial_trace(m, dims, keep=(0,)), a * np.trace(b))
    assert np.allclose(partial_trace(m, dims, keep=(1,)), b * np.trace(a))


@given(complex_matrix(st.just(4)))
@settings(deadline=None)
def test_partial_trace_preserves_trace(m):
    t = np.trace(m)
    assert abs(np.trace(partial_trace(m, (2, 2), keep=(0,))) - t) < 1e-10
    assert np.allclose(partial_trace(m, (2, 2), keep=(0, 1)), m)


def test_partial_trace_three_factors():
    rng = rng_for(5)
    parts = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in (2, 3, 2)]
    m = np.kron(np.kron(parts[0], parts[1]), parts[2])
    out = partial_trace(m, (2, 3, 2), keep=(1,))
    assert np.allclose(out, parts[1] * np.trace(parts[0]) * np.trace(parts[2]))


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 2), keep=(0,))


def test_pauli_string():
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(pauli_string("Z"), z)
    assert np.array_equal(pauli_string("ZI"), np.kron(z, np.eye(2)))
    assert np.array_equal(pauli_string("XZ"), np.kron(x, z))
    assert hs_norm_sq(pauli_string("XYZ")) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        pauli_string("ZQ")


def test_hs_norm_sq():
    assert hs_norm_sq(np.zeros((3, 3))) == 0.0
    assert hs_norm_sq(np.eye(3)) == pytest.approx(3.0)
