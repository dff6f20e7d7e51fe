"""Second-moment channel, tree closed forms, and the diagram evaluators.

The closed forms are cross-checked against a from-scratch contraction that
sums the two pair permutations with explicit Weingarten weights, so the
production evaluator and the oracle share no code path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateau import twirl
from plateau.linalg import gue_hermitian, haar_unitaries
from plateau.twirl import (
    DesignConstants,
    PermLabel,
    _dual_input,
    _pair_input,
    _pair_readout,
    _pairing_traces,
    _two_copy_batch,
    diagram_exact,
    diagram_mc,
    mc_twirl,
    o_tree,
    perm_ops,
    second_moment,
    tree_chain,
)

S = PermLabel.S
A = PermLabel.A


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def haar_two_copy_trace(x, r, nn):
    # E_U Tr[(U(x)U) x (U(x)U)^dag r] via the Weingarten sum over the two
    # pair permutations; factorizes into row and column loop traces
    swap = perm_ops(nn)[1]
    tr = {0: np.trace(x), 1: np.trace(x @ swap)}
    tr_r = {0: np.trace(r), 1: np.trace(r @ swap)}
    val = 0.0 + 0.0j
    for sg in (0, 1):
        for tu in (0, 1):
            wg = 1.0 / (nn * nn - 1.0) if sg == tu else -1.0 / (nn * (nn * nn - 1.0))
            val += wg * tr_r[sg] * tr[tu]
    return val


def pairing_matrices(D, d):
    # bra-ket pairings of the bond ring: same-copy (S) and crossed (A)
    e0 = np.zeros(d)
    e0[0] = 1.0
    p0 = np.outer(e0, e0)
    xs = np.kron(np.kron(np.eye(D), p0), np.kron(np.eye(D), p0))
    xa = np.zeros((D * d * D * d, D * d * D * d), dtype=complex)
    for a in range(D):
        for b in range(D):
            ka = np.kron(np.eye(D)[a], e0)
            kb = np.kron(np.eye(D)[b], e0)
            xa += np.kron(np.outer(ka, kb), np.outer(kb, ka))
    return {S: xs, A: xa}


def readout_matrices(o, D, d):
    block = np.kron(np.eye(D), o)
    rs = np.kron(block, block)
    n = D * d
    w = np.zeros((n * n, n * n))
    for a in range(D):
        for s in range(d):
            for b in range(D):
                for t in range(d):
                    col = ((a * d + s) * D + b) * d + t
                    row = ((b * d + s) * D + a) * d + t
                    w[row, col] = 1.0
    return {S: rs, A: w @ rs}


def oracle_value(left, right, dc, o=None):
    o = np.eye(dc.d) if o is None else o
    pairs = pairing_matrices(dc.D, dc.d)
    reads = readout_matrices(o, dc.D, dc.d)
    gram = np.array([[dc.D**2, dc.D], [dc.D, dc.D**2]], dtype=float)
    coeff = np.linalg.solve(gram, np.eye(2)[0 if left is S else 1])
    dual = coeff[0] * pairs[S] + coeff[1] * pairs[A]
    val = haar_two_copy_trace(dual, reads[right], dc.D * dc.d)
    assert abs(val.imag) < 1e-12
    return val.real


def test_perm_ops():
    ident, sw = perm_ops(3)
    assert np.array_equal(ident, np.eye(9))
    assert np.allclose(sw @ sw, np.eye(9))
    assert np.trace(sw) == pytest.approx(3.0)
    rng = rng_for(0)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    assert np.allclose(sw @ np.kron(a, b) @ sw, np.kron(b, a))


def test_second_moment_projector_example():
    e00 = np.zeros((4, 4))
    e00[0, 0] = 1.0
    ident, swap = perm_ops(2)
    expect = (ident + swap) / 6.0
    assert np.allclose(second_moment(np.kron(e00[:2, :2], e00[:2, :2]), 2), expect)


def test_second_moment_channel_properties():
    rng = rng_for(1)
    n = 3
    x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    y = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    phi_x = second_moment(x, n)
    assert np.allclose(second_moment(2.0 * x + y, n), 2.0 * phi_x + second_moment(y, n))
    assert abs(np.trace(phi_x) - np.trace(x)) < 1e-10
    assert np.allclose(second_moment(phi_x, n), phi_x)
    assert np.allclose(second_moment(np.eye(9), n), np.eye(9))
    swap = perm_ops(n)[1]
    assert np.allclose(second_moment(swap, n), swap)
    with pytest.raises(ValueError):
        second_moment(np.eye(1), 1)


def test_mc_twirl_deterministic_and_convergent():
    rng = rng_for(2)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x /= np.max(np.abs(x))
    a = mc_twirl(x, 2, 500, seed=9)
    b = mc_twirl(x, 2, 500, seed=9)
    assert np.array_equal(a, b)
    exact = second_moment(x, 2)
    coarse = np.max(np.abs(mc_twirl(x, 2, 1_000, seed=4) - exact))
    fine = np.max(np.abs(mc_twirl(x, 2, 100_000, seed=4) - exact))
    assert fine < coarse
    assert fine < 5e-3


def test_design_constants():
    dc = DesignConstants.from_dims(2, 2)
    assert (dc.q, dc.xi, dc.eta) == (15.0, 0.4, 0.4)
    dc32 = DesignConstants.from_dims(3, 2)
    assert dc32.q == 35.0
    assert dc32.xi == pytest.approx(9.0 / 35.0)
    assert dc32.eta == pytest.approx(16.0 / 35.0)
    with pytest.raises(ValueError):
        DesignConstants(2, 2, 15.0, 0.5, 0.4)


def test_tree_chain_closed_forms_and_recursion():
    dc = DesignConstants.from_dims(2, 2)
    assert tree_chain(S, S, 0, dc) == pytest.approx(1.0)
    assert tree_chain(A, S, 0, dc) == pytest.approx(0.0)
    assert tree_chain(S, A, 0, dc) == pytest.approx(0.4)
    assert tree_chain(A, A, 0, dc) == pytest.approx(0.4)
    for dims in ((2, 2), (3, 2), (2, 3), (4, 3)):
        dcc = DesignConstants.from_dims(*dims)
        for left in PermLabel:
            for right in PermLabel:
                assert tree_chain(left, right, 0, dcc) == tree_chain(left, right, 1, dcc)
        for length in range(2, 21):
            # one more link multiplies (A,A) by eta and feeds (S,A) the
            # geometric recursion xi + eta * previous
            assert tree_chain(A, A, length, dcc) == pytest.approx(
                dcc.eta * tree_chain(A, A, length - 1, dcc), abs=1e-12
            )
            assert tree_chain(S, A, length, dcc) == pytest.approx(
                dcc.xi + dcc.eta * tree_chain(S, A, length - 1, dcc), abs=1e-12
            )
            assert tree_chain(S, S, length, dcc) == 1.0
            assert tree_chain(A, S, length, dcc) == 0.0
    with pytest.raises(ValueError):
        tree_chain(S, S, -1, dc)


def test_tree_chain_at_eta_one():
    # d = 1: xi = 0 and eta = 1, so the chain is the identity at every length
    dc = DesignConstants.from_dims(3, 1)
    assert (dc.xi, dc.eta) == (0.0, 1.0)
    for length in (0, 1, 2, 7, 40):
        assert [tree_chain(l, r, length, dc) for l in (S, A) for r in (S, A)] == [1.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_diagram_exact_matches_oracle(dims):
    dc = DesignConstants.from_dims(*dims)
    for left in PermLabel:
        for right in PermLabel:
            want = oracle_value(left, right, dc)
            assert diagram_exact(left, right, dc) == pytest.approx(want, abs=1e-12)
            assert tree_chain(left, right, 0, dc) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3)])
def test_o_tree_matches_oracle(dims):
    dc = DesignConstants.from_dims(*dims)
    obs = [
        np.diag(np.arange(dc.d, dtype=float)),
        gue_hermitian(dc.d, rng_for(31)),
    ]
    for o in obs:
        for left in PermLabel:
            for right in PermLabel:
                want = oracle_value(left, right, dc, o=o)
                assert o_tree(left, right, o, dc) == pytest.approx(want, abs=1e-12)
                assert diagram_exact(left, right, dc, o=o) == pytest.approx(want, abs=1e-12)


def test_o_tree_identity_reduces_to_tree():
    for dims in ((2, 2), (3, 2), (2, 3)):
        dc = DesignConstants.from_dims(*dims)
        for left in PermLabel:
            for right in PermLabel:
                assert o_tree(left, right, np.eye(dc.d), dc) == pytest.approx(
                    tree_chain(left, right, 0, dc), abs=1e-12
                )


def test_diagram_mc_agrees_with_exact():
    dc = DesignConstants.from_dims(2, 2)
    o = np.diag([1.0, -1.0])
    mean, stderr = diagram_mc(S, A, dc, samples=20_000, seed=12)
    assert abs(mean - diagram_exact(S, A, dc)) <= 4.0 * stderr
    mean_o, stderr_o = diagram_mc(A, A, dc, samples=20_000, seed=12, o=o)
    assert abs(mean_o - diagram_exact(A, A, dc, o=o)) <= 4.0 * stderr_o


def test_diagram_rejects_trivial_bond():
    dc = DesignConstants.from_dims(1, 2)
    with pytest.raises(ValueError):
        diagram_exact(S, S, dc)


def two_copy_diagram_values(left, right, dc, samples, seed, o):
    # the literal contraction Tr[(U(x)U) x_dual (U(x)U)^dag r] on the draws
    # diagram_mc makes: one stream, batches of twirl._BATCH
    x = _dual_input(left, dc.D, dc.d)
    r = _pair_readout(right, np.eye(dc.d) if o is None else o, dc.D, dc.d)
    rng = rng_for(seed)
    vals = []
    for lo in range(0, samples, twirl._BATCH):
        w = _two_copy_batch(haar_unitaries(dc.D * dc.d, min(twirl._BATCH, samples - lo), rng))
        y = w @ x @ w.conj().transpose(0, 2, 1)
        vals.append(np.einsum("bij,ji->b", y, r).real)
    return np.concatenate(vals)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3)])
def test_diagram_mc_matches_two_copy_contraction(dims, monkeypatch):
    # a small batch size puts batch boundaries inside the sample range
    monkeypatch.setattr(twirl, "_BATCH", 96)
    dc = DesignConstants.from_dims(*dims)
    samples = 250
    for o in (None, gue_hermitian(dc.d, rng_for(17))):
        for i, (left, right) in enumerate((l, r) for l in PermLabel for r in PermLabel):
            vals = two_copy_diagram_values(left, right, dc, samples, 40 + i, o)
            mean, stderr = diagram_mc(left, right, dc, samples, 40 + i, o)
            assert mean == pytest.approx(np.mean(vals), abs=1e-12)
            assert stderr == pytest.approx(np.std(vals, ddof=1) / np.sqrt(samples), abs=1e-12)


@given(st.integers(2, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_pairing_traces_match_two_copy_trace(D, d, seed):
    rng = rng_for(seed)
    u = haar_unitaries(D * d, 3, rng)
    o = gue_hermitian(d, rng)
    got = _pairing_traces(u, o, D, d)
    w = _two_copy_batch(u)
    for left in PermLabel:
        y = w @ _pair_input(left, D, d) @ w.conj().transpose(0, 2, 1)
        for right in PermLabel:
            want = np.einsum("bij,ji->b", y, _pair_readout(right, o, D, d))
            assert np.max(np.abs(got[:, left.index, right.index] - want)) <= 1e-12


def test_mc_twirl_slices_match_unsliced(monkeypatch):
    monkeypatch.setattr(twirl, "_BATCH", 700)
    x = rng_for(3).standard_normal((9, 9)) + 1j * rng_for(4).standard_normal((9, 9))
    samples = 1500
    rng = rng_for(11)
    acc = np.zeros((9, 9), dtype=complex)
    for lo in range(0, samples, twirl._BATCH):
        w = _two_copy_batch(haar_unitaries(3, min(twirl._BATCH, samples - lo), rng))
        acc += (w @ x @ w.conj().transpose(0, 2, 1)).sum(axis=0)
    assert np.max(np.abs(mc_twirl(x, 3, samples, seed=11) - acc / samples)) <= 1e-12


def test_diagram_mc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        diagram_mc(S, S, DesignConstants.from_dims(1, 2), samples=10, seed=0)
    with pytest.raises(ValueError):
        diagram_mc(S, S, DesignConstants.from_dims(2, 2), samples=10, seed=0, o=np.eye(3))
