"""Closed-form variance engine.

The six case formulas are checked three ways: frozen hand-computed values,
internal consistency (every one-sided case with Haar-averaged constants must
reproduce the corresponding fully averaged case), and agreement with the
straight Monte-Carlo gradient variance.
"""

import numpy as np
import pytest

from plateau.analytic import (
    CConstants,
    ConstantEstimate,
    VarianceCase,
    VarianceQuery,
    c4_closed,
    c_constants_mc,
    variance_bound_onsite_minus,
    variance_formula,
    variance_large_n,
)
from plateau.costs import epsilon
from plateau.linalg import gue_hermitian, pauli_string
from plateau.mc import EnsembleSpec, grad_variance_mps
from plateau.twirl import DesignConstants

Z = pauli_string("Z")
P0 = np.diag([1.0, 0.0])
ZI = pauli_string("ZI")


def closed(value):
    return ConstantEstimate(float(value), 0.0, 0, "closed_form")


def haar_constants(g, o, D, d):
    # exact ensemble averages of the one-sided constants, from the design
    # constants and the closed-form c4
    dc = DesignConstants.from_dims(D, d)
    c4 = c4_closed(g, D, d)
    eps = epsilon(o, d)
    t1 = np.trace(o).real
    return CConstants(
        c1=closed(dc.eta * c4),
        c2=closed(D * (d - 1) / (d * dc.q) * c4),
        c3=closed((D * D * d - 1) / (d * dc.q) * c4),
        c4=closed(c4),
        c5=closed(D * eps * c4 / dc.q),
        c6=closed((c4 / dc.q) * (D * D * eps + t1 * t1 * (D * D - 1) / d)),
    )


def query(case, n, o=Z, delta=None):
    return VarianceQuery(case, n, 2, 2, ZI, o, delta=delta)


def test_design_constants_spots():
    dc = DesignConstants.from_dims(2, 2)
    assert (dc.q, dc.xi, dc.eta) == (15.0, 0.4, 0.4)
    dc32 = DesignConstants.from_dims(3, 2)
    assert (dc32.q, dc32.xi, dc32.eta) == (35.0, pytest.approx(9 / 35), pytest.approx(16 / 35))


def test_chain_spots():
    # the (S, A) entry of the pairing chain is xi * (1 + eta + ... + eta^(L-1))
    dc = DesignConstants.from_dims(2, 2)
    assert dc.chain(0)[0, 1] == 0.0
    assert dc.chain(1)[0, 1] == 0.4
    assert dc.chain(3)[0, 1] == pytest.approx(0.624)
    with pytest.raises(ValueError):
        dc.chain(-1)


def test_c4_closed_values():
    assert c4_closed(ZI, 2, 2) == pytest.approx(32.0)
    assert c4_closed(np.eye(4), 2, 2) == pytest.approx(0.0)
    h = gue_hermitian(4, np.random.default_rng(0))
    t1, t2 = np.trace(h).real, np.trace(h @ h).real
    assert c4_closed(h, 2, 2) == pytest.approx(2.0 * (-(t1**2) + 4.0 * t2))


# n = 5, delta = 2 off site, O = diag(1, 1/4), constants below; values from
# the per-case closed forms before they became one pairing-chain evaluator
FROZEN = [
    ("offsite-minus", 2, 2, 0.016597333333333339, 0.0053333333333333349),
    ("offsite-plus", 2, 2, 0.016597333333333339, 0.0053333333333333358),
    ("offsite-both", 2, 2, 0.016597333333333339, 0.0053333333333333358),
    ("onsite-minus", 2, 2, 0.25645511111111113, 0.23703703703703707),
    ("onsite-plus", 2, 2, 0.044597333333333343, 0.03333333333333334),
    ("onsite-both", 2, 2, 0.044597333333333343, 0.03333333333333334),
    ("offsite-minus", 3, 2, 0.0096041049562682231, 0.0012373791621911919),
    ("offsite-plus", 3, 2, 0.010622797538062844, 0.0017912536443148684),
    ("offsite-both", 3, 2, 0.010976119950020825, 0.0014141476139327906),
    ("onsite-minus", 3, 2, 0.091105651586971009, 0.074853801169590631),
    ("onsite-plus", 3, 2, 0.017402972465176542, 0.0085714285714285701),
    ("onsite-both", 3, 2, 0.016328889629321115, 0.0067669172932330809),
]


@pytest.mark.parametrize(
    "case,D,d,finite,large", [pytest.param(*row, id=f"{row[0]}-{row[1]}x{row[2]}") for row in FROZEN]
)
def test_frozen_values(case, D, d, finite, large):
    cc = CConstants(
        c1=closed(12.8), c2=closed(32 / 15), c3=closed(112 / 15),
        c4=closed(32.0), c5=closed(128 / 15), c6=closed(256 / 15),
    )
    case = VarianceCase(case)
    vq = VarianceQuery(case, 5, D, d, np.eye(D * d), np.diag([1.0, 0.25]), None if case.onsite else 2)
    assert variance_formula(vq, cc) == pytest.approx(finite, rel=1e-12)
    assert variance_large_n(vq, cc) == pytest.approx(large, rel=1e-12)
    if (case, D) == (VarianceCase.ONSITE_BOTH, 2):
        # hand-computed at n = 2, O = Z, c4 only
        cc = CConstants(c4=closed(32.0))
        assert variance_formula(query(case, 2), cc) == pytest.approx(121.6 / 225.0, abs=1e-15)
        assert variance_large_n(query(case, 2), cc) == pytest.approx(320.0 / 1350.0, abs=1e-15)


def test_constant_estimates_match_exact_ensemble_averages():
    want = haar_constants(ZI, Z, 2, 2)
    assert want.c1.value == pytest.approx(12.8)
    assert want.c2.value == pytest.approx(32.0 / 15.0)
    assert want.c3.value == pytest.approx(112.0 / 15.0)
    assert want.c5.value == pytest.approx(128.0 / 15.0)
    assert want.c6.value == pytest.approx(256.0 / 15.0)
    samples = 20_000
    for case, names in (
        (VarianceCase.OFFSITE_MINUS, ("c1",)),
        (VarianceCase.ONSITE_PLUS, ("c2", "c3")),
        (VarianceCase.ONSITE_MINUS, ("c5", "c6")),
    ):
        got = c_constants_mc(case, ZI, Z, 2, 2, samples=samples, seed=17)
        for name in names:
            est = getattr(got, name)
            ref = getattr(want, name).value
            assert abs(est.value - ref) <= 4.0 * est.stderr
            assert est.provenance == "monte_carlo"
    assert got.c4.provenance == "closed_form"
    assert got.c4.value == pytest.approx(32.0)


def test_constant_estimates_other_dims():
    g6 = np.kron(pauli_string("Z"), np.eye(3))
    o = Z
    want = haar_constants(g6, o, 3, 2)
    got = c_constants_mc(VarianceCase.OFFSITE_MINUS, g6, o, 3, 2, samples=20_000, seed=5)
    assert abs(got.c1.value - want.c1.value) <= 4.0 * got.c1.stderr


def test_fixed_partner_hand_values():
    # with the partner frozen at the identity the plus-side constants are
    # exact single-point integrands: c2 = 0 and c3 = 8 for G = Z(x)I
    cc = c_constants_mc(
        VarianceCase.ONSITE_PLUS, ZI, Z, 2, 2,
        ensemble=EnsembleSpec.fixed(np.eye(4)), samples=64, seed=0,
    )
    assert cc.c2.value == 0.0
    assert cc.c2.stderr == 0.0
    assert cc.c3.value == pytest.approx(8.0, abs=1e-12)


def test_one_sided_cases_reduce_to_both_under_haar_constants():
    for o in (Z, P0):
        cc = haar_constants(ZI, o, 2, 2)
        for n in (2, 4, 7):
            both = variance_formula(query(VarianceCase.ONSITE_BOTH, n, o=o), cc)
            minus = variance_formula(query(VarianceCase.ONSITE_MINUS, n, o=o), cc)
            plus = variance_formula(query(VarianceCase.ONSITE_PLUS, n, o=o), cc)
            assert minus == pytest.approx(both, rel=1e-10)
            assert plus == pytest.approx(both, rel=1e-10)
        for n, delta in ((4, 1), (4, 2), (6, 1), (6, 2)):
            both = variance_formula(query(VarianceCase.OFFSITE_BOTH, n, o=o, delta=delta), cc)
            minus = variance_formula(query(VarianceCase.OFFSITE_MINUS, n, o=o, delta=delta), cc)
            plus = variance_formula(query(VarianceCase.OFFSITE_PLUS, n, o=o, delta=delta), cc)
            assert minus == pytest.approx(both, rel=1e-10)
            assert plus == pytest.approx(both, rel=1e-10)


def test_large_n_is_the_limit_of_finite_n():
    cc = haar_constants(ZI, Z, 2, 2)
    for case in VarianceCase:
        delta = 2 if not case.onsite else None
        lim = variance_large_n(query(case, 60, delta=delta), cc)
        fin = variance_formula(query(case, 60, delta=delta), cc)
        assert fin == pytest.approx(lim, rel=1e-9)
        gap40 = abs(variance_formula(query(case, 40, delta=delta), cc) - lim)
        gap20 = abs(variance_formula(query(case, 20, delta=delta), cc) - lim)
        assert gap40 <= gap20 + 1e-15


def test_formulas_are_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(25):
        g = gue_hermitian(4, rng)
        o = gue_hermitian(2, rng)
        cc = haar_constants(g, o, 2, 2)
        case = list(VarianceCase)[int(rng.integers(0, 6))]
        n = int(rng.integers(2, 9))
        delta = None if case.onsite else int(rng.integers(1, max(2, n - 1)))
        if case is VarianceCase.OFFSITE_PLUS:
            delta = min(delta, n - 2) or 1
        vq = VarianceQuery(case, n, 2, 2, g, o, delta=delta)
        assert variance_formula(vq, cc) >= 0.0
        assert variance_large_n(vq, cc) >= 0.0


def test_variance_scales_with_epsilon_for_traceless_observable():
    o3 = 3.0 * pauli_string("Z")
    cc = haar_constants(ZI, Z, 2, 2)
    for case, delta in (
        (VarianceCase.ONSITE_BOTH, None),
        (VarianceCase.OFFSITE_BOTH, 1),
        (VarianceCase.OFFSITE_PLUS, 1),
    ):
        base = variance_formula(query(case, 4, o=Z, delta=delta), cc)
        scaled = variance_formula(query(case, 4, o=o3, delta=delta), cc)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_bound_dominates_onsite_minus():
    for g in (ZI, gue_hermitian(4, np.random.default_rng(3))):
        cc = haar_constants(g, Z, 2, 2)
        for n in (2, 4, 8, 16):
            vq = VarianceQuery(VarianceCase.ONSITE_MINUS, n, 2, 2, g, Z)
            bound = variance_bound_onsite_minus(vq)
            assert bound + 1e-12 >= variance_formula(vq, cc)
            assert bound + 1e-12 >= variance_large_n(vq, cc)


def test_query_validation():
    with pytest.raises(ValueError):
        query(VarianceCase.OFFSITE_BOTH, 4, delta=None)
    with pytest.raises(ValueError):
        query(VarianceCase.OFFSITE_BOTH, 4, delta=0)
    with pytest.raises(ValueError):
        query(VarianceCase.OFFSITE_BOTH, 4, delta=4)
    with pytest.raises(ValueError):
        variance_formula(
            query(VarianceCase.OFFSITE_PLUS, 4, delta=3), haar_constants(ZI, Z, 2, 2)
        )
    # the generator and the observable are checked Hermitian and finite here
    with pytest.raises(ValueError, match="not Hermitian"):
        query(VarianceCase.ONSITE_BOTH, 4, o=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        VarianceQuery(VarianceCase.ONSITE_BOTH, 4, 2, 2, 1j * ZI, Z)
    with pytest.raises(ValueError, match="non-finite"):
        query(VarianceCase.ONSITE_BOTH, 4, o=np.diag([np.inf, 1.0]))
    with pytest.raises(ValueError):
        VarianceQuery(VarianceCase.ONSITE_BOTH, 4, 2, 2, Z, Z)
    assert query(VarianceCase.ONSITE_BOTH, 4, o=np.diag([1.0, 0.0])).o.dtype == complex


def test_constant_container_validation():
    with pytest.raises(ValueError):
        ConstantEstimate(1.0, 0.5, 0, "closed_form")
    with pytest.raises(ValueError):
        ConstantEstimate(1.0, 0.1, 100, "guesswork")
    cc = CConstants(c4=closed(32.0))
    with pytest.raises(ValueError):
        cc.value("c1", VarianceCase.OFFSITE_MINUS)


def test_constant_mc_stderr_scaling():
    small = c_constants_mc(VarianceCase.OFFSITE_MINUS, ZI, Z, 2, 2, samples=4000, seed=2)
    large = c_constants_mc(VarianceCase.OFFSITE_MINUS, ZI, Z, 2, 2, samples=16_000, seed=2)
    ratio = small.c1.stderr / large.c1.stderr
    assert 1.4 < ratio < 2.9


def test_formula_tracks_monte_carlo_gradient():
    cc = CConstants(c4=closed(32.0))
    vq = query(VarianceCase.ONSITE_BOTH, 3)
    want = variance_formula(vq, cc)
    r = grad_variance_mps(
        "onsite-both", n=3, D=2, d=2, delta=None,
        o_builder=Z, g=ZI, samples=4000, seed=19,
    )
    assert abs(r.variance - want) <= 4.0 * r.stderr_variance
