import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ewcones import certify
from ewcones.certify import (
    DECISION_TOL,
    EVIDENCE_TOL,
    block_positivity_min,
    certify_decomposability,
    detect,
    pairing,
    probe_state,
)
from ewcones.cones import bd_curve, special_points
from ewcones.family import WitnessParams, abcd_from_euler, witness_from_params
from ewcones.linalg import hermitian_eig, partial_transpose
from ewcones.maps import Witness, max_entangled_projector


def ppt_ok(rho):
    return (
        np.linalg.eigvalsh(rho)[0] >= -1e-12
        and np.linalg.eigvalsh(partial_transpose(rho, 4, 4))[0] >= -1e-12
    )


def test_probe_state_is_ppt():
    for eps in (0.125, 0.5, 1.0, 2.0, 8.0):
        probe = probe_state(eps)
        assert ppt_ok(probe.state)
    assert np.trace(probe_state(1.0).state).real == pytest.approx(16.0)


def test_probe_state_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        probe_state(0.0)
    with pytest.raises(ValueError):
        probe_state(-2.0)
    # rejected up front, naming epsilon, before any matrix is built
    for bad in (math.inf, math.nan, 1e-320):
        with pytest.raises(ValueError, match="epsilon"):
            probe_state(bad)


def test_pairing_closed_form():
    # Tr(W rho_eps) = 4 (d/eps + b eps - b - d) for any member
    rng = np.random.default_rng(30)
    count = 0
    while count < 15:
        b, d = rng.uniform(0.0, 1.2, size=2)
        c = rng.uniform(0.0, 1.0)
        a = 3.0 - b - c - d
        if not 0.0 <= a <= 3.0:
            continue
        count += 1
        w = witness_from_params(WitnessParams(a, b, c, d))
        for eps in (0.3, 1.0, 2.7):
            expected = 4.0 * (d / eps + b * eps - b - d)
            assert pairing(w, probe_state(eps)) == pytest.approx(expected, abs=1e-10)


def test_pairing_needs_n_4():
    # used to fail in numpy's matmul, with a "mismatch in its core dimension"
    with pytest.raises(ValueError, match="^expected n=4 to pair with a probe state, got n=3$"):
        pairing(Witness(n=3, operator=np.eye(9)), probe_state(1.0))


def test_certify_special_point_one():
    cert = certify_decomposability(WitnessParams(1.0, 1.0, 1.0, 0.0))
    assert cert.verdict == "indecomposable"
    assert cert.on_cone and cert.warning is None
    assert cert.epsilon == pytest.approx(0.5)
    assert cert.pairing_value == pytest.approx(-2.0, abs=1e-12)
    assert_allclose(cert.epsilon_interval, (0.0, 1.0), atol=1e-14)
    # the certificate keeps the probe it paired with
    assert cert.probe.epsilon == cert.epsilon
    assert np.array_equal(cert.probe.state, probe_state(cert.epsilon).state)
    assert cert.pairing_value == pairing(witness_from_params(cert.params), cert.probe)


def test_certify_zero_b_scans():
    cert = certify_decomposability(WitnessParams(1.0, 0.0, 1.0, 1.0))
    assert cert.verdict == "indecomposable"
    assert cert.epsilon == pytest.approx(2.0**20)
    assert cert.pairing_value == pytest.approx(4.0 * (2.0**-20 - 1.0), abs=1e-12)
    lo, hi = cert.epsilon_interval
    assert lo == pytest.approx(1.0)
    assert math.isinf(hi)


def test_certify_optimal_epsilon_and_interval():
    cert = certify_decomposability(WitnessParams(1.0, 1.0, 0.5, 0.5))
    assert cert.epsilon == pytest.approx(math.sqrt(0.5))
    assert cert.pairing_value == pytest.approx(-4.0 * (1.0 - math.sqrt(0.5)) ** 2, abs=1e-12)
    lo, hi = cert.epsilon_interval
    assert (lo, hi) == (pytest.approx(0.5), pytest.approx(1.0))
    # interval endpoints are roots of the pairing
    w = witness_from_params(cert.params)
    assert pairing(w, probe_state(lo)) == pytest.approx(0.0, abs=1e-9)
    assert pairing(w, probe_state(hi)) == pytest.approx(0.0, abs=1e-9)


# b << d and d << b: the interval's endpoints 1 and d / b come out exactly,
# including d / b = inf (upper endpoint unbounded) and d / b = 0
@pytest.mark.parametrize("params, interval", [
    ((1.49, 1e-20, 0.01, 1.5), (1.0, 1.5 / 1e-20)),
    ((0.0, 5e-324, 1.5, 1.5), (1.0, math.inf)),
    ((0.0, 3.0, 0.0, 5e-324), (0.0, 1.0)),
])
def test_certify_extreme_ratio_members(params, interval):
    cert = certify_decomposability(WitnessParams(*params))
    assert cert.verdict == "indecomposable"
    assert cert.epsilon_interval == interval
    lo, hi = interval
    assert lo < cert.epsilon < hi
    assert cert.pairing_value < 0


SIDE = st.one_of(st.floats(0.0, 1.5), st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-20]))


@settings(max_examples=300, deadline=None)
@given(SIDE, SIDE, st.floats(0.0, 1.0))
def test_epsilon_lies_inside_the_violation_interval(b, d, share):
    assume(abs(b - d) > DECISION_TOL)
    a = share * (3.0 - b - d)
    cert = certify_decomposability(WitnessParams(a, b, 3.0 - b - d - a, d))
    lo, hi = cert.epsilon_interval
    assert lo < cert.epsilon < hi
    # the sign of (eps - 1)(b eps - d), the pairing's factors, taken exactly
    eps = Fraction(cert.epsilon)
    assert (eps - 1) * (Fraction(b) * eps - Fraction(d)) < 0
    # the float pairing resolves 4 (sqrt(b) - sqrt(d))^2 only well away from b = d:
    # at |b - d| near DECISION_TOL it is below the rounding of Tr(W rho)
    if abs(b - d) > 1e-6:
        assert cert.pairing_value < 0


def test_certify_decomposable_split():
    cert = certify_decomposability(WitnessParams(1.5, 0.5, 0.5, 0.5))
    assert cert.verdict == "decomposable"
    assert cert.p_psd and cert.q_psd
    assert cert.reconstruction_error < 1e-12
    assert_allclose(np.sort(cert.a_eigenvalues), [0.0, 2.0, 2.0, 2.0], atol=1e-10)
    w = witness_from_params(cert.params)
    rebuilt = cert.p_op + partial_transpose(cert.q_op, 4, 4)
    assert_allclose(rebuilt, w.operator, atol=1e-12)
    assert np.linalg.eigvalsh(cert.p_op)[0] >= -1e-10
    assert np.linalg.eigvalsh(cert.q_op)[0] >= -1e-10


def test_certify_reduction_gram_vanishes():
    cert = certify_decomposability(WitnessParams(0.0, 1.0, 1.0, 1.0))
    assert cert.verdict == "decomposable"
    assert_allclose(cert.a_eigenvalues, np.zeros(4), atol=1e-12)
    assert cert.reconstruction_error < 1e-12


def test_certify_bd_curve_members():
    for cone in ("I", "II"):
        for p in bd_curve(cone):
            cert = certify_decomposability(p)
            assert cert.verdict == "decomposable"
            assert cert.p_psd and cert.q_psd
            assert cert.reconstruction_error < 1e-10
            b, c = p.b, p.c
            expected = sorted([0.0, 4.0 * (1.0 - b), 2.0 * (2.0 - b - c), 2.0 * (2.0 - b - c)])
            assert_allclose(cert.a_eigenvalues, expected, atol=1e-10)


def _split_members():
    """Every bd_curve member, the special points and the 400-point b = d slice, with a tol.

    Special points i and ii have |b - d| = 1, so they are certified at tol = 1,
    which the library and --tol admit, to reach the split as well.
    """
    for cone in ("I", "II"):
        for p in bd_curve(cone):
            yield p, DECISION_TOL
    for sp in special_points():
        yield sp.params, 1.0
    for x, y, z in np.random.default_rng(3).dirichlet((1.0, 1.0, 1.0), 400) * 3.0:
        yield WitnessParams(x, y / 2.0, z, y / 2.0), DECISION_TOL


def test_split_spectra_match_their_closed_forms():
    # the Gram circulant [a, b - 1, c - 1, b - 1] has eigenvalues
    # a + 2(b - 1) + (c - 1), a - (c - 1) twice and a - 2(b - 1) + (c - 1); P is
    # that Gram matrix on span{|ii>}, and Q is diagonal with 2b four times and 2c
    # twice. A closed-form spectrum in place of the solver must match these.
    count = 0
    for p, tol in _split_members():
        cert = certify_decomposability(p, tol=tol)
        a, b, c = p.a, p.b, p.c
        gram = sorted([a + 2 * (b - 1) + (c - 1), a - (c - 1), a - (c - 1), a - 2 * (b - 1) + (c - 1)])
        assert_allclose(cert.a_eigenvalues, gram, rtol=0, atol=1e-14)
        assert_allclose(np.linalg.eigvalsh(cert.p_op), sorted(gram + [0.0] * 12), rtol=0, atol=1e-14)
        q = sorted([0.0] * 10 + [2 * b] * 4 + [2 * c] * 2)
        assert_allclose(np.linalg.eigvalsh(cert.q_op), q, rtol=0, atol=1e-14)
        count += 1
    assert count == 608


def test_certify_off_cone_warns():
    cert = certify_decomposability(WitnessParams(0.75, 0.75, 0.75, 0.75))
    assert cert.verdict == "decomposable"
    assert not cert.on_cone
    assert cert.warning is not None
    cert = certify_decomposability(WitnessParams(1.2, 1.0, 0.3, 0.5))
    assert cert.verdict == "indecomposable"
    assert cert.warning is not None
    assert cert.pairing_value < -1e-3


def _product_expectation(params, x, y):
    # <x (x) y| W |x (x) y> on the assembled witness
    v = np.kron(np.asarray(x), np.asarray(y))
    return float((v @ params.witness.operator @ v).real)


def test_bd_slice_is_decomposable_exactly_where_p_is_psd():
    # on b = d, P is PSD iff b <= 1 and c <= a + 1; elsewhere a product vector
    # of expectation 1 - b or (a - c + 1)/4 < 0 shows W is not block positive.
    # 400 points uniform on the valid slice a + 2b + c = 3
    failing = 0
    for x, y, z in np.random.default_rng(3).dirichlet((1.0, 1.0, 1.0), 400) * 3.0:
        p = WitnessParams(x, y / 2.0, z, y / 2.0)
        cert = certify_decomposability(p)
        if p.b <= 1.0 and p.c <= p.a + 1.0:
            assert cert.verdict == "decomposable" and cert.p_psd and cert.q_psd
            assert cert.product_vector is None and cert.product_value is None
            continue
        failing += 1
        assert cert.verdict == "not-block-positive"
        assert not cert.p_psd and cert.q_psd
        assert cert.product_value == pytest.approx(min(1.0 - p.b, (p.a - p.c + 1.0) / 4.0), abs=1e-15)
        assert cert.product_value < 0.0
        assert cert.product_value == pytest.approx(_product_expectation(p, *cert.product_vector), abs=1e-12)
    assert failing == 129


@pytest.mark.parametrize(
    ("params", "value"),
    [
        ((0.25, 1.0, 0.75, 1.0), None),  # face b = 1
        ((0.5, 0.5, 1.5, 0.5), None),  # face c = a + 1
        ((0.0, 1.0, 1.0, 1.0), None),  # both faces: special point iii
        ((0.25 - 2e-6, 1.0 + 1e-6, 0.75, 1.0 + 1e-6), -1e-6),  # past b = 1: 1 - b
        ((0.5, 0.5 - 1e-6, 1.5 + 2e-6, 0.5 - 1e-6), -5e-7),  # past c = a + 1: (a - c + 1)/4
    ],
)
def test_bd_faces_split_the_verdicts(params, value):
    p = WitnessParams(*params)
    cert = certify_decomposability(p)
    if value is None:
        assert cert.verdict == "decomposable" and cert.p_psd and cert.q_psd
        return
    assert cert.verdict == "not-block-positive"
    assert cert.product_value == pytest.approx(value, rel=1e-9)
    assert cert.product_value == pytest.approx(_product_expectation(p, *cert.product_vector), abs=1e-15)


def test_certify_rejects_the_decomposable_claim_at_a_negative_product(monkeypatch):
    calls = []
    eig = certify.hermitian_eig
    monkeypatch.setattr(certify, "hermitian_eig", lambda m: calls.append(m) or eig(m))
    p = WitnessParams(0.0, 1.5, 0.0, 1.5)
    cert = certify_decomposability(p)
    assert len(calls) == 3  # as many as a decomposable certificate
    assert cert.verdict == "not-block-positive"
    assert (cert.p_psd, cert.q_psd) == (False, True)
    assert cert.a_eigenvalues[0] == pytest.approx(-2.0)
    h = math.sqrt(0.5)
    assert cert.product_vector == ((h, 0.0, h, 0.0), (h, 0.0, h, 0.0))
    assert cert.product_value == -0.5 == pytest.approx(_product_expectation(p, *cert.product_vector), abs=1e-15)
    assert block_positivity_min(p.witness, restarts=8) < -0.49
    assert "not-block-positive" in cert.warning


def test_certify_names_a_basis_product_when_q_fails():
    # b = d = -1e-10 is valid; Q's eigenvalue 2b is then below -EVIDENCE_TOL,
    # and <0 1|W|0 1> = b is the negative expectation
    p = WitnessParams(1.5 + 1e-10, -1e-10, 1.5 + 1e-10, -1e-10)
    cert = certify_decomposability(p)
    assert cert.verdict == "not-block-positive"
    assert (cert.p_psd, cert.q_psd) == (True, False)
    assert cert.product_vector == ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))
    assert cert.product_value == -1e-10 == _product_expectation(p, *cert.product_vector)


def test_p_is_psd_up_to_the_b_minus_d_the_tolerance_admits():
    # the Gram matrix of P has b - d as an eigenvalue; within tol of b = d it
    # does not turn a member into a not-block-positive one
    p = WitnessParams(1.0 - 5e-10, 0.75, 0.5, 0.75 + 5e-10)
    cert = certify_decomposability(p)
    assert cert.a_eigenvalues[0] == pytest.approx(-5e-10, rel=1e-6)
    assert cert.verdict == "decomposable" and cert.p_psd and cert.q_psd


BD_SIDE = st.floats(-1e-10, 3.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(BD_SIDE, BD_SIDE, st.one_of(st.just(0.0), st.floats(-DECISION_TOL, DECISION_TOL)))
def test_decomposable_certificates_have_psd_parts(b, c, gap):
    d = b + gap
    try:
        p = WitnessParams(3.0 - b - c - d, b, c, d)
    except ValueError:
        assume(False)
    assume(abs(p.b - p.d) <= DECISION_TOL)
    cert = certify_decomposability(p)
    if cert.verdict == "decomposable":
        assert cert.p_psd and cert.q_psd
        assert cert.product_vector is None and cert.product_value is None
    else:
        assert cert.verdict == "not-block-positive"
        assert not (cert.p_psd and cert.q_psd)
        # a quarter of P's failed eigenvalue, or half of Q's, up to rounding
        assert cert.product_value < -EVIDENCE_TOL / 4 + 1e-15
        assert cert.product_value == pytest.approx(_product_expectation(p, *cert.product_vector), abs=1e-12)


def test_certify_validates_params():
    with pytest.raises(ValueError):
        certify_decomposability(WitnessParams(1.0, 1.0, 1.0, 1.0))


def test_special_points_verdicts():
    expected = {"i": "indecomposable", "ii": "indecomposable",
                "iii": "decomposable", "iv": "decomposable"}
    for sp in special_points():
        cert = certify_decomposability(sp.params)
        assert cert.verdict == expected[sp.label]


def test_block_positivity_on_members():
    for sp in special_points():
        w = witness_from_params(sp.params)
        assert block_positivity_min(w, restarts=8, seed=1) >= -1e-9


def test_block_positivity_reduction_hits_zero():
    w = witness_from_params(WitnessParams(0.0, 1.0, 1.0, 1.0))
    assert abs(block_positivity_min(w, restarts=8, seed=0)) < 1e-8


def test_block_positivity_finds_negative_directions():
    # -P+ has product minimum exactly -1/4
    w = Witness(n=4, operator=-max_entangled_projector(4))
    assert block_positivity_min(w, restarts=4, seed=0) == pytest.approx(-0.25, abs=1e-10)


def test_block_positivity_restart_prefix():
    # restart r keeps row r of the seeded draw: more restarts never raise the min
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    four = block_positivity_min(w, restarts=4, seed=3)
    eight = block_positivity_min(w, restarts=8, seed=3)
    assert eight <= four + 1e-15


def test_detect_values():
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    assert detect(w, np.eye(16) / 16.0) == pytest.approx(0.75)
    assert detect(w, max_entangled_projector(4)) == pytest.approx(-2.0)


def test_detect_reads_a_nested_list_operator():
    # Witness stores its operator unconverted; reading .shape first used to raise AttributeError
    assert detect(Witness(n=1, operator=[[0.7]]), [[1.0]]) == 0.7
    w = witness_from_params(WitnessParams(1.0, 0.75, 0.5, 0.75))
    rho = max_entangled_projector(4) / 4.0
    assert detect(Witness(n=4, operator=w.operator.tolist()), rho) == detect(w, rho)


def test_detect_flags_ppt_entanglement():
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    probe = probe_state(0.5)
    rho = probe.state / np.trace(probe.state).real
    assert ppt_ok(rho)
    assert detect(w, rho) < -1e-3


def test_detect_validation():
    w = witness_from_params(WitnessParams(1.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="shape"):
        detect(w, np.eye(4))
    with pytest.raises(ValueError, match="Hermitian"):
        bad = np.zeros((16, 16))
        bad[0, 1] = 1.0
        detect(w, bad)
    with pytest.raises(ValueError, match="eigenvalue"):
        detect(w, np.diag([1.0] * 15 + [-1.0]))
    # a witness with a NaN used to detect nan, and a skewed one 0.75
    nan = w.operator.copy()
    nan[3, 5] = np.nan
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        detect(Witness(n=4, operator=nan), np.eye(16) / 16.0)
    skew = w.operator.copy()
    skew[0, 5] += 1e-8
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max \|m - m\^dagger\| = 1\.000e-08$"):
        detect(Witness(n=4, operator=skew), np.eye(16) / 16.0)
    # its squared Frobenius norm overflows; the eigenvalue -1e200 is still found
    huge = np.zeros((16, 16))
    huge[0, 1] = huge[1, 0] = 1e200
    with pytest.raises(ValueError, match="eigenvalue -1.0+e\\+200"):
        detect(w, huge)
    # finite but near the largest float: forming the Hermitian part must not
    # overflow into a "not finite" rejection
    huge[0, 1] = huge[1, 0] = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="eigenvalue -1.70+e\\+308"):
            detect(w, huge)


def test_detect_rejects_a_pair_whose_modulus_overflows():
    w = witness_from_params(WitnessParams(1.5, 0.5, 0.5, 0.5))
    z = 1.5e308 * (1 + 1j)
    rho = np.zeros((16, 16), dtype=complex)
    rho[0, 1], rho[1, 0] = z, np.conj(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive semidefinite: eigenvalue -inf"):
            detect(w, rho)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_library_tol_must_be_finite_and_non_negative(tol):
    params = WitnessParams(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="tol"):
        certify_decomposability(params, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        detect(witness_from_params(params), np.eye(16) / 16, tol=tol)
    assert certify_decomposability(params, tol=0.0).verdict == "indecomposable"
    assert detect(witness_from_params(params), np.eye(16) / 16, tol=0.0) == pytest.approx(0.75)


def test_detect_names_non_finite_states():
    # the finite check runs before the Hermitian check, so NaN is not misnamed
    w = witness_from_params(WitnessParams(1.5, 0.5, 0.5, 0.5))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        rho = np.eye(16, dtype=complex) / 16.0
        rho[2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            detect(w, rho)


def test_detect_accepts_skew_within_tol():
    # a skew that passes detect's own Hermitian check reaches the solver as the
    # Hermitian part, so the solver's tighter check cannot reject it
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    rho = np.eye(16, dtype=complex) / 16.0
    rho[0, 1] = 1e-10
    assert detect(w, rho) == pytest.approx(float(np.trace(w.operator @ rho).real), abs=1e-15)
    rho[0, 1] = 1e-8
    with pytest.raises(ValueError, match="state is not Hermitian"):
        detect(w, rho)


def test_overflowing_skew_is_not_hermitian_without_a_warning():
    # rho - rho^dagger overflowed with a RuntimeWarning (an error here) before
    # the message; just below 2**1021 the skew is still finite
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    below = math.nextafter(2.0**1021, 0.0)
    for top, bottom in ((1.7e308, -1.7e308), (complex(below, below), complex(-below, below))):
        rho = np.eye(16, dtype=complex) / 16.0
        rho[0, 1], rho[1, 0] = top, bottom
        with pytest.raises(ValueError, match="^state is not Hermitian$"):
            detect(w, rho)


def test_overflowing_trace_is_an_error_without_a_warning():
    # an accepted state whose Tr(W rho), 12 times its scale here, overflows
    # used to return inf; the JSON record then failed on the infinity
    w = WitnessParams(1.0, 0.75, 0.5, 0.75).witness
    assert detect(w, 1e307 * np.eye(16)) == 1.2e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^Tr\(W rho\) overflows the float range: inf$"):
            detect(w, 1.7e308 * np.eye(16))


def dot_trace(w, rho):
    """Re Tr(W rho) of arrays as `detect` reads it: one dot product, sum_ij W_ji rho_ij."""
    return float(np.vdot(w.conj().T, rho).real)


def test_dot_trace_is_tr_w_rho():
    # exact on small integer entries, which pins the orientation sum_ij W_ji X_ij
    # on matrices that are neither Hermitian nor symmetric
    rng = np.random.default_rng(94)
    for n in (1, 3, 16):
        for _ in range(10):
            w, x = (rng.integers(-9, 10, (n, n)) + 1j * rng.integers(-9, 10, (n, n)) for _ in range(2))
            assert dot_trace(w, x) == np.trace(w @ x).real
            assert dot_trace(w, x.real) == np.trace(w @ x.real).real


def test_detect_returns_the_dot_product_and_pairing_the_product_trace():
    # detect sums in another order than the diagonal of W rho, so its value
    # may move in the last ulps; pairing, whose terms cancel near b = d, keeps
    # the product's diagonal bit for bit
    rng = np.random.default_rng(95)
    members = [WitnessParams(1.0, 1.0, 1.0, 0.0), WitnessParams(1.0, 0.75, 0.5, 0.75)]
    members += [abcd_from_euler(*rng.uniform(0.0, 2.0 * np.pi, 3), parity=parity) for parity in ("proper", "improper")]
    accepted = 0
    for params in members:
        w = witness_from_params(params)
        for eps in (0.3, 1.0, 2.7):
            probe = probe_state(eps)
            assert repr(pairing(w, probe)) == repr(float(np.trace(w.operator @ probe.state).real))
        for rho in seeded_states(rng):
            got = outcome(detect, w, rho)
            if isinstance(got, str):
                continue
            accepted += 1
            assert repr(got) == repr(dot_trace(w.operator, rho))
            scale = float(np.abs(w.operator.T * rho).sum())
            assert abs(got - np.trace(w.operator @ rho).real) <= 32 * np.finfo(float).eps * scale
    assert accepted == 4 * 24


def jacobi_detect(w, rho, tol=DECISION_TOL):
    """detect as it was before the Cholesky proof: Jacobi decides every state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != w.operator.shape:
        raise ValueError(f"expected shape {w.operator.shape}, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("state entries must be finite")
    if not np.max(np.abs(rho - rho.conj().T)) <= tol:  # the former is_hermitian
        raise ValueError("state is not Hermitian")
    low = hermitian_eig(rho + (rho.conj().T - rho) / 2).values[0]
    if low < -tol:
        raise ValueError(f"state is not positive semidefinite: eigenvalue {low:.6e}")
    return dot_trace(w.operator, rho)


def jacobi_probe_checks(rho, epsilon):
    """probe_state's two checks as they were before the Cholesky proof."""
    for m, name in ((rho, "probe"), (partial_transpose(rho, 4, 4), "partial transpose")):
        low = hermitian_eig(m).values[0]
        if low < -EVIDENCE_TOL:
            raise ValueError(f"{name} failed positivity at eps={epsilon}: {low:.3e}")


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def seeded_states(rng):
    """Dense states: random mixed, rotated noisy PPT probes, not PSD, and near -tol."""
    def unitary(n):
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for _ in range(8):
        g = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        rho = g @ g.conj().T
        yield (rho + rho.conj().T) / 2 / np.trace(rho).real
        local = np.kron(unitary(4), unitary(4))
        probe = probe_state(float(rng.uniform(0.5, 2.0))).state
        rho = local @ (probe / np.trace(probe).real) @ local.conj().T
        yield (rho + rho.conj().T) / 2
        u = unitary(16)
        # lambda_min at -0.05 and 1e-3 * tol on either side of -tol
        for low in (-0.05, -1e-9 * (1 + 1e-3), -1e-9 * (1 - 1e-3)):
            rho = (u * np.concatenate(([low], rng.uniform(0.01, 0.1, 15)))) @ u.conj().T
            yield (rho + rho.conj().T) / 2


def test_detect_and_probe_match_the_jacobi_reference():
    rng = np.random.default_rng(84)
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    results = []
    for rho in seeded_states(rng):
        got = outcome(detect, w, rho)
        assert got == outcome(jacobi_detect, w, rho)
        results.append(isinstance(got, str))
    # both verdicts occur, on each side of the boundary
    assert results.count(True) == 16 and results.count(False) == 24
    for k in range(-20, 21):
        eps = 2.0**k
        probe = probe_state(eps)
        jacobi_probe_checks(probe.state, eps)
        assert probe.epsilon == eps


def test_probe_check_failure_names_the_failing_block(monkeypatch):
    # with no tolerance, the float weights 49 and 1/49 give a block
    # [[49, 1], [1, 1/49]] whose exact determinant is negative
    assert Fraction(49.0) * Fraction(1.0 / 49.0) < 1
    probe_state(49.0)
    monkeypatch.setattr(certify, "EVIDENCE_TOL", 0.0)
    probe_state(1.0)  # the singular all-ones blocks still pass at tol = 0
    with pytest.raises(ValueError) as error:
        probe_state(49.0)
    assert str(error.value) == (
        "partial transpose failed positivity at eps=49.0: "
        "block [[49.0, 1], [1, 0.02040816326530612]]"
    )


def test_probe_checks_follow_the_block_rule_without_a_solver(monkeypatch):
    def no_solver(*args):
        raise AssertionError("a probe check ran a numerical PSD test")

    monkeypatch.setattr(certify, "_psd_proved_checked", no_solver)
    monkeypatch.setattr(certify, "hermitian_eig", no_solver)
    tol = Fraction(EVIDENCE_TOL)
    ii = [5 * i for i in range(4)]
    for eps in [2.0**k for k in range(-60, 61)] + [49.0, 3.3e5, 1e150, 1e-150]:
        rho = probe_state(eps).state
        pt = partial_transpose(rho, 4, 4)
        # the |ii> diagonal of ones plus one 2 x 2 block per pair i < j
        rebuilt = np.zeros((16, 16), dtype=complex)
        rebuilt[ii, ii] = 1.0
        for i in range(4):
            for j in range(i + 1, 4):
                idx = np.ix_([4 * i + j, 4 * j + i], [4 * i + j, 4 * j + i])
                (w, one), (one_t, w_t) = block = pt[idx]
                assert one == one_t == 1.0 and w.imag == w_t.imag == 0.0
                assert (Fraction(w.real) + tol) * (Fraction(w_t.real) + tol) >= 1
                rebuilt[idx] = block
        assert np.array_equal(pt, rebuilt)


def test_detect_proves_a_psd_state_without_jacobi(monkeypatch):
    def no_eig(m):
        raise AssertionError("Jacobi ran on a state the Cholesky proof settles")

    monkeypatch.setattr(certify, "hermitian_eig", no_eig)
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    assert detect(w, np.eye(16) / 16.0) == pytest.approx(0.75)
    assert detect(w, max_entangled_projector(4)) == pytest.approx(-2.0)
