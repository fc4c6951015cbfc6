import math
import warnings

import numpy as np
import pytest
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
from ewcones.family import WitnessParams, witness_from_params
from ewcones.linalg import hermitian_eig, is_hermitian, partial_transpose
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


def test_certify_off_cone_warns():
    cert = certify_decomposability(WitnessParams(0.75, 0.75, 0.75, 0.75))
    assert cert.verdict == "decomposable"
    assert not cert.on_cone
    assert cert.warning is not None
    cert = certify_decomposability(WitnessParams(1.2, 1.0, 0.3, 0.5))
    assert cert.verdict == "indecomposable"
    assert cert.warning is not None
    assert cert.pairing_value < -1e-3


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
    # restart r reuses rng stream [seed, r]: more restarts never raise the min
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    four = block_positivity_min(w, restarts=4, seed=3)
    eight = block_positivity_min(w, restarts=8, seed=3)
    assert eight <= four + 1e-15


def test_detect_values():
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    assert detect(w, np.eye(16) / 16.0) == pytest.approx(0.75)
    assert detect(w, max_entangled_projector(4)) == pytest.approx(-2.0)


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


def jacobi_detect(w, rho, tol=DECISION_TOL):
    """detect as it was before the Cholesky proof: Jacobi decides every state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != w.operator.shape:
        raise ValueError(f"expected shape {w.operator.shape}, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("state entries must be finite")
    if not is_hermitian(rho, tol):
        raise ValueError("state is not Hermitian")
    low = hermitian_eig(rho + (rho.conj().T - rho) / 2).values[0]
    if low < -tol:
        raise ValueError(f"state is not positive semidefinite: eigenvalue {low:.6e}")
    return float(np.trace(w.operator @ rho).real)


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


def test_probe_check_failure_keeps_the_jacobi_message(monkeypatch):
    # a probe matrix with a negative diagonal entry, so both checks fail
    def spoiled(diagonal, block):
        op = ii_operator(diagonal, block)
        op[0, 0] = -1.0
        return op

    ii_operator = certify._ii_operator
    monkeypatch.setattr(certify, "_ii_operator", spoiled)
    expected = outcome(jacobi_probe_checks, spoiled(np.ones(16), np.ones((4, 4))), 1.0)
    assert expected.startswith("probe failed positivity at eps=1.0: -")
    with pytest.raises(ValueError) as error:
        probe_state(1.0)
    assert str(error.value) == expected


def test_detect_proves_a_psd_state_without_jacobi(monkeypatch):
    def no_eig(m):
        raise AssertionError("Jacobi ran on a state the Cholesky proof settles")

    monkeypatch.setattr(certify, "hermitian_eig", no_eig)
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    assert detect(w, np.eye(16) / 16.0) == pytest.approx(0.75)
    assert detect(w, max_entangled_projector(4)) == pytest.approx(-2.0)
