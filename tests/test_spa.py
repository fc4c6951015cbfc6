import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewcones.cones import ellipse_point, special_points
from ewcones.errata import ERRATA
from ewcones.family import WitnessParams, abcd_from_euler, witness_from_params
from ewcones.linalg import partial_transpose
from ewcones.maps import Witness
from ewcones.spa import (
    _pair_support_ok,
    _pair_term,
    critical_p,
    critical_p_from_a,
    spa_decompose,
    spa_mix,
)


def test_spa_mix_endpoints():
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    assert_allclose(spa_mix(w, 0.0), w.operator / 12.0)
    assert_allclose(spa_mix(w, 1.0), np.eye(16) / 16.0)
    with pytest.raises(ValueError):
        spa_mix(w, 1.5)


def test_spa_mix_reads_a_nested_list_operator():
    # reading .shape of the unconverted list used to raise AttributeError
    w = WitnessParams(1.0, 0.75, 0.5, 0.75).witness
    listed = Witness(n=4, operator=w.operator.tolist())
    assert spa_mix(listed, 0.3).tobytes() == spa_mix(w, 0.3).tobytes()


def test_critical_p_reads_a_nested_list_operator():
    w = WitnessParams(1.0, 0.75, 0.5, 0.75).witness
    assert critical_p(Witness(n=4, operator=w.operator.tolist())) == critical_p(w)


def test_critical_p_frozen_values():
    assert critical_p_from_a(0.0) == pytest.approx(0.8)
    assert critical_p_from_a(1.5) == pytest.approx(2.0 / 3.0)
    assert critical_p_from_a(1.0) == pytest.approx(8.0 / 11.0)


def test_critical_p_from_a_needs_a_family_a():
    # 3.75 divided by zero, NaN came back as NaN and -5.0 read as 0.914
    for a in (3.75, -5.0, np.nan, np.inf, 3.0 + 1e-9, -1e-9):
        with pytest.raises(ValueError, match=r"^parameter a must be finite and lie in \[0, 3\], got "):
            critical_p_from_a(a)
    # the family's own tolerance on a still passes
    assert critical_p_from_a(3.0) == 0.0
    assert critical_p_from_a(3.0 + 1e-11) == pytest.approx(0.0, abs=1e-10)
    assert critical_p_from_a(-1e-11) == pytest.approx(0.8)


def test_critical_p_matches_closed_form():
    rng = np.random.default_rng(40)
    for _ in range(10):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
        for parity in ("proper", "improper"):
            p = abcd_from_euler(*angles, parity=parity)
            w = witness_from_params(p)
            assert critical_p(w) == pytest.approx(critical_p_from_a(p.a), abs=1e-12)


def test_critical_p_boundary_behavior():
    # mixture turns PSD exactly at p*, still signed just below
    p = WitnessParams(1.0, 1.0, 1.0, 0.0)
    w = witness_from_params(p)
    pstar = critical_p_from_a(p.a)
    assert np.linalg.eigvalsh(spa_mix(w, pstar))[0] >= -1e-12
    assert np.linalg.eigvalsh(spa_mix(w, 0.99 * pstar))[0] < -1e-4
    assert critical_p(Witness(n=4, operator=np.eye(16))) == 0.0


def test_critical_p_keeps_its_input_checks():
    op = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0)).operator
    nan = op.copy()
    nan[3, 7] = np.nan
    with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
        critical_p(Witness(n=4, operator=nan))
    skew = op.copy()
    skew[0, 5] += 1e-8
    with pytest.raises(ValueError) as exc:
        critical_p(Witness(n=4, operator=skew))
    assert str(exc.value) == "matrix is not Hermitian: max |m - m^dagger| = 1.000e-08"
    with pytest.raises(ValueError, match=r"^witness operator must have shape \(16, 16\) for n = 4, got \(16, 15\)$"):
        critical_p(Witness(n=4, operator=op[:, :15]))
    # a 16 x 16 operator for n = 3 used to read as a witness, with p* = 0.727
    with pytest.raises(ValueError, match=r"^witness operator must have shape \(9, 9\) for n = 3, got \(16, 16\)$"):
        critical_p(Witness(n=3, operator=op))


def test_critical_p_is_exactly_zero_on_psd_operators():
    for scale in (1.0, 2.0**-40, 3.0, 2.0**40):
        assert critical_p(Witness(n=4, operator=scale * np.eye(16))) == 0.0
    assert critical_p(Witness(n=4, operator=np.eye(16, dtype=complex))) == 0.0
    noise = spa_mix(witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0)), 1.0)
    assert critical_p(Witness(n=4, operator=noise)) == 0.0


def test_critical_p_and_spa_mix_need_a_positive_trace():
    # a zero trace would divide to NaN and a negative one would flip the mixture
    for op in (np.zeros((16, 16)), -np.eye(16)):
        w = Witness(n=4, operator=op)
        with pytest.raises(ValueError, match="^witness trace must be positive, got "):
            critical_p(w)
        with pytest.raises(ValueError, match="^witness trace must be positive, got "):
            spa_mix(w, 0.5)


def test_spa3_frozen_slacks():
    assert spa_decompose(WitnessParams(1.0, 1.0, 1.0, 0.0)).slacks == pytest.approx((2.0, 2.0, 1.0))
    assert spa_decompose(WitnessParams(1.0, 1.0, 0.0, 1.0)).slacks == pytest.approx((2.0, 1.0, 2.0))
    assert spa_decompose(WitnessParams(0.0, 1.0, 1.0, 1.0)).slacks == pytest.approx((3.0, 3.0, 3.0))
    assert spa_decompose(WitnessParams(1.0, 0.0, 1.0, 1.0)).slacks == pytest.approx((1.0, 2.0, 2.0))


def test_spa_decompose_reconstructs():
    for sp in special_points():
        res = spa_decompose(sp.params)
        assert res.reconstruction_error < 1e-12
        assert res.spa3_satisfied
        assert res.pairs_separable
        assert res.normalization == pytest.approx(1.0 / (4.0 * (15.0 - 4.0 * sp.params.a)))
        assert_allclose(
            spa_mix(witness_from_params(sp.params), res.p_star),
            res.mixed_operator,
            atol=1e-14,
        )


def test_spa_identity_before_rescaling():
    # W + (3 - a) I = sum of pair terms + diagonal remainder
    rng = np.random.default_rng(41)
    for _ in range(5):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
        p = abcd_from_euler(*angles)
        res = spa_decompose(p)
        total = res.sigma_diag.copy()
        for _, sigma in res.sigma_pairs:
            total += sigma
        w = witness_from_params(p)
        assert_allclose(total, w.operator + (3.0 - p.a) * np.eye(16), atol=1e-12)


def test_spa_pair_terms_ppt():
    res = spa_decompose(WitnessParams(1.0, 1.0, 1.0, 0.0))
    assert len(res.sigma_pairs) == 6
    for (i, j), sigma in res.sigma_pairs:
        assert i < j
        assert np.linalg.eigvalsh(sigma)[0] >= -1e-12
        assert np.linalg.eigvalsh(partial_transpose(sigma, 4, 4))[0] >= -1e-12


def test_pair_support_check_rejects_a_term_off_its_block():
    sigma = _pair_term(0, 1)
    assert _pair_support_ok(sigma, 0, 1)
    # the term's entries at |01>, |10> lie outside the block of the pair (0, 2)
    assert not _pair_support_ok(sigma, 0, 2)


def test_spa_diag_weights_are_slacks():
    p = WitnessParams(1.0, 1.0, 1.0, 0.0)
    res = spa_decompose(p)
    diag = np.diag(res.sigma_diag).real
    slacks = res.slacks
    assert np.max(np.abs(res.sigma_diag - np.diag(diag))) < 1e-15
    for i in range(4):
        assert diag[4 * i + i] == 0.0
        for s in range(1, 4):
            assert diag[4 * i + (i + s) % 4] == pytest.approx(slacks[s - 1])


def test_spa_on_ellipse_grids():
    for cone in ("I", "II"):
        for branch in ("+", "-"):
            for t in np.linspace(0.0, 1.0, 9):
                res = spa_decompose(ellipse_point(cone, t, branch))
                assert res.spa3_satisfied
                assert res.pairs_separable
                assert res.reconstruction_error < 1e-10


def test_printed_critical_p_formula_breaks():
    # transcribed form exceeds 1 at a = 1; corrected form stays physical
    record = next(e for e in ERRATA if e.identifier == "spa-critical-p-sign")
    a = 1.0
    printed = eval(record.printed, {"a": a})
    corrected = eval(record.corrected, {"a": a})
    assert printed == pytest.approx(1.6)
    assert corrected == pytest.approx(8.0 / 11.0)
    assert corrected == pytest.approx(critical_p_from_a(a))


def test_normalization_erratum_consistent():
    record = next(e for e in ERRATA if e.identifier == "spa-normalization-sign")
    a = 1.0
    corrected = eval(record.corrected, {"a": a})
    assert corrected == pytest.approx(1.0 / 44.0)
    printed = eval(record.printed, {"a": a})
    assert printed != pytest.approx(corrected)
