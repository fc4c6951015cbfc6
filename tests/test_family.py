import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewcones.errata import ERRATA, errata_ids
from ewcones.family import (
    N3Params,
    WitnessParams,
    abcd_from_euler,
    appendix_entries,
    appendix_matrix,
    n3_abc,
    params_from_witness,
    witness_from_params,
)
from ewcones.maps import (
    build_witness,
    embedding_from_block,
    embedding_from_euler,
    euler_rotation,
    phi_matrix,
    twirl,
)


def random_angles(rng):
    return rng.uniform(0.0, 2.0 * np.pi, size=3)


def test_params_validate():
    WitnessParams(1.5, 0.5, 0.5, 0.5).validate()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            WitnessParams(bad, 1.0, 1.0, 0.0).validate()
    with pytest.raises(ValueError, match="sum"):
        WitnessParams(1.0, 1.0, 1.0, 1.0).validate()
    with pytest.raises(ValueError, match="negative"):
        WitnessParams(2.2, 1.0, 0.0, -0.2).validate()


def test_abcd_frozen_points():
    p = abcd_from_euler(0.0, 0.0, 0.0)
    assert_allclose(p.as_array(), [1.5, 0.5, 0.5, 0.5], atol=1e-14)
    p = abcd_from_euler(0.0, np.pi, 0.0)
    assert_allclose(p.as_array(), [0.5, 0.75, 1.0, 0.75], atol=1e-14)


def test_abcd_sum_and_range():
    rng = np.random.default_rng(20)
    for _ in range(200):
        for parity in ("proper", "improper"):
            p = abcd_from_euler(*random_angles(rng), parity=parity)
            p.validate()


def test_improper_is_reflection_of_proper():
    rng = np.random.default_rng(21)
    for _ in range(20):
        al, be, ga = random_angles(rng)
        prop = abcd_from_euler(al, be, ga, "proper").as_array()
        impr = abcd_from_euler(al, be, ga, "improper").as_array()
        assert_allclose(prop + impr, np.full(4, 1.5), atol=1e-13)


def test_abcd_matches_twirled_witness():
    # closed forms against the twirl route, both parities
    rng = np.random.default_rng(22)
    for _ in range(25):
        al, be, ga = random_angles(rng)
        for parity in ("proper", "improper"):
            emb = embedding_from_euler(al, be, ga, parity=parity)
            back = params_from_witness(twirl(build_witness(emb)))
            closed = abcd_from_euler(al, be, ga, parity)
            assert_allclose(back.as_array(), closed.as_array(), atol=1e-10)


def test_abcd_rejects_unknown_parity():
    with pytest.raises(ValueError):
        abcd_from_euler(0.0, 0.0, 0.0, parity="mirror")


def test_witness_from_params_structure():
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    op = w.operator
    assert np.trace(op).real == pytest.approx(12.0)
    # row block 1 diagonal reads (d, a, b, c) at positions 0..3
    assert_allclose(np.diag(op[4:8, 4:8]).real, [0.0, 1.0, 1.0, 1.0], atol=1e-15)
    assert op[0, 5] == pytest.approx(-1.0)


def test_params_witness_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        vals = rng.uniform(0.0, 1.0, size=4)
        vals = 3.0 * vals / vals.sum()
        p = WitnessParams(*vals)
        back = params_from_witness(witness_from_params(p))
        assert_allclose(back.as_array(), p.as_array(), atol=1e-12)


def test_params_from_witness_rejects_non_circulant():
    w = witness_from_params(WitnessParams(1.5, 0.5, 0.5, 0.5))
    op = w.operator.copy()
    op[0, 0] += 0.5
    from ewcones.maps import Witness

    with pytest.raises(ValueError):
        params_from_witness(Witness(n=4, operator=op))


def test_appendix_matches_phi():
    rng = np.random.default_rng(24)
    for _ in range(50):
        block = euler_rotation(*random_angles(rng))
        emb = embedding_from_block(block)
        assert_allclose(appendix_matrix(block), 3.0 * phi_matrix(emb), atol=1e-12)


def test_appendix_printed_coefficient_differs():
    # the one corrected coefficient sits in entry a2 and multiplies block[1, 2]
    rng = np.random.default_rng(25)
    block = euler_rotation(*random_angles(rng))
    good = appendix_entries(block, corrected=True)
    bad = appendix_entries(block, corrected=False)
    delta = 1.0 / (6.0 * np.sqrt(3.0)) - 1.0 / (6.0 * np.sqrt(2.0))
    assert bad["a2"] - good["a2"] == pytest.approx(delta * block[1, 2], abs=1e-13)
    for key in good:
        if key != "a2":
            assert bad[key] == pytest.approx(good[key], abs=1e-15)


def test_errata_ledger_contents():
    ids = errata_ids()
    assert "appendix-a2-r23" in ids
    record = next(e for e in ERRATA if e.identifier == "appendix-a2-r23")
    assert record.printed_value == pytest.approx(1.0 / (6.0 * np.sqrt(3.0)))
    assert record.corrected_value == pytest.approx(1.0 / (6.0 * np.sqrt(2.0)))
    assert record.printed and record.corrected


def test_n3_frozen_values():
    p = n3_abc(0.0)
    assert_allclose([p.a, p.b, p.c], [4.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
    p = n3_abc(2.0 * np.pi / 3.0)
    assert_allclose([p.a, p.b, p.c], [1.0 / 3.0, 1.0 / 3.0, 4.0 / 3.0], atol=1e-14)


def test_n3_product_relation_and_sum():
    for alpha in np.linspace(0.0, 2.0 * np.pi, 101):
        p = n3_abc(alpha)
        assert p.a + p.b + p.c == pytest.approx(2.0, abs=1e-12)
        assert p.b * p.c == pytest.approx((1.0 - p.a) ** 2, abs=1e-12)


def test_n3_matches_phi_route():
    # planar rotation block, same row pairing convention as n = 4
    for alpha in np.linspace(0.0, 2.0 * np.pi, 17):
        s, c = np.sin(alpha), np.cos(alpha)
        block = np.array([[c, -s], [s, c]])
        emb = embedding_from_block(block)
        phi = phi_matrix(emb)
        p = n3_abc(alpha)
        assert_allclose(2.0 * phi[0, :], [p.a, p.b, p.c], atol=1e-12)


def test_n3params_as_array():
    arr = N3Params(1.0, 0.5, 0.5).as_array()
    assert_allclose(arr, [1.0, 0.5, 0.5])
