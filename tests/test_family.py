import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewcones import certify, spa
from ewcones.cones import bd_curve, ellipse_point, special_points
from ewcones.errata import ERRATA, errata_ids
from ewcones.family import (
    N3Params,
    WitnessParams,
    abcd_from_euler,
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
    Witness,
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


def test_params_validate_rejects_a_parameter_above_3():
    # the sum and sign rules both pass within their tolerances
    with pytest.raises(ValueError, match="a = 3.000e[+]00 exceeds 3"):
        WitnessParams(3.0 + 2e-10, -6e-11, -6e-11, -6e-11).validate()


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


def test_params_from_witness_reads_a_nested_list_operator():
    # reading .shape of the unconverted list used to raise AttributeError
    p = WitnessParams(1.5, 0.5, 0.25, 0.75)
    back = params_from_witness(Witness(n=4, operator=p.witness.operator.tolist()))
    assert back.as_array().tobytes() == params_from_witness(p.witness).as_array().tobytes()


def test_params_from_witness_checks_n_shape_and_circulance():
    op = witness_from_params(WitnessParams(1.5, 0.5, 0.5, 0.5)).operator
    # a mis-shaped operator is no Witness at all
    for n, bad, shapes in (
        (4, np.eye(9), r"\(16, 16\) for n = 4, got \(9, 9\)"),
        (4, op[:, :15], r"\(16, 16\) for n = 4, got \(16, 15\)"),
        (3, op, r"\(9, 9\) for n = 3, got \(16, 16\)"),
    ):
        with pytest.raises(ValueError, match=rf"^witness operator must have shape {shapes}$"):
            params_from_witness(Witness(n=n, operator=bad))
    with pytest.raises(ValueError, match=r"^expected n=4 and a 16 x 16 operator, got n=3 and shape \(9, 9\)$"):
        params_from_witness(Witness(n=3, operator=np.eye(9)))
    # a NaN deviation compares False against CIRCULANT_TOL, so this used to
    # return parameters; the Witness now rejects it
    nan = op.copy()
    nan[3, 5] = np.nan
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        params_from_witness(Witness(n=4, operator=nan))
    # the cyclic diagonal averages stay valid parameters, so the circulance
    # check decides: an off-diagonal entry and its mirror (a Witness is
    # Hermitian), and two places of a that cancel
    for rows, cols, shifts in (([0, 5], [5, 0], [0.5, 0.5]), ([0, 5], [0, 5], [0.1, -0.1])):
        bad = op.copy()
        bad[rows, cols] += shifts
        with pytest.raises(ValueError, match="^witness is not circulant"):
            params_from_witness(Witness(n=4, operator=bad))


def test_appendix_entries_rejects_a_block_that_is_not_3x3():
    for shape in ((4, 4), (3,), (3, 2)):
        with pytest.raises(ValueError, match="expected a 3 x 3 block"):
            appendix_matrix(np.zeros(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_appendix_entries_rejects_a_block_that_is_not_finite(bad):
    block = np.eye(3)
    block[1, 2] = bad
    with pytest.raises(ValueError, match="block entries must be finite"):
        appendix_matrix(block)
    with pytest.raises(ValueError, match="block entries must be finite"):
        appendix_matrix(np.full((3, 3), bad), corrected=False)


def test_appendix_matches_phi():
    rng = np.random.default_rng(24)
    for _ in range(50):
        block = euler_rotation(*random_angles(rng))
        emb = embedding_from_block(block)
        assert_allclose(appendix_matrix(block), 3.0 * phi_matrix(emb), atol=1e-12)


def test_appendix_printed_coefficient_differs():
    # the one corrected coefficient sits in entry a2, at position (1, 1) of the
    # matrix, and multiplies block[1, 2]
    rng = np.random.default_rng(25)
    block = euler_rotation(*random_angles(rng))
    good = appendix_matrix(block, corrected=True)
    bad = appendix_matrix(block, corrected=False)
    delta = 1.0 / (6.0 * np.sqrt(3.0)) - 1.0 / (6.0 * np.sqrt(2.0))
    assert bad[1, 1] - good[1, 1] == pytest.approx(delta * block[1, 2], abs=1e-13)
    others = np.ones((4, 4), dtype=bool)
    others[1, 1] = False
    assert_allclose(bad[others], good[others], rtol=0, atol=1e-15)


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


def test_construction_validates_with_the_validate_messages():
    member = WitnessParams(1.5, 0.5, 0.5, 0.5)
    bad = {
        (np.nan, 1.0, 1.0, 0.0): "parameters must be finite, got [nan, 1.0, 1.0, 0.0]",
        (np.inf, 1.0, 1.0, 0.0): "parameters must be finite, got [inf, 1.0, 1.0, 0.0]",
        (1.0, -np.inf, 1.0, 0.0): "parameters must be finite, got [1.0, -inf, 1.0, 0.0]",
        (1e200, 0.0, 0.0, 0.0): "parameters must sum to 3, residual 1.000e+200",
        (1.0, 1.0, 1.0, 1.0): "parameters must sum to 3, residual 1.000e+00",
        (2.2, 1.0, 0.0, -0.2): "parameter d = -2.000e-01 is negative",
    }
    for values, message in bad.items():
        with pytest.raises(ValueError) as error:
            WitnessParams(*values)
        assert str(error.value) == message
        # dataclasses.replace builds a new instance, so it is checked the same way
        with pytest.raises(ValueError) as error:
            dataclasses.replace(member, **dict(zip("abcd", values)))
        assert str(error.value) == message
    assert dataclasses.replace(member, b=1.0, d=0.0) == WitnessParams(1.5, 1.0, 0.5, 0.0)


def test_validate_runs_once_per_construction_and_never_in_consumers(monkeypatch):
    calls = []
    checked = WitnessParams.validate

    def counting(self):
        calls.append(self.as_array().tolist())
        checked(self)

    monkeypatch.setattr(WitnessParams, "validate", counting)
    decomposable = WitnessParams(1.0, 0.75, 0.5, 0.75)
    indecomposable = dataclasses.replace(decomposable, b=0.5, d=1.0)
    assert len(calls) == 2
    for params in (decomposable, indecomposable):
        certify.certify_decomposability(params)
        witness_from_params(params)
        spa.spa_decompose(params)
    assert len(calls) == 2
    abcd_from_euler(0.3, 0.9, 2.1, parity="improper")
    assert len(calls) == 3
    w = witness_from_params(decomposable)
    params_from_witness(w)  # one WitnessParams, checked once
    assert calls[-1] == decomposable.as_array().tolist() and len(calls) == 4


@pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
def test_n3_abc_rejects_non_finite_angles_without_warnings(alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            n3_abc(alpha)


def test_each_member_assembles_its_witness_once(witness_assemblies):
    calls = witness_assemblies
    decomposable = WitnessParams(1.0, 0.75, 0.5, 0.75)
    indecomposable = dataclasses.replace(decomposable, b=0.5, d=1.0)
    for params in (decomposable, indecomposable):
        for _ in range(2):
            certify.certify_decomposability(params)
            spa.spa_decompose(params)
            witness_from_params(params)
    assert len(calls) == 2
    # the extracted member carries the witness it was checked against
    extracted = params_from_witness(witness_from_params(decomposable))
    assert len(calls) == 3
    certify.certify_decomposability(extracted)
    spa.spa_decompose(extracted)
    witness_from_params(extracted)
    assert len(calls) == 3


def test_member_witness_is_read_only_and_witness_from_params_copies_it():
    p = abcd_from_euler(0.3, 0.9, 2.1)
    shared = p.witness
    assert p.witness is shared and not shared.operator.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        shared.operator[0, 0] = 0.0
    fresh = witness_from_params(p)
    assert fresh.operator.flags.writeable and fresh.n == 4
    assert not np.shares_memory(fresh.operator, shared.operator)
    assert fresh.operator.tobytes() == shared.operator.tobytes()
    fresh.operator[0, 0] = 7.0
    assert shared.operator[0, 0] == p.a


def all_member_kinds():
    yield abcd_from_euler(0.3, 0.9, 2.1)
    yield abcd_from_euler(0.3, 0.9, 2.1, parity="improper")
    yield ellipse_point("I", 0.25, "-")
    yield bd_curve("II")[7]
    yield special_points()[2].params
    yield params_from_witness(twirl(build_witness(embedding_from_euler(1.2, 2.5, 0.4))))
    yield WitnessParams(1.0, 1.0, 1.0, 0.0)


def test_members_hash_and_their_provenance_cannot_be_written():
    members = list(all_member_kinds())
    for p in members:
        again = WitnessParams(p.a, p.b, p.c, p.d, None if p.provenance is None else dict(p.provenance))
        assert again == p and hash(again) == hash(p)
    assert len(set(members)) == len(members)
    euler = members[0]
    assert euler.provenance == (
        ("kind", "euler"), ("alpha", 0.3), ("beta", 0.9), ("gamma", 2.1), ("parity", "proper")
    )
    with pytest.raises(TypeError):
        euler.provenance["parity"] = "improper"
    with pytest.raises(dataclasses.FrozenInstanceError):
        euler.provenance = {"parity": "improper"}
    assert dict(euler.provenance)["parity"] == "proper"


@pytest.mark.parametrize("round_trip", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy])
def test_members_survive_pickle_and_deepcopy(round_trip):
    for p in all_member_kinds():
        p.witness  # a cached witness is not carried over, so the copy's is read-only too
        back = round_trip(p)
        assert back == p and hash(back) == hash(p) and back.provenance == p.provenance
        assert not back.witness.operator.flags.writeable
        assert back.witness.operator.tobytes() == p.witness.operator.tobytes()


def test_replace_keeps_provenance_and_builds_its_own_witness():
    p = ellipse_point("II", 0.25)
    assert p.b != p.d
    shared = p.witness
    same = dataclasses.replace(p)
    assert same == p and same.provenance == p.provenance
    assert same.witness is not shared and same.witness.operator.tobytes() == shared.operator.tobytes()
    moved = dataclasses.replace(p, b=p.d, d=p.b)
    assert moved.provenance == p.provenance
    swapped = WitnessParams(p.a, p.d, p.c, p.b).witness.operator
    assert moved.witness.operator.tobytes() == swapped.tobytes()
    assert moved.witness.operator.tobytes() != shared.operator.tobytes()
