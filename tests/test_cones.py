import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewcones.cones import (
    AXIS_DIRECTION,
    AXIS_POINT,
    BD_CURVE_SAMPLES,
    VERTEX_ONE,
    VERTEX_TWO,
    bd_curve,
    cone_residuals,
    ellipse_point,
    product_relations,
    sample_cloud,
    special_points,
)
from ewcones.family import WitnessParams


def params_from_bcd(b, c, d):
    return WitnessParams(3.0 - b - c - d, b, c, d)


def residual(cone, params):
    rep = cone_residuals(params)
    return rep.residual_one if cone == "I" else rep.residual_two


def test_vertices_on_own_cone():
    p1 = params_from_bcd(*VERTEX_ONE)
    p2 = params_from_bcd(*VERTEX_TWO)
    r1 = cone_residuals(p1)
    r2 = cone_residuals(p2)
    assert abs(r1.residual_one) < 1e-12 and r1.on_cone_one
    assert abs(r2.residual_two) < 1e-12 and r2.on_cone_two
    # each vertex sits strictly inside the other quadric
    assert r1.residual_two == pytest.approx(-1.0)
    assert r2.residual_one == pytest.approx(-1.0)


def test_slab_gates_membership():
    # on the quadric extended past the base plane: residual zero, not a member
    p = params_from_bcd(0.5, 0.0, 2.5)
    rep = cone_residuals(p)
    assert abs(rep.residual_one) < 1e-12
    assert rep.plane_coordinate == pytest.approx(3.0)
    assert not rep.on_cone_one


def test_intersection_point():
    rep = cone_residuals(WitnessParams(0.5, 0.75, 1.0, 0.75))
    assert abs(rep.residual_one) < 1e-12
    assert abs(rep.residual_two) < 1e-12
    assert rep.on_intersection


def test_ellipse_points_on_cone():
    for cone, plane in (("I", 2.0), ("II", 1.0)):
        for branch in ("+", "-"):
            for t in np.linspace(0.0, 1.0, 41):
                p = ellipse_point(cone, t, branch)
                p.validate()
                rep = cone_residuals(p)
                assert abs(residual(cone, p)) < 1e-12
                assert rep.plane_coordinate == pytest.approx(plane, abs=1e-12)


def test_ellipse_product_relations():
    # bd = (1-a)^2 on ellipse II, ac = (1-b)^2 on ellipse I
    for t in np.linspace(0.0, 1.0, 21):
        on_two = product_relations(ellipse_point("II", t))[0]
        on_one = product_relations(ellipse_point("I", t))[1]
        assert abs(on_two) < 1e-12
        assert abs(on_one) < 1e-12
    off = product_relations(WitnessParams(0.5, 1.0, 0.5, 1.0))
    assert abs(off[0]) > 1e-3


def test_ellipse_point_validation():
    with pytest.raises(ValueError):
        ellipse_point("I", 1.5)
    with pytest.raises(ValueError):
        ellipse_point("I", 0.5, branch="x")
    with pytest.raises(ValueError):
        ellipse_point("III", 0.5)


def test_special_points_frozen():
    pts = {sp.label: sp for sp in special_points()}
    assert_allclose(pts["i"].params.as_array(), [1, 1, 1, 0])
    assert_allclose(pts["ii"].params.as_array(), [1, 0, 1, 1])
    assert_allclose(pts["iii"].params.as_array(), [0, 1, 1, 1])
    assert_allclose(pts["iv"].params.as_array(), [1, 1, 0, 1])
    for sp in pts.values():
        assert abs(residual(sp.ellipse, sp.params)) < 1e-12
        rep = cone_residuals(sp.params)
        assert rep.plane_coordinate == pytest.approx(sp.plane)


def test_family_outlier_rejected():
    rep = cone_residuals(WitnessParams(2.0, 1.0, 0.0, 0.0))
    assert abs(rep.residual_one) > 0.1
    assert abs(rep.residual_two) > 0.1
    assert not rep.on_cone_one and not rep.on_cone_two


def test_sample_cloud_shapes_and_residuals():
    for cone in ("I", "II"):
        cloud = sample_cloud(cone, 2)
        assert cloud.shape == (3, 3)
        assert_allclose(cloud[0], VERTEX_ONE if cone == "I" else VERTEX_TWO)
        cloud = sample_cloud(cone, 12)
        assert cloud.shape == (1 + 12 * 11, 3)
        for b, c, d in cloud:
            p = params_from_bcd(b, c, d)
            p.validate()
            rep = cone_residuals(p)
            assert abs(residual(cone, p)) < 1e-9
            assert 1.0 - 1e-12 <= rep.plane_coordinate <= 2.0 + 1e-12


def test_sample_cloud_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        sample_cloud("I", 1)


def test_bd_curve_on_cone_with_equal_bd():
    for cone in ("I", "II"):
        pts = bd_curve(cone)
        assert len(pts) == 102
        for p in pts:
            p.validate()
            assert p.b == pytest.approx(p.d, abs=1e-14)
            assert abs(residual(cone, p)) < 1e-12
    # default grids include the shared intersection member
    hits = [p for p in bd_curve("I") if abs(p.b - 0.75) < 1e-12 and abs(p.c - 1.0) < 1e-12]
    assert hits


def test_bd_curve_sample_count_is_fixed():
    for cone in ("I", "II"):
        assert len(bd_curve(cone)) == 2 * BD_CURVE_SAMPLES
    with pytest.raises(TypeError):
        bd_curve("I", 9)


def test_axis_carries_both_vertices_and_centers():
    u = AXIS_DIRECTION / np.linalg.norm(AXIS_DIRECTION)

    def axis_distance(point):
        rel = np.asarray(point) - AXIS_POINT
        return np.linalg.norm(rel - (rel @ u) * u)

    assert axis_distance(VERTEX_ONE) < 1e-14
    assert axis_distance(VERTEX_TWO) < 1e-14
    # midpoints of antipodal base-circle pairs fall back onto the axis
    for cone in ("I", "II"):
        res = 8
        cloud = sample_cloud(cone, res)
        plane = 2.0 if cone == "I" else 1.0
        base = np.array([row for row in cloud if abs(row[0] + row[2] - plane) < 1e-12])
        assert len(base) == res
        for k in range(res // 2):
            mid = (base[k] + base[k + res // 2]) / 2.0
            assert axis_distance(mid) < 1e-12


def test_cone_name_normalization():
    assert sample_cloud("II", 2).shape == (3, 3)
    assert sample_cloud("I", 2)[0] == pytest.approx(VERTEX_ONE)
    for alias in ("IV", "ii", "1", "ONE", "2", "TWO", " I", "II "):
        with pytest.raises(ValueError, match="unknown cone"):
            sample_cloud(alias, 2)
        with pytest.raises(ValueError, match="unknown cone"):
            bd_curve(alias)
