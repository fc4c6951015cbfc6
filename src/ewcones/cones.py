"""Quadric cone geometry of the circulant witness family in (b, c, d) space.

The family traces out two coaxial quadric cones bounded by the planes
b + d = 1 and b + d = 2. Each cone's apex sits in the other cone's boundary
plane, the common axis runs through both apexes, and the two surfaces meet
in an ellipse inside the mid plane b + d = 3/2. Points with b = d are the
decomposable members and form two straight generator lines on each cone.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .family import DECISION_TOL, WitnessParams, _require_tol

__all__ = [
    "AXIS_DIRECTION",
    "AXIS_POINT",
    "ConeReport",
    "SpecialPoint",
    "VERTEX_ONE",
    "VERTEX_TWO",
    "bd_curve",
    "cone_residuals",
    "ellipse_point",
    "product_relations",
    "sample_cloud",
    "special_points",
]

BD_CURVE_SAMPLES = 51

VERTEX_ONE = np.array([0.5, 1.0, 0.5])
VERTEX_TWO = np.array([1.0, 0.5, 1.0])
AXIS_POINT = VERTEX_ONE
AXIS_DIRECTION = np.array([1.0, -1.0, 1.0])
for _point in (VERTEX_ONE, VERTEX_TWO, AXIS_DIRECTION):
    # shared by every caller (AXIS_POINT is VERTEX_ONE), so a write must not leak
    _point.flags.writeable = False


def _require_cone(cone: str) -> None:
    if cone not in ("I", "II"):
        raise ValueError(f"unknown cone {cone!r}, expected 'I' or 'II'")


@dataclass(frozen=True)
class ConeReport:
    """Residuals and the cone, intersection and boundary-ellipse verdicts at one point and tol."""

    residual_one: float
    residual_two: float
    plane_coordinate: float
    on_cone_one: bool
    on_cone_two: bool
    on_intersection: bool
    on_ellipse_one: bool
    on_ellipse_two: bool
    tol: float


def cone_residuals(params: WitnessParams, tol: float = DECISION_TOL) -> ConeReport:
    """Evaluate both quadric equations and the slab constraint at a point.

    Raises ValueError unless tol is finite and non-negative, as certify does.
    """
    _require_tol(tol)
    b, c, d = params.b, params.c, params.d
    cross = 4 * b * c + 4 * c * d - 2 * b * d
    res1 = (b - 2) ** 2 + (2 * c - 3) ** 2 + (d - 2) ** 2 + cross - 9.0
    res2 = (b - 1) ** 2 + (2 * c - 3) ** 2 + (d - 1) ** 2 + cross - 6.0
    plane = b + d
    in_slab = (1.0 - tol) <= plane <= (2.0 + tol)
    on1 = abs(res1) <= tol and in_slab
    on2 = abs(res2) <= tol and in_slab
    return ConeReport(
        residual_one=float(res1),
        residual_two=float(res2),
        plane_coordinate=float(plane),
        on_cone_one=on1,
        on_cone_two=on2,
        on_intersection=on1 and on2 and abs(plane - 1.5) <= tol,
        on_ellipse_one=on1 and abs(plane - 2.0) <= tol,
        on_ellipse_two=on2 and abs(plane - 1.0) <= tol,
        tol=tol,
    )


def ellipse_point(cone: str, t: float, branch: str = "+") -> WitnessParams:
    """Point on a cone's boundary ellipse, parameterized by t in [0, 1].

    Cone I's ellipse lives in the plane b + d = 2 with c = t; cone II's in
    b + d = 1 with d = t. branch picks the sign of the square-root offset.
    """
    _require_cone(cone)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    sign = 1.0 if branch == "+" else -1.0
    root = np.sqrt(t * (1.0 - t))
    if cone == "I":
        a, b, c, d = 1.0 - t, 1.0 + sign * root, t, 1.0 - sign * root
    else:
        a, b, c, d = 1.0 + sign * root, 1.0 - t, 1.0 - sign * root, t
    provenance = {"kind": "ellipse", "cone": cone, "t": float(t), "branch": branch}
    return WitnessParams(float(a), float(b), float(c), float(d), provenance)


def product_relations(params: WitnessParams) -> tuple[float, float]:
    """Residuals of bd = (1-a)^2 and ac = (1-b)^2.

    The first vanishes on cone II's boundary ellipse, the second on cone I's.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    return (float(b * d - (1 - a) ** 2), float(a * c - (1 - b) ** 2))


@dataclass(frozen=True)
class SpecialPoint:
    """Named family member with its ellipse membership annotated."""

    label: str
    params: WitnessParams
    ellipse: str
    plane: float


def special_points() -> tuple[SpecialPoint, ...]:
    """The four distinguished members sitting on the boundary ellipses."""
    def mk(label, a, b, c, d, ellipse, plane):
        p = WitnessParams(a, b, c, d, {"kind": "special", "label": label})
        return SpecialPoint(label=label, params=p, ellipse=ellipse, plane=plane)

    return (
        mk("i", 1.0, 1.0, 1.0, 0.0, "II", 1.0),
        mk("ii", 1.0, 0.0, 1.0, 1.0, "II", 1.0),
        mk("iii", 0.0, 1.0, 1.0, 1.0, "I", 2.0),
        mk("iv", 1.0, 1.0, 0.0, 1.0, "I", 2.0),
    )


def _base_circle(cone: str, s: np.ndarray) -> np.ndarray:
    # boundary circles: cone I in b+d=2, cone II in b+d=1, radius 1/2
    if cone == "I":
        d = 1.0 + 0.5 * np.cos(s)
        c = 0.5 + 0.5 * np.sin(s)
        b = 2.0 - d
    else:
        c = 1.0 + 0.5 * np.cos(s)
        d = 0.5 + 0.5 * np.sin(s)
        b = 1.0 - d
    return np.stack([b, c, d], axis=-1)


def sample_cloud(cone: str, resolution: int) -> np.ndarray:
    """Sample one cone surface along vertex-to-base segments.

    Returns an (N, 3) array of (b, c, d) rows: the vertex once, then
    resolution equally spaced base directions, each sampled at resolution
    fractions of the way from vertex to base (excluding the vertex itself).
    resolution 2 gives exactly the vertex plus the two base points.
    """
    _require_cone(cone)
    try:
        operator.index(resolution)
    except TypeError:
        # numpy's linspace message names neither the argument nor its value
        raise ValueError(f"resolution must be an integer, got {resolution!r}") from None
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    vertex = VERTEX_ONE if cone == "I" else VERTEX_TWO
    fractions = np.linspace(0.0, 1.0, resolution)[1:]
    base = _base_circle(cone, 2.0 * np.pi * np.arange(resolution) / resolution)
    rows = vertex + fractions[None, :, None] * (base - vertex)[:, None, :]
    return np.concatenate([vertex[None, :], rows.reshape(-1, 3)])


def bd_curve(cone: str) -> list[WitnessParams]:
    """Decomposable members (b = d) on one cone: BD_CURVE_SAMPLES on each generator line."""
    _require_cone(cone)
    out: list[WitnessParams] = []
    us = np.linspace(0.5, 1.0, BD_CURVE_SAMPLES)
    if cone == "I":
        for u in us:
            out.append(_bd_point(cone, 2.0 - 2.0 * u, u, 1.0))
        for cc in np.linspace(0.0, 1.0, BD_CURVE_SAMPLES):
            out.append(_bd_point(cone, 1.0, (2.0 - cc) / 2.0, cc))
    else:
        for u in us:
            out.append(_bd_point(cone, 2.5 - 2.0 * u, u, 0.5))
        for cc in np.linspace(0.5, 1.5, BD_CURVE_SAMPLES):
            out.append(_bd_point(cone, 0.5, (5.0 - 2.0 * cc) / 4.0, cc))
    return out


def _bd_point(cone: str, a: float, b: float, c: float) -> WitnessParams:
    return WitnessParams(
        float(a), float(b), float(c), float(b),
        {"kind": "bd-line", "cone": cone},
    )
