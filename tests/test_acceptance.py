"""End-to-end acceptance checks with pinned tolerances.

Each test prints one "[criterion N] PASS/FAIL" line (run with -s to see them
inline). Oracles deliberately go through numpy.linalg so library results are
checked against an independent eigensolver.
"""
import contextlib
import csv
import io
import json
import math
import time

import numpy as np

from ewcones.certify import block_positivity_min, certify_decomposability, probe_state
from ewcones.cli import main
from ewcones.cones import (
    AXIS_DIRECTION,
    AXIS_POINT,
    VERTEX_ONE,
    VERTEX_TWO,
    bd_curve,
    cone_residuals,
    ellipse_point,
    sample_cloud,
    special_points,
)
from ewcones.errata import ERRATA, errata_ids
from ewcones.family import (
    WitnessParams,
    abcd_from_euler,
    appendix_matrix,
    n3_abc,
    witness_from_params,
)
from ewcones.gellmann import build_basis
from ewcones.linalg import partial_transpose
from ewcones.maps import (
    build_witness,
    choi_witness,
    embedding_from_block,
    embedding_from_euler,
    euler_rotation,
    map_from_embedding,
    phi_matrix,
    twirl,
)
from ewcones.spa import critical_p, critical_p_from_a, spa_decompose


def _finish(number, problems, note=""):
    suffix = f" ({note})" if note else ""
    if problems:
        print(f"[criterion {number}] FAIL: {problems[0]}{suffix}")
        raise AssertionError(
            f"criterion {number}: {problems[0]} ({len(problems)} issue(s) total)"
        )
    print(f"[criterion {number}] PASS{suffix}")


def test_criterion_01_basis_gram():
    problems = []
    start = time.perf_counter()
    for n in (2, 3, 4):
        basis = build_basis(n)
        flat = basis.elements.reshape(n * n, n * n)
        err = np.max(np.abs(flat.conj() @ flat.T - np.eye(n * n)))
        if err > 1e-12:
            problems.append(f"n={n}: gram deviation {err:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _finish(1, problems, f"{elapsed:.2f}s")


def test_criterion_02_construction_equivalence():
    problems = []
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for k in range(100):
        al, be, ga = rng.uniform(0.0, 2.0 * np.pi, size=3)
        for parity in ("proper", "improper"):
            emb = embedding_from_euler(al, be, ga, parity=parity)
            w_map = choi_witness(map_from_embedding(emb))
            w_phi = build_witness(emb)
            d1 = np.linalg.norm(w_map.operator - w_phi.operator)
            w_closed = witness_from_params(abcd_from_euler(al, be, ga, parity))
            d2 = np.linalg.norm(twirl(w_phi).operator - w_closed.operator)
            worst = max(worst, d1, d2)
            if max(d1, d2) > 1e-10 and len(problems) < 5:
                problems.append(f"triple {k} {parity}: discrepancy {max(d1, d2):.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _finish(2, problems, f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_pretwirl_audit_and_errata():
    problems = []
    rng = np.random.default_rng(3)
    worst = 0.0
    worst_printed = 0.0
    for _ in range(100):
        block = euler_rotation(*rng.uniform(0.0, 2.0 * np.pi, size=3))
        target = 3.0 * phi_matrix(embedding_from_block(block))
        worst = max(worst, np.max(np.abs(appendix_matrix(block) - target)))
        worst_printed = max(
            worst_printed,
            np.max(np.abs(appendix_matrix(block, corrected=False) - target)),
        )
    if worst > 1e-10:
        problems.append(f"corrected entries deviate by {worst:.2e}")
    if worst_printed < 1e-4:
        problems.append("uncorrected entries pass the audit; erratum is vacuous")
    ids = errata_ids()
    if "appendix-a2-r23" not in ids:
        problems.append("coefficient correction record missing from ledger")
    print("  errata ledger:")
    for e in ERRATA:
        print(f"    {e.identifier}: {e.printed} -> {e.corrected}")
        if not (e.printed and e.corrected):
            problems.append(f"{e.identifier} lacks printed/corrected forms")
    rec = next(e for e in ERRATA if e.identifier == "appendix-a2-r23")
    if abs(rec.printed_value - 1.0 / (6.0 * math.sqrt(3.0))) > 1e-15:
        problems.append("recorded printed value wrong")
    if abs(rec.corrected_value - 1.0 / (6.0 * math.sqrt(2.0))) > 1e-15:
        problems.append("recorded corrected value wrong")
    _finish(3, problems, f"audit worst {worst:.2e}")


def test_criterion_04_cone_law():
    problems = []
    rng = np.random.default_rng(4)
    worst = 0.0
    for parity in ("proper", "improper"):
        for _ in range(10**4):
            p = abcd_from_euler(*rng.uniform(0.0, 2.0 * np.pi, size=3), parity=parity)
            rep = cone_residuals(p)
            near = min(abs(rep.residual_one), abs(rep.residual_two))
            worst = max(worst, near)
            if near > 1e-8 and len(problems) < 5:
                problems.append(f"{parity} sample off both cones by {near:.2e}")
            if not (1.0 - 1e-8 <= rep.plane_coordinate <= 2.0 + 1e-8) and len(problems) < 5:
                problems.append(f"{parity} sample outside slab: b+d={rep.plane_coordinate}")
    vertex_one = WitnessParams(1.0, *VERTEX_ONE)
    vertex_two = WitnessParams(0.5, *VERTEX_TWO)
    if abs(cone_residuals(vertex_one).residual_one) > 1e-12:
        problems.append("cone I vertex residual nonzero")
    if abs(cone_residuals(vertex_two).residual_two) > 1e-12:
        problems.append("cone II vertex residual nonzero")
    _finish(4, problems, f"worst residual {worst:.2e}")


def test_criterion_05_special_points():
    problems = []
    stated = {"i": "II", "ii": "II", "iii": "I", "iv": "I"}
    planes = {"I": 2.0, "II": 1.0}
    for sp in special_points():
        ellipse = stated[sp.label]
        rep = cone_residuals(sp.params)
        res = rep.residual_one if ellipse == "I" else rep.residual_two
        member = rep.on_cone_one if ellipse == "I" else rep.on_cone_two
        if abs(res) > 1e-12 or not member:
            problems.append(f"point ({sp.label}) misses cone {ellipse}")
        if abs(rep.plane_coordinate - planes[ellipse]) > 1e-12:
            problems.append(f"point ({sp.label}) off the ellipse plane")
    rep = cone_residuals(WitnessParams(2.0, 1.0, 0.0, 0.0))
    if not (abs(rep.residual_one) > 0.1 and abs(rep.residual_two) > 0.1):
        problems.append("non-family point not rejected")
    _finish(5, problems)


def _cone_sample():
    points = []
    for cone in ("I", "II"):
        for branch in ("+", "-"):
            for k in range(130):
                points.append(ellipse_point(cone, (k + 0.5) / 130.0, branch))
            for t in (0.0, 1.0):
                points.append(ellipse_point(cone, t, branch))
        points.extend(bd_curve(cone))
        for b, c, d in sample_cloud(cone, 12):
            points.append(WitnessParams(3.0 - b - c - d, b, c, d))
    points.extend(sp.params for sp in special_points())
    return points


def test_criterion_06_decomposability_iff():
    problems = []
    start = time.perf_counter()
    points = _cone_sample()
    if len(points) < 1000:
        problems.append(f"sample holds only {len(points)} points")
    counts = {"decomposable": 0, "indecomposable": 0}
    for idx, p in enumerate(points):
        if len(problems) >= 5:
            break
        cert = certify_decomposability(p, tol=1e-9)
        expected = "decomposable" if abs(p.b - p.d) <= 1e-9 else "indecomposable"
        counts[cert.verdict] += 1
        if cert.verdict != expected:
            problems.append(f"point {idx}: verdict {cert.verdict}, expected {expected}")
            continue
        if cert.verdict == "indecomposable":
            if not cert.pairing_value <= -1e-10:
                problems.append(f"point {idx}: pairing {cert.pairing_value:.2e} not negative enough")
            probe = probe_state(cert.epsilon)
            if (
                np.linalg.eigvalsh(probe.state)[0] < -1e-12
                or np.linalg.eigvalsh(partial_transpose(probe.state, 4, 4))[0] < -1e-12
            ):
                problems.append(f"point {idx}: probe fails independent PPT check")
        else:
            w = witness_from_params(p)
            err = np.max(np.abs(w.operator - cert.p_op - partial_transpose(cert.q_op, 4, 4)))
            if err > 1e-10:
                problems.append(f"point {idx}: split reconstruction error {err:.2e}")
            if (
                np.linalg.eigvalsh(cert.p_op)[0] < -1e-10
                or np.linalg.eigvalsh(cert.q_op)[0] < -1e-10
            ):
                problems.append(f"point {idx}: split parts not PSD")
            closed = np.sort([0.0, 4.0 * (1.0 - p.b), 2.0 * (2.0 - p.b - p.c), 2.0 * (2.0 - p.b - p.c)])
            if np.max(np.abs(np.sort(cert.a_eigenvalues) - closed)) > 1e-10:
                problems.append(f"point {idx}: gram spectrum off closed form")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 60s")
    note = f"{len(points)} points, {counts['decomposable']}/{counts['indecomposable']} dec/indec, {elapsed:.1f}s"
    _finish(6, problems, note)


def test_criterion_07_block_positivity():
    problems = []
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    members = []
    for _ in range(10):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
        members.append(abcd_from_euler(*angles, parity="proper"))
        members.append(abcd_from_euler(*angles, parity="improper"))
    floor = 0.0
    for idx, p in enumerate(members):
        val = block_positivity_min(witness_from_params(p), restarts=64, seed=idx)
        floor = min(floor, val)
        if val < -1e-9 and len(problems) < 5:
            problems.append(f"member {idx}: see-saw minimum {val:.2e}")
    reduction = block_positivity_min(
        witness_from_params(WitnessParams(0.0, 1.0, 1.0, 1.0)), restarts=64, seed=0
    )
    if abs(reduction) > 1e-8:
        problems.append(f"reduction witness minimum {reduction:.2e}, expected 0")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 30s")
    _finish(7, problems, f"floor {floor:.2e}, {elapsed:.1f}s")


def _bisect_pstar(w):
    op = w.operator / np.trace(w.operator).real
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        mixed = (1.0 - mid) * op + mid * np.eye(16) / 16.0
        if np.linalg.eigvalsh(mixed)[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_criterion_08_spa():
    problems = []
    rng = np.random.default_rng(8)
    sample = [sp.params for sp in special_points()]
    for _ in range(10):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
        sample.append(abcd_from_euler(*angles, parity="proper"))
        sample.append(abcd_from_euler(*angles, parity="improper"))
    for idx, p in enumerate(sample):
        w = witness_from_params(p)
        closed = critical_p_from_a(p.a)
        if abs(_bisect_pstar(w) - closed) > 1e-12 and len(problems) < 5:
            problems.append(f"member {idx}: bisection disagrees with closed form")
        if abs(critical_p(w) - closed) > 1e-12 and len(problems) < 5:
            problems.append(f"member {idx}: library p* disagrees with closed form")
    pinned = witness_from_params(WitnessParams(0.0, 1.0, 1.0, 1.0))
    if abs(_bisect_pstar(pinned) - 0.8) > 1e-12:
        problems.append("p* at the a=0 member is not 0.8")
    for cone in ("I", "II"):
        for branch in ("+", "-"):
            for t in np.linspace(0.0, 1.0, 26):
                if len(problems) >= 5:
                    break
                res = spa_decompose(ellipse_point(cone, t, branch))
                if np.linalg.eigvalsh(res.mixed_operator)[0] < -1e-12:
                    problems.append(f"ellipse {cone}{branch} t={t:.2f}: mixture not PSD")
                if res.reconstruction_error > 1e-10:
                    problems.append(f"ellipse {cone}{branch} t={t:.2f}: split error {res.reconstruction_error:.2e}")
                if min(res.slacks) < -1e-10:
                    problems.append(f"ellipse {cone}{branch} t={t:.2f}: diagonal remainder signed")
                for (i, j), sigma in res.sigma_pairs:
                    if (
                        np.linalg.eigvalsh(sigma)[0] < -1e-12
                        or np.linalg.eigvalsh(partial_transpose(sigma, 4, 4))[0] < -1e-12
                    ):
                        problems.append(f"pair ({i},{j}) not PPT")
    record = next(e for e in ERRATA if e.identifier == "spa-critical-p-sign")
    transcribed = eval(record.printed, {"a": 1.0})
    if not (transcribed > 1.0 and abs(transcribed - 1.6) < 1e-12):
        problems.append("transcribed critical-p form does not exceed 1 at a=1")
    _finish(8, problems)


def test_criterion_09_planar_regression():
    problems = []
    for alpha in np.linspace(0.0, 2.0 * np.pi, 1000):
        if len(problems) >= 5:
            break
        p = n3_abc(alpha)
        if abs(p.b * p.c - (1.0 - p.a) ** 2) > 1e-12:
            problems.append(f"alpha={alpha:.3f}: product relation violated")
        if not 0.0 <= p.a < 2.0:
            problems.append(f"alpha={alpha:.3f}: a={p.a} out of range")
        if p.a + p.b + p.c < 2.0 - 1e-12:
            problems.append(f"alpha={alpha:.3f}: sum below 2")
        if p.a <= 1.0 and p.b * p.c < (1.0 - p.a) ** 2 - 1e-12:
            problems.append(f"alpha={alpha:.3f}: third positivity condition violated")
        if min(p.a, p.b, p.c) < -1e-13:
            problems.append(f"alpha={alpha:.3f}: negative parameter")
    _finish(9, problems)


def test_criterion_10_figure_data(tmp_path):
    problems = []
    out = tmp_path / "cloud.csv"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([
            "geometry", "--cone", "both", "--resolution", "16",
            "--format", "csv", "--out", str(out),
        ])
    if code != 0:
        problems.append(f"geometry command exited {code}")
    record = json.loads(buffer.getvalue())
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != record["outputs"]["rows"]:
        problems.append("row count disagrees with run record")
    cone_of = {
        "I": "I", "II": "II", "bd-I": "I", "bd-II": "II",
        "special-i": "II", "special-ii": "II", "special-iii": "I", "special-iv": "I",
    }
    worst = 0.0
    for row in rows:
        b, c, d = float(row["b"]), float(row["c"]), float(row["d"])
        cross = 4 * b * c + 4 * c * d - 2 * b * d
        if cone_of[row["tag"]] == "I":
            res = (b - 2) ** 2 + (2 * c - 3) ** 2 + (d - 2) ** 2 + cross - 9.0
        else:
            res = (b - 1) ** 2 + (2 * c - 3) ** 2 + (d - 1) ** 2 + cross - 6.0
        worst = max(worst, abs(res))
        if abs(res) > 1e-9 and len(problems) < 5:
            problems.append(f"row {row}: residual {res:.2e}")
    axis_unit = AXIS_DIRECTION / np.linalg.norm(AXIS_DIRECTION)

    def axis_distance(point):
        rel = np.asarray(point) - AXIS_POINT
        return np.linalg.norm(rel - (rel @ axis_unit) * axis_unit)

    for vertex in (VERTEX_ONE, VERTEX_TWO):
        if axis_distance(vertex) > 1e-9:
            problems.append("vertex off the shared axis")
    for cone, plane in (("I", 2.0), ("II", 1.0)):
        base = [
            np.array([float(r["b"]), float(r["c"]), float(r["d"])])
            for r in rows
            if r["tag"] == cone and abs(float(r["b"]) + float(r["d"]) - plane) < 1e-12
        ]
        if len(base) != 16:
            problems.append(f"cone {cone}: expected 16 base rows, found {len(base)}")
            continue
        for k in range(8):
            midpoint = (base[k] + base[k + 8]) / 2.0
            if axis_distance(midpoint) > 1e-9:
                problems.append(f"cone {cone}: antipodal midpoint {k} off axis")
    _finish(10, problems, f"worst residual {worst:.2e}")
