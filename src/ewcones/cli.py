"""Command line front end.

Four subcommands: classify (cone membership, decomposability certificate,
block positivity evidence), geometry (surface point clouds), spa (critical
noise mixture with separable split), detect (pair a witness with a state).
Every run prints one JSON run record to stdout. Exit codes: 0 success,
2 usage, 3 validation failure, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
from collections import Counter
from contextlib import contextmanager

import numpy as np

from . import __version__
from .certify import DECISION_TOL, block_positivity_min, certify_decomposability, detect
from .cones import ConeReport, bd_curve, sample_cloud, special_points
from .family import WitnessParams, abcd_from_euler, witness_from_params
from .spa import spa_decompose

__all__ = ["main", "matrix_from_pairs", "matrix_to_pairs"]

DEFAULT_SEED = 0
MAX_RESTARTS = 4096
MAX_RESOLUTION = 512


class CommandError(Exception):
    """Failure with a machine readable kind and a process exit code."""

    def __init__(self, kind: str, message: str, code: int):
        super().__init__(message)
        self.kind = kind
        self.code = code


def matrix_to_pairs(m: np.ndarray) -> list:
    """Encode a complex matrix as a flat row-major list of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[float(v.real), float(v.imag)] for v in m.reshape(-1)]


def matrix_from_pairs(data) -> np.ndarray:
    """Decode [re, im] pairs of a 16 x 16 matrix, nested or a flat list of 256."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        # a JSON object, a string or a ragged list has no numeric shape
        got = "data that is not a numeric array"
    else:
        if arr.shape == (256, 2):
            arr = arr.reshape(16, 16, 2)
        if arr.shape == (16, 16, 2):
            return arr[..., 0] + 1j * arr[..., 1]
        got = f"shape {arr.shape}"
    raise ValueError(f"expected 16x16 [re, im] pairs (flat or nested), got {got}")


def _add_witness_args(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--euler", nargs="+", metavar="ANGLE",
        help="three Euler angles, space or comma separated",
    )
    group.add_argument(
        "--params", nargs="+", metavar="VALUE",
        help="four circulant parameters summing to 3, space or comma separated",
    )
    sub.add_argument(
        "--parity", choices=("proper", "improper"), default="proper",
        help="orientation of the rotation block (with --euler)",
    )
    sub.add_argument(
        "--degrees", action="store_true", help="read Euler angles as degrees"
    )


def _parse_floats(tokens: list[str], count: int, flag: str) -> list[float]:
    # tokens may mix space and comma separation
    values: list[float] = []
    for token in tokens:
        for piece in str(token).split(","):
            if not piece:
                continue
            try:
                values.append(float(piece))
            except ValueError:
                raise CommandError("usage", f"{flag} expects numbers, got {piece!r}", 2) from None
    if len(values) != count:
        raise CommandError("usage", f"{flag} expects {count} values, got {len(values)}", 2)
    return values


def _require_between(flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise CommandError("usage", f"{flag} must be between {lo} and {hi}, got {value}", 2)


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise CommandError("usage", f"--tol must be finite and positive, got {tol}", 2)


def _resolve_params(args: argparse.Namespace) -> WitnessParams:
    if args.euler is not None:
        angles = _parse_floats(args.euler, 3, "--euler")
        args.euler = angles
        if args.degrees:
            angles = [math.radians(x) for x in angles]
        params = abcd_from_euler(angles[0], angles[1], angles[2], parity=args.parity)
    else:
        values = _parse_floats(args.params, 4, "--params")
        args.params = values
        params = WitnessParams(*values)
    params.validate()
    return params


def _dumps(record: dict) -> str:
    # strict JSON: a NaN or infinity raises ValueError instead of printing
    return json.dumps(record, indent=2, allow_nan=False)


def _run_record(command, inputs, outputs, errata, seed) -> str:
    """The serialized run record: the one text printed and written to --out."""
    return _dumps({
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "errata_applied": list(errata),
        "tool_version": __version__,
        "seed": seed,
    })


@contextmanager
def _open_out(path: str):
    """Text file for --out; failing to open or write it is exit 4."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise CommandError("io", f"cannot write {path}: {exc}", 4) from None


def _witness_inputs(args: argparse.Namespace) -> dict:
    return {
        "euler": list(args.euler) if args.euler is not None else None,
        "parity": args.parity if args.euler is not None else None,
        "degrees": bool(args.degrees),
        "params": list(args.params) if args.params is not None else None,
    }


def _params_payload(params: WitnessParams) -> dict:
    return {"a": params.a, "b": params.b, "c": params.c, "d": params.d}


def _cones_payload(report: ConeReport) -> dict:
    tol = report.tol
    return {
        "residual_one": report.residual_one,
        "residual_two": report.residual_two,
        "plane_coordinate": report.plane_coordinate,
        "on_cone_one": report.on_cone_one,
        "on_cone_two": report.on_cone_two,
        "on_intersection": report.on_intersection,
        "on_ellipse_one": report.on_cone_one and abs(report.plane_coordinate - 2.0) <= tol,
        "on_ellipse_two": report.on_cone_two and abs(report.plane_coordinate - 1.0) <= tol,
    }


def _certificate_payload(cert) -> dict:
    out = {
        "verdict": cert.verdict,
        "tolerance": cert.tolerance,
        "on_cone": cert.on_cone,
        "warning": cert.warning,
    }
    if cert.verdict == "indecomposable":
        lo, hi = cert.epsilon_interval
        out["epsilon"] = cert.epsilon
        out["pairing_value"] = cert.pairing_value
        # null upper endpoint means unbounded
        out["epsilon_interval"] = [lo, None if math.isinf(hi) else hi]
        out["probe_matrix"] = matrix_to_pairs(cert.probe.state)
    else:
        out["a_eigenvalues"] = [float(v) for v in cert.a_eigenvalues]
        out["p_psd"] = cert.p_psd
        out["q_psd"] = cert.q_psd
        out["reconstruction_error"] = cert.reconstruction_error
        out["p_matrix"] = matrix_to_pairs(cert.p_op)
        out["q_matrix"] = matrix_to_pairs(cert.q_op)
    return out


def _cmd_classify(args: argparse.Namespace) -> str:
    _require_between("--restarts", args.restarts, 1, MAX_RESTARTS)
    _require_tol(args.tol)
    params = _resolve_params(args)
    cert = certify_decomposability(params, tol=args.tol)
    w = witness_from_params(params)
    value = block_positivity_min(w, restarts=args.restarts, seed=args.seed)
    outputs = {
        "params": _params_payload(params),
        "provenance": params.provenance,
        "cones": _cones_payload(cert.cones),
        "certificate": _certificate_payload(cert),
        "block_positivity": {
            "value": value,
            "restarts": args.restarts,
            "seed": args.seed,
            "note": "seeded see-saw search, evidence only",
        },
    }
    inputs = _witness_inputs(args)
    inputs["tol"] = args.tol
    inputs["restarts"] = args.restarts
    return _run_record("classify", inputs, outputs, [], args.seed)


def _geometry_rows(cones: tuple[str, ...], resolution: int) -> list[tuple]:
    rows: list[tuple] = []
    for cone in cones:
        for b, c, d in sample_cloud(cone, resolution):
            rows.append((float(b), float(c), float(d), cone))
    for cone in cones:
        for p in bd_curve(cone):
            rows.append((p.b, p.c, p.d, f"bd-{cone}"))
    for sp in special_points():
        if sp.ellipse in cones:
            rows.append((sp.params.b, sp.params.c, sp.params.d, f"special-{sp.label}"))
    return rows


def _cmd_geometry(args: argparse.Namespace) -> str:
    _require_between("--resolution", args.resolution, 2, MAX_RESOLUTION)
    if args.format == "csv" and args.out is None:
        raise CommandError("usage", "--format csv requires --out", 2)
    cones = ("I", "II") if args.cone == "both" else (args.cone,)
    rows = _geometry_rows(cones, args.resolution)
    counts = dict(sorted(Counter(tag for *_, tag in rows).items()))
    inputs = {
        "cone": args.cone,
        "resolution": args.resolution,
        "format": args.format,
        "out": args.out,
    }
    if args.format == "csv":
        with _open_out(args.out) as fh:
            writer = csv.writer(fh)
            writer.writerow(["b", "c", "d", "tag"])
            for b, c, d, tag in rows:
                writer.writerow([repr(b), repr(c), repr(d), tag])
        outputs = {"path": args.out, "rows": len(rows), "counts": counts}
        return _run_record("geometry", inputs, outputs, [], None)
    outputs = {
        "rows": [{"b": b, "c": c, "d": d, "tag": tag} for b, c, d, tag in rows],
        "counts": counts,
    }
    text = _run_record("geometry", inputs, outputs, [], None)
    if args.out is not None:
        with _open_out(args.out) as fh:
            fh.write(text)
    return text


def _cmd_spa(args: argparse.Namespace) -> str:
    params = _resolve_params(args)
    result = spa_decompose(params)
    outputs = {
        "params": _params_payload(params),
        "provenance": params.provenance,
        "p_star": result.p_star,
        "normalization": result.normalization,
        "slacks": list(result.slacks),
        "spa3_satisfied": result.spa3_satisfied,
        "pairs_separable": result.pairs_separable,
        "reconstruction_error": result.reconstruction_error,
    }
    errata = ["spa-critical-p-sign", "spa-normalization-sign"]
    return _run_record("spa", _witness_inputs(args), outputs, errata, None)


def _cmd_detect(args: argparse.Namespace) -> str:
    _require_tol(args.tol)
    params = _resolve_params(args)
    try:
        with open(args.state) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CommandError("io", f"cannot read {args.state}: {exc}", 4) from None
    except json.JSONDecodeError as exc:
        raise CommandError("validation", f"state file is not valid JSON: {exc}", 3) from None
    rho = matrix_from_pairs(data)
    w = witness_from_params(params)
    value = detect(w, rho, tol=args.tol)
    inputs = _witness_inputs(args)
    inputs["tol"] = args.tol
    inputs["state"] = args.state
    outputs = {
        "params": _params_payload(params),
        "value": value,
        "entangled": bool(value < -args.tol),
    }
    return _run_record("detect", inputs, outputs, [], None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewcones",
        description="rotation-family entanglement witnesses and their cone geometry",
    )
    parser.add_argument(
        "--version", action="version", version=f"ewcones {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    classify = subs.add_parser(
        "classify", help="cone membership, decomposability certificate, block positivity"
    )
    _add_witness_args(classify)
    classify.add_argument("--tol", type=float, default=DECISION_TOL, help="decision tolerance")
    classify.add_argument("--seed", type=int, default=DEFAULT_SEED, help="see-saw seed")
    classify.add_argument("--restarts", type=int, default=16, help="see-saw restarts")
    classify.set_defaults(handler=_cmd_classify)

    geometry = subs.add_parser("geometry", help="sample cone surfaces and named curves")
    geometry.add_argument("--cone", choices=("I", "II", "both"), default="both")
    geometry.add_argument("--resolution", type=int, default=64)
    geometry.add_argument("--format", choices=("csv", "json"), default="json")
    geometry.add_argument("--out", default=None, help="output file path")
    geometry.set_defaults(handler=_cmd_geometry)

    spa = subs.add_parser("spa", help="critical noise mixture and separable split")
    _add_witness_args(spa)
    spa.set_defaults(handler=_cmd_spa)

    det = subs.add_parser("detect", help="pair a witness with a state from a file")
    _add_witness_args(det)
    det.add_argument("--tol", type=float, default=DECISION_TOL, help="decision tolerance")
    det.add_argument("--state", required=True, help="JSON file of [re, im] pairs")
    det.set_defaults(handler=_cmd_detect)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except CommandError as exc:
        kind, message, code = exc.kind, str(exc), exc.code
    except ValueError as exc:
        kind, message, code = "validation", str(exc), 3
    else:
        print(text)
        return 0
    print(_dumps({"command": args.command, "error": {"kind": kind, "message": message}}))
    return code
