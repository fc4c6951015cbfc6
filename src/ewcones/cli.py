"""Command line front end.

Four subcommands: classify (cone membership, decomposability certificate,
block positivity evidence), geometry (surface point clouds), spa (critical
noise mixture with separable split), detect (pair a witness with a state).
Every run prints one JSON run record to stdout. Exit codes: 0 success,
2 usage, 3 validation failure, 4 I/O failure (a closed stdout included).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .certify import DECISION_TOL, block_positivity_min, certify_decomposability, detect
from .cones import ConeReport, bd_curve, sample_cloud, special_points
from .family import WitnessParams, abcd_from_euler
from .spa import spa_decompose

__all__ = ["main", "matrix_from_pairs", "matrix_to_pairs"]

MAX_RESOLUTION = 512


class CommandError(Exception):
    """Failure with a machine readable kind and a process exit code."""

    def __init__(self, kind: str, message: str, code: int):
        super().__init__(message)
        self.kind = kind
        self.code = code


def matrix_to_pairs(m: np.ndarray) -> list:
    """Encode a complex matrix as a flat row-major list of [re, im] pairs."""
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(-1, 2).tolist()


def matrix_from_pairs(data) -> np.ndarray:
    """Decode [re, im] pairs of a 16 x 16 matrix, nested or a flat list of 256."""
    try:
        # only JSON numbers: the float cast takes "1" and true for 1.0, and an
        # object, null or a ragged list leaves a cell that is not a number
        cells = np.asarray(data, dtype=object)
        if any(type(v) not in (int, float) for v in cells.flat):
            raise TypeError
        arr = cells.astype(float)
    except (TypeError, ValueError, OverflowError):  # an integer beyond float range overflows
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
        "--parity", choices=("proper", "improper"), default=None,
        help="orientation of the rotation block (with --euler; default proper)",
    )
    sub.add_argument(
        "--degrees", action="store_true", help="read Euler angles as degrees (with --euler)"
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


def _require_tol_flag(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise CommandError("usage", f"--tol must be finite and positive, got {tol}", 2)


def _resolve_params(args: argparse.Namespace) -> WitnessParams:
    if args.euler is None:
        for flag, given in (("--parity", args.parity is not None), ("--degrees", args.degrees)):
            if given:
                raise CommandError("usage", f"{flag} requires --euler", 2)
        args.params = _parse_floats(args.params, 4, "--params")
        return WitnessParams(*args.params)
    args.euler = _parse_floats(args.euler, 3, "--euler")
    args.parity = args.parity or "proper"
    angles = [math.radians(x) for x in args.euler] if args.degrees else args.euler
    return abcd_from_euler(*angles, parity=args.parity)


def _dumps(record: dict) -> str:
    # strict JSON: a NaN or infinity raises ValueError instead of printing
    return json.dumps(record, indent=2, allow_nan=False)


def _error_record(command, kind: str, message: str) -> str:
    return _dumps({"command": command, "error": {"kind": kind, "message": message}})


def _run_record(command, inputs, outputs, errata) -> str:
    """The serialized run record: the one text printed and written to --out."""
    return _dumps({
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "errata_applied": list(errata),
        "tool_version": __version__,
        # kept for readers of earlier records: no command draws random numbers
        "seed": None,
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
        "parity": args.parity,
        "degrees": bool(args.degrees),
        "params": list(args.params) if args.params is not None else None,
    }


def _params_payload(params: WitnessParams) -> dict:
    return {"a": params.a, "b": params.b, "c": params.c, "d": params.d}


def _cones_payload(report: ConeReport) -> dict:
    return {k: v for k, v in vars(report).items() if k != "tol"}


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
        return out
    if cert.verdict == "not-block-positive":
        x, y = cert.product_vector
        out["product_value"] = cert.product_value
        out["product_vector"] = {"x": list(x), "y": list(y)}
    out["a_eigenvalues"] = cert.a_eigenvalues.tolist()
    out["p_psd"] = cert.p_psd
    out["q_psd"] = cert.q_psd
    out["reconstruction_error"] = cert.reconstruction_error
    out["p_matrix"] = matrix_to_pairs(cert.p_op)
    out["q_matrix"] = matrix_to_pairs(cert.q_op)
    return out


def _cmd_classify(args: argparse.Namespace) -> str:
    _require_tol_flag(args.tol)
    params = _resolve_params(args)
    cert = certify_decomposability(params, tol=args.tol)
    value = block_positivity_min(params.witness)
    outputs = {
        "params": _params_payload(params),
        "provenance": None if params.provenance is None else dict(params.provenance),
        "cones": _cones_payload(cert.cones),
        "certificate": _certificate_payload(cert),
        "block_positivity": {
            "value": value,
            "note": "simplex-lattice floor polished by the weight see-saw, evidence only",
        },
    }
    inputs = _witness_inputs(args)
    inputs["tol"] = args.tol
    return _run_record("classify", inputs, outputs, [])


def _geometry_rows(cones: tuple[str, ...], resolution: int) -> list[tuple[str, np.ndarray]]:
    """The geometry output as (tag, rows) segments, rows an (N, 3) float64 array of [b, c, d].

    Segments come in output order: each cone's surface cloud, then each
    cone's b = d curve, then one segment per special point on those cones.
    Both serializers format each segment's rows.tolist(), and the counts are their lengths.
    """
    segments = [(cone, sample_cloud(cone, resolution)) for cone in cones]
    segments += [(f"bd-{cone}", np.array([[p.b, p.c, p.d] for p in bd_curve(cone)])) for cone in cones]
    segments += [
        (f"special-{sp.label}", np.array([[sp.params.b, sp.params.c, sp.params.d]]))
        for sp in special_points()
        if sp.ellipse in cones
    ]
    return segments


def _json_rows(segments: list[tuple[str, np.ndarray]]) -> str:
    """The geometry record's "rows" value, as json.dumps(indent=2) writes it there.

    One block per row: the dict {"b", "c", "d", "tag"} at the depth of
    outputs.rows, with each float of rows.tolist() through float.__repr__
    and the tag through json's own string encoder.
    """
    blocks = []
    for tag, rows in segments:
        end = f',\n        "tag": {encode_basestring_ascii(tag)}\n      }}'
        blocks.extend(f'      {{\n        "b": {b!r},\n        "c": {c!r},\n        "d": {d!r}{end}' for b, c, d in rows.tolist())
    # never empty: every run writes its cones' b = d curves
    return "[\n" + ",\n".join(blocks) + "\n    ]"


def _cmd_geometry(args: argparse.Namespace) -> str:
    _require_between("--resolution", args.resolution, 2, MAX_RESOLUTION)
    if args.format == "csv" and args.out is None:
        raise CommandError("usage", "--format csv requires --out", 2)
    cones = ("I", "II") if args.cone == "both" else (args.cone,)
    segments = _geometry_rows(cones, args.resolution)
    # strict JSON holds no NaN or infinity, and a CSV must not either: checked
    # once, before any --out file is opened
    for tag, rows in segments:
        if not np.isfinite(rows).all():
            raise ValueError(f"geometry values must be finite: the {tag} rows hold NaN or infinity")
    counts = dict(sorted((tag, len(rows)) for tag, rows in segments))
    inputs = {
        "cone": args.cone,
        "resolution": args.resolution,
        "format": args.format,
        "out": args.out,
    }
    if args.format == "csv":
        # the bytes of csv.writer's excel dialect: no field holds a comma, a quote or a line break
        with _open_out(args.out) as fh:
            fh.write("b,c,d,tag\r\n")
            fh.writelines(f"{b!r},{c!r},{d!r},{tag}\r\n" for tag, rows in segments for b, c, d in rows.tolist())
        outputs = {"path": args.out, "rows": sum(counts.values()), "counts": counts}
        return _run_record("geometry", inputs, outputs, [])
    rows = _json_rows(segments)
    # json.dumps writes an empty list as [] and escapes every quote inside a
    # string, so the first '"rows": []' is the outputs key: the rows go there
    text = _run_record("geometry", inputs, {"rows": [], "counts": counts}, [])
    text = text.replace('"rows": []', f'"rows": {rows}', 1)
    if args.out is not None:
        with _open_out(args.out) as fh:
            fh.write(text)
    return text


def _cmd_spa(args: argparse.Namespace) -> str:
    params = _resolve_params(args)
    result = spa_decompose(params)
    outputs = {
        "params": _params_payload(params),
        "provenance": None if params.provenance is None else dict(params.provenance),
        "p_star": result.p_star,
        "normalization": result.normalization,
        "slacks": list(result.slacks),
        "spa3_satisfied": result.spa3_satisfied,
        "pairs_separable": result.pairs_separable,
        "reconstruction_error": result.reconstruction_error,
    }
    errata = ["spa-critical-p-sign", "spa-normalization-sign"]
    return _run_record("spa", _witness_inputs(args), outputs, errata)


def _cmd_detect(args: argparse.Namespace) -> str:
    _require_tol_flag(args.tol)
    params = _resolve_params(args)
    try:
        with open(args.state) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CommandError("io", f"cannot read {args.state}: {exc}", 4) from None
    except json.JSONDecodeError as exc:
        raise CommandError("validation", f"state file is not valid JSON: {exc}", 3) from None
    value = detect(params.witness, matrix_from_pairs(data), tol=args.tol)
    inputs = _witness_inputs(args)
    inputs["tol"] = args.tol
    inputs["state"] = args.state
    outputs = {
        "params": _params_payload(params),
        "value": value,
        "entangled": bool(value < -args.tol),
    }
    return _run_record("detect", inputs, outputs, [])


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that prints a usage record to stdout on every error.

    argparse then prints its usage text to stderr and exits 2 as usual, or
    4 when stdout is closed.
    command names the subcommand the parser reads, None at the top level.
    """

    command: str | None = None

    def error(self, message):
        if _print_record(_error_record(self.command, "usage", message), 2) == 4:
            self.exit(4)
        super().error(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ewcones",
        description="rotation-family entanglement witnesses and their cone geometry",
    )
    parser.add_argument(
        "--version", action="version", version=f"ewcones {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    classify = subs.add_parser(
        "classify", help="cone membership, decomposability certificate, block positivity"
    )
    _add_witness_args(classify)
    classify.add_argument("--tol", type=float, default=DECISION_TOL, help="decision tolerance")
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
    for name, sub in subs.choices.items():
        sub.command = name
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # a subcommand's parser hands unknown arguments up to the top level
        parser.command = args.command
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        text = args.handler(args)
    except CommandError as exc:
        kind, message, code = exc.kind, str(exc), exc.code
    except ValueError as exc:
        kind, message, code = "validation", str(exc), 3
    else:
        return _print_record(text, 0)
    return _print_record(_error_record(args.command, kind, message), code)


def _print_record(text: str, code: int) -> int:
    """Print a record and return code, or 4 (I/O) when stdout is closed."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the interpreter's
        # final flush of what is still buffered stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4
    return code
