import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ewcones
from ewcones import __version__, certify, cli
from ewcones.cli import main, matrix_from_pairs, matrix_to_pairs
from ewcones.cones import bd_curve, cone_residuals, sample_cloud, special_points
from ewcones.family import WitnessParams, abcd_from_euler
from ewcones.maps import embedding_from_euler, max_entangled_projector

SRC = Path(ewcones.__file__).resolve().parents[1]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_matrix_pairs_round_trip():
    rng = np.random.default_rng(50)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    pairs = matrix_to_pairs(m)
    assert len(pairs) == 256 and len(pairs[0]) == 2
    back = matrix_from_pairs(pairs)
    assert np.array_equal(back, m)
    nested = [[pairs[16 * r + c] for c in range(16)] for r in range(16)]
    assert np.array_equal(matrix_from_pairs(nested), m)
    with pytest.raises(ValueError):
        matrix_from_pairs(pairs[:100])


def per_element_pairs(m):
    return [[float(v.real), float(v.imag)] for v in np.asarray(m, dtype=complex).ravel()]


@pytest.mark.parametrize("kind", ["transposed-complex", "real", "signed-zeros"])
def test_matrix_to_pairs_equals_per_element_floats(kind):
    rng = np.random.default_rng(51)
    if kind == "transposed-complex":
        m = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))).T
        assert not m.flags.c_contiguous
    elif kind == "real":
        m = rng.standard_normal((16, 16))
    else:
        m = np.zeros((16, 16), dtype=complex)
        m.real[::2] = -0.0
        m.imag[:, ::3] = -0.0
        m[1, 1] = complex(-0.0, 2.5)
    pairs, expected = matrix_to_pairs(m), per_element_pairs(m)
    assert pairs == expected
    # == cannot tell -0.0 from 0.0: repr can
    assert [list(map(repr, p)) for p in pairs] == [list(map(repr, p)) for p in expected]
    assert all(type(x) is float for p in pairs for x in p)
    if kind == "signed-zeros":
        assert {repr(x) for p in pairs for x in p} == {"0.0", "-0.0", "2.5"}


def test_classify_euler_params_round_trip(capsys):
    code, rec1 = run(capsys, ["classify", "--euler", "0.3,0.9,2.1"])
    assert code == 0
    p = rec1["outputs"]["params"]
    params_arg = ",".join(repr(p[k]) for k in "abcd")
    code, rec2 = run(capsys, ["classify", "--params", params_arg])
    assert code == 0
    for section in ("params", "cones", "certificate", "block_positivity"):
        assert rec1["outputs"][section] == rec2["outputs"][section]
    assert rec1["inputs"]["euler"] == [0.3, 0.9, 2.1]
    assert rec2["inputs"]["params"] == [p[k] for k in "abcd"]


def test_classify_payload_decomposable(capsys):
    code, rec = run(capsys, ["classify", "--euler", "0,0,0"])
    assert code == 0
    out = rec["outputs"]
    assert out["params"] == {"a": 1.5, "b": 0.5, "c": 0.5, "d": 0.5}
    assert out["cones"]["on_cone_two"] and out["cones"]["on_ellipse_two"]
    cert = out["certificate"]
    assert cert["verdict"] == "decomposable"
    assert cert["p_psd"] and cert["q_psd"]
    assert len(cert["p_matrix"]) == 256 and len(cert["q_matrix"]) == 256
    assert out["block_positivity"]["value"] >= -1e-9
    assert rec["tool_version"] == __version__


def test_classify_payload_indecomposable(capsys):
    code, rec = run(capsys, ["classify", "--params", "1,1,1,0"])
    assert code == 0
    cert = rec["outputs"]["certificate"]
    assert cert["verdict"] == "indecomposable"
    assert cert["epsilon"] == pytest.approx(0.5)
    assert cert["pairing_value"] == pytest.approx(-2.0)
    assert cert["epsilon_interval"] == [pytest.approx(0.0), pytest.approx(1.0)]
    probe = matrix_from_pairs(cert["probe_matrix"])
    assert np.trace(probe).real == pytest.approx(4.0 * (2.0 + 0.5 + 2.0))


def test_classify_payload_not_block_positive(capsys):
    code = main(["classify", "--params", "0,1.5,0,1.5"])
    rec = strict_loads(capsys.readouterr().out)
    assert code == 0
    out = rec["outputs"]
    cert = out["certificate"]
    assert cert["verdict"] == "not-block-positive"
    assert "not-block-positive" in cert["warning"]
    h = math.sqrt(0.5)
    assert cert["product_vector"] == {"x": [h, 0.0, h, 0.0], "y": [h, 0.0, h, 0.0]}
    assert cert["product_value"] == -0.5
    assert (cert["p_psd"], cert["q_psd"]) == (False, True)
    assert cert["a_eigenvalues"][0] == pytest.approx(-2.0)
    assert len(cert["p_matrix"]) == 256 and len(cert["q_matrix"]) == 256
    assert out["block_positivity"]["value"] == pytest.approx(-0.5)


# the certificate fields of each verdict, in record order, as before the third verdict
CERTIFICATE_FIELDS = {
    "indecomposable": ["verdict", "tolerance", "on_cone", "warning", "epsilon", "pairing_value",
                       "epsilon_interval", "probe_matrix"],
    "decomposable": ["verdict", "tolerance", "on_cone", "warning", "a_eigenvalues", "p_psd", "q_psd",
                     "reconstruction_error", "p_matrix", "q_matrix"],
}


def test_cone_member_certificates_keep_their_fields():
    members = [sp.params for sp in special_points()] + [p for c in ("I", "II") for p in bd_curve(c)]
    for p in members:
        out = cli._certificate_payload(certify.certify_decomposability(p))
        assert list(out) == CERTIFICATE_FIELDS[out["verdict"]]
        assert out["warning"] is None


def test_classify_unbounded_interval_serializes_null(capsys):
    code, rec = run(capsys, ["classify", "--params", "1,0,1,1"])
    assert code == 0
    interval = rec["outputs"]["certificate"]["epsilon_interval"]
    assert interval[0] == pytest.approx(1.0)
    assert interval[1] is None


def test_classify_outlier_warns_but_succeeds(capsys):
    code, rec = run(capsys, ["classify", "--params", "2,1,0,0"])
    assert code == 0
    cert = rec["outputs"]["certificate"]
    assert not cert["on_cone"]
    assert cert["warning"]
    cones = rec["outputs"]["cones"]
    assert abs(cones["residual_one"]) > 0.1 and abs(cones["residual_two"]) > 0.1


def test_classify_cone_verdicts_share_the_record_tol(capsys):
    # off cone II by about 1e-10: outside --tol 1e-12, inside the default 1e-9
    params = ["--params", "1", "1.00000000005", "1", "-0.00000000005"]
    for tol, on_cone in (("1e-12", False), ("1e-9", True)):
        code, rec = run(capsys, ["classify", *params, "--tol", tol])
        assert code == 0
        cones, cert = rec["outputs"]["cones"], rec["outputs"]["certificate"]
        assert cones["on_cone_two"] is cert["on_cone"] is on_cone
        assert (cert["warning"] is None) is on_cone


def test_classify_validation_error(capsys):
    code, rec = run(capsys, ["classify", "--params", "1,1,1,1"])
    assert code == 3
    assert rec["error"]["kind"] == "validation"
    assert "residual" in rec["error"]["message"]


def test_non_finite_params_are_validation_errors(capsys):
    with warnings.catch_warnings():
        # non-finite angles are rejected before any trigonometry can warn
        warnings.simplefilter("error")
        for argv in (["--params", "nan", "1", "1", "0"], ["--params", "1,1,1,inf"],
                     ["--euler", "nan,0,0"], ["--euler", "inf,0,0"],
                     ["--euler", "0,-inf,0", "--parity", "improper"]):
            code, rec = run(capsys, ["classify", *argv])
            assert code == 3
            assert rec["error"]["kind"] == "validation"
            assert "finite" in rec["error"]["message"]
        for angles in ((math.inf, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                abcd_from_euler(*angles, parity="improper")
            with pytest.raises(ValueError, match="finite"):
                embedding_from_euler(*angles)


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_tol_must_be_finite_and_positive(capsys, tol):
    # the tolerance is checked before the state file is read
    for command in ("classify", "detect --state unread.json"):
        argv = [*command.split(), "--params", "1,1,1,0", f"--tol={tol}"]
        code, rec = run(capsys, argv)
        assert code == 2
        assert rec["error"]["kind"] == "usage" and "--tol" in rec["error"]["message"]


def strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_records_are_strict_json(capsys, monkeypatch, tmp_path):
    code, rec = run(capsys, ["classify", "--params", "1,1,1,0", "--tol", "0"])
    assert code == 2
    assert rec["error"]["kind"] == "usage" and "--tol" in rec["error"]["message"]
    # a record holding a non-finite number becomes a validation error record
    monkeypatch.setattr("ewcones.cli.block_positivity_min", lambda *a, **k: math.inf)
    code = main(["classify", "--params", "1,1,1,0"])
    rec = strict_loads(capsys.readouterr().out)
    assert code == 3 and rec["error"]["kind"] == "validation"
    monkeypatch.setattr("ewcones.cli.sample_cloud", lambda cone, res: [(math.nan, 1.0, 1.0)])
    out = tmp_path / "cloud.json"
    code = main(["geometry", "--cone", "I", "--resolution", "2", "--out", str(out)])
    rec = strict_loads(capsys.readouterr().out)
    assert code == 3 and rec["error"]["kind"] == "validation"
    assert not out.exists()


def test_classify_serializes_the_certificate_probe(capsys, monkeypatch):
    def no_solver(*args):
        raise AssertionError("the probe's positivity is read off its structure")

    # neither the probe checks nor anything else in this classify run
    # asks a numerical PSD test
    monkeypatch.setattr(certify, "_psd_proved_checked", no_solver)
    monkeypatch.setattr(certify, "hermitian_eig", no_solver)
    code, rec = run(capsys, ["classify", "--params", "1,1,1,0"])
    assert code == 0
    cert = rec["outputs"]["certificate"]
    assert cert["epsilon"] == 0.5
    monkeypatch.undo()
    assert cert["probe_matrix"] == matrix_to_pairs(certify.probe_state(cert["epsilon"]).state)


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--euler", "0,0,0", "--params", "1,1,1,0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["classify", "--params", "1,1,1,0", "--bogus"], "--bogus"),
        (["spa", "--params", "0,1,1,1", "--tol", "1e-9"], "--tol 1e-9"),
        (["detect", "--params", "0,1,1,1"], "--state"),
        (["classify", "--params", "1,0.75,0.5,0.75", "--restarts", "2"], "--restarts 2"),
        (["classify", "--params", "1,0.75,0.5,0.75", "--seed", "3"], "--seed 3"),
    ],
)
def test_argparse_errors_print_one_usage_record(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    # the whole of stdout is one strict JSON document
    rec = json.loads(captured.out, parse_constant=reject)
    assert rec["command"] == argv[0]
    assert set(rec) == {"command", "error"}
    assert rec["error"]["kind"] == "usage" and named in rec["error"]["message"]
    # argparse's own usage text still goes to stderr
    assert rec["error"]["message"] in captured.err


def test_top_level_argparse_errors_print_a_record_without_command(capsys):
    for argv in ([], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] is None and rec["error"]["kind"] == "usage"


def test_help_exits_zero_with_its_text(capsys):
    for argv in (["--help"], ["spa", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: ewcones") and "error" not in out


def test_wrong_arity_is_usage_error(capsys):
    code, rec = run(capsys, ["classify", "--euler", "0,0"])
    assert code == 2
    assert rec["error"]["kind"] == "usage"


def test_params_pieces_parse_or_give_a_usage_record(capsys):
    code, rec = run(capsys, ["classify", "--params", "1,x,1,0"])
    assert code == 2
    assert rec["error"] == {"kind": "usage", "message": "--params expects numbers, got 'x'"}
    # an empty piece between commas is skipped, not read as a value
    code, rec = run(capsys, ["classify", "--params", "1,,1,1,0"])
    assert code == 0
    assert rec["inputs"]["params"] == [1.0, 1.0, 1.0, 0.0]


def test_degrees_flag(capsys):
    code, rec1 = run(capsys, ["spa", "--euler", "0,180,0", "--degrees"])
    assert code == 0
    code, rec2 = run(capsys, ["spa", "--euler", f"0,{math.pi},0"])
    assert code == 0
    for key in "abcd":
        assert rec1["outputs"]["params"][key] == pytest.approx(
            rec2["outputs"]["params"][key], abs=1e-15
        )


def test_seed_resolution(capsys, monkeypatch):
    # no command draws random numbers: every record's seed is null
    code, rec = run(capsys, ["classify", "--euler", "0,0,0"])
    assert code == 0 and rec["seed"] is None
    # the environment variable of earlier versions still changes nothing
    for value in ("11", "pear"):
        monkeypatch.setenv("EWCONES_SEED", value)
        code, again = run(capsys, ["classify", "--euler", "0,0,0"])
        assert code == 0 and again == rec


def test_fixed_seed_classify_record_is_byte_identical(capsys):
    argv = ["classify", "--params", "0.5,0.75,1.0,0.75"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["seed"] is None


def test_geometry_json(capsys):
    code, rec = run(capsys, ["geometry", "--cone", "I", "--resolution", "4"])
    assert code == 0
    rows = rec["outputs"]["rows"]
    counts = rec["outputs"]["counts"]
    assert counts["I"] == 1 + 4 * 3
    assert counts["bd-I"] == 102
    assert "special-iii" in counts and "special-i" not in counts
    for row in rows:
        b, c, d = row["b"], row["c"], row["d"]
        if row["tag"] in ("I", "bd-I", "special-iii", "special-iv"):
            cross = 4 * b * c + 4 * c * d - 2 * b * d
            res = (b - 2) ** 2 + (2 * c - 3) ** 2 + (d - 2) ** 2 + cross - 9.0
            assert abs(res) < 1e-9


def test_geometry_csv(capsys, tmp_path):
    out = tmp_path / "cloud.csv"
    code, rec = run(capsys, [
        "geometry", "--cone", "both", "--resolution", "4", "--format", "csv",
        "--out", str(out),
    ])
    assert code == 0
    assert rec["outputs"]["path"] == str(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["b", "c", "d", "tag"]
    assert len(rows) - 1 == rec["outputs"]["rows"]
    tags = {r[3] for r in rows[1:]}
    assert {"I", "II", "bd-I", "bd-II", "special-i"} <= tags
    # numeric fields parse back exactly
    b = float(rows[1][0])
    assert b == 0.5


@pytest.mark.parametrize("resolution", [2, 3, 16])
@pytest.mark.parametrize("cone", ["both", "I", "II"])
def test_geometry_matches_csv_writer_and_counter(capsys, tmp_path, cone, resolution):
    cones = ("I", "II") if cone == "both" else (cone,)
    rows = [(*map(float, row), c) for c in cones for row in sample_cloud(c, resolution)]
    rows += [(p.b, p.c, p.d, f"bd-{c}") for c in cones for p in bd_curve(c)]
    rows += [(sp.params.b, sp.params.c, sp.params.d, f"special-{sp.label}")
             for sp in special_points() if sp.ellipse in cones]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["b", "c", "d", "tag"])
    writer.writerows([repr(b), repr(c), repr(d), tag] for b, c, d, tag in rows)
    counts = dict(sorted(Counter(tag for *_, tag in rows).items()))
    argv = ["geometry", "--cone", cone, "--resolution", str(resolution)]
    out = tmp_path / "cloud.csv"
    code, rec = run(capsys, [*argv, "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == expected.getvalue().encode()
    assert rec["outputs"]["rows"] == len(rows)
    assert list(rec["outputs"]["counts"].items()) == list(counts.items())
    code, rec = run(capsys, argv)
    assert code == 0
    assert [(r["b"], r["c"], r["d"], r["tag"]) for r in rec["outputs"]["rows"]] == rows
    assert list(rec["outputs"]["counts"].items()) == list(counts.items())


def test_geometry_csv_requires_out(capsys, monkeypatch):
    # rejected before any row is built
    def never(*args, **kwargs):
        raise AssertionError("reached past the --out check")

    monkeypatch.setattr(cli, "sample_cloud", never)
    code, rec = run(capsys, ["geometry", "--format", "csv"])
    assert code == 2
    assert rec["error"]["kind"] == "usage" and "--out" in rec["error"]["message"]


def test_geometry_io_error(capsys, tmp_path):
    target = tmp_path / "nope" / "cloud.csv"
    code, rec = run(capsys, ["geometry", "--format", "csv", "--out", str(target)])
    assert code == 4
    assert rec["error"]["kind"] == "io"


def test_geometry_json_out_file(capsys, tmp_path):
    out = tmp_path / "cloud.json"
    code = main(["geometry", "--cone", "II", "--resolution", "2",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    # the file holds the printed record byte for byte, without print's newline
    assert capsys.readouterr().out.encode() == out.read_bytes() + b"\n"
    assert json.loads(out.read_text())["outputs"]["counts"]["II"] == 3


@pytest.mark.parametrize("resolution", [2, 3, 16, 64])
@pytest.mark.parametrize("cone", ["I", "II", "both"])
def test_geometry_json_is_the_stdlib_indented_record(capsys, tmp_path, cone, resolution):
    # the rows are written as blocks; json.dumps(indent=2) stays the reference
    argv = ["geometry", "--cone", cone, "--resolution", str(resolution)]
    out = tmp_path / "cloud.json"
    for extra in ([], ["--format", "json", "--out", str(out)]):
        assert main([*argv, *extra]) == 0
        printed = capsys.readouterr().out
        assert printed.endswith("}\n")
        text = printed[:-1]
        assert text == json.dumps(strict_loads(text), indent=2, allow_nan=False)
    assert out.read_text() + "\n" == printed


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(("tag", "column"), [("I", 1), ("I", 2), ("bd-I", 0), ("special-iii", 2)])
def test_geometry_json_rejects_non_finite_rows(capsys, monkeypatch, tmp_path, tag, column, value):
    rows_of = cli._geometry_rows

    def with_bad_value(cones, resolution):
        segments = rows_of(cones, resolution)
        rows = dict(segments)[tag]
        rows[-1][column] = value
        return segments

    monkeypatch.setattr(cli, "_geometry_rows", with_bad_value)
    # CSV used to write the rows and exit 0
    for fmt in ("json", "csv"):
        out = tmp_path / f"cloud.{fmt}"
        code = main(["geometry", "--cone", "I", "--resolution", "2", "--format", fmt, "--out", str(out)])
        rec = strict_loads(capsys.readouterr().out)
        assert code == 3 and rec["error"]["kind"] == "validation", fmt
        assert tag in rec["error"]["message"]
        assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--out", "cloud.json"], ["--format", "csv", "--out", "cloud.csv"]])
def test_geometry_serializes_its_record_once(capsys, monkeypatch, tmp_path, extra):
    calls = []
    dumps = json.dumps

    def counting_dumps(*args, **kwargs):
        calls.append(kwargs)
        return dumps(*args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(json, "dumps", counting_dumps)
    assert main(["geometry", "--resolution", "3", *extra]) == 0
    assert calls == [{"indent": 2, "allow_nan": False}]
    assert strict_loads(capsys.readouterr().out)["command"] == "geometry"


def test_spa_record(capsys):
    code, rec = run(capsys, ["spa", "--params", "0,1,1,1"])
    assert code == 0
    out = rec["outputs"]
    assert out["p_star"] == pytest.approx(0.8, abs=1e-12)
    assert out["spa3_satisfied"] and out["pairs_separable"]
    assert out["slacks"] == [pytest.approx(3.0)] * 3
    assert rec["errata_applied"] == ["spa-critical-p-sign", "spa-normalization-sign"]
    code, rec = run(capsys, ["spa", "--params", "1,1,1,0"])
    assert rec["outputs"]["p_star"] == pytest.approx(8.0 / 11.0, abs=1e-12)


def test_only_classify_and_detect_take_tol(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["spa", "--params", "0,1,1,1", "--tol", "1e-9"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, rec = run(capsys, ["spa", "--params", "0,1,1,1"])
    assert code == 0 and "tol" not in rec["inputs"]
    witness_keys = ["euler", "parity", "degrees", "params"]
    code, rec = run(capsys, ["classify", "--params", "0,1,1,1"])
    assert list(rec["inputs"]) == [*witness_keys, "tol"]
    assert list(rec["outputs"]["block_positivity"]) == ["value", "note"]
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_pairs(max_entangled_projector(4))))
    code, rec = run(capsys, ["detect", "--params", "0,1,1,1", "--state", str(state)])
    assert list(rec["inputs"]) == [*witness_keys, "tol", "state"]
    assert rec["inputs"]["tol"] == certify.DECISION_TOL


def test_detect_record(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_pairs(max_entangled_projector(4))))
    code, rec = run(capsys, ["detect", "--params", "1,1,1,0", "--state", str(state)])
    assert code == 0
    assert rec["outputs"]["value"] == pytest.approx(-2.0)
    assert rec["outputs"]["entangled"] is True


def test_detect_requires_psd(capsys, tmp_path):
    state = tmp_path / "bad.json"
    state.write_text(json.dumps(matrix_to_pairs(np.diag([1.0] * 15 + [-1.0]))))
    code, rec = run(capsys, ["detect", "--params", "1,1,1,0", "--state", str(state)])
    assert code == 3
    assert "eigenvalue" in rec["error"]["message"]


def test_detect_missing_file(capsys, tmp_path):
    code, rec = run(capsys, ["detect", "--params", "1,1,1,0",
                             "--state", str(tmp_path / "missing.json")])
    assert code == 4
    assert rec["error"]["kind"] == "io"


@pytest.mark.parametrize("data", [{"a": 1}, [[1, {"x": 2}]], "abc", [[1, 2], [3]]])
def test_detect_state_that_is_not_a_numeric_array(capsys, tmp_path, data):
    state = tmp_path / "odd.json"
    state.write_text(json.dumps(data))
    code, rec = run(capsys, ["detect", "--params", "1,1,1,0", "--state", str(state)])
    assert code == 3 and rec["error"]["kind"] == "validation"
    assert rec["error"]["message"] == (
        "expected 16x16 [re, im] pairs (flat or nested), got data that is not a numeric array"
    )


def test_detect_malformed_json(capsys, tmp_path):
    state = tmp_path / "broken.json"
    state.write_text("{not json")
    code, rec = run(capsys, ["detect", "--params", "1,1,1,0", "--state", str(state)])
    assert code == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_detect_non_finite_state_file(capsys, tmp_path):
    # json.load accepts NaN, so a state file can carry one
    rho = np.eye(16) / 16.0
    rho[2, 2] = math.nan
    state = tmp_path / "nan.json"
    state.write_text(json.dumps(matrix_to_pairs(rho)))
    assert "NaN" in state.read_text()
    code, rec = run(capsys, ["detect", "--params", "1,1,1,0", "--state", str(state)])
    assert code == 3
    assert rec["error"]["kind"] == "validation" and "finite" in rec["error"]["message"]


@pytest.mark.parametrize("resolution", [-1, 0, 1, cli.MAX_RESOLUTION + 1, 10**6])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_resolution_out_of_range_is_usage_error(capsys, monkeypatch, tmp_path, resolution, fmt):
    # rejected before any row is built, and no output file is written
    def never(*args, **kwargs):
        raise AssertionError("reached past the --resolution check")

    monkeypatch.setattr(cli, "sample_cloud", never)
    out = tmp_path / f"cloud.{fmt}"
    code, rec = run(capsys, ["geometry", "--resolution", str(resolution), "--format", fmt, "--out", str(out)])
    assert code == 2
    assert rec["error"]["kind"] == "usage" and str(cli.MAX_RESOLUTION) in rec["error"]["message"]
    assert not out.exists()


def test_resolution_bounds_are_accepted(capsys, tmp_path):
    for resolution in (2, cli.MAX_RESOLUTION):
        out = tmp_path / f"cloud-{resolution}.csv"
        code, rec = run(capsys, ["geometry", "--cone", "I", "--resolution", str(resolution),
                                 "--format", "csv", "--out", str(out)])
        assert code == 0
        assert rec["outputs"]["counts"]["I"] == 1 + resolution * (resolution - 1)


@pytest.mark.parametrize("argv", [
    ["spa", "--params", "1,1,1,0", "--parity", "improper"],
    ["spa", "--params", "1,1,1,0", "--parity", "proper"],
    ["classify", "--params", "1,0.75,0.5,0.75", "--degrees"],
    ["detect", "--params", "1,1,1,0", "--state", "missing.json", "--parity", "improper"],
])
def test_euler_flags_without_euler_are_usage_errors(capsys, monkeypatch, argv):
    # refused before any parameter is parsed or any work is done
    def never(*args, **kwargs):
        raise AssertionError("reached past the flag check")

    monkeypatch.setattr(cli, "_parse_floats", never)
    code, rec = run(capsys, argv)
    flag = "--degrees" if "--degrees" in argv else "--parity"
    assert code == 2
    assert rec == {"command": argv[0], "error": {"kind": "usage", "message": f"{flag} requires --euler"}}


def test_parity_defaults_to_proper_with_euler(capsys):
    code, rec = run(capsys, ["spa", "--euler", "0.3,0.9,2.1"])
    assert code == 0 and rec["inputs"]["parity"] == "proper"
    assert rec["outputs"]["params"]["a"] == abcd_from_euler(0.3, 0.9, 2.1).a
    code, rec = run(capsys, ["spa", "--params", "1,1,1,0"])
    assert code == 0 and rec["inputs"]["parity"] is None and rec["inputs"]["degrees"] is False


def test_closed_stdout_exits_4_without_traceback():
    # the reader takes one byte and closes the pipe; the record is far larger
    # than the pipe buffer, so the write fails while main is printing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ewcones", "geometry", "--resolution", "64"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 4
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


@pytest.mark.parametrize("witness", [["--params", "1,0.75,0.5,0.75"], ["--params", "1,1,1,0"],
                                     ["--euler", "0.3,0.9,2.1", "--parity", "improper"]])
def test_classify_assembles_the_witness_once(capsys, witness_assemblies, witness):
    code, rec = run(capsys, ["classify", *witness])
    assert code == 0 and len(witness_assemblies) == 1


def test_classify_cones_are_the_report_without_tol(capsys):
    code, rec = run(capsys, ["classify", "--params", "1,0,1,1"])
    report = cone_residuals(WitnessParams(1.0, 0.0, 1.0, 1.0))
    cones = rec["outputs"]["cones"]
    assert list(cones) == [
        "residual_one", "residual_two", "plane_coordinate", "on_cone_one", "on_cone_two",
        "on_intersection", "on_ellipse_one", "on_ellipse_two",
    ]
    assert cones == {k: getattr(report, k) for k in cones} and cones["on_ellipse_two"]


def nest(pairs):
    return [pairs[16 * r:16 * (r + 1)] for r in range(16)]


NON_NUMERIC_CELLS = {
    "strings": [["1", "0"]] * 256,
    "booleans": [[True, False]] * 256,
    # each alone passes the float cast: "0.0" and false read as 0.0
    "mixed": [[0.0625, 0.0]] * 254 + [["0.0", 0.0], [False, 0.0]],
    "null": [[0.0625, None]] + [[0.0625, 0.0]] * 255,
    "beyond-float": [[10**400, 0]] + [[0.0625, 0.0]] * 255,
}


@pytest.mark.parametrize("layout", ["flat", "nested"])
@pytest.mark.parametrize("kind", sorted(NON_NUMERIC_CELLS))
def test_detect_rejects_cells_that_are_not_json_numbers(capsys, tmp_path, kind, layout):
    pairs = NON_NUMERIC_CELLS[kind]
    state = tmp_path / "state.json"
    state.write_text(json.dumps(pairs if layout == "flat" else nest(pairs)))
    code, rec = run(capsys, ["detect", "--params", "1,1,1,0", "--state", str(state)])
    assert code == 3 and rec["error"]["kind"] == "validation"
    assert rec["error"]["message"] == (
        "expected 16x16 [re, im] pairs (flat or nested), got data that is not a numeric array"
    )


@pytest.mark.parametrize("layout", ["flat", "nested"])
def test_detect_accepts_json_integers(capsys, tmp_path, layout):
    # the identity, written with integer cells, pairs to Tr W = 12
    pairs = [[int(r == c), 0] for r in range(16) for c in range(16)]
    state = tmp_path / "state.json"
    state.write_text(json.dumps(pairs if layout == "flat" else nest(pairs)))
    assert "1.0" not in state.read_text()
    code, rec = run(capsys, ["detect", "--params", "1,1,1,0", "--state", str(state)])
    assert code == 0 and rec["outputs"]["value"] == 12.0
