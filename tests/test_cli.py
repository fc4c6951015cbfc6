import csv
import json
import math
import warnings

import numpy as np
import pytest

from ewcones import __version__, certify, cli
from ewcones.cli import main, matrix_from_pairs, matrix_to_pairs
from ewcones.family import abcd_from_euler
from ewcones.linalg import psd_proved
from ewcones.maps import embedding_from_euler, max_entangled_projector


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


def test_classify_euler_params_round_trip(capsys):
    code, rec1 = run(capsys, ["classify", "--euler", "0.3,0.9,2.1", "--restarts", "4"])
    assert code == 0
    p = rec1["outputs"]["params"]
    params_arg = ",".join(repr(p[k]) for k in "abcd")
    code, rec2 = run(capsys, ["classify", "--params", params_arg, "--restarts", "4"])
    assert code == 0
    for section in ("params", "cones", "certificate", "block_positivity"):
        assert rec1["outputs"][section] == rec2["outputs"][section]
    assert rec1["inputs"]["euler"] == [0.3, 0.9, 2.1]
    assert rec2["inputs"]["params"] == [p[k] for k in "abcd"]


def test_classify_payload_decomposable(capsys):
    code, rec = run(capsys, ["classify", "--euler", "0,0,0", "--restarts", "2"])
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
    code, rec = run(capsys, ["classify", "--params", "1,1,1,0", "--restarts", "2"])
    assert code == 0
    cert = rec["outputs"]["certificate"]
    assert cert["verdict"] == "indecomposable"
    assert cert["epsilon"] == pytest.approx(0.5)
    assert cert["pairing_value"] == pytest.approx(-2.0)
    assert cert["epsilon_interval"] == [pytest.approx(0.0), pytest.approx(1.0)]
    probe = matrix_from_pairs(cert["probe_matrix"])
    assert np.trace(probe).real == pytest.approx(4.0 * (2.0 + 0.5 + 2.0))


def test_classify_unbounded_interval_serializes_null(capsys):
    code, rec = run(capsys, ["classify", "--params", "1,0,1,1", "--restarts", "2"])
    assert code == 0
    interval = rec["outputs"]["certificate"]["epsilon_interval"]
    assert interval[0] == pytest.approx(1.0)
    assert interval[1] is None


def test_classify_outlier_warns_but_succeeds(capsys):
    code, rec = run(capsys, ["classify", "--params", "2,1,0,0", "--restarts", "2"])
    assert code == 0
    cert = rec["outputs"]["certificate"]
    assert not cert["on_cone"]
    assert cert["warning"]
    cones = rec["outputs"]["cones"]
    assert abs(cones["residual_one"]) > 0.1 and abs(cones["residual_two"]) > 0.1


def test_classify_cone_verdicts_share_the_record_tol(capsys):
    # off cone II by about 1e-10: outside --tol 1e-12, inside the default 1e-9
    params = ["--params", "1", "1.00000000005", "1", "-0.00000000005", "--restarts", "2"]
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
    code, rec = run(capsys, ["classify", "--params", "1,1,1,0", "--restarts", "0"])
    assert code == 2
    assert rec["error"]["kind"] == "usage" and "--restarts" in rec["error"]["message"]
    # a record holding a non-finite number becomes a validation error record
    monkeypatch.setattr("ewcones.cli.block_positivity_min", lambda *a, **k: math.inf)
    code = main(["classify", "--params", "1,1,1,0", "--restarts", "2"])
    rec = strict_loads(capsys.readouterr().out)
    assert code == 3 and rec["error"]["kind"] == "validation"
    monkeypatch.setattr("ewcones.cli.sample_cloud", lambda cone, res: [(math.nan, 1.0, 1.0)])
    out = tmp_path / "cloud.json"
    code = main(["geometry", "--cone", "I", "--resolution", "2", "--out", str(out)])
    rec = strict_loads(capsys.readouterr().out)
    assert code == 3 and rec["error"]["kind"] == "validation"
    assert not out.exists()


def test_classify_serializes_the_certificate_probe(capsys, monkeypatch):
    calls = []

    def counting_proof(m, tol):
        calls.append(np.shape(m))
        return psd_proved(m, tol)

    def no_eig(m):
        raise AssertionError("both probe checks at eps = 0.5 are proved")

    monkeypatch.setattr(certify, "psd_proved", counting_proof)
    monkeypatch.setattr(certify, "hermitian_eig", no_eig)
    code, rec = run(capsys, ["classify", "--params", "1,1,1,0", "--restarts", "2"])
    assert code == 0
    # the probe and its partial transpose are checked once, by the certificate
    assert calls == [(16, 16), (16, 16)]
    cert = rec["outputs"]["certificate"]
    monkeypatch.undo()
    assert cert["probe_matrix"] == matrix_to_pairs(certify.probe_state(cert["epsilon"]).state)


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--euler", "0,0,0", "--params", "1,1,1,0"])
    assert exc.value.code == 2


def test_wrong_arity_is_usage_error(capsys):
    code, rec = run(capsys, ["classify", "--euler", "0,0"])
    assert code == 2
    assert rec["error"]["kind"] == "usage"


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
    code, rec = run(capsys, ["classify", "--euler", "0,0,0", "--restarts", "2"])
    assert code == 0 and rec["seed"] == cli.DEFAULT_SEED
    assert rec["outputs"]["block_positivity"]["seed"] == cli.DEFAULT_SEED
    code, rec = run(capsys, ["classify", "--euler", "0,0,0", "--restarts", "2", "--seed", "4"])
    assert code == 0 and rec["seed"] == 4
    # the seed comes from argv alone: the environment variable of earlier
    # versions no longer changes the record
    monkeypatch.setenv("EWCONES_SEED", "11")
    code, rec = run(capsys, ["classify", "--euler", "0,0,0", "--restarts", "2"])
    assert code == 0 and rec["seed"] == cli.DEFAULT_SEED
    monkeypatch.setenv("EWCONES_SEED", "pear")
    code, rec = run(capsys, ["classify", "--euler", "0,0,0", "--restarts", "2"])
    assert code == 0 and rec["seed"] == cli.DEFAULT_SEED


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
    code, rec = run(capsys, ["classify", "--params", "0,1,1,1", "--restarts", "2"])
    assert list(rec["inputs"]) == [*witness_keys, "tol", "restarts"]
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


@pytest.mark.parametrize("restarts", [cli.MAX_RESTARTS + 1, 10**12])
def test_restarts_above_bound_are_usage_errors(capsys, monkeypatch, restarts):
    # rejected before any work: the see-saw and the certificate are never reached
    def never(*args, **kwargs):
        raise AssertionError("reached past the --restarts check")

    monkeypatch.setattr(cli, "block_positivity_min", never)
    monkeypatch.setattr(cli, "certify_decomposability", never)
    code, rec = run(capsys, ["classify", "--params", "1,1,1,0", "--restarts", str(restarts)])
    assert code == 2
    assert rec["error"]["kind"] == "usage" and str(cli.MAX_RESTARTS) in rec["error"]["message"]


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
