"""Tests of the benchmark itself: python3 -m pytest perfbench (from the repo root)."""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_same_seed_gives_same_digest(name):
    first = inputs.summary(7, inputs.GENERATORS[name](7))
    again = inputs.summary(7, inputs.GENERATORS[name](7))
    other = inputs.summary(8, inputs.GENERATORS[name](8))
    assert first == again
    assert first["digest"] != other["digest"]


def _loop_with(workload, op, count=6):
    workload.op = op
    return run.closed_loop(workload, 0, 0, count=count)


def test_checker_counts_wrong_certificate(tmp_path):
    wl = workloads.CertifySweep(1, tmp_path, {})
    right = wl.op

    def flipped(item):
        params, closed, report, cert, p_crit, split = right(item)
        verdict = "decomposable" if cert.verdict == "indecomposable" else "indecomposable"
        return params, closed, report, dataclasses.replace(cert, verdict=verdict), p_crit, split

    def shifted_p(item):
        params, closed, report, cert, p_crit, split = right(item)
        return params, closed, report, cert, p_crit + 1e-6, split

    assert _loop_with(wl, right).failed == 0
    assert _loop_with(wl, flipped).failed == 6
    assert _loop_with(wl, shifted_p).failed == 6


def test_checker_counts_wrong_floor_and_detection(tmp_path):
    seesaw = workloads.SeesawFloor(1, tmp_path, {})
    assert _loop_with(seesaw, lambda item: -1e-3, count=3).failed == 3

    detect = workloads.DetectDense(1, tmp_path, {})
    psd = [it for it in detect.items if it["kind"] != "not-psd"][:2]
    not_psd = [it for it in detect.items if it["kind"] == "not-psd"][:2]
    detect.items = psd + not_psd
    # accepting a non-PSD state, or a value off Tr(W rho), are both misses
    loop = _loop_with(detect, lambda item: 0.123, count=4)
    assert loop.failed == 4
    assert any("not rejected" in m for m in loop.misses)


def test_checker_counts_bad_cli_output(tmp_path):
    wl = workloads.CliRecords(1, tmp_path, {})
    wl.items = [it for it in wl.items if it["kind"] == "spa"][:2]
    assert _loop_with(wl, lambda item: (0, b'{"outputs": NaN}'), count=2).failed == 2
    assert _loop_with(wl, lambda item: (3, b"{}"), count=2).failed == 2


def test_unexpected_exception_is_a_failure(tmp_path):
    wl = workloads.CertifySweep(1, tmp_path, {})

    def broken(item):
        raise RuntimeError("boom")

    loop = _loop_with(wl, broken, count=3)
    assert loop.failed == 3 and "boom" in loop.misses[0]


def test_tail_has_ten_samples_beyond_it():
    # too few samples for p95: the highest percentile with 10 samples beyond it
    value, pct, windows = run.tail([float(k) for k in range(100)], 0.95)
    assert (value, windows) == (89.0, 1) and pct == pytest.approx(90.0)
    # 2000 samples: ten windows of 200; a burst in one window does not move the median
    latencies = [float(k % 200) for k in range(2000)]
    latencies[:30] = [1e6] * 30
    value, pct, windows = run.tail(latencies, 0.95)
    assert (value, windows) == (189.0, 10) and pct == pytest.approx(95.0)


def test_tracer_rebinds_imported_names_and_restores_them():
    import ewcones.certify
    import ewcones.cli
    import ewcones.family

    original = ewcones.certify.hermitian_eig
    tracer = Tracer()
    tracer.install()
    try:
        assert ewcones.certify.hermitian_eig is not original
        assert ewcones.cli.certify_decomposability is ewcones.certify.certify_decomposability
        tracer.begin_op()
        ewcones.certify.certify_decomposability(ewcones.family.WitnessParams(1.0, 0.75, 0.5, 0.75))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert ewcones.certify.hermitian_eig is original
    totals = tracer.totals()
    assert totals["calls"]["linalg.hermitian_eig"] == 3
    span = sum(e - s for n, s, e, _, _ in tracer.spans if n == "certify.certify_decomposability")
    # self times of a root span and all its descendants add up to the root span
    assert sum(totals["self_s"].values()) == pytest.approx(span)
    assert tracer.max_eig_err < 1e-12


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, u) for n, u, _ in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS) == list(workloads.WORKLOADS)


def test_oracle_reference_matches_closed_forms():
    import oracle

    params = oracle.params_from_euler(0.3, 1.1, 2.0, "improper")
    assert sum(params) == pytest.approx(3.0)
    assert min(abs(r) for r in oracle.cone_residuals(*params[1:])) < 1e-12
    w = oracle.witness(params)
    assert np.linalg.eigvalsh(w)[0] / np.trace(w).real == pytest.approx(
        -oracle.critical_p(params[0]) / 16 / (1 - oracle.critical_p(params[0]))
    )
