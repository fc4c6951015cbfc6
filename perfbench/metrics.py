"""Every metric the benchmark reports: name, unit, and where it should move.

END_TO_END are reported by untraced runs (--trace 0), with the four timings
scaled to the reference machine speed (candle.py); PER_LAYER by traced runs
(--trace 1), per operation unless the unit says otherwise, unscaled.
BENCHMARK.json lists the same names and units.
"""
from __future__ import annotations

WORKLOADS = ("certify-sweep", "seesaw-floor", "detect-dense", "cli-records")
LAYERS = ("linalg", "gellmann", "maps", "family", "cones", "certify", "spa", "cli")

END_TO_END = (
    ("ops_per_s", "1/s", "completed operations per second of measured operation time"),
    ("latency_p50_ms", "ms", "median operation latency"),
    ("latency_tail_ms", "ms", "highest percentile with 10 samples beyond it, median over windows"),
    ("setup_s", "s", "import ewcones plus the first, untimed operation; median of 5 processes"),
    ("peak_rss_mb", "MB", "peak RSS of the working process; cli-records: largest child"),
)

# (name, unit, workload on which it should move an end-to-end metric)
PER_LAYER = (
    ("linalg.hermitian_eig.calls", "count", "certify-sweep, detect-dense"),
    ("linalg.hermitian_eig.calls_n16", "count", "certify-sweep, detect-dense"),
    ("linalg.hermitian_eig.self_ms", "ms", "certify-sweep, detect-dense"),
    ("linalg.hermitian_eig.max_abs_err", "abs", "accuracy guard: max |Jacobi - eigvalsh|"),
    ("linalg.partial_transpose.self_ms", "ms", "certify-sweep"),
    ("family.witness_from_params.calls", "count", "certify-sweep"),
    ("family.witness_from_params.self_ms", "ms", "certify-sweep"),
    ("family.abcd_from_euler.self_ms", "ms", "certify-sweep"),
    ("maps.build_witness.self_ms", "ms", "certify-sweep"),
    ("maps.twirl.self_ms", "ms", "certify-sweep"),
    ("gellmann.build_basis.calls", "count", "certify-sweep"),
    ("gellmann.build_basis.self_ms", "ms", "certify-sweep"),
    ("certify.certify_decomposability.self_ms", "ms", "certify-sweep"),
    ("certify.probe_state.self_ms", "ms", "certify-sweep"),
    ("spa.critical_p.self_ms", "ms", "certify-sweep"),
    ("spa.spa_decompose.self_ms", "ms", "certify-sweep"),
    ("certify.block_positivity_min.self_ms", "ms", "seesaw-floor"),
    ("certify.seesaw.eigh_calls", "count", "seesaw-floor"),
    ("certify.detect.self_ms", "ms", "detect-dense"),
    ("cones.cone_residuals.self_ms", "ms", "cli-records"),
    ("cones.sample_cloud.self_ms", "ms", "cli-records"),
    ("cones.rows", "count", "cli-records"),
    ("cli.main.self_ms", "ms", "cli-records"),
    ("cli.bytes_out", "bytes", "cli-records"),
    ("init.import_ms", "ms", "cli-records; setup_s everywhere"),
    *((f"{layer}.self_ms", "ms", "sum over the layer's public functions") for layer in LAYERS),
    ("trace.ops", "count", "traced operations, the base of every per-operation figure"),
    ("trace.ops_per_s_untraced", "1/s", "untraced half of the traced run"),
    ("trace.ops_per_s_traced", "1/s", "traced half of the traced run"),
    ("trace.overhead_ops_per_s", "1/s", "untraced minus traced ops_per_s"),
    ("trace.overhead_pct", "%", "overhead as a share of untraced ops_per_s"),
)


def listing() -> str:
    lines = ["end_to_end (--trace 0):"]
    lines += [f"  {name:42s} {unit:6s} {note}" for name, unit, note in END_TO_END]
    lines.append("per_layer (--trace 1):")
    lines += [f"  {name:42s} {unit:6s} {note}" for name, unit, note in PER_LAYER]
    return "\n".join(lines)
