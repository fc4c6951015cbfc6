"""The four workloads: one operation each, and its oracle check.

Operations call the program through module attributes (maps.build_witness,
not a local alias) so that the traced run's rebinding reaches them. A check
raises oracle.Miss, or any exception, when the output is wrong; an operation
that raises hands its exception to the check as its result.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import oracle
from oracle import expect

import ewcones.certify as certify
import ewcones.cones as cones
import ewcones.family as family
import ewcones.maps as maps
import ewcones.spa as spa

HERE = Path(__file__).resolve().parent
TOL = 1e-9
CHILD_TIMEOUT_S = 120


class Workload:
    """Seeded items, one operation on an item, and the check of its result."""

    name = ""
    # latency_tail_ms percentile; cli-records uses p90, inside its slowest
    # command's share (one in six), as its runs hold about 100 operations
    tail_level = 0.95

    def __init__(self, seed: int, outdir: Path, env: dict):
        self.outdir = outdir
        self.env = env
        self.items = inputs.GENERATORS[self.name](seed)
        self.summary = inputs.summary(seed, self.items)
        self.traced = False
        self.trace_counts: dict = {}

    def op(self, item):
        raise NotImplementedError

    def check(self, item, result) -> None:
        raise NotImplementedError

    def attempt(self, item) -> tuple[float, str | None]:
        """Time one operation, then check it outside the timing.

        Returns the latency in seconds and None, or a reason for the miss.
        """
        start = perf_counter()
        try:
            result = self.op(item)
        except Exception as exc:  # the check decides whether this was expected
            result = exc
        elapsed = perf_counter() - start
        try:
            self.check(item, result)
        except Exception as exc:  # a miss or a malformed result: counted by the caller
            raised = f" after the operation raised {result!r}" if isinstance(result, Exception) else ""
            return elapsed, f"{item['kind']}: {exc!r}{raised}"
        return elapsed, None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def child_export(self):
        """Tracer export of the last child process, for workloads that spawn one."""
        return None


class CertifySweep(Workload):
    name = "certify-sweep"

    def op(self, item):
        closed = None
        if item["kind"] == "euler":
            alpha, beta, gamma = item["euler"]
            emb = maps.embedding_from_euler(alpha, beta, gamma, parity=item["parity"])
            params = family.params_from_witness(maps.twirl(maps.build_witness(emb)))
            closed = family.abcd_from_euler(alpha, beta, gamma, parity=item["parity"])
        else:
            params = family.WitnessParams(*item["params"])
        report = cones.cone_residuals(params)
        cert = certify.certify_decomposability(params)
        p_crit = spa.critical_p(family.witness_from_params(params))
        return params, closed, report, cert, p_crit, spa.spa_decompose(params)

    def check(self, item, result) -> None:
        params, closed, report, cert, p_crit, split = result
        expected = item["params"]
        expect(np.allclose(params.as_array(), expected, atol=TOL), "parameters differ from the rotation's")
        if closed is not None:
            expect(np.allclose(closed.as_array(), expected, atol=TOL), "closed form differs from the twirl")
        oracle.check_cones(expected, report)
        oracle.check_certificate(expected, cert, TOL)
        oracle.check_spa(expected, p_crit, split)


class SeesawFloor(Workload):
    name = "seesaw-floor"
    restarts = 64

    def op(self, item):
        w = family.witness_from_params(family.WitnessParams(*item["params"]))
        return certify.block_positivity_min(w, restarts=self.restarts, seed=item["seesaw_seed"])

    def check(self, item, result) -> None:
        oracle.check_seesaw(item["params"], float(result))


class DetectDense(Workload):
    name = "detect-dense"

    def __init__(self, seed, outdir, env):
        super().__init__(seed, outdir, env)
        for item in self.items:
            item["witness"] = maps.Witness(n=4, operator=oracle.witness(item["params"]))

    def op(self, item):
        return certify.detect(item["witness"], item["state"])

    def check(self, item, result) -> None:
        oracle.check_detect(item["witness"].operator, item["state"], result)


class CliRecords(Workload):
    """Each operation is a fresh `python -m ewcones` process.

    In the traced run the child is cli_entry.py instead, which installs the
    tracer, calls ewcones.cli.main and leaves its spans in a file.
    """

    name = "cli-records"
    tail_level = 0.90

    def __init__(self, seed, outdir, env):
        super().__init__(seed, outdir, env)
        self.max_child_rss_kb = 0
        self.trace_file = outdir / "child-trace.json"
        for item in self.items:
            if "state_file" in item:
                pairs = [[float(v.real), float(v.imag)] for v in item["state"].reshape(-1)]
                (outdir / item["state_file"]).write_text(json.dumps(pairs))

    def op(self, item):
        if self.traced:
            self.trace_file.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "cli_entry.py"), str(self.trace_file), *item["argv"]]
        else:
            argv = [sys.executable, "-m", "ewcones", *item["argv"]]
        with open(self.outdir / "child-stderr.txt", "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.outdir, env=self.env, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                # wait4 gives this child's own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
        if not self.traced:
            self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0

    def child_export(self):
        # a child that failed before writing its spans is already a miss
        if not self.trace_file.exists():
            return None
        return json.loads(self.trace_file.read_text())

    def check(self, item, result) -> None:
        code, stdout = result
        self.trace_counts = {"cli.bytes_out": len(stdout)}
        expect(code == 0, f"exit code {code}")
        record = strict_json(stdout)
        out = record["outputs"]
        kind = item["kind"]
        if kind.startswith("geometry"):
            self._check_geometry(item, out)
            return
        params = (out["params"]["a"], out["params"]["b"], out["params"]["c"], out["params"]["d"])
        expect(np.allclose(params, item["params"], atol=TOL), "record parameters differ")
        if kind.startswith("classify"):
            cert = out["certificate"]
            want = "decomposable" if oracle.decomposable(item["params"], TOL) else "indecomposable"
            expect(cert["verdict"] == want, f"verdict {cert['verdict']} breaks the b = d rule")
            if want == "indecomposable":
                expect(cert["pairing_value"] <= oracle.PAIRING_MAX, "pairing is not negative")
            oracle.check_seesaw(item["params"], out["block_positivity"]["value"])
        elif kind == "spa":
            expect(oracle.close(out["p_star"], oracle.critical_p(item["params"][0])), "p* differs")
            expect(out["reconstruction_error"] <= TOL and out["pairs_separable"], "split fails")
        elif kind == "detect":
            value = np.trace(oracle.witness(item["params"]) @ item["state"]).real
            expect(oracle.close(out["value"], value), "detect differs from Tr(W rho)")

    def _check_geometry(self, item, out) -> None:
        res = inputs.GEOMETRY_RESOLUTION
        rows = 2 * (1 + res * (res - 1)) + 2 * 2 * 51 + 4
        path = self.outdir / item["out_file"]
        data = path.read_bytes()
        self.trace_counts["cli.bytes_out"] += len(data)
        if item["kind"] == "geometry-csv":
            expect(out["rows"] == rows, f"{out['rows']} rows, expected {rows}")
            expect(data.count(b"\n") == rows + 1, "CSV line count differs")
        else:
            expect(len(strict_json(data)["outputs"]["rows"]) == rows, "JSON row count differs")
            expect(len(out["rows"]) == rows, "record row count differs")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


WORKLOADS = {cls.name: cls for cls in (CertifySweep, SeesawFloor, DetectDense, CliRecords)}
