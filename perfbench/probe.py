"""One set-up sample in a fresh process: import ewcones, then the first operation.

Usage: python3 probe.py WORKLOAD SEED OUTDIR  (with src/ on PYTHONPATH)
Prints one JSON object: import_s, setup_s (import plus the first operation;
input generation between the two is not counted) and whether the first
operation's result passed the oracle.
"""
import json
import os
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
import ewcones  # noqa: E402,F401

import_s = perf_counter() - start

import workloads  # noqa: E402

name, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workload = workloads.WORKLOADS[name](seed, outdir, dict(os.environ))
op_s, miss = workload.attempt(workload.items[0])
if miss:
    print(f"first operation failed its check: {miss}", file=sys.stderr)
print(json.dumps({"import_s": import_s, "setup_s": import_s + op_s, "ok": miss is None}))
