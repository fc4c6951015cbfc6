"""Traced stand-in for `python -m ewcones`, used by the cli-records traced run.

Usage: python3 cli_entry.py TRACE_FILE ARGS...  (with src/ on PYTHONPATH)
Installs the tracer, runs ewcones.cli.main(ARGS) with stdout untouched, then
writes the spans and counts to TRACE_FILE and exits with main's code.
"""
import json
import sys

import ewcones.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
tracer.begin_op()
code = ewcones.cli.main(sys.argv[2:])
sys.stdout.flush()
tracer.end_op()
with open(sys.argv[1], "w") as fh:
    json.dump(tracer.export(), fh)
sys.exit(code)
