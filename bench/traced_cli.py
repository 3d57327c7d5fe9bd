"""Run one zonotutte CLI call under the benchmark's tracer.

    PYTHONPATH=src python bench/traced_cli.py <zonotutte arguments> < input.json

Behaves like ``python -m zonotutte``: same report on stdout, same exit
code.  After the call it writes its spans to stderr as one JSON line that
starts with tracer.SPAN_MARKER, for the parent run to merge.
"""

import json
import sys

import zonotutte.cli
from tracer import SPAN_MARKER, Tracer

tracer = Tracer()
tracer.install()
tracer.op_id = 0
try:
    rc = zonotutte.cli.main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
finally:
    tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(SPAN_MARKER + json.dumps(tracer.export()) + "\n")
sys.exit(rc)
