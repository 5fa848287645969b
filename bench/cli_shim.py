"""Traced stand-in for ``python -m spindex``: one CLI command with spans around its layers.

Usage: ``python bench/cli_shim.py <spindex arguments>``.  Output and exit code
are those of the CLI; the spans go to stderr as one line starting with
``tracing.SPAN_MARKER``.
"""

import json
import sys
import time

from tracing import SPAN_MARKER, Recorder

recorder = Recorder()
start = time.monotonic()
import spindex.cli  # noqa: E402  (the import is what ``cli.import`` measures)

recorder.add("cli.import", start, time.monotonic())
recorder.install()
code = spindex.cli.main(sys.argv[1:])
sys.stdout.flush()
print(SPAN_MARKER + json.dumps(recorder.spans), file=sys.stderr)
sys.exit(code)
