"""One CLI run with the layer spans installed, for the traced cli-cold cycles.

Usage: python perfbench/cli_child.py SPANS_JSON SUBCOMMAND [CLI OPTIONS...]

Does the work of `python -m carrollsch.cli SUBCOMMAND [CLI OPTIONS...]` after
the import, writes the span summary and the raw spans to SPANS_JSON, and
exits with the CLI's exit code.
"""
import json
import sys

import tracer
from carrollsch import cli

if __name__ == "__main__":
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    tr.active = True
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tr.active = False
        restore()
    with open(sys.argv[1], "w") as fh:
        json.dump({"summary": tr.summary(), "spans": tr.dump()}, fh)
    sys.exit(code)
