"""Traced stand-in for ``python -m logtan.cli``.

Usage: ``python shim.py SPANS_FILE ARGS...``.  Installs the same wrappers as
the in-process traced run, runs ``logtan.cli.main(ARGS)`` under a root span,
writes the spans and counters to SPANS_FILE as JSON and exits with the CLI's
status.  An exception escaping the CLI still propagates, with its traceback,
after the spans are written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from logtan import cli  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        return tracer.run_op(0, cli.main, argv)
    finally:
        tracing.uninstall(restore)
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.record(), fh)


if __name__ == "__main__":
    sys.exit(main())
