"""Run the pntavg CLI with spans recorded around its public functions.

    python perfbench/traced_cli.py SPANS.json <pntavg arguments...>

Prints what ``python -m pntavg.cli <arguments>`` prints and exits with its
code; the spans are written to SPANS.json when the command ends.
"""

from __future__ import annotations

import json
import sys

import pntavg.cli

from spans import Recorder, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    absent = install(recorder)
    try:
        return pntavg.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="ascii") as f:
            json.dump({"spans": recorder.spans, "absent": absent}, f)


if __name__ == "__main__":
    sys.exit(main())
