"""The benchmark's traced layers still name functions of the library.

perfbench/spans.py rebinds each name in TRACED by lookup, and a name the
library no longer defines only makes that layer read 0.  This test loads
the file without installing anything and fails on such a name instead.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"pntavg.{layer}"), name, None))
    ]
    assert spans.TRACED
    assert missing == []
