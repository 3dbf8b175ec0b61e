"""The benchmark's explicit-formula gate, run at its default size and seed.

perfbench rejects a change whose seed-0 residuals or Perron rows fail
its checks.  This runs the same inputs, the same workload function and
the same checks in-process, loading perfbench's files without writing
bytecode next to them.
"""

import importlib.util
import json
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_explicit_formula_seed0_passes(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # both import perfbench's spans
    bench = _load("run")
    workload = _load("explicit_formula")

    gammas = bench.load_gammas()
    inputs = bench.ef_inputs(bench.DEFAULT_SEED, bench.SIZES["full"], gammas)
    result = workload.run(inputs)
    oracle = bench.oracle_residuals(inputs, gammas)
    reference = json.loads(bench.EXPECTED.read_text(encoding="ascii"))["residuals_seed0"]
    assert bench.ef_failures(inputs, result, oracle, reference) == []
    assert len(result["perron"]) == len(inputs["perron"]) == 66
