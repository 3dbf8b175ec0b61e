"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They cover the span arithmetic, the output gates and a smoke run of every
workload at reduced size, untraced and traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run as bench
import spans

BENCHMARK_JSON = bench.ROOT / "BENCHMARK.json"


def test_self_time_of_nested_spans():
    now = [0.0]
    rec = spans.Recorder(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    leaf = rec.wrap("leaf", lambda: tick(2.0))

    def mid_body():
        tick(1.0)
        leaf()
        tick(0.5)

    mid = rec.wrap("mid", mid_body)

    def top_body():
        tick(3.0)
        mid()
        leaf()
        tick(1.0)

    rec.wrap("top", top_body)()
    agg = spans.aggregate(rec.spans)
    assert agg["top"]["incl_s"] == pytest.approx(9.5)
    assert agg["top"]["self_s"] == pytest.approx(4.0)
    assert agg["mid"]["incl_s"] == pytest.approx(3.5)
    assert agg["mid"]["self_s"] == pytest.approx(1.5)
    assert agg["leaf"]["calls"] == 2
    assert agg["leaf"]["self_s"] == pytest.approx(4.0)
    # self times partition the root span
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(9.5)


def test_recursive_span_counts_inclusive_time_once():
    now = [0.0]
    rec = spans.Recorder(clock=lambda: now[0])

    def body(depth):
        now[0] += 1.0
        if depth:
            traced(depth - 1)

    traced = rec.wrap("f", body)
    traced(2)
    agg = spans.aggregate(rec.spans)
    assert agg["f"]["calls"] == 3
    assert agg["f"]["incl_s"] == pytest.approx(3.0)
    assert agg["f"]["self_s"] == pytest.approx(3.0)


def test_aggregate_combines_processes():
    a = [{"id": 0, "parent": None, "name": "x", "start": 0.0, "end": 1.0, "terms": 5}]
    b = [{"id": 0, "parent": None, "name": "x", "start": 0.0, "end": 2.0, "terms": 7}]
    agg = spans.aggregate(b, spans.aggregate(a))
    assert agg["x"]["calls"] == 2
    assert agg["x"]["incl_s"] == pytest.approx(3.0)
    assert agg["x"]["terms"] == [5, 7]


def test_install_reports_absent_functions_instead_of_failing():
    rec = spans.Recorder()
    absent = spans.install(rec, {"sieve": ("no_such_function",), "no_such_layer": ("f",)})
    assert absent == ["sieve.no_such_function", "no_such_layer.f"]
    assert rec.spans == []


def test_perron_margin_keeps_a_equal_1_apart():
    def margin(a):
        result = SimpleNamespace(a=a, gap=0.5, bound=1.0, quadrature_error_estimate=0.0)
        return spans._perron_margin((), {}, result)

    assert margin(1.0) == {"margin_a1": 0.5}
    assert margin(1.5) == {"margin": 0.5}
    layers = {"perron.perron_integral": {"margin": [0.2, 0.4], "margin_a1": [1.0]}}
    assert dict((n, f(layers)) for n, _, f in bench.LAYER_METRICS if "margin" in n) == {
        "perron.worst_margin": 0.4,
        "perron.worst_margin_a1": 1.0,
    }


def test_digest_gate_flags_one_byte_change(tmp_path):
    out = tmp_path / "stdout"
    out.write_bytes(b"n,value\n1,-1.000000\n")
    recorded = bench.sha256_file(out)
    assert bench.digest_mismatch(out, recorded) is None
    out.write_bytes(b"n,value\n1,-1.000001\n")
    assert bench.digest_mismatch(out, recorded) is not None
    assert bench.digest_mismatch(out, None) is not None


def test_explicit_formula_checks_flag_a_residual_change():
    inputs = {"perron": [[2.0, 1.0, 100.0, 1]]}
    result = {
        "perron": [[0.5, 0.5, 1e-3, 0.0]],
        "residuals": [[-1.3, -1.2, -1.4], [-1.33, -1.34, -1.35], [-1.337, -1.338, -1.336]],
    }
    reference = [list(row) for row in result["residuals"]]
    assert bench.ef_failures(inputs, result, reference, reference) == []
    reference[2][1] += 1e-6
    assert bench.ef_failures(inputs, result, None, reference)
    result["perron"][0][0] = 0.6
    assert any("perron" in f for f in bench.ef_failures(inputs, result, None, None))


def test_seed_fixes_the_explicit_formula_inputs():
    gammas = bench.load_gammas()
    size = bench.SIZES["full"]
    one = bench.ef_inputs(7, size, gammas)
    assert one == bench.ef_inputs(7, size, gammas)
    assert one["x"] != bench.ef_inputs(8, size, gammas)["x"]
    assert len(one["x"]) == 200 and len(one["perron"]) == 66
    assert one["T"][-1] == gammas[-1]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run_of_every_workload(workload, trace):
    proc = _run(bench.ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    declared = json.loads(BENCHMARK_JSON.read_text())
    names = [m["name"] for m in declared["end_to_end" if trace == "0" else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = _run(tmp_path, "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
