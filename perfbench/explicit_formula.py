"""The explicit-formula workload: one process driving pntavg's public API.

    python perfbench/explicit_formula.py INPUTS.json RESULT.json [SPANS.json]

INPUTS.json holds the seeded inputs that run.py generates: the zeros file,
n_max, the x points, the T values and the Perron grid.  The process loads
the zeros, builds the table and the k = 1 average, then times two phases
around the API calls: every explicit_formula_residual(x, T), then every
perron_integral(a, b, T, k).  RESULT.json receives the residuals, the
Perron results and both phase times.  With SPANS.json, spans are recorded
around pntavg's public functions and written there.
"""

from __future__ import annotations

import json
import sys
import time

from pntavg import averaging, perron, sieve, zeros

from spans import Recorder, install


def run(inputs: dict) -> dict:
    zset = zeros.load_zeros(inputs["zeros"])
    table = sieve.build_lambda_table(inputs["n_max"])
    avg = averaging.iterated_average(sieve.error_series(table), 1)

    t0 = time.perf_counter()
    residuals = [
        [zeros.explicit_formula_residual(avg, zset, x, T) for x in inputs["x"]]
        for T in inputs["T"]
    ]
    t1 = time.perf_counter()
    rows = []
    for a, b, T, k in inputs["perron"]:
        res = perron.perron_integral(a, b, T, k)
        rows.append([res.numeric.real, res.main_term, res.bound, res.quadrature_error_estimate])
    t2 = time.perf_counter()
    return {"residuals": residuals, "perron": rows, "residual_s": t1 - t0, "perron_s": t2 - t1}


def main() -> int:
    inputs_path, result_path = sys.argv[1], sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    recorder = Recorder()
    absent = install(recorder) if spans_path else []
    with open(inputs_path, encoding="ascii") as f:
        result = run(json.load(f))
    with open(result_path, "w", encoding="ascii") as f:
        json.dump(result, f)
    if spans_path:
        with open(spans_path, "w", encoding="ascii") as f:
            json.dump({"spans": recorder.spans, "absent": absent}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
