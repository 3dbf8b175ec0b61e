"""Write expected.json, the reference outputs the benchmark gates on.

    python3 perfbench/record_expected.py

Records, from the program as it is now, the stdout SHA-256 of every CLI
step of every workload at both sizes, each from the command run without
--cache (so a cached step must print what an uncached one prints), and
the explicit-formula residuals at the default seed.  Re-record only when
the program's output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import run as bench

sys.path.insert(0, str(bench.SRC))

import explicit_formula  # noqa: E402  (needs pntavg on sys.path)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(bench.SRC))
    digests = {}
    for size in bench.SIZES.values():
        for args in (
            bench.tables_args(size["n"]),
            bench.errors_args(size["n"]),
            bench.sieve_args(size["n"]),
            bench.sieve_args(size["n_big"]),
        ):
            out = subprocess.run(
                [sys.executable, "-m", "pntavg.cli", *args],
                env=env, stdout=subprocess.PIPE, check=True,
            ).stdout
            digests[bench.digest_key(args)] = hashlib.sha256(out).hexdigest()
    inputs = bench.ef_inputs(bench.DEFAULT_SEED, bench.SIZES["full"], bench.load_gammas())
    residuals = explicit_formula.run(inputs)["residuals"]
    with open(bench.EXPECTED, "w", encoding="ascii") as f:
        json.dump({"digests": digests, "residuals_seed0": residuals}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
