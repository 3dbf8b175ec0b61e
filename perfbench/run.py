"""Benchmark of pntavg: four workloads run against the real program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The program is the package under
``src/``, run as ``python -m pntavg.cli`` (and, for explicit-formula,
through its public API) in child processes, one at a time.  Each workload
first sets up (untimed by the measurement window, timed as setup_s), then
repeats its timed steps until S seconds have passed.  Every step's stdout
goes to a file and is checked after the step exits: exit code, SHA-256
against the digest recorded in expected.json, and the workload's own
checks.  Output is one line per metric, then a final JSON line with the
keys correct, attempted, failed and metrics.

Times are reference-speed seconds.  The machine's speed drifts by +-20%
over seconds (other tenants share its cores), so the benchmark times a
fixed pure-Python reference loop right before and after every child
process and rescales the child's times by CAL_NOMINAL_S over the loop's
mean time.  The raw spawn-to-exit times are printed beside the metrics.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
untraced iterations alternate with traced ones, which record spans around
pntavg's public functions (see spans.py); the metrics are then the
per-layer ones, with trace.overhead_s the traced minus the untraced median
wall time.

The seed picks the x points and the Perron grid of explicit-formula.  The
CLI workloads' inputs are fixed by the paper's n_max, so the seed does not
change them.  See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import spans as spanlib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ZEROS = ROOT / "data" / "zeros_2000.txt"
EXPECTED = BENCH / "expected.json"
WORK_ROOT = ROOT / ".perfbench_work"

PAPER_N = 100_000
DEFAULT_SEED = 0
SETUP_REPS = 5
CAL_REPS = 30
# Mean reference-loop time on the machine the baseline was measured on
# (see README.md); it only fixes the unit, comparisons do not depend on it.
CAL_NOMINAL_S = 0.0075
RUN_DEADLINE_S = 170.0
RESIDUAL_TOL = 1e-9

# "full" is the benchmark; "smoke" shrinks every workload for the tests.
SIZES = {
    "full": {"n": PAPER_N, "n_big": 10 * PAPER_N, "ef_x": 200, "ef_grid": 10, "ef_a1": 6},
    "smoke": {"n": 3_000, "n_big": 20_000, "ef_x": 20, "ef_grid": 1, "ef_a1": 2},
}
EF_N = 10_000
EF_X_RANGE = (1_000, 10_000)
PERRON_T_MAX = 1e4


def _reference_loop() -> int:
    s = 0
    for i in range(100_000):
        s += i * i
    return s


def calibrate() -> float:
    """Mean time of the reference loop over CAL_REPS repetitions."""
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        _reference_loop()
    return (time.perf_counter() - t0) / CAL_REPS


def tables_args(n: int) -> list[str]:
    return ["tables", "--n-max", str(n)] + ([] if n >= PAPER_N else ["--allow-partial"])


def errors_args(n: int) -> list[str]:
    return ["errors", "--n-max", str(n)] + [a for k in range(1, 7) for a in ("--order", str(k))]


def sieve_args(n: int) -> list[str]:
    return ["sieve", "--n-max", str(n)]


def digest_key(args: list[str]) -> str:
    """The expected-digest key: the CLI arguments without --cache."""
    return " ".join(args)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_mismatch(path: Path, expected: str | None) -> str | None:
    """Why the stdout file fails the digest gate, or None if it passes."""
    if expected is None:
        return "no recorded digest"
    got = sha256_file(path)
    return None if got == expected else f"stdout sha256 {got[:12]} != recorded {expected[:12]}"


def load_gammas() -> np.ndarray:
    return np.loadtxt(ZEROS, comments="#", ndmin=1)


def ef_inputs(seed: int, size: dict, gammas: np.ndarray) -> dict:
    """Seeded explicit-formula inputs: x points, T values and Perron grid.

    The quadrature's cost grows with T |log a|, so a freely drawn grid would
    make the workload's time and memory depend on the seed.  Instead |log a|
    and T each step along a log grid over their range, paired in ascending
    order so the cost spans cheap to expensive, and the seed jitters every
    point within +-5% of a grid step, inside the range, and shuffles the order.
    """
    rng = random.Random(seed)
    xs = sorted(rng.sample(range(EF_X_RANGE[0], EF_X_RANGE[1] + 1), size["ef_x"]))

    def log_grid(lo, hi, count):
        step = math.log(hi / lo) / max(1, count - 1)
        return [
            min(hi, max(lo, lo * math.exp(step * (i + rng.uniform(-0.05, 0.05)))))
            for i in range(count)
        ]

    grid = []
    for k in (1, 2, 3):
        for side in (1.0, -1.0):
            n = size["ef_grid"]
            for u, T in zip(log_grid(1e-3, 1.5, n), log_grid(10.0, PERRON_T_MAX, n)):
                grid.append([math.exp(side * u), 1.0, T, k])
    grid += [[1.0, 1.0, T, 1] for T in log_grid(10.0, PERRON_T_MAX, size["ef_a1"])]
    rng.shuffle(grid)
    return {
        "zeros": str(ZEROS),
        "n_max": EF_N,
        "x": xs,
        "T": [100.0, 1000.0, float(gammas[-1])],
        "perron": grid,
    }


def oracle_residuals(inputs: dict, gammas: np.ndarray) -> list[list[float]]:
    """rbar_1(x) + zero_sum(x, T, 1) by an independent route.

    Lambda comes from a sieve of Eratosthenes; rbar_1(x) =
    (sum_{j<=x} Lambda(j) (x - j + 1) - x (x + 1) / 2) / x and the zero sum
    are both summed with math.fsum.
    """
    n = inputs["n_max"]
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    prime_powers = []
    for p in map(int, np.flatnonzero(is_p)):
        q = p
        while q <= n:
            prime_powers.append((q, math.log(p)))
            q *= p
    rbar = {
        x: math.fsum([lam * (x - j + 1) for j, lam in prime_powers if j <= x] + [-x * (x + 1) / 2])
        / x
        for x in inputs["x"]
    }
    out = []
    for T in inputs["T"]:
        g = gammas[gammas <= T]
        rho = 0.5 + 1j * g
        den = rho * (rho + 1.0)
        out.append(
            [
                rbar[x] + math.fsum((2.0 * math.sqrt(x) * np.exp(1j * g * math.log(x)) / den).real)
                for x in inputs["x"]
            ]
        )
    return out


def ef_failures(inputs, result, oracle, reference) -> list[str]:
    """The explicit-formula checks; an empty list means all passed."""
    failures = []
    for (a, b, T, k), (numeric, main, bound, qerr) in zip(inputs["perron"], result["perron"]):
        if abs(numeric - main) > bound + qerr:
            failures.append(f"perron a={a:.6g} T={T:.6g} k={k}: gap exceeds bound + qerr")
    res = result["residuals"]
    if not np.std(res[-1]) < np.std(res[0]) / 5:
        failures.append("residual spread at T = gamma_2000 not under 1/5 of that at T = 100")
    for name, ref in (("oracle", oracle), ("seed-commit values", reference)):
        if ref is None:
            continue
        worst = float(np.max(np.abs(np.asarray(res) - np.asarray(ref))))
        if not worst <= RESIDUAL_TOL:
            failures.append(f"residuals differ from {name} by {worst:.3e}")
    return failures


class Step:
    """One child process: raw wall time, speed scale, peak RSS, outcome, stdout size.

    ``scale`` converts the child's times to reference-speed seconds.
    """

    def __init__(self, wall_s, scale, rss_mb, failure, stdout_bytes, layers=None):
        self.wall_s = wall_s
        self.scale = scale
        self.rss_mb = rss_mb
        self.failure = failure
        self.stdout_bytes = stdout_bytes
        self.layers = layers

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


class Bench:
    """Runs the program's child processes for one benchmark run."""

    def __init__(self, size: str, seed: int, work: Path, deadline: float):
        self.size = SIZES[size]
        self.seed = seed
        self.work = work
        self.deadline = deadline
        with open(EXPECTED, encoding="ascii") as f:
            self.expected = json.load(f)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            PNT_CACHE_DIR=str(work),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.attempted = 0
        self.failures: list[str] = []
        self.absent: set[str] = set()
        self._n = 0
        self._cal: float | None = None

    def spawn(self, argv: list[str], out: Path) -> tuple[float, float, float, int]:
        """Run one child to exit: (spawn-to-exit s, scale, peak RSS MB, exit code).

        stdout goes to ``out`` and stderr beside it, so no pipe is read while
        the child runs; RSS and exit status come from os.wait4.  The reference
        loop runs before and after the child (the run after one child serves
        as the run before the next), and scale is CAL_NOMINAL_S over its mean.
        """
        before = self._cal if self._cal is not None else calibrate()
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(out) + ".err", flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        timer = threading.Timer(
            max(1.0, self.deadline - time.monotonic()), os.kill, (pid, signal.SIGKILL)
        )
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        self._cal = calibrate()
        scale = CAL_NOMINAL_S / ((before + self._cal) / 2)
        return wall, scale, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)

    def _paths(self, stem: str) -> tuple[Path, Path]:
        self._n += 1
        return self.work / f"{self._n}-{stem}.out", self.work / f"{self._n}-{stem}.spans.json"

    def _finish(self, name, timing, out, failure, spans_path=None) -> Step:
        wall, scale, rss, code = timing
        if failure is None and code != 0:
            failure = f"exit code {code}: {_tail(out.with_name(out.name + '.err'))}"
        layers = None
        if spans_path is not None and spans_path.exists():
            with open(spans_path, encoding="ascii") as f:
                traced = json.load(f)
            self.absent.update(traced["absent"])
            layers = spanlib.aggregate(traced["spans"])
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{name}: {failure}")
        return Step(wall, scale, rss, failure, out.stat().st_size, layers)

    def import_probe(self) -> Step:
        out, _ = self._paths("import")
        return self._finish("import", self.spawn(["-c", "import pntavg.cli"], out), out, None)

    def cli(self, args: list[str], traced: bool, cache: Path | None = None) -> Step:
        """Run ``pntavg <args> [--cache cache]`` and gate its stdout digest."""
        out, spans_path = self._paths(args[0])
        argv = args + (["--cache", str(cache)] if cache is not None else [])
        if traced:
            argv = [str(BENCH / "traced_cli.py"), str(spans_path)] + argv
        else:
            argv = ["-m", "pntavg.cli"] + argv
        timing = self.spawn(argv, out)
        failure = None
        if timing[-1] == 0:
            failure = digest_mismatch(out, self.expected["digests"].get(digest_key(args)))
        return self._finish(args[0], timing, out, failure, spans_path if traced else None)

    def explicit_formula(self, inputs, oracle, reference, traced: bool) -> tuple[Step, dict]:
        out, spans_path = self._paths("explicit-formula")
        inputs_path = out.with_suffix(".inputs.json")
        result_path = out.with_suffix(".result.json")
        with open(inputs_path, "w", encoding="ascii") as f:
            json.dump(inputs, f)
        argv = [str(BENCH / "explicit_formula.py"), str(inputs_path), str(result_path)]
        timing = self.spawn(argv + ([str(spans_path)] if traced else []), out)
        failure, result = None, {}
        if timing[-1] == 0:
            with open(result_path, encoding="ascii") as f:
                result = json.load(f)
            failure = "; ".join(ef_failures(inputs, result, oracle, reference)) or None
        step = self._finish("explicit-formula", timing, out, failure,
                            spans_path if traced else None)
        return step, result


def _tail(path: Path) -> str:
    try:
        lines = path.read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


# -- workloads ---------------------------------------------------------------
#
# A workload is a set-up function returning its set-up times, and an
# iteration function returning (steps, phases) for one pass of its timed
# steps.  Set-up runs SETUP_REPS times so that setup_s is a median.


def probe_setup(bench: Bench, state: dict) -> list[float]:
    return [bench.import_probe().ref_s for _ in range(SETUP_REPS)]


def tables_iteration(bench: Bench, state: dict, traced: bool):
    return [bench.cli(tables_args(bench.size["n"]), traced)], {}


def errors_setup(bench: Bench, state: dict) -> list[float]:
    """Build, untimed, the cache the errors step reads; time the import as elsewhere."""
    state["cache"] = bench.work / "errors-sieve.bin"
    bench.cli(sieve_args(bench.size["n"]), False, state["cache"])
    return probe_setup(bench, state)


def errors_iteration(bench: Bench, state: dict, traced: bool):
    return [bench.cli(errors_args(bench.size["n"]), traced, state["cache"])], {}


def sieve_iteration(bench: Bench, state: dict, traced: bool):
    """Cold (build and write into a fresh directory), then warm (read and validate)."""
    fresh = Path(tempfile.mkdtemp(dir=bench.work))
    cache = fresh / "sieve.bin"
    args = sieve_args(bench.size["n_big"])
    cold = bench.cli(args, traced, cache)
    warm = bench.cli(args, traced, cache)
    shutil.rmtree(fresh)
    return [cold, warm], {"cold_s": cold.ref_s, "warm_s": warm.ref_s}


def ef_setup(bench: Bench, state: dict) -> list[float]:
    gammas = load_gammas()
    inputs = state["inputs"] = ef_inputs(bench.seed, bench.size, gammas)
    state["oracle"] = oracle_residuals(inputs, gammas)
    full_default = bench.size is SIZES["full"] and bench.seed == DEFAULT_SEED
    state["reference"] = bench.expected["residuals_seed0"] if full_default else None
    return probe_setup(bench, state)


def ef_iteration(bench: Bench, state: dict, traced: bool):
    step, result = bench.explicit_formula(
        state["inputs"], state["oracle"], state["reference"], traced
    )
    phases = {k: result[k] * step.scale for k in ("residual_s", "perron_s") if k in result}
    return [step], phases


WORKLOADS = {
    "tables": (probe_setup, tables_iteration),
    "errors-cached": (errors_setup, errors_iteration),
    "sieve-1e6": (probe_setup, sieve_iteration),
    "explicit-formula": (ef_setup, ef_iteration),
}


# -- metrics -----------------------------------------------------------------

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PHASES = ["cold_s", "warm_s", "residual_s", "perron_s"]
DIFF_STATS = ("averaging.hat_r_series", "averaging.hat_prime_r_series", "averaging.tilde_r_series")


def _get(layers: dict, name: str, key: str) -> float:
    value = layers.get(name, {}).get(key, 0)
    return float(sum(value)) if isinstance(value, list) else float(value)


def _read_vs_build(layers: dict) -> float:
    build = _get(layers, "sieve.build_lambda_table", "incl_s")
    read = _get(layers, "sieve.read_cache", "incl_s")
    return read / build if build > 0 and read > 0 else 0.0


def _worst_margin(key: str):
    return lambda layers: max(layers.get("perron.perron_integral", {}).get(key, [0.0]))


# Per-layer metrics "<span>.<key>": the key summed over one traced
# iteration's spans of that name.  Each reported value is the median over
# traced iterations.
SPAN_METRICS = [
    ("sieve.build_lambda_table", "self_s", "s"),
    ("sieve.build_lambda_table", "calls", "count"),
    ("sieve.read_cache", "self_s", "s"),
    ("sieve.read_cache", "bytes", "B"),
    ("sieve.write_cache", "self_s", "s"),
    ("sieve.write_cache", "bytes", "B"),
    ("accum.neumaier_prefix_sum", "self_s", "s"),
    ("accum.neumaier_prefix_sum", "calls", "count"),
    ("accum.neumaier_prefix_sum", "elements", "count"),
    ("accum.neumaier_sum", "self_s", "s"),
    ("accum.neumaier_sum", "calls", "count"),
    ("averaging.iterated_average", "self_s", "s"),
    ("averaging.iterated_average", "calls", "count"),
    ("averaging.range_summary", "self_s", "s"),
    ("zeros.zero_sum", "incl_s", "s"),
    ("zeros.zero_sum", "calls", "count"),
    ("zeros.zero_sum", "terms", "count"),
    ("zeros.load_zeros", "self_s", "s"),
    ("perron.perron_integral", "incl_s", "s"),
    ("perron.perron_integral", "calls", "count"),
    ("cli.cmd_errors", "self_s", "s"),
    ("cli.cmd_tables", "self_s", "s"),
    ("cli.cmd_sieve", "self_s", "s"),
]
LAYER_METRICS = [
    (f"{span}.{key}", unit, lambda L, span=span, key=key: _get(L, span, key))
    for span, key, unit in SPAN_METRICS
] + [
    ("sieve.read_vs_build", "ratio", _read_vs_build),
    ("averaging.diff_stats.self_s", "s", lambda L: sum(_get(L, n, "self_s") for n in DIFF_STATS)),
    ("perron.worst_margin", "ratio", _worst_margin("margin")),
    ("perron.worst_margin_a1", "ratio", _worst_margin("margin_a1")),
]
# Percentiles of per-call durations, pooled over traced iterations.  p98 of
# zero_sum keeps at least ten of its 600 calls per iteration beyond it.
PERCENTILES = [
    ("zeros.zero_sum.p50_ms", "zeros.zero_sum", 50),
    ("zeros.zero_sum.p98_ms", "zeros.zero_sum", 98),
    ("perron.perron_integral.p50_ms", "perron.perron_integral", 50),
]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


SCALED = ("incl_s", "self_s", "durations")


def iteration_walls(runs, raw: bool = False) -> list[float]:
    return [sum(s.wall_s if raw else s.ref_s for s in steps) for steps, _ in runs]


def end_to_end_metrics(setup_times, untraced) -> dict:
    return {
        "wall_s": iteration_walls(untraced),
        "setup_s": setup_times,
        "peak_rss_mb": [max(s.rss_mb for steps, _ in untraced for s in steps)],
    }


def merge_layers(steps: list[Step]) -> dict:
    """One iteration's span aggregates, summed over its steps, in reference-speed seconds."""
    layers: dict = {}
    for s in steps:
        for name, agg in (s.layers or {}).items():
            into = layers.setdefault(name, {})
            for key, value in agg.items():
                if key in SCALED:
                    value = [v * s.scale for v in value] if key == "durations" else value * s.scale
                into[key] = into.get(key, [] if isinstance(value, list) else 0) + value
    return layers


def per_layer_metrics(bench: Bench, untraced, traced) -> dict:
    samples: dict[str, list[float]] = {}
    merged = [merge_layers(steps) for steps, _ in traced]
    for name, _, fn in LAYER_METRICS:
        samples[name] = [fn(layers) for layers in merged]
    for name, span, q in PERCENTILES:
        pooled = [d for layers in merged for d in layers.get(span, {}).get("durations", [])]
        samples[name] = [1e3 * float(np.percentile(pooled, q))] if pooled else [0.0]
    for phase in PHASES:
        samples[phase] = [p[phase] for _, p in untraced if phase in p] or [0.0]
    samples["cli.stdout_bytes"] = [sum(s.stdout_bytes for s in steps) for steps, _ in untraced]
    samples["trace.overhead_s"] = [
        _median(iteration_walls(traced)) - _median(iteration_walls(untraced))
    ]
    samples["failed_ratio"] = [len(bench.failures) / max(1, bench.attempted)]
    return samples


PER_LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
PER_LAYER_UNITS.update({name: "ms" for name, _, _ in PERCENTILES})
PER_LAYER_UNITS.update({p: "s" for p in PHASES})
PER_LAYER_UNITS.update({"cli.stdout_bytes": "B", "trace.overhead_s": "s", "failed_ratio": "ratio"})
END_TO_END_UNITS = dict(END_TO_END)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    setup, iteration = WORKLOADS[workload]
    start = time.monotonic()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(size, seed, work, start + RUN_DEADLINE_S)
        if bench.import_probe().failure is not None:
            raise SystemExit(f"error: cannot run pntavg from {SRC}: {bench.failures[-1]}")
        bench.attempted, bench.failures = 0, []
        state: dict = {}
        setup_times = setup(bench, state)
        untraced, traced = [], []
        t_end = time.monotonic() + seconds
        while True:
            untraced.append(iteration(bench, state, False))
            if trace:
                traced.append(iteration(bench, state, True))
            if time.monotonic() >= min(t_end, start + RUN_DEADLINE_S - 30):
                break
        if trace:
            samples = per_layer_metrics(bench, untraced, traced)
            units = PER_LAYER_UNITS
        else:
            samples = end_to_end_metrics(setup_times, untraced)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name in sorted(bench.absent):
        print(f"absent: {name} is not defined by pntavg; its metrics read 0", file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        metrics[name] = {"value": float(_median(values)), "unit": unit}
        print(
            f"{name:<38} {_median(values):>14.6g} {unit:<6} "
            f"median of {len(values)} (min {min(values):.6g}, max {max(values):.6g})"
        )
    print(f"{'(raw spawn-to-exit wall, unscaled)':<38} "
          f"{_median(iteration_walls(untraced, raw=True)):>14.6g} s")
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    args = p.parse_args(argv)
    if not (SRC / "pntavg" / "cli.py").is_file() or not ZEROS.is_file():
        print(f"error: the pntavg sources ({SRC}) or {ZEROS.name} are missing", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
