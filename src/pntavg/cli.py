"""Command-line front end.

Subcommands:

    sieve    build the Lambda table, optionally writing a binary cache
    errors   emit averaged error series as CSV
    tables   reproduce the four min/max summary tables
    zerosum  truncated zero sums from a zeros file
    perron   kernel-integral verification rows
    check    reduced-scale invariant suites

Exit codes: 0 success, 1 computation or invariant failure, 2 usage error.
All numeric CSV output is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import averaging, perron, sieve, zeros

DEFAULT_N_MAX = 100_000

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _out_stream(args):
    """Context manager yielding --output for writing, or stdout, which it
    leaves open.  A new or writable regular file is replaced only when the
    command completes; a symlink, device, FIFO or read-only file is opened
    as given, so it is written through or refused exactly as open() does."""
    p = args.output
    if not p:
        return contextlib.nullcontext(sys.stdout)
    if os.path.lexists(p) and (
        os.path.islink(p) or not os.path.isfile(p) or not os.access(p, os.W_OK)
    ):
        return open(p, "w", encoding="ascii")
    return sieve.atomic_open(p, "w", encoding="ascii")


# -- subcommands ------------------------------------------------------------


def cmd_sieve(args) -> int:
    table = sieve.load_or_build_table(args.cache, args.n_max)
    n = args.n_max
    print(f"n_max={n}")
    print(f"psi({n})={sieve.psi(table, n):.6f}")
    print(f"theta({n})={sieve.theta(table, n):.6f}")
    print(f"pi({n})={sieve.prime_pi(table, n)}")
    return EXIT_OK


def cmd_errors(args) -> int:
    table = sieve.load_or_build_table(args.cache, args.n_max)
    series = sieve.error_series(table, args.n_max)
    orders = args.order or [1]
    with _out_stream(args) as out:
        for order in orders:
            if len(orders) > 1:
                out.write(f"# order={order}\n")
            if order == 0:
                values = series.r
            else:
                values = averaging.iterated_average(series, order).values
            out.write("n,value\n")
            rows = enumerate(values[1:].tolist(), 1)
            out.writelines(f"{n},{v:.6f}\n" for n, v in rows)
    return EXIT_OK


def _table_rows(table: sieve.LambdaTable, n_max: int):
    """The four summary tables as (name, lo, hi, RangeSummary) rows."""
    series = sieve.error_series(table, n_max)
    avgs = {k: averaging.iterated_average(series, k) for k in range(1, 7)}
    rows = []

    rows.append(("r", averaging.range_summary(series.r, 1, n_max)))
    for k in (1, 2, 3):
        rows.append((f"rbar{k}", averaging.range_summary(avgs[k].values, 1, n_max)))

    lo2 = min(100, n_max)
    for i in range(1, 6):
        s = averaging.hat_r_series(avgs[i])
        rows.append((f"rhat{i}", averaging.range_summary(s, lo2, n_max)))
    for i in range(1, 6):
        s = averaging.hat_prime_r_series(avgs[i])
        rows.append((f"rhatp{i}", averaging.range_summary(s, 2, n_max)))
    for i in range(2, 7):
        s = averaging.tilde_r_series(avgs[i])
        rows.append((f"rtilde{i}", averaging.range_summary(s, 3, n_max)))
    return rows


def cmd_tables(args) -> int:
    if args.n_max < 3:
        print(f"error: tables needs --n-max >= 3, got {args.n_max}", file=sys.stderr)
        return EXIT_USAGE
    if args.n_max < DEFAULT_N_MAX and not args.allow_partial:
        print(
            f"error: --n-max {args.n_max} < {DEFAULT_N_MAX} reproduces the tables "
            "only partially; pass --allow-partial to proceed",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.n_max < DEFAULT_N_MAX:
        print(
            f"warning: tables computed over reduced range n <= {args.n_max}",
            file=sys.stderr,
        )
    table = sieve.load_or_build_table(args.cache, args.n_max)
    rows = _table_rows(table, args.n_max)
    with _out_stream(args) as out:
        if args.pretty:
            out.write(f"{'statistic':<10} {'range':<14} {'min':>14} {'max':>14}\n")
            for name, s in rows:
                rng = f"{s.lo}..{s.hi}"
                out.write(f"{name:<10} {rng:<14} {s.min:>14.6f} {s.max:>14.6f}\n")
        else:
            out.write("statistic,lo,hi,min,argmin,max,argmax\n")
            for name, s in rows:
                out.write(
                    f"{name},{s.lo},{s.hi},{s.min:.6f},{s.argmin},"
                    f"{s.max:.6f},{s.argmax}\n"
                )
    return EXIT_OK


def cmd_zerosum(args) -> int:
    if not args.zeros:
        print("error: --zeros PATH is required", file=sys.stderr)
        return EXIT_USAGE
    zset = zeros.load_zeros(args.zeros)
    res = zeros.zero_sum(zset, args.x, args.T, args.k)
    with _out_stream(args) as out:
        out.write("x,T,k,value,count_used\n")
        out.write(f"{res.x:g},{res.T:g},{res.k},{res.value!r},{res.count_used}\n")
    return EXIT_OK


def cmd_perron(args) -> int:
    res = perron.perron_integral(args.a, args.b, args.T, args.k)
    gap = res.gap
    ratio = gap / res.bound
    with _out_stream(args) as out:
        out.write("a,b,T,k,numeric,main_term,bound,gap,ratio\n")
        out.write(
            f"{res.a:g},{res.b:g},{res.T:g},{res.k},{res.numeric!r},"
            f"{res.main_term!r},{res.bound!r},{gap!r},{ratio!r}\n"
        )
    return EXIT_OK if gap <= res.bound + res.quadrature_error_estimate else EXIT_FAILURE


# -- check suites -----------------------------------------------------------


def _check_sieve(table, n_max: int) -> list[str]:
    import mpmath

    failures = []
    lcm = 1
    for n in range(1, min(500, n_max) + 1):
        lcm = math.lcm(lcm, n)
        with mpmath.workprec(300):
            ref = float(mpmath.log(lcm))
        if abs(sieve.psi(table, n) - ref) > 1e-9:
            failures.append(f"psi({n}) deviates from log lcm oracle")
            break
    return failures


def _check_averaging(table, n_max: int) -> list[str]:
    failures = []
    n_check = min(2000, n_max)
    series = sieve.error_series(table, n_check)
    for k in (1, 2, 3):
        avg = averaging.iterated_average(series, k)
        # the Lambda route: rbar_k(n) = psi_k(n) - (n + k)/(k + 1)
        psi_k = averaging.weighted_psi_series(table, k, n_check)
        for n in (1, 2, 10, 100, min(300, n_check)):
            if n > n_check:
                continue
            if abs(psi_k[n] - (n + k) / (k + 1) - avg.values[n]) > 1e-9:
                failures.append(f"weight-form rbar{k}({n}) mismatch")
        # identity: hat_r vs weighted form
        psi_hat = averaging.weighted_psi_hat_series(table, k, n_check)
        hat = averaging.hat_r_series(avg)
        gap = np.nanmax(np.abs(hat[2:] - (psi_hat[2:] - 1.0)), initial=0.0)
        if gap > 1e-8:
            failures.append(f"hat identity order {k} gap {gap:.2e}")
    return failures


def _check_perron() -> list[str]:
    failures = []
    for a in (2.0, 0.5, 1.0):
        for T in (100.0, 1000.0):
            res = perron.perron_integral(a, 1.0, T)
            if res.gap > 4.0 * res.bound + res.quadrature_error_estimate:
                failures.append(f"perron a={a} T={T} gap {res.gap:.2e}")
    return failures


def _check_zeros(path) -> list[str]:
    failures = []
    zset = zeros.load_zeros(path)
    t1 = gamma = float(zset.gammas[0])
    v = zeros.zero_sum(zset, 100.0, gamma, 1).value
    bound = 2.0 * math.sqrt(100.0) / (gamma * gamma)
    if abs(v) > bound * 1.01:
        failures.append("single-term zero sum exceeds its bound")
    if zeros.gamma_square_tail(zset, t1) > zeros.gamma_square_tail(zset, t1 * 10):
        failures.append("gamma_square_tail not monotone")
    return failures


def cmd_check(args) -> int:
    n_check = min(args.n_max, 10_000)
    table = sieve.load_or_build_table(args.cache, n_check)
    suites = [
        ("sieve-psi-oracle", lambda: _check_sieve(table, n_check)),
        ("averaging-identities", lambda: _check_averaging(table, n_check)),
        ("perron-envelope", _check_perron),
    ]
    if args.zeros:
        suites.append(("zero-sums", lambda: _check_zeros(args.zeros)))
    else:
        print("note: --zeros absent, zero-sum suite skipped")
    status = EXIT_OK
    for name, fn in suites:
        failures = fn()
        if failures:
            status = EXIT_FAILURE
            print(f"FAIL {name}: {'; '.join(failures)}")
        else:
            print(f"PASS {name}")
    return status


# -- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pntavg",
        description="Averaged prime-number-theorem error computations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, n_max_default=DEFAULT_N_MAX):
        sp.add_argument("--n-max", type=int, default=n_max_default)
        sp.add_argument("--cache", type=str, default=None)
        sp.add_argument("--output", type=str, default=None)

    sp = sub.add_parser("sieve", help="build the Lambda table")
    common(sp)
    sp.set_defaults(fn=cmd_sieve)

    sp = sub.add_parser("errors", help="emit error series CSV")
    common(sp)
    sp.add_argument("--order", type=int, action="append", default=None)
    sp.set_defaults(fn=cmd_errors)

    sp = sub.add_parser("tables", help="reproduce the four summary tables")
    common(sp)
    sp.add_argument("--allow-partial", action="store_true")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(fn=cmd_tables)

    sp = sub.add_parser("zerosum", help="truncated zero sum")
    sp.add_argument("--zeros", type=str, default=None)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--output", type=str, default=None)
    sp.set_defaults(fn=cmd_zerosum)

    sp = sub.add_parser("perron", help="kernel integral verification")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--output", type=str, default=None)
    sp.set_defaults(fn=cmd_perron)

    sp = sub.add_parser("check", help="run reduced-scale invariant suites")
    common(sp, n_max_default=10_000)
    sp.add_argument("--zeros", type=str, default=None)
    sp.set_defaults(fn=cmd_check)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, perron.QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError:
        print("error: out of memory; try a smaller --n-max", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
