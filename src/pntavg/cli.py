"""Command-line front end.

Subcommands:

    sieve    fold psi, theta and pi from the segmented sieve, optionally
             through a binary cache of Lambda
    errors   emit averaged error series as CSV
    tables   reproduce the four min/max summary tables
    zerosum  truncated zero sums from a zeros file
    perron   kernel-integral verification rows
    check    reduced-scale invariant suites

Exit codes: 0 success, 1 computation or invariant failure, 2 usage error.
A command whose output goes to stdout exits 1 with "I/O error: stdout is
closed" when the process has no stdout.  All numeric CSV output is
deterministic for fixed flags.  The averaging, zeros and perron modules are
imported only by the commands that call them.

run(), the entry point of ``python -m pntavg.cli`` and of the installed
``pntavg`` script, flushes stdout and stderr after main() and ends the
process with os._exit, skipping the interpreter's teardown: every file a
command writes is closed before main() returns.  A final flush that fails
is not retried, as main() has already reported the stdout it failed on.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from itertools import chain, islice

import numpy as np

from . import _args, sieve
from .accum import neumaier_prefix_sum

DEFAULT_N_MAX = 100_000
MAX_N_MAX = 2**53  # the largest n exact in float64, as r(n) = psi(n) - n needs
TABLE_ORDER = 6  # the highest average order the tables read
_PIECE = 1 << 12

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _out_stream(args):
    """Context manager yielding --output for writing, or stdout, which it
    leaves open.  A new or writable regular file, through any symlink, is
    replaced only when the command completes; a device, FIFO or read-only
    file is opened as given, written through or refused as open() does."""
    p = args.output
    if not p:
        return contextlib.nullcontext(sys.stdout)
    if os.path.exists(p) and (not os.path.isfile(p) or not os.access(p, os.W_OK)):
        return open(p, "w", encoding="ascii")
    return sieve.atomic_open(p, "w", encoding="ascii")


def _exact(v: float) -> str:
    """The shortest string that reads back as v, without a trailing ".0"."""
    return repr(v).removesuffix(".0")


# -- subcommands ------------------------------------------------------------


def cmd_sieve(args) -> int:
    n = args.n_max
    psi, theta, pi = sieve.through_cache(args.cache, n, sieve.chebyshev)
    print(f"n_max={n}")
    print(f"psi({n})={psi:.6f}")
    print(f"theta({n})={theta:.6f}")
    print(f"pi({n})={pi}")
    return EXIT_OK


def _digits(x, buf, keep, right: int, count: int) -> None:
    """Write the last count decimal digits of the unsigned array x (which is
    consumed) as ASCII into rows right, right - 1, ... of buf.  Unless keep
    is None, mark there which rows left of the units digit x reaches.  Each
    digit is x - 10 (x // 10): np.divmod on unsigned integers is several
    times slower than np.floor_divide."""
    q, t = np.empty_like(x), np.empty_like(x)
    for r in range(right, right - count, -1):
        if keep is not None and r < right:
            np.not_equal(x, 0, out=keep[r])
        np.floor_divide(x, 10, out=q)
        np.multiply(q, 10, out=t)
        np.subtract(x, t, out=t)
        np.add(t, 48, out=buf[r], casting="unsafe")
        x, q = q, x


def _fixed_rows(n0: int, v) -> str:
    """The rows "%d,%.6f" % (n, v) from n = n0, for finite v with
    |v| < 2**32, built in numpy.  |v|*10**6 is rounded by rint of
    p = fl(|v|*10**6), except where p lies exactly halfway between two
    integers, the only entries where rint can differ from "%.6f": there the
    digits are read from f"{|v|:.6f}" itself, which rounds the exact binary
    value half to even.  p < 2**52, so the halves and the cast are exact."""
    a = np.abs(v)
    p = a * 1e6
    q = np.rint(p)
    ties = np.flatnonzero(np.abs(p - q) == 0.5)
    q[ties] = [int(f"{x:.6f}".replace(".", "")) for x in a[ties].tolist()]
    q = q.astype(np.uint64)
    ip = q // 10**6
    frac = q - ip * 10**6
    n = np.arange(n0, n0 + len(v), dtype=np.min_scalar_type(n0 + len(v) - 1))
    wn, wi = len(str(n[-1])), len(str(ip.max()))
    # one row of buf per character position: n, ",", "-", ip, ".", 6 decimals, "\n"
    buf = np.empty((wn + wi + 10, len(v)), np.uint8)
    keep = np.ones(buf.shape, bool)  # False on blanks left of n and of ip
    _digits(n, buf, keep, wn - 1, wn)
    buf[wn] = ord(",")
    buf[wn + 1] = ord("-")
    keep[wn + 1] = np.signbit(v)  # -0.0 and -4e-7 print "-0.000000", as "%" does
    _digits(ip, buf, keep, wn + 1 + wi, wi)  # uint64: 2**32 - 2**-21 rounds up to 2**32
    buf[-8] = ord(".")
    _digits(frac.astype(np.uint32), buf, None, len(buf) - 2, 6)
    buf[-1] = ord("\n")
    return buf.T[keep.T].tobytes().decode("ascii")


def _write_rows(out, values) -> None:
    """Write "n,value" rows from n = 1, the bytes of a per-row "%d,%.6f",
    one write per _PIECE rows.  A piece of finite values below 2**32 in
    magnitude is built by _fixed_rows; any other piece is one %-format,
    which rounds as f"{v:.6f}" does, by PyOS_double_to_string."""
    for lo in range(0, len(values), _PIECE):
        piece = values[lo : lo + _PIECE]
        if np.abs(piece).max() < 2.0**32:  # False on a nan
            out.write(_fixed_rows(lo + 1, piece))
        else:
            xs = piece.tolist()
            rows = chain.from_iterable(zip(range(lo + 1, lo + 1 + len(xs)), xs))
            out.write(("%d,%.6f\n" * len(xs)) % tuple(rows))


def cmd_errors(args) -> int:
    from . import averaging

    orders = args.order or [1]
    for order in orders:
        _args.check_int("order", order, 0, averaging.MAX_ORDER)
    n = args.n_max
    r = sieve.through_cache(args.cache, n, lambda blocks: sieve.error_fold(n, blocks))
    with _out_stream(args) as out:
        held = None  # the one order in memory, the chain's last
        for order in orders:
            if len(orders) > 1:
                out.write(f"# order={order}\n")
            if held is None or held.order != order:
                if held is None or order < held.order:  # (re)start the chain at rbar_0
                    averages, skip = averaging.iterated_averages(r, max(orders)), order
                else:
                    skip = order - held.order - 1
                held = None  # dropped before the next order is formed; islice drops each it skips
                held = next(islice(averages, skip, None))
            out.write("n,value\n")
            _write_rows(out, held.values[1:])
    return EXIT_OK


def _table_rows(r):
    """The four summary tables over the whole error series r as
    (name, RangeSummary) rows.  One chain gives rbar_1..6; each order is
    summarised as it comes and dropped before the next is formed."""
    from . import averaging

    n_max = len(r) - 1
    lo2 = min(100, n_max)

    def summary(name, values, lo):
        return name, averaging.range_summary(values, lo, n_max)

    rbar, rhat, rhatp, rtilde = [], [], [], []
    for avg in averaging.iterated_averages(r, TABLE_ORDER):
        k = avg.order
        if 1 <= k <= 3:
            rbar.append(summary(f"rbar{k}", avg.values, 1))
        if 1 <= k <= 5:
            rhat.append(summary(f"rhat{k}", averaging.hat_r_series(avg), lo2))
            rhatp.append(summary(f"rhatp{k}", averaging.hat_prime_r_series(avg), 2))
        if k >= 2:
            rtilde.append(summary(f"rtilde{k}", averaging.tilde_r_series(avg), 3))
    return [summary("r", r, 1), *rbar, *rhat, *rhatp, *rtilde]


def cmd_tables(args) -> int:
    if args.n_max < DEFAULT_N_MAX:
        if not args.allow_partial:
            print(
                f"error: --n-max {args.n_max} < {DEFAULT_N_MAX} reproduces the tables "
                "only partially; pass --allow-partial to proceed",
                file=sys.stderr,
            )
            return EXIT_USAGE
        print(
            f"warning: tables computed over reduced range n <= {args.n_max}",
            file=sys.stderr,
        )
    rows = _table_rows(sieve.error_fold(args.n_max, sieve.lambda_blocks(args.n_max)))
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
    from . import zeros

    if not args.zeros:
        print("error: --zeros PATH is required", file=sys.stderr)
        return EXIT_USAGE
    gammas = zeros.load_zeros(args.zeros)
    res = zeros.zero_sum(gammas, args.x, args.T, args.k)
    with _out_stream(args) as out:
        out.write("x,T,k,value,count_used\n")
        out.write(f"{_exact(res.x)},{_exact(res.T)},{res.k},{res.value!r},{res.count_used}\n")
    return EXIT_OK


def cmd_perron(args) -> int:
    from . import perron

    res = perron.perron_integral(args.a, args.b, args.T, args.k)
    gap = res.gap
    ratio = gap / res.bound
    with _out_stream(args) as out:
        out.write("a,b,T,k,numeric,main_term,bound,gap,ratio\n")
        out.write(
            f"{_exact(res.a)},{_exact(res.b)},{_exact(res.T)},{res.k},{res.numeric!r},"
            f"{res.main_term!r},{res.bound!r},{gap!r},{ratio!r}\n"
        )
    return EXIT_OK if gap <= res.bound + res.quadrature_error_estimate else EXIT_FAILURE


# -- check suites -----------------------------------------------------------


def _check_sieve(lam) -> list[str]:
    import mpmath

    failures = []
    psi = neumaier_prefix_sum(lam[:501])  # psi(n) for n <= 500
    lcm = 1
    for n in range(1, len(psi)):
        lcm = math.lcm(lcm, n)
        with mpmath.workprec(300):
            ref = float(mpmath.log(lcm))
        if abs(psi[n] - ref) > 1e-9:
            failures.append(f"psi({n}) deviates from log lcm oracle")
            break
    return failures


def _check_averaging(lam) -> list[str]:
    from . import averaging

    failures = []
    chains = zip(  # orders 1..3 of the three chains, side by side
        islice(averaging.iterated_averages(sieve.error_series(lam), 3), 1, None),
        islice(averaging.weighted_psi_series(lam, 3), 1, None),
        averaging.weighted_psi_hat_series(lam, 3),
    )
    for avg, psi_k, psi_hat in chains:
        k = avg.order
        # the Lambda route: rbar_k(n) = psi_k(n) - (n + k)/(k + 1), at every n
        dev = np.abs(psi_k[1:] - (np.arange(1, len(lam)) + k) / (k + 1) - avg.values[1:])
        n = int(np.argmax(dev)) + 1  # a nan is the argmax, and fails the test below
        if not dev[n - 1] <= 1e-9:
            failures.append(f"weight-form rbar{k}({n}) mismatch")
        # identity: hat_r vs weighted form
        hat = averaging.hat_r_series(avg)
        # np.max, not np.nanmax: a nan is the max, and fails the test below
        gap = np.max(np.abs(hat[2:] - (psi_hat[2:] - 1.0)), initial=0.0)
        if not gap <= 1e-8:
            failures.append(f"hat identity order {k} gap {gap:.2e}")
    return failures


def _check_perron() -> list[str]:
    from . import perron

    failures = []
    for a in (2.0, 0.5, 1.0):
        for T in (100.0, 1000.0):
            res = perron.perron_integral(a, 1.0, T)
            if res.gap > 4.0 * res.bound + res.quadrature_error_estimate:
                failures.append(f"perron a={a} T={T} gap {res.gap:.2e}")
    return failures


def _check_zeros(path) -> list[str]:
    from . import zeros

    gammas = zeros.load_zeros(path)
    if not len(gammas):
        return [f"{path} holds no zeros"]
    failures = []
    t1 = gamma = float(gammas[0])
    v = zeros.zero_sum(gammas, 100.0, gamma, 1).value
    bound = 2.0 * math.sqrt(100.0) / (gamma * gamma)
    if abs(v) > bound * 1.01:
        failures.append("single-term zero sum exceeds its bound")
    if zeros.gamma_square_tail(gammas, t1) > zeros.gamma_square_tail(gammas, t1 * 10):
        failures.append("gamma_square_tail not monotone")
    return failures


def cmd_check(args) -> int:
    lam = sieve.build_lambda_table(min(args.n_max, 10_000))
    suites = [
        ("sieve-psi-oracle", lambda: _check_sieve(lam)),
        ("averaging-identities", lambda: _check_averaging(lam)),
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

    def common(sp, least_n_max=1):
        sp.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
        sp.set_defaults(least_n_max=least_n_max)

    sp = sub.add_parser("sieve", help="print psi, theta and pi at --n-max")
    common(sp)
    sp.add_argument("--cache", type=str, default=None)
    sp.set_defaults(fn=cmd_sieve)

    sp = sub.add_parser("errors", help="emit error series CSV")
    common(sp)
    sp.add_argument("--cache", type=str, default=None)
    sp.add_argument("--output", type=str, default=None)
    sp.add_argument("--order", type=int, action="append", default=None)
    sp.set_defaults(fn=cmd_errors)

    sp = sub.add_parser("tables", help="reproduce the four summary tables")
    common(sp, least_n_max=3)  # rtilde starts at n = 3
    sp.add_argument("--output", type=str, default=None)
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
    common(sp)
    sp.add_argument("--zeros", type=str, default=None)
    sp.set_defaults(fn=cmd_check)

    return p


def _n_max_ceiling(args) -> tuple[int, str]:
    """The largest --n-max the command takes, and why: 2**53, or, for an
    average of order k in [1, MAX_ORDER], its binomial column's ceiling
    n + k - 1 < 2**32.  An order outside that range the command refuses."""
    orders = {"tables": [TABLE_ORDER], "errors": getattr(args, "order", None) or [1]}
    k = max(orders.get(args.command, [0]))
    if 1 <= k <= _args.MAX_ORDER:
        from . import averaging

        top = averaging.max_column_n(k)
        return top, f"2**32 - {k} = {top} for order {k}"
    return MAX_N_MAX, f"2**53 = {MAX_N_MAX}"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    n_max, least = getattr(args, "n_max", 1), getattr(args, "least_n_max", 1)
    top, why = _n_max_ceiling(args)
    if not least <= n_max <= top:
        bound = f">= {least}" if n_max < least else f"<= {why}"
        print(f"error: {args.command} needs --n-max {bound}, got {n_max}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if sys.stdout is None and not getattr(args, "output", None):
            raise OSError("stdout is closed")  # started with fd 1 closed
        status = args.fn(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a full stdout fails here, not at interpreter exit
        return status
    except (ValueError, ArithmeticError) as exc:
        message, status = f"error: {exc}", EXIT_FAILURE
    except OSError as exc:
        message, status = f"I/O error: {exc}", EXIT_FAILURE
    except MemoryError:
        message, status = "error: out of memory; try a smaller --n-max", EXIT_USAGE
    if sys.stdout is not None:
        with contextlib.suppress(OSError):  # rows already written come before the message
            sys.stdout.flush()
    print(message, file=sys.stderr)
    return status


def run() -> None:
    """Exit with main()'s status, without the interpreter's teardown: once
    stdout and stderr are flushed, os._exit skips module cleanup and the
    final garbage collection.  A flush that fails is not retried: main()
    has reported a stdout that cannot take its bytes.  An exception out of
    main(), SystemExit included, leaves through the interpreter as usual."""
    status = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            with contextlib.suppress(OSError, ValueError):  # ValueError: a closed stream
                stream.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
