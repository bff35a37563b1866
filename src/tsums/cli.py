"""Command-line interface.

Subcommands:

* ``table``  -- emit T(2n,d) values for n <= max-n as json, csv, or latex;
* ``coeffs`` -- emit the depth-d coefficient row (the t(2j)t(2n-2j) shape);
* ``verify`` -- run an identity suite and emit a JSON report;
* ``eval``   -- numerically evaluate t(s_1,...,s_d) from the defining series.

Data goes to stdout, diagnostics (including timings) to stderr.  Exit codes:
0 success / all checks passed, 1 verification failure or divergent input,
2 usage error (one ``error:`` line on stderr, nothing on stdout), which
includes a ``--precision`` below 10 digits and, when no ``--precision`` flag
is given, a TSUMS_PRECISION that is not an integer >= 10.  Rationals are
serialized as decimal strings for numerator and denominator, never as
floats.  The environment variable TSUMS_PRECISION overrides the default
numeric precision (significant digits) of ``eval`` and the oracle suite;
explicit ``--precision`` flags still win.

``eval`` prints ``err <=`` before a proven bound and ``err ~`` before an
estimate, which is what the oracle gives when an inner exponent s_2..s_d
equals 1.

Only ``eval`` and the ``symmetric`` and ``oracle`` suites of ``verify``
import mpmath; ``table``, ``coeffs`` and the exact suites never do.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Iterable, Iterator

from .exact import PiPower
from .formulas import T_from_euler, coeff_row
from .oracle import (DEFAULT_DPS, DEFAULT_TERMS, MIN_DPS, DivergentSeriesError,
                     TruncationParams, t_numeric)
from .verify import SUITES, run_suite

__all__ = ["main", "console_main"]


def _latex_abs_fraction(c: Fraction) -> str:
    """|c| as \\frac{num}{den}, or as a bare integer when den = 1."""
    num, den = abs(c.numerator), c.denominator
    return f"\\frac{{{num}}}{{{den}}}" if den != 1 else f"{num}"


def _latex_pi_power(x: PiPower) -> str:
    c = x.coeff
    sign = "-" if c < 0 else ""
    return f"{sign}{_latex_abs_fraction(c)}\\pi^{{{x.pi_exp}}}"


# One table row as ``json.dumps(..., indent=2)`` prints it inside the list.
# The fields are integers and digit strings, which JSON prints unescaped, so
# the text is assembled directly: the indenting encoder is pure Python and
# took longer than computing the cells of ``table --max-n 60``.
_TABLE_JSON_ROW = """  {{
    "weight": {weight},
    "depth": {depth},
    "coefficient": {{
      "num": "{num}",
      "den": "{den}"
    }},
    "pi_exp": {pi_exp}
  }}"""


def _table_json(rows: Iterable[tuple[int, int, PiPower]]) -> Iterator[str]:
    """The rows as the indent-2 JSON list of weight, depth, coefficient
    {num, den} (decimal strings) and pi_exp objects, one row at a time:
    the pieces join to the list's text.  ``rows`` is never empty: the
    usage checks keep max-n >= 1 and --depth <= max-n."""
    sep = "[\n"
    for n, d, v in rows:
        yield sep + _TABLE_JSON_ROW.format(weight=2 * n, depth=d, num=v.coeff.numerator,
                                           den=v.coeff.denominator, pi_exp=v.pi_exp)
        sep = ",\n"
    yield "\n]"


def _cmd_table(args) -> int:
    # Each row is printed as it is computed, so the text is never held whole.
    rows = ((n, d, T_from_euler(n, d)) for n in range(1, args.max_n + 1)
            for d in range(1, n + 1) if args.depth in (None, d))
    if args.format == "json":
        for piece in _table_json(rows):
            print(piece, end="")
        print()
    elif args.format == "csv":
        print("weight,depth,num,den,pi_exp")
        for n, d, v in rows:
            print(f"{2*n},{d},{v.coeff.numerator},{v.coeff.denominator},{v.pi_exp}")
    else:  # latex
        for n, d, v in rows:
            print(f"T({2*n},{d}) = {_latex_pi_power(v)}")
    return 0


def _cmd_coeffs(args) -> int:
    row = coeff_row(args.depth)
    if args.format == "json":
        payload = {
            "depth": row.depth,
            "coefficients": [
                {"j": j, "num": str(c.numerator), "den": str(c.denominator)}
                for j, c in row.pairs
            ],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("depth,j,num,den")
        for j, c in row.pairs:
            print(f"{row.depth},{j},{c.numerator},{c.denominator}")
    else:  # latex: T(2n,d) = c0 t(2n) + c1 t(2)t(2n-2) + ...
        parts = []
        for j, c in row.pairs:
            frac = _latex_abs_fraction(c)
            if j == 0:
                term = f"{frac}t(2n)"
            else:
                term = f"{frac}t({2*j})t(2n-{2*j})"
            parts.append(("-" if c < 0 else "+", term))
        body = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, term in parts[1:]:
            body += f" {sign} {term}"
        print(f"T(2n,{row.depth}) = {body}")
    return 0


def _cmd_verify(args) -> int:
    overrides = {
        "max_n": args.max_n,
        "max_d": args.max_d,
        "terms": args.terms,
        "dps": args.precision,
    }
    report = run_suite(args.suite, **overrides)
    print(json.dumps(report.to_dict(), indent=2))
    print(
        f"suite {report.suite}: {report.passed}/{report.total} passed "
        f"in {report.wall_time_s:.3f}s",
        file=sys.stderr,
    )
    return 0 if report.failed == 0 else 1


def _cmd_eval(args) -> int:
    import mpmath as mp

    fields = args.t.split(",")
    if any(x.strip() == "" for x in fields):
        print(f"error: empty field in arguments {args.t!r}", file=sys.stderr)
        return 2
    try:
        exponents = [int(x) for x in fields]
    except ValueError:
        print(f"error: cannot parse arguments {args.t!r}", file=sys.stderr)
        return 2
    dps = args.precision or DEFAULT_DPS
    t0 = time.perf_counter()
    try:
        result = t_numeric(
            exponents,
            TruncationParams(terms=args.terms, tail_order=args.tail_order),
            dps=dps,
        )
    except DivergentSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    label = ",".join(str(x) for x in exponents)
    relation = "~" if 1 in exponents[1:] else "<="
    print(
        f"t({label}) = {mp.nstr(result.value, 20)}  "
        f"err {relation} {mp.nstr(result.err, 3)}  terms = {args.terms}"
    )
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it costs about a millisecond,
    and parsing leaves it unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="tsums",
        description="Exact sums of multiple t-values at even arguments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit the T(2n,d) value table")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--depth", type=int, default=None, help="keep only this depth")
    p.add_argument("--format", choices=("json", "csv", "latex"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("coeffs", help="emit a fixed-depth coefficient row")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "latex"), default="csv")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify", help="run an identity verification suite")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--max-d", type=int, default=None, dest="max_d")
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--precision", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate t(s_1,...,s_d) numerically")
    p.add_argument("--t", required=True, help="comma-separated exponents, e.g. 2,2")
    p.add_argument("--terms", type=int, default=DEFAULT_TERMS)
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--tail-order", type=int, choices=(0, 1), default=1, dest="tail_order")
    p.set_defaults(func=_cmd_eval)

    return parser


def _usage_error(args) -> str | None:
    """Why the parsed arguments are unusable, or None when they are fine.
    For ``verify`` and ``eval``, ``args.precision`` ends as the one
    precision in use: --precision, else TSUMS_PRECISION, else None."""
    if args.command == "table":
        if args.max_n < 1:
            return "--max-n must be >= 1"
        if args.depth is not None and not 1 <= args.depth <= args.max_n:
            return f"--depth must be between 1 and --max-n ({args.max_n})"
    elif args.command == "coeffs":
        if args.depth < 1:
            return "--depth must be >= 1"
    elif args.command == "verify":
        for dest in ("max_n", "max_d", "terms"):
            value = getattr(args, dest)
            if value is not None and value < 1:
                return f"--{dest.replace('_', '-')} must be >= 1"
    if args.command in ("verify", "eval"):
        if args.precision is not None:
            if args.precision < MIN_DPS:
                return f"--precision must be >= {MIN_DPS}"
        elif "TSUMS_PRECISION" in os.environ:
            raw = os.environ["TSUMS_PRECISION"]
            try:
                args.precision = int(raw)
            except ValueError:
                return f"TSUMS_PRECISION must be an integer, got {raw!r}"
            if args.precision < MIN_DPS:
                return f"TSUMS_PRECISION must be >= {MIN_DPS}, got {args.precision}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _usage_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    return args.func(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
