"""Command-line interface.

Subcommands:

* ``table``  -- emit T(2n,d) values for n <= max-n as json, csv, or latex;
* ``coeffs`` -- emit the depth-d coefficient row (the t(2j)t(2n-2j) shape);
* ``verify`` -- run an identity suite and emit a JSON report;
* ``eval``   -- numerically evaluate t(s_1,...,s_d) from the defining series.

Data goes to stdout, diagnostics (including timings) to stderr.  Exit codes:
0 success / all checks passed, 1 verification failure or divergent input,
2 usage error: one ``error:`` line on stderr and nothing on stdout, whether
argparse rejects the argv (an unknown flag or choice, a missing or
malformed value, a size below 1, a ``--precision`` below 10 digits) or a
check after parsing does (a table ``--depth`` above ``--max-n``).
Rationals are serialized as decimal strings for numerator and denominator,
never as floats.  The environment variable TSUMS_PRECISION overrides the
default numeric precision (significant digits) of ``eval`` and the oracle
suite, and is checked like ``--precision``; explicit ``--precision`` flags
still win, and an unusable TSUMS_PRECISION is then never read.

``eval`` prints ``err <=`` before a proven bound and ``err ~`` before an
estimate, which is what the oracle gives when an inner exponent s_2..s_d
equals 1.  The value has as many significant digits as err resolves, up to
the precision in use, but never fewer than 20, even at a lower precision.

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
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator

from .exact import PiPower, _at_least
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
    else:  # latex: T(2n,d) = c0 t(2n) + c1 t(2)t(2n-2) + ..., where c0 > 0
        (_, c0), *rest = row.pairs
        body = "".join(f" {'-' if c < 0 else '+'} {_latex_abs_fraction(c)}t({2*j})t(2n-{2*j})"
                       for j, c in rest)
        print(f"T(2n,{row.depth}) = {_latex_abs_fraction(c0)}t(2n){body}")
    return 0


def _cmd_verify(args) -> int:
    overrides = {
        "max_n": args.max_n,
        "max_d": args.max_d,
        "terms": args.terms,
        "dps": args.precision,
    }
    report = run_suite(args.suite, **overrides)
    summary = report["summary"]
    print(json.dumps(report, indent=2))
    print(
        f"suite {report['suite']}: {summary['passed']}/{summary['total']} passed "
        f"in {report['wall_time_s']:.3f}s",
        file=sys.stderr,
    )
    return 0 if summary["failed"] == 0 else 1


def _cmd_eval(args) -> int:
    import mpmath as mp

    dps = args.precision or DEFAULT_DPS
    t0 = time.perf_counter()
    try:
        result = t_numeric(
            args.t,
            TruncationParams(terms=args.terms, tail_order=args.tail_order),
            dps=dps,
        )
    except DivergentSeriesError as exc:  # a leading exponent of 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    label = ",".join(str(x) for x in args.t)
    relation = "~" if 1 in args.t[1:] else "<="
    err = mp.nstr(result.err, 3)
    # As many digits as err resolves, at most dps but never fewer than 20:
    # the last one sits a place below err's leading digit, so the value
    # rounds by at most err/20.
    digits = Decimal(mp.nstr(result.value, dps)).adjusted() - Decimal(err).adjusted() + 2
    print(
        f"t({label}) = {mp.nstr(result.value, max(20, min(dps, digits)))}  "
        f"err {relation} {err}  terms = {args.terms}"
    )
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def _int_type(least: int, noun: str):
    """An argparse ``type``: the text as an integer >= least."""

    def check(text: str) -> int:
        try:
            return _at_least(int(text), least, noun)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{noun} must be an integer >= {least}, got {text!r}") from None

    return check


_size, _digits = _int_type(1, "size"), _int_type(MIN_DPS, "digits")


def _exponents(text: str) -> list[int]:
    """--t: comma-separated exponents, each an integer >= 1."""
    return list(map(_int_type(1, "exponent"), text.split(",")))


class _Parser(argparse.ArgumentParser):
    """Every rejection is one ``error:`` line on stderr and exit code 2; the
    subparsers are of this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it costs about a millisecond,
    and parsing leaves it unchanged, so every ``main`` call shares it."""
    parser = _Parser(
        prog="tsums",
        description="Exact sums of multiple t-values at even arguments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit the T(2n,d) value table")
    p.add_argument("--max-n", type=_size, required=True, dest="max_n")
    p.add_argument("--depth", type=_size, default=None, help="keep only this depth")
    p.add_argument("--format", choices=("json", "csv", "latex"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("coeffs", help="emit a fixed-depth coefficient row")
    p.add_argument("--depth", type=_size, required=True)
    p.add_argument("--format", choices=("json", "csv", "latex"), default="csv")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify", help="run an identity verification suite")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    p.add_argument("--max-n", type=_size, default=None, dest="max_n")
    p.add_argument("--max-d", type=_size, default=None, dest="max_d")
    p.add_argument("--terms", type=_size, default=None)
    p.add_argument("--precision", type=_digits, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate t(s_1,...,s_d) numerically")
    p.add_argument("--t", type=_exponents, required=True, help="comma-separated exponents, e.g. 2,2")
    p.add_argument("--terms", type=_size, default=DEFAULT_TERMS)
    p.add_argument("--precision", type=_digits, default=None)
    p.add_argument("--tail-order", type=int, choices=(0, 1), default=1, dest="tail_order")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # The two checks argparse cannot make: one flag against another, and
        # the environment fallback of --precision.
        if args.command == "table" and args.depth is not None and args.depth > args.max_n:
            parser.error(f"argument --depth: must be at most --max-n ({args.max_n})")
        env = os.environ.get("TSUMS_PRECISION")
        if args.command in ("verify", "eval") and args.precision is None and env is not None:
            try:
                args.precision = _digits(env)
            except argparse.ArgumentTypeError as exc:
                parser.error(f"TSUMS_PRECISION: {exc}")
    except SystemExit as exc:  # a rejection (_Parser.error), or --help
        return exc.code
    return args.func(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
