"""Command-line front end for the verification sweeps.

Subcommands:
  verify <identity>   run one sweep (menon, sury, zhao_cao, theorem1,
                      theorem2, lemma31, lemma33, lemma34, cohen_partition)
  remark              reproduce the documented strict-generalization failure
  search              scan for counterexamples to the strict generalization
  char-table <n>      dump the character table of modulus n

Exit codes: 0 when all expectations are met (the remark's failure and
search findings count as expected), 1 on an unexpected identity violation,
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arith import euler_phi
from .characters import character_group, character_order, enumerate_characters
from .errors import DomainError, IntegrityError, ResourceError
from .harness import (
    _SPECS,
    FORMATS,
    IDENTITIES,
    STRICT_GEN,
    SweepConfig,
    format_report,
    reproduce_remark,
    run_sweep,
    search_counterexamples,
)


def _parse_s_values(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise DomainError(f"--s expects comma-separated integers, got {text!r}")
    if not values:
        raise DomainError(f"--s expects at least one integer, got {text!r}")
    return values


def _add_report_flags(sub, with_grid=True):
    if with_grid:
        sub.add_argument("--n-max", type=int, default=None, help="largest modulus in the grid")
        sub.add_argument("--s", default="1", help="comma-separated s values, e.g. 1,2,3")
        sub.add_argument("--tolerance", type=float, default=1e-6, help="residual tolerance")
        sub.add_argument("--jobs", type=int, default=1, help="worker processes")
    sub.add_argument("--format", choices=FORMATS, default="text", help="report format")
    sub.add_argument("--output", default=None, help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="menonsums",
        description="Exhaustive verification of gcd-character sum identities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="run one identity sweep")
    verify.add_argument("identity", choices=IDENTITIES)
    _add_report_flags(verify)

    remark = subs.add_parser("remark", help="reproduce the documented counterexample")
    _add_report_flags(remark, with_grid=False)

    search = subs.add_parser("search", help="search for strict-generalization failures")
    _add_report_flags(search)
    search.set_defaults(n_max=_SPECS[STRICT_GEN].default_n_max, s="2")

    table = subs.add_parser("char-table", help="dump the character table of a modulus")
    table.add_argument("n", type=int)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--output", default=None)
    return parser


def _emit(payload: bytes, output: str | None) -> None:
    if output is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(output, "wb") as fh:
            fh.write(payload)


def _turn_token(value) -> str:
    return "0" if value.is_zero else f"{value.turn.numerator}/{value.turn.denominator}"


def char_table_bytes(n: int, fmt: str) -> bytes:
    """Character table of modulus n: label, conductor, primitivity, order,
    and the exact values chi(1..n) as turn fractions ('0' marks the zero value)."""
    group = character_group(n)
    conds = group.conductors()
    labels = group.labels()
    rows = []
    for flat, chi in enumerate(enumerate_characters(n)):
        t = group.turn_numerators(chi)
        tokens = []
        for k in range(1, n + 1):
            tk = int(t[k % n])
            if tk < 0:
                tokens.append("0")
            else:
                fr = Fraction(tk, group.order_lcm)
                tokens.append(f"{fr.numerator}/{fr.denominator}")
        rows.append(
            {
                "chi": labels[flat],
                "conductor": int(conds[flat]),
                "primitive": bool(conds[flat] == n),
                "order": character_order(chi),
                "values": tokens,
            }
        )
    if fmt == "json":
        doc = {"modulus": n, "phi": euler_phi(n), "characters": rows}
        return (json.dumps(doc, sort_keys=True) + "\n").encode()
    header = ["chi", "conductor", "primitive", "order"] + [f"k{k}" for k in range(1, n + 1)]
    lines = [",".join(header)]
    for row in rows:
        cells = [f'"{row["chi"]}"', str(row["conductor"]), str(row["primitive"]).lower(), str(row["order"])]
        cells += row["values"]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            n_max = args.n_max if args.n_max is not None else _SPECS[args.identity].default_n_max
            config = SweepConfig(
                identity=args.identity,
                n_max=n_max,
                s_values=_parse_s_values(args.s),
                tolerance=args.tolerance,
                output=args.format,
                parallelism=args.jobs,
            )
            report = run_sweep(config)
            _emit(format_report(report, args.format), args.output)
            return 1 if report.summary["fail"] > 0 else 0
        if args.command == "remark":
            report = reproduce_remark()
            _emit(format_report(report, args.format), args.output)
            return 0
        if args.command == "search":
            report = search_counterexamples(
                args.n_max,
                _parse_s_values(args.s),
                tolerance=args.tolerance,
                parallelism=args.jobs,
            )
            _emit(format_report(report, args.format), args.output)
            return 0
        if args.command == "char-table":
            _emit(char_table_bytes(args.n, args.format), args.output)
            return 0
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
