"""Command-line front end for the verification sweeps.

Subcommands:
  verify <identity>   run one sweep (menon, sury, zhao_cao, theorem1,
                      theorem2, lemma31, lemma33, lemma34, cohen_partition)
  remark              reproduce the documented strict-generalization failure
  search              scan for counterexamples to the strict generalization
  char-table <n>      dump the character table of modulus n

Exit codes: 0 when all expectations are met (the remark's failure and
search findings count as expected), 1 on an unexpected identity violation,
2 on usage or configuration errors or an output not written (a file, or a
stdout pipe its reader closed), 3 when a run is cut short (a pool worker
died, or memory ran out).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import math
import os
import stat
import sys
from functools import partial
from typing import Callable, ContextManager, Iterator

import numpy as np

from .arith import euler_phi
from .characters import character_group, character_labels, character_order
from .errors import DomainError, IntegrityError, ResourceError
from .harness import (
    _SPECS,
    FORMATS,
    IDENTITIES,
    STRICT_GEN,
    SweepConfig,
    format_report,
    reproduce_remark,
    write_report,
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
    search.set_defaults(identity=STRICT_GEN, s="2")

    table = subs.add_parser("char-table", help="dump the character table of a modulus")
    table.add_argument("n", type=int)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--output", default=None)
    return parser


@contextlib.contextmanager
def _blamed(output: str | None) -> Iterator[None]:
    """Report an OSError as the output, a file or stdout (None), not written.
    Stdout's descriptor then goes to the null device, so the interpreter's own
    flush at exit has nowhere to fail (a reader that closed the pipe, say)."""
    try:
        yield
    except OSError as exc:
        if output is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise DomainError(f"cannot write {'<stdout>' if output is None else output}: {exc.strerror}") from exc


@contextlib.contextmanager
def _opened(output: str | None) -> Iterator[Callable[[bytes], object]]:
    """The write function of the binary stream a report goes to: stdout, or
    the file output.

    A regular file (or a new one) is written through a temporary file beside
    it that replaces it, mode kept, only once the whole report is written,
    so a run that fails leaves it as it was; a device or pipe is written in
    place.  An OSError from writing or flushing stdout, or from opening,
    writing, closing or replacing the file, names the output not written; an
    error raised between writes passes through as it was raised.
    """

    def write(payload: bytes) -> None:
        with _blamed(output):
            fh.write(payload)

    if output is None:
        fh = sys.stdout.buffer
        yield write
        with _blamed(output):
            fh.flush()
        return
    path = os.path.realpath(output)  # through a symlink, replace its target
    staged = not os.path.exists(path) or os.path.isfile(path)
    tmp = f"{path}.{os.getpid()}.tmp" if staged else path
    try:
        with _blamed(output):
            fh = open(tmp, "wb")
        try:
            yield write
        except BaseException:
            with contextlib.suppress(OSError):  # the run failed; its temporary file goes anyway
                fh.close()
            raise
        with _blamed(output):
            fh.close()
            if staged:
                if os.path.exists(path):
                    os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
                os.replace(tmp, path)
    finally:
        if staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _emit(payload: bytes, output: str | None) -> None:
    with _opened(output) as write:
        write(payload)


#: Most value cells, phi(n) characters times n arguments, that char-table writes.
TABLE_BOUND = 10**7


def _write_table(n: int, fmt: str, open_out: Callable[[], ContextManager[Callable[[bytes], object]]]) -> None:
    """Write the character table of modulus n, each row as it is made, through the write
    function that open_out() gives: label, conductor, primitivity, order, and the exact
    values chi(1..n) as turn fractions ('0' marks the zero value).  A table over
    TABLE_BOUND value cells is refused before any group is built or open_out is called."""
    if n < 1:
        raise DomainError(f"modulus must be >= 1, got {n}")
    phi = euler_phi(n)
    if phi * n > TABLE_BOUND:
        raise ResourceError(f"char-table refused: phi(n)*n = {phi * n} cells exceed {TABLE_BOUND}")
    group = character_group(n)
    L = group.order_lcm
    # tokens[t] is the reduced turn t/L; index -1, a zero value, reads "0".
    tokens = [f"{t // math.gcd(t, L)}/{L // math.gcd(t, L)}" for t in range(L)] + ["0"]
    ks = np.arange(1, n + 1) % n
    conds = group.conductors()
    header = ["chi", "conductor", "primitive", "order", *(f"k{k}" for k in range(1, n + 1))]
    with open_out() as write:
        write(b'{"characters": [' if fmt == "json" else (",".join(header) + "\n").encode())
        for j, label in enumerate(character_labels(n)):
            chi = group.character(j)
            conductor, order = int(conds[j]), character_order(chi)
            values = [tokens[t] for t in group.turn_numerators(chi)[ks].tolist()]
            if fmt == "json":
                row = dict(chi=label, conductor=conductor, primitive=conductor == n, order=order, values=values)
                write(((", " if j else "") + json.dumps(row, sort_keys=True)).encode())
            else:
                cells = [f'"{label}"', str(conductor), str(conductor == n).lower(), str(order), *values]
                write((",".join(cells) + "\n").encode())
        if fmt == "json":
            write(("], " + json.dumps({"modulus": n, "phi": phi}, sort_keys=True)[1:] + "\n").encode())


def char_table_bytes(n: int, fmt: str) -> bytes:
    """The character table of modulus n, the bytes _write_table writes."""
    parts: list[bytes] = []
    _write_table(n, fmt, lambda: contextlib.nullcontext(parts.append))
    return b"".join(parts)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "char-table":
            _write_table(args.n, args.format, partial(_opened, args.output))
            return 0
        if args.command == "remark":
            _emit(format_report(reproduce_remark(), args.format), args.output)
            return 0
        n_max = args.n_max if args.n_max is not None else _SPECS[args.identity].default_n_max
        output = args.format if args.command == "verify" else "text"  # a search echoes "text": FOUND in CHANGES.md
        config = SweepConfig(args.identity, n_max, _parse_s_values(args.s), args.tolerance, output, args.jobs)
        summary = write_report(config, args.format, partial(_opened, args.output))
        return 1 if args.command == "verify" and summary["fail"] > 0 else 0
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1
    except (concurrent.futures.BrokenExecutor, MemoryError) as exc:
        print(f"error: run cut short: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
