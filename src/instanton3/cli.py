"""Command-line front end.

Four subcommands: ``chi`` evaluates the Euler characteristic of a twisted
sheaf with given Chern classes, ``table`` prints the natural-cohomology
table over a twist window, ``spectra`` enumerates candidate spectra with
their predicted cohomology, and ``verify-paper`` replays the full claim
checklist.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 model obstruction (no natural table exists for the given classes).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .chern import ChernData, _jsonable, euler_characteristic
from .cohomtable import natural_table
from .errors import NotNaturalizable, ToolkitError
from .spectrum import enumerate_spectra, h1_from_spectrum, h2_from_spectrum, is_instanton_spectrum

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_MODEL = 3


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _chern_from_args(args: argparse.Namespace) -> ChernData:
    return ChernData(args.rank, args.c1, args.c2, args.c3)


def cmd_chi(args: argparse.Namespace) -> int:
    data = _chern_from_args(args)
    chi = euler_characteristic(data, args.m)
    if args.format == "json":
        _print_json({"chern": _jsonable(data), "m": args.m, "chi": chi})
    else:
        print(chi)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    data = _chern_from_args(args)
    tbl = natural_table(data, args.t_min, args.t_max)
    if args.format == "json":
        _print_json(tbl.to_json_dict())
    else:
        print(tbl.to_text())
    return EXIT_OK


def cmd_spectra(args: argparse.Namespace) -> int:
    rows = [
        (sp.ks, h1_from_spectrum(sp, -2), h2_from_spectrum(sp, -2), is_instanton_spectrum(sp))
        for sp in enumerate_spectra(args.n, args.bound)
    ]
    # Neither list is ever empty: n >= 1, and the all-zero spectrum is always found.
    if args.format == "json":
        # json.dumps(indent=2, sort_keys=True) byte for byte, without its pure-Python indent encoder.
        ks_sep = ",\n        "
        entries = ",\n".join(
            f'    {{\n      "h1_minus2": {h1},\n      "h2_minus2": {h2},\n'
            f'      "instanton": {str(instanton).lower()},\n'
            f'      "ks": [\n        {ks_sep.join(map(str, ks))}\n      ]\n    }}'
            for ks, h1, h2, instanton in rows
        )
        print(f'{{\n  "bound": {args.bound},\n  "n": {args.n},\n  "spectra": [\n{entries}\n  ]\n}}')
    else:
        print(
            "\n".join(
                f"({','.join(map(str, ks))}): h1(-2)={h1} h2(-2)={h2} instanton={'yes' if instanton else 'no'}"
                for ks, h1, h2, instanton in rows
            )
        )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import report_json_dict, report_text, run_all  # only verify-paper needs the checklist

    results = run_all()
    if args.format == "json":
        _print_json(report_json_dict(results))
    else:
        print(report_text(results))
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY_FAILED


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")


def _add_chern_positionals(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("rank", type=int, help="rank of the sheaf")
    parser.add_argument("c1", type=int, help="first Chern class")
    parser.add_argument("c2", type=int, help="second Chern class")
    parser.add_argument("c3", type=int, help="third Chern class")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    ``parse_args`` fills a fresh Namespace on every call, so sharing the
    parser carries no state from one ``main`` call to the next; callers
    must not add to it.  It holds no handler functions: ``main`` looks the
    handler up by subcommand name when it runs, so rebinding a ``cmd_*``
    function still takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="instanton3",
        description="Exact Chern-class arithmetic for rank-3 bundles on projective 3-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="Euler characteristic of a twisted sheaf")
    _add_chern_positionals(p_chi)
    p_chi.add_argument("--m", type=int, default=0, help="twist to evaluate at (default 0)")
    _add_format(p_chi)

    p_table = sub.add_parser("table", help="natural-cohomology table over a twist window")
    _add_chern_positionals(p_table)
    p_table.add_argument("t_min", type=int, help="first twist of the window")
    p_table.add_argument("t_max", type=int, help="last twist of the window")
    _add_format(p_table)

    p_spectra = sub.add_parser("spectra", help="enumerate zero-sum spectra and their predictions")
    p_spectra.add_argument("n", type=int, help="spectrum length (the charge)")
    p_spectra.add_argument("--bound", type=int, default=1, help="entry bound of the search box (default 1)")
    _add_format(p_spectra)

    p_verify = sub.add_parser("verify-paper", help="replay the published claim checklist")
    _add_format(p_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {"chi": cmd_chi, "table": cmd_table, "spectra": cmd_spectra, "verify-paper": cmd_verify}
    try:
        return handlers[args.command](args)
    except NotNaturalizable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())
