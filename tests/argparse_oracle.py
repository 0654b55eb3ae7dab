"""The command line grammar as argparse read it before the CLI parsed its
own argv, kept as the reference the CLI's parser is tested against.

``build_parser`` is the CLI's former parser, unchanged.  Its readings are
those of the Python 3.11 argparse this suite runs under.
"""

from __future__ import annotations

import argparse

from virasoro_irregular.frames import CONVENTIONS, GENERAL

# truncation order of the subcommands that take ``--order``, when it is not given
ORDER_DEFAULTS = {"construct": 3, "verify": 3, "gram": 3, "gauge": 4}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virasoro-irregular",
        description="Construct and check irregular Virasoro series.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str,
            rank_required: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--rank", required=rank_required,
                         help="integer rank like 3 or a half rank like 5/2")
        if name in ORDER_DEFAULTS:
            cmd.add_argument("--order", type=int,
                             help=f"truncation order (default {ORDER_DEFAULTS[name]})")
        cmd.add_argument("--format", choices=("json", "text"), default="text",
                         dest="fmt", help="report rendering (default text)")
        cmd.add_argument("--output", help="write the report to this path")
        return cmd

    construct = add("construct", "solve a series and write it out")
    verify = add("verify", "re-check a series from scratch", rank_required=False)
    verify.add_argument("--input", help="re-ingest a JSON report written by construct "
                                        "(excludes --rank, --order, --central and "
                                        "--convention)")
    add("frames", "frame matrix, determinants, and dual operator")
    add("gram", "pairing blocks and determinant ratios")
    gauge_cmd = add("gauge", "obstruction scalars and their potential")
    gauge_cmd.add_argument("--bound", type=int,
                           help="denominator bound for the scalar completion "
                                "(half ranks only)")
    for cmd in (construct, verify, gauge_cmd):
        cmd.add_argument("--central", help="central charge expression in Q and c0")
    for cmd in (construct, verify):
        cmd.add_argument("--convention", choices=CONVENTIONS,
                         help=f"eigenvalue convention, rank one only (default {GENERAL})")
    return parser
