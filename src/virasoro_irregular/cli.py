"""Command line front end for building and checking irregular series.

Five subcommands cover the package surface: ``construct`` solves a series
and writes it out, ``verify`` re-checks a series (fresh or re-ingested from
a JSON report), ``frames`` dumps the frame matrix with its determinant and
dual-operator data, ``gram`` tabulates pairing blocks with determinant
ratios, and ``gauge`` runs the obstruction pipeline.  Reports are emitted
as exact JSON (byte-deterministic, no decimals) or as a plain-text
rendering of the same tree.  Exit codes: 0 clean, 1 for residual failures
or solver errors (with a structured error in the report), 2 for usage
errors.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from fractions import Fraction
from typing import NoReturn

from . import gauge, serialize
from .frames import CONVENTIONS, GENERAL, Family
from .linalg import det_bareiss, inverse_exact
from .gram import GramError, gram_matrix, pure_power_factor
from .ring import LaurentPoly, RingError, VarTable
from .serialize import SerializeError, format_rank, parse_rank, poly_terms
from .solver import (HALF, INTEGER, RANK_ONE, SolverError, rank1_series,
                     solve_half, solve_integer, verify_canonical)
from .virasoro import ModuleContext


class RunConfig:
    """Validated invocation parameters shared by the subcommands.  ``family``
    is ``None`` only for ``verify --input``; ``central`` is the parsed
    ``--central`` over ``Q`` and ``c0``; ``declared`` holds the input's meta
    block once :func:`_build_series` has read the input."""

    __slots__ = ("command", "family", "order", "central", "convention", "fmt",
                 "output", "bound", "input", "declared")

    def __init__(self, command: str, family: Family | None, order: int,
                 central: LaurentPoly | None, convention: str, fmt: str,
                 output: str | None, bound: int | None, input: str | None = None) -> None:
        self.command, self.family, self.order, self.central = command, family, order, central
        self.convention, self.fmt, self.output = convention, fmt, output
        self.bound, self.input, self.declared = bound, input, None


# ----- the command line --------------------------------------------------------

PROG = "virasoro-irregular"
REQUIRED = object()     # the default of an option that must be given

# each option's conversion (str, int or a tuple of its choices) and help
OPTIONS = {
    "rank": (str, "integer rank like 3 or a half rank like 5/2"),
    "order": (int, "truncation order"),
    "format": (("json", "text"), "report rendering"),
    "output": (str, "write the report to this path"),
    "input": (str, "re-ingest a JSON report written by construct "
                   "(excludes --rank, --order, --central and --convention)"),
    "bound": (int, "denominator bound for the scalar completion (half ranks only)"),
    "central": (str, "central charge expression in Q and c0"),
    "convention": (CONVENTIONS, "eigenvalue convention, rank one only"),
}

# each command's summary and its options with their defaults, in help order;
# verify takes its series from --input when no --rank is given
COMMANDS = {
    "construct": ("solve a series and write it out",
                  {"rank": REQUIRED, "order": 3, "format": "text", "output": None,
                   "central": None, "convention": GENERAL}),
    "verify": ("re-check a series from scratch",
               {"rank": None, "order": 3, "format": "text", "output": None,
                "input": None, "central": None, "convention": GENERAL}),
    "frames": ("frame matrix, determinants, and dual operator",
               {"rank": REQUIRED, "format": "text", "output": None}),
    "gram": ("pairing blocks and determinant ratios",
             {"rank": REQUIRED, "order": 3, "format": "text", "output": None}),
    "gauge": ("obstruction scalars and their potential",
              {"rank": REQUIRED, "order": 4, "format": "text", "output": None,
               "bound": None, "central": None}),
}

USAGE = f"usage: {PROG} {{{','.join(COMMANDS)}}} [--option value ...] [-h]"
# a negative number, which is an option's value rather than an option
_NEGATIVE = r"-\d+$|-\d*\.\d+$"


def _scalar_expression(text: str) -> LaurentPoly:
    """Parse a central-charge expression in ``Q`` and ``c0`` exactly.

    Supports integer literals, the two symbols, ``+ - * /`` and ``**`` with
    literal non-negative integer exponents; division only by nonzero
    constants, so no decimals can sneak in.  Any other text, one nested past
    the interpreter's recursion limit, or one whose exponents leave the
    packed range raises ``ValueError``.
    """
    import ast  # only --central needs it; a top-level import slows every start-up

    table = VarTable(("Q", "c0"), (0, 0))

    def walk(node: ast.AST) -> LaurentPoly:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return LaurentPoly.const(table, node.value)
        if isinstance(node, ast.Name):
            if node.id in table.names:
                return LaurentPoly.var(table, node.id)
            raise ValueError(f"unknown symbol {node.id!r} (only Q and c0 are allowed)")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                power = node.right
                if not (isinstance(power, ast.Constant)
                        and isinstance(power.value, int) and power.value >= 0):
                    raise ValueError("exponents must be literal non-negative integers")
                return walk(node.left) ** power.value
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                if right.is_constant() and not right.is_zero():
                    return left * (Fraction(1) / right.as_rational())
                raise ValueError("division is only allowed by nonzero constants")
        raise ValueError(f"unsupported syntax in central charge {text!r}")

    try:
        return walk(ast.parse(text, mode="eval"))
    except SyntaxError:
        raise ValueError(f"cannot parse central charge {text!r}") from None
    except RecursionError:
        raise ValueError("the central charge is nested too deeply") from None
    except RingError as exc:
        raise ValueError(f"the central charge is out of range: {exc}") from None


def _token(token: str, names) -> tuple[str | None, str | None] | None:
    """What ``token`` is where ``names`` are the options: ``None`` for a
    value, else the option it names (``None`` for an unknown one) and the
    value joined to it (``None`` for none).  ``-h`` is ``--help``, and so is
    ``-hh…``; a long option may be cut to any prefix that names it alone."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] != "-":
        if token[1] != "h":
            return None if re.match(_NEGATIVE, token) or " " in token else (None, None)
        joined = token[3:] if token.startswith("-h=") else token[2:]
        repeated = token == "-h" or joined and not joined.strip("h")    # -hh, -h=h
        return "help", None if repeated else joined
    name, eq, joined = token[2:].partition("=")
    matches = [name] if name in names else [n for n in names if n.startswith(name)]
    if len(matches) > 1:
        _usage_error(f"ambiguous option: --{name} could match --{', --'.join(matches)}")
    if matches:
        return matches[0], joined if eq else None
    return None if " " in token else (None, None)


def _parse(argv: list[str]) -> tuple[str, dict]:
    """Read ``argv`` against COMMANDS: the command and the options given to
    it, converted, the last occurrence of each winning.  An option's value
    follows it as the next argument or joined by ``=``; a next argument that
    starts with ``-`` is a value only if it reads as a negative number or
    holds a space.  ``-h`` or ``--help`` prints the help and exits 0; every
    other malformed argv is a usage error."""
    extra = []
    for index, token in enumerate(argv):
        kind = None if token == "--" else _token(token, ("help",))
        if kind is None:
            break
        if kind[0] == "help":
            _help(None, kind[1])
        extra.append(token)
    else:
        _usage_error("a command is required")
    command, tokens = argv[index], argv[index + 1:]
    if command not in COMMANDS:
        _usage_error(f"invalid command {command!r} (choose from {', '.join(COMMANDS)})")
    options = COMMANDS[command][1]
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_token(token, ("help", *options)) for token in tokens[:end]]
    given, index = {}, 0
    while index < end:
        (name, value), index = kinds[index] or (None, None), index + 1
        if name is None:    # a value no option takes, or an unknown option
            extra.append(tokens[index - 1])
            continue
        if name == "help":
            _help(command, value)
        if value is None:
            if index == end or kinds[index] is not None:
                _usage_error(f"--{name} expects a value")
            value, index = tokens[index], index + 1
        convert = OPTIONS[name][0]
        if convert is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"--{name} takes an integer, not {value!r}")
        elif convert is not str and value not in convert:
            _usage_error(f"--{name} takes one of {', '.join(convert)}, not {value!r}")
        given[name] = value
    missing = [f"--{name}" for name, default in options.items()
               if default is REQUIRED and name not in given]
    if missing:
        _usage_error(f"{command} requires {', '.join(missing)}")
    if extra or end < len(tokens):
        _usage_error(f"unrecognized arguments: {' '.join(extra + tokens[end:])}")
    return command, given


def _help(command: str | None, joined: str | None) -> NoReturn:
    """Print the help of ``command``, or of the program, and exit 0; a value
    joined to ``--help`` is a usage error instead."""
    if joined is not None:
        _usage_error(f"--help takes no value, not {joined!r}")
    if command is None:
        lines = [USAGE, "", "Construct and check irregular Virasoro series.", ""]
        lines += [f"  {name:10} {summary}" for name, (summary, _) in COMMANDS.items()]
    else:
        summary, options = COMMANDS[command]
        lines = [f"usage: {PROG} {command} [--option value ...] [-h]", "", summary, ""]
        for name, default in options.items():
            convert, text = OPTIONS[name]
            value = "{%s}" % ",".join(convert) if isinstance(convert, tuple) else name.upper()
            note = ("" if default is None else " (required)" if default is REQUIRED
                    else f" (default {default})")
            lines.append(f"  --{name} {value}\n        {text}{note}")
    print(*lines, sep="\n")
    sys.exit(0)


def _usage_error(message: str) -> NoReturn:
    """Print the usage line and ``message`` to stderr and exit 2."""
    print(USAGE, f"{PROG}: error: {message}", sep="\n", file=sys.stderr)
    sys.exit(2)


def _config(argv: list[str]) -> RunConfig:
    """Read ``argv`` and check its options against each other."""
    command, given = _parse(argv)
    args = {**COMMANDS[command][1], **given}
    family: Family | None = None
    input_path = args.get("input")
    if input_path is not None and not os.path.exists(input_path):
        _usage_error(f"input file {input_path!r} does not exist")
    if args["rank"] is None and input_path is None:
        _usage_error("either --rank or --input is required")
    if input_path is not None:
        declared = [f"--{name}" for name in ("rank", "order", "central", "convention")
                    if name in given]
        if declared:
            _usage_error(f"{', '.join(declared)} cannot be given with --input, "
                         "whose report declares the series")
    if args["rank"] is not None:
        try:
            family = parse_rank(args["rank"])
        except SerializeError as exc:
            _usage_error(str(exc))
    kind = None if family is None else family.kind
    order = args.get("order", 0)
    if order < 0:
        _usage_error("order must be non-negative")
    bound = args.get("bound")
    if bound is not None and bound < 1:
        _usage_error("bound must be at least 1")
    if bound is not None and kind != HALF:
        _usage_error("--bound applies to half ranks only")
    convention = args.get("convention", GENERAL)
    if convention != GENERAL and kind in (INTEGER, HALF):
        _usage_error("the section2-display convention applies to rank one only")
    central = args.get("central")
    if central is not None:
        try:
            central = _scalar_expression(central)
        except ValueError as exc:
            _usage_error(str(exc))
    if command == "gram" and kind == HALF:
        _usage_error("gram blocks are indexed by an integer rank")
    if command == "gauge" and kind == RANK_ONE:
        _usage_error("gauge requires rank at least 2 or a half rank")
    if args["output"]:
        _check_output(args["output"])
    return RunConfig(
        command=command, family=family, order=order,
        central=central, convention=convention,
        fmt=args["format"], output=args["output"], bound=bound, input=input_path)


def _writes_in_place(path: str) -> bool:
    """Whether ``--output`` is a device or FIFO, written without a rename."""
    return os.path.exists(path) and not os.path.isfile(path)


def _check_output(path: str) -> None:
    """Exit 2 before any solve if the report cannot be written to ``path``."""
    if os.path.isdir(path):
        _usage_error(f"--output {path!r} is a directory")
    if _writes_in_place(path):
        ok = os.access(path, os.W_OK)
    else:   # the folder takes the .part file
        folder = os.path.dirname(os.path.realpath(path))
        ok = os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)
    if not ok:
        _usage_error(f"--output {path!r} is not writable "
                     "(missing folder or no permission)")


# ----- shared helpers -----------------------------------------------------------


def _build_series(cfg: RunConfig):
    """Solve the series the options declare, or rebuild the one ``--input``
    holds.  The input is read once; its meta block stays on ``cfg.declared``
    for an error record, and the rest is dropped once the series is built."""
    if cfg.input is not None:
        with open(cfg.input, "r", encoding="utf-8") as handle:
            source = json.load(handle)
        cfg.declared = source.get("meta") if isinstance(source, dict) else None
        return serialize.series_from_doc(source)
    if cfg.family.kind == RANK_ONE:
        return rank1_series(cfg.order, cfg.convention, cfg.central)
    solve = solve_integer if cfg.family.kind == INTEGER else solve_half
    return solve(cfg.family.r, cfg.order, cfg.central)


def _meta(cfg: RunConfig, central: LaurentPoly | None = None) -> dict:
    return {
        "rank": None if cfg.family is None else format_rank(cfg.family),
        "K": cfg.order,
        "convention": cfg.convention,
        "central": None if central is None else poly_terms(central),
    }


def _error_meta(cfg: RunConfig) -> dict:
    """Meta block of an error record.

    It carries ``--central`` as given, over the variables ``Q`` and ``c0``.
    For ``verify --input``, which takes no ``--central``, the rank, order,
    convention and central charge are those the input declares (the central
    charge as its term records, over the input's own variables), each
    ``None`` where the input's meta block does not supply it or the input
    could not be read as JSON.
    """
    meta = _meta(cfg, cfg.central)
    if cfg.input is None:
        return meta
    declared = cfg.declared
    if not isinstance(declared, dict):
        declared = {}
    for key, kind in (("rank", str), ("K", int), ("convention", str)):
        value = declared.get(key)
        meta[key] = value if type(value) is kind else None
    central = declared.get("central")
    meta["central"] = central if _is_term_list(central) else None
    return meta


def _is_term_list(value: object) -> bool:
    """Whether ``value`` is a list of ``{"e", "n", "d"}`` term records."""
    return isinstance(value, list) and all(
        isinstance(term, dict) and set(term) == {"e", "n", "d"}
        and isinstance(term["e"], list) and all(type(e) is int for e in term["e"])
        and type(term["n"]) is int and type(term["d"]) is int and term["d"] != 0
        for term in value)


def _matrix_terms(rows: list[list[LaurentPoly]]) -> list[list[list[dict]]]:
    return [[poly_terms(entry) for entry in row] for row in rows]


def _fields_doc(fields) -> list[dict]:
    return [{"mode": mode,
             "components": {name: poly_terms(poly)
                            for name, poly in sorted(comps.items())}}
            for mode, comps in enumerate(fields)]


def _dual_doc(op) -> dict:
    return {"var": op.var,
            "orders": [{"i": i, "terms": [{"n": n, "poly": poly_terms(poly)}
                                          for n, poly in sorted(level.items())]}
                       for i, level in enumerate(op.orders)]}


# ----- subcommands --------------------------------------------------------------


def _cmd_construct(cfg: RunConfig) -> tuple[int, dict]:
    series = _build_series(cfg)
    report = verify_canonical(series)
    # the caches are dead from here on; the document tree reuses their memory
    series.ctx.drop_caches()
    doc = serialize.series_to_doc(series)
    doc["residuals"] = serialize.report_doc(report)
    return (0 if report.all_ok else 1), doc


def _cmd_verify(cfg: RunConfig) -> tuple[int, dict]:
    series = _build_series(cfg)
    report = verify_canonical(series)
    if report.all_ok:   # the relations hold, so a record that disagrees was edited
        serialize.check_unknowns(series)
    doc = serialize.series_header(series)
    doc["residuals"] = serialize.report_doc(report)
    return (0 if report.all_ok else 1), doc


def _cmd_frames(cfg: RunConfig) -> tuple[int, dict]:
    family = cfg.family
    table = family.frame_table()
    matrix = family.frame_matrix(table)
    expected = family.expected_det(table)
    det = det_bareiss(matrix)
    ok = det == expected
    doc = {
        "meta": {"rank": format_rank(family), "K": None,
                 "convention": cfg.convention, "central": None},
        "variables": serialize.variables_doc(table),
        "frames": {
            "matrix": _matrix_terms(matrix),
            "det": poly_terms(det),
            "expected_det": poly_terms(expected),
            "det_matches": ok,
            "inverse": _matrix_terms(inverse_exact(matrix)),
            "fields": _fields_doc(family.fields(table)),
            "dual": _dual_doc(family.dual_operator(table)),
        },
        "residuals": [{"relation": "frame determinant closed form",
                       "window": f"rank {format_rank(family)}",
                       "status": "ok" if ok else "fail"}],
    }
    return (0 if ok else 1), doc


def _cmd_gram(cfg: RunConfig) -> tuple[int, dict]:
    rho = cfg.family.r
    names = ("cv",) + tuple(f"E{n}" for n in range(rho, 2 * rho + 1))
    weights = (0,) + tuple(range(rho, 2 * rho + 1))
    table = VarTable(names, weights)
    eigen = {n: LaurentPoly.var(table, f"E{n}") for n in range(rho, 2 * rho + 1)}
    ctx = ModuleContext(table, rho, eigen, LaurentPoly.var(table, "cv"))
    base = ctx.eigenvalue(2 * rho)
    blocks = []
    for lo in range(cfg.order + 1):
        for hi in range(lo, cfg.order + 1):
            parts, rows = gram_matrix(ctx, lo, hi)
            det = det_bareiss(rows)
            record = {
                "lo": lo, "hi": hi, "size": len(parts),
                "partitions": [serialize.partition_key(lam) for lam in parts],
                "matrix": _matrix_terms(rows),
                "det": poly_terms(det),
            }
            try:
                exponent, ratio = pure_power_factor(det, base)
                record["factored"] = {"base": poly_terms(base), "exponent": exponent,
                                      "ratio": {"n": ratio.numerator,
                                                "d": ratio.denominator}}
            except GramError as exc:
                record["factored"] = None
                record["detail"] = str(exc)
            blocks.append(record)
    doc = {
        "meta": _meta(cfg),
        "variables": serialize.variables_doc(table),
        "gram": {"base": poly_terms(base), "blocks": blocks},
    }
    return 0, doc


def _cmd_gauge(cfg: RunConfig) -> tuple[int, dict]:
    # the completion does not read the series, so an unreachable --bound
    # fails before the solve
    completion = None
    residuals: list[dict] = []
    if cfg.family.kind == HALF:
        completion = gauge.scalar_completion_half(cfg.family.r, cfg.bound or cfg.family.r)
        residuals.extend(serialize.report_doc(completion.checks))
    series = _build_series(cfg)
    obs = gauge.obstructions(series, completion)
    frob = gauge.frobenius_verify(obs)
    certificate = gauge.lstar_certificate(obs)
    cert_ok = certificate.is_zero_on_window()
    decomp = gauge.integrate_potential(obs)
    applied = gauge.apply_gauge_and_verify(obs, decomp)
    residuals.extend(serialize.report_doc(frob))
    residuals.append({"relation": "top frame row certificate",
                      "window": gauge.window_str(certificate),
                      "status": "ok" if cert_ok else "fail"})
    residuals.extend(serialize.report_doc(applied))
    table = series.table
    gauge_doc = {
        "a": [serialize.truncated_doc(a) for a in obs.a],
        "g0": poly_terms(decomp.g0),
        "nu": [{"j": j, "poly": poly_terms(decomp.nu[j])} for j in sorted(decomp.nu)],
        "passives": list(decomp.passives),
        "sigma": None,
    }
    if completion is not None:
        gauge_doc["sigma"] = {
            "bound": completion.bound,
            "scalars": [poly_terms(sigma.migrate(table))
                        for sigma in completion.sigma],
        }
    ok = frob.all_ok and cert_ok and applied.all_ok
    doc = serialize.series_header(series)
    doc["gauge"] = gauge_doc
    doc["residuals"] = residuals
    return (0 if ok else 1), doc


HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "frames": _cmd_frames,
    "gram": _cmd_gram,
    "gauge": _cmd_gauge,
}


# ----- rendering ----------------------------------------------------------------


def _poly_text(table: VarTable | None, terms: list) -> str:
    if not terms:
        return "0"
    if table is None or any(len(item["e"]) != len(table) for item in terms):
        return json.dumps(terms, sort_keys=True)
    return str(serialize.poly_from_terms(table, terms))


def _scalar_text(table: VarTable | None, node: object) -> str | None:
    """Render leaf nodes: term lists, coefficient pairs, plain scalars."""
    if node is None or isinstance(node, (bool, int, str)):
        return str(node)
    if node == []:
        return "[]"
    if _is_term_list(node):
        return _poly_text(table, node)
    if isinstance(node, dict) and set(node) == {"num", "den"}:
        num = _poly_text(table, node["num"])
        den = _poly_text(table, node["den"])
        return num if den == "1" else f"({num}) / ({den})"
    if isinstance(node, dict) and set(node) == {"n", "d"}:
        return str(Fraction(node["n"], node["d"]))
    return None


def _render_lines(node: object, table: VarTable | None, indent: int,
                  lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "relation" and set(node) >= {"relation", "window", "status"}:
                lines.append(f"{pad}{node['status']:4} {node['relation']}"
                             f" [{node['window']}]")
                return
            label = key if key else "u"
            leaf = _scalar_text(table, value)
            if leaf is not None:
                lines.append(f"{pad}{label}: {leaf}")
            else:
                lines.append(f"{pad}{label}:")
                _render_lines(value, table, indent + 1, lines)
        return
    if isinstance(node, list):
        for index, item in enumerate(node):
            leaf = _scalar_text(table, item)
            if leaf is not None:
                lines.append(f"{pad}[{index}] {leaf or 'u'}")
            else:
                lines.append(f"{pad}[{index}]")
                _render_lines(item, table, indent + 1, lines)
        return
    lines.append(f"{pad}{node!r}")


def render_text(doc: dict) -> str:
    """Human-readable rendering of the same report tree as the JSON form."""
    table: VarTable | None = None
    header = doc.get("variables")
    if (isinstance(header, dict) and isinstance(header.get("names"), list)
            and isinstance(header.get("weights"), list)):
        table = VarTable(tuple(header["names"]), tuple(header["weights"]))
    lines: list[str] = []
    _render_lines(doc, table, 0, lines)
    return "\n".join(lines) + "\n"


def _emit(cfg: RunConfig, doc: dict) -> None:
    """Write the report, JSON streamed.  A regular ``--output`` file is
    written as ``<output>.part`` and renamed over the target when complete,
    or removed on any failure; a device or FIFO is written in place."""
    def write(handle) -> None:
        if cfg.fmt == "json":
            serialize.dumps(doc, handle)
        else:
            handle.write(render_text(doc))

    if not cfg.output:
        write(sys.stdout)
        return
    if _writes_in_place(cfg.output):
        with open(cfg.output, "w", encoding="utf-8") as handle:
            write(handle)
        return
    target = os.path.realpath(cfg.output)   # a symlink keeps pointing at the report
    part = target + ".part"
    try:
        with open(part, "w", encoding="utf-8") as handle:
            write(handle)
        os.replace(part, target)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The first call in a process freezes the collector's heap, so what is
    loaded by then is never walked again, not even by the sweeps at exit;
    later calls in the process, as from tests, freeze nothing more.
    """
    if not gc.get_freeze_count():
        gc.freeze()     # once per process: a second freeze would pin a caller's garbage
    cfg = _config(sys.argv[1:] if argv is None else list(argv))
    try:
        code, doc = HANDLERS[cfg.command](cfg)
    except (RingError, SolverError, gauge.GaugeError, SerializeError,
            json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        code = 1
        doc = {"meta": _error_meta(cfg),
               "error": {"type": type(exc).__name__, "message": str(exc)}}
    _emit(cfg, doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
