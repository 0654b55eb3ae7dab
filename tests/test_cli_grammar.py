"""The command line grammar: the CLI's own parser reads every argv as the
argparse parser it replaced did, and no command loads argparse."""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from argparse_oracle import build_parser
from virasoro_irregular import cli

_NAMES = sorted({name for _, options in cli.COMMANDS.values() for name in options})
# option values, among them the ones that start with a dash: a negative
# number or a text holding a space is read as a value, any other as an option
_VALUES = ["1", "2", "5/2", "3/2", "0", "x", "", " 3", "+3", "json", "text", "general",
           "section2-display", "Q", "a=b", "-1", "-0", "-.5", "-2.5", "-5\n", "- 1",
           "-Q", "-Q + 1", "--rank 2", "-", "-h"]
# values near the ones an option takes; the others take any text
_FITTING = {"rank": ["1", "2", "5/2", "-1", "x"],
            "order": ["0", "2", "-1", "-0", " 3", "+3", "x"],
            "bound": ["1", "3", "-2", "x"],
            "format": ["json", "text", "xml"],
            "convention": ["general", "section2-display", "x"]}
# tokens the grammar refuses, or reads in a way that is easy to get wrong
_ODD = ["-h", "-hh", "-h=h", "-hx", "-h=", "-h h", "--help", "--he", "--help=x", "--=x",
        "--", "---", "-x", "-x=1", "--nosuch", "--ra=2 3", "stray", "construct"]


@st.composite
def _argvs(draw) -> list[str]:
    """An argv near the grammar: mostly the command's own options, whole or
    cut to a prefix, each with a fitting value next or joined by ``=``, and
    now and then an option of another command, a missing value or an odd
    token, before or after the command."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus"]))
    own = list(cli.COMMANDS.get(command, ("", _NAMES))[1])
    argv = [draw(st.sampled_from(_ODD))] if draw(st.integers(0, 9)) == 0 else []
    argv.append(command)
    names = [draw(st.sampled_from(own)) for _ in range(draw(st.integers(0, 5)))]
    if draw(st.integers(0, 5)):
        names.insert(0, "rank")
    for name in names:
        piece = draw(st.integers(0, 9))
        if piece == 9:
            argv.append(draw(st.sampled_from(_ODD) | st.text("-=h1 Q", max_size=4)))
            continue
        if piece == 8:
            name = draw(st.sampled_from(_NAMES))
        flag = "--" + name[:draw(st.integers(1, len(name)))] if piece >= 6 else "--" + name
        value = draw(st.sampled_from(_FITTING.get(name, _VALUES) if piece < 7 else _VALUES))
        argv += [flag] if piece == 5 else [f"{flag}={value}"] if piece % 2 else [flag, value]
    return argv


def _read(parse, argv: list[str]) -> tuple[object, str, str]:
    """What ``parse`` makes of ``argv``, or the code it exits with, and what
    it prints to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _argparse_values(argv: list[str]) -> dict:
    return vars(build_parser().parse_args(argv))


def _table_values(argv: list[str]) -> dict:
    # in argparse's namespace: every option of the command, None where not
    # given, except --format, which is stored as fmt with its default
    command, options = cli._parse(argv)
    values = {name: options.get(name) for name in cli.COMMANDS[command][1]}
    values["fmt"] = values.pop("format") or "text"
    return {"command": command, **values}


@settings(max_examples=500, deadline=None)
@given(_argvs())
@example([])
@example(["--", "construct", "--rank", "2"])
@example(["construct", "-h", "--"])             # help before "--" is read
@example(["construct", "--rank", "2", "--", "-h"])    # and after it is not
@example(["gauge", "--rank", "-1", "--central", "-Q + 1", "--order=-0"])
def test_the_parser_reads_every_argv_as_argparse_did(argv):
    expected, _, _ = _read(_argparse_values, argv)
    actual, out, err = _read(_table_values, argv)
    assert actual == expected, argv
    if actual == 0:
        assert out.startswith("usage: virasoro-irregular") and not err
    elif actual == 2:
        usage, error = err.splitlines()
        assert usage.startswith("usage: virasoro-irregular") and not out
        assert error.startswith("virasoro-irregular: error: ")


def test_a_joined_double_dash_is_the_value():
    # argparse dropped a joined "--" and stored an empty list, which crashed
    # _config for --rank, --order, --bound, --central and --input; the value
    # is the text after "=", here a file named "--"
    assert cli._parse(["construct", "--rank", "2", "--output=--"]) == (
        "construct", {"rank": "2", "output": "--"})
    for argv in (["construct", "--rank", "2", "--format=--"],
                 ["verify", "--rank", "1", "--convention=--"],
                 ["gauge", "--rank", "3/2", "--bound=--"]):
        assert _read(cli._parse, argv)[0] == 2


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_is_rendered_from_the_table(command):
    argv = ["-h"] if command is None else [command, "--help"]
    code, out, err = _read(cli.main, argv)
    assert code == 0 and not err
    names = cli.COMMANDS if command is None else (
        f"--{name}" for name in cli.COMMANDS[command][1])
    assert all(name in out for name in names)


def test_no_command_loads_argparse(tmp_path):
    # pytest loads argparse itself, so the commands run in a fresh interpreter
    code = ("import contextlib, io, sys\n"
            "from virasoro_irregular.cli import main\n"
            "report = sys.argv[1]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['construct', '--rank', '2', '--order', '1',\n"
            "                 '--format', 'json', '--output', report]) == 0\n"
            "    assert main(['verify', '--input', report]) == 0\n"
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n")
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
