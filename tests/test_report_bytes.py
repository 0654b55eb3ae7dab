"""Report bytes: the direct JSON emitter against ``json``, and pinned reports."""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from virasoro_irregular import cli, serialize
from virasoro_irregular.cli import main


def _reference(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ----- emitter equivalence --------------------------------------------------------

_STRINGS = (st.text(max_size=8)
            | st.sampled_from(['"', "\\", "/", "\n\t\b\f\r", "\x00\x1f\x7f",
                               "é€", "😀", "\ud800", ""]))
_INTS = st.integers() | st.integers(min_value=-2**200, max_value=2**200)
_TERMS = st.fixed_dictionaries({"d": _INTS, "e": st.lists(_INTS, max_size=4),
                                "n": _INTS})
_LEAVES = st.none() | st.booleans() | _INTS | _STRINGS | _TERMS
_TREES = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_STRINGS, children, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_dumps_matches_json_on_random_trees(doc):
    assert serialize.dumps(doc) == _reference(doc)


_NEAR_MISS_TERMS = [
    {"d": 1, "e": [0, 2], "n": -3, "x": 0},      # an extra key
    {"d": 1, "e": [0, 2]},                        # a missing key
    {"d": True, "e": [0, 2], "n": 1},
    {"d": 1, "e": [0, 2], "n": False},
    {"d": "1", "e": [0, 2], "n": 1},
    {"d": 1, "e": [0, 2], "n": "-3"},
    {"d": None, "e": [0, 2], "n": 1},
    {"d": 1, "e": [0, True], "n": 1},
    {"d": 1, "e": ["0", 2], "n": 1},
    {"d": 1, "e": [None, [2]], "n": 1},
    {"d": 1, "e": (0, 2), "n": 1},
    {"d": 1, "e": [], "n": 1},
    {"d": 1, "e": 0, "n": 1},
    {"d": 1, "e": {"0": 2}, "n": 1},
]


@pytest.mark.parametrize("record", _NEAR_MISS_TERMS)
def test_dumps_matches_json_on_near_miss_term_records(record):
    for doc in (record, [record], {"poly": [record, record]}, [[record], {}, []]):
        assert serialize.dumps(doc) == _reference(doc)


@pytest.mark.parametrize("doc", [
    1.5, [0.0], {"a": {"b": [1, 2.5]}},
    [{"d": 1.0, "e": [0], "n": 1}], [{"d": 1, "e": [0.0], "n": 1}],
    {1: 2},                                        # json would write "1"
])
def test_dumps_rejects_floats_and_non_string_keys(doc):
    with pytest.raises(TypeError):
        serialize.dumps(doc)


COMMAND_ARGVS = [
    ["construct", "--rank", "2", "--order", "2"],
    ["construct", "--rank", "3/2", "--order", "2"],
    ["construct", "--rank", "1", "--order", "3"],
    ["verify", "--rank", "2", "--order", "2"],
    ["verify", "--rank", "1", "--order", "2"],
    ["gauge", "--rank", "2", "--order", "4"],
    ["gram", "--rank", "2", "--order", "3"],
    ["frames", "--rank", "3"],
    ["frames", "--rank", "5/2"],
    ["gauge", "--rank", "2", "--order", "1"],     # an error record
]


def _recording(monkeypatch) -> list:
    """Make ``serialize.dumps`` record each document it is given."""
    docs = []
    real_dumps = serialize.dumps

    def recording_dumps(doc, handle=None):
        docs.append(doc)
        return real_dumps(doc, handle)

    monkeypatch.setattr(serialize, "dumps", recording_dumps)
    return docs


@pytest.mark.parametrize("argv", COMMAND_ARGVS)
def test_dumps_matches_json_on_every_command_document(argv, monkeypatch, capsys):
    docs = _recording(monkeypatch)
    main(argv + ["--format", "json"])
    (doc,) = docs
    assert capsys.readouterr().out == _reference(doc)


@pytest.mark.parametrize("argv", COMMAND_ARGVS)
def test_streamed_report_file_matches_json(argv, monkeypatch, tmp_path):
    docs = _recording(monkeypatch)
    report = tmp_path / "report.json"
    main(argv + ["--format", "json", "--output", str(report)])
    (doc,) = docs
    assert report.read_bytes() == _reference(doc).encode()


@settings(max_examples=100, deadline=None)
@given(_TREES)
def test_dumps_streams_the_same_text_in_any_chunks(doc):
    with mock.patch.object(serialize, "_CHUNK", 1):
        handle = io.StringIO()
        assert serialize.dumps(doc, handle) is None
    assert handle.getvalue() == _reference(doc)


def test_streamed_report_is_never_held_whole(tmp_path):
    # the writer holds a few dozen pieces at a time, never the whole text or
    # its piece list, each about the report's size
    report = tmp_path / "report.json"
    cfg = cli._config(["construct", "--rank", "2", "--order", "4", "--format", "json",
                       "--output", str(report)])
    _, doc = cli.HANDLERS["construct"](cfg)
    tracemalloc.start()
    try:
        cli._emit(cfg, doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = report.stat().st_size
    assert size == PINNED_REPORTS[0][1]
    assert peak < size / 4, (peak, size)


# ----- byte contract --------------------------------------------------------------

# byte size and sha256 of the reports of the benchmark's construct and gauge
# commands, plus one small gauge report that needs three obstruction scalars
# and the order-5 rank-one reports (level 5 is the largest adjugate taken by
# expansion), as fingerprinted by tools/report_hashes.py
PINNED_REPORTS = [
    ("construct --rank 2 --order 4", 420460,
     "a1cd2f0ec70aa408c5281bb857bd9d0ab1a83fd2e4c1eb3b2a902ac9df44fd19"),
    ("construct --rank 5/2 --order 3", 110438,
     "26d189b0271316219e77529f9ebb78b7331d071f746c472d85b6af2071d9a977"),
    ("gauge --rank 2 --order 4", 5822,
     "c205fdd4f35985619e3d7659b67af45d53e1f3821f5d13768efdd0cc5d2a8182"),
    ("gauge --rank 3/2 --order 4", 5142,
     "d82f8bc5514f10fc16f0253536a8e463e9a38a76311c93f41d9981a56bffbfdc"),
    ("construct --rank 1 --order 4", 236588,
     "6ba3026bae59d65ced73868013ec660fe876847b2b5d513086e3943078de5ffd"),
    ("construct --rank 1 --order 4 --convention section2-display", 235531,
     "4d728815bfdc96789ef9c50791aa973d602d8a64b8ed2b32e3a4ce795e4d353c"),
    ("gauge --rank 3 --order 4", 10954,
     "183a32ce457253b0b34285fa1a545afb7b5803e758169d2f290c95c85d9deffd"),
    ("construct --rank 1 --order 5", 992177,
     "5c5f442cb600dee25d8e9f898b205d4e187419a84a3ccad200fd24cd54d2b28d"),
    ("construct --rank 1 --order 5 --convention section2-display", 988675,
     "564581b98a2a2295cda4113e27ad4579c8be150235f253584edc851a434dbab2"),
]


def test_a_report_on_stdout_keeps_its_bytes_through_process_exit():
    # a fresh process writing to a pipe, with no --output: nothing the
    # report flushed may be lost when the interpreter exits
    command, size, sha256 = PINNED_REPORTS[0]
    result = subprocess.run([sys.executable, "-m", "virasoro_irregular.cli",
                             *command.split(), "--format", "json"], capture_output=True)
    assert result.returncode == 0, result.stderr
    data = result.stdout
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)


@pytest.mark.parametrize("command, size, sha256", PINNED_REPORTS,
                         ids=[command for command, _, _ in PINNED_REPORTS])
def test_benchmark_reports_keep_their_bytes(command, size, sha256, tmp_path):
    report = tmp_path / "report.json"
    assert main(command.split() + ["--format", "json", "--output", str(report)]) == 0
    data = report.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)
