"""Wire format and command line behaviour: round trips, exit codes, reports."""

from __future__ import annotations

import copy
import json
import os
import random
import re
import subprocess
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from virasoro_irregular import cli
from virasoro_irregular.cli import main
from virasoro_irregular.frames import GENERAL, Family, default_central_charge
from virasoro_irregular.ring import LaurentPoly, RationalFunction, VarTable
from virasoro_irregular.serialize import (
    SerializeError,
    coeff_doc,
    coeff_from_doc,
    format_rank,
    parse_rank,
    partition_from_key,
    partition_key,
    poly_from_terms,
    poly_terms,
    series_from_doc,
    series_to_doc,
)
from virasoro_irregular.solver import (
    HALF,
    INTEGER,
    RANK_ONE,
    rank1_series,
    solve_half,
    solve_integer,
    verify_canonical,
)
from virasoro_irregular.virasoro import ModuleContext


@lru_cache(maxsize=None)
def _series(kind: str):
    if kind == INTEGER:
        return solve_integer(2, 2)
    if kind == HALF:
        return solve_half(2, 2)
    return rank1_series(2)


def _run(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


def _run_json(capsys, argv: list[str]) -> tuple[int, dict]:
    code, out = _run(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


def _table_of(doc: dict) -> VarTable:
    header = doc["variables"]
    return VarTable(tuple(header["names"]), tuple(header["weights"]))


# ----- rank strings -------------------------------------------------------------


@pytest.mark.parametrize("kind, r, text", [
    (RANK_ONE, 1, "1"), (INTEGER, 2, "2"), (INTEGER, 6, "6"),
    (HALF, 2, "3/2"), (HALF, 4, "7/2"),
])
def test_rank_strings_round_trip(kind, r, text):
    assert format_rank(Family(kind, r)) == text
    for given in (text, f"  {text} "):
        family = parse_rank(given)
        assert (family.kind, family.r) == (kind, r)


@pytest.mark.parametrize("text", ["0", "-2", "2/3", "4/2", "1/2", "7/3",
                                  "x", "3.5", "", "5/2/2"])
def test_parse_rank_rejects_malformed_strings(text):
    with pytest.raises(SerializeError):
        parse_rank(text)


# ----- polynomial terms ---------------------------------------------------------


def test_poly_terms_round_trip_random_laurent_polynomials():
    table = VarTable(("Q", "c0", "c1", "c2"), (0, 0, 1, 2))
    rng = random.Random(20240614)
    for _ in range(25):
        poly = LaurentPoly.zero(table)
        for _ in range(rng.randrange(0, 6)):
            exps = [rng.randrange(-2, 4) for _ in range(len(table))]
            coeff = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            poly = poly + LaurentPoly(table, {tuple(exps): coeff})
        terms = poly_terms(poly)
        rebuilt = poly_from_terms(table, terms)
        assert rebuilt == poly
        assert poly_terms(rebuilt) == terms


def test_poly_from_terms_rejects_malformed_records():
    table = VarTable(("Q", "c1"), (0, 1))
    with pytest.raises(SerializeError):
        poly_from_terms(table, [{"e": [1], "n": 1, "d": 1}])
    with pytest.raises(SerializeError):
        poly_from_terms(table, [{"e": [1, 0], "n": 1, "d": 0}])
    with pytest.raises(SerializeError):
        poly_from_terms(table, [{"e": [1, 0], "n": 1}])
    with pytest.raises(SerializeError):
        poly_from_terms(table, {"e": [1, 0], "n": 1, "d": 1})


def test_poly_from_terms_sums_repeated_exponent_vectors():
    table = VarTable(("Q", "c1"), (0, 1))
    q = LaurentPoly.var(table, "Q")
    records = [{"e": [1, 0], "n": 1, "d": 2}, {"e": [0, -1], "n": 3, "d": 1},
               {"e": [1, 0], "n": 1, "d": -3}, {"e": [0, -1], "n": -6, "d": 2}]
    assert poly_from_terms(table, records) == q * Fraction(1, 6)
    assert poly_from_terms(table, records[1::2]).is_zero()
    for bad in (0, 2.0, "2", None):
        record = {"e": [1, 0], "n": 1, "d": bad}
        with pytest.raises(SerializeError,
                           match=r"^malformed coefficient in term \{"):
            poly_from_terms(table, records + [record])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_poly_from_terms_matches_a_fraction_sum(data):
    table = VarTable(("Q", "c0", "c1"), (0, 0, 1))
    # few exponent vectors, so records repeat them
    pool = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                              min_size=1, max_size=4))
    nonzero = st.integers(-30, 30).filter(bool)
    records = data.draw(st.lists(st.fixed_dictionaries(
        {"e": st.sampled_from(pool), "n": st.integers(-50, 50), "d": nonzero}),
        max_size=12))
    # negated copies over a scaled denominator cancel their vector's sum
    for record in data.draw(st.lists(st.sampled_from(records), max_size=4)) \
            if records else []:
        scale = data.draw(nonzero)
        records.append({"e": record["e"], "n": -record["n"] * scale,
                        "d": record["d"] * scale})
    records = data.draw(st.permutations(records))
    reference: dict[tuple[int, ...], Fraction] = {}
    for record in records:
        key = tuple(record["e"])
        reference[key] = reference.get(key, 0) + Fraction(record["n"], record["d"])
    rebuilt = poly_from_terms(table, records)
    assert dict(rebuilt.iter_terms()) == {k: c for k, c in reference.items() if c}
    assert rebuilt.den > 0 and 0 not in rebuilt.terms.values()
    assert gcd(rebuilt.den, *rebuilt.terms.values()) == 1


def test_coefficient_docs_cover_quotients():
    table = VarTable(("Q", "c1"), (0, 1))
    q = LaurentPoly.var(table, "Q")
    c1 = LaurentPoly.var(table, "c1")
    ratio = RationalFunction(q + 1, c1 + q)
    doc = coeff_doc(ratio)
    back = coeff_from_doc(table, doc, rational=True)
    assert back == ratio
    assert coeff_from_doc(table, coeff_doc(q), rational=False) == q
    with pytest.raises(SerializeError):
        coeff_from_doc(table, doc, rational=False)


def test_partition_keys_round_trip():
    for lam in [(), (1,), (2, 1), (3, 3, 1)]:
        assert partition_from_key(partition_key(lam)) == lam
    for bad in ["1,2", "0", "a", "2,,1", "-1"]:
        with pytest.raises(SerializeError):
            partition_from_key(bad)


# ----- series documents ---------------------------------------------------------


@pytest.mark.parametrize("kind", [RANK_ONE, INTEGER, HALF])
def test_series_documents_round_trip(kind):
    series = _series(kind)
    doc = series_to_doc(series)
    rebuilt = series_from_doc(doc)
    assert verify_canonical(rebuilt).all_ok
    assert series_to_doc(rebuilt) == doc


def test_series_from_doc_rejects_tampered_documents():
    doc = series_to_doc(_series(INTEGER))
    broken = copy.deepcopy(doc)
    broken["variables"]["names"][0] = "Z"
    with pytest.raises(SerializeError):
        series_from_doc(broken)
    broken = copy.deepcopy(doc)
    broken["series"]["tail"].pop()
    with pytest.raises(SerializeError):
        series_from_doc(broken)
    broken = copy.deepcopy(doc)
    broken["series"]["tail"][1]["terms"]["2,-1"] = \
        broken["series"]["tail"][1]["terms"].popitem()[1]
    with pytest.raises(SerializeError):
        series_from_doc(broken)
    broken = copy.deepcopy(doc)
    broken["meta"]["rank"] = "2/3"
    with pytest.raises(SerializeError):
        series_from_doc(broken)
    broken = copy.deepcopy(doc)
    broken["meta"]["convention"] = "sideways"
    with pytest.raises(SerializeError):
        series_from_doc(broken)
    # the display convention exists at rank one only
    broken = copy.deepcopy(doc)
    broken["meta"]["convention"] = "section2-display"
    with pytest.raises(SerializeError):
        series_from_doc(broken)
    # rank 2 solves nu and g1 and nothing else; the re-check would index g
    # by 1 and act with nu
    for edit in (lambda body: body["g"][0].update(j=2), lambda body: body.update(nu=None),
                 lambda body: body["g"].append({"j": 2, "poly": []})):
        broken = copy.deepcopy(doc)
        edit(broken["series"])
        with pytest.raises(SerializeError, match="the nu and g records do not fit rank 2"):
            series_from_doc(broken)


# ----- construct and verify ------------------------------------------------------


def test_construct_rank_one_text_report(capsys):
    code, out = _run(capsys, ["construct", "--rank", "1", "--order", "2"])
    assert code == 0
    assert "rank: 1" in out
    assert "fail" not in out
    assert "0.5" not in out


def test_construct_rank_one_with_a_central_override(capsys):
    # the level solve works in (Delta, c) and substitutes c back, so a
    # central charge other than 1 + 6 Q^2 must reach every level
    code, doc = _run_json(capsys, ["construct", "--rank", "1", "--order", "3",
                                   "--central", "2*Q + c0"])
    assert code == 0
    assert doc["residuals"]
    assert all(entry["status"] == "ok" for entry in doc["residuals"])


def test_construct_integer_emits_the_singular_data(capsys):
    code, doc = _run_json(capsys, ["construct", "--rank", "2", "--order", "3"])
    assert code == 0
    series = series_from_doc(doc)
    table = series.table
    c0 = LaurentPoly.var(table, "c0")
    c0p = LaurentPoly.var(table, "c0p")
    c1 = LaurentPoly.var(table, "c1")
    expected = (c0 - c0p) * c1 ** 2 * Fraction(1, 2)
    assert series.g[1] == expected
    assert all(entry["status"] == "ok" for entry in doc["residuals"])


def test_construct_then_verify_round_trips_through_files(tmp_path, capsys):
    report = tmp_path / "series.json"
    code, _ = _run(capsys, ["construct", "--rank", "5/2", "--order", "2",
                            "--format", "json", "--output", str(report)])
    assert code == 0
    code, _ = _run(capsys, ["verify", "--input", str(report),
                            "--format", "json", "--output",
                            str(tmp_path / "check.json")])
    assert code == 0
    built = json.loads(report.read_text())
    checked = json.loads((tmp_path / "check.json").read_text())
    assert checked["residuals"] == built["residuals"]
    assert checked["meta"] == built["meta"]


def test_reports_are_byte_deterministic(tmp_path, capsys):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        code, _ = _run(capsys, ["construct", "--rank", "2", "--order", "2",
                                "--format", "json", "--output", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_flags_a_tampered_document(tmp_path, capsys):
    report = tmp_path / "series.json"
    code, _ = _run(capsys, ["construct", "--rank", "2", "--order", "2",
                            "--format", "json", "--output", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    target = doc["series"]["tail"][1]["terms"]
    key = sorted(target)[0]
    target[key]["num"][0]["n"] += 1
    report.write_text(json.dumps(doc))
    code, out = _run(capsys, ["verify", "--input", str(report),
                              "--format", "json"])
    assert code == 1
    checked = json.loads(out)
    assert any(entry["status"] == "fail" for entry in checked["residuals"])


def _rank1_report(capsys, path, order: int) -> dict:
    code, _ = _run(capsys, ["construct", "--rank", "1", "--order", str(order),
                            "--format", "json", "--output", str(path)])
    assert code == 0
    return json.loads(path.read_text())


def test_unequal_den_records_of_one_level_ingest_to_the_same_values():
    # the middle coefficient of level 3 carries its quotient scaled by 2, so
    # the third one's record equals the first's but not the one before it
    series = rank1_series(3)
    doc = json.loads(json.dumps(series_to_doc(series)))   # unshare the records
    level = doc["series"]["tail"][3]["terms"]
    first, middle, last = level.values()
    for record in middle["num"] + middle["den"]:
        record["n"] *= 2
    assert first["den"] == last["den"] != middle["den"]
    rebuilt = series_from_doc(doc)
    assert rebuilt.vectors[3].parts == series.vectors[3].parts
    assert verify_canonical(rebuilt).all_ok


@pytest.mark.parametrize("position", [0, 1])
def test_verify_input_fails_when_one_shared_den_record_changes(position, tmp_path,
                                                               capsys):
    report = tmp_path / "series.json"
    doc = _rank1_report(capsys, report, 3)
    coeffs = list(doc["series"]["tail"][3]["terms"].values())
    assert all(c["den"] == coeffs[0]["den"] for c in coeffs)
    coeffs[position]["den"][0]["n"] += 1
    report.write_text(json.dumps(doc))
    code, out = _run_json(capsys, ["verify", "--input", str(report)])
    assert code == 1
    assert any(entry["status"] == "fail" for entry in out["residuals"])


@pytest.mark.parametrize("zero", ["empty", "zero term"])
def test_verify_input_refuses_a_zero_den_record(zero, tmp_path, capsys):
    # a zero denominator once ended verify --input in a ZeroDivisionError
    report = tmp_path / "series.json"
    doc = _rank1_report(capsys, report, 2)
    coeff = doc["series"]["tail"][2]["terms"]["1,1"]
    coeff["den"] = [] if zero == "empty" else [dict(coeff["den"][0], n=0)]
    report.write_text(json.dumps(doc))
    code, out = _run_json(capsys, ["verify", "--input", str(report)])
    assert code == 1
    assert out["error"] == {"type": "SerializeError",
                            "message": "coefficient has a zero denominator"}


def test_verify_spot_checks_the_half_rank(capsys):
    code, doc = _run_json(capsys, ["verify", "--rank", "3/2", "--order", "3"])
    assert code == 0
    assert doc["meta"]["rank"] == "3/2"
    assert all(entry["status"] == "ok" for entry in doc["residuals"])


@pytest.mark.parametrize("rank", ["1", "2", "5/2"])
def test_central_override_threads_through_the_documents(rank, tmp_path, capsys):
    report = tmp_path / "series.json"
    code, _ = _run(capsys, ["construct", "--rank", rank, "--order", "2",
                            "--central", "26", "--format", "json",
                            "--output", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    zeros = [0] * len(doc["variables"]["names"])
    assert doc["meta"]["central"] == [{"d": 1, "e": zeros, "n": 26}]
    code, checked = _run_json(capsys, ["verify", "--input", str(report)])
    assert code == 0
    assert checked["meta"] == doc["meta"]
    assert checked["residuals"] == doc["residuals"]


# ----- usage errors --------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["construct", "--rank", "0", "--order", "1"],
    ["construct", "--rank", "2", "--order", "-1"],
    ["construct", "--rank", "2", "--order", "2",
     "--convention", "section2-display"],
    ["construct", "--rank", "2", "--order", "1", "--central", "Q/c0"],
    ["construct", "--rank", "2", "--order", "1", "--central", "import os"],
    ["gram", "--rank", "3/2"],
    ["gauge", "--rank", "1"],
    ["gauge", "--rank", "2", "--bound", "0"],
    ["verify", "--order", "2"],
    ["verify", "--input", "/nonexistent/report.json"],
    ["gauge", "--rank", "2", "--bound", "3"],
    ["verify", "--input", __file__, "--rank", "5/2", "--order", "7",
     "--central", "Q", "--convention", "general"],
    # central charges the ring or the parser cannot hold
    ["construct", "--rank", "2", "--central", "Q**40000"],
    ["verify", "--rank", "1", "--central", "+".join(["Q"] * 3000)],
    ["gauge", "--rank", "3/2", "--central=" + "-" * 5000 + "1"],
    # a constant with more digits than a report can write
    ["construct", "--rank", "2", "--order", "0", "--central=2**20000"],
    ["verify", "--rank", "1", "--central=Q+2**20000"],
    ["gauge", "--rank", "3/2", "--central=-(2**20000)/3"],
    # a joined "--" is the value itself, which no option accepts here
    ["construct", "--rank=--"],
    ["construct", "--rank", "2", "--order=--"],
    ["construct", "--rank", "2", "--central=--"],
    ["verify", "--input=--"],
    ["gauge", "--rank", "3/2", "--bound=--"],
])
def test_usage_errors_exit_with_code_two(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("option", [["--rank", "2"], ["--order", "2"],
                                    ["--central", "26"], ["--convention", "general"]])
def test_verify_input_takes_no_series_options(option, tmp_path, capsys):
    # the report declares rank, order, central charge and convention, so
    # each of these given beside --input is a usage error, not ignored
    report = tmp_path / "series.json"
    report.write_text(json.dumps(series_to_doc(_series(INTEGER))))
    code, _ = _run(capsys, ["verify", "--input", str(report)])
    assert code == 0
    with pytest.raises(SystemExit) as err:
        main(["verify", "--input", str(report), *option])
    assert err.value.code == 2
    assert f"{option[0]} cannot be given with --input" in capsys.readouterr().err


# ----- writing the report --------------------------------------------------------


@pytest.mark.parametrize("target", ["no/such/dir/r.json", "."])
def test_unwritable_output_fails_before_the_solve(target, tmp_path, capsys, monkeypatch):
    solves = []
    monkeypatch.setattr(cli, "rank1_series", lambda *args: solves.append(args))
    with pytest.raises(SystemExit) as err:
        main(["construct", "--rank", "1", "--order", "1", "--format", "json",
              "--output", str(tmp_path / target)])
    assert err.value.code == 2
    assert "--output" in capsys.readouterr().err
    assert solves == []


@pytest.mark.parametrize("rank", ["1", "2", "3/2"])
def test_construct_drops_the_caches_before_building_the_report(rank, monkeypatch, capsys):
    events = []
    drop, to_doc = ModuleContext.drop_caches, cli.serialize.series_to_doc

    def recording_drop(ctx):
        events.append(("drop", bool(ctx._mode_cache)))
        drop(ctx)

    def recording_to_doc(series):
        events.append(("to_doc", bool(series.ctx._mode_cache)))
        return to_doc(series)

    monkeypatch.setattr(ModuleContext, "drop_caches", recording_drop)
    monkeypatch.setattr(cli.serialize, "series_to_doc", recording_to_doc)
    assert main(["construct", "--rank", rank, "--order", "2", "--format", "json"]) == 0
    capsys.readouterr()
    assert events == [("drop", True), ("to_doc", False)]


def test_a_failed_write_keeps_the_previous_report(tmp_path, monkeypatch):
    report = tmp_path / "r.json"
    argv = ["construct", "--rank", "2", "--order", "1", "--format", "json",
            "--output", str(report)]
    assert main(argv) == 0
    before = report.read_bytes()

    def failing_dumps(doc, handle=None):
        handle.write("{\n  ")
        raise OSError("disk full")

    monkeypatch.setattr(cli.serialize, "dumps", failing_dumps)
    with pytest.raises(OSError, match="disk full"):
        main(argv)
    assert report.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["r.json"]


def test_report_is_written_through_a_symlink(tmp_path):
    report, link = tmp_path / "r.json", tmp_path / "link.json"
    report.write_text("old")
    link.symlink_to(report)
    assert main(["frames", "--rank", "2", "--format", "json",
                 "--output", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(report.read_text())["meta"]["rank"] == "2"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "r.json"]


def test_devices_and_fifos_are_written_in_place(tmp_path):
    argv = ["construct", "--rank", "2", "--order", "1", "--format", "json", "--output"]
    assert main(argv + [os.devnull]) == 0
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
    reader.start()
    try:
        assert main(argv + [str(fifo)]) == 0
    finally:
        reader.join(timeout=10)
        if reader.is_alive():   # main never opened the FIFO: release the reader
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
    assert not reader.is_alive()
    assert json.loads(received[0])["meta"]["rank"] == "2"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pipe"]


# ----- frames and gram ------------------------------------------------------------


def test_frames_reports_the_integer_determinant(capsys):
    code, doc = _run_json(capsys, ["frames", "--rank", "3"])
    assert code == 0
    assert doc["frames"]["det_matches"] is True
    table = _table_of(doc)
    det = poly_from_terms(table, doc["frames"]["det"])
    assert det == LaurentPoly.var(table, "c3", 3, -6)
    assert len(doc["frames"]["matrix"]) == 3
    assert len(doc["frames"]["fields"]) == 3


def test_frames_reports_the_odd_determinant(capsys):
    code, doc = _run_json(capsys, ["frames", "--rank", "7/2"])
    assert code == 0
    assert doc["frames"]["det_matches"] is True
    table = _table_of(doc)
    det = poly_from_terms(table, doc["frames"]["det"])
    expected = LaurentPoly(table, {(0, 0, 0, 0, -3, 4): Fraction(-105, 8)})
    assert det == expected


def test_gram_blocks_carry_determinant_ratios(capsys):
    code, doc = _run_json(capsys, ["gram", "--rank", "1", "--order", "2"])
    assert code == 0
    blocks = {(b["lo"], b["hi"]): b for b in doc["gram"]["blocks"]}
    assert set(blocks) == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
    assert blocks[(1, 1)]["factored"] == {
        "base": doc["gram"]["base"], "exponent": 1, "ratio": {"n": 2, "d": 1}}
    assert blocks[(2, 2)]["factored"]["exponent"] == 3
    assert all(b["factored"] is not None for b in blocks.values())


# ----- gauge ----------------------------------------------------------------------


def test_gauge_integer_pipeline_over_the_cli(capsys):
    code, doc = _run_json(capsys, ["gauge", "--rank", "2", "--order", "4"])
    assert code == 0
    table = _table_of(doc)
    q = LaurentPoly.var(table, "Q")
    c0 = LaurentPoly.var(table, "c0")
    c0p = LaurentPoly.var(table, "c0p")
    shift = q * c0 - q * c0p * Fraction(1, 2) - c0 * c0p * Fraction(1, 2) \
        - c0p ** 2 * Fraction(1, 4)
    assert doc["gauge"]["g0"] == []
    assert doc["gauge"]["sigma"] is None
    assert [entry["j"] for entry in doc["gauge"]["nu"]] == [1]
    assert poly_from_terms(table, doc["gauge"]["nu"][0]["poly"]) == shift
    assert all(entry["status"] == "ok" for entry in doc["residuals"])


def test_gauge_half_pipeline_over_the_cli(capsys):
    code, doc = _run_json(capsys, ["gauge", "--rank", "3/2", "--order", "4"])
    assert code == 0
    table = _table_of(doc)
    q = LaurentPoly.var(table, "Q")
    c0 = LaurentPoly.var(table, "c0")
    shift = 3 * q ** 2 - 2 * q * c0 - c0 ** 2 * Fraction(1, 4)
    assert doc["gauge"]["sigma"] == {"bound": 1, "scalars": [[], []]}
    assert poly_from_terms(table, doc["gauge"]["nu"][0]["poly"]) == shift
    assert all(entry["status"] == "ok" for entry in doc["residuals"])


def test_gauge_narrow_window_reports_a_structured_error(capsys):
    code, doc = _run_json(capsys, ["gauge", "--rank", "5/2", "--order", "4"])
    assert code == 1
    assert doc["error"]["type"] == "OrderTooSmall"
    assert "window" in doc["error"]["message"]


# smallest working orders, probed one order at a time
@pytest.mark.parametrize("rank, order, works_at", [
    ("5/2", 4, 5), ("5/2", 3, 5), ("3", 3, 4)])
def test_gauge_narrow_window_names_the_order_that_works(rank, order, works_at, capsys):
    code, doc = _run_json(capsys, ["gauge", "--rank", rank, "--order", str(order)])
    assert code == 1
    assert doc["error"]["type"] == "OrderTooSmall"
    assert doc["error"]["message"].endswith(
        f"the smallest order that works is --order {works_at}")
    assert doc["meta"]["K"] == order
    code, doc = _run_json(capsys, ["gauge", "--rank", rank, "--order", str(works_at)])
    assert code == 0
    assert all(entry["status"] == "ok" for entry in doc["residuals"])


def test_gauge_bound_below_the_completion_reports_infeasible(capsys):
    # rank 5/2 needs denominator bound 2; --bound 1 is the largest tried
    code, doc = _run_json(capsys, ["gauge", "--rank", "5/2", "--order", "2",
                                   "--bound", "1"])
    assert code == 1
    assert doc["error"] == {"type": "Infeasible",
                            "message": "no scalar completion within bound 1"}
    assert doc["meta"] == {"K": 2, "central": None, "convention": "general",
                           "rank": "5/2"}


def test_gauge_unreachable_bound_fails_before_the_solve(capsys, monkeypatch):
    # the completion reads no series, so it runs first and the rank-5/2
    # order-5 solve is never started
    solves = []
    monkeypatch.setattr(cli, "solve_half", lambda *args: solves.append(args))
    code, doc = _run_json(capsys, ["gauge", "--rank", "5/2", "--order", "5",
                                   "--bound", "1"])
    assert code == 1
    assert doc["error"] == {"type": "Infeasible",
                            "message": "no scalar completion within bound 1"}
    assert solves == []


def test_gauge_rank_seven_halves_names_its_working_order(capsys):
    # the rank-7/2 scalar completion runs before the window check; at order
    # 4 it finishes and the window names order 8
    code, doc = _run_json(capsys, ["gauge", "--rank", "7/2", "--order", "4"])
    assert code == 1
    assert doc["error"]["type"] == "OrderTooSmall"
    assert doc["error"]["message"].endswith(
        "the smallest order that works is --order 8")
    assert doc["meta"] == {"K": 4, "central": None, "convention": "general",
                           "rank": "7/2"}


@pytest.mark.parametrize("rank, order", [("2", 1), ("3/2", 0), ("3", 1)])
def test_gauge_below_the_lower_mode_window_reports_a_structured_error(
        rank, order, capsys):
    code, doc = _run_json(capsys, ["gauge", "--rank", rank, "--order", str(order)])
    assert code == 1
    assert doc["error"]["type"] == "OrderTooSmall"
    assert "order too small" in doc["error"]["message"]
    assert doc["meta"]["rank"] == rank
    assert doc["meta"]["K"] == order
    # each error names a larger order that gets past its check; following
    # them ends in a clean run
    seen = []
    while code == 1:
        message = doc["error"]["message"]
        check = message.split(":")[0]
        assert check not in seen
        seen.append(check)
        named = int(re.search(r"--order (\d+)", message).group(1))
        assert named > order
        order = named
        code, doc = _run_json(capsys, ["gauge", "--rank", rank, "--order", str(order)])
        assert code in (0, 1)
        if code == 1:
            assert doc["error"]["type"] == "OrderTooSmall"
    assert all(entry["status"] == "ok" for entry in doc["residuals"])


def test_error_record_of_an_unreadable_input_declares_nothing(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, doc = _run_json(capsys, ["verify", "--input", str(path)])
    assert code == 1
    assert doc["error"]["type"] == "SerializeError"
    assert doc["meta"] == {"rank": None, "K": None, "convention": None,
                           "central": None}


def test_error_record_of_a_non_utf8_input_declares_nothing(tmp_path, capsys):
    # bytes that do not decode as UTF-8 once ended verify --input in a traceback
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe not json")
    code, doc = _run_json(capsys, ["verify", "--input", str(path)])
    assert code == 1
    assert doc["error"]["type"] == "UnicodeDecodeError"
    assert doc["meta"] == {"rank": None, "K": None, "convention": None,
                           "central": None}


def test_error_record_carries_the_input_meta_and_central(tmp_path, capsys):
    path = tmp_path / "series.json"
    doc = series_to_doc(_series(INTEGER))
    terms = doc["series"]["tail"][1]["terms"]
    terms[sorted(terms)[0]]["num"][0]["d"] = 0
    path.write_text(json.dumps(doc))
    code, out = _run_json(capsys, ["verify", "--input", str(path)])
    assert code == 1
    assert out["error"]["type"] == "SerializeError"
    # verify --input takes no --central: its record names the declared one
    assert out["meta"] == {"rank": "2", "K": 2, "convention": GENERAL,
                           "central": doc["meta"]["central"]}
    assert out["meta"]["central"] == poly_terms(
        default_central_charge(_series(INTEGER).table))
    # a declared central charge that is not a list of term records is dropped
    for central in ("1 + 6 Q^2", [{"e": [0], "n": 1}], [{"e": [0], "n": True, "d": 1}]):
        doc["meta"]["central"] = central
        path.write_text(json.dumps(doc))
        code, out = _run_json(capsys, ["verify", "--input", str(path)])
        assert code == 1
        assert out["meta"] == {"rank": "2", "K": 2, "convention": GENERAL,
                               "central": None}
    code, out = _run_json(capsys, ["gauge", "--rank", "2", "--order", "1",
                                   "--central", "Q+1"])
    assert code == 1
    assert out["error"]["type"] == "OrderTooSmall"
    q_table = VarTable(("Q", "c0"), (0, 0))
    central = LaurentPoly.var(q_table, "Q") + 1
    assert out["meta"] == {"rank": "2", "K": 1, "convention": GENERAL,
                           "central": poly_terms(central)}


@pytest.mark.parametrize("path, value", [
    (("meta", "central", 1, "e", 0), False),   # an exponent entry
    (("meta", "central", 1, "n"), True),
    (("meta", "central", 1, "d"), True),
    (("series", "g", 0, "j"), True),           # an index record
    (("meta", "K"), True),
    (("series", "tail", 1, "k"), True),
    (("variables", "weights", 3), True),
    # a den record equal in value to the one before it, which is reused
    (("series", "tail", 1, "terms", "2", "den", 0, "n"), True),
    (("series", "tail", 1, "terms", "2", "den", 0, "e", 0), False),
])
def test_verify_input_rejects_booleans_where_integers_belong(path, value, tmp_path,
                                                             capsys):
    report = tmp_path / "series.json"
    code, _ = _run(capsys, ["construct", "--rank", "2", "--order", "1",
                            "--format", "json", "--output", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    *parents, last = path
    node = doc
    for step in parents:
        node = node[step]
    # at order 1 the boolean equals the integer it replaces, so only its
    # type can tell the edited report from the clean one
    assert type(node[last]) is int and node[last] == value
    node[last] = value
    report.write_text(json.dumps(doc))
    code, out = _run_json(capsys, ["verify", "--input", str(report)])
    assert code == 1
    assert out["error"]["type"] == "SerializeError"


def _nodes(node: object, path: tuple = ()):
    """Every node of a JSON tree, with its path."""
    yield path, node
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutations(value: object) -> list:
    """Replacements for one node, each changing the report's JSON text;
    an integer may become a boolean of the same value."""
    if type(value) is int:
        return [value + 1, value - 1, bool(value), None]
    if isinstance(value, str):
        return [value + "x", None]
    if isinstance(value, list):
        return [value[1:], value + value[:1], None] if value else [[None], None]
    if isinstance(value, dict):
        return [dict(list(value.items())[:-1]), None]
    return [0]


@pytest.mark.parametrize("seed, argv", [
    (1, ["--rank", "1"]),
    (2, ["--rank", "1", "--convention", "section2-display"]),
    (3, ["--rank", "2"]),
    (4, ["--rank", "3/2"]),
])
def test_verify_input_refuses_every_seeded_mutation(seed, argv, tmp_path, capsys):
    # one node of the report changed, removed or duplicated: whatever it
    # is, the re-check exits 1 with an error record or a failing relation;
    # the report's own residual records are not read, so they are not mutated
    report = tmp_path / "series.json"
    code, _ = _run(capsys, ["construct", *argv, "--order", "2", "--format", "json",
                            "--output", str(report)])
    assert code == 0
    clean = report.read_text()
    doc = json.loads(clean)
    rng = random.Random(seed)
    sites = [path for path, _ in _nodes(doc) if path and path[0] != "residuals"]
    for path in rng.sample(sites, 100):
        mutated = copy.deepcopy(doc)
        *parents, last = path
        node = mutated
        for step in parents:
            node = node[step]
        node[last] = rng.choice(_mutations(node[last]))
        report.write_text(json.dumps(mutated, indent=2, sort_keys=True) + "\n")
        assert report.read_text() != clean, path
        code, out = _run_json(capsys, ["verify", "--input", str(report)])
        assert code == 1, path
        assert "error" in out or any(
            record["status"] == "fail" for record in out["residuals"]), path


def test_verify_input_refuses_solved_scalars_the_tail_contradicts(tmp_path, capsys):
    # pending and constants are not read by any relation: each edit below
    # leaves every relation holding, and the re-check still refuses it
    report = tmp_path / "series.json"
    code, _ = _run(capsys, ["construct", "--rank", "2", "--order", "2",
                            "--format", "json", "--output", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["series"]["pending"] == ["ce2"]
    for edit in (lambda body: body["pending"].append("ce1"),
                 lambda body: body["pending"].clear(),
                 lambda body: body["constants"].clear(),
                 lambda body: body["constants"][0]["poly"][0].update(
                     n=body["constants"][0]["poly"][0]["n"] + 1)):
        mutated = copy.deepcopy(doc)
        edit(mutated["series"])
        report.write_text(json.dumps(mutated))
        code, out = _run_json(capsys, ["verify", "--input", str(report)])
        assert code == 1
        assert out["error"] == {"type": "SerializeError", "message":
                                "pending and constants do not match the tail"}


# ----- module entry ---------------------------------------------------------------


def test_cli_import_loads_no_dataclasses_inspect_or_ast():
    # every command pays for what the import loads, before it does any work
    code = ("import sys\nfrom virasoro_irregular import cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_module_entry_point_runs_verify():
    result = subprocess.run(
        [sys.executable, "-m", "virasoro_irregular.cli",
         "verify", "--rank", "1", "--order", "2"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "ok" in result.stdout


# ----- process exit ---------------------------------------------------------------


def test_the_first_main_call_freezes_the_heap_and_later_calls_leave_it():
    # importing the CLI leaves a caller's collector alone; the first command
    # freezes what is loaded, and a second one freezes nothing more
    code = ("import contextlib, gc, io\n"
            "from virasoro_irregular.cli import main\n"
            "counts = [gc.get_freeze_count()]\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(['verify', '--rank', '1', '--order', '2']) == 0\n"
            "    counts.append(gc.get_freeze_count())\n"
            "print(*counts)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    before, first, second = map(int, result.stdout.split())
    assert before == 0 < first == second


def test_a_reader_that_leaves_early_ends_the_command_without_a_traceback():
    # a report larger than a pipe's buffer, so the command is still writing
    # when the reader closes the pipe after one line
    process = subprocess.Popen(
        [sys.executable, "-m", "virasoro_irregular.cli",
         "construct", "--rank", "1", "--order", "4", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert process.stdout.readline() == b"{\n"
    process.stdout.close()
    stderr = process.stderr.read()
    assert process.wait(timeout=60) == 1
    assert stderr == b""   # no traceback, and no message either


def test_a_text_report_on_stdout_equals_the_written_file(tmp_path):
    command = [sys.executable, "-m", "virasoro_irregular.cli",
               "construct", "--rank", "5/2", "--order", "3", "--format", "text"]
    piped = subprocess.run(command, capture_output=True)
    assert piped.returncode == 0, piped.stderr
    report = tmp_path / "report.txt"
    written = subprocess.run(command + ["--output", str(report)], capture_output=True)
    assert written.returncode == 0, written.stderr
    assert written.stdout == b""
    assert piped.stdout == report.read_bytes()
    assert piped.stdout.count(b"\n") > 100
