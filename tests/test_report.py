"""The record writers of a report, ``scan`` and ``summarize``, and its JSON text."""

import json
from fractions import Fraction

import pytest

from fmanlin.report import Report
from fmanlin.symcore import RatFunc
from references import record_layout, report_layout

ZERO = RatFunc.zero()


def test_scan_stops_at_the_first_nonzero_residual():
    pulled = []

    def pairs():
        yield (0, 1), ZERO
        pulled.append("second")
        yield (1, 0), RatFunc.coerce(3)
        raise AssertionError("scan advanced past the first failure")

    rep = Report("t")
    assert rep.scan("law", "x = y", pairs()) is False
    assert pulled == ["second"]
    rec = rep.record("law")
    assert (rec.passed, rec.witness, rec.residual) == (False, (1, 0), "3")


def test_scan_passes_without_witness_or_residual():
    rep = Report("t")
    assert rep.scan("law", "x = y", (((i,), ZERO) for i in range(3))) is True
    assert rep.scan("empty", "nothing to scan", ()) is True
    for rec in rep.records:
        assert (rec.passed, rec.witness, rec.residual) == (True, None, None)
        assert record_layout(rec) == {"name": rec.name, "law": rec.law, "passed": True}


def test_scan_keeps_the_witness_layout_it_is_given():
    rep = Report("t")
    rep.scan("labelled", "tables agree", iter([(("d", 0, 1), RatFunc.one())]))
    assert rep.record("labelled").witness == ("d", 0, 1)


def test_summarize_prefixes_the_first_failed_sub_record():
    sub = Report("sub")
    sub.scan("first", "a = b", [((0,), ZERO)])
    sub.scan("second", "c = d", [((2, 1), RatFunc.coerce(-1))])
    sub.add("agreement", "routes agree", False, (1, 0))
    rep = Report("outer")
    assert rep.summarize("wrapped", "sub passes", sub) is False
    rec = rep.record("wrapped")
    assert (rec.passed, rec.witness, rec.residual) == (False, ("second", 2, 1), "-1")

    only = Report("sub")
    only.add("route-agreement", "routes agree", False, (0, 1))
    rep.summarize("agreement", "sub passes", only)
    rec = rep.record("agreement")
    assert (rec.witness, rec.residual) == (("route-agreement", 0, 1), None)


def test_summarize_passes_with_the_sub_report():
    sub = Report("sub")
    sub.scan("first", "a = b", [((0,), ZERO)])
    rep = Report("outer")
    assert rep.summarize("wrapped", "sub passes", sub) is True
    assert rep.summarize("empty", "nothing inside", Report("none")) is True
    assert all(r.passed and r.witness is None for r in rep.records)


def json_reports():
    """Reports that cover every layout `to_json` writes."""
    yield Report("empty")
    rep = Report("flat structure ∇")
    rep.add("passing", "X * Y = Y * X", True, (0, 1), "ignored")
    rep.add("labelled", "∇_X(*)(Y, Z) = ∇_Y(*)(X, Z)", False, ("d", 0, 1), RatFunc.coerce(3))
    rep.add("no-witness", "a = b", False, None, "x1/2")
    rep.add("no-residual", "routes agree", False, (1, 0))
    rep.add("neither", "a = b", False)
    rep.add("empty-witness", "a = b", False, (), "-1")
    rep.add("flags", "a = b", False, (True, False, 0, -7), "x")
    rep.add("escapes", 'quote " and \\ and \t\n  \x01', False, ("é\ud800", 2), "ü")
    sub = Report("sub")
    sub.scan("first", "a = b", [((2, 1), RatFunc.coerce(-1))])
    rep.summarize("summarized", "sub passes", sub)
    bare = Report("bare")
    bare.add("route-agreement", "routes agree", False, None)
    rep.summarize("summarized-bare", "sub passes", bare)
    rep.summarize("summarized-pass", "sub passes", Report("none"))
    rep.note("résumé — naïve ✓")
    rep.note("")
    yield rep
    only_notes = Report("notes only")
    only_notes.note("a note")
    yield only_notes


def test_to_json_writes_the_bytes_of_the_json_module():
    for rep in json_reports():
        assert rep.to_json() == json.dumps(report_layout(rep), indent=2), rep.title


def test_to_json_refuses_a_witness_element_it_cannot_write_as_json_does():
    for element in (1.5, (0, 1), Fraction(1, 2)):
        rep = Report("t")
        rep.add("bad", "a = b", False, (0, element), "1")
        with pytest.raises(TypeError):
            rep.to_json()
