"""The record writers of a report: ``scan`` and ``summarize``."""

from fmanlin.report import Report
from fmanlin.symcore import RatFunc

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
        assert rec.to_dict() == {"name": rec.name, "law": rec.law, "passed": True}


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
