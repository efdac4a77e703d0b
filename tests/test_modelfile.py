"""Parsing, rendering and round trips for the model-file format."""

from pathlib import Path

import pytest

from conftest import SizedReads
from fmanlin.duality import Connection
from fmanlin.fman import LinearVectorField, MultComponents
from fmanlin.gengeo import ThreeForm, TwoForm
from fmanlin.modelfile import MAX_CHARS, ModelError, ModelFile, dumps, load, loads
from fmanlin.symcore import parse_expr
from fmanlin.tensor import Chart
from references import BFieldData

MODELS = Path(__file__).resolve().parent.parent / "models"

LINE_TEXT = """\
name = line
description = sample

[chart]
base = x1
fiber = xi1

[star]
0 0 0 = 1

[l]
0 0 0 = 1

[unit]
beta 0 = 1

[euler.E1]
beta 0 = x1 + 5
lambda 0 0 = 1
"""


def test_loads_line_model():
    m = loads(LINE_TEXT)
    assert m.name == "line"
    assert m.description == "sample"
    assert m.chart == Chart(("x1",), ("xi1",))
    one = parse_expr("1", m.chart.names)
    assert m.components.star == {(0, 0, 0): one}
    assert m.components.l == {(0, 0, 0): one}
    assert m.components.d == {}
    assert m.unit == LinearVectorField(m.chart, (1,), ((0,),))
    assert set(m.eulers) == {"E1"}
    assert m.eulers["E1"].beta == (parse_expr("x1 + 5", m.chart.names),)
    assert m.eulers["E1"].lam == ((one,),)
    assert m.connection is None and m.gamma is None and m.twist is None


def test_missing_entries_default_to_zero():
    m = loads("[chart]\nbase = x1 x2\n\n[unit]\nbeta 1 = x1\n")
    assert m.unit.beta[0].is_zero()
    assert m.unit.beta[1] == parse_expr("x1", ("x1", "x2"))
    assert m.components.star == {}


def test_comments_and_blank_lines_are_ignored():
    text = "# heading\n\n[chart]  # trailing\nbase = x1\n\n[star]\n0 0 0 = 1  # unit entry\n"
    m = loads(text)
    assert m.components.star == {(0, 0, 0): parse_expr("1", ("x1",))}


def test_empty_extra_sections_distinct_from_absent():
    with_conn = loads("[chart]\nbase = x1\n\n[connection]\n")
    without = loads("[chart]\nbase = x1\n")
    assert with_conn.connection == Connection(Chart(("x1",), ()), {})
    assert without.connection is None
    assert with_conn != without


def test_round_trip_of_checked_in_models():
    for path in sorted(MODELS.glob("*.fman")):
        if "bad" in path.name:
            continue
        m = load(path)
        assert loads(dumps(m)) == m
        # rendering is canonical, so a second render is byte-identical
        assert dumps(loads(dumps(m))) == dumps(m)


def test_round_trip_keeps_all_sections():
    chart = Chart(("x1", "x2"), ("xi1", "xi2", "mu1", "mu2"))
    x1 = parse_expr("x1", chart.names)
    m = ModelFile(
        components=MultComponents(
            chart=chart,
            d={(2, 2, 0, 1): x1},
            l={(0, 0, 0): 1, (2, 2, 0): 1},
            star={(0, 0, 0): 1},
        ),
        unit=LinearVectorField(
            chart, (1, 0), tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        ),
        eulers={"E": LinearVectorField.zero(chart)},
        connection=Connection(chart.base(), {(0, 0, 0): x1}),
        gamma=TwoForm(chart.base(), {(0, 1): x1}),
        twist=ThreeForm(chart.base(), {}),
        name="full",
        description="every optional section at once",
    )
    again = loads(dumps(m))
    assert again == m
    assert "[H]" in dumps(m)


def test_metadata_round_trips_or_is_refused():
    base = loads("[chart]\nbase = x1\n")
    kept = ["a = b", "tab\tinside", "x [chart] y", "[chart]", "naïve", "-"]
    # a '#', anything str.splitlines splits on, or surrounding whitespace
    refused = ["line #2", "#", "x\n[chart]", "a\rb", "a\r\nb", "\n"]
    refused += [f"a{sep}b" for sep in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"]
    refused += [" lead", "trail ", "\tboth\t", " "]
    for field in ("name", "description"):
        for value in kept:
            m = ModelFile(base.components, **{field: value})
            assert getattr(loads(dumps(m)), field) == value
            assert loads(dumps(m)) == m
        for value in refused:
            m = ModelFile(base.components, **{field: value})
            with pytest.raises(ValueError, match="does not survive a round trip"):
                dumps(m)


def test_chart_and_euler_names_round_trip_or_are_refused():
    source = loads("[chart]\nbase = x1\n\n[euler.E]\nbeta 0 = x1\n")
    field = source.eulers["E"]

    def charted(name):
        return [
            MultComponents(Chart(names, fiber), {}, {}, {})
            for names, fiber in (((name,), ()), (("x1",), (name,)))
        ]

    # coordinates: non-empty, no whitespace, no '#'
    for name in ["y", "naïve", "a=b", "[chart]", "x[1]", "]"]:
        for c in charted(name):
            assert loads(dumps(ModelFile(c))) == ModelFile(c)
    for name in ["x#1", "#", "a b", "", "a\tb", " y", "y ", "\n", "a\x85b", "a\u3000b"]:
        for c in charted(name):
            with pytest.raises(ValueError, match="coordinate name .* survive"):
                dumps(ModelFile(c))
    # euler names: non-empty, one line, no '#', no trailing whitespace
    for name in ["E", " E", "\tE", "E 1", "E]", "[E", "a=b", "naïve"]:
        m = ModelFile(source.components, eulers={name: field})
        assert list(loads(dumps(m)).eulers) == [name]
        assert loads(dumps(m)) == m
    for name in ["E #1", "#", "", "E ", " ", "E\t", "E\n1", "a\rb", "a\u2028b"]:
        m = ModelFile(source.components, eulers={name: field})
        with pytest.raises(ValueError, match="euler name .* survive"):
            dumps(m)


def test_bad_euler_model_is_rejected_at_load():
    with pytest.raises(ValueError, match="fiber"):
        load(MODELS / "line-bad-euler.fman")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ModelError, match="line 1"):
        loads("[star\n")
    with pytest.raises(ModelError, match="line 2: unknown section"):
        loads("[chart]\n[hmm]\n")
    with pytest.raises(ModelError, match="line 4: expected 3 indices"):
        loads("[chart]\nbase = x1\n[star]\n0 0 = 1\n")
    with pytest.raises(ModelError, match="indices must be integers"):
        loads("[chart]\nbase = x1\n[star]\na b c = 1\n")
    with pytest.raises(ModelError, match="duplicate entry"):
        loads("[chart]\nbase = x1\n[star]\n0 0 0 = 1\n0 0 0 = 2\n")
    with pytest.raises(ModelError, match="unknown metadata key"):
        loads("author = me\n[chart]\nbase = x1\n")
    with pytest.raises(ModelError, match="expected 'key = value'"):
        loads("[chart]\nbase x1\n")
    with pytest.raises(ModelError, match="missing \\[chart\\]"):
        loads("[star]\n0 0 0 = 1\n")


def test_expression_errors_carry_line_numbers():
    with pytest.raises(ModelError, match="line 4"):
        loads("[chart]\nbase = x1\n[star]\n0 0 0 = x9\n")


def test_field_entry_errors():
    with pytest.raises(ModelError, match="beta index 3 out of range"):
        loads("[chart]\nbase = x1\n[unit]\nbeta 3 = 1\n")
    with pytest.raises(ModelError, match="'beta i' or 'lambda i j'"):
        loads("[chart]\nbase = x1\n[unit]\ngamma 0 = 1\n")
    with pytest.raises(ModelError, match="duplicate beta"):
        loads("[chart]\nbase = x1\n[unit]\nbeta 0 = 1\nbeta 0 = 2\n")


def test_chart_errors():
    with pytest.raises(ModelError, match="'base' or 'fiber'"):
        loads("[chart]\nnames = x1\n")
    with pytest.raises(ModelError, match="distinct"):
        loads("[chart]\nbase = x1 x1\n")


def test_model_text_budget(tmp_path, monkeypatch):
    # comment-only padding, so only the length decides
    head = "[chart]\nbase = x1\n"
    at_limit = head + "#" * (MAX_CHARS - len(head))
    assert len(at_limit) == MAX_CHARS
    assert loads(at_limit).chart == Chart(("x1",), ())
    path = tmp_path / "padded.fman"
    path.write_text(at_limit, encoding="utf-8")
    assert load(path).chart == Chart(("x1",), ())
    message = f"model text is longer than {MAX_CHARS} characters"
    with pytest.raises(ModelError) as info:
        loads(at_limit + "#")
    assert str(info.value) == message
    stream = SizedReads(at_limit + "#" * 1000)
    monkeypatch.setattr(Path, "open", lambda self, **kwargs: stream)
    with pytest.raises(ModelError) as info:
        load(path)
    assert str(info.value) == message
    assert stream.sizes == [MAX_CHARS + 1]


def test_table_keys_validated_by_domain_objects():
    with pytest.raises(ValueError, match="bad star-table key"):
        loads("[chart]\nbase = x1\n[star]\n0 0 5 = 1\n")
    with pytest.raises(ValueError, match="must not involve fiber"):
        loads("[chart]\nbase = x1\nfiber = xi1\n[star]\n0 0 0 = xi1\n")


def _table_cases():
    """``(id, build, table, message)``: each table with a bad key or a fiber entry.

    The difference tables live on a chart without fibers, so no entry of
    theirs can involve a fiber coordinate.
    """
    xi = parse_expr("xi1", ("x1", "x2", "x3", "xi1"))
    fibered = Chart.standard(3, 1)
    base = Chart.standard(1, 0)
    fiber_msg = "{} must not involve fiber coordinates: xi1"

    def mult(name):
        return lambda table: MultComponents(
            fibered, **{"d": {}, "l": {}, "star": {}, name: table}
        )

    def diff(name):
        return lambda table: BFieldData(
            base, **{"b": {}, "a": {}, "s": {}, name: table}
        )

    tables = [
        # (label, constructor, out-of-range key, wrong-width key, good key,
        #  bad-key message prefix, entry prefix)
        ("d", mult("d"), (0, 0, 0, 3), (0, 0, 0), (0, 0, 1, 2),
         "bad derivative-table key", "derivative table entry"),
        ("l", mult("l"), (0, 1, 0), (0, 0), (0, 0, 2),
         "bad side-table key", "side table entry"),
        ("star", mult("star"), (3, 0, 0), (0, 0, 0, 0), (2, 1, 0),
         "bad star-table key", "star table entry"),
        ("connection", lambda t: Connection(fibered, t), (0, 0, 3), (0, 0),
         (1, 2, 0), "bad christoffel key", "christoffel entry"),
        ("two-form", lambda t: TwoForm(fibered, t), (1, 0), (0, 1, 2), (0, 2),
         "two-form keys must be increasing pairs, got", "two-form entry"),
        ("three-form", lambda t: ThreeForm(fibered, t), (0, 2, 1), (0, 1),
         (0, 1, 2), "three-form keys must be increasing triples, got",
         "three-form entry"),
        ("difference-b", diff("b"), (0, 0, 0, 1), (0, 0, 0), None,
         "bad difference key", None),
        ("difference-a", diff("a"), (0, 1, 0), (0, 0), None,
         "bad difference key", None),
        ("difference-s", diff("s"), (1, 0), (0, 0, 0), None,
         "bad difference key", None),
    ]
    for label, build, out_of_range, wrong_width, good, bad_key, entry in tables:
        yield f"{label}-range", build, {out_of_range: 1}, f"{bad_key} {out_of_range}"
        yield f"{label}-width", build, {wrong_width: 1}, f"{bad_key} {wrong_width}"
        if entry is not None:
            message = fiber_msg.format(f"{entry} {good}")
            yield f"{label}-fiber", build, {good: xi}, message


@pytest.mark.parametrize(
    "build, table, message",
    [case[1:] for case in _table_cases()],
    ids=[case[0] for case in _table_cases()],
)
def test_table_validation_messages(build, table, message):
    with pytest.raises(ValueError) as info:
        build(table)
    assert str(info.value) == message
