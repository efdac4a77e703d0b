"""Line-oriented model files for charts, component tables and extras.

A model file names a chart and the component tables of a fiberwise-linear
multiplication, plus optional extras: a unit field, named linear vector-field
candidates, a connection, a two-form and a twist three-form.  The format is
plain text, one entry per line, designed to diff well::

    name = plane
    description = constant product on the plane

    [chart]
    base = x1 x2
    fiber = xi1

    [star]
    0 0 0 = 1
    1 0 1 = 1
    1 1 0 = 1

    [unit]
    beta 0 = 1

Lines before the first section header assign metadata (``name`` and
``description``).  Everything after a ``#`` is a comment.  Entry keys are
0-based index tuples -- ``[star]`` and ``[l]`` take three indices, ``[D]``
four, ``[connection]`` three, ``[gamma]`` two and ``[H]`` three -- and values
are expressions in the chart coordinates.  Missing entries are zero, so only
the support of each table is written.  ``[unit]`` and ``[euler.<name>]``
sections hold ``beta i = <expr>`` and ``lambda i j = <expr>`` lines.

``loads(dumps(model))`` returns an equal model; tables are canonicalized on
construction, so equality is structural.  ``dumps`` refuses any name that
would read back differently: a name or description with a ``#``, a line
break or surrounding whitespace, a coordinate name that is empty or holds a
``#`` or whitespace, and an Euler name that is empty or holds a ``#`` or a
line break or ends in whitespace.  A model text has at most ``MAX_CHARS``
characters, comments included.
"""

from __future__ import annotations

from pathlib import Path

from .fman import LinearVectorField, MultComponents
from .symcore import RatFunc, parse_expr
from .tensor import Chart, Connection, ThreeForm, TwoForm

__all__ = ["ModelError", "ModelFile", "load", "loads", "save", "dumps"]

MAX_CHARS = 1_000_000
_TABLE_WIDTHS = {"star": 3, "l": 3, "D": 4, "connection": 3, "gamma": 2, "H": 3}
# each base-chart section: its ModelFile field, its value type, and the
# attribute holding the type's table; dumped in this order
_BASE_SECTIONS = {
    "connection": ("connection", Connection, "gamma"),
    "gamma": ("gamma", TwoForm, "table"),
    "H": ("twist", ThreeForm, "table"),
}
_ZERO = RatFunc.zero()


class ModelError(ValueError):
    """Malformed model file, with the offending line number when known."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}" if lineno else message)
        self.lineno = lineno


class ModelFile:
    """Parsed model: component tables plus the optional extras."""

    def __init__(
        self,
        components: MultComponents,
        unit: LinearVectorField | None = None,
        eulers: dict | None = None,
        connection: Connection | None = None,
        gamma: TwoForm | None = None,
        twist: ThreeForm | None = None,
        name: str = "",
        description: str = "",
    ):
        self.components = components
        self.unit = unit
        self.eulers = {} if eulers is None else eulers
        self.connection = connection
        self.gamma = gamma
        self.twist = twist
        self.name = name
        self.description = description

    @property
    def chart(self) -> Chart:
        return self.components.chart

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


def _parse_indices(lineno: int, tokens: list, width: int) -> tuple:
    if len(tokens) != width:
        raise ModelError(lineno, f"expected {width} indices, got {len(tokens)}")
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise ModelError(lineno, f"indices must be integers: {' '.join(tokens)}")


def _parse_value(lineno: int, text: str, names: tuple) -> RatFunc:
    try:
        return parse_expr(text, names)
    except ValueError as exc:
        raise ModelError(lineno, str(exc))


def loads(text: str) -> ModelFile:
    """Parse a model from its text form."""
    if len(text) > MAX_CHARS:
        raise ModelError(None, f"model text is longer than {MAX_CHARS} characters")
    meta = {"name": "", "description": ""}
    base_names: tuple | None = None
    fiber_names: tuple = ()
    saw_chart = False
    # raw entries per section, with line numbers; expressions are parsed
    # once the chart is complete
    tables: dict[str, dict] = {name: {} for name in _TABLE_WIDTHS}
    fields: dict[str, dict] = {}
    seen_sections: set = set()
    section = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ModelError(lineno, "unterminated section header")
            section = line[1:-1].strip()
            if section == "chart" or section in _TABLE_WIDTHS:
                pass
            elif section == "unit" or (
                section.startswith("euler.") and len(section) > len("euler.")
            ):
                fields.setdefault(section, {"beta": {}, "lambda": {}})
            else:
                raise ModelError(lineno, f"unknown section [{section}]")
            seen_sections.add(section)
            continue
        if "=" not in line:
            raise ModelError(lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        tokens = key.split()
        value = value.strip()
        if section is None:
            if len(tokens) != 1 or tokens[0] not in meta:
                raise ModelError(lineno, f"unknown metadata key {key.strip()!r}")
            meta[tokens[0]] = value
            continue
        if section == "chart":
            if tokens == ["base"]:
                base_names = tuple(value.split())
            elif tokens == ["fiber"]:
                fiber_names = tuple(value.split())
            else:
                raise ModelError(lineno, "chart entries are 'base' or 'fiber'")
            saw_chart = True
            continue
        if section in _TABLE_WIDTHS:
            idx = _parse_indices(lineno, tokens, _TABLE_WIDTHS[section])
            if idx in tables[section]:
                raise ModelError(lineno, f"duplicate entry {idx} in [{section}]")
            tables[section][idx] = (lineno, value)
            continue
        # unit or euler.<name>
        if not tokens or tokens[0] not in ("beta", "lambda"):
            raise ModelError(lineno, "field entries are 'beta i' or 'lambda i j'")
        kind = tokens[0]
        idx = _parse_indices(lineno, tokens[1:], 1 if kind == "beta" else 2)
        if idx in fields[section][kind]:
            raise ModelError(lineno, f"duplicate {kind} entry {idx} in [{section}]")
        fields[section][kind][idx] = (lineno, value)

    if not saw_chart or base_names is None:
        raise ModelError(None, "missing [chart] section with a 'base' line")
    try:
        chart = Chart(base_names, fiber_names)
    except ValueError as exc:
        raise ModelError(None, str(exc))
    names = chart.names

    def parsed(section: str) -> dict:
        return {
            idx: _parse_value(lineno, text, names)
            for idx, (lineno, text) in tables[section].items()
        }

    def build_field(label: str) -> LinearVectorField:
        entries = fields[label]
        beta = [_ZERO] * chart.n
        for (i,), (lineno, text) in entries["beta"].items():
            if not 0 <= i < chart.n:
                raise ModelError(lineno, f"beta index {i} out of range")
            beta[i] = _parse_value(lineno, text, names)
        lam = [[_ZERO] * chart.k for _ in range(chart.k)]
        for (i, j), (lineno, text) in entries["lambda"].items():
            if not (0 <= i < chart.k and 0 <= j < chart.k):
                raise ModelError(lineno, f"lambda index {(i, j)} out of range")
            lam[i][j] = _parse_value(lineno, text, names)
        return LinearVectorField(
            chart, tuple(beta), tuple(tuple(row) for row in lam)
        )

    components = MultComponents(
        chart=chart, d=parsed("D"), l=parsed("l"), star=parsed("star")
    )
    unit = build_field("unit") if "unit" in fields else None
    eulers = {
        label[len("euler."):]: build_field(label)
        for label in sorted(fields)
        if label.startswith("euler.")
    }
    extras = {
        field: kind(chart.base(), parsed(section))
        for section, (field, kind, _) in _BASE_SECTIONS.items()
        if section in seen_sections
    }
    return ModelFile(components, unit, eulers, **extras, **meta)


def _entry_lines(table: dict) -> list:
    return [
        " ".join(str(i) for i in key) + f" = {val}"
        for key, val in sorted(table.items())
    ]


def _field_lines(fld: LinearVectorField) -> list:
    lines = []
    for i, val in enumerate(fld.beta):
        if not val.is_zero():
            lines.append(f"beta {i} = {val}")
    for i, row in enumerate(fld.lam):
        for j, val in enumerate(row):
            if not val.is_zero():
                lines.append(f"lambda {i} {j} = {val}")
    return lines


def _kept(what: str, value: str, rule: str, strip=str.strip) -> str:
    """``value``, if ``loads`` reads it back unchanged: one line, no ``#``,
    and nothing that ``strip`` would remove."""
    if "#" in value or value.splitlines() != [value] or strip(value) != value:
        raise ValueError(
            f"{what} {value!r} does not survive a round trip: it must be {rule}"
        )
    return value


def _meta_line(key: str, value: str) -> str:
    rule = "one line with no '#' and no surrounding whitespace"
    return f"{key} = {_kept(f'model {key}', value, rule)}"


def _coordinates(names: tuple) -> str:
    rule = "a non-empty line with no '#' and no whitespace"
    return " ".join(
        _kept("coordinate name", name, rule, lambda s: "".join(s.split()))
        for name in names
    )


def dumps(model: ModelFile) -> str:
    """Render a model in its text form, deterministically ordered."""
    chart = model.chart
    out = [
        _meta_line(key, value)
        for key, value in (("name", model.name), ("description", model.description))
        if value
    ]
    if out:
        out.append("")
    out.append("[chart]")
    out.append("base = " + _coordinates(chart.base_names))
    if chart.fiber_names:
        out.append("fiber = " + _coordinates(chart.fiber_names))
    c = model.components
    for label, table in (("star", c.star), ("l", c.l), ("D", c.d)):
        if table:
            out += ["", f"[{label}]", *_entry_lines(table)]
    if model.unit is not None:
        out += ["", "[unit]", *_field_lines(model.unit)]
    for name in sorted(model.eulers):
        # a leading space reads back: loads strips "euler.<name>" as a whole
        rule = "a non-empty line with no '#' and no trailing whitespace"
        header = f"[euler.{_kept('euler name', name, rule, str.rstrip)}]"
        out += ["", header, *_field_lines(model.eulers[name])]
    for section, (field, _, table) in _BASE_SECTIONS.items():
        value = getattr(model, field)
        if value is not None:
            out += ["", f"[{section}]", *_entry_lines(getattr(value, table))]
    return "\n".join(out) + "\n"


def load(path) -> ModelFile:
    """Read a model from ``path``, at most one character past ``MAX_CHARS``."""
    with Path(path).open(encoding="utf-8") as f:
        return loads(f.read(MAX_CHARS + 1))


def save(model: ModelFile, path) -> None:
    """Write a model to ``path``."""
    Path(path).write_text(dumps(model), encoding="utf-8")
