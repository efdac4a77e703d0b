"""End-to-end behavior of the command line interface."""

import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SizedReads
from fmanlin.cli import main
from fmanlin.modelfile import MAX_CHARS, load, loads

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def model(name: str) -> str:
    return str(MODELS / name)


def child_env(**extra):
    """This environment, importing this checkout's ``src`` first, plus ``extra``."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **extra}


def fresh_python(*argv, input_text=None):
    """Run ``python argv...`` in a fresh interpreter that imports this checkout's ``src``."""
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        input=input_text,
        env=child_env(),
    )


def run_cli(*argv, input_text=None):
    """Run the CLI in a fresh interpreter."""
    return fresh_python("-m", "fmanlin.cli", *argv, input_text=input_text)


# -- check and euler-check -------------------------------------------------------


def test_check_fiber_model_passes(capsys):
    assert main(["check", model("line.fman")]) == 0
    out = capsys.readouterr().out
    assert "multiplication battery" in out
    assert out.rstrip().endswith("overall: pass")


def test_check_base_model_passes(capsys):
    assert main(["check", model("plane-base.fman")]) == 0
    assert "base product battery" in capsys.readouterr().out


def test_check_json_report(capsys):
    assert main(["check", model("plane.fman"), "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["passed"] is True
    names = [r["name"] for r in body["records"]]
    assert "star-associative" in names and "integrability-oracle" in names


def test_check_failure_exits_one(tmp_path, capsys):
    bad = tmp_path / "skew.fman"
    bad.write_text(
        "[chart]\nbase = x1 x2\n\n[star]\n0 0 1 = x1\n\n[unit]\nbeta 0 = 1\n"
    )
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out
    assert "witness: (0, 0, 1)" in out


def test_euler_check_passes(capsys):
    assert main(["euler-check", model("line.fman"), "--candidate", "E1"]) == 0
    assert main(["euler-check", model("plane.fman"), "--candidate", "E1"]) == 0
    assert main(["euler-check", model("regular2d.fman"), "--candidate", "E"]) == 0


def test_euler_check_precondition_exits_three(tmp_path, capsys):
    bad = tmp_path / "skew.fman"
    bad.write_text(
        "[chart]\nbase = x1 x2\nfiber = xi1\n\n[star]\n0 0 1 = x1\n\n"
        "[unit]\nbeta 0 = 1\n\n[euler.E]\nbeta 0 = x1\nbeta 1 = x2\n"
    )
    assert main(["euler-check", str(bad), "--candidate", "E"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("multiplication battery\n")
    assert "witness: (0, 0, 1)" in captured.out
    assert captured.err == (
        "precondition: the euler check requires multiplication battery to "
        "pass; star-symmetric fails at (0, 0, 1)\n"
    )


def test_euler_check_unknown_candidate(capsys):
    assert main(["euler-check", model("line.fman"), "--candidate", "E9"]) == 2
    err = capsys.readouterr().err
    assert "E9" in err and "E1" in err


def test_quadratic_fiber_candidate_rejected(capsys):
    rc = main(["euler-check", model("line-bad-euler.fman"), "--candidate", "E2"])
    assert rc == 2
    assert "fiber" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert main(["check", model("absent.fman")]) == 2
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_value_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.fman"
    value = "(" * 3000 + "x1" + ")" * 3000
    deep.write_text(f"[chart]\nbase = x1\n\n[star]\n0 0 0 = {value}\n")
    assert main(["check", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 5: expression nested deeper than")
    assert "Traceback" not in err


def test_value_over_the_term_budget_exits_two(tmp_path, capsys):
    big = tmp_path / "big.fman"
    big.write_text("[chart]\nbase = x1 x2 x3\n\n[star]\n0 0 0 = (x1 + x2 + x3 + 1)^40\n")
    assert main(["check", str(big)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 5: expression has more than 1000 terms")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "value, message",
    [
        ("9" * 5000, "line 5: integer has more than 1000 digits (at offset 0)"),
        (
            "*".join(["99999^100"] * 9),
            "line 5: coefficient has more than 1000 digits (at offset 19)",
        ),
    ],
    ids=["long-literal", "product-of-powers"],
)
def test_value_over_the_digit_budget_exits_two(tmp_path, capsys, value, message):
    big = tmp_path / "big.fman"
    big.write_text(
        f"[chart]\nbase = x1\n\n[star]\n0 0 0 = {value}\n\n[unit]\nbeta 0 = 1\n"
    )
    assert main(["check", str(big)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bad_connection_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.fman"
    bad.write_text("[chart]\nbase = x1\n\n[connection]\n0 0 5 = 1\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == "error: bad christoffel key (0, 0, 5)\n"


def test_stdin_over_the_text_budget_exits_two(monkeypatch, capsys):
    text = (MODELS / "plane-base.fman").read_text()
    at_limit = text + "#" * (MAX_CHARS - len(text))
    monkeypatch.setattr(sys, "stdin", SizedReads(at_limit))
    assert main(["check", "-"]) == 0
    stdin = SizedReads(at_limit + "#" * 1000)
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["check", "-"]) == 2
    assert stdin.sizes == [MAX_CHARS + 1]
    err = capsys.readouterr().err
    assert err == f"error: model text is longer than {MAX_CHARS} characters\n"


def test_readme_lists_the_parser_subcommands_and_flags():
    import argparse
    import re

    from fmanlin.cli import _build_parser

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"^Subcommands: (.*?)\.\n", text, re.S | re.M).group(1)
    flags = re.search(r"^Flags: (.*?)\.\n", text, re.S | re.M).group(1)
    commands = [span.split() for span in re.findall(r"`([^`]*)`", listed)]
    spans = re.findall(r"`(--[a-z-]+)( <\w+>)?`", flags)
    documented = {flag: bool(value) for flag, value in spans}

    parser = _build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [words[0] for words in commands] == list(sub.choices)
    takes = {}
    for name, words in zip(sub.choices, commands):
        actions = sub.choices[name]._actions
        kinds = [a.choices for a in actions if not a.option_strings and a.choices]
        assert words[1:] == ["|".join(c) for c in kinds]
        for a in actions:
            for flag in a.option_strings:
                takes[flag] = a.nargs != 0
    del takes["-h"], takes["--help"]
    assert documented == takes


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", model("line.fman")])
    assert info.value.code == 2


# -- constructive commands -------------------------------------------------------


def test_prolong_tangent_writes_checkable_model(tmp_path, capsys):
    out = tmp_path / "tan.fman"
    assert main(["prolong", "tangent", model("plane-base.fman"), "--out", str(out)]) == 0
    prolonged = load(out)
    assert prolonged.chart.k == 2
    assert prolonged.name == "plane-base-tangent"
    assert main(["check", str(out)]) == 0
    capsys.readouterr()


def test_prolong_rejects_fiber_models(capsys):
    assert main(["prolong", "tangent", model("line.fman")]) == 2
    assert "base model" in capsys.readouterr().err


def test_prolong_generalized_records_connection(tmp_path):
    out = tmp_path / "gen.fman"
    main(["prolong", "generalized", model("plane-base.fman"), "--out", str(out)])
    gen = load(out)
    assert gen.chart.k == 4
    assert gen.connection is not None
    assert gen.connection.gamma == {}


def test_dualize_is_an_involution(tmp_path):
    first = tmp_path / "dual.fman"
    second = tmp_path / "dualdual.fman"
    assert main(["dualize", model("line.fman"), "--out", str(first)]) == 0
    assert main(["dualize", str(first), "--out", str(second)]) == 0
    original = load(model("line.fman"))
    twice = load(second)
    assert twice.components == original.components
    assert twice.unit == original.unit
    assert twice.name == "line-dual-dual"


def test_connection_override(tmp_path, capsys):
    override = tmp_path / "conn.fman"
    override.write_text("[chart]\nbase = x1 x2\n\n[connection]\n")
    out = tmp_path / "dual.fman"
    rc = main(
        ["dualize", model("plane.fman"), "--connection", str(override), "--out", str(out)]
    )
    assert rc == 0
    assert load(out).chart.fiber_names == ("mu1",)

    no_conn = tmp_path / "noconn.fman"
    no_conn.write_text("[chart]\nbase = x1 x2\n")
    assert main(["dualize", model("plane.fman"), "--connection", str(no_conn)]) == 2
    assert "no [connection] section" in capsys.readouterr().err

    foreign = tmp_path / "foreign.fman"
    foreign.write_text("[chart]\nbase = y1 y2\n\n[connection]\n")
    assert main(["dualize", model("plane.fman"), "--connection", str(foreign)]) == 2
    assert "different base coordinates" in capsys.readouterr().err


def test_bfield_requires_gamma(capsys):
    rc = main(["bfield", model("plane-base.fman")])
    assert rc == 2
    assert "[gamma]" in capsys.readouterr().err


def test_bfield_consumes_gamma(tmp_path):
    gen = tmp_path / "gen.fman"
    sheared = tmp_path / "sheared.fman"
    main(["prolong", "generalized", model("plane-gamma-const.fman"), "--out", str(gen)])
    assert load(gen).gamma is not None
    assert main(["bfield", str(gen), "--out", str(sheared)]) == 0
    assert load(sheared).gamma is None
    assert load(sheared).components != load(gen).components


@pytest.fixture(scope="module")
def carry_inputs(tmp_path_factory):
    """A base and a double-fiber model carrying every extra, and a zero override.

    Both carry the regular connection of the plane for the Euler field
    ``(x1 + 5, x2^2 + 1)``, which is not zero, so it tells the model's
    connection apart from the override's.
    """
    from fmanlin.duality import regular_connection
    from fmanlin.fman import BaseFManifold
    from fmanlin.modelfile import ModelFile, save
    from fmanlin.prolong import generalized_prolongation
    from fmanlin.symcore import parse_expr
    from fmanlin.tensor import ThreeForm

    folder = tmp_path_factory.mktemp("carry")
    plain = load(model("regular2d.fman"))
    base = BaseFManifold(plain.chart, plain.components.star, plain.unit.beta)
    nabla = regular_connection(
        base, tuple(parse_expr(v, plain.chart.names) for v in ("x1 + 5", "x2^2 + 1"))
    )
    assert nabla.gamma
    gen = generalized_prolongation(base, nabla)
    extras = {
        "connection": nabla,
        "gamma": load(model("plane-gamma-linear.fman")).gamma,
        "twist": ThreeForm(plain.chart, {}),
        "description": "carry-over fixture",
    }
    paths = {}
    for label, c, e, eulers in (
        ("base", plain.components, plain.unit, plain.eulers),
        ("fiber", gen.components, gen.unit, {"E": gen.unit}),
    ):
        for name in (label, ""):
            path = folder / f"{label}-{name or 'unnamed'}.fman"
            save(ModelFile(c, e, eulers, name=name, **extras), path)
            paths[label, name] = str(path)
    paths["override"] = str(folder / "zero.fman")
    Path(paths["override"]).write_text("[chart]\nbase = x1 x2\n\n[connection]\n")
    return paths


# what each construction writes: the connection it keeps ("model" or
# "override"), whether [gamma] and [euler.*] survive, and the name suffix;
# every construction keeps the description and [H]
CARRY_OVER = [
    (["dualize"], "fiber", False, "model", True, False, "dual"),
    (["dualize"], "fiber", True, "model", True, False, "dual"),
    (["prolong", "tangent"], "base", False, "model", True, False, "tangent"),
    (["prolong", "tangent"], "base", True, "model", True, False, "tangent"),
    (["prolong", "cotangent"], "base", False, "model", True, False, "cotangent"),
    (["prolong", "cotangent"], "base", True, "override", True, False, "cotangent"),
    (["prolong", "generalized"], "base", False, "model", True, False, "generalized"),
    (["prolong", "generalized"], "base", True, "override", True, False, "generalized"),
    (["bfield"], "fiber", False, "model", False, False, "bfield"),
]


@pytest.mark.parametrize(
    "command, source, override, connection, gamma, eulers, suffix",
    CARRY_OVER,
    ids=[" ".join(row[0]) + (" --connection" if row[2] else "") for row in CARRY_OVER],
)
def test_constructions_carry_over_what_they_keep(
    carry_inputs, tmp_path, command, source, override, connection, gamma, eulers, suffix
):
    zero = load(carry_inputs["override"]).connection
    out = tmp_path / "out.fman"
    for name in (source, ""):
        given = load(carry_inputs[source, name])
        argv = [*command, carry_inputs[source, name], "--out", str(out)]
        if override:
            argv += ["--connection", carry_inputs["override"]]
        assert main(argv) == 0
        written = load(out)
        kept = {"model": given.connection, "override": zero}
        assert written.connection == kept[connection]
        assert written.gamma == (given.gamma if gamma else None)
        assert written.eulers == (given.eulers if eulers else {})
        assert written.twist == given.twist
        assert written.name == (f"{name}-{suffix}" if name else "")
        assert written.description == given.description


# -- classification and the five-field identity -----------------------------------


def classify_verdicts(tmp_path, fixture):
    gen = tmp_path / "gen.fman"
    sheared = tmp_path / "sheared.fman"
    main(["prolong", "generalized", model(fixture), "--out", str(gen)])
    main(["bfield", str(gen), "--out", str(sheared)])
    result = run_cli("courant-classify", str(sheared), "--json")
    body = json.loads(result.stdout)
    return result.returncode, {r["name"]: r for r in body["records"]}


def test_classify_constant_shear_passes(tmp_path):
    rc, records = classify_verdicts(tmp_path, "plane-gamma-const.fman")
    assert rc == 0
    assert all(r["passed"] for r in records.values())


def test_classify_linear_shear_cites_gradient(tmp_path):
    rc, records = classify_verdicts(tmp_path, "plane-gamma-linear.fman")
    assert rc == 1
    assert records["anchor-compatibility"]["passed"]
    assert records["scalar-compatibility"]["passed"]
    assert records["bfield-recovery"]["passed"]
    assert not records["bfield-gradient"]["passed"]
    assert records["bfield-gradient"]["witness"] == [0, 0, 1]
    assert not records["dorfman-compatibility"]["passed"]
    assert records["classification-agreement"]["passed"]


def test_classify_stage_verifies_the_base_once(tmp_path, battery_runs, flat_runs):
    gen = tmp_path / "gen.fman"
    sheared = tmp_path / "sheared.fman"
    main(["prolong", "generalized", model("plane-gamma-linear.fman"), "--out", str(gen)])
    main(["bfield", str(gen), "--out", str(sheared)])
    battery_runs.clear()
    flat_runs.clear()
    assert main(["courant-classify", str(sheared)]) == 1
    # the candidate's battery and one base battery; the classifier's flat
    # check, which the scalar check and the double prolongation reuse
    assert [c.chart.k for c in battery_runs] == [4, 0]
    assert len(flat_runs) == 1


def test_classify_precondition_exits_three(tmp_path, capsys):
    gen = tmp_path / "gen.fman"
    main(["prolong", "generalized", model("plane-base.fman"), "--out", str(gen)])
    text = gen.read_text().replace("0 0 0 = 1", "0 0 0 = 1\n0 0 1 = x1", 1)
    gen.write_text(text)
    capsys.readouterr()
    assert main(["courant-classify", str(gen)]) == 3
    captured = capsys.readouterr()
    assert "precondition:" in captured.err
    assert "star-symmetric" in captured.out


def test_five_field_identity_on_bases(capsys):
    assert main(["five-field", model("line-base.fman")]) == 0
    assert main(["five-field", model("plane-base.fman")]) == 0
    assert "five-field identity" in capsys.readouterr().out


# -- pipelines and stability -------------------------------------------------------


def test_pipe_prolong_into_check():
    built = run_cli("prolong", "tangent", model("line-base.fman"))
    assert built.returncode == 0
    checked = run_cli("check", "-", input_text=built.stdout)
    assert checked.returncode == 0
    assert "overall: pass" in checked.stdout


def test_pipe_gen_bfield_classify():
    gen = run_cli("prolong", "generalized", model("plane-gamma-const.fman"))
    sheared = run_cli("bfield", "-", input_text=gen.stdout)
    verdict = run_cli("courant-classify", "-", input_text=sheared.stdout)
    assert verdict.returncode == 0
    assert verdict.stdout.rstrip().endswith("overall: pass")


def test_reports_are_byte_stable():
    first = run_cli("check", model("plane.fman"), "--json")
    second = run_cli("check", model("plane.fman"), "--json")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def run_cli_latin1(*argv, stdin=b""):
    """Run the CLI in a fresh interpreter whose stdio encoding is latin-1."""
    return subprocess.run(
        [sys.executable, "-m", "fmanlin.cli", *argv],
        capture_output=True,
        input=stdin,
        env=child_env(PYTHONIOENCODING="latin-1"),
    )


@pytest.fixture
def moebius(tmp_path):
    """The plane base model described as ``Möbius band``, written as UTF-8."""
    lines = (MODELS / "plane-base.fman").read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("description = ")
    lines[1] = "description = Möbius band"
    path = tmp_path / "moebius.fman"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_model_text_on_stdout_is_utf8_whatever_the_stdio_encoding(moebius):
    built = run_cli_latin1("prolong", "tangent", str(moebius))
    assert built.returncode == 0, built.stderr
    assert "description = Möbius band\n".encode("utf-8") in built.stdout
    piped = moebius.parent / "piped.fman"
    piped.write_bytes(built.stdout)
    checked = run_cli_latin1("check", str(piped))
    assert checked.returncode == 0, checked.stderr
    assert load(piped).description == "Möbius band"


def test_model_text_on_stdin_is_utf8_whatever_the_stdio_encoding(moebius):
    out = moebius.parent / "out.fman"
    built = run_cli_latin1(
        "prolong", "tangent", "-", "--out", str(out), stdin=moebius.read_bytes()
    )
    assert built.returncode == 0, built.stderr
    assert load(out).description == "Möbius band"
    through = run_cli_latin1("prolong", "tangent", "-", stdin=moebius.read_bytes())
    assert through.stdout == run_cli_latin1("prolong", "tangent", str(moebius)).stdout


def test_constructed_models_round_trip():
    built = run_cli("prolong", "cotangent", model("plane-base.fman"))
    m = loads(built.stdout)
    assert m.chart.fiber_names == ("mu1", "mu2")
    from fmanlin.modelfile import dumps

    assert dumps(loads(dumps(m))) == dumps(m)


# -- modules each command loads -----------------------------------------------------

_CHECK = {"cli", "fman", "modelfile", "report", "symcore", "tensor"}
_PROLONG = _CHECK | {"prolong"}
_DUALITY = _CHECK | {"duality"}
_ALL = _PROLONG | _DUALITY | {"gengeo"}

_LOADED_MODULES = """
import sys
before = set(sys.modules)
import io
from fmanlin.cli import main
sys.stdout = io.StringIO()
code = main(sys.argv[1:])
sys.stdout = sys.__stdout__
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps([code, loaded]))
"""


@pytest.fixture(scope="module")
def sheared_model(tmp_path_factory):
    """A B-field shear of the plane's generalized prolongation, built in process."""
    folder = tmp_path_factory.mktemp("double")
    gen, sheared = folder / "gen.fman", folder / "sheared.fman"
    main(["prolong", "generalized", model("plane-gamma-const.fman"), "--out", str(gen)])
    main(["bfield", str(gen), "--out", str(sheared)])
    return {"gen": str(gen), "sheared": str(sheared)}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["check", "plane.fman"], _CHECK),
        (["euler-check", "plane.fman", "--candidate", "E1"], _CHECK),
        (["five-field", "plane-base.fman"], _PROLONG),
        (["prolong", "tangent", "plane-base.fman"], _PROLONG),
        (["prolong", "cotangent", "plane-base.fman"], _PROLONG | _DUALITY),
        (["prolong", "generalized", "plane-base.fman"], _PROLONG | _DUALITY),
        (["dualize", "line.fman"], _DUALITY),
        (["bfield", "gen"], _ALL),
        (["courant-classify", "sheared"], _ALL),
        (["check", "plane.fman", "--json"], _CHECK),
        (["euler-check", "plane.fman", "--candidate", "E1", "--json"], _CHECK),
        (["five-field", "plane-base.fman", "--json"], _PROLONG),
        (["courant-classify", "sheared", "--json"], _ALL),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_command_loads_only_the_modules_it_runs(sheared_model, argv, modules):
    def path(arg):
        if arg.endswith(".fman"):
            return model(arg)
        return sheared_model.get(arg, arg)

    ran = fresh_python("-c", _LOADED_MODULES, *map(path, argv))
    assert ran.returncode == 0, ran.stderr
    code, loaded = json.loads(ran.stdout)
    assert code == 0
    assert {m[len("fmanlin.") :] for m in loaded if m.startswith("fmanlin.")} == modules
    # stdlib modules too: no stage needs dataclasses (which pulls in inspect,
    # ast, dis and tokenize), and only a --json stage needs json
    assert not {"dataclasses", "inspect"} & set(loaded)
    assert ("json" in loaded) == ("--json" in argv)


def test_value_types_are_shared_across_modules():
    from fmanlin import duality, gengeo, tensor

    assert duality.Connection is tensor.Connection
    assert gengeo.TwoForm is tensor.TwoForm
    assert gengeo.ThreeForm is tensor.ThreeForm


def test_record_types_keep_their_semantics():
    from fmanlin import fman, prolong
    from fmanlin.modelfile import ModelFile
    from fmanlin.report import CheckRecord, Report
    from fmanlin.symcore import RatFunc
    from fmanlin.tensor import Chart, Connection, ThreeForm, TwoForm
    from references import GenSection, Section

    chart, line = Chart.standard(1, 2), Chart.standard(1, 0)
    one = RatFunc.one()
    c = fman.MultComponents(chart=chart, d={}, l={(0, 0, 0): 1}, star={(0, 0, 0): 1})
    assert c.rows is c.rows  # a cached_property still fills in
    base = fman.BaseFManifold(chart=line, star={(0, 0, 0): 1}, unit=(1,))
    nabla = Connection(chart=line, gamma={})
    tan = prolong.tangent_prolongation(base)
    prol = prolong.ProlongedStructure(
        kind="tangent", components=tan.components, unit=tan.unit, source=base
    )
    record = CheckRecord(
        name="r", law="a = b", passed=False, witness=(0,), residual="x"
    )
    frozen = [
        (chart, "base_names"),
        (Section(chart, (RatFunc.one(), RatFunc.zero())), "components"),
        (nabla, "gamma"),
        (TwoForm(chart=line, table={}), "table"),
        (ThreeForm(chart=line, table={}), "table"),
        (fman.LinearVectorField(chart=line, beta=(1,), lam=()), "beta"),
        (c, "star"),
        (base, "unit"),
        (base, "star"),
        (fman._IDENTITIES["star-symmetric"], "space"),
        (GenSection(chart=line, vec=(1,), form=(0,)), "form"),
        (prol, "kind"),
        (record, "witness"),
    ]
    # and a table field is read-only, so its checked keys stay checked
    tables = {"gamma", "table", "star"}
    for obj, field in frozen:
        value = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, field) is value
        if field in tables:
            key, extra = next(iter(value), (0, 0, 0)), {(9, 9, 9): 1}
            mutators = [
                lambda t: operator.setitem(t, (9, 9, 9), 1),
                lambda t: operator.delitem(t, key),
                lambda t: t.clear(),
                lambda t: t.pop(key),
                lambda t: t.popitem(),
                lambda t: t.setdefault((9, 9, 9), 1),
                lambda t: t.update(extra),
                lambda t: operator.ior(t, extra),
            ]
            before = dict(value)
            for mutate in mutators:
                with pytest.raises(TypeError):
                    mutate(value)
            with pytest.raises(TypeError):
                hash(value)
            # equal to a plain dict of its entries, and dict() is a mutable copy
            assert value == before and before == value
            copy = dict(value)
            copy.update(extra)
            assert (9, 9, 9) in copy and (9, 9, 9) not in value
    # fresh default containers, and the mutable types stay mutable
    first, second = Report("t"), Report("t")
    assert first.records is not second.records and first.notes is not second.notes
    first.title = "u"
    assert ModelFile(c).eulers is not ModelFile(c).eulers
    # field-wise equality, and hashing where every field hashes
    twin = CheckRecord("r", "a = b", False, (0,), "x")
    pairs = [
        (chart, Chart(("x1",), ("xi1", "xi2")), Chart.standard(1, 1)),
        (Section.frame(chart, 0), Section.frame(chart, 0), Section.frame(chart, 1)),
        (record, twin, CheckRecord("r", "a = b", False, (0,), "y")),
        (
            fman.LinearVectorField(line, (1,), ()),
            fman.LinearVectorField(line, (one,), ()),
            fman.LinearVectorField.zero(line),
        ),
        (
            GenSection(line, (1,), (0,)),
            GenSection.frame(line, 0),
            GenSection.frame(line, 1),
        ),
    ]
    for obj, equal, other in pairs:
        assert obj == equal and hash(obj) == hash(equal) and {obj: 1}[equal] == 1
        assert obj != other and obj != tuple(vars(obj).values())
    with_record, with_twin = Report("t"), Report("t")
    with_record.records.append(record)
    with_twin.records.append(twin)
    assert with_record == with_twin != Report("t")
    with pytest.raises(TypeError):
        hash(Report("t"))
    # tables are canonical, so explicit zeros and int against RatFunc values
    # do not change ==; the types holding tables stay unhashable
    plane = Chart.standard(2, 0)
    again = fman.MultComponents(
        chart, {(1, 0, 0, 0): 0}, {(0, 0, 0): one}, {(0, 0, 0): one}
    )
    assert c == again and c is not again
    with pytest.raises(TypeError):
        hash(c)
    canonical = [
        (c, again),
        (
            fman.BaseFManifold(plane, {(0, 0, 0): 1, (1, 0, 1): 0}, (1, 0)),
            fman.BaseFManifold(plane, {(0, 0, 0): one}, (one, 0)),
        ),
        # a connection, like a form, compares its base chart only
        (Connection(line, {(0, 0, 0): 1}), Connection(chart, {(0, 0, 0): one})),
        (TwoForm(plane, {(0, 1): 1}), TwoForm(Chart.generalized(2), {(0, 1): one})),
    ]
    for obj, same in canonical:
        assert obj == same and same == obj
    fields = (prol.kind, prol.components, prol.unit, prol.source, prol.nabla)
    assert prol != prolong.ProlongedStructure(*fields)
    assert {prol: 1}[prol] == 1


def test_only_the_base_chart_types_write_their_own_equality():
    # every other record type compares through `_Value._key`, or by identity
    from fmanlin import cli, duality, fman, gengeo, modelfile, prolong  # noqa: F401
    from fmanlin.symcore import _Frozen, _Value

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    own = {
        cls.__name__
        for cls in subclasses(_Frozen)
        if cls is not _Value and "__eq__" in vars(cls)
    }
    assert own == {"Connection", "TwoForm", "ThreeForm"}
    for cls in (prolong.ProlongedStructure, fman._Identity):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_no_stored_field_is_a_data_descriptor_of_its_class():
    # `_Frozen._set` writes the instance dict directly, which a property or a
    # slot of the same name would shadow; every ``self._set(name=...)`` of
    # the package and of the test references names a plain attribute
    import ast
    import importlib
    import inspect

    sources = sorted((ROOT / "src" / "fmanlin").glob("*.py")) + [ROOT / "tests" / "references.py"]
    checked = set()
    for path in sources:
        stem = path.stem
        module = importlib.import_module(stem if path.parent.name == "tests" else f"fmanlin.{stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(module, node.name)
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "_set":
                    for kw in call.keywords:
                        attr = type(inspect.getattr_static(cls, kw.arg, None))
                        assert not hasattr(attr, "__set__"), (cls, kw.arg)
                        assert not hasattr(attr, "__delete__"), (cls, kw.arg)
                        checked.add((node.name, kw.arg))
    assert {("CheckRecord", "witness"), ("Chart", "base_names"), ("Section", "components")} <= checked
