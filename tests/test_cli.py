"""End-to-end behavior of the command line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fmanlin.cli import main
from fmanlin.modelfile import load, loads

MODELS = Path(__file__).resolve().parent.parent / "models"


def model(name: str) -> str:
    return str(MODELS / name)


def run_cli(*argv, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "fmanlin.cli", *argv],
        capture_output=True,
        text=True,
        input=input_text,
    )


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


def test_constructed_models_round_trip():
    built = run_cli("prolong", "cotangent", model("plane-base.fman"))
    m = loads(built.stdout)
    assert m.chart.fiber_names == ("mu1", "mu2")
    from fmanlin.modelfile import dumps

    assert dumps(loads(dumps(m))) == dumps(m)
