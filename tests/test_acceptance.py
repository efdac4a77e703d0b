"""Top-level acceptance battery: one test per shipped guarantee.

Every assertion is exact -- structural equality of canonical rational
functions -- and each numbered test stands alone, so the ``pytest -v``
output reads as a pass/fail checklist of the package's headline claims.
"""

from itertools import product
from pathlib import Path

import pytest

from conftest import rand_poly, rand_ratfunc, rng_for
from fmanlin.duality import Connection, check_flat_f, dualize, regular_flat_check
from fmanlin.fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    check_battery,
    check_euler,
)
from fmanlin.gengeo import (
    TwoForm,
    _recover,
    bfield_transform,
    check_anchor_compat,
    check_dorfman_compat,
    check_scalar_compat,
    classify_exact_courant,
)
from fmanlin.modelfile import load
from fmanlin.prolong import (
    check_five_field_identity,
    cotangent_prolongation,
    generalized_prolongation,
    tangent_prolongation,
)
from fmanlin.symcore import RatFunc, parse_expr
from fmanlin.tensor import Chart, TensorField, contract, lie_derivative
from references import BFieldData, lie_components

MODELS = Path(__file__).resolve().parent.parent / "models"

HM_RECORDS = ("base-integrability", "derivative-commutator", "derivative-bracket")

_ZERO = RatFunc.zero()


def fixture(name):
    return load(MODELS / name)


def base_of(model) -> BaseFManifold:
    return BaseFManifold(model.chart, model.components.star, model.unit.beta)


def flat_bases():
    return [base_of(fixture("line-base.fman")), base_of(fixture("plane-base.fman"))]


def tables_equal(got: dict, want: dict) -> bool:
    return all(
        got.get(key, _ZERO) == want.get(key, _ZERO)
        for key in set(got) | set(want)
    )


def test_01_line_model_battery_euler_and_nonlinear_rejection():
    m = fixture("line.fman")
    assert check_battery(m.components, m.unit).passed
    assert check_euler(m.components, m.unit, m.eulers["E1"]).passed
    # a quadratic fiber part cannot even be stated as a linear field
    xi = parse_expr("xi1", m.chart.names)
    with pytest.raises(ValueError, match="fiber"):
        LinearVectorField(m.chart, m.eulers["E1"].beta, ((xi,),))
    with pytest.raises(ValueError, match="fiber"):
        fixture("line-bad-euler.fman")


def test_02_plane_model_battery_product_value_and_euler():
    m = fixture("plane.fman")
    assert check_battery(m.components, m.unit).passed
    t = m.components.assemble()
    v = TensorField(m.chart, 0, 1, {(1,): 1})
    expected = TensorField.vector(
        m.chart, (0, 0, parse_expr("x2*xi1", m.chart.names))
    )
    assert (contract(contract(t, 0, v), 0, v) - expected).is_zero()
    assert check_euler(m.components, m.unit, m.eulers["E1"]).passed


def test_03_tangent_prolongations_pass_the_battery():
    for base in flat_bases():
        prol = tangent_prolongation(base)
        assert check_battery(prol.components, prol.unit).passed


def test_04_cotangent_and_generalized_prolongations_pass_the_battery():
    for base in flat_bases():
        nabla = Connection.zero(base.chart)
        for build in (cotangent_prolongation, generalized_prolongation):
            prol = build(base, nabla)
            assert check_battery(prol.components, prol.unit).passed


def test_05_double_dual_is_the_identity_on_random_tables():
    for trial in range(10):
        rng = rng_for(f"acceptance-dual-{trial}")
        n = 1 + trial % 2
        k = 1 + (trial // 2) % 2
        chart = Chart.standard(n, k)
        names = chart.base_names

        def entry():
            return rand_ratfunc(rng, names, max_deg=2, with_den=trial % 3 == 0)

        c = MultComponents(
            chart=chart,
            d={key: entry() for key in product(range(k), range(k), range(n), range(n))},
            l={key: entry() for key in product(range(k), range(k), range(n))},
            star={key: entry() for key in product(range(n), repeat=3)},
        )
        e = LinearVectorField(
            chart,
            tuple(entry() for _ in range(n)),
            tuple(tuple(entry() for _ in range(k)) for _ in range(k)),
        )
        gamma = {}
        for a in range(n):
            for i in range(n):
                for j in range(i, n):
                    gamma[(a, i, j)] = gamma[(a, j, i)] = entry()
        nabla = Connection(chart, gamma)  # symmetric, hence torsion-free
        d1, e1 = dualize(c, e, nabla)
        d2, e2 = dualize(d1, e1, nabla)
        assert d2 == c
        assert e2 == e


def test_06_table_level_verdicts_match_the_tensor_oracles():
    B2 = Chart.standard(2, 0)
    C21 = Chart.standard(2, 1)
    plane_star = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}

    candidates = []
    for trial in range(8):
        rng = rng_for(f"acceptance-oracle-diag-{trial}")
        star = {
            (0, 0, 0): rand_poly(rng, B2.names, max_deg=1, max_terms=2),
            (1, 1, 1): rand_poly(rng, B2.names, max_deg=1, max_terms=2),
        }
        candidates.append((MultComponents(chart=B2, d={}, l={}, star=star), None))
    for trial in range(8):
        rng = rng_for(f"acceptance-oracle-h-{trial}")
        h = rand_poly(rng, C21.base_names, max_deg=2, max_terms=3)
        c = MultComponents(
            chart=C21, d={(0, 0, 1, 1): h}, l={(0, 0, 0): 1}, star=plane_star
        )
        candidates.append((c, LinearVectorField(C21, (1, 0), ((0,),))))
    line = fixture("line.fman")
    plane = fixture("plane.fman")
    candidates.append((line.components, line.unit))
    candidates.append((plane.components, plane.unit))
    for base in flat_bases():
        prol = tangent_prolongation(base)
        candidates.append((prol.components, prol.unit))
    assert len(candidates) == 20

    oracle_passes = oracle_failures = 0
    for pos, (c, e) in enumerate(candidates):
        rep = check_battery(c, e)
        table_verdict = all(rep.record(name).passed for name in HM_RECORDS)
        oracle_verdict = rep.record("integrability-oracle").passed
        assert table_verdict == oracle_verdict
        oracle_passes += oracle_verdict
        oracle_failures += not oracle_verdict

        # a random linear field is almost never a scaling symmetry, but the
        # table calculus and the assembled Lie derivative must still agree
        rng = rng_for(f"acceptance-oracle-euler-{pos}")
        k = c.rank
        field = LinearVectorField(
            c.chart,
            tuple(
                rand_poly(rng, c.chart.base_names, max_deg=1, max_terms=2)
                for _ in range(c.n)
            ),
            tuple(
                tuple(
                    rand_poly(rng, c.chart.base_names, max_deg=0, max_terms=1)
                    for _ in range(k)
                )
                for _ in range(k)
            ),
        )
        dt, lt, rt = lie_components(c, field)
        table_euler = (
            tables_equal(dt, c.d)
            and tables_equal(lt, c.l)
            and tables_equal(rt, c.star)
        )
        t = c.assemble()
        tensor_euler = (lie_derivative(field.as_field(), t) - t).is_zero()
        assert table_euler == tensor_euler
    assert oracle_passes and oracle_failures

    # and on genuine scaling symmetries both routes answer yes
    for m in (line, plane):
        c, euler = m.components, m.eulers["E1"]
        dt, lt, rt = lie_components(c, euler)
        assert tables_equal(dt, c.d)
        assert tables_equal(lt, c.l)
        assert tables_equal(rt, c.star)
        t = c.assemble()
        assert (lie_derivative(euler.as_field(), t) - t).is_zero()


def test_07_generalized_prolongation_is_bracket_compatible():
    for base in flat_bases():
        nabla = Connection.zero(base.chart)
        prol = generalized_prolongation(base, nabla)
        assert check_anchor_compat(prol.components).passed
        assert check_scalar_compat(prol.components, prol.unit, nabla).passed
        assert check_dorfman_compat(prol.components, prol.unit, nabla).passed


def test_08_shear_classification_constant_versus_linear():
    base = base_of(fixture("plane-base.fman"))
    names = base.chart.names
    nabla = Connection.zero(base.chart)
    prol = generalized_prolongation(base, nabla)

    gamma = TwoForm(base.chart, {(0, 1): 1})
    tc, te = bfield_transform(prol.components, prol.unit, gamma)
    assert classify_exact_courant(tc, te, nabla).passed
    assert check_flat_f(base, nabla).passed
    recovered = _recover(tc, te, prol.components)
    assert recovered == gamma
    # with the zero connection the covariant derivative is the coordinate one
    assert all(
        recovered.at(i, j).partial(r).is_zero()
        for i in range(2)
        for j in range(2)
        for r in names
    )

    linear = TwoForm(base.chart, {(0, 1): parse_expr("x1", names)})
    tc, te = bfield_transform(prol.components, prol.unit, linear)
    rep = classify_exact_courant(tc, te, nabla)
    assert rep.record("anchor-compatibility").passed
    assert rep.record("scalar-compatibility").passed
    assert not rep.record("dorfman-compatibility").passed
    # the classification pins the failure on the derivative law of the shear
    grad = rep.record("bfield-gradient")
    assert not grad.passed
    assert grad.witness == (0, 0, 1)


def test_09_recovered_difference_tables_match_their_closed_forms():
    base = base_of(fixture("plane-base.fman"))
    names = base.chart.names
    nabla = Connection.zero(base.chart)
    prol = generalized_prolongation(base, nabla)
    for text in ("1", "x1"):
        gamma = TwoForm(base.chart, {(0, 1): parse_expr(text, names)})
        tc, te = bfield_transform(prol.components, prol.unit, gamma)
        data = BFieldData.from_difference(tc, te, prol.components, prol.unit)
        assert data == BFieldData.from_two_form(base, gamma, nabla)
    const = BFieldData.from_two_form(base, TwoForm(base.chart, {(0, 1): 1}), nabla)
    assert const.b == {} and const.s == {}
    assert const.a == {(1, 0, 0): parse_expr("-2", names)}


def test_10_five_field_identity_vanishes_on_the_base_models():
    for base in flat_bases():
        assert check_five_field_identity(base).passed


def test_11_regular_connection_of_the_canonical_plane_model():
    m = fixture("regular2d.fman")
    nabla, rep = regular_flat_check(base_of(m), m.eulers["E"].beta)
    assert nabla.gamma == {}
    assert rep.passed
