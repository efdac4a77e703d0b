"""Connection calculus, flat base structures, and the dual package."""

from itertools import product

import pytest

from conftest import rand_fraction, rand_poly, rand_ratfunc, rng_for
from fmanlin.duality import (
    Connection,
    FlatFStructure,
    check_duality_conditions,
    check_flat_f,
    curvature,
    dualize,
    nabla_apply,
    regular_connection,
    regular_flat_check,
    symmetric_bracket,
    torsion,
)
from fmanlin.fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    PreconditionError,
    apply_l,
    check_battery,
)
from fmanlin.prolong import tangent_prolongation
from fmanlin.symcore import RatFunc, SingularMatrixError, parse_expr
from fmanlin.tensor import Chart, Section, TensorField, apply_tensor, vertical_lift

C11 = Chart.standard(1, 1)
C21 = Chart.standard(2, 1)
C22 = Chart.standard(2, 2)
B1 = Chart.standard(1, 0)
B2 = Chart.standard(2, 0)

PLANE_STAR = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}


def rf(text, chart=C21):
    return parse_expr(text, chart.names)


def line_example():
    c = MultComponents(chart=C11, d={}, l={(0, 0, 0): 1}, star={(0, 0, 0): 1})
    e = LinearVectorField(C11, (1,), ((0,),))
    return c, e


def plane_example(h_text="x2"):
    c = MultComponents(
        chart=C21,
        d={(0, 0, 1, 1): rf(h_text)},
        l={(0, 0, 0): 1},
        star=PLANE_STAR,
    )
    e = LinearVectorField(C21, (1, 0), ((0,),))
    return c, e


def base_line():
    return BaseFManifold(B1, {(0, 0, 0): 1}, (1,))


def base_plane():
    return BaseFManifold(B2, PLANE_STAR, (1, 0))


def test_connection_validation():
    with pytest.raises(ValueError):
        Connection(B2, {(0, 0): 1})
    with pytest.raises(ValueError):
        Connection(B2, {(0, 0, 2): 1})
    with pytest.raises(ValueError):
        Connection(C21, {(0, 0, 0): rf("xi1")})
    nab = Connection(B2, {(0, 0, 1): rf("x1", B2), (1, 1, 1): 0})
    assert nab.at(0, 0, 1) == rf("x1", B2)
    assert (1, 1, 1) not in nab.gamma
    assert nab == Connection(B2, {(0, 0, 1): rf("x1", B2)})


def test_zero_connection_is_trivially_flat():
    nab = Connection.zero(B2)
    assert torsion(nab).is_zero()
    assert curvature(nab).is_zero()
    assert symmetric_bracket(nab, {0: RatFunc.one()}, {1: RatFunc.one()}) == {}


def test_torsion_and_curvature_component_formulas():
    nab = Connection(B2, {(0, 0, 1): rf("x2", B2)})
    t = torsion(nab)
    assert t.get((0, 0, 1)) == rf("x2", B2)
    assert t.get((0, 1, 0)) == -rf("x2", B2)

    nab2 = Connection(B2, {(0, 0, 0): rf("x2", B2), (1, 1, 0): rf("x1", B2)})
    assert torsion(nab2).get((1, 1, 0)) == rf("x1", B2)
    r = curvature(nab2)
    # first derivative part
    assert r.get((0, 0, 1, 0)) == rf("-1", B2)
    assert r.get((0, 1, 0, 0)) == rf("1", B2)
    # quadratic part
    assert r.get((1, 0, 1, 0)) == rf("1 - x1*x2", B2)


def test_symmetric_bracket_module_rule():
    rng = rng_for("duality-symbr")
    names = B2.names
    for _ in range(5):
        gamma = {
            key: rand_ratfunc(rng, names, max_deg=1, with_den=False)
            for key in product(range(2), repeat=3)
        }
        nab = Connection(B2, gamma)
        f = rand_ratfunc(rng, names, max_deg=2, with_den=False)
        x = {a: rand_ratfunc(rng, names, max_deg=1, with_den=False) for a in range(2)}
        y = {a: rand_ratfunc(rng, names, max_deg=1, with_den=False) for a in range(2)}
        fx = {a: f * v for a, v in x.items()}
        lhs = symmetric_bracket(nab, fx, y)
        sb = symmetric_bracket(nab, x, y)
        yf = RatFunc.zero()
        for a, v in y.items():
            yf = yf + v * f.partial(names[a])
        for a in range(2):
            want = f * sb.get(a, RatFunc.zero()) + yf * x.get(a, RatFunc.zero())
            assert (lhs.get(a, RatFunc.zero()) - want).is_zero()


def test_check_flat_f_plane_with_zero_gamma():
    rep = check_flat_f(base_plane(), Connection.zero(B2))
    assert rep.passed
    assert [r.name for r in rep.records] == [
        "torsion-free",
        "flat",
        "unit-parallel",
        "star-derivative-symmetric",
    ]
    assert any("Euler" in note for note in rep.notes)


def test_check_flat_f_unit_parallel_failure():
    nab = Connection(B2, {(0, 0, 0): rf("x1", B2)})
    rep = check_flat_f(base_plane(), nab)
    assert not rep.passed
    bad = rep.record("unit-parallel")
    assert not bad.passed
    assert bad.witness == (0, 0)
    assert "x1" in bad.residual


def witness_and_residual(rep, name):
    rec = rep.record(name)
    assert not rec.passed, name
    return rec.witness, rec.residual


def test_check_flat_f_failing_witnesses():
    base = base_plane()
    rep = check_flat_f(base, Connection(B2, {(0, 0, 1): 1}))
    assert witness_and_residual(rep, "torsion-free") == ((0, 0, 1), "1")
    rep = check_flat_f(base, Connection(B2, {(0, 1, 1): rf("x1", B2)}))
    assert witness_and_residual(rep, "flat") == ((0, 0, 1, 1), "1")

    rep = check_flat_f(base, Connection.zero(B2), (rf("x1", B2), rf("x2^2", B2)))
    assert rep.record("euler-base").passed
    assert witness_and_residual(rep, "euler-second-derivative") == ((1, 1, 1), "2")
    rep = check_flat_f(base, Connection.zero(B2), (rf("2*x1", B2), rf("x2", B2)))
    assert witness_and_residual(rep, "euler-base") == ((0, 0, 0), "1")
    assert rep.record("euler-second-derivative").passed

    # witnesses whose output index differs from the frame indices
    rep = check_flat_f(base, Connection.zero(B2), (rf("x2^2", B2), rf("x2", B2)))
    assert witness_and_residual(rep, "euler-second-derivative") == ((0, 1, 1), "2")
    rep = check_flat_f(base, Connection.zero(B2), (rf("x1", B2), rf("x1 + x2", B2)))
    assert witness_and_residual(rep, "euler-base") == ((1, 0, 0), "1")
    rep = check_flat_f(base, Connection(B2, {(0, 0, 0): 2, (1, 0, 0): 1}))
    assert witness_and_residual(rep, "unit-parallel") == ((0, 0), "2")
    rep = check_flat_f(base, Connection(B2, {(1, 1, 0): rf("x2", B2)}))
    assert witness_and_residual(rep, "unit-parallel") == ((1, 1), "x2")
    assert witness_and_residual(rep, "star-derivative-symmetric") == (
        (1, 0, 1, 0),
        "x2",
    )


def test_check_flat_f_requires_verified_base():
    broken = BaseFManifold(B2, {(0, 0, 1): 1}, (1, 0))
    with pytest.raises(PreconditionError):
        check_flat_f(broken, Connection.zero(B2))


def test_flat_structure_type_checks_on_construction():
    flat = FlatFStructure(
        base_plane(),
        Connection.zero(B2),
        euler=(rf("x1+5", B2), rf("x2+1", B2)),
    )
    rep = flat.verify()
    assert rep.passed
    assert [r.name for r in rep.records] == [
        "torsion-free",
        "flat",
        "unit-parallel",
        "star-derivative-symmetric",
        "euler-base",
        "euler-second-derivative",
    ]
    assert flat.euler_vec() == {0: rf("x1+5", B2), 1: rf("x2+1", B2)}
    with pytest.raises(PreconditionError):
        FlatFStructure(base_plane(), Connection(B2, {(0, 0, 0): rf("x1", B2)}))


def test_dualize_line_tables():
    c, e = line_example()
    dual, de = dualize(c, e, Connection.zero(C11))
    assert dual == MultComponents(
        chart=C11.dual(), d={}, l={(0, 0, 0): 1}, star={(0, 0, 0): 1}
    )
    assert de == LinearVectorField(C11.dual(), (1,), ((0,),))


def test_dualize_gamma_enters_the_derivative_table():
    c, e = line_example()
    nab = Connection(C11, {(0, 0, 0): rf("x1", C11)})
    dual, _ = dualize(c, e, nab)
    assert dual.d == {(0, 0, 0, 0): rf("-2*x1", C11)}


def test_dualize_zero_side_tables_stay_zero():
    # with no side or derivative table the five-term formula collapses: the
    # would-be Leibniz term differentiates the constant frame pairing
    c = MultComponents(chart=C21, d={}, l={}, star=PLANE_STAR)
    e = LinearVectorField(C21, (1, 0), ((0,),))
    nab = Connection(C21, {(0, 0, 0): rf("x1"), (1, 0, 1): rf("x2+3")})
    dual, _ = dualize(c, e, nab)
    assert dual.d == {}
    assert dual.l == {}
    assert dual.star == c.star


def test_dualize_is_an_involution_on_random_tables():
    # the double dual telescopes back for arbitrary tables and any connection,
    # not just for verified products
    for trial in range(10):
        rng = rng_for(f"duality-involution-{trial}")
        n = 1 + trial % 2
        k = 1 + (trial // 2) % 2
        chart = Chart.standard(n, k)
        names = chart.base_names
        deep = trial % 3 == 0

        def entry():
            return rand_ratfunc(rng, names, max_deg=1, with_den=deep)

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
        nab = Connection(
            chart, {key: entry() for key in product(range(n), repeat=3)}
        )
        d1, e1 = dualize(c, e, nab)
        d2, e2 = dualize(d1, e1, nab)
        assert d2 == c
        assert e2 == e


def test_dual_side_operator_pairing():
    # <l*_X mu, s> = <mu, l_X s>, expanded through the tables on both charts
    for trial in range(4):
        rng = rng_for(f"duality-pairing-{trial}")
        names = C22.base_names
        c = MultComponents(
            chart=C22,
            d={},
            l={
                key: rand_ratfunc(rng, names, max_deg=1, with_den=False)
                for key in product(range(2), range(2), range(2))
            },
            star={},
        )
        e = LinearVectorField.zero(C22)
        dual, _ = dualize(c, e, Connection.zero(C22))
        mu = {j: rand_ratfunc(rng, names, max_deg=1, with_den=False) for j in range(2)}
        s = {j: rand_ratfunc(rng, names, max_deg=1, with_den=False) for j in range(2)}
        for x in range(2):
            lmu = apply_l(dual, x, mu)
            ls = apply_l(c, x, s)
            lhs = RatFunc.zero()
            for i, val in lmu.items():
                lhs = lhs + val * s.get(i, RatFunc.zero())
            rhs = RatFunc.zero()
            for j, val in mu.items():
                rhs = rhs + val * ls.get(j, RatFunc.zero())
            assert (lhs - rhs).is_zero()


def test_dual_side_operator_after_assembly():
    # one asymmetric side entry: l_{dx1} s2 = x1 s1 pairs to l*_{dx1} mu1 = x1 mu2
    c = MultComponents(chart=C22, d={}, l={(0, 1, 0): rf("x1", C22)}, star={})
    dual, _ = dualize(c, LinearVectorField.zero(C22), Connection.zero(C22))
    assert dual.l == {(1, 0, 0): rf("x1", C22)}
    t = dual.assemble()
    out = apply_tensor(
        t,
        TensorField.coordinate_field(dual.chart, 0),
        vertical_lift(Section.frame(dual.chart, 0)),
    )
    want = vertical_lift(
        Section(dual.chart, (RatFunc.zero(), rf("x1", dual.chart)))
    )
    assert out == want


def test_duality_conditions_pass_for_line_with_euler():
    c, e = line_example()
    euler = LinearVectorField(C11, (rf("x1+5", C11),), ((1,),))
    rep = check_duality_conditions(c, e, Connection.zero(C11), euler=euler)
    assert rep.passed
    assert [r.name for r in rep.records] == [
        "dual-associative",
        "dual-unit",
        "dual-integrable",
        "dual-euler",
        "dual-battery",
        "dual-euler-battery",
    ]
    assert not rep.notes


def test_duality_conditions_pass_for_plane_with_euler():
    c, e = plane_example()
    euler = LinearVectorField(C21, (rf("x1"), rf("x2/3")), ((0,),))
    rep = check_duality_conditions(c, e, Connection.zero(C21), euler=euler)
    assert rep.passed
    assert not rep.notes
    dual, de = dualize(c, e, Connection.zero(C21))
    assert dual.d == {(0, 0, 1, 1): rf("-x2", dual.chart)}
    assert check_battery(dual, de).passed


def test_duality_unit_failure_agrees_with_the_dual_battery():
    c, e = line_example()
    nab = Connection(C11, {(0, 0, 0): rf("x1", C11)})
    rep = check_duality_conditions(c, e, nab)
    assert not rep.passed
    unit_rec = rep.record("dual-unit")
    assert not unit_rec.passed
    assert unit_rec.witness == (0, 0, 0)
    bat_rec = rep.record("dual-battery")
    assert not bat_rec.passed
    assert bat_rec.witness[0] == "unit-derivative"
    assert rep.record("dual-associative").passed
    assert rep.record("dual-integrable").passed
    assert not rep.notes


def test_duality_condition_failing_witnesses():
    c, e = line_example()
    euler = LinearVectorField(C11, (rf("x1^2", C11),), ((1,),))
    rep = check_duality_conditions(c, e, Connection.zero(C11), euler=euler)
    assert witness_and_residual(rep, "dual-euler") == ((0, 0, 0, 0), "4")
    assert rep.record("dual-battery").passed
    assert witness_and_residual(rep, "dual-euler-battery") == (
        ("euler-base", 0, 0, 0),
        "2*x1 - 1",
    )

    c, e = plane_example()
    rep = check_duality_conditions(c, e, Connection(C21, {(0, 0, 1): 1}))
    assert witness_and_residual(rep, "dual-associative") == ((0, 0, 0, 0, 1), "1")
    assert rep.record("dual-integrable").passed

    rep = check_duality_conditions(c, e, Connection(C21, {(0, 1, 1): rf("x1")}))
    assert rep.record("dual-associative").passed
    assert witness_and_residual(rep, "dual-integrable") == ((0, 0, 0, 0, 1, 1), "-2")
    assert witness_and_residual(rep, "dual-battery") == (
        ("derivative-bracket", 0, 0, 0, 0, 1, 1),
        "2",
    )

    # rank two: the witness leads with the output index i, then the frame j
    tan = tangent_prolongation(base_plane())
    c, e, chart = tan.components, tan.unit, tan.components.chart
    rep = check_duality_conditions(c, e, Connection(chart, {(1, 0, 1): 1}))
    assert witness_and_residual(rep, "dual-associative") == ((1, 0, 0, 0, 1), "1")
    rep = check_duality_conditions(
        c, e, Connection(chart, {(1, 1, 1): rf("x1", chart)})
    )
    assert witness_and_residual(rep, "dual-integrable") == ((1, 0, 0, 0, 1, 1), "-2")


def test_duality_conditions_require_the_battery():
    bad = MultComponents(
        chart=C11, d={}, l={(0, 0, 0): rf("x1", C11)}, star={(0, 0, 0): 1}
    )
    with pytest.raises(PreconditionError):
        check_duality_conditions(
            bad, LinearVectorField(C11, (1,), ((0,),)), Connection.zero(C11)
        )


def test_duality_transports_random_flat_instances():
    # over a flat structure the dual package keeps every axiom, and Euler
    # candidates transport along with it
    for trial in range(10):
        rng = rng_for(f"duality-flat-{trial}")
        if trial % 2:
            h = rand_poly(rng, ("x2",), max_deg=2, max_terms=3)
            c = MultComponents(
                chart=C21, d={(0, 0, 1, 1): RatFunc(h)}, l={(0, 0, 0): 1}, star=PLANE_STAR
            )
            euler = None
        else:
            g = rand_fraction(rng)
            c = MultComponents(
                chart=C21,
                d={},
                l={(0, 0, 0): 1, (0, 0, 1): g},
                star={**PLANE_STAR, (0, 1, 1): g * g},
            )
            euler = LinearVectorField(C21, (rf("x1"), rf("x2")), ((0,),))
        e = LinearVectorField(C21, (1, 0), ((0,),))
        rep = check_duality_conditions(c, e, Connection.zero(C21), euler=euler)
        assert rep.passed
        assert not rep.notes


def test_regular_connection_canonical_model():
    euler = (rf("x1+5", B2), rf("x2+1", B2))
    nab = regular_connection(base_plane(), euler)
    assert nab.gamma == {}
    rep = check_flat_f(base_plane(), nab, euler=euler)
    assert rep.passed


def test_regular_connection_line():
    nab, rep = regular_flat_check(base_line(), (rf("x1+7", B1),))
    assert nab.gamma == {}
    assert rep.passed
    assert any("holomorphic" in note for note in rep.notes)


def test_regular_connection_semisimple_base():
    star = {(0, 0, 0): 1, (1, 1, 1): 1}
    base = BaseFManifold(B2, star, (1, 1))
    euler = (rf("x1+1", B2), rf("x2", B2))
    nab, rep = regular_flat_check(base, euler)
    assert rep.passed
    # duality over the resulting flat structure preserves the battery
    c = MultComponents(
        chart=C21, d={}, l={(0, 0, 0): 1}, star={(0, 0, 0): 1, (1, 1, 1): 1}
    )
    e = LinearVectorField(C21, (1, 1), ((0,),))
    rep2 = check_duality_conditions(c, e, nab)
    assert rep2.passed
    assert not rep2.notes


def test_regular_connection_bent_euler_coordinates():
    # an Euler field that is quadratic in the second coordinate forces a
    # genuinely curved-looking Christoffel table, which still passes every
    # flat-structure condition
    euler = (rf("x1+5", B2), rf("x2^2+1", B2))
    nab, rep = regular_flat_check(base_plane(), euler)
    assert nab.gamma == {(1, 1, 1): rf("(1-2*x2)/(x2^2+1)", B2)}
    assert rep.passed
    # and duality over this structure still preserves the battery
    c, e = plane_example("x2^2 - 4")
    rep2 = check_duality_conditions(c, e, nab)
    assert rep2.passed
    assert not rep2.notes


def test_regular_connection_singular_frame():
    with pytest.raises(SingularMatrixError):
        regular_connection(base_plane(), (1, 0))


def test_regular_connection_requires_verified_base():
    broken = BaseFManifold(B2, {(0, 0, 1): 1}, (1, 0))
    with pytest.raises(PreconditionError):
        regular_connection(broken, (rf("x1", B2), rf("x2", B2)))
