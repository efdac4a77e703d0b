"""Connection calculus, flat base structures, and the dual package."""

import gc
import time
import weakref
from collections import Counter
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from conftest import rand_fraction, rand_poly, rand_ratfunc, rng_for
import fmanlin.duality as duality
from fmanlin.duality import (
    Connection,
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
    check_battery,
    star_product,
)
from fmanlin.modelfile import load
from fmanlin.prolong import check_five_field_identity, tangent_prolongation
from fmanlin.report import Report
from fmanlin.symcore import RatFunc, SingularMatrixError, parse_expr
from fmanlin.tensor import (
    Chart,
    TensorField,
    _vadd,
    _vsub,
    contract,
)
from references import (
    Section,
    apply_l,
    lie_star,
    nabla_star,
    ref_asoc_vec,
    ref_euler_vec,
    ref_integr_vec,
    ref_kernel_records,
    ref_nabla2_vec,
    ref_regular_connection,
    ref_unit_vec,
    vertical_lift,
)

C11 = Chart.standard(1, 1)
C21 = Chart.standard(2, 1)
C22 = Chart.standard(2, 2)
B1 = Chart.standard(1, 0)
B2 = Chart.standard(2, 0)
B3 = Chart.standard(3, 0)

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

    # a diagonal entry G^0_11 and a symmetric pair G^1_01 = G^1_10: no torsion,
    # and the terms at i == j that curvature skips cancel in the dense sum
    x1, x2 = rf("x1", B2), rf("x2", B2)
    nab3 = Connection(B2, {(0, 1, 1): x1, (1, 0, 1): x2, (1, 1, 0): x2})
    assert torsion(nab3).is_zero()
    r = curvature(nab3)
    assert r.get((0, 0, 1, 1)) == rf("1 - x1*x2", B2)
    assert r.coeffs == dense_curvature(nab3).coeffs


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
    assert [r.name for r in rep.records] == [
        "torsion-free",
        "flat",
        "unit-parallel",
        "star-derivative-symmetric",
        "euler-base",
        "euler-second-derivative",
    ]
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


def test_input_errors_come_before_preconditions(battery_runs):
    # a connection on other coordinates, or a malformed Euler candidate, is an
    # input error even over a failing product, and costs no battery
    broken = BaseFManifold(B2, {(0, 0, 1): 1}, (1, 0))
    bad = MultComponents(
        chart=C11, d={}, l={(0, 0, 0): rf("x1", C11)}, star={(0, 0, 0): 1}
    )
    other = Connection.zero(Chart(("y1", "y2"), ()))
    calls = [
        lambda: check_flat_f(broken, other),
        lambda: check_flat_f(broken, Connection.zero(B2), euler=(1,)),
        lambda: regular_connection(broken, (1,)),
        lambda: check_duality_conditions(
            bad, LinearVectorField(C11, (1,), ((0,),)), Connection.zero(B2)
        ),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert battery_runs == []
    # with valid inputs, the failing product is still a precondition error
    with pytest.raises(PreconditionError):
        check_flat_f(broken, Connection.zero(B2))
    assert battery_runs == [broken.components]


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


def dense_dualize_reference(c, e, nabla):
    """The dual tables by evaluating the five-term formula at every index tuple."""
    chart = c.chart
    n, kdim = c.n, c.rank
    names = chart.names
    dual_l = {(j, i, k): val for (i, j, k), val in c.l.items()}
    dual_d = {}
    for i, j, k, p in product(range(kdim), range(kdim), range(n), range(n)):
        val = (
            c.l_at(j, i, p).partial(names[k])
            + c.l_at(j, i, k).partial(names[p])
            - c.d_at(j, i, k, p)
        )
        for a in range(n):
            g = nabla.at(a, k, p) + nabla.at(a, p, k)
            if not g.is_zero():
                val = val - g * c.l_at(j, i, a)
        dual_d[(i, j, k, p)] = val
    dual = MultComponents(chart=chart.dual(), d=dual_d, l=dual_l, star=c.star)
    return dual, e.dual()


def test_dualize_matches_dense_reference():
    models = Path(__file__).resolve().parent.parent / "models"
    cases = []
    for name in ("line.fman", "plane.fman"):
        m = load(models / name)
        cases.append((m.components, m.unit, Connection.zero(m.chart)))
    rng = rng_for("duality-dense-dualize")
    for trial in range(24):
        n, k = 1 + trial % 3, 1 + (trial // 3) % 3
        chart = Chart.standard(n, k)

        def entry():
            return rand_ratfunc(rng, chart.base_names, 1, with_den=rng.random() < 0.4)

        def sparse(keys):
            return {key: entry() for key in keys if rng.random() < 0.5}

        c = MultComponents(
            chart=chart,
            d=sparse(product(range(k), range(k), range(n), range(n))),
            l=sparse(product(range(k), range(k), range(n))),
            star=sparse(product(range(n), repeat=3)),
        )
        e = LinearVectorField(
            chart,
            tuple(entry() for _ in range(n)),
            tuple(tuple(entry() for _ in range(k)) for _ in range(k)),
        )
        # a diagonal entry G^a_{kk} enters twice at (i, j, k, k)
        gamma = sparse(product(range(n), repeat=3))
        gamma[(rng.randrange(n), trial % n, trial % n)] = entry() + 1
        cases.append((c, e, Connection(chart, gamma)))
    nonzero = 0
    for c, e, nab in cases:
        dual, dual_e = dualize(c, e, nab)
        assert (dual, dual_e) == dense_dualize_reference(c, e, nab)
        nonzero += bool(dual.d)
    assert nonzero


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
    dx1 = TensorField(dual.chart, 0, 1, {(0,): 1})
    lift = vertical_lift(Section.frame(dual.chart, 0))
    out = contract(contract(t, 0, dx1), 0, lift)
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
    with pytest.raises(SingularMatrixError, match="frame of the Euler candidate is singular"):
        regular_connection(base_plane(), (1, 0))


def test_regular_connection_requires_verified_base():
    broken = BaseFManifold(B2, {(0, 0, 1): 1}, (1, 0))
    with pytest.raises(PreconditionError):
        regular_connection(broken, (rf("x1", B2), rf("x2", B2)))


def test_duality_euler_cross_check_reruns_no_battery(monkeypatch):
    import fmanlin.duality as duality
    import fmanlin.fman as fman

    calls = []
    real = fman.check_battery

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(duality, "check_battery", counting)
    monkeypatch.setattr(fman, "check_battery", counting)
    c, e = line_example()
    euler = LinearVectorField(C11, (rf("x1+5", C11),), ((1,),))
    rep = check_duality_conditions(c, e, Connection.zero(C11), euler=euler)
    assert rep.passed
    assert rep.record("dual-euler-battery").passed
    assert len(calls) == 2


# -- dense references ------------------------------------------------------------
#
# The support-driven `curvature` is compared with the dense curvature over
# every index tuple, and the obstruction maps of the duality conditions with
# the dense frame forms in `references`: the associativity and unit
# obstructions, the full twelve-term integrability obstruction (six of its
# terms contain the bracket of two frames, which vanishes) and the second
# covariant derivative.

CUBIC_STAR = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (2, 0, 2): 1, (2, 2, 0): 1}


def frame(j):
    return {j: RatFunc.one()}


def dense_curvature(nabla):
    chart = nabla.chart.base()
    n = chart.n
    names = chart.names
    coeffs = {}
    for i, j, k, m in product(range(n), repeat=4):
        val = nabla.at(m, j, k).partial(names[i]) - nabla.at(m, i, k).partial(names[j])
        for a in range(n):
            val = val + nabla.at(a, j, k) * nabla.at(m, i, a)
            val = val - nabla.at(a, i, k) * nabla.at(m, j, a)
        coeffs[(m, i, j, k)] = val
    return TensorField(chart, 3, 1, coeffs)


def cubic_package(k):
    """A rank-``k`` package over the square-zero product on three coordinates."""
    chart = Chart.standard(3, k)
    d = {(0, 0, 1, 1): parse_expr("x2", chart.names)}
    l = {(0, 0, 0): 1}
    if k == 2:
        d[(1, 1, 2, 2)] = parse_expr("x3", chart.names)
        l[(1, 1, 0)] = 1
    c = MultComponents(chart=chart, d=d, l=l, star=CUBIC_STAR)
    e = LinearVectorField(chart, (1, 0, 0), tuple((0,) * k for _ in range(k)))
    return c, e


def random_connection(rng, chart, kind):
    """A seeded connection: zero, a few constant entries, or a rational table
    that is torsion-free, (in general) not, or full on the diagonal."""
    keys = list(product(range(chart.n), repeat=3))
    if kind == "zero":
        return Connection(chart, {})
    if kind == "sparse-constant":
        return Connection(chart, {key: rand_fraction(rng) for key in rng.sample(keys, min(3, len(keys)))})
    names = chart.base_names
    gamma = {key: rand_ratfunc(rng, names, max_deg=1) for key in keys if rng.random() < 0.6}
    if kind == "torsion-free":
        gamma = {(k, i, j): gamma.get((k, min(i, j), max(i, j)), 0) for k, i, j in keys}
    if kind == "diagonal":
        # every diagonal entry G^k_ii, symmetric pairs G^k_ij = G^k_ji and one
        # entry without its mirror, so that the terms at i == j are exercised
        gamma = {key: val for key, val in gamma.items() if key[1] <= key[2]}
        gamma |= {(k, i, i): rand_ratfunc(rng, names, max_deg=1) for k, i, _ in keys}
        gamma |= {(k, j, i): val for (k, i, j), val in gamma.items()}
        gamma[(0, chart.n - 1, 0)] = rand_ratfunc(rng, names, max_deg=1)
    return Connection(chart, gamma)


def packages(n):
    """Battery-passing packages of ranks one and two over ``n`` coordinates, and
    random tables that pass nothing."""
    rng = rng_for(f"duality-packages-{n}")
    if n == 2:
        yield plane_example("x2^2 - 4")
        tan = tangent_prolongation(base_plane())
        yield tan.components, tan.unit
    else:
        yield cubic_package(1)
        yield cubic_package(2)
    chart = Chart.standard(n, 2)
    names = chart.base_names

    def table(*ranges, deg=1):
        keys = [key for key in product(*ranges) if rng.random() < 0.5]
        return {key: rand_ratfunc(rng, names, max_deg=deg, with_den=False) for key in keys}

    # star entries of degree two, so that their second partials enter the maps
    ks, ns = range(2), range(n)
    c = MultComponents(
        chart=chart, d=table(ks, ks, ns, ns), l=table(ks, ks, ns), star=table(ns, ns, ns, deg=2)
    )
    unit = tuple(rand_ratfunc(rng, names, max_deg=1) for _ in ns)
    yield c, LinearVectorField(chart, unit, ((0, 1), (1, 0)))


def dense_torsion(nabla):
    chart = nabla.chart.base()
    coeffs = {
        (k, i, j): nabla.at(k, i, j) - nabla.at(k, j, i)
        for k, i, j in product(range(chart.n), repeat=3)
    }
    return TensorField(chart, 2, 1, coeffs)


def test_curvature_matches_dense_formula():
    diagonal = 0
    for n in (1, 2, 3):
        chart = Chart.standard(n, 0)
        for trial in range(3):
            rng = rng_for(f"duality-curvature-{n}-{trial}")
            for kind in ("zero", "sparse-constant", "torsion-free", "rational", "diagonal"):
                nab = random_connection(rng, chart, kind)
                if kind in ("zero", "torsion-free"):
                    assert torsion(nab).is_zero()
                assert torsion(nab).coeffs == dense_torsion(nab).coeffs, (n, kind)
                assert curvature(nab).coeffs == dense_curvature(nab).coeffs, (n, kind)
                diagonal += sum(i == j for _, i, j in nab.gamma)
    assert diagonal >= 20


def dense_map(tuples, vec_fn):
    """``{(m, *idx): vec[m]}`` over the index tuples, for the vectors ``vec_fn(*idx)``."""
    return {(m, *idx): val for idx in tuples for m, val in vec_fn(*idx).items()}


def test_obstruction_vectors_match_dense_references_at_every_tuple():
    for n in (2, 3):
        ns = range(n)
        pairs = list(combinations_with_replacement(ns, 2))
        for pkg, (c, e) in enumerate(packages(n)):
            rng = rng_for(f"duality-obstructions-{n}-{pkg}")
            base = Chart.standard(n, 0)
            evec = {a: rand_ratfunc(rng, base.names, with_den=False) for a in ns}
            for kind in ("zero", "torsion-free", "rational"):
                nab = random_connection(rng, c.chart, kind)
                where = (n, pkg, kind)
                got = duality._map_dual_associative(c, nab)
                want = dense_map(product(ns, repeat=3), lambda *i: ref_asoc_vec(c, nab, *i))
                assert got == want, where
                got = duality._map_dual_unit(nab, e.base_vec())
                assert got == dense_map(product(ns), lambda x: ref_unit_vec(e, nab, x)), where
                got = duality._map_dual_integrable(c, nab)
                quads = [xy + zv for xy, zv in product(pairs, pairs)]
                assert got == dense_map(quads, lambda *i: ref_integr_vec(c, nab, *i)), where
                got = duality._map_dual_euler(nab, evec)
                assert got == dense_map(pairs, lambda *i: ref_euler_vec(nab, evec, *i)), where
                got = duality._map_nabla2(nab, evec)
                want = dense_map(
                    product(ns, repeat=2),
                    lambda x, y: ref_nabla2_vec(nab, frame(x), frame(y), evec),
                )
                assert got == want, where


def test_duality_records_match_dense_reference_scans(monkeypatch):
    # every kernel record, passing or failing, with its witness and residual;
    # the precondition is lifted so that the random tables of each `packages`
    # reach the scans too
    monkeypatch.setattr(duality, "_require", lambda what, rep: None)
    failed, seen = set(), 0
    for n in (2, 3):
        for pkg, (c, e) in enumerate(packages(n)):
            rng = rng_for(f"duality-records-{n}-{pkg}")
            names = c.chart.base_names
            euler = LinearVectorField(
                c.chart,
                tuple(rand_ratfunc(rng, names, max_deg=2) for _ in range(n)),
                tuple(tuple(rand_fraction(rng) for _ in range(c.rank)) for _ in range(c.rank)),
            )
            for kind in ("zero", "sparse-constant", "torsion-free", "rational"):
                nab = random_connection(rng, c.chart, kind)
                rep = check_duality_conditions(c, e, nab, euler=euler)
                want = ref_kernel_records(c, e, nab, euler)
                assert rep.records[: len(want)] == want, (n, pkg, kind)
                failed |= {r.name for r in want if not r.passed}
                seen += 1
    assert seen == 2 * 3 * 4
    assert failed == {"dual-associative", "dual-unit", "dual-integrable", "dual-euler"}


def test_check_flat_f_euler_scan_matches_the_dense_second_derivative():
    base = base_plane()
    for trial in range(4):
        rng = rng_for(f"duality-flat-euler-{trial}")
        nab = random_connection(rng, B2, ("zero", "torsion-free", "rational")[trial % 3])
        euler = tuple(rand_ratfunc(rng, B2.names, max_deg=2) for _ in range(2))
        rep = check_flat_f(base, nab, euler)
        evec = {a: f for a, f in enumerate(euler) if not f.is_zero()}
        pairs = (
            ((a, i, j), vec[a])
            for i, j in product(range(2), repeat=2)
            for vec in [ref_nabla2_vec(nab, frame(i), frame(j), evec)]
            for a in sorted(vec)
        )
        want = Report("flat structure")
        want.scan("euler-second-derivative", "nabla^2 Ebar = 0", pairs)
        assert rep.records[-1] == want.records[0]


def test_check_flat_f_euler_base_matches_the_dense_lie_derivative():
    # euler-base is L_Ebar(*)(d_j, d_k) - d_j * d_k for j <= k, scanned by
    # (j, k) and then the output index; the first failure of `off_diagonal`
    # is off the diagonal, at (j, k) = (1, 2)
    off_diagonal = (square_zero_3(), (rf("x1 + x2", B3), rf("2*x3", B3), rf("-x3", B3)))
    cases = [
        (base_line(), (rf("x1+7", B1),)),
        (base_plane(), (rf("x1+5", B2), rf("x2^2+1", B2))),
        off_diagonal,
    ]
    for number, base in enumerate(flat_bases()):
        rng = rng_for(f"duality-flat-euler-base-{number}")
        names = base.chart.names
        for _ in range(2):
            cases.append((base, tuple(rand_ratfunc(rng, names, max_deg=2) for _ in names)))
    outcomes = set()
    for base, euler in cases:
        c, n = base.components, base.chart.n
        evec = {a: f for a, f in enumerate(euler) if not f.is_zero()}
        pairs = (
            ((a, j, k), vec[a])
            for j, k in combinations_with_replacement(range(n), 2)
            for vec in [
                _vsub(lie_star(c, evec, frame(j), frame(k)), star_product(c, frame(j), frame(k)))
            ]
            for a in sorted(vec)
        )
        want = Report("flat structure")
        want.scan("euler-base", "L_Ebar(*) = *", pairs)
        got = check_flat_f(base, Connection.zero(base.chart), euler).record("euler-base")
        assert got == want.records[0], euler
        outcomes.add(got.passed)
    assert outcomes == {True, False}
    base, euler = off_diagonal
    rep = check_flat_f(base, Connection.zero(B3), euler)
    assert witness_and_residual(rep, "euler-base") == ((2, 1, 2), "3")


def test_duality_failures_with_rational_residuals():
    # recorded before the frame memo; each residual depends on the coordinates
    c, e = cubic_package(2)

    def rf3(text):
        return parse_expr(text, c.chart.names)

    nab = Connection(c.chart, {(0, 2, 0): rf3("x1*x3/(x2^2 + 1)"), (1, 2, 1): rf3("x1")})
    rep = check_duality_conditions(c, e, nab)
    assert witness_and_residual(rep, "dual-associative") == (
        (0, 0, 0, 0, 2),
        "(x1*x3)/(x2^2 + 1)",
    )
    assert witness_and_residual(rep, "dual-integrable") == (
        (0, 0, 0, 0, 0, 2),
        "(-x3)/(x2^2 + 1)",
    )
    nab = Connection(c.chart, {(0, 1, 1): rf3("x1*x3/(x2^2 + 1)"), (1, 2, 1): rf3("x1")})
    rep = check_duality_conditions(c, e, nab)
    assert rep.record("dual-associative").passed
    assert witness_and_residual(rep, "dual-integrable") == (
        (0, 0, 0, 0, 1, 1),
        "(-2*x3)/(x2^2 + 1)",
    )
    c, e = cubic_package(1)
    rep = check_duality_conditions(c, e, Connection(c.chart, {(0, 0, 1): rf3("1/(x2 + 1)")}))
    assert witness_and_residual(rep, "dual-associative") == ((0, 0, 0, 0, 1), "(1)/(x2 + 1)")


def forbidden(*args, **kwargs):
    raise AssertionError("this route must not be used")


def test_kernel_records_and_dual_battery_share_no_code(monkeypatch):
    c, e = cubic_package(2)
    nab = Connection(c.chart, {(0, 2, 0): parse_expr("x1*x3", c.chart.names), (1, 2, 1): 1})
    euler = LinearVectorField(c.chart, (1, 0, 0), ((0, 0), (0, 0)))
    want = check_duality_conditions(c, e, nab, euler=euler)
    kernel = ("dual-associative", "dual-unit", "dual-integrable", "dual-euler")
    assert [r.name for r in want.records[:4]] == list(kernel)
    assert not want.record("dual-battery").passed

    # the kernel records, with dualize and every battery after the precondition forbidden
    reports, batteries, real_battery = [], [], duality.check_battery

    class Recording(Report):
        def __init__(self, *args):
            super().__init__(*args)
            reports.append(self)

    def precondition_only(*args):
        if batteries:
            forbidden()
        batteries.append(args)
        return real_battery(*args)

    with monkeypatch.context() as m:
        m.setattr(duality, "Report", Recording)
        m.setattr(duality, "check_battery", precondition_only)
        m.setattr(duality, "dualize", forbidden)
        m.setattr(duality, "_euler_report", forbidden)
        with pytest.raises(AssertionError, match="must not be used"):
            check_duality_conditions(c, e, nab, euler=euler)
    assert reports[0].records == want.records[:4]

    # the dual battery, with the obstruction maps and their helpers forbidden
    with monkeypatch.context() as m:
        frame_route = ("nabla_apply", "symmetric_bracket", "_Ctx", "star_product")
        for name in KERNEL_ROUTE + frame_route:
            m.setattr(duality, name, forbidden)
        dual_c, dual_e = dualize(c, e, nab)
        rep = Report("duality conditions")
        rep.summarize("dual-battery", want.record("dual-battery").law, check_battery(dual_c, dual_e))
    assert rep.records[0] == want.record("dual-battery")

    # within the whole check, the dual battery calls none of the kernel
    # route's maps and the kernel route calls every one of them; neither
    # has a frame memo to fill
    import fmanlin.fman as fman

    assert not hasattr(fman, "_Memo") and not hasattr(duality, "_on_frames")
    called, in_dual = set(), []

    def dual_flagged(*args):
        if not batteries:
            batteries.append(args)
            return real_battery(*args)
        in_dual.append(True)
        try:
            return real_battery(*args)
        finally:
            in_dual.pop()

    def guarded(name, real):
        def run(*args, **kwargs):
            if in_dual:
                forbidden()
            called.add(name)
            return real(*args, **kwargs)

        return run

    plane_c, plane_e = plane_example()
    plane_euler = LinearVectorField(C21, (rf("x1"), rf("x2/3")), ((0,),))
    cases = [(c, e, nab, euler), (plane_c, plane_e, Connection.zero(C21), plane_euler)]
    for args in cases:
        want = check_duality_conditions(*args)
        called.clear()
        batteries.clear()
        with monkeypatch.context() as m:
            for name in KERNEL_ROUTE:
                m.setattr(duality, name, guarded(name, getattr(duality, name)))
            m.setattr(duality, "check_battery", dual_flagged)
            assert check_duality_conditions(*args).records == want.records
        assert called == set(KERNEL_ROUTE) - {"_map_euler_base"}
        assert len(batteries) == 1
    assert want.record("dual-battery").passed


# the maps and helpers of the four kernel records and the flat check's Euler records
KERNEL_ROUTE = (
    "_kernel_image",
    "_map_dual_associative",
    "_map_dual_unit",
    "_map_dual_integrable",
    "_map_dual_euler",
    "_map_nabla2",
    "_map_unit_parallel",
    "_map_euler_base",
    "_star_derivative_terms",
    "_star_groups",
    "_merged",
    "_grouped",
    "_partials",
    "torsion",
)


def tangent_base_4():
    """The n = 4 base whose tangent prolongation is the slowest op of the
    ``prolong-battery`` benchmark: ``d2 * d2 = d4 / (x2 + 1)``."""
    chart = Chart.standard(4, 0)
    star = {(0, 0, 0): 1, (3, 1, 1): parse_expr("1/(x2 + 1)", chart.names)}
    for i in range(1, 4):
        star[(i, 0, i)] = star[(i, i, 0)] = 1
    return BaseFManifold(chart, star, (1, 0, 0, 0))


def test_no_frame_memo_outlives_its_call(monkeypatch):
    import fmanlin.fman as fman
    import fmanlin.prolong as prolong

    contexts = []

    class TrackedCtx(fman._Ctx):
        __slots__ = ("__weakref__",)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(weakref.ref(self))

    # a context holds the inputs of one battery and no frame memo, and the
    # five-field check builds none
    assert not {"star", "lie"} & set(fman._Ctx.__slots__)
    assert not hasattr(prolong, "_Ctx")
    for module in (fman, duality):
        monkeypatch.setattr(module, "_Ctx", TrackedCtx)
    c, e = plane_example()
    euler = LinearVectorField(C21, (rf("x1"), rf("x2/3")), ((0,),))
    nab = Connection(C21, {(0, 1, 1): rf("x1")})
    # released by reference counting alone: no cycle keeps a context alive
    gc.disable()
    try:
        check_duality_conditions(c, e, nab, euler=euler)
        regular_flat_check(base_plane(), (rf("x1+5", B2), rf("x2^2+1", B2)))
        prol = tangent_prolongation(tangent_base_4())
        assert check_battery(prol.components, prol.unit).passed
        assert check_five_field_identity(base_plane()).passed
        assert len(contexts) > 2
        assert all(ref() is None for ref in contexts)
    finally:
        gc.enable()


def test_regular_flat_check_verifies_the_base_once(battery_runs):
    base = base_plane()
    nab, rep = regular_flat_check(base, (rf("x1+5", B2), rf("x2^2+1", B2)))
    assert rep.passed
    assert battery_runs == [base.components]
    # the public check still verifies its base: a new one runs its battery
    battery_runs.clear()
    fresh = base_plane()
    assert check_flat_f(fresh, nab).passed
    assert battery_runs == [fresh.components]


def test_frame_lie_derivatives_are_computed_once_per_check(monkeypatch):
    """A frame Lie derivative ``L_{d_r}(*)(d_k, d_p)`` is the partial
    ``d_r b^a_kp`` of a star entry, as frames have constant components and
    commute, so the package needs no general vector-field bracket.  Each
    value keeps its partials: over the five-field check and the base battery
    it runs first, each partial of a star entry and of such a partial is
    computed at most once."""
    kept, computed = [], Counter()
    real_derivative = RatFunc._derivative

    def derivative(f, name):
        kept.append(f)  # alive, so that its id stays its own
        computed[id(f), name] += 1
        return real_derivative(f, name)

    monkeypatch.setattr(RatFunc, "_derivative", derivative)
    assert check_five_field_identity(tangent_base_4()).passed
    assert computed and max(computed.values()) == 1


def test_frame_memo_reads_brackets_with_a_frame_as_partials(monkeypatch):
    """The package has no general vector-field bracket, and the duality and
    flat-structure checks, the battery and the five-field check need none:
    ``[d_z, u]`` is the partial ``d_z u`` of a table entry, and the frame
    Lie derivatives are such partials.  No check builds a coordinate frame:
    the battery, the duality and flat-structure checks and the five-field
    check read table entries."""
    import fmanlin.fman as fman

    made, partials = [], []
    real_frame, real_derivative = fman._frame, RatFunc._derivative

    def made_frame(j):
        made.append(real_frame(j))
        return made[-1]

    def derivative(f, name):
        partials.append(name)
        return real_derivative(f, name)

    monkeypatch.setattr(fman, "_frame", made_frame)
    monkeypatch.setattr(RatFunc, "_derivative", derivative)
    c, e = plane_example()
    euler = LinearVectorField(C21, (rf("x1"), rf("x2/3")), ((0,),))
    for nab in (Connection.zero(C21), Connection(C21, {(0, 1, 1): rf("x1")})):
        check_duality_conditions(c, e, nab, euler=euler)
    regular_flat_check(base_plane(), (rf("x1+5", B2), rf("x2^2+1", B2)))
    prol = tangent_prolongation(tangent_base_4())
    assert check_battery(prol.components, prol.unit).passed
    assert check_five_field_identity(base_plane()).passed
    assert check_five_field_identity(tangent_base_4()).passed
    assert made == [] and partials
    for module in (fman, duality):
        assert not hasattr(module, "_vf_bracket") and not hasattr(module, "_frame_partial")
    assert not hasattr(fman._Ctx, "lie_at")


def test_regular_connection_multiplies_each_power_by_a_frame_once(monkeypatch):
    """Only the n - 1 powers of the Euler field go through `star_product`;
    each power below the top times every ``d_k`` is one join of its entries
    with the star entries, grouped once by first index, and no frame memo
    is read."""
    calls, groupings = [], []
    real, real_grouped = duality.star_product, duality._grouped

    def counting(c, u, v):
        calls.append((u, v))
        return real(c, u, v)

    def grouping(pairs):
        groupings.append(pairs)
        return real_grouped(pairs)

    monkeypatch.setattr(duality, "star_product", counting)
    monkeypatch.setattr(duality, "_grouped", grouping)
    assert not hasattr(duality, "_on_frames")
    B3 = Chart.standard(3, 0)
    semisimple = BaseFManifold(B3, {(i, i, i): 1 for i in range(3)}, (1, 1, 1))
    for base, euler in (
        (base_plane(), (rf("x1+5", B2), rf("x2^2+1", B2))),
        (semisimple, tuple(rf(f"x{i + 1} + {i + 1}", B3) for i in range(3))),
    ):
        calls.clear()
        groupings.clear()
        nab = regular_connection(base, euler)
        assert len(calls) == base.chart.n - 1 and len(groupings) == 1
        assert check_flat_f(base, nab, euler=euler).passed


def test_regular_connection_solves_once(monkeypatch):
    """One elimination of the transposed frame matrix, with at most n^2
    right-hand sides (none on the line), and no inverse."""
    import fmanlin.symcore as symcore

    solves = []
    real_solve = duality._solve

    def solve(matrix, cols):
        solves.append(len(cols))
        return real_solve(matrix, cols)

    monkeypatch.setattr(duality, "_solve", solve)
    assert not hasattr(symcore, "_inverse")
    for base, euler in (
        (base_line(), (rf("x1+7", B1),)),
        (base_plane(), (rf("x1+5", B2), rf("x2^2+1", B2))),
        regular_family("semisimple", 3),
        regular_family("bent", 3),
    ):
        regular_connection(base, euler)
    # the line has no nonzero column; on both n = 3 families the columns are
    # (k, a) = (i, i), one per coordinate
    assert solves == [0, 1, 3, 3]


# constant products with a unit, by dimension: (star, unit)
CONSTANT_ALGEBRAS = {
    1: [({(0, 0, 0): 1}, (1,))],
    2: [(PLANE_STAR, (1, 0)), ({(0, 0, 0): 1, (1, 1, 1): 1}, (1, 1))],
    3: [
        ({(i, i, i): 1 for i in range(3)}, (1, 1, 1)),
        ({**CUBIC_STAR, (2, 1, 1): 1}, (1, 0, 0)),
        ({**PLANE_STAR, (2, 2, 2): 1}, (1, 0, 1)),
    ],
}


def seeded_regular_base(rng, n):
    """A constant product with a unit, written in coordinates ``x`` with
    ``du_a/dx_a = s_a(x_a)`` for random linear ``s_a``: the star entries
    ``s_i s_j / s_a b^a_ij`` and unit entries ``e^a / s_a`` are rational."""
    chart = Chart.standard(n, 0)
    star, unit = rng.choice(CONSTANT_ALGEBRAS[n])
    s = [RatFunc(rand_poly(rng, (x,), max_deg=1, max_terms=2, nonzero=True)) for x in chart.names]
    table = {(a, i, j): s[i] * s[j] / s[a] * b for (a, i, j), b in star.items()}
    return BaseFManifold(chart, table, tuple(e / s[a] for a, e in enumerate(unit))), s


def test_regular_connection_matches_the_inverse_reference():
    compared = rational = singular = 0
    for trial in range(30):
        n = trial % 3 + 1
        rng = rng_for(f"duality-regular-{trial}")
        base, s = seeded_regular_base(rng, n)
        assert base.verify().passed
        names = base.chart.names
        euler = tuple(RatFunc(rand_poly(rng, names, max_deg=1)) / s[a] for a in range(n))
        try:
            want = ref_regular_connection(base, euler)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError, match="frame of the Euler candidate is singular"):
                regular_connection(base, euler)
            singular += 1
            continue
        assert regular_connection(base, euler) == want, trial
        compared += 1
        rational += any(not g.is_poly() for g in want.gamma.values())
    assert compared >= 20 and rational >= 10 and singular


def regular_family(family, n):
    """A base and Euler candidate of one of two families on ``n`` coordinates:
    the semisimple product with ``E^i = x_i^2 + (i+2) x_i + (i+3)``, and the
    semisimple product in the coordinates ``u_i = x_i^2 + x_i`` with its Euler
    field ``sum u_i d/du_i``."""
    chart = Chart.standard(n, 0)
    xs = range(1, n + 1)
    if family == "semisimple":
        base = BaseFManifold(chart, {(i, i, i): 1 for i in range(n)}, (1,) * n)
        return base, tuple(rf(f"x{i}^2 + {i + 2}*x{i} + {i + 3}", chart) for i in xs)
    star = {(i - 1, i - 1, i - 1): rf(f"2*x{i} + 1", chart) for i in xs}
    base = BaseFManifold(chart, star, tuple(rf(f"1/(2*x{i} + 1)", chart) for i in xs))
    return base, tuple(rf(f"(x{i}^2 + x{i})/(2*x{i} + 1)", chart) for i in xs)


@pytest.mark.parametrize("family", ["semisimple", "bent"])
def test_regular_connection_makes_the_power_frame_parallel(family):
    """``nabla_{d_k} P_i = i P_{i-1} * d_k`` for the powers ``P_i`` of the
    Euler candidate, within a second of CPU time at n = 3."""
    base, euler = regular_family(family, 3)
    base.verify()
    start = time.process_time()
    nab = regular_connection(base, euler)
    assert time.process_time() - start < 1.0
    c = base.components
    powers = [dict(enumerate(base.unit))]
    for _ in range(2):
        powers.append(star_product(c, powers[-1], dict(enumerate(euler))))
    for k in range(3):
        assert nabla_apply(nab, frame(k), powers[0]) == {}
        for i in (1, 2):
            want = {a: v * i for a, v in star_product(c, powers[i - 1], frame(k)).items()}
            assert nabla_apply(nab, frame(k), powers[i]) == want, (k, i)
    if family == "bent":
        assert nab.gamma == {(i, i, i): rf(f"2/(2*x{i + 1} + 1)", base.chart) for i in range(3)}


# -- the table maps of the flat-structure check ---------------------------------
#
# `unit-parallel` and `star-derivative-symmetric` are summed from the star,
# unit and Christoffel entries.  Their dense frame forms live here only: the
# covariant derivative of the unit along each frame, and the antisymmetrized
# covariant derivative of the product on every frame triple.


def dense_unit_parallel(nabla, unit, n):
    """``nabla_{d_i} ebar`` at ``(a, i)``, frame by frame."""
    return {(a, i): v for i in range(n) for a, v in nabla_apply(nabla, frame(i), unit).items()}


def dense_star_derivative_symmetric(nabla, c, n):
    """``nabla_{d_i}(*)(d_j, d_k) - nabla_{d_j}(*)(d_i, d_k)`` at ``(a, i, j, k)``, ``i < j``."""
    out = {}
    for i, j, k in product(range(n), repeat=3):
        if i < j:
            fi, fj, fk = frame(i), frame(j), frame(k)
            vec = _vsub(nabla_star(nabla, c, fi, fj, fk), nabla_star(nabla, c, fj, fi, fk))
            out.update({(a, i, j, k): v for a, v in vec.items()})
    return out


def ref_flat_records(base, nabla):
    """The two table records of `check_flat_f`, scanned frame tuple by frame tuple."""
    c, n = base.components, base.chart.n
    unit = {a: f for a, f in enumerate(base.unit) if not f.is_zero()}
    rep = Report("flat structure")
    pairs = (
        ((a, i), vec[a])
        for i in range(n)
        for vec in [nabla_apply(nabla, frame(i), unit)]
        for a in sorted(vec)
    )
    rep.scan("unit-parallel", "nabla ebar = 0", pairs)
    pairs = (
        ((a, i, j, k), vec[a])
        for i, j, k in product(range(n), repeat=3)
        if i < j
        for vec in [
            _vsub(
                nabla_star(nabla, c, frame(i), frame(j), frame(k)),
                nabla_star(nabla, c, frame(j), frame(i), frame(k)),
            )
        ]
        for a in sorted(vec)
    )
    rep.scan("star-derivative-symmetric", "nabla_X(*)(Y, Z) = nabla_Y(*)(X, Z)", pairs)
    return rep.records


def square_zero_3(entry="1"):
    """Unit ``d1``, ``d2 * d2 = entry d3`` and every other product of ``d2, d3`` zero."""
    star = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (2, 0, 2): 1, (2, 2, 0): 1}
    star[(2, 1, 1)] = parse_expr(entry, B3.names)
    return BaseFManifold(B3, star, (1, 0, 0))


def square_zero_4(entry):
    """Unit ``d1`` and ``d2 * d2 = entry d4`` on four coordinates."""
    chart = Chart.standard(4, 0)
    star = {(0, 0, 0): 1, (3, 1, 1): parse_expr(entry, chart.names)}
    for i in range(1, 4):
        star[(i, 0, i)] = star[(i, i, 0)] = 1
    return BaseFManifold(chart, star, (1, 0, 0, 0))


def flat_bases():
    """Verified bases on one to four coordinates, with constant and rational products."""
    yield BaseFManifold(B1, {(0, 0, 0): rf("x1/(x1 + 1)", B1)}, (rf("(x1 + 1)/x1", B1),))
    yield base_line()
    yield base_plane()
    yield BaseFManifold(B2, {**PLANE_STAR, (1, 1, 1): rf("1/(x2 + 1)", B2)}, (1, 0))
    yield square_zero_3()
    yield square_zero_3("1/(x3 + 2)")
    yield square_zero_4("1/(x3 + 1)")


def test_flat_maps_equal_their_dense_frame_forms():
    for n in (1, 2, 3):
        chart = Chart.standard(n, 0)
        names = chart.names
        for trial in range(3):
            rng = rng_for(f"duality-flat-maps-{n}-{trial}")
            star = {
                key: rand_ratfunc(rng, names, max_deg=1)
                for key in product(range(n), repeat=3)
                if rng.random() < 0.5
            }
            c = MultComponents(chart=chart, d={}, l={}, star=star)
            unit = {a: rand_ratfunc(rng, names, max_deg=2) for a in range(n)}
            unit = {a: f for a, f in unit.items() if not f.is_zero()}
            for kind in ("zero", "sparse-constant", "torsion-free", "rational"):
                nab = random_connection(rng, chart, kind)
                where = (n, trial, kind)
                got = duality._map_unit_parallel(nab, unit)
                assert got == dense_unit_parallel(nab, unit, n), where
                got = duality._map_star_derivative_symmetric(c, nab)
                assert got == dense_star_derivative_symmetric(nab, c, n), where


def test_flat_records_match_dense_reference_scans():
    outcomes = {}
    for number, base in enumerate(flat_bases()):
        assert base.verify().passed
        chart = base.chart
        for trial in range(2):
            rng = rng_for(f"duality-flat-records-{number}-{trial}")
            for kind in ("zero", "sparse-constant", "torsion-free", "rational"):
                nab = random_connection(rng, chart, kind)
                got = check_flat_f(base, nab).records[2:4]
                assert got == ref_flat_records(base, nab), (number, trial, kind)
                for rec in got:
                    outcomes.setdefault(rec.name, set()).add(rec.passed)
    assert outcomes == {
        "unit-parallel": {True, False},
        "star-derivative-symmetric": {True, False},
    }


def test_unit_parallel_fails_through_each_term():
    # d_i ebar^a: a unit that is not constant, at zero connection
    line = BaseFManifold(B1, {(0, 0, 0): rf("x1", B1)}, (rf("1/x1", B1),))
    rep = check_flat_f(line, Connection.zero(B1))
    assert witness_and_residual(rep, "unit-parallel") == ((0, 0), "(-1)/(x1^2)")
    # G^a_ij ebar^j: a constant unit
    nab = Connection(B3, {(2, 1, 0): rf("1/(x3 + 1)", B3)})
    rep = check_flat_f(square_zero_3(), nab)
    assert witness_and_residual(rep, "unit-parallel") == ((2, 1), "(1)/(x3 + 1)")


def test_star_derivative_symmetric_fails_through_each_term():
    # each first failure below comes from one term of
    # F(a, x, y, z) = d_x b^a_yz + G^a_xc b^c_yz - G^c_xy b^a_cz - G^c_xz b^a_yc
    base = square_zero_4("1/(x3 + 1)")
    rep = check_flat_f(base, Connection.zero(base.chart))  # d_x b^a_yz
    assert witness_and_residual(rep, "star-derivative-symmetric") == (
        (3, 1, 2, 1),
        "(1)/(x3^2 + 2*x3 + 1)",
    )
    base = square_zero_3()
    cases = [
        ((0, 0, 2), (0, 0, 1, 1), "x1"),  # G^a_xc b^c_yz
        ((0, 1, 2), (1, 1, 2, 1), "-x1"),  # G^c_xy b^a_cz
        ((0, 1, 1), (2, 1, 2, 1), "-x1"),  # G^c_xz b^a_yc
    ]
    for key, witness, residual in cases:
        rep = check_flat_f(base, Connection(B3, {key: rf("x1", B3)}))
        assert witness_and_residual(rep, "star-derivative-symmetric") == (witness, residual)


def test_check_flat_f_reads_tables_without_an_euler_candidate(monkeypatch):
    # with or without an Euler candidate, no frame memo is built and no
    # covariant derivative of a frame is taken
    cases = []
    for number, base in enumerate(flat_bases()):
        rng = rng_for(f"duality-flat-tables-{number}")
        names = base.chart.names
        for kind in ("zero", "rational"):
            nab = random_connection(rng, base.chart, kind)
            euler = tuple(rand_ratfunc(rng, names, max_deg=2) for _ in names)
            for candidate in (None, euler):
                cases.append((base, nab, candidate, check_flat_f(base, nab, candidate).records))
    # and a regular connection, which passes every record
    euler = (rf("x1+5", B2), rf("x2^2+1", B2))
    nab, rep = regular_flat_check(base_plane(), euler)
    assert rep.passed and nab.gamma
    cases.append((base_plane(), nab, euler, rep.records))
    monkeypatch.setattr(duality, "nabla_apply", forbidden)
    monkeypatch.setattr(duality, "symmetric_bracket", forbidden)
    assert not hasattr(duality, "_on_frames")
    for base, nab, candidate, want in cases:
        assert check_flat_f(base, nab, candidate).records == want
