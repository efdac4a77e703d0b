"""Prolonged structures, block sums, conjugation, and the five-field identity."""

from collections import Counter
from itertools import product

import pytest

from conftest import rand_ratfunc, rng_for
from fmanlin.duality import Connection, check_flat_f, dualize
from fmanlin.fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    PreconditionError,
    check_battery,
    check_euler,
    star_product,
    _frame,
)
from fmanlin import prolong
from fmanlin.prolong import (
    ProlongedStructure,
    check_five_field_identity,
    cotangent_prolongation,
    direct_sum,
    direct_sum_unit,
    generalized_prolongation,
    tangent_prolongation,
)
from fmanlin.symcore import RatFunc, SingularMatrixError, parse_expr
from fmanlin.tensor import Chart
from references import conjugate, conjugate_unit, five_field_residual

B1 = Chart.standard(1, 0)
B2 = Chart.standard(2, 0)
B3 = Chart.standard(3, 0)

PLANE_STAR = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}

NO_UNIT_RECORDS = [
    "side-tables-equal",
    "star-symmetric",
    "derivative-symmetric",
    "star-associative",
    "l-composition",
    "second-derivative-symmetric",
    "base-integrability",
    "derivative-commutator",
    "derivative-bracket",
    "integrability-oracle",
]


def rf(text, chart=B2):
    return parse_expr(text, chart.names)


def base_line():
    return BaseFManifold(B1, {(0, 0, 0): 1}, (1,))


def base_plane():
    return BaseFManifold(B2, PLANE_STAR, (1, 0))


def base_cubic():
    # the rank-one structure over the plane, read as a three-dimensional
    # product in its own right; the (1,1) entry depends on two coordinates,
    # so the tangent derivative table is genuinely nonzero
    star = {
        (0, 0, 0): 1,
        (1, 0, 1): 1,
        (1, 1, 0): 1,
        (2, 0, 2): 1,
        (2, 2, 0): 1,
        (2, 1, 1): rf("x2*x3", B3),
    }
    return BaseFManifold(B3, star, (1, 0, 0))


def base_curved_line():
    # one-dimensional product with a non-constant unit: e = x1 d/dx1
    return BaseFManifold(B1, {(0, 0, 0): rf("1/x1", B1)}, (rf("x1", B1),))


# -- tangent prolongation --------------------------------------------------------


def test_tangent_line_tables():
    tan = tangent_prolongation(base_line())
    assert tan.kind == "tangent"
    assert tan.components.chart == Chart(("x1",), ("xi1",))
    assert tan.components.d == {}
    assert tan.components.l == {(0, 0, 0): rf("1", B1)}
    assert tan.unit.beta == (rf("1", B1),)
    assert tan.unit.lam == ((rf("0", B1),),)
    rep = tan.verify()
    assert rep.passed
    assert rep.title == "tangent prolongation battery"


def test_tangent_constant_star_kills_derivative_table():
    tan = tangent_prolongation(base_plane())
    assert tan.components.d == {}
    assert tan.components.l == tan.components.star
    assert tan.verify().passed


def test_tangent_nonconstant_star():
    tan = tangent_prolongation(base_cubic())
    assert tan.components.d == {
        (2, 1, 1, 1): rf("x3", B3),
        (2, 2, 1, 1): rf("x2", B3),
    }
    assert tan.components.l == tan.components.star
    assert tan.verify().passed


def test_tangent_nonconstant_unit():
    tan = tangent_prolongation(base_curved_line())
    assert tan.components.d == {(0, 0, 0, 0): rf("-1/x1^2", B1)}
    assert tan.unit.lam == ((rf("1", B1),),)
    assert tan.verify().passed


def test_tangent_requires_verified_base():
    broken = BaseFManifold(B2, {(0, 0, 1): 1}, (1, 0))
    with pytest.raises(PreconditionError):
        tangent_prolongation(broken)


def test_tangent_euler_transport():
    base = base_plane()
    euler = LinearVectorField(B2, (rf("x1+5"), rf("x2")), ())
    assert check_euler(base.components, base.unit_field(), euler).passed
    tan = tangent_prolongation(base)
    lifted = LinearVectorField(
        tan.components.chart, euler.beta, ((1, 0), (0, 1))
    )
    rep = check_euler(tan.components, tan.unit, lifted)
    assert rep.passed


def test_tangent_random_line_family():
    # every verified base must prolong to a passing battery; the line family
    # with unit 1/f gives a quick randomized sweep of non-constant products
    rng = rng_for("prolong-line-family")
    for _ in range(5):
        f = rand_ratfunc(rng, B1.names)
        if f.is_zero():
            f = rf("x1+2", B1)
        base = BaseFManifold(B1, {(0, 0, 0): f}, (1 / f,))
        assert base.verify().passed
        tan = tangent_prolongation(base)
        assert tan.verify().passed
        assert check_five_field_identity(base).passed


def test_prolonged_structure_validation():
    tan = tangent_prolongation(base_plane())
    with pytest.raises(ValueError):
        ProlongedStructure("sideways", tan.components, tan.unit, base_plane())
    with pytest.raises(ValueError):
        ProlongedStructure("generalized", tan.components, tan.unit, base_plane())
    other = BaseFManifold(B2, {(0, 0, 0): 1, (1, 1, 1): 1}, (1, 1))
    with pytest.raises(ValueError):
        ProlongedStructure("tangent", tan.components, tan.unit, other)


# -- cotangent prolongation ------------------------------------------------------


def test_cotangent_plane_tables():
    cot = cotangent_prolongation(base_plane(), Connection.zero(B2))
    assert cot.kind == "cotangent"
    assert cot.components.chart.fiber_names == ("mu1", "mu2")
    # the side table of the dual pairs through the product: entry (i, j, k)
    # is the source star entry (j, i, k)
    assert cot.components.l == {
        (0, 0, 0): rf("1"),
        (0, 1, 1): rf("1"),
        (1, 1, 0): rf("1"),
    }
    assert cot.components.d == {}
    assert cot.verify().passed


def test_cotangent_gamma_enters_derivative_table():
    gamma = Connection(B2, {(1, 1, 1): rf("(1 - 2*x2)/(x2^2 + 1)")})
    assert check_flat_f(base_plane(), gamma).passed
    cot = cotangent_prolongation(base_plane(), gamma)
    assert cot.components.d == {(0, 1, 1, 1): rf("(4*x2 - 2)/(x2^2 + 1)")}
    assert cot.verify().passed


def test_cotangent_nonconstant_unit():
    base = base_curved_line()
    nabla = Connection(B1, {(0, 0, 0): rf("-1/x1", B1)})
    assert check_flat_f(base, nabla).passed
    cot = cotangent_prolongation(base, nabla)
    assert cot.components.d == {(0, 0, 0, 0): rf("1/x1^2", B1)}
    assert cot.components.l == {(0, 0, 0): rf("1/x1", B1)}
    assert cot.unit.lam == ((rf("-1", B1),),)
    assert cot.verify().passed


def test_cotangent_double_dual_returns_tangent():
    for base, nabla in (
        (base_plane(), Connection.zero(B2)),
        (base_curved_line(), Connection(B1, {(0, 0, 0): rf("-1/x1", B1)})),
    ):
        tan = tangent_prolongation(base)
        cot = cotangent_prolongation(base, nabla)
        back_c, back_e = dualize(cot.components, cot.unit, nabla)
        assert back_c == tan.components
        assert back_e == tan.unit


def test_cotangent_requires_flat_package():
    bad = Connection(B2, {(0, 0, 0): rf("x1")})
    with pytest.raises(PreconditionError):
        cotangent_prolongation(base_plane(), bad)


# -- generalized prolongation ----------------------------------------------------


def test_generalized_plane_blocks():
    gen = generalized_prolongation(base_plane(), Connection.zero(B2))
    assert gen.kind == "generalized"
    assert gen.components.chart == Chart.generalized(2)
    tan = tangent_prolongation(base_plane())
    cot = cotangent_prolongation(base_plane(), Connection.zero(B2))
    # the side table splits into the vector block and the shifted covector block
    expected_l = dict(tan.components.l)
    for (i, j, k), val in cot.components.l.items():
        expected_l[(i + 2, j + 2, k)] = val
    assert gen.components.l == expected_l
    assert gen.components.star == tan.components.star
    # block projection recovers the tangent prolongation
    proj_l = {key: val for key, val in gen.components.l.items() if key[0] < 2}
    proj_d = {key: val for key, val in gen.components.d.items() if key[0] < 2}
    assert proj_l == tan.components.l
    assert proj_d == tan.components.d
    # the unit matrix is block diagonal with the two transported blocks
    for i, j in product(range(2), range(2)):
        assert gen.unit.lam[i][j + 2].is_zero()
        assert gen.unit.lam[i + 2][j].is_zero()
        assert gen.unit.lam[i][j] == tan.unit.lam[i][j]
        assert gen.unit.lam[i + 2][j + 2] == cot.unit.lam[i][j]
    assert gen.verify().passed


def test_generalized_line_battery():
    gen = generalized_prolongation(base_line(), Connection.zero(B1))
    assert gen.components.chart == Chart.generalized(1)
    assert gen.verify().passed


def test_generalized_with_gamma_battery():
    gamma = Connection(B2, {(1, 1, 1): rf("(1 - 2*x2)/(x2^2 + 1)")})
    gen = generalized_prolongation(base_plane(), gamma)
    assert gen.verify().passed


# -- direct sums -----------------------------------------------------------------


def test_direct_sum_rejects_mismatches():
    tan = tangent_prolongation(base_plane())
    eta_chart = Chart(("x1", "x2"), ("eta1", "eta2"))
    with pytest.raises(ValueError, match="star tables"):
        direct_sum(
            tan.components,
            MultComponents(chart=eta_chart, d={}, l={}, star={(0, 0, 0): 1}),
        )
    other_base = MultComponents(
        chart=Chart(("x1",), ("eta1",)), d={}, l={}, star={(0, 0, 0): 1}
    )
    with pytest.raises(ValueError, match="same base chart"):
        direct_sum(tan.components, other_base)
    with pytest.raises(ValueError, match="base parts"):
        direct_sum_unit(
            tan.unit,
            LinearVectorField(eta_chart, (1, 1), ((0, 0), (0, 0))),
        )


def test_direct_sum_zero_block_loses_only_the_unit():
    # a zero side table cannot act as the identity on the added block, so
    # the unit laws must break there while every product law survives
    tan = tangent_prolongation(base_plane())
    eta_chart = Chart(("x1", "x2"), ("eta1", "eta2"))
    zero = MultComponents(chart=eta_chart, d={}, l={}, star=PLANE_STAR)
    summed = direct_sum(tan.components, zero)
    rep = check_battery(summed)
    assert [r.name for r in rep.records] == NO_UNIT_RECORDS
    assert rep.passed
    unit = direct_sum_unit(
        tan.unit, LinearVectorField(eta_chart, (1, 0), ((0, 0), (0, 0)))
    )
    rep2 = check_battery(summed, unit)
    bad = [r for r in rep2.records if not r.passed]
    assert [r.name for r in bad] == ["unit-side"]
    assert bad[0].witness == (2, 2)
    assert bad[0].residual == "-1"


def test_direct_sum_two_tangent_blocks():
    tan = tangent_prolongation(base_plane())
    eta_chart = Chart(("x1", "x2"), ("eta1", "eta2"))
    copy = MultComponents(
        chart=eta_chart, d=tan.components.d, l=tan.components.l, star=PLANE_STAR
    )
    copy_unit = LinearVectorField(eta_chart, tan.unit.beta, tan.unit.lam)
    summed = direct_sum(tan.components, copy)
    unit = direct_sum_unit(tan.unit, copy_unit)
    assert check_battery(summed, unit).passed


# -- conjugation -----------------------------------------------------------------


def test_conjugate_identity_is_identity():
    tan = tangent_prolongation(base_plane())
    ident = ((1, 0), (0, 1))
    assert conjugate(tan.components, ident) == tan.components
    assert conjugate_unit(tan.unit, ident) == tan.unit


def test_conjugate_rejects_bad_matrices():
    tan = tangent_prolongation(base_plane())
    with pytest.raises(SingularMatrixError, match="^the fiber isomorphism is singular$"):
        conjugate(tan.components, ((rf("x1"), 0), (rf("x1"), 0)))
    with pytest.raises(ValueError):
        conjugate(tan.components, ((1, 0),))
    with pytest.raises(ValueError):
        conjugate_unit(tan.unit, ((rf("1"), parse_expr("xi1", tan.components.chart.names)), (0, 1)))


def test_conjugate_constant_preserves_every_verdict():
    tan = tangent_prolongation(base_plane())
    iso = ((1, 2), (1, 3))
    rep0 = check_battery(tan.components, tan.unit)
    rep1 = check_battery(conjugate(tan.components, iso), conjugate_unit(tan.unit, iso))
    assert [r.passed for r in rep1.records] == [r.passed for r in rep0.records]
    assert rep1.passed
    # same record-by-record agreement on a deliberately broken candidate
    broken = MultComponents(
        chart=tan.components.chart, d={}, l={(0, 0, 0): rf("x1")}, star=PLANE_STAR
    )
    rb0 = check_battery(broken)
    rb1 = check_battery(conjugate(broken, iso))
    assert [r.passed for r in rb1.records] == [r.passed for r in rb0.records]
    assert not rb1.passed


def test_conjugate_nonconstant_tables():
    tan = tangent_prolongation(base_plane())
    iso = ((1, rf("x1")), (0, 1))
    cc = conjugate(tan.components, iso)
    ce = conjugate_unit(tan.unit, iso)
    # second frame column of the inverse is (-x1, 1); pushing the side
    # operator along dx2 through the matrix gives -x1 * (x1, 1)
    assert cc.l == {
        (0, 0, 0): rf("1"),
        (0, 0, 1): rf("x1"),
        (1, 0, 1): rf("1"),
        (1, 1, 0): rf("1"),
        (0, 1, 1): rf("-x1^2"),
        (1, 1, 1): rf("-x1"),
    }
    assert cc.d == {
        (0, 1, 0, 0): rf("-1"),
        (0, 1, 0, 1): rf("-x1"),
        (1, 1, 0, 1): rf("-1"),
        (0, 1, 1, 0): rf("-x1"),
        (1, 1, 1, 0): rf("-1"),
    }
    assert ce.lam == ((rf("0"), rf("1")), (rf("0"), rf("0")))
    assert check_battery(cc, ce).passed


def test_conjugate_random_frames_keep_battery():
    rng = rng_for("prolong-conjugate")
    tan = tangent_prolongation(base_plane())
    for trial in range(5):
        p = rand_ratfunc(rng, B2.names, with_den=False)
        q = rand_ratfunc(rng, B2.names, with_den=False)
        # triangular with unit diagonal: always invertible
        iso = ((1, p), (0, 1)) if trial % 2 else ((1, 0), (q, 1))
        cc = conjugate(tan.components, iso)
        ce = conjugate_unit(tan.unit, iso)
        assert check_battery(cc, ce).passed


def test_conjugate_block_functoriality():
    tan = tangent_prolongation(base_plane())
    cot = cotangent_prolongation(base_plane(), Connection.zero(B2))
    summed = direct_sum(tan.components, cot.components)
    i1 = ((1, rf("x1")), (0, 1))
    i2 = ((2, 1), (1, 1))
    block = (
        (1, rf("x1"), 0, 0),
        (0, 1, 0, 0),
        (0, 0, 2, 1),
        (0, 0, 1, 1),
    )
    lhs = conjugate(summed, block)
    rhs = direct_sum(conjugate(tan.components, i1), conjugate(cot.components, i2))
    assert lhs == rhs


# -- the five-field identity -----------------------------------------------------


def test_five_field_identity_on_fixtures():
    for base in (base_line(), base_plane(), base_cubic(), base_curved_line()):
        rep = check_five_field_identity(base)
        assert rep.passed
        assert [r.name for r in rep.records] == ["five-field-identity"]


def random_star(rng, chart, with_den):
    """A random base product table: neither commutative nor associative in
    general, with rational-function entries when ``with_den`` is set."""
    n, names = chart.n, chart.names
    star = {}
    for key in product(range(n), repeat=3):
        if rng.random() < 0.5:
            star[key] = rand_ratfunc(rng, names, with_den=with_den)
    return star


def test_frame_five_field_form_matches_the_general_reference():
    """The residual map the check scans equals the general five-field
    combination, taken through the general bracket and `lie_star`, at every
    frame tuple and output index, a key absent from the map counting as zero:
    it uses only vector-field calculus, so it holds for any table,
    integrable, associative or not."""
    zero = RatFunc.zero()
    nonzero, rational, non_associative = 0, 0, 0
    for n in (1, 2, 3):
        chart = Chart.standard(n, 0)
        rng = rng_for(f"prolong-five-field-frames-{n}")
        frames = [_frame(j) for j in range(n)]
        for with_den in (False, True):
            c = MultComponents(chart=chart, d={}, l={}, star=random_star(rng, chart, with_den))
            rational += any(not f.den.is_const() for f in c.star.values())
            non_associative += any(
                star_product(c, star_product(c, frames[a], frames[b]), frames[p])
                != star_product(c, frames[a], star_product(c, frames[b], frames[p]))
                for a, b, p in product(range(n), repeat=3)
            )
            got = prolong._map_five_field(c)
            for idx in product(range(n), repeat=5):
                want = five_field_residual(c, *(frames[t] for t in idx))
                for m in range(n):
                    assert got.get((m, *idx), zero) == want.get(m, zero), (n, m, idx)
                nonzero += bool(want)
            assert not [v for v in got.values() if v.is_zero()]
    assert nonzero and rational and non_associative


def test_five_field_requires_verified_base():
    broken = BaseFManifold(B2, {(0, 0, 1): 1}, (1, 0))
    with pytest.raises(PreconditionError):
        check_five_field_identity(broken)


def test_five_field_fails_without_integrability(monkeypatch):
    # commutative and associative but not integrable: d1*d1 = d1,
    # d2*d2 = x1 d2, mixed products zero.  For the frame tuple
    # (X, Y, Z, V, W) = (d1, d2, d2, d2, d1) only one term survives:
    # L_W(*)(L_X(*)(Z, V), Y) = L_{d1}(*)(d2, d2) = d2, since
    # L_{d1}(*)(d2, d2) = [d1, x1 d2] = d2 and X*Y = 0 kills the rest.
    c = MultComponents(
        chart=B2, d={}, l={}, star={(0, 0, 0): 1, (1, 1, 1): rf("x1")}
    )
    rep = check_battery(c)
    bad = {r.name for r in rep.records if not r.passed}
    assert bad == {"base-integrability", "integrability-oracle"}
    frames = [_frame(j) for j in range(2)]
    hits = {}
    for idx in product(range(2), repeat=5):
        res = five_field_residual(c, *(frames[t] for t in idx))
        nz = {a: val for a, val in res.items() if not val.is_zero()}
        if nz:
            hits[idx] = nz
    one = rf("1")
    assert hits == {
        (0, 1, 1, 1, 0): {1: one},
        (1, 0, 1, 1, 0): {1: one},
        (1, 1, 0, 1, 0): {1: -one},
        (1, 1, 1, 0, 0): {1: -one},
    }
    # the check itself refuses such a base, so skip its precondition to see
    # the record: the witness leads with the output index
    monkeypatch.setattr(prolong, "_require", lambda what, rep: None)
    rec = check_five_field_identity(BaseFManifold(B2, c.star, (1, 0))).records[0]
    assert (rec.passed, rec.witness, rec.residual) == (False, (1, 0, 1, 1, 1, 0), "1")


def test_prolongations_verify_the_base_once(battery_runs):
    nabla = Connection.zero(B2)
    for build in (
        tangent_prolongation,
        lambda b: cotangent_prolongation(b, nabla),
        lambda b: generalized_prolongation(b, nabla),
    ):
        base = BaseFManifold(B2, PLANE_STAR, (1, 0))
        battery_runs.clear()
        assert build(base).verify().passed
        assert [c for c in battery_runs if c.chart.k == 0] == [base.components]


def test_tangent_battery_differentiates_each_value_once(monkeypatch):
    """The n = 4 tangent prolongation and its battery, the slowest op of the
    ``prolong-battery`` benchmark: each value is differentiated along each
    variable at most once, and the package has no general vector-field
    bracket to take."""
    from fmanlin import fman

    chart = Chart.standard(4, 0)
    star = {(0, 0, 0): 1, (3, 1, 1): parse_expr("1/(x2 + 1)", chart.names)}
    for i in range(1, 4):
        star[(i, 0, i)] = star[(i, i, 0)] = 1
    base = BaseFManifold(chart, star, (1, 0, 0, 0))
    computed = []
    real_derivative = RatFunc._derivative

    def counting(f, name):
        computed.append((f, name))  # holding f keeps its id unique
        return real_derivative(f, name)

    monkeypatch.setattr(RatFunc, "_derivative", counting)
    prol = tangent_prolongation(base)
    assert check_battery(prol.components, prol.unit).passed
    seen = Counter((id(f), name) for f, name in computed)
    assert computed and max(seen.values()) == 1
    # the base battery and the prolongation's battery hold the same entry p
    p = base.star[(3, 1, 1)]
    assert [name for f, name in computed if f is p] == ["x2"]
    # the package has no general vector-field bracket to take
    assert not hasattr(fman, "_vf_bracket")


# -- checked tables pass through, and the star table keeps base-only records --------


def test_a_star_table_handed_to_every_prolongation_is_walked_once(monkeypatch):
    walked = []
    real = Chart.require_base_only

    def counting(chart, value, *what):
        if what[0] == "star table entry":
            walked.append(what[1])
        return real(chart, value, *what)

    monkeypatch.setattr(Chart, "require_base_only", counting)
    nabla = Connection.zero(B2)
    base = base_plane()
    assert sorted(walked) == sorted(base.star)
    for build in (
        tangent_prolongation,
        lambda b: cotangent_prolongation(b, nabla),
        lambda b: generalized_prolongation(b, nabla),
    ):
        assert build(base).components.star is base.star
    assert sorted(walked) == sorted(base.star)


def test_a_passed_table_is_walked_again_where_its_variables_are_fiber_names():
    # on the base chart xi1 is just a name; on the tangent fiber it is a
    # fiber coordinate, and the side table (the star table) is refused
    xi = RatFunc.variable("xi1")
    base = BaseFManifold(B1, {(0, 0, 0): xi}, (RatFunc.one() / xi,))
    assert base.verify().passed
    with pytest.raises(
        ValueError,
        match=r"^side table entry \(0, 0, 0\) must not involve fiber coordinates: xi1$",
    ):
        tangent_prolongation(base)


def test_a_passed_table_is_walked_again_for_another_shape():
    star = base_plane().star
    with pytest.raises(ValueError, match=r"^bad side-table key \(1, 0, 1\)$"):
        MultComponents(Chart.standard(2, 1), d={}, l=star, star=star)
    # the same shape passes through: a rank-n side table may be the star table
    c = MultComponents(Chart.standard(2, 2), d={}, l=star, star=star)
    assert c.l is c.star is star


BASE_ONLY = {
    "star-symmetric", "star-associative", "unit-star", "base-integrability", "euler-base"
}


def rebuilt(c: MultComponents) -> MultComponents:
    """A copy of ``c`` from plain dicts, so it shares no checked table."""
    return MultComponents(c.chart, dict(c.d), dict(c.l), dict(c.star))


def same_bytes(got, want):
    return got.render() == want.render() and got.to_json() == want.to_json()


def euler_on(c: MultComponents) -> LinearVectorField:
    """The scaling field ``sum_i x_i d_i`` on the chart of ``c``, with no fiber part."""
    beta = tuple(RatFunc.variable(name) for name in c.chart.base_names)
    return LinearVectorField(c.chart, beta, ((0,) * c.rank,) * c.rank)


def test_base_only_records_run_once_per_star_table(monkeypatch):
    from fmanlin import fman

    runs = Counter()
    for name, ident in list(fman._IDENTITIES.items()):

        def counted(ctx, fn=ident.fn, name=name):
            runs[name] += 1
            return fn(ctx)

        monkeypatch.setitem(
            fman._IDENTITIES, name, fman._Identity(ident.law, ident.space, counted)
        )
    nabla = Connection.zero(B2)
    for base, build in (
        (base_cubic(), tangent_prolongation),
        (base_plane(), tangent_prolongation),
        (base_plane(), lambda b: cotangent_prolongation(b, nabla)),
        (base_plane(), lambda b: generalized_prolongation(b, nabla)),
    ):
        runs.clear()
        prol = build(base)
        checks = [(base.components, base.unit_field()), (prol.components, prol.unit)]
        got = [base.verify(), prol.verify()]
        got += [check_euler(c, e, euler_on(c)) for c, e in checks]
        # every other record runs in both batteries or both Euler checks
        assert {name for name, count in runs.items() if count == 1} == BASE_ONLY
        want = [check_battery(rebuilt(c), e) for c, e in checks]
        want += [check_euler(rebuilt(c), e, euler_on(c)) for c, e in checks]
        for g, w in zip(got, want):
            w.title = g.title
            assert same_bytes(g, w), g.title


def test_a_kept_record_is_recomputed_for_other_unit_and_euler_base_parts():
    base = base_plane()
    c, unit = base.components, base.unit_field()
    assert check_battery(c, unit).passed
    other = LinearVectorField(B2, (1, 1), ())
    got, want = check_battery(c, other), check_battery(rebuilt(c), other)
    assert got.first_failure().name == "unit-star"
    assert same_bytes(got, want)
    assert check_euler(c, unit, euler_on(c)).passed
    other = LinearVectorField(B2, (rf("2*x1"), rf("x2")), ())
    got, want = check_euler(c, unit, other), check_euler(rebuilt(c), unit, other)
    assert got.first_failure().name == "euler-base"
    assert same_bytes(got, want)


# -- arithmetic on constant tables ------------------------------------------------


def square_zero_base(n: int) -> BaseFManifold:
    """``d0`` the unit and ``di * dj = 0`` for i, j >= 1."""
    star = {(0, 0, 0): 1}
    for i in range(1, n):
        star[(i, 0, i)] = star[(i, i, 0)] = 1
    return BaseFManifold(Chart.standard(n, 0), star, (1,) + (0,) * (n - 1))


def test_constant_tables_take_the_direct_arithmetic_paths(monkeypatch):
    """Every table of the generalized prolongation with the zero connection
    is an integer constant.  Building it and running its battery (n = 3)
    makes no sum of two constants at all: the residual maps merge equal
    values into integer multiples before any rational sum (`tensor._merged`),
    and here the terms at each key are multiples of one value.  No
    ``Poly._aligned`` gets two constant operands (behind polynomial sums and
    products), and `_normal` takes no content of the denominator ``_ONE``.
    That a constant sum, where one is made, takes `_sum`'s direct path is
    pinned by `test_constant_operands_skip_the_polynomial_routes`."""
    from fmanlin import symcore

    seen = Counter()
    real_sum, real_aligned = symcore._sum, symcore.Poly._aligned
    real_content = symcore._content

    def summed(f, h, op):
        seen["_sum on constants"] += f.is_const() and h.is_const()
        return real_sum(f, h, op)

    def aligned(p, q):
        seen["_aligned on constants"] += not (p.vars or q.vars)
        return real_aligned(p, q)

    def content(p):
        seen["_content of 1"] += p == symcore._ONE
        return real_content(p)

    monkeypatch.setattr(symcore, "_sum", summed)
    monkeypatch.setattr(symcore.Poly, "_aligned", aligned)
    monkeypatch.setattr(symcore, "_content", content)
    prol = generalized_prolongation(square_zero_base(3), Connection.zero(B3))
    assert check_battery(prol.components, prol.unit).passed
    assert seen["_sum on constants"] == 0
    assert seen["_aligned on constants"] == 0
    assert seen["_content of 1"] == 0
