"""Courant operations on the double bundle and the B-field classification."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import rand_ratfunc, rng_for
from fmanlin.duality import Connection, check_flat_f, dualize
from fmanlin.fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    PreconditionError,
)
from fmanlin import gengeo
from fmanlin.gengeo import (
    ThreeForm,
    TwoForm,
    _recover,
    bfield_transform,
    check_anchor_compat,
    check_dorfman_compat,
    check_scalar_compat,
    classify_exact_courant,
)
from fmanlin.prolong import (
    direct_sum,
    direct_sum_unit,
    generalized_prolongation,
    tangent_prolongation,
)
from fmanlin.report import Report
from fmanlin.symcore import RatFunc, parse_expr
from fmanlin.tensor import Chart
from references import (
    BFieldData,
    GenSection,
    anchor,
    conjugate,
    conjugate_unit,
    courant_frame_residuals,
    courant_predicate_residuals,
    dorfman,
    pairing,
    shear_matrix,
)

B1 = Chart.standard(1, 0)
B2 = Chart.standard(2, 0)
B3 = Chart.standard(3, 0)
B4 = Chart.standard(4, 0)

PLANE_STAR = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}
TRIVIAL3_STAR = {
    (0, 0, 0): 1,
    (1, 0, 1): 1,
    (1, 1, 0): 1,
    (2, 0, 2): 1,
    (2, 2, 0): 1,
}

HALF = RatFunc.coerce(Fraction(1, 2))
THIRD = RatFunc.coerce(Fraction(1, 3))


def rf(text, chart=B2):
    return parse_expr(text, chart.names)


def base_plane():
    return BaseFManifold(B2, PLANE_STAR, (1, 0))


def base_trivial3():
    return BaseFManifold(B3, TRIVIAL3_STAR, (1, 0, 0))


def base_i2():
    # nonconstant product in flat coordinates: d2*d2 = x2 d1
    star = dict(PLANE_STAR)
    star[(0, 1, 1)] = rf("x2")
    return BaseFManifold(B2, star, (1, 0))


def plane_package():
    nabla = Connection.zero(B2)
    return generalized_prolongation(base_plane(), nabla), nabla


def trivial3_package():
    nabla = Connection.zero(B3)
    return generalized_prolongation(base_trivial3(), nabla), nabla


def recovered(c, e, prol, nabla):
    """The shear two-form of ``(c, e)`` over the double prolongation ``prol``,
    read once the flat structure of its base passes."""
    assert check_flat_f(prol.source, nabla).passed
    return _recover(c, e, prol.components)


def shear(gam, sec):
    """The section ``X + xi + i_X gamma`` of ``X + xi``."""
    u = {i: f for i, f in enumerate(sec.vec) if not f.is_zero()}
    one = RatFunc.one()
    form = tuple(f + gam.apply(u, {q: one}) for q, f in enumerate(sec.form))
    return GenSection(sec.chart, sec.vec, form)


def spin3_form():
    # the rotationally symmetric two-form whose gradient is totally skew
    return TwoForm(B3, {(0, 1): rf("x3", B3), (0, 2): rf("-x2", B3), (1, 2): rf("x1", B3)})


def rand_section(rng, chart):
    k = 2 * chart.n
    comps = [rand_ratfunc(rng, chart.names, with_den=False) for _ in range(k)]
    return GenSection(chart, tuple(comps[: chart.n]), tuple(comps[chart.n :]))


# -- sections and forms ------------------------------------------------------------


def test_section_construction():
    s = GenSection(B2, (1, rf("x1")), (0, rf("x2/x1")))
    assert s.vec == (rf("1"), rf("x1"))
    assert s.components() == {0: rf("1"), 1: rf("x1"), 3: rf("x2/x1")}
    assert GenSection.from_components(B2, s.components()) == s
    assert GenSection.frame(B2, 3) == GenSection(B2, (0, 0), (0, 1))
    assert not s.is_zero()
    assert GenSection(B2, (0, 0), (0, 0)).is_zero()
    with pytest.raises(ValueError):
        GenSection(B2, (1,), (0, 0))
    with pytest.raises(ValueError):
        GenSection.frame(B2, 4)
    fibered = Chart.standard(2, 2)
    with pytest.raises(ValueError, match="fiber"):
        GenSection(fibered, (parse_expr("xi1", fibered.names), 0), (0, 0))


def test_two_form_tables():
    g = TwoForm(B2, {(0, 1): rf("x1")})
    assert g.at(0, 1) == rf("x1")
    assert g.at(1, 0) == rf("-x1")
    assert g.at(1, 1).is_zero()
    assert g.apply({0: rf("1")}, {1: rf("x2")}) == rf("x1*x2")
    assert TwoForm.zero(B2).is_zero()
    with pytest.raises(ValueError, match="increasing"):
        TwoForm(B2, {(1, 0): 1})
    with pytest.raises(ValueError, match="increasing"):
        TwoForm(B2, {(0, 2): 1})


def test_three_form_parity_and_closedness():
    h = ThreeForm(B3, {(0, 1, 2): rf("x1", B3)})
    assert h.at(0, 1, 2) == rf("x1", B3)
    assert h.at(1, 0, 2) == rf("-x1", B3)
    assert h.at(2, 0, 1) == rf("x1", B3)
    assert h.at(0, 0, 1).is_zero()
    assert h.is_closed()  # top degree
    assert spin3_form().d() == ThreeForm(B3, {(0, 1, 2): 3})
    open4 = ThreeForm(B4, {(0, 1, 2): rf("x4", B4)})
    assert not open4.is_closed()
    assert ThreeForm(B4, {(0, 1, 2): rf("x1 + x3", B4)}).is_closed()


def test_bfield_data_validation():
    with pytest.raises(ValueError, match="symmetric"):
        BFieldData(chart=B2, b={}, a={(0, 0, 1): 1}, s={})
    with pytest.raises(ValueError, match="skew"):
        BFieldData(chart=B2, b={}, a={}, s={(0, 1): 1})
    ok = BFieldData(chart=B2, b={}, a={}, s={(0, 1): 1, (1, 0): -1})
    assert ok.s == {(0, 1): rf("1"), (1, 0): rf("-1")}


# -- pairing, anchor, bracket --------------------------------------------------------


def test_pairing_coordinate_values():
    d1 = GenSection.frame(B2, 0)
    dx1 = GenSection.frame(B2, 2)
    assert pairing(d1, dx1) == HALF
    assert pairing(dx1, d1) == HALF
    assert pairing(d1, GenSection.frame(B2, 1)).is_zero()
    assert pairing(dx1, GenSection.frame(B2, 3)).is_zero()
    assert anchor(dx1) == (rf("0"), rf("0"))
    assert anchor(d1) == (rf("1"), rf("0"))


def test_dorfman_coordinate_values():
    d1 = GenSection.frame(B2, 0)
    assert dorfman(d1, GenSection.frame(B2, 1)).is_zero()
    lifted = GenSection(B2, (0, 0), (0, rf("x1")))
    assert dorfman(d1, lifted) == GenSection(B2, (0, 0), (0, 1))
    # the first argument differentiates, the second is differentiated
    assert dorfman(lifted, d1) == GenSection(B2, (0, 0), (0, -1))
    scaled = GenSection(B2, (rf("x2"), 0), (0, 0))
    out = dorfman(scaled, GenSection.frame(B2, 1))
    assert out == GenSection(B2, (-1, 0), (0, 0))


def test_dorfman_twist_contraction_order():
    h = ThreeForm(B3, {(0, 1, 2): rf("x1", B3)})
    d1, d2 = GenSection.frame(B3, 0), GenSection.frame(B3, 1)
    assert dorfman(d1, d2, h) == GenSection(
        B3, (0, 0, 0), (0, 0, rf("-x1", B3))
    )
    assert dorfman(d2, d1, h) == GenSection(
        B3, (0, 0, 0), (0, 0, rf("x1", B3))
    )


def test_dorfman_rejects_bad_inputs():
    with pytest.raises(ValueError, match="different charts"):
        dorfman(GenSection.frame(B2, 0), GenSection.frame(B3, 0))
    with pytest.raises(ValueError, match="base coordinates"):
        dorfman(
            GenSection.frame(B2, 0),
            GenSection.frame(B2, 1),
            ThreeForm(B3, {(0, 1, 2): 1}),
        )
    with pytest.raises(PreconditionError, match="not closed"):
        dorfman(
            GenSection.frame(B4, 0),
            GenSection.frame(B4, 1),
            ThreeForm(B4, {(0, 1, 2): rf("x4", B4)}),
        )


def test_dorfman_square_is_exact():
    # [s, s]_H carries no vector part and its form part is the gradient of
    # the self-pairing; the twist drops out by antisymmetry
    rng = rng_for("gengeo-square")
    h = ThreeForm(B3, {(0, 1, 2): 2})
    for _ in range(4):
        s = rand_section(rng, B3)
        out = dorfman(s, s, h)
        scal = pairing(s, s)
        assert out == GenSection(
            B3,
            (0, 0, 0),
            tuple(scal.partial(name) for name in B3.names),
        )


def sec_add(u, v):
    return GenSection(
        u.chart,
        tuple(a + b for a, b in zip(u.vec, v.vec)),
        tuple(a + b for a, b in zip(u.form, v.form)),
    )


def test_dorfman_jacobi():
    # the bracket acts on itself by derivations when the twist is closed
    rng = rng_for("gengeo-jacobi")
    h = ThreeForm(B3, {(0, 1, 2): 3})
    for _ in range(3):
        r, s, t = (rand_section(rng, B3) for _ in range(3))
        lhs = dorfman(r, dorfman(s, t, h), h)
        rhs = sec_add(
            dorfman(dorfman(r, s, h), t, h), dorfman(s, dorfman(r, t, h), h)
        )
        assert lhs == rhs


def test_pairing_invariant_under_shear():
    rng = rng_for("gengeo-pairing")
    gam = TwoForm(
        B3,
        {
            (0, 1): rand_ratfunc(rng, B3.names, with_den=False),
            (0, 2): rand_ratfunc(rng, B3.names, with_den=False),
            (1, 2): rand_ratfunc(rng, B3.names, with_den=False),
        },
    )
    for _ in range(4):
        s, t = rand_section(rng, B3), rand_section(rng, B3)
        assert pairing(shear(gam, s), shear(gam, t)) == pairing(s, t)


def test_dorfman_twist_shifts_by_d_gamma():
    # shearing both arguments moves the bracket to the twist H + d(gamma)
    rng = rng_for("gengeo-twist")
    for _ in range(4):
        gam = TwoForm(
            B3,
            {
                (0, 1): rand_ratfunc(rng, B3.names, with_den=False),
                (0, 2): rand_ratfunc(rng, B3.names, with_den=False),
                (1, 2): rand_ratfunc(rng, B3.names, with_den=False),
            },
        )
        h = ThreeForm(B3, {(0, 1, 2): rng.randrange(-2, 3)})
        dg = gam.d()
        shifted = ThreeForm(
            B3,
            {
                (0, 1, 2): h.at(0, 1, 2) + dg.at(0, 1, 2),
            },
        )
        s, t = rand_section(rng, B3), rand_section(rng, B3)
        assert shear(gam, dorfman(s, t, h)) == dorfman(
            shear(gam, s), shear(gam, t), shifted
        )


# -- anchor compatibility -------------------------------------------------------------


def test_anchor_compat_on_prolongations():
    for package in (plane_package, trivial3_package):
        prol, _ = package()
        rep = check_anchor_compat(prol.components)
        assert rep.passed
        assert [r.name for r in rep.records] == [
            "anchor-side",
            "anchor-derivative",
        ]


def test_anchor_compat_on_transforms():
    prol, nabla = plane_package()
    for gam in (TwoForm(B2, {(0, 1): 1}), TwoForm(B2, {(0, 1): rf("x1")})):
        tc, _ = bfield_transform(prol.components, prol.unit, gam)
        assert check_anchor_compat(tc).passed


def test_anchor_compat_catches_vector_leak():
    prol, _ = plane_package()
    bad_l = dict(prol.components.l)
    bad_l[(0, 2, 0)] = rf("1")  # l along d1 sends dx1 into the vector block
    bad = MultComponents(
        chart=prol.components.chart, d=prol.components.d, l=bad_l, star=PLANE_STAR
    )
    rep = check_anchor_compat(bad)
    assert not rep.passed
    assert rep.record("anchor-side").witness == (0, 2, 0)
    assert rep.record("anchor-derivative").passed


def test_anchor_compat_derivative_failure():
    prol, _ = plane_package()
    bad_d = dict(prol.components.d)
    # D along (d1, d1) sends dx1 into the vector block, in both components
    bad_d[(0, 2, 0, 0)] = rf("1")
    bad_d[(1, 2, 0, 0)] = rf("x2")
    bad = MultComponents(
        chart=prol.components.chart, d=bad_d, l=prol.components.l, star=PLANE_STAR
    )
    rep = check_anchor_compat(bad)
    assert rep.record("anchor-side").passed
    rec = rep.record("anchor-derivative")
    assert (rec.passed, rec.witness, rec.residual) == (False, (0, 0, 2, 0), "1")


TWIST = "twist three-form"


@pytest.mark.parametrize(
    "call, form",
    [
        (lambda c, e, h, nabla: check_scalar_compat(c, e, nabla), None),
        (lambda c, e, h, nabla: check_dorfman_compat(c, e, nabla, h), TWIST),
        (lambda c, e, h, nabla: classify_exact_courant(c, e, nabla, h), TWIST),
        (lambda c, e, gamma, nabla: bfield_transform(c, e, gamma), "two-form"),
    ],
    ids=["scalar", "dorfman", "classify", "bfield"],
)
def test_candidate_checks_keep_their_order_and_messages(call, form):
    # the rank is checked first, then the unit's chart, then the form's base;
    # each case also breaks every later check
    nabla = Connection.zero(B2)
    prol = generalized_prolongation(base_plane(), nabla)
    tan = tangent_prolongation(base_plane())
    if form == "two-form":
        bad = TwoForm(B3, {(0, 1): 1})
    else:
        bad = ThreeForm(B3, {(0, 1, 2): 1})
    rank = "expected a double fiber of rank 4 over 2 base coordinates, got rank 2"
    cases = [
        (tan.components, prol.unit.dual(), rank),
        (prol.components, prol.unit.dual(), "unit candidate and components live "
         "on different charts"),
    ]
    if form is not None:
        message = f"{form} lives on different base coordinates"
        cases.append((prol.components, prol.unit, message))
    for c, e, message in cases:
        with pytest.raises(ValueError) as info:
            call(c, e, bad, nabla)
        assert str(info.value) == message


def test_anchor_compat_requires_double_fiber():
    tan = tangent_prolongation(base_plane())
    with pytest.raises(ValueError, match="double fiber"):
        check_anchor_compat(tan.components)


# -- scalar compatibility -------------------------------------------------------------


def test_scalar_compat_on_prolongation():
    prol, nabla = plane_package()
    rep = check_scalar_compat(prol.components, prol.unit, nabla)
    assert rep.passed
    assert [r.name for r in rep.records] == [
        "pairing-side",
        "pairing-derivative",
        "pairing-unit",
        "pairing-duality",
        "route-agreement",
    ]


def test_scalar_compat_on_transforms():
    prol, nabla = plane_package()
    for gam in (TwoForm(B2, {(0, 1): 2}), TwoForm(B2, {(0, 1): rf("x1")})):
        tc, te = bfield_transform(prol.components, prol.unit, gam)
        assert check_scalar_compat(tc, te, nabla).passed
    prol3, nabla3 = trivial3_package()
    tc, te = bfield_transform(prol3.components, prol3.unit, spin3_form())
    assert check_scalar_compat(tc, te, nabla3).passed


def test_scalar_compat_catches_wrong_slot_symmetry():
    # a covector-block self-map breaks the side symmetry of the pairing,
    # and the structural route must reach the same verdict
    prol, nabla = plane_package()
    pert_l = dict(prol.components.l)
    pert_l[(2, 2, 0)] = pert_l.get((2, 2, 0), rf("0")) + rf("x2")
    pert = MultComponents(
        chart=prol.components.chart, d=prol.components.d, l=pert_l, star=PLANE_STAR
    )
    rep = check_scalar_compat(pert, prol.unit, nabla)
    assert not rep.passed
    verdicts = {r.name: r.passed for r in rep.records}
    assert verdicts["pairing-side"] is False
    assert verdicts["pairing-duality"] is False
    assert verdicts["route-agreement"] is True


def test_scalar_compat_unit_failure():
    prol, nabla = plane_package()
    lam = [list(row) for row in prol.unit.lam]
    lam[0][0] = RatFunc.one()
    unit = LinearVectorField(prol.unit.chart, prol.unit.beta, lam)
    rep = check_scalar_compat(prol.components, unit, nabla)
    records = {r.name: (r.passed, r.witness, r.residual) for r in rep.records}
    assert records["pairing-side"][0] and records["pairing-derivative"][0]
    assert records["pairing-unit"] == (False, (0, 2, 0), "1/2")
    assert records["pairing-duality"] == (False, ("lam", 0, 0), "1")
    assert records["route-agreement"] == (True, None, None)


def test_scalar_compat_lam_witness_is_row_then_column():
    # an off-diagonal unit entry: the pairing conjugate moves it to (1, 0)
    prol, nabla = plane_package()
    lam = [list(row) for row in prol.unit.lam]
    lam[0][1] = RatFunc.one()
    unit = LinearVectorField(prol.unit.chart, prol.unit.beta, lam)
    rec = check_scalar_compat(prol.components, unit, nabla).record("pairing-duality")
    assert (rec.passed, rec.witness, rec.residual) == (False, ("lam", 1, 0), "1")


def test_scalar_compat_requires_flat_structure():
    prol, _ = plane_package()
    bumpy = Connection(B2, {(0, 0, 0): rf("x1")})
    with pytest.raises(PreconditionError):
        check_scalar_compat(prol.components, prol.unit, bumpy)


# -- bracket compatibility ------------------------------------------------------------


def test_dorfman_compat_on_prolongations():
    for package in (plane_package, trivial3_package):
        prol, nabla = package()
        rep = check_dorfman_compat(prol.components, prol.unit, nabla)
        assert rep.passed
        assert [r.name for r in rep.records] == [
            "dorfman-side",
            "dorfman-derivative",
        ]
        assert any("twisted bracket" in note for note in rep.notes)


def test_dorfman_compat_constant_shear_passes():
    prol, nabla = plane_package()
    tc, te = bfield_transform(
        prol.components, prol.unit, TwoForm(B2, {(0, 1): 2})
    )
    assert check_dorfman_compat(tc, te, nabla).passed


def test_dorfman_compat_linear_shear_fails_side_law():
    prol, nabla = plane_package()
    tc, te = bfield_transform(
        prol.components, prol.unit, TwoForm(B2, {(0, 1): rf("x1")})
    )
    rep = check_dorfman_compat(tc, te, nabla)
    assert not rep.passed
    assert not rep.record("dorfman-side").passed
    assert rep.record("dorfman-derivative").passed


def test_dorfman_compat_quadratic_shear_fails_derivative_law():
    prol, nabla = plane_package()
    for text, witness in (("x1^2", (0, 0, 0, 0, 3)), ("x1*x2", (0, 1, 0, 0, 3))):
        tc, te = bfield_transform(
            prol.components, prol.unit, TwoForm(B2, {(0, 1): rf(text)})
        )
        rec = check_dorfman_compat(tc, te, nabla).record("dorfman-derivative")
        residual = "-4" if text == "x1^2" else "-2"
        assert (rec.passed, rec.witness, rec.residual) == (False, witness, residual)


def test_dorfman_compat_preconditions():
    prol, _ = plane_package()
    with pytest.raises(PreconditionError, match="vanish"):
        check_dorfman_compat(
            prol.components, prol.unit, Connection(B2, {(1, 1, 1): rf("x2")})
        )
    prol4 = generalized_prolongation(
        BaseFManifold(
            B4,
            {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (2, 0, 2): 1,
             (2, 2, 0): 1, (3, 0, 3): 1, (3, 3, 0): 1},
            (1, 0, 0, 0),
        ),
        Connection.zero(B4),
    )
    with pytest.raises(PreconditionError, match="not closed"):
        check_dorfman_compat(
            prol4.components,
            prol4.unit,
            Connection.zero(B4),
            ThreeForm(B4, {(0, 1, 2): rf("x4", B4)}),
        )


# -- B-field transform and difference tables -------------------------------------------


def test_bfield_transform_zero_is_identity():
    prol, _ = plane_package()
    tc, te = bfield_transform(prol.components, prol.unit, TwoForm.zero(B2))
    assert tc == prol.components
    assert te == prol.unit


def test_bfield_transform_group_law():
    prol, _ = plane_package()
    gam = TwoForm(B2, {(0, 1): rf("x1 + 2*x2")})
    neg = TwoForm(B2, {(0, 1): rf("-x1 - 2*x2")})
    tc, te = bfield_transform(prol.components, prol.unit, gam)
    back_c, back_e = bfield_transform(tc, te, neg)
    assert back_c == prol.components
    assert back_e == prol.unit


def _shear_cases(rng, base):
    """Rank-2n candidates over ``base``: its tangent prolongation in the
    vector block, its generalized prolongation, and random rational ``l``,
    ``d``, ``star``, ``beta`` and ``lam`` entries of degree <= 2."""
    n = base.chart.n
    gen = generalized_prolongation(base, Connection.zero(base.chart))
    tan = tangent_prolongation(base)
    chart, zero = gen.components.chart, RatFunc.zero()
    pad = (zero,) * n
    lam = tuple(tuple(row) + pad for row in tan.unit.lam) + (pad + pad,) * n
    tangent = MultComponents(chart=chart, d=tan.components.d, l=tan.components.l, star=base.star)

    def entry():
        return rand_ratfunc(rng, chart.base_names, max_deg=2)

    def table(*sizes):
        return {key: entry() for key in product(*map(range, sizes)) if rng.random() < 0.3}

    k = 2 * n
    rand = MultComponents(chart=chart, d=table(k, k, n, n), l=table(k, k, n), star=table(n, n, n))
    rand_lam = tuple(
        tuple(entry() if rng.random() < 0.3 else zero for _ in range(k)) for _ in range(k)
    )
    return [
        (tangent, LinearVectorField(chart, base.unit, lam)),
        (gen.components, gen.unit),
        (rand, LinearVectorField(chart, tuple(entry() for _ in range(n)), rand_lam)),
    ]


def test_shear_formula_matches_the_change_of_frame(monkeypatch):
    # `bfield_transform` reads the table entries; the reference conjugates by
    # the shear matrix, inverted by elimination, through the section operators
    rng = rng_for("gengeo-shear-formula")
    line = BaseFManifold(B1, {(0, 0, 0): 1}, (1,))
    moved = Counter()
    for base in (line, base_i2(), base_trivial3()) * 2:
        n = base.chart.n
        for c, e in _shear_cases(rng, base):
            gamma = TwoForm(
                base.chart,
                {key: rand_ratfunc(rng, base.chart.names) for key in combinations(range(n), 2)},
            )
            got_c, got_e = bfield_transform(c, e, gamma)
            with monkeypatch.context() as m:
                for name in ("bfield_transform", "_sheared", "_lam_table", "_partials"):
                    m.setattr(gengeo, name, forbidden)
                mat = shear_matrix(n, gamma)
                want_c, want_e = conjugate(c, mat), conjugate_unit(e, mat)
            assert got_c == want_c and got_e == want_e
            moved.update(what for what, same in (("c", got_c == c), ("e", got_e == e)) if not same)
    assert moved["c"] >= 4 and moved["e"] >= 4


def test_bfield_difference_tables_constant():
    prol, nabla = plane_package()
    gam = TwoForm(B2, {(0, 1): 1})
    tc, te = bfield_transform(prol.components, prol.unit, gam)
    data = BFieldData.from_difference(tc, te, prol.components, prol.unit)
    assert data.b == {}
    assert data.a == {(1, 0, 0): rf("-2")}
    assert data.s == {}
    assert data == BFieldData.from_two_form(base_plane(), gam, nabla)


def test_bfield_difference_tables_linear():
    prol, nabla = plane_package()
    gam = TwoForm(B2, {(0, 1): rf("x1")})
    tc, te = bfield_transform(prol.components, prol.unit, gam)
    data = BFieldData.from_difference(tc, te, prol.components, prol.unit)
    assert data.b == {
        (0, 0, 0, 1): rf("-1"),
        (0, 0, 1, 0): rf("1"),
        (0, 1, 0, 0): rf("-1"),
        (1, 0, 0, 0): rf("-1"),
    }
    assert data.a == {(1, 0, 0): rf("-2*x1")}
    assert data.s == {(0, 1): rf("-1"), (1, 0): rf("1")}
    assert data == BFieldData.from_two_form(base_plane(), gam, nabla)


def test_bfield_difference_tables_nonconstant_star():
    # the product's own derivatives enter the closed forms here
    base = base_i2()
    nabla = Connection.zero(B2)
    prol = generalized_prolongation(base, nabla)
    gam = TwoForm(B2, {(0, 1): 1})
    tc, te = bfield_transform(prol.components, prol.unit, gam)
    data = BFieldData.from_difference(tc, te, prol.components, prol.unit)
    assert data.b == {(1, 1, 1, 1): rf("2")}
    assert data.a == {(1, 0, 0): rf("-2"), (1, 1, 1): rf("2*x2")}
    assert data == BFieldData.from_two_form(base, gam, nabla)


def test_bfield_difference_tables_spin3():
    prol, nabla = trivial3_package()
    gam = spin3_form()
    tc, te = bfield_transform(prol.components, prol.unit, gam)
    data = BFieldData.from_difference(tc, te, prol.components, prol.unit)
    assert data == BFieldData.from_two_form(base_trivial3(), gam, nabla)
    assert data.s == {(1, 2): rf("-1", B3), (2, 1): rf("1", B3)}


def test_bfield_difference_rejects_foreign_pairs():
    prol, _ = plane_package()
    gam = TwoForm(B2, {(0, 1): 1})
    tc, te = bfield_transform(prol.components, prol.unit, gam)
    swapped_star = dict(PLANE_STAR)
    swapped_star[(1, 1, 1)] = rf("1")
    mutant = MultComponents(
        chart=tc.chart, d=tc.d, l=tc.l, star=swapped_star
    )
    with pytest.raises(ValueError, match="base products differ"):
        BFieldData.from_difference(mutant, te, prol.components, prol.unit)


def test_recover_two_form():
    prol, nabla = plane_package()
    assert recovered(prol.components, prol.unit, prol, nabla).is_zero()
    for gam in (TwoForm(B2, {(0, 1): 1}), TwoForm(B2, {(0, 1): rf("x1")})):
        tc, te = bfield_transform(prol.components, prol.unit, gam)
        assert recovered(tc, te, prol, nabla) == gam
    prol3, nabla3 = trivial3_package()
    tc, te = bfield_transform(prol3.components, prol3.unit, spin3_form())
    assert recovered(tc, te, prol3, nabla3) == spin3_form()


# -- classification --------------------------------------------------------------------


CLASSIFY_RECORDS = [
    "anchor-compatibility",
    "scalar-compatibility",
    "bfield-recovery",
    "bfield-gradient",
    "twist-match",
    "dorfman-compatibility",
    "classification-agreement",
    "parallel-bfield",
    "parallel-product",
]


def classify_verdicts(rep):
    return {r.name: r.passed for r in rep.records}


def test_classify_prolongation_is_exact():
    prol, nabla = plane_package()
    rep = classify_exact_courant(prol.components, prol.unit, nabla)
    assert rep.passed
    assert [r.name for r in rep.records] == CLASSIFY_RECORDS


def test_classify_constant_shear_is_exact():
    prol, nabla = plane_package()
    tc, te = bfield_transform(
        prol.components, prol.unit, TwoForm(B2, {(0, 1): 3})
    )
    rep = classify_exact_courant(tc, te, nabla)
    assert rep.passed


def test_classify_linear_shear_cites_the_gradient():
    prol, nabla = plane_package()
    tc, te = bfield_transform(
        prol.components, prol.unit, TwoForm(B2, {(0, 1): rf("x1")})
    )
    rep = classify_exact_courant(tc, te, nabla)
    assert not rep.passed
    verdicts = classify_verdicts(rep)
    assert verdicts == {
        "anchor-compatibility": True,
        "scalar-compatibility": True,
        "bfield-recovery": True,
        "bfield-gradient": False,
        "twist-match": True,
        "dorfman-compatibility": False,
        "classification-agreement": True,
        "parallel-bfield": False,
        "parallel-product": False,
    }
    assert rep.record("bfield-gradient").witness == (0, 0, 1)
    assert rep.record("bfield-gradient").residual == "1"


def test_classification_runs_each_battery_once_per_object(battery_runs, flat_runs):
    prol, nabla = plane_package()
    tc, te = bfield_transform(
        prol.components, prol.unit, TwoForm(B2, {(0, 1): rf("x1")})
    )
    battery_runs.clear()
    flat_runs.clear()
    assert not classify_exact_courant(tc, te, nabla).passed
    # the candidate once, and the base once for the classifier, its scalar
    # check and the double prolongation it rebuilds
    assert [c.chart.k for c in battery_runs] == [4, 0]
    # the flat structure once, for the classifier (which the scalar check
    # and the double prolongation reuse)
    assert len(flat_runs) == 1


def test_public_scalar_check_requires_its_own_flat_structure(battery_runs, flat_runs):
    prol, nabla = plane_package()
    tc, te = bfield_transform(
        prol.components, prol.unit, TwoForm(B2, {(0, 1): rf("x1")})
    )
    battery_runs.clear()
    flat_runs.clear()
    assert check_scalar_compat(tc, te, nabla).passed
    assert len(flat_runs) == 1 and [c.chart.k for c in battery_runs] == [0]


def test_duality_and_classification_read_frame_products_off_the_rows(monkeypatch):
    from fmanlin import duality, fman

    real = fman.star_product
    frame_pairs = []

    def is_frame(u):
        return len(u) == 1 and next(iter(u.values())) == RatFunc.one()

    def counting(c, u, v):
        if is_frame(u) and is_frame(v):
            frame_pairs.append((u, v))
        return real(c, u, v)

    for module in (fman, duality):
        monkeypatch.setattr(module, "star_product", counting)
    prol, nabla = plane_package()
    for gamma in ({(0, 1): rf("x1")}, {(0, 1): 1}):
        tc, te = bfield_transform(prol.components, prol.unit, TwoForm(B2, gamma))
        rep = classify_exact_courant(tc, te, nabla)
        assert rep.record("parallel-product")
    tan = tangent_prolongation(base_i2())
    euler = LinearVectorField(tan.components.chart, (rf("x1"), rf("x2")), ((1, 0), (0, 1)))
    for nab in (Connection.zero(B2), Connection(B2, {(0, 1, 1): rf("x1")})):
        rep = duality.check_duality_conditions(tan.components, tan.unit, nab, euler)
        assert rep.record("dual-integrable")
    assert frame_pairs == []


def test_classify_aborts_without_anchor():
    # covector block first: a perfectly good multiplication whose projection
    # runs through the wrong block, and a structure that is its own dual
    base = base_plane()
    nabla = Connection.zero(B2)
    tan = tangent_prolongation(base)
    dual_c, dual_e = dualize(tan.components, tan.unit, nabla)
    swapped_c = direct_sum(dual_c, tan.components)
    swapped_e = direct_sum_unit(dual_e, tan.unit)
    rep = classify_exact_courant(swapped_c, swapped_e, nabla)
    assert not rep.passed
    assert [r.name for r in rep.records] == [
        "anchor-compatibility",
        "scalar-compatibility",
    ]
    assert rep.record("anchor-compatibility").witness == ("anchor-side", 1, 0, 1)
    assert rep.record("scalar-compatibility").passed
    assert any("aborted" in note for note in rep.notes)


def test_classify_requires_battery():
    prol, nabla = plane_package()
    broken = MultComponents(
        chart=prol.components.chart,
        d=prol.components.d,
        l=prol.components.l,
        star={(0, 0, 1): 1},
    )
    with pytest.raises(PreconditionError):
        classify_exact_courant(broken, prol.unit, nabla)


def test_classify_precondition_names_the_battery():
    prol, nabla = plane_package()
    broken = MultComponents(
        chart=prol.components.chart,
        d=prol.components.d,
        l=prol.components.l,
        star={(0, 0, 1): 1},
    )
    with pytest.raises(PreconditionError) as info:
        classify_exact_courant(broken, prol.unit, nabla)
    assert str(info.value) == (
        "the exact Courant classification requires multiplication battery to "
        "pass; star-symmetric fails at (0, 0, 1)"
    )
    assert info.value.report.title == "multiplication battery"


def test_classify_bfield_recovery_failure(monkeypatch):
    # a candidate that passes the anchor and scalar checks is a shear of the
    # double prolongation, so its recovered two-form reproduces it; a wrong
    # two-form drives the recovery record to FAIL
    import fmanlin.gengeo as gengeo

    prol, nabla = plane_package()
    tc, te = bfield_transform(
        prol.components, prol.unit, TwoForm(B2, {(0, 1): rf("x1")})
    )
    monkeypatch.setattr(gengeo, "_recover", lambda c, e, ref: TwoForm.zero(B2))
    rec = classify_exact_courant(tc, te, nabla).record("bfield-recovery")
    assert (rec.passed, rec.witness, rec.residual) == (False, ("l", 2, 0, 1), "2*x1")


def test_classify_spin3_untwisted_cites_the_twist():
    prol, nabla = trivial3_package()
    tc, te = bfield_transform(prol.components, prol.unit, spin3_form())
    rep = classify_exact_courant(tc, te, nabla)
    assert not rep.passed
    verdicts = classify_verdicts(rep)
    # the gradient is totally skew, so only the twist slot and the bracket fail
    assert verdicts["bfield-recovery"] is True
    assert verdicts["bfield-gradient"] is True
    assert verdicts["twist-match"] is False
    assert verdicts["dorfman-compatibility"] is False
    assert verdicts["classification-agreement"] is True
    assert rep.record("twist-match").witness == (0, 1, 2)


def test_classify_spin3_twisted_splits_predicate_and_bracket():
    # with the matching twist both derivative conditions hold, yet the side
    # law still fails: the derivative predicate is necessary, not sufficient
    prol, nabla = trivial3_package()
    tc, te = bfield_transform(prol.components, prol.unit, spin3_form())
    h = ThreeForm(B3, {(0, 1, 2): 1})
    rep = classify_exact_courant(tc, te, nabla, h)
    assert not rep.passed
    verdicts = classify_verdicts(rep)
    assert verdicts["bfield-gradient"] is True
    assert verdicts["twist-match"] is True
    assert verdicts["dorfman-compatibility"] is False
    assert verdicts["classification-agreement"] is False
    assert "parallel-bfield" not in verdicts


def test_classify_nonparallel_product_splits_predicate_and_bracket():
    # constant two-form over a nonconstant product: gradient and twist both
    # vanish but the product pairing is not parallel, and the bracket sees it
    base = base_i2()
    nabla = Connection.zero(B2)
    prol = generalized_prolongation(base, nabla)
    tc, te = bfield_transform(
        prol.components, prol.unit, TwoForm(B2, {(0, 1): 1})
    )
    rep = classify_exact_courant(tc, te, nabla)
    assert not rep.passed
    verdicts = classify_verdicts(rep)
    assert verdicts["bfield-gradient"] is True
    assert verdicts["twist-match"] is True
    assert verdicts["dorfman-compatibility"] is False
    assert verdicts["classification-agreement"] is False
    assert verdicts["parallel-bfield"] is True
    assert verdicts["parallel-product"] is False
    assert rep.record("parallel-product").witness == (1, 1, 1, 1)


def test_transform_equals_recovered_shear():
    # structures passing anchor and scalar compatibility are shears of the
    # double prolongation by their recovered two-form
    prol, nabla = plane_package()
    for gam in (TwoForm(B2, {(0, 1): 2}), TwoForm(B2, {(0, 1): rf("x1")})):
        tc, te = bfield_transform(prol.components, prol.unit, gam)
        again_c, again_e = bfield_transform(
            prol.components, prol.unit, recovered(tc, te, prol, nabla)
        )
        assert again_c == tc
        assert again_e == te


# -- the frame laws read off the tables ----------------------------------------------


def forbidden(*args, **kwargs):
    raise AssertionError("this route must not be used")


def _bumped(c, e, rng, what):
    """``(c, e)`` with one seeded entry of ``what`` (``l``, ``d`` or ``lam``) moved."""
    chart = c.chart
    n, k = chart.n, chart.k
    bump = rand_ratfunc(rng, chart.base_names, max_deg=1, with_den=False)
    if bump.is_zero():
        bump = RatFunc.one()
    if what == "lam":
        lam = [list(row) for row in e.lam]
        i, j = rng.randrange(k), rng.randrange(k)
        lam[i][j] = lam[i][j] + bump
        return c, LinearVectorField(chart, e.beta, lam)
    table = dict(getattr(c, what))
    key = (rng.randrange(k), rng.randrange(k)) + tuple(
        rng.randrange(n) for _ in range(1 if what == "l" else 2)
    )
    table[key] = table.get(key, RatFunc.zero()) + bump
    tables = {"d": c.d, "l": c.l, what: table}
    return MultComponents(chart=chart, star=c.star, **tables), e


def _courant_candidates():
    """Seeded shears of double prolongations, with one table entry moved or not.

    Each base gets the plain prolongation and a shear by a non-constant
    two-form, and the shear also comes with a moved ``l``, ``d`` or ``lam``
    entry.  The bases are the plane, a plane whose product has a quadratic
    entry, the plane over a connection that does not vanish (for the scalar
    check alone) and the trivial product at ``n = 3``, where every candidate
    comes with and without a closed twist.
    """
    rng = rng_for("gengeo-frame-laws")
    quadratic = dict(PLANE_STAR)
    quadratic[(0, 1, 1)] = rf("x2^2")
    out = []
    for base, nabla in (
        (base_plane(), Connection.zero(B2)),
        (BaseFManifold(B2, quadratic, (1, 0)), Connection.zero(B2)),
        (base_plane(), Connection(B2, {(1, 1, 1): rf("x2")})),
        (base_trivial3(), Connection.zero(B3)),
    ):
        chart = base.chart
        prol = generalized_prolongation(base, nabla)
        table = {
            key: rand_ratfunc(rng, chart.names, max_deg=2, with_den=False)
            + RatFunc.variable(chart.names[rng.randrange(chart.n)])
            for key in ((0, 1), (1, 2))[: chart.n - 1]
        }
        tc, te = bfield_transform(prol.components, prol.unit, TwoForm(chart, table))
        cands = [(prol.components, prol.unit), (tc, te)]
        cands += [_bumped(tc, te, rng, what) for what in ("l", "d", "lam")]
        twists = [None]
        if chart.n == 3:
            twists.append(ThreeForm(chart, {(0, 1, 2): rand_ratfunc(rng, chart.names)}))
        out += [(c, e, nabla, h) for c, e in cands for h in twists]
    return out


def _recovered_two_form(c, e, nabla):
    """The two-form of ``(c, e)`` against the double prolongation of its base."""
    base = BaseFManifold(c.chart.base(), c.star, e.beta)
    return _recover(c, e, generalized_prolongation(base, nabla).components)


def _frame_law_maps(c, e, nabla, h):
    """The residual map of each frame law of ``(c, e)``, by record name; the
    bracket laws and the derivative predicate only under a vanishing
    connection, the predicate on the two-form recovered against the double
    prolongation of the candidate's base."""
    n = c.n
    maps = {
        "anchor-side": gengeo._map_anchor_side(c),
        "anchor-derivative": gengeo._map_anchor_derivative(c),
        "pairing-side": gengeo._map_pairing_side(c, n),
        "pairing-derivative": gengeo._map_pairing_derivative(c, n, nabla),
        "pairing-unit": gengeo._map_pairing_unit(e, n),
    }
    if nabla.gamma:
        return maps, None
    twist = gengeo._twist_entries(h)
    maps["dorfman-side"] = gengeo._map_dorfman_side(c, n, twist)
    maps["dorfman-derivative"] = gengeo._map_dorfman_derivative(c, n, twist)
    gamma = _recovered_two_form(c, e, nabla)
    nab, dg = gengeo._nabla_two_form(gamma), gamma.d()
    maps["bfield-gradient"] = gengeo._map_bfield_gradient(nab, dg)
    maps["twist-match"] = gengeo._map_twist_match(h, dg)
    maps["parallel-bfield"] = nab
    maps["parallel-product"] = gengeo._map_parallel_product(c, gamma)
    return maps, gamma


def test_frame_laws_match_their_section_form():
    # every residual map, read whole in witness order, equals the nonzero
    # residuals of the section form or dense reference, tuple by tuple; the
    # structural pairing record stops at the reference's first entry
    outcomes = {}
    for c, e, nabla, h in _courant_candidates():
        maps, gamma = _frame_law_maps(c, e, nabla, h)
        want = courant_frame_residuals(c, e, nabla, h)
        if gamma is not None:
            want.update(courant_predicate_residuals(c, gamma, nabla, h))
        assert len(maps) == (11 if gamma is not None else 5)
        for name, residuals in maps.items():
            assert sorted(residuals.items()) == want[name], name
            outcomes.setdefault(name, set()).add(not residuals)
        rec = check_scalar_compat(c, e, nabla).record("pairing-duality")
        first = [(w, str(r)) for w, r in want["pairing-duality"][:1]]
        assert [(rec.witness, rec.residual)] == (first or [(None, None)])
        outcomes.setdefault("pairing-duality", set()).add(rec.passed)
    for name in (
        "pairing-side",
        "pairing-derivative",
        "pairing-unit",
        "pairing-duality",
        "dorfman-side",
        "dorfman-derivative",
        "bfield-gradient",
        "twist-match",
        "parallel-bfield",
        "parallel-product",
    ):
        assert outcomes[name] == {True, False}, name


def _predicate_cases():
    """A passing shear and the pinned splits: the linear and constant shears of
    the plane, the spin form on ``trivial3`` with its matching twist, and a
    constant two-form over ``base_i2``."""
    prol, nabla = plane_package()
    cases = [
        (*bfield_transform(prol.components, prol.unit, TwoForm(B2, gamma)), nabla, None)
        for gamma in ({(0, 1): 3}, {(0, 1): rf("x1")})
    ]
    prol3, nabla3 = trivial3_package()
    spin = bfield_transform(prol3.components, prol3.unit, spin3_form())
    cases.append((*spin, nabla3, ThreeForm(B3, {(0, 1, 2): 1})))
    prol_i2 = generalized_prolongation(base_i2(), nabla)
    tc, te = bfield_transform(prol_i2.components, prol_i2.unit, TwoForm(B2, {(0, 1): 1}))
    return cases + [(tc, te, nabla, None)]


def test_dorfman_laws_and_derivative_predicate_share_no_code(monkeypatch):
    predicate = ("_recover", "_nabla_two_form", "_map_bfield_gradient", "_map_twist_match")
    predicate += ("_map_parallel_product",)
    dorfman_route = ("_map_dorfman_side", "_map_dorfman_derivative", "_twist_entries", "_partner")
    cases = _predicate_cases()
    # every forbidden name is live: its own route fails without it
    owners = [
        (dorfman_route, check_dorfman_compat, cases[2]),
        (predicate, classify_exact_courant, cases[1]),
    ]
    for names, route, case in owners:
        for name in names:
            with monkeypatch.context() as m:
                m.setattr(gengeo, name, forbidden)
                with pytest.raises(AssertionError, match="must not be used"):
                    route(*case)
    verdicts = set()
    for c, e, nabla, h in cases:
        want = classify_exact_courant(c, e, nabla, h)
        dorf = check_dorfman_compat(c, e, nabla, h)
        verdicts.add((want.passed, dorf.passed))

        # the bracket laws, with the predicate's maps and helpers forbidden
        with monkeypatch.context() as m:
            for name in predicate:
                m.setattr(gengeo, name, forbidden)
            m.setattr(TwoForm, "d", forbidden)
            assert check_dorfman_compat(c, e, nabla, h).records == dorf.records

        # the predicate, with the bracket laws' maps and helpers forbidden
        # from the moment the two-form is recovered
        with monkeypatch.context() as m:

            class Sealing(Report):
                def add(self, name, *args):
                    super().add(name, *args)
                    if name == "bfield-recovery":
                        for helper in dorfman_route:
                            m.setattr(gengeo, helper, forbidden)
                        m.setattr(gengeo, "check_dorfman_compat", lambda *args: dorf)

            m.setattr(gengeo, "Report", Sealing)
            got = classify_exact_courant(c, e, nabla, h)
        assert got.records == want.records
    assert verdicts == {(True, True), (False, False)}


def test_parallel_product_completes_the_derivative_predicate():
    # seeded shears of generalized prolongations by two-forms of degree <= 2,
    # untwisted and, at n = 3, twisted by a third of d gamma: the predicate
    # with parallel-product (taken for every twist) agrees with the bracket
    # laws on every case; without it, it disagrees on the two pinned splits
    rng = rng_for("gengeo-predicate-agreement")
    cases = []
    for base in (base_plane(), base_i2(), base_trivial3()):
        chart = base.chart
        nabla = Connection.zero(chart)
        prol = generalized_prolongation(base, nabla)
        for degree in (0, 1, 2) * 4:
            table = {
                key: rand_ratfunc(rng, chart.names, max_deg=degree, with_den=False)
                for key in combinations(range(chart.n), 2)
            }
            gamma = TwoForm(chart, table)
            tc, te = bfield_transform(prol.components, prol.unit, gamma)
            cases.append((tc, te, nabla, None))
            dg = gamma.d()
            if not dg.is_zero():
                third = {key: v * THIRD for key, v in dg.table.items()}
                cases.append((tc, te, nabla, ThreeForm(chart, third)))
    split = _predicate_cases()[2:]
    outcomes = set()
    for index, (c, e, nabla, h) in enumerate(cases + split):
        verdicts = classify_verdicts(classify_exact_courant(c, e, nabla, h))
        gamma = _recovered_two_form(c, e, nabla)
        partial = verdicts["bfield-gradient"] and verdicts["twist-match"]
        complete = partial and not gengeo._map_parallel_product(c, gamma)
        assert complete == verdicts["dorfman-compatibility"]
        assert (partial == complete) == verdicts["classification-agreement"]
        if index >= len(cases):  # a pinned split
            assert partial and not complete
        outcomes.add((complete, partial == complete))
    assert outcomes == {(True, True), (False, True), (False, False)}


def _scalar_pair():
    """A passing and a failing candidate for the scalar check."""
    prol, nabla = plane_package()
    tc, te = bfield_transform(prol.components, prol.unit, TwoForm(B2, {(0, 1): rf("x1")}))
    pert_l = dict(tc.l)
    pert_l[(2, 2, 0)] = pert_l.get((2, 2, 0), rf("0")) + rf("x2")
    pert = MultComponents(chart=tc.chart, d=tc.d, l=pert_l, star=tc.star)
    return [(tc, te, nabla), (pert, te, nabla)]


def test_pairing_frame_records_and_duality_record_share_no_code(monkeypatch):
    frame_route = ("_map_pairing_side", "_map_pairing_derivative", "_map_pairing_unit")
    frame_route += ("symmetric_bracket",)
    verdicts = set()
    for c, e, nabla in _scalar_pair():
        want = check_scalar_compat(c, e, nabla)
        verdicts.add(want.passed)
        reports = []

        class Recording(Report):
            def __init__(self, *args):
                super().__init__(*args)
                reports.append(self)

        # the frame records, with the structural route forbidden
        with monkeypatch.context() as m:
            m.setattr(gengeo, "Report", Recording)
            for name in ("dualize", "_sheared", "_table_diffs"):
                m.setattr(gengeo, name, forbidden)
            with pytest.raises(AssertionError, match="must not be used"):
                check_scalar_compat(c, e, nabla)
        assert reports[0].records == want.records[:3]

        # the structural record, with the table reads of the frame laws
        # forbidden from the moment the last frame record is written
        with monkeypatch.context() as m:

            class Sealing(Report):
                def add(self, name, *args):
                    super().add(name, *args)
                    if name == "pairing-unit":
                        m.setattr(MultComponents, "l_at", forbidden)
                        m.setattr(MultComponents, "d_at", forbidden)
                        for helper in frame_route:
                            m.setattr(gengeo, helper, forbidden)

            m.setattr(gengeo, "Report", Sealing)
            got = check_scalar_compat(c, e, nabla)
        assert got.record("pairing-duality") == want.record("pairing-duality")
    assert verdicts == {True, False}


def test_pairing_derivative_takes_each_symmetric_bracket_once(monkeypatch):
    # <d_m : d_p> depends on (m, p) alone: at most n^2 brackets per check,
    # against one per (m, p, b, c) tuple
    calls = []
    real = gengeo.symmetric_bracket

    def counting(nabla, u, v):
        calls.append((tuple(u), tuple(v)))
        return real(nabla, u, v)

    monkeypatch.setattr(gengeo, "symmetric_bracket", counting)
    prol, nabla = trivial3_package()
    for c, e, nab in [*_scalar_pair(), (prol.components, prol.unit, nabla)]:
        calls.clear()
        rep = check_scalar_compat(c, e, nab)
        assert rep.record("pairing-derivative").law
        assert 0 < len(calls) <= c.n**2
        assert len(set(calls)) == len(calls)


def test_classifier_inverts_only_the_shear(monkeypatch):
    # the inverse of the shear is the shear by -gamma, read off the same
    # table entries: no elimination runs inside `bfield_transform`, and no
    # module keeps a matrix inverse
    from fmanlin import duality, prolong, symcore

    assert not hasattr(symcore, "_inverse") and not hasattr(prolong, "_inverse")
    prol, nabla = plane_package()
    tc, te = bfield_transform(prol.components, prol.unit, TwoForm(B2, {(0, 1): rf("x1")}))
    calls, inside, shears = [], [], []
    real_solve, real_transform = symcore._solve, gengeo.bfield_transform

    def counting(matrix, cols):
        calls.append(bool(inside))
        return real_solve(matrix, cols)

    def transform(*args):
        inside.append(True)
        shears.append(args[2])
        try:
            return real_transform(*args)
        finally:
            inside.pop()

    for module in (symcore, duality):
        monkeypatch.setattr(module, "_solve", counting)
    monkeypatch.setattr(gengeo, "bfield_transform", transform)
    assert check_scalar_compat(tc, te, nabla).passed
    assert not classify_exact_courant(tc, te, nabla).passed
    gengeo.bfield_transform(tc, te, TwoForm(B2, {(0, 1): rf("x1 + 1/x2")}))
    # the counter sees an elimination: `regular_connection` makes one
    duality.regular_connection(prol.source, (rf("x1+5"), rf("x2^2+1")))
    assert len(shears) == 2 and True not in calls and calls[-1] is False
