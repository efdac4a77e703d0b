"""Battery checks for fiberwise-linear multiplications."""

from itertools import product

import pytest

from conftest import rand_ratfunc, rng_for
from fmanlin.fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    PreconditionError,
    _ASSOCIATIVITY,
    _acc,
    _Ctx,
    _hm_into,
    _run_into,
    _lie_d_entry,
    _lie_l_entry,
    _symmetrized_second,
    _vadd,
    _vf_bracket,
    _vget,
    _vsub,
    apply_d,
    apply_delta,
    apply_l,
    apply_l_vec,
    check_associative,
    check_base,
    check_battery,
    check_commutative,
    check_euler,
    check_hertling_manin,
    check_unit,
    evaluate_residual,
    hm_tensor,
    lie_components,
    lie_star,
    star_product,
)
from fmanlin.duality import Connection
from fmanlin.prolong import generalized_prolongation, tangent_prolongation
from fmanlin.report import Report
from fmanlin.symcore import RatFunc, parse_expr
from fmanlin.tensor import (
    Chart,
    Section,
    TensorField,
    apply_tensor,
    extract_components,
    lie_derivative,
    scaling_class,
    table_eq,
    vertical_lift,
)

C11 = Chart.standard(1, 1)
C21 = Chart.standard(2, 1)

VECTOR_RECORDS = [
    "star-associative",
    "l-composition",
    "second-derivative-symmetric",
    "base-integrability",
    "derivative-commutator",
    "derivative-bracket",
]

BATTERY_RECORDS = [
    "side-tables-equal",
    "star-symmetric",
    "derivative-symmetric",
    "star-associative",
    "l-composition",
    "second-derivative-symmetric",
    "unit-star",
    "unit-side",
    "unit-derivative",
    "base-integrability",
    "derivative-commutator",
    "derivative-bracket",
    "integrability-oracle",
]


def rf(text, chart=C21):
    return parse_expr(text, chart.names)


def line_example():
    """1D base, rank-1 fiber: dx * dx = dx, l along dx the identity."""
    c = MultComponents(chart=C11, d={}, l={(0, 0, 0): 1}, star={(0, 0, 0): 1})
    e = LinearVectorField(C11, (1,), ((0,),))
    return c, e


def plane_example(h_text="x2"):
    """2D base, rank-1 fiber, with a pure second-derivative table."""
    c = MultComponents(
        chart=C21,
        d={(0, 0, 1, 1): rf(h_text)},
        l={(0, 0, 0): 1},
        star={(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1},
    )
    e = LinearVectorField(C21, (1, 0), ((0,),))
    return c, e


def tilted_plane(d00, d01):
    """The plane star with l = 0 and a symmetric derivative table.

    Integrable exactly when d2(d00) = d1(d01), which makes it the natural
    family for exercising both verdict routes.
    """
    return MultComponents(
        chart=C21,
        d={
            (0, 0, 0, 0): rf(d00),
            (0, 0, 0, 1): rf(d01),
            (0, 0, 1, 0): rf(d01),
        },
        l={},
        star={(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1},
    )


def test_line_example_battery_passes():
    c, e = line_example()
    rep = check_battery(c, e)
    assert rep.passed
    assert [r.name for r in rep.records] == BATTERY_RECORDS


def test_plane_example_battery_passes():
    c, e = plane_example()
    rep = check_battery(c, e)
    assert rep.passed, rep.render()


def test_zero_components_are_commutative():
    c = MultComponents(chart=C21, d={}, l={}, star={})
    assert check_commutative(c).passed


def test_commutativity_failure_and_witness():
    for name, d, l, star, l2, witness, residual in (
        ("star-symmetric", {}, {}, {(0, 0, 1): rf("x1")}, None, (0, 0, 1), "x1"),
        ("side-tables-equal", {}, {(0, 0, 1): 1}, {}, {}, (0, 0, 1), "1"),
        ("derivative-symmetric", {(0, 0, 0, 1): rf("x1")}, {}, {}, None, (0, 0, 0, 1), "x1"),
    ):
        c = MultComponents(C21, d, l, star)
        rec = check_commutative(c, l2=l2).record(name)
        assert (rec.passed, rec.witness, rec.residual) == (False, witness, residual)
        again = evaluate_residual(rec.name, rec.witness, c, l2=l2)
        assert str(again) == rec.residual


def test_associativity_failure_of_modified_plane_example():
    c, _ = plane_example()
    bad = MultComponents(
        chart=C21, d=c.d, l={(0, 0, 0): 1, (0, 0, 1): 1}, star=c.star
    )
    rep = check_associative(bad)
    rec = rep.record("l-composition")
    assert not rec.passed
    assert rec.witness == (0, 0, 1, 1)
    assert not evaluate_residual(rec.name, rec.witness, bad).is_zero()
    # direct frame check on the assembled tensor: associativity fails on
    # (dx2, dx2, lifted frame section)
    t = bad.assemble()
    dx2 = TensorField.coordinate_field(C21, 1)
    lift = vertical_lift(Section.frame(C21, 0))
    lhs = apply_tensor(t, apply_tensor(t, dx2, dx2), lift)
    rhs = apply_tensor(t, dx2, apply_tensor(t, dx2, lift))
    assert lhs != rhs


def test_unit_check_passes_on_examples():
    for c, e in (line_example(), plane_example()):
        assert check_unit(c, e).passed


def test_unit_failure_with_scaling_candidate():
    c, _ = line_example()
    e2 = LinearVectorField(C11, (1,), ((1,),))
    rep = check_unit(c, e2)
    rec = rep.record("unit-derivative")
    assert not rec.passed
    assert rec.witness == (0, 0, 0)
    # oracle on the assembled tensor: the candidate times dx is not dx
    t = c.assemble()
    dx = TensorField.coordinate_field(C11, 0)
    prod = apply_tensor(t, e2.as_field(), dx)
    assert prod.vector_components() == [rf("1", C11), rf("xi1", C11)]
    assert prod != dx


def test_precondition_chain_is_enforced():
    c = MultComponents(chart=C21, d={}, l={}, star={(0, 0, 1): rf("x1")})
    with pytest.raises(PreconditionError) as info:
        check_associative(c)
    assert info.value.report is not None
    with pytest.raises(PreconditionError):
        check_hertling_manin(c)


def test_preconditions_name_the_check_that_needs_them():
    c = MultComponents(chart=C21, d={}, l={}, star={(0, 0, 1): rf("x1")})
    e = LinearVectorField(C21, (1, 0), ((0,),))
    for check, what in (
        (lambda: check_unit(c, e), "the unit check"),
        (lambda: check_hertling_manin(c), "the integrability check"),
    ):
        with pytest.raises(PreconditionError) as info:
            check()
        assert str(info.value) == (
            f"{what} requires commutativity to pass; "
            "star-symmetric fails at (0, 0, 1)"
        )
        assert info.value.report.title == "commutativity"


def test_integrability_pass_and_fail_instances():
    good = tilted_plane("x2", "x1")  # d2(x2) = 1 = d1(x1)
    rep = check_hertling_manin(good)
    assert rep.passed, rep.render()

    bad = tilted_plane("x1", "x1")  # d2(x1) = 0 != 1 = d1(x1)
    rep = check_hertling_manin(bad)
    assert not rep.passed
    comp = [rep.record(n).passed for n in ("base-integrability", "derivative-commutator", "derivative-bracket")]
    assert all(comp[:1])  # the base star alone is integrable
    assert not all(comp)
    assert not rep.record("integrability-oracle").passed
    assert not rep.notes  # both routes agree, so no disagreement note


def test_integrability_oracle_agrees_with_tables_on_random_family():
    rng = rng_for("fman-oracle")
    seen = set()
    for _ in range(8):
        d00 = rand_ratfunc(rng, C21.base_names, 2, with_den=False)
        d01 = rand_ratfunc(rng, C21.base_names, 2, with_den=False)
        c = tilted_plane(str(d00), str(d01))
        rep = check_hertling_manin(c)
        table_verdict = all(
            rep.record(n).passed
            for n in (
                "base-integrability",
                "derivative-commutator",
                "derivative-bracket",
            )
        )
        oracle_verdict = rep.record("integrability-oracle").passed
        assert table_verdict == oracle_verdict
        seen.add(oracle_verdict)
        expected = d00.partial("x2") == d01.partial("x1")
        assert oracle_verdict == expected
    assert seen == {True, False}


def dense_hm_reference(t):
    """The integrability defect by evaluating on every tuple of coordinate frames.

    The same formula as :func:`hm_tensor`, computed densely with
    ``apply_tensor``: the Lie derivative along ``d_x o d_y`` applied to
    ``(d_z, d_v)``, minus ``t(d_x, L_{d_y}(o)(d_z, d_v))`` and
    ``t(d_y, L_{d_x}(o)(d_z, d_v))``.
    """
    chart = t.chart
    dim = chart.dim
    frames = [TensorField.coordinate_field(chart, a) for a in range(dim)]
    lie_f = [lie_derivative(f, t) for f in frames]
    coeffs = {}
    for x, y in product(range(dim), repeat=2):
        lie_w = lie_derivative(apply_tensor(t, frames[x], frames[y]), t)
        for z, v in product(range(dim), repeat=2):
            vec = apply_tensor(lie_w, frames[z], frames[v])
            for a, b in ((x, y), (y, x)):
                inner = apply_tensor(lie_f[b], frames[z], frames[v])
                vec = vec - apply_tensor(t, frames[a], inner)
            for (out,), val in vec.coeffs.items():
                coeffs[(out, x, y, z, v)] = val
    return TensorField(chart, 4, 1, coeffs)


def test_defect_tensor_matches_dense_reference_on_tilted_plane():
    rng = rng_for("fman-hm-dense-tilted")
    cases = [("x2", "x1"), ("x1", "x1")]
    for _ in range(4):
        d00 = rand_ratfunc(rng, C21.base_names, 2)
        d01 = rand_ratfunc(rng, C21.base_names, 2)
        cases.append((str(d00), str(d01)))
    verdicts = set()
    for d00, d01 in cases:
        t = tilted_plane(d00, d01).assemble()
        defect = hm_tensor(t)
        assert defect.coeffs == dense_hm_reference(t).coeffs
        verdicts.add(defect.is_zero())
    assert verdicts == {True, False}


def test_defect_tensor_matches_dense_reference_on_random_tables():
    rng = rng_for("fman-hm-dense-random")
    nonzero = 0
    for trial in range(6):
        n, k = 1 + trial % 2, 1 + (trial // 2) % 2
        chart = Chart.standard(n, k)

        def entry():
            return rand_ratfunc(rng, chart.base_names, 1, with_den=n * k < 4)

        c = MultComponents(
            chart=chart,
            d={key: entry() for key in product(range(k), range(k), range(n), range(n))},
            l={key: entry() for key in product(range(k), range(k), range(n))},
            star={key: entry() for key in product(range(n), repeat=3)},
        )
        t = c.assemble()
        defect = hm_tensor(t)
        assert defect.coeffs == dense_hm_reference(t).coeffs
        nonzero += not defect.is_zero()
    assert nonzero


def test_defect_tensor_matches_dense_reference_on_generalized_prolongation():
    chart = Chart.standard(2, 0)
    star = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    base = BaseFManifold(chart, star, (1, 0))
    prol = generalized_prolongation(base, Connection.zero(chart))
    t = prol.components.assemble()
    defect = hm_tensor(t)
    assert defect.coeffs == dense_hm_reference(t).coeffs
    assert defect.is_zero()


def test_defect_tensor_shares_no_code_with_the_table_residuals(monkeypatch):
    import fmanlin.fman as fman

    def forbidden(*args):
        raise AssertionError("the oracle must not use the table-level operators")

    bad = tilted_plane("x1", "x1")
    t = bad.assemble()
    table_level = ("star_product", "apply_l", "apply_d", "lie_star")
    for name in table_level + ("_vf_apply", "_vf_bracket"):
        monkeypatch.setattr(fman, name, forbidden)
    monkeypatch.setattr(fman._Ctx, "lie_frame", forbidden)
    defect = hm_tensor(t)
    assert not defect.is_zero()
    again = evaluate_residual("integrability-oracle", min(defect.coeffs), bad)
    assert again == defect.coeffs[min(defect.coeffs)]


def test_integrability_oracle_witness_replays():
    bad = tilted_plane("x1", "x1")
    rec = check_hertling_manin(bad).record("integrability-oracle")
    assert not rec.passed
    again = evaluate_residual(rec.name, rec.witness, bad)
    assert not again.is_zero()
    assert str(again) == rec.residual


# The six vector identities as the scalar residuals they replaced: each one
# rebuilds the whole vector at its index tuple and keeps the component idx[0].
# A test-only reference for the memoized vector scans.


def frame(j):
    return {j: RatFunc.one()}


def ref_star_associative(c, idx):
    a, i, j, k = idx
    lhs = star_product(c, star_product(c, frame(i), frame(j)), frame(k))
    rhs = star_product(c, frame(i), star_product(c, frame(j), frame(k)))
    return _vget(lhs, a) - _vget(rhs, a)


def ref_l_composition(c, idx):
    i, j, k, p = idx
    lhs = apply_l(c, k, apply_l(c, p, frame(j)))
    rhs = apply_l_vec(c, star_product(c, frame(k), frame(p)), frame(j))
    return _vget(lhs, i) - _vget(rhs, i)


def ref_second_derivative_symmetric(c, idx):
    i, j, k, p, r = idx
    cur = _symmetrized_second(c, j, k, p, r)
    ref = _symmetrized_second(c, j, *sorted((k, p, r)))
    return _vget(cur, i) - _vget(ref, i)


def ref_base_integrability(c, idx):
    a, i, j, k, p = idx
    x, y, z, v = frame(i), frame(j), frame(k), frame(p)
    out = lie_star(c, star_product(c, x, y), z, v)
    out = _vsub(out, star_product(c, x, lie_star(c, y, z, v)))
    out = _vsub(out, star_product(c, y, lie_star(c, x, z, v)))
    return _vget(out, a)


def ref_derivative_commutator(c, idx):
    i, j, k, p, r = idx
    lhs = apply_d(c, k, p, apply_l(c, r, frame(j)))
    lhs = _vsub(lhs, apply_l(c, r, apply_d(c, k, p, frame(j))))
    deriv = lie_star(c, frame(r), frame(k), frame(p))
    rhs = apply_l_vec(c, deriv, frame(j))
    return _vget(lhs, i) - _vget(rhs, i)


def ref_derivative_bracket(c, idx):
    i, j, x, y, z, v = idx

    def dvec(u, second):
        out = {}
        for a, w in u.items():
            for m in range(c.rank):
                _acc(out, m, w * c.d_at(m, j, a, second))
        return out

    lhs = apply_d(c, z, v, apply_d(c, x, y, frame(j)))
    lhs = _vsub(lhs, apply_d(c, x, y, apply_d(c, z, v, frame(j))))
    prod_xy = star_product(c, frame(x), frame(y))
    rhs = dvec(_vf_bracket(c.chart, prod_xy, frame(z)), v)
    rhs = _vadd(rhs, dvec(_vf_bracket(c.chart, prod_xy, frame(v)), z))
    rhs = _vadd(rhs, dvec(lie_star(c, frame(y), frame(z), frame(v)), x))
    rhs = _vadd(rhs, dvec(lie_star(c, frame(x), frame(z), frame(v)), y))
    return _vget(lhs, i) - _vget(rhs, i)


def reference_scans(c):
    """``name -> (passed, witness, residual)`` by scanning every tuple afresh."""
    n, k = range(c.n), range(c.rank)
    pairs = [(x, y) for x in n for y in n if x <= y]
    bracket = [
        (i, j, *xy, *zv)
        for ia, xy in enumerate(pairs)
        for zv in pairs[ia + 1 :]
        for i in k
        for j in k
    ]
    scans = {
        "star-associative": (ref_star_associative, product(n, n, n, n)),
        "l-composition": (ref_l_composition, product(k, k, n, n)),
        "second-derivative-symmetric": (
            ref_second_derivative_symmetric,
            product(k, k, n, n, n),
        ),
        "base-integrability": (ref_base_integrability, product(n, n, n, n, n)),
        "derivative-commutator": (ref_derivative_commutator, product(k, k, n, n, n)),
        "derivative-bracket": (ref_derivative_bracket, bracket),
    }
    out = {}
    for name, (fn, tuples) in scans.items():
        out[name] = (True, None, None)
        for idx in tuples:
            val = fn(c, idx)
            if not val.is_zero():
                out[name] = (False, idx, str(val))
                break
    return out


def random_sparse_components(rng, n, k, first_output=0):
    """Random tables whose entries are nonzero with probability 1/3.

    Entries with an output index below ``first_output`` stay zero, so that
    the residuals can vanish at output index 0 and fail at a later one.
    """
    chart = Chart.standard(n, k)

    def table(keys):
        return {
            key: rand_ratfunc(rng, chart.base_names, 1, with_den=n * k < 4)
            for key in keys
            if key[0] >= first_output and rng.random() < 1 / 3
        }

    return MultComponents(
        chart=chart,
        d=table(product(range(k), range(k), range(n), range(n))),
        l=table(product(range(k), range(k), range(n))),
        star=table(product(range(n), repeat=3)),
    )


def test_vector_scans_match_per_tuple_reference():
    plane_c, _ = plane_example()
    base = BaseFManifold(
        Chart.standard(2, 0), {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}, (1, 0)
    )
    curved = BaseFManifold(
        Chart.standard(2, 0),
        {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): rf("1/(x2 + 1)")},
        (1, 0),
    )
    cases = [
        line_example()[0],
        plane_c,
        MultComponents(C21, plane_c.d, {(0, 0, 0): 1, (0, 0, 1): 1}, plane_c.star),
        tilted_plane("x2", "x1"),
        tilted_plane("x1", "x1"),
        generalized_prolongation(base, Connection.zero(base.chart)).components,
        tangent_prolongation(curved).components,
    ]
    rng = rng_for("fman-vector-scans")
    for _ in range(3):
        d00, d01 = (rand_ratfunc(rng, C21.base_names, 2) for _ in range(2))
        cases.append(tilted_plane(str(d00), str(d01)))
    for trial in range(8):
        cases.append(random_sparse_components(rng, 1 + trial % 2, 1 + trial // 4))
    for _ in range(3):
        cases.append(random_sparse_components(rng, 2, 2, first_output=1))
    passed, failed, outputs = set(), set(), set()
    for c in cases:
        rep = Report("vector scans")
        _run_into(rep, _Ctx(c), _ASSOCIATIVITY)
        _hm_into(rep, _Ctx(c))
        for name, want in reference_scans(c).items():
            rec = rep.record(name)
            assert (rec.passed, rec.witness, rec.residual) == want, name
            if rec.passed:
                passed.add(name)
                continue
            failed.add(name)
            outputs.add(rec.witness[0])
            again = evaluate_residual(name, rec.witness, c)
            assert str(again) == rec.residual
    assert passed == failed == set(VECTOR_RECORDS)
    assert outputs == {0, 1}


def test_defect_tensor_is_fiberwise_linear():
    bad = tilted_plane("x1", "x1")
    defect = hm_tensor(bad.assemble())
    assert not defect.is_zero()
    assert scaling_class(defect) == "linear"


def test_euler_field_on_line_example():
    c, e = line_example()
    euler = LinearVectorField(C11, (rf("x1 + 5", C11),), ((1,),))
    rep = check_euler(c, e, euler)
    assert rep.passed, rep.render()


def test_euler_field_on_plane_example():
    c, e = plane_example()
    euler = LinearVectorField(C21, (rf("x1"), rf("x2/3")), ((0,),))
    rep = check_euler(c, e, euler)
    assert rep.passed, rep.render()


def test_euler_failure_has_reproducible_witness():
    c, e = plane_example()
    bogus = LinearVectorField(C21, (rf("x1"), rf("x2")), ((0,),))
    rep = check_euler(c, e, bogus)
    failed = [r for r in rep.records if not r.passed]
    assert failed[0] is rep.first_failure()
    assert "euler-oracle" in [r.name for r in failed]
    for rec in failed:
        again = evaluate_residual(rec.name, rec.witness, c, e=e, euler=bogus)
        assert str(again) == rec.residual


def test_euler_side_failure_witness():
    c, e = plane_example()
    euler = LinearVectorField(C21, (rf("2*x1"), rf("x2")), ((0,),))
    rec = check_euler(c, e, euler).record("euler-side")
    assert (rec.passed, rec.witness, rec.residual) == (False, (0, 0, 0), "1")
    again = evaluate_residual(rec.name, rec.witness, c, e=e, euler=euler)
    assert str(again) == rec.residual


# The two Euler vector identities as the scalar residuals they replaced: each
# rebuilds the whole Lie-derivative entry at its index tuple and keeps the
# component idx[0].  A test-only reference for the memoized vector scans.


def ref_euler_side(c, euler, idx):
    i, j, k = idx
    return _vget(_lie_l_entry(c, euler, j, k), i) - c.l_at(i, j, k)


def ref_euler_derivative(c, euler, idx):
    i, j, k, p = idx
    return _vget(_lie_d_entry(c, euler, j, k, p), i) - c.d_at(i, j, k, p)


def reference_euler_scans(c, euler):
    n, k = range(c.n), range(c.rank)
    scans = {
        "euler-side": (ref_euler_side, product(k, k, n)),
        "euler-derivative": (ref_euler_derivative, product(k, k, n, n)),
    }
    out = {}
    for name, (fn, tuples) in scans.items():
        out[name] = (True, None, None)
        for idx in tuples:
            val = fn(c, euler, idx)
            if not val.is_zero():
                out[name] = (False, idx, str(val))
                break
    return out


def test_euler_vector_scans_match_per_tuple_reference():
    bent = BaseFManifold(
        Chart.standard(2, 0),
        {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (0, 1, 1): rf("x2")},
        (1, 0),
    )
    prol = tangent_prolongation(bent)
    packages = [
        line_example(),
        plane_example(),
        plane_example("x2^2 + 1"),
        (prol.components, prol.unit),
    ]
    rng = rng_for("fman-euler-vector-scans")
    passed, failed, outputs = set(), set(), set()
    for c, e in packages:
        chart = c.chart
        candidates = [
            tuple(rf(t, chart) for t in chart.base_names),
            tuple(rf(f"{t}/{a + 1}", chart) for a, t in enumerate(chart.base_names)),
        ]
        for _ in range(2):
            candidates.append(
                tuple(
                    rand_ratfunc(rng, chart.base_names, 1, with_den=False)
                    for _ in range(c.n)
                )
            )
        for beta in candidates:
            for scale in (0, 1):
                lam = tuple(
                    tuple(RatFunc.coerce(scale if i == j else 0) for j in range(c.rank))
                    for i in range(c.rank)
                )
                euler = LinearVectorField(chart, beta, lam)
                rep = check_euler(c, e, euler)
                for name, want in reference_euler_scans(c, euler).items():
                    rec = rep.record(name)
                    assert (rec.passed, rec.witness, rec.residual) == want, name
                    if rec.passed:
                        passed.add(name)
                        continue
                    failed.add(name)
                    outputs.add(rec.witness[0])
                    again = evaluate_residual(name, rec.witness, c, e=e, euler=euler)
                    assert str(again) == rec.residual
    assert passed == failed == {"euler-side", "euler-derivative"}
    assert max(outputs) > 0


def test_nonlinear_candidates_are_rejected_at_construction():
    with pytest.raises(ValueError, match="fiber"):
        LinearVectorField(C11, (1,), ((rf("xi1", C11),),))
    with pytest.raises(ValueError, match="fiber"):
        LinearVectorField(C11, (rf("xi1", C11),), ((0,),))


def test_lie_components_match_tensor_lie_derivative():
    rng = rng_for("fman-lie")
    c, e = plane_example()
    t = c.assemble()
    for _ in range(6):
        beta = tuple(rand_ratfunc(rng, C21.base_names, 1, with_den=False) for _ in range(2))
        lam = ((rand_ratfunc(rng, C21.base_names, 1, with_den=False),),)
        x = LinearVectorField(C21, beta, lam)
        dt, lt, rt = lie_components(c, x)
        comps = extract_components(lie_derivative(x.as_field(), t))
        assert table_eq(dt, comps.d)
        assert table_eq(lt, comps.ls[0])
        assert table_eq(lt, comps.ls[1])
        assert table_eq(rt, comps.basic)


def test_lie_components_trivial_cases():
    c, e = plane_example()
    dt, lt, rt = lie_components(c, LinearVectorField.zero(C21))
    assert not dt and not lt and not rt
    # along the unit field the base product is preserved
    _, _, rt = lie_components(c, e)
    assert not rt


def test_base_extraction():
    c, e = plane_example()
    base = check_base(c, e)
    assert base.chart.k == 0
    assert base.unit == (RatFunc.one(), RatFunc.zero())
    assert base.verify().passed
    prod = star_product(
        base.as_components(), {1: RatFunc.one()}, {1: RatFunc.one()}
    )
    assert prod == {}  # dx2 * dx2 = 0 downstairs
    with pytest.raises(ValueError):
        check_base(c, None)
    broken = MultComponents(chart=C21, d={}, l={}, star={(0, 0, 1): rf("x1")})
    with pytest.raises(PreconditionError):
        check_base(broken, e)


def test_unit_contraction_identity():
    # sum_j dxi^j(e) s_j = -sum_j xi^j Delta_e s_j for fiberwise-linear e
    rng = rng_for("fman-e-ajut")
    chart = Chart.standard(2, 2)
    for _ in range(5):
        beta = tuple(rand_ratfunc(rng, chart.base_names, 1, with_den=False) for _ in range(2))
        lam = tuple(
            tuple(rand_ratfunc(rng, chart.base_names, 1, with_den=False) for _ in range(2))
            for _ in range(2)
        )
        e = LinearVectorField(chart, beta, lam)
        field = e.as_field()
        lhs = {j: field.vector_components()[chart.n + j] for j in range(chart.k)}
        rhs = {}
        for k in range(chart.k):
            xi_k = RatFunc.variable(chart.fiber_names[k])
            for j, val in apply_delta(e, {k: RatFunc.one()}).items():
                rhs[j] = rhs.get(j, RatFunc.zero()) - xi_k * val
        assert all(lhs.get(j, RatFunc.zero()) == rhs.get(j, RatFunc.zero()) for j in range(chart.k))


def test_from_tensor_round_trip():
    for c, _ in (line_example(), plane_example()):
        assert MultComponents.from_tensor(c.assemble()) == c


def test_base_manifold_battery_reuse():
    base = BaseFManifold(
        chart=Chart.standard(2, 0),
        star={(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1},
        unit=(1, 0),
    )
    rep = base.verify()
    assert rep.passed
    # base-only data still runs the full record set; fiber checks are vacuous
    assert [r.name for r in rep.records] == BATTERY_RECORDS
    skew = BaseFManifold(
        chart=Chart.standard(2, 0), star={(0, 0, 1): rf("x1")}, unit=(1, 0)
    )
    assert not skew.verify().passed


def test_lie_star_is_tensorial_in_its_arguments():
    c, _ = plane_example()
    one = RatFunc.one()
    w = {0: rf("x1*x2"), 1: rf("x2")}
    # L_w(*) is a tensor: scaling an argument scales the value, with no
    # derivative coupling
    direct = lie_star(c, w, {0: one}, {1: rf("x1")})
    plain = lie_star(c, w, {0: one}, {1: one})
    scaled = {a: val * rf("x1") for a, val in plain.items()}
    assert direct == {a: v for a, v in scaled.items() if not v.is_zero()}


# -- declarations, stages and preconditions --------------------------------------


def failing_inputs():
    """One ``(components, context keywords)`` per declared identity, failing it."""
    c, e = plane_example()
    euler = LinearVectorField(C21, (rf("2*x1"), rf("x2")), ((0,),))
    skew = MultComponents(C21, d={}, l={}, star={(0, 0, 1): rf("x1")})
    side = MultComponents(C21, d={}, l={(0, 0, 1): 1}, star={})
    no_unit = MultComponents(
        C21, d={}, l={}, star={(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}
    )
    bent_l = MultComponents(C21, d=c.d, l={(0, 0, 0): 1, (0, 0, 1): 1}, star=c.star)
    bent_d = MultComponents(
        C21, d={(0, 0, 0, 0): rf("x1")}, l={(0, 0, 1): 1}, star=c.star
    )
    curved = MultComponents(C21, d={}, l={}, star={**c.star, (0, 1, 1): rf("x1")})
    moving_l = MultComponents(
        C11, d={}, l={(0, 0, 0): rf("x1", C11)}, star={(0, 0, 0): 1}
    )
    tilted = tilted_plane("x1", "x1")
    return {
        "side-tables-equal": (side, {"l2": {}}),
        "star-symmetric": (skew, {}),
        "derivative-symmetric": (
            MultComponents(C21, d={(0, 0, 0, 1): rf("x1")}, l={}, star={}),
            {},
        ),
        "star-associative": (no_unit, {}),
        "l-composition": (bent_l, {}),
        "second-derivative-symmetric": (bent_d, {}),
        "unit-star": (c, {"e": LinearVectorField.zero(C21)}),
        "unit-side": (c, {"e": LinearVectorField.zero(C21)}),
        "unit-derivative": (c, {"e": LinearVectorField(C21, (1, 0), ((1,),))}),
        "base-integrability": (curved, {}),
        "derivative-commutator": (moving_l, {}),
        "derivative-bracket": (tilted, {}),
        "integrability-oracle": (tilted, {}),
        "euler-base": (c, {"e": e, "euler": euler}),
        "euler-side": (c, {"e": e, "euler": euler}),
        "euler-derivative": (c, {"e": e, "euler": euler}),
        "euler-components": (c, {"e": e, "euler": euler}),
        "euler-oracle": (c, {"e": e, "euler": euler}),
    }


def test_every_declared_identity_is_staged_fails_and_replays():
    import fmanlin.fman as fman

    stages = (
        fman._COMMUTATIVITY,
        fman._ASSOCIATIVITY,
        fman._UNIT,
        fman._INTEGRABILITY,
        fman._EULER,
    )
    staged = [name for stage in stages for name in stage]
    assert len(staged) == len(set(staged))
    assert set(staged) == set(fman._IDENTITIES)
    for name, ident in fman._IDENTITIES.items():
        assert ident.kind in ("scalar", "vector", "oracle"), name
        assert (ident.kind == "oracle") == (ident.space == ""), name
    cases = failing_inputs()
    assert set(cases) == set(fman._IDENTITIES)
    for name, (c, kw) in cases.items():
        rep = Report(name)
        assert not fman._scan(rep, fman._Ctx(c, **kw), name), name
        rec = rep.first_failure()
        assert rec.law == fman._IDENTITIES[name].law
        again = evaluate_residual(name, rec.witness, c, **kw)
        assert not again.is_zero(), name
        assert str(again) == rec.residual, name


def test_preconditions_are_scanned_once(monkeypatch):
    import fmanlin.fman as fman

    scans = []
    real = fman._scan

    def counting(rep, ctx, name):
        scans.append(name)
        return real(rep, ctx, name)

    monkeypatch.setattr(fman, "_scan", counting)
    c, e = line_example()
    for check in (lambda: check_unit(c, e), lambda: check_hertling_manin(c)):
        scans.clear()
        assert check().passed
        assert scans.count("side-tables-equal") == 1
        assert scans.count("star-associative") == 1


def test_euler_and_base_extraction_name_their_precondition():
    skew = MultComponents(C21, d={}, l={}, star={(0, 0, 1): rf("x1")})
    c, e = plane_example()
    euler = LinearVectorField(C21, (rf("x1"), rf("x2")), ((1,),))
    for check, what in (
        (lambda: check_euler(skew, e, euler), "the euler check"),
        (lambda: check_base(skew, e), "base extraction"),
    ):
        with pytest.raises(PreconditionError) as info:
            check()
        assert str(info.value) == (
            f"{what} requires multiplication battery to pass; "
            "star-symmetric fails at (0, 0, 1)"
        )
        assert info.value.report.title == "multiplication battery"
