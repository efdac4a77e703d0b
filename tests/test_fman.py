"""Battery checks for fiberwise-linear multiplications."""

from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest

from conftest import rand_ratfunc, rng_for
from fmanlin.fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    PreconditionError,
    _ASSOCIATIVITY,
    _Ctx,
    _hm_into,
    _run_into,
    check_associative,
    check_battery,
    check_commutative,
    check_euler,
    check_hertling_manin,
    check_unit,
    evaluate_residual,
    hm_tensor,
    star_product,
)
from fmanlin.duality import Connection, regular_connection
from fmanlin.prolong import generalized_prolongation, tangent_prolongation
from fmanlin.report import Report
from fmanlin.symcore import RatFunc, parse_expr
from fmanlin.tensor import (
    Chart,
    TensorField,
    _acc,
    _vadd,
    _vsub,
    contract,
    extract_components,
    lie_derivative,
    scaling_class,
)
from references import (
    Section,
    _verify_leibniz,
    _vf_bracket,
    _vget,
    apply_d,
    apply_delta,
    apply_l,
    apply_l_vec,
    lie_components,
    lie_d_entry,
    lie_l_entry,
    lie_star,
    reference_components,
    vertical_lift,
)

C11 = Chart.standard(1, 1)
C21 = Chart.standard(2, 1)

FRAME_RECORDS = [
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


def apply(t, u, v):
    """The (2,1) tensor ``t`` evaluated on the vector fields ``(u, v)``."""
    return contract(contract(t, 0, u), 0, v)


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
    dx2 = TensorField(C21, 0, 1, {(1,): 1})
    lift = vertical_lift(Section.frame(C21, 0))
    lhs = apply(t, apply(t, dx2, dx2), lift)
    rhs = apply(t, dx2, apply(t, dx2, lift))
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
    dx = TensorField(C11, 0, 1, {(0,): 1})
    prod = apply(t, e2.as_field(), dx)
    assert prod == TensorField.vector(C11, [rf("1", C11), rf("xi1", C11)])
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
    :func:`apply`: the Lie derivative along ``d_x o d_y`` applied to
    ``(d_z, d_v)``, minus ``t(d_x, L_{d_y}(o)(d_z, d_v))`` and
    ``t(d_y, L_{d_x}(o)(d_z, d_v))``.
    """
    chart = t.chart
    dim = chart.dim
    frames = [TensorField(chart, 0, 1, {(a,): 1}) for a in range(dim)]
    lie_f = [lie_derivative(f, t) for f in frames]
    coeffs = {}
    for x, y in product(range(dim), repeat=2):
        lie_w = lie_derivative(apply(t, frames[x], frames[y]), t)
        for z, v in product(range(dim), repeat=2):
            vec = apply(lie_w, frames[z], frames[v])
            for a, b in ((x, y), (y, x)):
                inner = apply(lie_f[b], frames[z], frames[v])
                vec = vec - apply(t, frames[a], inner)
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
    # the connection of a bent Euler field has a rational Christoffel entry
    bent = regular_connection(base, (rf("x1 + 5", chart), rf("x2^2 + 1", chart)))
    assert bent.gamma
    for nabla in (Connection.zero(chart), bent):
        prol = generalized_prolongation(base, nabla)
        t = prol.components.assemble()
        defect = hm_tensor(t)
        assert defect.coeffs == dense_hm_reference(t).coeffs
        assert defect.is_zero()


def square_zero_base(n, p=None):
    """e_0 is the unit and e_i * e_j = 0 for i, j >= 1, except e_1 * e_1 = p e_{n-1}."""
    chart = Chart.standard(n, 0)
    star = {(0, 0, 0): 1}
    for i in range(1, n):
        star[(i, 0, i)] = star[(i, i, 0)] = 1
    if p is not None:
        star[(n - 1, 1, 1)] = parse_expr(p, chart.names)
    return BaseFManifold(chart, star, (1,) + (0,) * (n - 1))


def test_defect_tensor_matches_dense_reference_on_tangent_prolongation():
    # e1*e1 = p*e_{n-1} with p = 2/(x_n + 3): the prolonged coefficients have
    # nonzero partials, so every term of the sparse form acts
    for n in (2, 3):
        base = square_zero_base(n, f"2/(x{n} + 3)")
        t = tangent_prolongation(base).components.assemble()
        assert hm_tensor(t).coeffs == dense_hm_reference(t).coeffs


def test_summed_tensors_equal_their_checked_construction():
    # `assemble` and `hm_tensor` hand the dicts they sum to the tensor
    # unchecked (`TensorField._summed`).  On the tables of the dense defect
    # references above and on seeded random tables, the checked constructor
    # on the same entries gives the same tensor, with canonical values
    chart = Chart.standard(2, 0)
    base = BaseFManifold(chart, {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}, (1, 0))
    bent = regular_connection(base, (rf("x1 + 5", chart), rf("x2^2 + 1", chart)))
    cases = [tilted_plane("x2", "x1"), tilted_plane("x1", "x1")]
    for nabla in (Connection.zero(chart), bent):
        cases.append(generalized_prolongation(base, nabla).components)
    for n in (2, 3):
        cases.append(tangent_prolongation(square_zero_base(n, f"2/(x{n} + 3)")).components)
    rng = rng_for("fman-summed-pass-through")
    for _ in range(3):
        d00, d01 = (rand_ratfunc(rng, C21.base_names, 2) for _ in range(2))
        cases.append(tilted_plane(str(d00), str(d01)))
    for trial in range(8):
        cases.append(random_sparse_components(rng, 1 + trial % 2, 1 + trial // 4))
    defects = 0
    for c in cases:
        t = c.assemble()
        defect = hm_tensor(t)
        defects += not defect.is_zero()
        for summed in (t, defect):
            assert TensorField(summed.chart, summed.p, summed.q, dict(summed.coeffs)) == summed
            assert all(RatFunc(v.num, v.den) == v for v in summed.coeffs.values())
    assert defects


def test_mutation_check_reaches_every_term():
    # `tests/mutate.py` flips and drops the sign of each term of `fman`: every
    # residual map writes signed terms itself or through a helper the harness
    # mutates, and every function it names exists
    import ast

    import fmanlin.fman as fman
    import mutate

    with open(fman.__file__, encoding="utf-8") as source:
        fns = {fn.name: fn for fn in mutate.targets(ast.parse(source.read()))}
    assert set(mutate.HELPERS + mutate.OTHERS) <= set(fns)
    assert sum(name.startswith("_map_") for name in fns) == 15
    for name, fn in fns.items():
        calls = {
            node.func.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert mutate.sign_sites(fn) or calls & set(mutate.HELPERS), name


def test_defect_tensor_refuses_a_tensor_that_is_not_2_1():
    chart = Chart.standard(2, 0)
    shapes = ((3, 0, (0, 1, 1)), (1, 1, (0, 1)), (2, 0, (0, 1)), (3, 1, (0, 1, 1, 0)))
    for p, q, key in shapes:
        with pytest.raises(ValueError, match=r"\(2,1\) tensor"):
            hm_tensor(TensorField(chart, p, q, {key: 1}))


def test_defect_tensor_takes_no_lie_derivative(monkeypatch):
    import fmanlin.fman as fman
    import fmanlin.tensor as tensor

    def forbidden(*args):
        raise AssertionError("the defect must not take a Lie derivative")

    t = tilted_plane("x1", "x1").assemble()
    want = dense_hm_reference(t)
    monkeypatch.setattr(fman, "lie_derivative", forbidden)
    monkeypatch.setattr(tensor, "lie_derivative", forbidden)
    defect = hm_tensor(t)
    assert not defect.is_zero()
    assert defect.coeffs == want.coeffs


def test_defect_tensor_shares_no_code_with_the_table_residuals(monkeypatch):
    import fmanlin.fman as fman

    def forbidden(*args):
        raise AssertionError("the oracle must not use the table-level operators")

    bad = tilted_plane("x1", "x1")
    c, e = plane_example()
    bogus = LinearVectorField(C21, (rf("x1"), rf("x2")), ((0,),))
    t = bad.assemble()
    table_level = ("star_product",)
    compiled = ("_Rows", "_compile")
    maps = [name for name in vars(fman) if name.startswith("_map_")]
    assert len(maps) == 15
    shared = (
        "_by",
        "_by_out",
        "_partials",
        "_swap_difference",
        "_unit_action",
        "_euler_transport",
        "_lam_terms",
    )
    for name in table_level + compiled + shared + tuple(maps):
        monkeypatch.setattr(fman, name, forbidden)
    # there is no frame memo to fill and no frame Lie derivative to take
    assert not hasattr(fman, "_Memo") and not hasattr(fman._Ctx, "lie_at")
    guarded = 0
    for name, ident in fman._IDENTITIES.items():
        if ident.space:  # a table identity, guarded whole
            monkeypatch.setitem(
                fman._IDENTITIES, name, fman._Identity(ident.law, ident.space, forbidden)
            )
            guarded += 1
    assert guarded == len(maps)
    defect = hm_tensor(t)
    assert not defect.is_zero()
    again = evaluate_residual("integrability-oracle", min(defect.coeffs), bad)
    assert again == defect.coeffs[min(defect.coeffs)]
    # the two Euler oracles read the assembled tensor too
    for name in ("euler-components", "euler-oracle"):
        rep = Report(name)
        assert not fman._scan(rep, fman._Ctx(c, e=e, euler=bogus), name)


def test_frame_identities_read_rows_and_constants_take_no_calculus(monkeypatch):
    import fmanlin.fman as fman

    real_partial, real_star = RatFunc.partial, star_product
    partials, frame_pairs = [], []

    def is_frame(u):
        return len(u) == 1 and next(iter(u.values())) == RatFunc.one()

    def counting_partial(f, name):
        partials.append(f)
        return real_partial(f, name)

    def counting_star(c, u, v):
        if is_frame(u) and is_frame(v):
            frame_pairs.append((u, v))
        return real_star(c, u, v)

    base = square_zero_base(3)
    prol = generalized_prolongation(base, Connection.zero(base.chart))
    with monkeypatch.context() as m:
        m.setattr(RatFunc, "partial", counting_partial)
        m.setattr(fman, "star_product", counting_star)
        assert check_battery(prol.components, prol.unit).passed
    # every table entry is constant: no partials, and no product of two frames
    assert partials == [] and frame_pairs == []

    # a nonconstant product: the identities read the partials of its
    # entries, never of a constant one, and apply no vector field (`fman`
    # has no way to apply one)
    prol = tangent_prolongation(square_zero_base(3, "2/(x3 + 3)"))
    with monkeypatch.context() as m:
        m.setattr(RatFunc, "partial", counting_partial)
        assert check_battery(prol.components, prol.unit).passed
    assert partials and not [f for f in partials if f.is_const()]
    assert not hasattr(fman, "_vf_apply")


@pytest.mark.parametrize(
    "text, refused",
    [
        ("xi1", True),
        ("x1*xi1", True),
        ("1/xi1", True),
        ("x1/(x2 + xi1)", True),  # the fiber coordinate only in the denominator
        ("0", False),
        ("3/2", False),
        ("x1", False),
        ("1/(x1 + 1)", False),
    ],
)
def test_fiber_coordinates_are_refused_wherever_base_values_are_read(
    tmp_path, capsys, text, refused
):
    from fmanlin.cli import main

    value = rf(text)
    builds = [
        lambda: LinearVectorField(C21, (value, 0), ((0,),)),
        lambda: LinearVectorField(C21, (1, 0), ((value,),)),
        lambda: MultComponents(chart=C21, d={}, l={(0, 0, 0): value}, star={}),
        lambda: MultComponents(chart=C21, d={(0, 0, 1, 1): value}, l={}, star={}),
    ]
    for build in builds:
        if refused:
            with pytest.raises(ValueError, match="must not involve fiber coordinates"):
                build()
        else:
            build()
    model = tmp_path / "candidate.fman"
    model.write_text(
        "[chart]\nbase = x1 x2\nfiber = xi1\n\n[star]\n0 0 0 = 1\n\n[l]\n0 0 0 = 1\n\n"
        f"[unit]\nbeta 0 = 1\n\n[euler.E]\nbeta 0 = x1\nlambda 0 0 = {text}\n"
    )
    code = main(["euler-check", str(model), "--candidate", "E"])
    assert (code == 2) == refused
    assert ("must not involve fiber coordinates" in capsys.readouterr().err) == refused


def test_integrability_oracle_witness_replays():
    bad = tilted_plane("x1", "x1")
    rec = check_hertling_manin(bad).record("integrability-oracle")
    assert not rec.passed
    again = evaluate_residual(rec.name, rec.witness, bad)
    assert not again.is_zero()
    assert str(again) == rec.residual


# Every table identity as a scalar residual at one index tuple, through the
# frame operators: the frame-valued ones rebuild the whole vector at the tuple
# and keep the component idx[0].  Evaluated over the whole space, a test-only
# dense reference for the residual maps.


def ref_side_tables(ctx, idx):
    other = ctx.c.l if ctx.l2 is None else ctx.l2
    return ctx.c.l_at(*idx) - other.get(idx, RatFunc.zero())


def ref_star_symmetric(ctx, idx):
    a, i, j = idx
    return ctx.c.star_at(a, i, j) - ctx.c.star_at(a, j, i)


def ref_derivative_symmetric(ctx, idx):
    i, j, k, p = idx
    return ctx.c.d_at(i, j, k, p) - ctx.c.d_at(i, j, p, k)


def frame(j):
    return {j: RatFunc.one()}


def ref_star_associative(ctx, idx):
    c = ctx.c
    a, i, j, k = idx
    lhs = star_product(c, star_product(c, frame(i), frame(j)), frame(k))
    rhs = star_product(c, frame(i), star_product(c, frame(j), frame(k)))
    return _vget(lhs, a) - _vget(rhs, a)


def ref_l_composition(ctx, idx):
    c = ctx.c
    i, j, k, p = idx
    lhs = apply_l(c, k, apply_l(c, p, frame(j)))
    rhs = apply_l_vec(c, star_product(c, frame(k), frame(p)), frame(j))
    return _vget(lhs, i) - _vget(rhs, i)


def symmetrized_second(c, i, j, k, p, r):
    """``(l_{d_r}(D_{d_k,d_p} s_j) + D_{d_k*d_p,d_r} s_j)^i``, by table lookups."""
    out = RatFunc.zero()
    for m in range(c.rank):
        out = out + c.d_at(m, j, k, p) * c.l_at(i, m, r)
    for a in range(c.n):
        out = out + c.star_at(a, k, p) * c.d_at(i, j, a, r)
    return out


def ref_second_derivative_symmetric(ctx, idx):
    c = ctx.c
    i, j, k, p, r = idx
    cur = symmetrized_second(c, i, j, k, p, r)
    return cur - symmetrized_second(c, i, j, *sorted((k, p, r)))


def ref_base_integrability(ctx, idx):
    c = ctx.c
    a, i, j, k, p = idx
    x, y, z, v = frame(i), frame(j), frame(k), frame(p)
    out = lie_star(c, star_product(c, x, y), z, v)
    out = _vsub(out, star_product(c, x, lie_star(c, y, z, v)))
    out = _vsub(out, star_product(c, y, lie_star(c, x, z, v)))
    return _vget(out, a)


def ref_derivative_commutator(ctx, idx):
    c = ctx.c
    i, j, k, p, r = idx
    lhs = apply_d(c, k, p, apply_l(c, r, frame(j)))
    lhs = _vsub(lhs, apply_l(c, r, apply_d(c, k, p, frame(j))))
    deriv = lie_star(c, frame(r), frame(k), frame(p))
    rhs = apply_l_vec(c, deriv, frame(j))
    return _vget(lhs, i) - _vget(rhs, i)


def ref_derivative_bracket(ctx, idx):
    c = ctx.c
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


def ref_unit_star(ctx, idx):
    a, k = idx
    prod = star_product(ctx.c, ctx.e.base_vec(), frame(k))
    return _vget(prod, a) - (RatFunc.one() if a == k else RatFunc.zero())


def ref_unit_side(ctx, idx):
    i, j = idx
    out = apply_l_vec(ctx.c, ctx.e.base_vec(), frame(j))
    return _vget(out, i) - (RatFunc.one() if i == j else RatFunc.zero())


def ref_unit_derivative(ctx, idx):
    i, j, k = idx
    c = ctx.c
    lhs = apply_l(c, k, apply_delta(ctx.e, frame(j)))
    rhs = RatFunc.zero()
    for p, w in ctx.e.base_vec().items():
        rhs = rhs + w * c.d_at(i, j, p, k)
    return _vget(lhs, i) - rhs


def ref_euler_base(ctx, idx):
    a, i, j = idx
    c = ctx.c
    lhs = lie_star(c, ctx.euler.base_vec(), frame(i), frame(j))
    rhs = star_product(c, frame(i), frame(j))
    return _vget(lhs, a) - _vget(rhs, a)


def dense_tuples(c, space):
    """Every index tuple of a declared index space, in the order of its scan."""
    n, k = range(c.n), range(c.rank)
    if space == "bracket":
        pairs = [(x, y) for x in n for y in n if x <= y]
        return [
            (i, j, *xy, *zv)
            for ia, xy in enumerate(pairs)
            for zv in pairs[ia + 1 :]
            for i in k
            for j in k
        ]
    return list(product(*({"k": k, "n": n}[s] for s in space)))


def dense_residuals(ctx, name):
    """The nonzero ``(idx, residual)`` of a record, evaluating every tuple afresh."""
    import fmanlin.fman as fman

    ref = REFERENCES[name]
    for idx in dense_tuples(ctx.c, fman._IDENTITIES[name].space):
        val = ref(ctx, idx)
        if not val.is_zero():
            yield idx, val


def dense_scan(ctx, name):
    """``(passed, witness, residual)`` of the first nonzero dense residual."""
    for idx, val in dense_residuals(ctx, name):
        return False, idx, str(val)
    return True, None, None


def reference_scans(c):
    """``name -> (passed, witness, residual)`` for the six unit-free records."""
    return {name: dense_scan(_Ctx(c), name) for name in FRAME_RECORDS}


def random_sparse_components(rng, n, k, first_output=0, entry=None):
    """Random tables whose entries are nonzero with probability 1/3.

    Entries with an output index below ``first_output`` stay zero, so that
    the residuals can vanish at output index 0 and fail at a later one.
    ``entry(rng, base names)`` draws an entry; by default a random rational
    function of degree 1.
    """
    chart = Chart.standard(n, k)

    def draw():
        if entry is not None:
            return entry(rng, chart.base_names)
        return rand_ratfunc(rng, chart.base_names, 1, with_den=n * k < 4)

    def table(keys):
        return {
            key: draw()
            for key in keys
            if key[0] >= first_output and rng.random() < 1 / 3
        }

    return MultComponents(
        chart=chart,
        d=table(product(range(k), range(k), range(n), range(n))),
        l=table(product(range(k), range(k), range(n))),
        star=table(product(range(n), repeat=3)),
    )


def test_table_scans_match_per_tuple_reference():
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
        rep = Report("table scans")
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
    assert passed == failed == set(FRAME_RECORDS)
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


@pytest.mark.parametrize("beta2, passes", [("x2/3", True), ("x2", False)])
def test_euler_report_assembles_and_differentiates_once(monkeypatch, beta2, passes):
    import fmanlin.fman as fman

    c, e = plane_example()
    euler = LinearVectorField(C21, (rf("x1"), rf(beta2)), ((0,),))
    calls = {"assemble": 0, "lie_derivative": 0}
    assembled = []

    def assemble(self):
        calls["assemble"] += 1
        assembled.append(original_assemble(self))
        return assembled[-1]

    def lie_derivative(x, t):
        if any(t is a for a in assembled):
            calls["lie_derivative"] += 1
        return original_lie(x, t)

    original_assemble, original_lie = MultComponents.assemble, fman.lie_derivative
    monkeypatch.setattr(MultComponents, "assemble", assemble)
    monkeypatch.setattr(fman, "lie_derivative", lie_derivative)
    rep = fman._euler_report(c, e, euler)
    assert rep.record("euler-components") and rep.record("euler-oracle")
    assert rep.passed == passes
    assert calls == {"assemble": 1, "lie_derivative": 1}


def test_euler_side_failure_witness():
    c, e = plane_example()
    euler = LinearVectorField(C21, (rf("2*x1"), rf("x2")), ((0,),))
    rec = check_euler(c, e, euler).record("euler-side")
    assert (rec.passed, rec.witness, rec.residual) == (False, (0, 0, 0), "1")
    again = evaluate_residual(rec.name, rec.witness, c, e=e, euler=euler)
    assert str(again) == rec.residual


# The two fiber Euler identities as scalar residuals: each rebuilds the whole
# Lie-derivative entry at its index tuple through the frame operators
# (`references.lie_l_entry`, `references.lie_d_entry`) and keeps the
# component idx[0].  A test-only reference for their residual maps.


def ref_euler_side(ctx, idx):
    c, euler = ctx.c, ctx.euler
    i, j, k = idx
    return _vget(lie_l_entry(c, euler, j, k), i) - c.l_at(i, j, k)


def ref_euler_derivative(ctx, idx):
    c, euler = ctx.c, ctx.euler
    i, j, k, p = idx
    return _vget(lie_d_entry(c, euler, j, k, p), i) - c.d_at(i, j, k, p)


def reference_euler_scans(c, euler):
    ctx = _Ctx(c, euler=euler)
    return {name: dense_scan(ctx, name) for name in ("euler-side", "euler-derivative")}


REFERENCES = {
    "side-tables-equal": ref_side_tables,
    "star-symmetric": ref_star_symmetric,
    "derivative-symmetric": ref_derivative_symmetric,
    "star-associative": ref_star_associative,
    "l-composition": ref_l_composition,
    "second-derivative-symmetric": ref_second_derivative_symmetric,
    "unit-star": ref_unit_star,
    "unit-side": ref_unit_side,
    "unit-derivative": ref_unit_derivative,
    "base-integrability": ref_base_integrability,
    "derivative-commutator": ref_derivative_commutator,
    "derivative-bracket": ref_derivative_bracket,
    "euler-base": ref_euler_base,
    "euler-side": ref_euler_side,
    "euler-derivative": ref_euler_derivative,
}


def test_euler_scans_match_per_tuple_reference():
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


# -- whole residual maps -------------------------------------------------------


def sparse_entry(rng, names):
    """A nonzero constant, an affine function of one coordinate or 1/(x + b)."""
    kind = rng.randrange(3)
    if kind == 0:
        return RatFunc.const(rng.choice((1, -1, 2, Fraction(1, 2))))
    x = RatFunc.variable(rng.choice(names))
    if kind == 1:
        return x * rng.randint(1, 3) + rng.randint(-2, 2)
    return RatFunc.one() / (x + rng.randint(1, 3))


def random_linear_field(rng, chart):
    """Coefficients zero, constant or nonconstant, as drawn by `sparse_entry`."""

    def coeff():
        if rng.random() < 1 / 3:
            return RatFunc.zero()
        return sparse_entry(rng, chart.base_names)

    beta = tuple(coeff() for _ in range(chart.n))
    lam = tuple(tuple(coeff() for _ in range(chart.k)) for _ in range(chart.k))
    return LinearVectorField(chart, beta, lam)


@pytest.fixture(scope="module")
def dense_corpus():
    """``(components, context keywords, {record: nonzero dense residuals})``.

    Worked examples, two prolongations and seeded random sparse tables whose
    entries are constants or depend on one coordinate, each with a unit and
    an Euler candidate.  The residuals of each record are listed in the order
    of its scan.
    """
    rng = rng_for("fman-supports")
    chart2 = Chart.standard(2, 0)
    plane_star = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    curved = BaseFManifold(chart2, {**plane_star, (1, 1, 1): rf("1/(x2 + 1)")}, (1, 0))
    tangent = tangent_prolongation(curved)
    doubled = generalized_prolongation(
        BaseFManifold(chart2, plane_star, (1, 0)), Connection.zero(chart2)
    )
    # ebar = d1 + x1 d2 keeps output 0 of unit-star and unit-side and fails output 1
    c22 = Chart.standard(2, 2)
    sheared = MultComponents(
        c22, d={}, l={(0, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1}, star=plane_star
    )
    zero2 = ((0, 0), (0, 0))
    # terms that the random tables rarely leave alone: the bracket's
    # D_{[X*Y,Z],V} s with Z != V, and the Euler D_{X,Y}(Delta_E s) coupling
    # of an x-dependent fiber matrix through the side table in the second slot
    lone_bracket = MultComponents(C21, d={(0, 0, 1, 1): 1}, l={}, star={(1, 0, 0): rf("x1")})
    lone_coupling = MultComponents(C21, d={}, l={(0, 0, 1): 1}, star={})
    moving_lam = LinearVectorField(C21, (0, 0), ((rf("x1"),),))
    # a zero Euler field leaves -l_X s, which is nonzero at output 1 only
    second_output = MultComponents(c22, d={}, l={(1, 0, 0): 1}, star={})
    inputs = [
        (sheared, LinearVectorField(c22, (1, rf("x1", c22)), zero2), None),
        (lone_bracket, plane_example()[1], None),
        (lone_coupling, plane_example()[1], moving_lam),
        (second_output, LinearVectorField.zero(c22), LinearVectorField.zero(c22)),
        (*line_example(), None),
        (*plane_example(), None),
        (*plane_example("x1*x2 + 1"), None),
        (tilted_plane("x1", "x1"), plane_example()[1], None),
        (tangent.components, tangent.unit, None),
        (doubled.components, doubled.unit, None),
    ]
    for trial in range(24):
        n, k, first = 1 + trial % 3, 1 + (trial // 3) % 2, (trial // 6) % 2
        c = random_sparse_components(rng, n, k, first, sparse_entry)
        inputs.append((c, random_linear_field(rng, c.chart), None))
    corpus = []
    for t, (c, e, euler) in enumerate(inputs):
        kw = {"e": e, "euler": euler or random_linear_field(rng, c.chart)}
        # a second side table that keeps the entries of l at output 0, and
        # on every other input adds one entry that l lacks or differs from
        l2 = {key: v for key, v in c.l.items() if key[0] == 0}
        if t % 2 and c.rank:
            key = (c.rank - 1, c.rank - 1, c.n - 1)
            l2[key] = c.l_at(*key) + 1
        kw["l2"] = l2
        ctx = _Ctx(c, **kw)
        found = {name: list(dense_residuals(ctx, name)) for name in REFERENCES}
        corpus.append((c, kw, found))
    return corpus


def test_support_scans_match_dense_reference(dense_corpus):
    import fmanlin.fman as fman

    scanned = {name for name, ident in fman._IDENTITIES.items() if ident.space}
    assert scanned == set(REFERENCES)
    passed, outputs = set(), defaultdict(set)
    for c, kw, found in dense_corpus:
        for name, residuals in found.items():
            rep = Report(name)
            fman._scan(rep, _Ctx(c, **kw), name)
            rec = rep.record(name)
            want = (True, None, None)
            if residuals:
                idx, val = residuals[0]
                want = (False, idx, str(val))
            assert (rec.passed, rec.witness, rec.residual) == want, name
            if rec.passed:
                passed.add(name)
                continue
            outputs[name].add(rec.witness[0])
            again = evaluate_residual(name, rec.witness, c, **kw)
            assert str(again) == rec.residual, name
    assert passed == set(outputs) == scanned
    assert {name for name, seen in outputs.items() if max(seen) > 0} == scanned


def test_map_identities_equal_dense_reference(dense_corpus):
    import fmanlin.fman as fman

    maps = {name for name, ident in fman._IDENTITIES.items() if ident.space}
    assert maps == set(REFERENCES)
    nonempty = set()
    for c, kw, found in dense_corpus:
        ctx = _Ctx(c, **kw)
        for name in maps:
            got = fman._IDENTITIES[name].fn(ctx)
            # the whole residual, every value nonzero, and nothing else
            assert got == dict(found[name]), name
            if got:
                nonempty.add(name)
    assert nonempty == maps


def test_table_identities_share_no_code_with_the_oracles(monkeypatch, dense_corpus):
    """The reverse of `test_defect_tensor_shares_no_code_with_the_table_residuals`:
    with the assembled tensor, its Lie derivative, its defect and the key
    read of its tables forbidden, every table identity still gives its whole
    residual."""
    import fmanlin.fman as fman

    def forbidden(*args):
        raise AssertionError("a table identity must not use the tensor oracles")

    for name in ("hm_tensor", "assemble", "lie_derivative", "extract_components"):
        monkeypatch.setattr(fman, name, forbidden)
    monkeypatch.setattr(MultComponents, "assemble", forbidden)
    monkeypatch.setattr(fman._Ctx, "assembled_euler", forbidden)
    maps = {name: ident for name, ident in fman._IDENTITIES.items() if ident.space}
    assert len(maps) == 15
    for c, kw, found in dense_corpus:
        ctx = _Ctx(c, **kw)
        for name, ident in maps.items():
            assert ident.fn(ctx) == dict(found[name]), name


def test_supports_skip_the_empty_derivative_table_of_a_prolongation():
    import fmanlin.fman as fman

    chart = Chart.standard(3, 0)
    square_zero = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (2, 0, 2): 1, (2, 2, 0): 1}
    base = BaseFManifold(chart, square_zero, (1, 0, 0))
    prol = generalized_prolongation(base, Connection.zero(chart))
    assert not prol.components.d
    ctx = _Ctx(prol.components, e=prol.unit)
    for name in (
        "second-derivative-symmetric",
        "unit-derivative",
        "base-integrability",
        "derivative-commutator",
        "derivative-bracket",
    ):
        assert fman._IDENTITIES[name].fn(ctx) == {}, name
    assert check_battery(prol.components, prol.unit).passed


def test_operators_match_dense_table_filters():
    # the operators iterate compiled rows; these filter the whole tables
    def star_dense(c, u, v):
        out = {}
        for (a, i, j), b in c.star.items():
            if i in u and j in v:
                _acc(out, a, b * u[i] * v[j])
        return out

    def l_dense(c, k, sec):
        out = {}
        for (i, j, kk), val in c.l.items():
            if kk == k and j in sec:
                _acc(out, i, val * sec[j])
        return out

    def d_dense(c, k, p, sec):
        names = c.chart.names
        out = {}
        for j, f in sec.items():
            for (i, jj, kk, pp), val in c.d.items():
                if (jj, kk, pp) == (j, k, p):
                    _acc(out, i, val * f)
            for (i, jj, kk), val in c.l.items():
                if jj == j and kk == p:
                    _acc(out, i, val * f.partial(names[k]))
                if jj == j and kk == k:
                    _acc(out, i, val * f.partial(names[p]))
            for (a, kk, pp), b in c.star.items():
                if (kk, pp) == (k, p):
                    _acc(out, j, -(b * f.partial(names[a])))
        return out

    rng = rng_for("fman-dense-operators")
    for trial in range(6):
        n, k = 1 + trial % 3, 1 + trial % 2
        c = random_sparse_components(rng, n, k, entry=sparse_entry)
        u, v = ({a: sparse_entry(rng, c.chart.base_names) for a in range(n)} for _ in "uv")
        sec = {j: sparse_entry(rng, c.chart.base_names) for j in range(k)}
        assert star_product(c, u, v) == star_dense(c, u, v)
        for a in range(n):
            assert apply_l(c, a, sec) == l_dense(c, a, sec)
            for b in range(n):
                assert apply_d(c, a, b, sec) == d_dense(c, a, b, sec)


def test_tables_are_frozen():
    c, _ = plane_example()
    for table in (c.d, c.l, c.star):
        with pytest.raises(TypeError):
            table[(0, 0, 0)] = RatFunc.one()


def test_nonlinear_candidates_are_rejected_at_construction():
    with pytest.raises(ValueError, match="fiber"):
        LinearVectorField(C11, (1,), ((rf("xi1", C11),),))
    with pytest.raises(ValueError, match="fiber"):
        LinearVectorField(C11, (rf("xi1", C11),), ((0,),))


def frame_lie_components(c, x):
    """The Lie-derivative tables by the frame operators of the Euler identities."""
    dt, lt, rt = {}, {}, {}
    for j, k in product(range(c.rank), range(c.n)):
        lt.update(((i, j, k), v) for i, v in lie_l_entry(c, x, j, k).items())
        for p in range(c.n):
            dt.update(((i, j, k, p), v) for i, v in lie_d_entry(c, x, j, k, p).items())
    for i, j in product(range(c.n), repeat=2):
        rt.update(((a, i, j), v) for a, v in lie_star(c, x.base_vec(), frame(i), frame(j)).items())
    return dt, lt, rt


def test_lie_components_match_tensor_lie_derivative():
    # `lie_components` reads the Lie derivative of the assembled tensor by key;
    # the frame-section reference and the frame operators must agree with it
    rng = rng_for("fman-lie")
    cases = [
        (plane_example()[0], [LinearVectorField(C21, (rf("x1"), rf("x2/3")), ((0,),))]),
        (line_example()[0], [LinearVectorField(C11, (rf("x1 + 5", C11),), ((1,),))]),
    ]
    for n, k in ((2, 2), (1, 2), (2, 1)):
        cases.append((random_sparse_components(rng, n, k, entry=sparse_entry), []))
    for c, eulers in cases:
        t = c.assemble()
        # on the product itself the key read inverts `assemble`
        assert extract_components(t) == (c.d, c.l, c.star)
        _verify_leibniz(t, c)
        for euler in eulers:  # a passing candidate preserves the product
            assert lie_components(c, euler) == (c.d, c.l, c.star)
        for x in eulers + [random_linear_field(rng, c.chart) for _ in range(6)]:
            dt, lt, rt = lie_components(c, x)
            assert (dt, lt, rt) == reference_components(lie_derivative(x.as_field(), t))
            for got, want in zip(frame_lie_components(c, x), (dt, lt, rt)):
                assert got == dict(want)


def test_lie_components_trivial_cases():
    c, e = plane_example()
    dt, lt, rt = lie_components(c, LinearVectorField.zero(C21))
    assert not dt and not lt and not rt
    # along the unit field the base product is preserved
    _, _, rt = lie_components(c, e)
    assert not rt


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
        lhs = {j: field.get((chart.n + j,)) for j in range(chart.k)}
        rhs = {}
        for k in range(chart.k):
            xi_k = RatFunc.variable(chart.fiber_names[k])
            for j, val in apply_delta(e, {k: RatFunc.one()}).items():
                rhs[j] = rhs.get(j, RatFunc.zero()) - xi_k * val
        assert all(lhs.get(j, RatFunc.zero()) == rhs.get(j, RatFunc.zero()) for j in range(chart.k))


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
    # a bad key is refused when the product is built, not at its first verify()
    with pytest.raises(ValueError, match=r"bad star-table key \(2, 0, 0\)"):
        BaseFManifold(Chart.standard(2, 0), {(2, 0, 0): 1, (0, 0): 1}, (1, 0))


@pytest.mark.parametrize(
    "star",
    [{(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}, {(0, 0, 0): 1, (1, 0, 1): 1}],
    ids=["plane", "skew"],
)
def test_base_battery_runs_once_and_its_report_keeps_its_bytes(battery_runs, star):
    base = BaseFManifold(Chart.standard(2, 0), star, (1, 0))
    assert base.components is base.components
    first = base.verify()
    assert first.title == "base product battery"
    text, body = first.render(), first.to_json()
    for _ in range(2):
        # a construction requires the battery, and reuses it
        try:
            tangent_prolongation(base)
        except PreconditionError as exc:
            assert exc.report is first
        assert base.verify() is first
        assert (first.render(), first.to_json()) == (text, body)
    assert battery_runs == [base.components]
    # an equal object runs its own battery, to the same bytes
    other = BaseFManifold(Chart.standard(2, 0), star, (1, 0)).verify()
    assert other is not first
    assert (other.render(), other.to_json()) == (text, body)
    assert len(battery_runs) == 2


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
    cases = failing_inputs()
    assert set(cases) == set(fman._IDENTITIES)
    for name, (c, kw) in cases.items():
        # the whole residual, as {witness: nonzero residual}
        got = fman._IDENTITIES[name].fn(fman._Ctx(c, **kw))
        assert isinstance(got, dict) and got, name
        assert all(isinstance(v, RatFunc) and not v.is_zero() for v in got.values()), name
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


def test_second_derivative_symmetric_takes_each_term_product_once(monkeypatch):
    import fmanlin.fman as fman

    products = []
    real = RatFunc.__mul__

    def counting(f, g):
        products.append((f, g))
        return real(f, g)

    def scan(c):
        products.clear()
        with monkeypatch.context() as m:
            m.setattr(RatFunc, "__mul__", counting)
            ok = fman._scan(Report("products"), _Ctx(c), "second-derivative-symmetric")
        return ok, len(products)

    # a derivative row at every (j, k, p), side rows on both frames and a
    # product with every frame pair: each term product is taken once, not
    # once for each reordering of (k, p, r) that compares with it
    c22 = Chart.standard(2, 2)
    x = rf("x1 + 1", c22)
    full = MultComponents(
        c22,
        d={(0, *jkp): x for jkp in product(range(2), repeat=3)},
        l={(i, 0, r): 1 for i in range(2) for r in range(2)},
        star={(0, k, p): 1 for k in range(2) for p in range(2)},
    )
    terms = sum(1 for (m, *_), (_, mm, _r) in product(full.d, full.l) if m == mm)
    terms += sum(1 for (a, *_), (_, _j, aa, _r) in product(full.star, full.d) if a == aa)
    assert terms == 8 * 4 + 4 * 4  # (d, l) pairs through s_0, (star, d) through d_0
    assert scan(full) == (True, terms)
    # the generalized prolongation has no derivative table, so no product
    chart = Chart.standard(2, 0)
    star = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    prol = generalized_prolongation(
        BaseFManifold(chart, star, (1, 0)), Connection.zero(chart)
    )
    assert not prol.components.d
    assert scan(prol.components) == (True, 0)


def test_euler_and_base_extraction_name_their_precondition():
    skew = MultComponents(C21, d={}, l={}, star={(0, 0, 1): rf("x1")})
    _, e = plane_example()
    euler = LinearVectorField(C21, (rf("x1"), rf("x2")), ((1,),))
    with pytest.raises(PreconditionError) as info:
        check_euler(skew, e, euler)
    assert str(info.value) == (
        "the euler check requires multiplication battery to pass; "
        "star-symmetric fails at (0, 0, 1)"
    )
    assert info.value.report.title == "multiplication battery"
