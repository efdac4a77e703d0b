"""Tensor layer: Lie derivatives, scaling classes, component dictionary."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import rand_fraction, rand_poly, rand_ratfunc, rng_for
from fmanlin.fman import MultComponents
from fmanlin.symcore import Poly, RatFunc, parse_expr
from fmanlin.tensor import (
    Chart,
    TensorField,
    ThreeForm,
    TwoForm,
    _acc,
    _merged,
    assemble,
    contract,
    extract_components,
    lie_derivative,
    scaling_class,
)
from references import (
    LeibnizError,
    Section,
    _verify_leibniz,
    ref_three_form_is_closed,
    ref_two_form_d,
    vertical_lift,
)

C11 = Chart.standard(1, 1)
C21 = Chart.standard(2, 1)


def rf(text, chart=C21):
    return parse_expr(text, chart.names)


def vec(chart, *texts):
    return TensorField.vector(chart, [rf(t, chart) for t in texts])


def tensor_product(a: TensorField, b: TensorField) -> TensorField:
    """Tensor product; at most one factor may be contravariant."""
    if a.chart != b.chart:
        raise ValueError("charts differ")
    if a.q + b.q > 1:
        raise ValueError("at most one contravariant slot is supported")
    out = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            key = kb[:1] + ka + kb[1:] if b.q == 1 else ka + kb
            _acc(out, key, va * vb)
    return TensorField(a.chart, a.p + b.p, a.q + b.q, out)


def rand_vec(rng, chart, max_deg=2):
    return TensorField.vector(
        chart, [rand_ratfunc(rng, chart.names, max_deg, with_den=False) for _ in chart.names]
    )


# -- Example fixtures (1D and 2D bases with a line-bundle fiber) -------------


def components_1d() -> MultComponents:
    one = RatFunc.one()
    return MultComponents(
        chart=C11, d={}, l={(0, 0, 0): one}, star={(0, 0, 0): one}
    )


def components_2d(h_text="x2") -> MultComponents:
    one = RatFunc.one()
    h = rf(h_text)
    return MultComponents(
        chart=C21,
        d={(0, 0, 1, 1): h},
        l={(0, 0, 0): one},
        star={(0, 0, 0): one, (1, 0, 1): one, (1, 1, 0): one},
    )


def test_chart_dual_is_an_involution():
    chart = Chart.generalized(2)
    assert chart.dual().dual() == chart
    assert Chart.standard(2, 2).dual().fiber_names == ("mu1", "mu2")
    with pytest.raises(ValueError):
        Chart(("x1", "x1"), ())


def test_lie_derivative_of_vector_fields_is_the_bracket():
    x = vec(C21, "x1*x2", "0", "xi1")
    y = vec(C21, "x2", "1", "x1")
    lie = lie_derivative(x, y)
    # [X, Y]^a = X(Y^a) - Y(X^a)
    assert lie == vec(C21, "-x2^2 - x1", "0", "x1*x2 - x1")


def test_lie_derivative_is_a_derivation_over_tensor_product():
    rng = rng_for("tensor-derivation")
    for _ in range(5):
        x = rand_vec(rng, C11)
        omega = TensorField(
            C11, 1, 0, {(i,): rand_ratfunc(rng, C11.names, 1, with_den=False) for i in range(2)}
        )
        y = rand_vec(rng, C11)
        t = tensor_product(omega, y)
        lhs = lie_derivative(x, t)
        rhs = tensor_product(lie_derivative(x, omega), y) + tensor_product(
            omega, lie_derivative(x, y)
        )
        assert lhs == rhs


def test_lie_derivative_respects_brackets():
    rng = rng_for("tensor-jacobi")
    for _ in range(4):
        x = rand_vec(rng, C11, max_deg=1)
        y = rand_vec(rng, C11, max_deg=1)
        t = TensorField(
            C11,
            2,
            1,
            {
                (a, b, c): rand_ratfunc(rng, C11.names, 1, with_den=False)
                for a in range(2)
                for b in range(2)
                for c in range(2)
            },
        )
        bracket = lie_derivative(x, y)
        lhs = lie_derivative(bracket, t)
        rhs = lie_derivative(x, lie_derivative(y, t)) - lie_derivative(
            y, lie_derivative(x, t)
        )
        assert lhs == rhs


def test_contract_commutes_with_lie_derivative():
    rng = rng_for("tensor-contract")
    x = rand_vec(rng, C21, max_deg=1)
    y = rand_vec(rng, C21, max_deg=1)
    t = assemble(components_2d())
    lhs = lie_derivative(x, contract(t, 0, y))
    rhs = contract(lie_derivative(x, t), 0, y) + contract(t, 0, lie_derivative(x, y))
    assert lhs == rhs


def test_scaling_classes():
    xi = rf("xi1", C11)
    assert scaling_class(vec(C11, "x1", "xi1")) == "linear"
    assert scaling_class(vertical_lift(Section.frame(C11, 0))) == "core"
    assert scaling_class(TensorField(C11, 0, 1, {(1,): xi * xi})) == "neither"
    # a fiber-linear one-form is linear, a base one-form is core
    assert scaling_class(TensorField(C11, 1, 0, {(1,): RatFunc.one()})) == "linear"
    assert scaling_class(TensorField(C11, 1, 0, {(0,): RatFunc.one()})) == "core"
    assert scaling_class(assemble(components_2d())) == "linear"
    # no coordinate name is reserved for the scale
    t_chart = Chart(("_t",), ("xi1",))
    field = TensorField.vector(t_chart, [rf("_t", t_chart), xi])
    assert scaling_class(field) == "linear"


def reference_scaling_class(t: TensorField) -> str:
    """Classify ``t`` by pulling it back along ``xi -> _t xi`` with a formal ``_t``.

    Each entry becomes ``c(x, _t xi) * _t^w`` (``w`` its key's fiber weight),
    and the result is compared with ``t * _t^(1 - q)`` (linear) and
    ``t * _t^(-q)`` (core).
    """
    chart = t.chart
    fiber = set(chart.fiber_names)
    tvar = RatFunc.variable("_t")

    def scaled(p: Poly) -> Poly:
        slots = [i for i, v in enumerate(p.vars) if v in fiber]
        return Poly(
            p.vars + ("_t",),
            {exp + (sum(exp[i] for i in slots),): c for exp, c in p.terms.items()},
        )

    pulled = {}
    for key, coeff in t.coeffs.items():
        w = sum(1 for i in key[t.q :] if i >= chart.n)
        w -= 1 if t.q and key[0] >= chart.n else 0
        pulled[key] = RatFunc(scaled(coeff.num), scaled(coeff.den)) * tvar**w
    for label, weight in (("linear", 1 - t.q), ("core", -t.q)):
        if pulled == {key: v * tvar**weight for key, v in t.coeffs.items()}:
            return label
    return "neither"


def rand_fiber_homogeneous(rng, chart: Chart, deg: int) -> Poly:
    """A nonzero polynomial of fiber degree ``deg`` in every term."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * chart.dim
        for _ in range(rng.randint(0, 1)):
            exp[rng.randrange(chart.n)] += 1
        for _ in range(deg):
            exp[chart.n + rng.randrange(chart.k)] += 1
        terms[tuple(exp)] = rand_fraction(rng) or Fraction(1)
    return Poly(chart.names, terms)


def rand_scaling_tensor(rng, chart: Chart, p: int, q: int, mode: str) -> TensorField:
    """Entries of fiber power ``1 - q`` (linear), ``-q`` (core) or at random."""
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.randrange(chart.dim) for _ in range(p + q))
        w = sum(1 for i in key[q:] if i >= chart.n)
        w -= 1 if q and key[0] >= chart.n else 0
        if mode == "random" and rng.random() < 0.5:
            coeffs[key] = rand_ratfunc(rng, chart.names) or RatFunc.one()
            continue
        power = {"linear": 1 - q, "core": -q}.get(mode, rng.randint(-2, 2))
        den_deg = max(0, w - power) + rng.randint(0, 1)
        num_deg = power - w + den_deg
        if num_deg == den_deg == 0 and rng.random() < 0.5:
            coeffs[key] = RatFunc.const(rand_fraction(rng) or 1)
            continue
        coeffs[key] = RatFunc(
            rand_fiber_homogeneous(rng, chart, num_deg),
            rand_fiber_homogeneous(rng, chart, den_deg),
        )
    return TensorField(chart, p, q, coeffs)


def test_scaling_class_matches_the_formal_variable_reference():
    rng = rng_for("tensor-scaling-reference")
    seen = Counter()
    for trial in range(90):
        chart = Chart.standard(1 + trial % 2, 1 + (trial // 2) % 2)
        q = rng.randint(0, 1)
        p = rng.randint(0, 2)
        mode = ("linear", "core", "random")[trial % 3]
        t = rand_scaling_tensor(rng, chart, p, q, mode)
        want = reference_scaling_class(t)
        assert scaling_class(t) == want, t
        assert mode == "random" or want == mode
        seen[want] += 1
    for q in (0, 1):
        empty = TensorField(C21, 2, q, {})
        assert scaling_class(empty) == reference_scaling_class(empty) == "linear"
    assert set(seen) == {"linear", "core", "neither"}, seen


def test_assemble_matches_local_normal_form():
    t = assemble(components_1d())
    one = RatFunc.one()
    assert t == TensorField(
        C11, 2, 1, {(1, 1, 0): one, (1, 0, 1): one, (0, 0, 0): one}
    )


def test_frame_derivative_of_line_example_vanishes():
    # the derivative table of the 1D example is entirely Leibniz-generated:
    # along the constant frame section the Lie derivative of the tensor is zero
    t = assemble(components_1d())
    lift = vertical_lift(Section.frame(C11, 0))
    assert lie_derivative(lift, t).is_zero()


def test_leibniz_rule_reproduces_first_derivative():
    # D(f s) = f' s on the 1D example: the Lie derivative along (f s)^lift
    # is the core tensor f' dx (x) dx (x) s
    t = assemble(components_1d())
    f = rf("x1^2 + 3*x1", C11)
    lift = vertical_lift(Section(C11, (f,)))
    expected = TensorField(C11, 2, 1, {(1, 0, 0): f.partial("x1")})
    assert lie_derivative(lift, t) == expected


def test_multiplication_values_on_the_plane_example():
    t = assemble(components_2d())
    dx2 = TensorField(C21, 0, 1, {(1,): 1})
    prod = contract(contract(t, 0, dx2), 0, dx2)
    assert prod == vec(C21, "0", "0", "x2*xi1")
    dx1 = TensorField(C21, 0, 1, {(0,): 1})
    assert contract(contract(t, 0, dx1), 0, dx1) == dx1


def test_extract_components_round_trip():
    for comps in (components_1d(), components_2d(), components_2d("x1*x2 - 2")):
        assert extract_components(assemble(comps)) == (comps.d, comps.l, comps.star)


def random_components(rng, n, k):
    """Random sparse base-only tables."""
    chart = Chart.standard(n, k)

    def table(*ranges):
        return {
            key: rand_ratfunc(rng, chart.base_names, 1)
            for key in product(*ranges)
            if rng.random() < 1 / 2
        }

    fibers, bases = (range(k),) * 2, (range(n),) * 2
    return MultComponents(
        chart=chart,
        d=table(*fibers, *bases),
        l=table(*fibers, range(n)),
        star=table(range(n), *bases),
    )


def test_assemble_satisfies_the_leibniz_reference_on_random_tables():
    # `assemble` does not verify its result; `_verify_leibniz` is the reference
    rng = rng_for("tensor-assemble-leibniz")
    for trial in range(9):
        n, k = 1 + trial % 2, 1 + (trial // 2) % 2
        comps = random_components(rng, n, k)
        t = assemble(comps)
        _verify_leibniz(t, comps)
        assert extract_components(t) == (comps.d, comps.l, comps.star)


def test_leibniz_reference_rejects_inconsistent_components():
    t = assemble(components_2d())
    one = RatFunc.one()
    moved = MultComponents(
        chart=C21,
        d={(0, 0, 1, 1): rf("x2")},
        l={(0, 0, 1): one},
        star={(0, 0, 0): one, (1, 0, 1): one, (1, 1, 0): one},
    )
    with pytest.raises(LeibnizError) as info:
        _verify_leibniz(t, moved)
    assert info.value.witness == (0, 0, (0, 0))
    assert "section 0, output 0, slot (0, 0)" in str(info.value)


def test_extract_rejects_nonlinear():
    xi = rf("xi1", C11)
    t = TensorField(C11, 2, 1, {(1, 0, 0): xi * xi})
    with pytest.raises(ValueError, match="not fiberwise linear"):
        extract_components(t)


C12 = Chart.standard(1, 2)


@pytest.mark.parametrize(
    "t, match",
    [
        (TensorField(C11, 1, 1, {(1, 1): 1}), r"\(2,1\) tensors, not \(1,1\)"),
        (TensorField(C11, 3, 1, {(1, 0, 0, 0): rf("xi1", C11)}), r"not \(3,1\)"),
        (TensorField(C11, 2, 1, {(1, 0, 0): rf("xi1^2", C11)}), "not fiberwise linear"),
        (TensorField(C11, 2, 1, {(0, 1, 0): rf("1/xi1", C11)}), r"no entry at \(0, 1, 0\)"),
        (TensorField(C21, 2, 1, {(2, 2, 0): 1, (2, 0, 2): 2}), "side slots disagree"),
        (
            TensorField(C12, 2, 1, {(1, 0, 0): rf("xi1^2/xi2", C12)}),
            r"derivative table entry \(0, 0, 0, 0\) must not involve fiber",
        ),
    ],
    ids=["p1", "p3", "nonlinear", "bad-key", "sides", "fiber-partial"],
)
def test_extract_components_refusals(t, match):
    with pytest.raises(ValueError, match=match):
        extract_components(t)


def test_assemble_reads_the_frozen_tables_without_checking_them(monkeypatch):
    import fmanlin.fman as fman
    import fmanlin.tensor as tensor

    calls = []

    def counting(*args):
        calls.append(args)
        return checked(*args)

    checked = tensor._checked_table
    c = components_2d()
    for module in (fman, tensor):
        monkeypatch.setattr(module, "_checked_table", counting)
    c.assemble()
    assert calls == []
    components_2d()  # the constructor checks each of its three tables
    assert len(calls) == 3


def test_assemble_rejects_fiber_entries():
    with pytest.raises(ValueError, match="fiber"):
        bad = MultComponents(chart=C11, d={(0, 0, 0, 0): rf("xi1", C11)}, l={}, star={})
        assemble(bad)


def test_vertical_lift_scaling_and_shape():
    s = Section(C21, (rf("x1 + x2"),))
    lift = vertical_lift(s)
    assert lift == vec(C21, "0", "0", "x1 + x2")
    assert scaling_class(lift) == "core"


def test_sparse_exterior_derivative_matches_the_dense_form():
    # seeded forms with rational entries: `d` of a two-form equals the dense
    # sum over every triple, and `is_closed` gives the dense verdict on closed
    # three-forms (each the `d` of a two-form) and on random ones
    rng = rng_for("tensor-exterior-derivative")
    verdicts = Counter()
    for trial in range(20):
        n = 1 + trial % 5
        chart = Chart.standard(n, 0)

        def form(width):
            keys = combinations(range(n), width)
            return {key: rand_ratfunc(rng, chart.names) for key in keys if rng.random() < 0.6}

        gamma = TwoForm(chart, form(2))
        dg = gamma.d()
        assert dg.table == ref_two_form_d(gamma)
        for h in (dg, ThreeForm(chart, form(3))):
            closed = h.is_closed()
            assert closed == ref_three_form_is_closed(h)
            verdicts[h is dg, bool(h.table), closed] += 1
    assert verdicts[True, True, True] and verdicts[False, True, False]
    assert not verdicts[True, True, False] and not verdicts[True, False, False]


def test_merged_equals_the_sequential_sum(monkeypatch):
    # `_merged` is the one sum of every residual map and of the integrability
    # oracle, so it is checked against adding its terms one at a time with
    # `_acc`: seeded term lists over a few keys, with values of degree <= 2 over
    # non-constant denominators, repeated values (also as equal but distinct
    # objects), signs in -3..3 and terms that cancel exactly
    rng = rng_for("tensor-merged-sequential")
    names = ("x1", "x2")
    seen = Counter()
    products = []
    real_mul = RatFunc.__mul__

    def counting(f, g):
        products.append((f, g))
        return real_mul(f, g)

    for _ in range(60):
        pool = []
        while len(pool) < 4:
            den = rand_poly(rng, names, max_deg=2, max_terms=2, nonzero=True)
            val = RatFunc(rand_poly(rng, names, max_deg=2), den)
            if not val.is_zero():
                pool.append(val)
        seen["non-constant denominator"] += sum(not v.den.is_const() for v in pool)
        terms = []
        for _ in range(rng.randint(1, 14)):
            key, val = rng.randrange(3), rng.choice(pool)
            if rng.random() < 0.3:
                val = RatFunc(val.num, val.den)  # equal, not the same object
            sign = rng.randint(-3, 3)
            terms.append((key, sign, val))
            if rng.random() < 0.25:  # cancelled in full, maybe in parts
                terms += [(key, -sign, val)] if sign % 2 else [(key, -sign // 2, val)] * 2
        want = {}
        for key, sign, val in terms:
            for _ in range(abs(sign)):
                _acc(want, key, val if sign > 0 else -val)
        with monkeypatch.context() as m:
            m.setattr(RatFunc, "__mul__", counting)
            got = _merged(terms)
        assert got == want
        assert all(RatFunc(v.num, v.den) == v for v in got.values())  # canonical
        totals = Counter()
        for key, sign, val in terms:
            totals[key, val] += sign
        seen["multiple"] += any(abs(t) > 1 for t in totals.values())
        seen["cancelled"] += any(
            t == 0 and any(s for k, s, v in terms if (k, v) == kv) for kv, t in totals.items()
        )
        seen["zero key"] += any(key not in got for key, _, _ in terms)
    assert products == []  # an integer multiple scales the numerator
    assert all(seen[k] for k in ("non-constant denominator", "multiple", "cancelled", "zero key"))
