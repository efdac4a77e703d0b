"""Scalar layer: canonical forms, parsing, derivatives, exact linear algebra."""

from fractions import Fraction
from operator import add, mul, sub

import pytest

from conftest import primitive, rand_poly, rand_ratfunc, rng_for
from fmanlin.symcore import (
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_TERMS,
    ParseError,
    Poly,
    RatFunc,
    SingularMatrixError,
    exact_div,
    parse_expr,
    poly_gcd,
    solve_linear,
)
from references import _inverse

X1 = ("x1",)
XV = ("x1", "x2", "xi1")


def P(text, variables=XV):
    return parse_expr(text, variables)


def is_singular(matrix) -> bool:
    """Whether a square matrix of rational functions is singular, by sympy."""
    sympy = pytest.importorskip("sympy")
    m = sympy.Matrix([[sympy.sympify(str(v)) for v in row] for row in matrix])
    return sympy.cancel(m.det()) == 0


def test_parse_cancels_common_factors():
    assert P("(x1^2 - 1)/(x1 - 1)") == P("x1 + 1")


def test_partial_of_reciprocal():
    f = P("1/x1")
    assert f.partial("x1") == P("-1/x1^2")


def test_parse_rational_literals_and_precedence():
    assert P("2/3*x1") == RatFunc.const(Fraction(2, 3)) * RatFunc.variable("x1")
    assert P("1 - 2 - 3") == RatFunc.const(-4)
    assert P("2*x1 + x2*x1^2") == P("x1^2*x2 + 2*x1")
    assert P("-x1^2") == -(P("x1") ** 2)
    assert P("x1^-1") == RatFunc.one() / RatFunc.variable("x1")


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        P("x1 + ")
    assert err.value.offset == 5
    with pytest.raises(ParseError) as err:
        P("x1 * (x2 + 1")
    assert err.value.offset == 12
    with pytest.raises(ParseError) as err:
        P("x1 + y3")
    assert err.value.offset == 5
    with pytest.raises(ParseError) as err:
        P("x1 $ 2")
    assert err.value.offset == 3


def test_parse_nesting_limit():
    assert P("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH) == P("x1")
    assert P("-" * MAX_DEPTH + "x1") == P("x1") * (-1) ** MAX_DEPTH
    for deep in ("(" * 3000 + "x1" + ")" * 3000, "-(" * 1500 + "x1" + ")" * 1500):
        with pytest.raises(ParseError) as err:
            P(deep)
        assert err.value.offset == MAX_DEPTH
        assert "nested deeper" in str(err.value)


def test_parse_exponent_budget():
    assert P(f"x1^{MAX_EXPONENT}") == P("x1") ** MAX_EXPONENT
    assert P(f"(x1 + 1)^-{MAX_EXPONENT}") == P("x1 + 1") ** -MAX_EXPONENT
    for text in (f"x1^{MAX_EXPONENT + 1}", f"x2 + x1^-{MAX_EXPONENT + 1}"):
        with pytest.raises(ParseError) as err:
            P(text)
        assert err.value.offset == text.rindex(str(MAX_EXPONENT + 1))
        assert f"exponent larger than {MAX_EXPONENT}" in str(err.value)


def test_parse_term_budget():
    # (a + 1)(b + 1) terms from two small powers; 1000 = 25 * 40, 1001 = 7 * 11 * 13
    assert MAX_TERMS == 1000
    at = P("(x1 + 1)^24 * (x2 + 1)^39")
    assert len(at.num.terms) == MAX_TERMS
    assert P("1/((x1 + 1)^24 * (x2 + 1)^39)") == 1 / at
    over = "(x1 + 1)^6 * (x2 + 1)^10 * (xi1 + 1)^12"
    with pytest.raises(ParseError) as err:
        P(over)
    assert err.value.offset == over.rindex("*")
    assert f"more than {MAX_TERMS} terms" in str(err.value)
    # a power stops at its first factor over the budget
    with pytest.raises(ParseError) as err:
        P("(x1 + x2 + xi1 + 1)^40")
    assert err.value.offset == len("(x1 + x2 + xi1 + 1)^")
    # so does a denominator, and a sum of two values within it
    with pytest.raises(ParseError):
        P(f"1/({over})")
    sum_over = "(x1 + 1)^24 * (x2 + 1)^39 + xi1"
    with pytest.raises(ParseError) as err:
        P(sum_over)
    assert err.value.offset == sum_over.rindex("+")


def test_parse_digit_budget():
    assert MAX_DIGITS == 1000
    # literals: leading zeros are not digits of the value
    assert P("9" * MAX_DIGITS) == RatFunc.const(10**MAX_DIGITS - 1)
    assert P("0" * MAX_DIGITS + "7") == RatFunc.const(7)
    over = "x1 + 1" + "0" * MAX_DIGITS
    with pytest.raises(ParseError) as err:
        P(over)
    assert err.value.offset == over.index("1" + "0" * MAX_DIGITS)
    assert f"integer has more than {MAX_DIGITS} digits" in str(err.value)
    # coefficients of products, quotients and powers: 10^999 has 1000 digits
    at = "(10^100)^9 * 10^99 * x1"
    assert P(at).num.terms == {(1,): Fraction(10 ** (MAX_DIGITS - 1))}
    assert P("x1 / ((10^100)^9 * 10^99)") == P("x1") / P(at).num.terms[(1,)]
    for text, where in (
        ("(10^100)^9 * 10^99 * 10 * x1", "* 10 "),
        ("x1 / (10^100)^9 / 10^99 / 10", "/ 10"),
        ("x2 + (10^100)^10", "10"),
        # x1 + 1 over 10^999 (17 x2 + 1): inverting moves 10^999 into 17 x2 + 1
        ("((x1 + 1)/(10^100)^9/10^99/(17*x2 + 1))^-1", "1"),
    ):
        with pytest.raises(ParseError) as err:
            P(text)
        assert err.value.offset == text.rindex(where)
        assert f"coefficient has more than {MAX_DIGITS} digits" in str(err.value)


def test_parse_rejects_division_by_zero_polynomial():
    with pytest.raises(ParseError):
        P("x1/(x2 - x2)")
    with pytest.raises(ZeroDivisionError):
        P("x1") / RatFunc.zero()


def test_canonical_denominator_normalization():
    # scaling numerator and denominator by a common factor changes nothing
    num = P("x1 + 1").num
    den = P("2*x1 - 4").num
    h = P("3*x2 - 1").num
    assert RatFunc(num * h, den * h) == RatFunc(num, den)
    # denominator is integer-primitive with positive leading coefficient
    f = RatFunc(Poly.const(1), P("-x1/2 + 1").num)
    assert str(f.den) == "x1 - 2"


def test_poly_pruning_keeps_equality_structural():
    wide = Poly(("x1", "xi1"), {(1, 0): Fraction(1), (0, 0): Fraction(1)})
    narrow = Poly(("x1",), {(1,): Fraction(1), (0,): Fraction(1)})
    assert wide == narrow
    assert hash(wide) == hash(narrow)
    assert wide.vars == ("x1",)


def test_print_parse_round_trip_random():
    rng = rng_for("symcore-roundtrip")
    for _ in range(60):
        f = rand_ratfunc(rng, XV)
        assert parse_expr(str(f), XV) == f


def test_field_axioms_random():
    rng = rng_for("symcore-field")
    for _ in range(40):
        f = rand_ratfunc(rng, XV)
        g = rand_ratfunc(rng, XV)
        h = rand_ratfunc(rng, XV)
        assert (f + g) * h == f * h + g * h
        assert f - f == RatFunc.zero()
        assert f * g == g * f
        if not g.is_zero():
            assert (f / g) * g == f


def test_partial_leibniz_and_commutation_random():
    rng = rng_for("symcore-partial")
    for _ in range(30):
        f = rand_ratfunc(rng, XV)
        g = rand_ratfunc(rng, XV)
        lhs = (f * g).partial("x1")
        rhs = f.partial("x1") * g + f * g.partial("x1")
        assert lhs == rhs
        assert f.partial("x1").partial("x2") == f.partial("x2").partial("x1")


def test_poly_gcd_extracts_common_factor():
    rng = rng_for("symcore-gcd")
    for _ in range(25):
        p = rand_poly(rng, ("x1", "x2"), nonzero=True)
        q = rand_poly(rng, ("x1", "x2"), nonzero=True)
        g = rand_poly(rng, ("x1", "x2"), max_deg=1, nonzero=True)
        d = poly_gcd(p * g, q * g)
        # g divides the gcd of p*g and q*g
        exact_div(d, poly_gcd(d, g))  # no exception
        assert poly_gcd(d, g) == poly_gcd(g, g)
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero()
    assert poly_gcd(P("x1").num, Poly.zero()) == P("x1").num


def test_exact_div_detects_inexact():
    with pytest.raises(ValueError):
        exact_div(P("x1 + 1").num, P("x2").num)


def test_solve_linear_random_systems():
    rng = rng_for("symcore-solve")
    for size in (1, 2, 3):
        for _ in range(6):
            a = [
                [rand_ratfunc(rng, ("x1", "x2"), max_deg=1) for _ in range(size)]
                for _ in range(size)
            ]
            if is_singular(a):
                continue
            x = [rand_ratfunc(rng, ("x1", "x2"), max_deg=1) for _ in range(size)]
            b = [
                sum((a[i][j] * x[j] for j in range(size)), RatFunc.zero())
                for i in range(size)
            ]
            assert solve_linear(a, b) == x


def test_solve_linear_singular_raises():
    x1 = P("x1")
    a = [[x1, x1 * 2], [x1 * 3, x1 * 6]]
    with pytest.raises(SingularMatrixError):
        solve_linear(a, [RatFunc.one(), RatFunc.zero()])
    with pytest.raises(SingularMatrixError):
        _inverse(a)


def test_inverse_matches_solve_linear_column_by_column():
    rng = rng_for("symcore-inverse")
    singular = 0
    for size in (1, 2, 3):
        for _ in range(6):
            a = [
                [rand_ratfunc(rng, ("x1", "x2"), max_deg=1) for _ in range(size)]
                for _ in range(size)
            ]
            if is_singular(a):
                singular += 1
                with pytest.raises(SingularMatrixError):
                    _inverse(a)
                continue
            cols = _inverse(a)
            assert len(cols) == size
            for j in range(size):
                unit = [RatFunc.coerce(int(i == j)) for i in range(size)]
                assert cols[j] == solve_linear(a, unit)
            assert_stored_exactly(cols)
    assert singular < 18


ZEROS = (
    RatFunc.zero(),
    RatFunc.const(0),
    RatFunc(Poly.const(0)),
    RatFunc(Poly.zero(), Poly.variable("x1")),
    parse_expr("0", XV),
    parse_expr("x1 - x1", XV),
    0,
    Fraction(0),
)
ONES = (
    RatFunc.one(),
    RatFunc.const(1),
    RatFunc(Poly.const(1)),
    RatFunc(Poly.const(2), Poly.const(2)),
    parse_expr("1", XV),
    parse_expr("x1/x1", XV),
    1,
    Fraction(1),
)


def general(op, a, b):
    """``a op b`` by the general formula: the full gcd of the products."""
    a, b = RatFunc.coerce(a), RatFunc.coerce(b)
    if op == "*":
        return RatFunc(a.num * b.num, a.den * b.den)
    if op == "/":
        return RatFunc(a.num * b.den, a.den * b.num)
    left, right = a.num * b.den, b.num * a.den
    return RatFunc(left + right if op == "+" else left - right, a.den * b.den)


def general_pow(f, n):
    if n < 0:
        return RatFunc(f.den ** (-n), f.num ** (-n))
    return RatFunc(f.num**n, f.den**n)


def general_partial(f, name):
    num, den = f.num, f.den
    return RatFunc(num.partial(name) * den - num * den.partial(name), den * den)


def test_zero_and_one_operands_match_the_general_formula():
    rng = rng_for("symcore-shortcuts")
    values = [rand_ratfunc(rng, XV) for _ in range(20)]
    values += [RatFunc.coerce(v) for v in ZEROS + ONES]
    assert any(not f.is_poly() for f in values)
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
    for f in values:
        for t in ZEROS + ONES:
            for op, fn in ops.items():
                for a, b in ((f, t), (t, f)):
                    got, want = fn(a, b), general(op, a, b)
                    assert got == want and str(got) == str(want), (op, a, b)


def test_partial_in_an_absent_variable_is_zero():
    rng = rng_for("symcore-partial-absent")
    rational = 0
    for _ in range(30):
        f = rand_ratfunc(rng, ("x1", "x2"))
        rational += not f.is_poly()
        for name in ("xi1", "x3"):
            d = f.partial(name)
            want = general_partial(f, name)
            assert d.is_zero() and d == want and str(d) == str(want)
    assert rational
    # a variable of the denominator alone is not absent
    assert P("1/x2").partial("x2") == P("-1/x2^2")


# -- the arithmetic against the general formulas --------------------------------


def storage(f):
    return (f.num.vars, f.num.terms, f.den.vars, f.den.terms, str(f))


def prs_gcd(a, b):
    """Gcd of univariate ``a``, ``b`` by the primitive pseudo-remainder sequence."""
    (name,) = set(a.vars) | set(b.vars)
    x = Poly.variable(name)
    a, b = primitive(a), primitive(b)
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    while not b.is_zero():
        r, db, lb = a, b.degree_in(name), b.lead()[1]
        while not r.is_zero() and r.degree_in(name) >= db:
            r = r * lb - b * r.lead()[1] * x ** (r.degree_in(name) - db)
        a, b = b, primitive(r)
    return primitive(a) if a.degree_in(name) else Poly.one()


def Q(num, den="1"):
    """``num/den`` from two polynomial texts, through the general constructor."""
    return RatFunc(P(num).num, P(den).num)


# (f, g, differentiation variable), one group per property the cancellation
# relies on
HAND_PICKED = (
    # coprime denominators
    (Q("1", "x1 + 1"), Q("x2", "x1 - 1"), "x1"),
    (Q("x1", "x2 + 2"), Q("1", "x1*x2 - 1"), "x2"),
    # equal denominators, where the sum cancels all or part of them
    (Q("x1", "x1 + 1"), Q("1", "x1 + 1"), "x1"),
    (Q("x1^2", "x1^2 - 1"), Q("-1", "x1^2 - 1"), "x1"),
    (Q("x2", "x1 + x2"), Q("x1", "x1 + x2"), "x2"),
    # a shared factor of the denominators
    (Q("1", "(x1 + 1)*x2"), Q("1", "(x1 + 1)*(x1 - 2)"), "x1"),
    (Q("x1 - 2", "(x1 + 1)*x2"), Q("x2", "(x1 + 1)*(x1 - 2)"), "x2"),
    (Q("x2 + 1", "x1*(x1 + x2)"), Q("-x1 + 1", "x2*(x1 + x2)"), "x1"),
    # repeated factors
    (Q("1", "(x1 + 1)^2"), Q("x1", "(x1 + 1)^3"), "x1"),
    (Q("x1", "(x1 + 1)^2*x2"), Q("(x1 + 1)*x2^2", "x1^2"), "x1"),
    (Q("x2", "(x1 - x2)^3"), Q("x1 - x2", "x2^2"), "x2"),
    # negative leading coefficients
    (Q("1", "1 - x1"), Q("x1", "-2*x1 - 2"), "x1"),
    (Q("-x1 - 1", "3"), Q("-x2", "1 - x1*x2"), "x2"),
    # rational content
    (Q("x1/2 + 1/3", "x1 + 1"), Q("6", "3*x1/4 + 3/4"), "x1"),
    (Q("2/3", "x1/5 - x2/7"), Q("x1/3 - x2/3", "1/2"), "x2"),
    # a denominator factor free of the differentiation variable
    (Q("x1*x2 + 1", "x2"), Q("x1", "x2^2*(x1 + 1)"), "x1"),
    (Q("x1 + 1", "x2*(x1 - 1)"), Q("x2*xi1 - 1", "xi1^2*x1"), "x1"),
)

OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def assert_matches_general(f, g, name):
    for op, fn in OPS.items():
        for a, b in ((f, g), (g, f)):
            if op == "/" and b.is_zero():
                continue
            assert storage(fn(a, b)) == storage(general(op, a, b)), (op, a, b)
    for n in (-2, -1, 2):
        if n > 0 or not f.is_zero():
            assert storage(f**n) == storage(general_pow(f, n)), (f, n)
    for v in (name, "x2", "xi1"):
        assert storage(f.partial(v)) == storage(general_partial(f, v)), (f, v)


def test_hand_picked_arithmetic_matches_the_general_formulas():
    for f, g, name in HAND_PICKED:
        assert_matches_general(f, g, name)
    # the cases reach every cancellation the arithmetic relies on
    assert Q("x1", "x1 + 1") + Q("1", "x1 + 1") == RatFunc.one()
    assert Q("x1*x2 + 1", "x2").partial("x1") == RatFunc.one()
    assert str(Q("1", "1 - x1") / Q("-2*x1 + 1", "3")) == "(3)/(2*x1^2 - 3*x1 + 1)"
    assert str(Q("x1/2 + 1/3", "x1 + 1") * Q("6", "3*x1/4 + 3/4")) == (
        "(4*x1 + 8/3)/(x1^2 + 2*x1 + 1)"
    )


def test_random_arithmetic_matches_the_general_formulas():
    rng = rng_for("symcore-general")
    for variables in (X1, ("x1", "x2"), XV):
        values = []
        while sum(not f.is_poly() for f in values) < 6:
            values.append(rand_ratfunc(rng, variables))
        # products and quotients of the draws share factors of denominators
        values += [general("*", values[i], values[i + 1]) for i in range(6)]
        values += [
            general("/", values[i], values[i + 2])
            for i in range(6)
            if not values[i + 2].is_zero()
        ]
        for f, g in zip(values, values[1:] + values[:1]):
            assert_matches_general(f, g, variables[-1])
            # the second sum shares the denominator factors of g and cancels
            assert storage((f - g) + g) == storage(f)


def test_univariate_gcd_matches_the_pseudo_remainder_sequence():
    rng = rng_for("symcore-euclid")
    x = Poly.variable("x1")
    checked = 0
    for _ in range(60):
        a = rand_poly(rng, X1, max_deg=3, nonzero=True)
        b = rand_poly(rng, X1, max_deg=3, nonzero=True)
        h = rand_poly(rng, X1, max_deg=2, nonzero=True)
        for p, q in ((a * h, b * h), (a * h * h, b * h), (a * x, a + x)):
            if p.is_const() or q.is_const():
                continue
            got, want = poly_gcd(p, q), prs_gcd(p, q)
            assert (got.vars, got.terms) == (want.vars, want.terms), (p, q)
            checked += 1
    assert checked > 100


# -- stored coefficients: an int when integral, else a Fraction ----------------


def stored(values):
    """Every stored coefficient of nested lists of Polys and RatFuncs."""
    for v in values:
        if isinstance(v, (list, tuple)):
            yield from stored(v)
        elif isinstance(v, RatFunc):
            yield from stored((v.num, v.den))
        else:
            yield from v.terms.values()


def assert_stored_exactly(values):
    for c in stored(values):
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


def test_stored_coefficients_are_ints_when_integral_random():
    rng = rng_for("symcore-stored")
    for variables in (X1, ("x1", "x2"), XV):
        for _ in range(8):
            p, q = (rand_poly(rng, variables, nonzero=True) for _ in range(2))
            f, g = (rand_ratfunc(rng, variables) for _ in range(2))
            values = [
                p + q, p - q, -p, p * q, p * Fraction(2, 3), p * 3, q**3,
                p.partial("x1"), poly_gcd(p * q, q * q), exact_div(p * q, q),
                f + g, f - g, f * g, f**2, f**-1 if not f.is_zero() else f,
                f.partial("x1"), P(f"({f}) * ({g}) - 3/({g} + 2)^2", variables),
            ]
            if not g.is_zero():
                values += [f / g, solve_linear([[g, f], [0, g]], [f, 2])]
            assert_stored_exactly(values)


def checked_sum(p: Poly, q: Poly, sign: int) -> Poly:
    """``p + sign*q`` through the checked constructor, on unsorted variables."""
    names = tuple(dict.fromkeys(q.vars + p.vars))
    terms = {}
    for f, s in ((p, 1), (q, sign)):
        for exp, c in f.terms.items():
            powers = dict(zip(f.vars, exp))
            key = tuple(powers.get(v, 0) for v in names)
            terms[key] = terms.get(key, 0) + s * c
    return Poly(names, terms)


def checked_partial(p: Poly, name: str) -> Poly:
    """``d p / d name`` through the checked constructor."""
    terms = {}
    for exp, c in p.terms.items():
        k = dict(zip(p.vars, exp)).get(name, 0)
        if k:
            key = tuple(e - (v == name) for v, e in zip(p.vars, exp))
            terms[key] = terms.get(key, 0) + c * k
    return Poly(p.vars, terms)


def assert_same_storage(got: Poly, want: Poly):
    assert (got.vars, got.terms) == (want.vars, want.terms)
    assert {e: type(c) for e, c in got.terms.items()} == {
        e: type(c) for e, c in want.terms.items()
    }


def test_sums_and_partials_store_what_the_checked_constructor_stores():
    half = Poly(X1, {(1,): Fraction(1, 2)})
    p = P("x1*x2 + x3", ("x1", "x2", "x3")).num
    assert_same_storage(p - p, Poly((), {}))
    assert_same_storage(p + -p, Poly((), {}))
    assert_same_storage(half + half, Poly(X1, {(1,): 1}))
    assert type((half + half).terms[(1,)]) is int
    assert_same_storage(p.partial("x1"), Poly(("x2",), {(1,): 1}))
    rng = rng_for("symcore-unchecked-sums")
    for _ in range(200):
        p, q = (rand_poly(rng, rng.sample(XV, rng.randint(0, 3))) for _ in range(2))
        if rng.random() < 0.5:
            # p - q then cancels up to two terms of p, and the variables they alone use
            q = q + Poly(p.vars, dict(list(p.terms.items())[:2]))
        assert_same_storage(p + q, checked_sum(p, q, 1))
        assert_same_storage(p - q, checked_sum(p, q, -1))
        for name in XV:
            assert_same_storage(p.partial(name), checked_partial(p, name))


def test_constant_operands_skip_the_polynomial_routes(monkeypatch):
    """A polynomial times a constant polynomial, in either order, scales each
    coefficient instead of running the aligned double loop; a sum or
    difference of two constant rational functions makes no ``Poly`` sum at
    all, and their product aligns nothing.  A zero sum is the shared zero."""
    calls = []
    p = P("x1^2/3 + 2*x2").num
    constants = [RatFunc.const(k) for k in (3, Fraction(3, 2), Fraction(-1, 3), -3)]

    def recording(name):
        real = getattr(Poly, name)

        def wrapper(a, b, *rest):
            calls.append((name, a, b))
            return real(a, b, *rest)

        return wrapper

    monkeypatch.setattr(Poly, "_aligned", recording("_aligned"))
    for k in (3, Fraction(3, 2), Fraction(-1, 3), 1, 0):
        want = Poly(p.vars, {e: c * k for e, c in p.terms.items()})
        for got in (p * Poly.const(k), Poly.const(k) * p):
            assert_same_storage(got, want)
    assert_same_storage(Poly.const(Fraction(2, 3)) * Poly.const(Fraction(3, 2)), Poly.one())
    assert calls == []
    for name in ("__add__", "__sub__"):
        monkeypatch.setattr(Poly, name, recording(name))
    for f in constants:
        for g in constants:
            assert (f + g, f - g, f * g) == tuple(
                RatFunc.const(op(f.constant(), g.constant())) for op in (add, sub, mul)
            )
        # a zero result, the most common one in the battery residuals, builds nothing
        assert f - f is RatFunc.zero() and f + (-f) is RatFunc.zero()
    assert calls == []


def test_equal_operands_sum_without_a_gcd(monkeypatch):
    """``f + f`` is ``2 f`` and ``f - f`` is zero with no gcd, for a bivariate
    ``f`` with a nonconstant denominator, as two equal but distinct values."""
    import fmanlin.symcore as symcore

    names = ("x1", "x2")
    f = parse_expr("(-2*x1 - 1)/(x1^2 - x2^2 + 2*x1 - 3*x2 - 1)", names).partial("x2")
    g = RatFunc(f.num, f.den)
    twice = f * 2
    assert g == f and g is not f and not f.den.is_const()

    def forbidden(a, b):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(symcore, "poly_gcd", forbidden)
    assert f + g == twice and g + f == twice and f + f == twice
    assert f - g is RatFunc.zero() and g - f is RatFunc.zero()


def test_coefficient_divisions_store_exact_values():
    # integer operands whose quotients are not integral, one per division
    x1, one, two = P("x1").num, Poly.one(), Poly.const(2)
    u = (x1 + one) * (x1 + two)
    v = (x1 * 2 + one) * (x1 + one)  # Euclid's monic step divides by 2
    values = {
        "1/2*x1": RatFunc(x1, two),
        "1/3*x1 + 1/3": exact_div(x1 + one, Poly.const(3)),
        "1/2*x1 + 1/2": exact_div(x1 * x1 + x1, x1 * 2),
        "x1 + 1": poly_gcd(u, v),
        "x1 + 2": poly_gcd(Poly.zero(), x1 * 2 + Poly.const(4)),
        "(1/2*x1 + 1/2)/(x2 + 2)": P("(x1 + 1)/(2*x2 + 4)"),
    }
    assert {text: str(value) for text, value in values.items()} == {
        text: text for text in values
    }
    assert_stored_exactly(list(values.values()))


def test_poly_refuses_floats():
    with pytest.raises(TypeError):
        Poly(X1, {(1,): 0.5})
    with pytest.raises(TypeError):
        Poly.const(1.0)
    with pytest.raises(TypeError):
        P("x1").num * 0.5
    assert Poly(X1, {(1,): Fraction(4, 2)}).terms == {(1,): 2}
    assert type(Poly(X1, {(1,): True}).terms[(1,)]) is int


def test_public_coefficients_stay_fractions():
    p = P("2*x1 + 1").num
    assert p.terms == {(1,): 2, (0,): 1}
    assert type(p.lead()[1]) is Fraction and p.lead()[1] == 2
    assert type(Poly.const(3).constant()) is Fraction
    assert type(Poly.zero().constant()) is Fraction
    assert type(RatFunc.const(3).constant()) is Fraction
    assert RatFunc.const(Fraction(1, 2)).constant() == Fraction(1, 2)
