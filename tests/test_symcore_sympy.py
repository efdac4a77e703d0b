"""Differential oracle: symcore against sympy on seeded random rational functions.

sympy is a test-only dependency; without it this module is skipped.  Inputs
come from the ``conftest`` generators, so ``FMAN_SEED`` reseeds every case.
"""

import sys
from fractions import Fraction
from operator import add, mul, sub

import pytest

from conftest import primitive, rand_fraction, rand_poly, rand_ratfunc, rng_for
from fmanlin import symcore
from fmanlin.symcore import (
    Poly,
    RatFunc,
    _coprime,
    _primitive_assoc,
    _product,
    _sum,
    exact_div,
    parse_expr,
    poly_gcd,
)

sympy = pytest.importorskip("sympy")

VARIABLES = (("x1",), ("x1", "x2"), ("x1", "x2", "xi1"))


def to_sympy(p: Poly):
    gens = [sympy.Symbol(v) for v in p.vars]
    out = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for g, e in zip(gens, exp):
            term *= g**e
        out += term
    return out


def from_sympy(expr, variables) -> Poly:
    poly = sympy.Poly(expr, *[sympy.Symbol(v) for v in variables])
    return Poly(
        variables,
        {exp: Fraction(int(c.p), int(c.q)) for exp, c in poly.terms()},
    )


def assert_same_function(f: RatFunc, expr, variables):
    """``f`` is sympy's cancelled ``expr`` in canonical form."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    num, den = from_sympy(num, variables), from_sympy(den, variables)
    # a coprime pair is unique up to a constant factor, fixed by the
    # canonical denominator
    scale = primitive(den).lead()[1] / den.lead()[1]
    assert (f.num, f.den) == (num * scale, den * scale), (f, expr)


def rf_to_sympy(f: RatFunc):
    return to_sympy(f.num) / to_sympy(f.den)


def test_gcd_matches_sympy():
    rng = rng_for("sympy-gcd")
    for variables in VARIABLES:
        for _ in range(15):
            h = rand_poly(rng, variables, max_deg=2, nonzero=True)
            a = rand_poly(rng, variables, nonzero=True) * h
            b = rand_poly(rng, variables, nonzero=True) * h
            want = sympy.gcd(to_sympy(a), to_sympy(b))
            assert poly_gcd(a, b) == primitive(from_sympy(want, variables)), (a, b)


def test_cancellation_matches_sympy():
    rng = rng_for("sympy-cancel")
    for variables in VARIABLES:
        for _ in range(15):
            h = rand_poly(rng, variables, max_deg=1, nonzero=True)
            num = rand_poly(rng, variables) * h
            den = rand_poly(rng, variables, max_deg=1, nonzero=True) * h
            f = RatFunc(num, den)
            assert_same_function(f, to_sympy(num) / to_sympy(den), variables)


def test_arithmetic_and_partial_match_sympy():
    rng = rng_for("sympy-arith")
    for variables in VARIABLES:
        for _ in range(10):
            f = rand_ratfunc(rng, variables)
            g = rand_ratfunc(rng, variables)
            sf, sg = rf_to_sympy(f), rf_to_sympy(g)
            assert_same_function(f + g, sf + sg, variables)
            assert_same_function(f - g, sf - sg, variables)
            assert_same_function((f - g) + g, sf, variables)
            assert_same_function(f * g, sf * sg, variables)
            if not g.is_zero():
                assert_same_function(f / g, sf / sg, variables)
            for v in variables:
                d = sympy.diff(sf, sympy.Symbol(v))
                assert_same_function(f.partial(v), d, variables)


def test_parse_expr_matches_sympy():
    rng = rng_for("sympy-parse")
    for variables in VARIABLES:
        for _ in range(10):
            f, g, h = (rand_ratfunc(rng, variables) for _ in range(3))
            text = f"({f}) * ({g}) - ({h})^2"
            if not g.is_zero():
                text += f" + ({f})/({g})"
            local = {v: sympy.Symbol(v) for v in variables}
            want = sympy.sympify(text.replace("^", "**"), locals=local)
            assert_same_function(parse_expr(text, variables), want, variables)


def test_coefficient_divisions_match_sympy():
    # integer operands whose quotients are not integral, one per division
    x1, x2 = sympy.symbols("x1 x2")
    X, XY = ("x1",), ("x1", "x2")
    p = from_sympy(2 * x1 + 4, X)
    assert _primitive_assoc(p) == primitive(p)
    assert exact_div(from_sympy(x1 + 1, X), Poly.const(3)) == from_sympy((x1 + 1) / 3, X)
    q = exact_div(from_sympy(x1**2 + x1, X), from_sympy(2 * x1, X))
    assert q == from_sympy((x1 + 1) / 2, X)
    # Euclid's monic step divides by the leading coefficient 2
    u, v = (x1 + 1) * (x1 + 2), (2 * x1 + 1) * (x1 + 1)
    want = primitive(from_sympy(sympy.gcd(u, v), X))
    assert poly_gcd(from_sympy(sympy.expand(u), X), from_sympy(sympy.expand(v), X)) == want
    assert_same_function(RatFunc(Poly.variable("x1"), Poly.const(2)), x1 / 2, X)
    text = "(x1 + 1)/(2*x2 + 4)"
    assert_same_function(parse_expr(text, XY), (x1 + 1) / (2 * x2 + 4), XY)


def stored(value):
    """What a ``Poly`` or ``RatFunc`` stores, hashes and prints, with the
    class of each coefficient."""
    polys = (value.num, value.den) if isinstance(value, RatFunc) else (value,)
    fields = [
        (p.vars, sorted((e, c, type(c).__name__) for e, c in p.terms.items()))
        for p in polys
    ]
    return fields, hash(value), str(value)


def sympy_value(expr, variables) -> RatFunc:
    """sympy's cancelled ``expr`` as a ``RatFunc`` built by the constructor."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    return RatFunc(from_sympy(num, variables), from_sympy(den, variables))


def sympy_const(c):
    return sympy.Rational(c.numerator, c.denominator)


def scaled(p: Poly, k) -> Poly:
    """``k * p`` through the checked constructor."""
    return Poly(p.vars, {e: c * k for e, c in p.terms.items()})


def test_constant_operands_store_what_the_general_route_stores():
    """Constant +- constant, constant * constant and a polynomial or rational
    function times a constant, in either order, take the direct path.  Each
    result equals the checked constructor's value and sympy's in variables,
    terms, coefficient class, denominator, hash and printed text."""
    rng = rng_for("sympy-constant-operands")
    # sums that are integers or 0, and a difference that is 0
    pairs = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(-1, 3))]
    pairs += [(Fraction(5, 3), Fraction(4, 3)), (Fraction(7, 4), Fraction(7, 4)), (2, -2)]
    pairs += [(rand_fraction(rng), rand_fraction(rng)) for _ in range(30)]
    for a, b in pairs:
        for op in (add, sub, mul):
            got = op(RatFunc.const(a), RatFunc.const(b))
            general = RatFunc(Poly((), {(): op(Fraction(a), Fraction(b))}))
            want = sympy_value(op(sympy_const(a), sympy_const(b)), ("x1",))
            assert stored(got) == stored(general) == stored(want), (a, op, b)
        got = Poly.const(a) * Poly.const(b)
        assert stored(got) == stored(Poly.const(Fraction(a) * b)), (a, b)
    for variables in VARIABLES:
        for _ in range(10):
            f = rand_ratfunc(rng, variables)
            k = rand_fraction(rng)
            general = RatFunc(scaled(f.num, k), f.den)
            want = sympy_value(rf_to_sympy(f) * sympy_const(k), variables)
            for got in (f * RatFunc.const(k), RatFunc.const(k) * f):
                assert stored(got) == stored(general) == stored(want), (f, k)
            for got in (f.num * Poly.const(k), Poly.const(k) * f.num):
                assert stored(got) == stored(scaled(f.num, k)), (f.num, k)


def nonzero_ratfunc(rng, variables):
    while True:
        f = rand_ratfunc(rng, variables)
        if not f.is_zero():
            return f


def constructions(rng, variables):
    """``(path, value)`` for every way symcore builds a rational function."""
    f, g = nonzero_ratfunc(rng, variables), nonzero_ratfunc(rng, variables)
    x = Poly.variable(variables[0])
    yield "RatFunc", RatFunc(rand_poly(rng, variables), rand_poly(rng, variables, nonzero=True))
    yield "_coprime", _coprime(f.num, f.den)
    yield "__neg__", -f
    # two nonconstant polynomials, so neither is 0 or 1
    yield "poly * poly", RatFunc(x * rand_poly(rng, variables, nonzero=True)) * RatFunc(x + Poly.one())
    yield "_sum", _sum(f, g, add)
    yield "_product", _product(f.num, f.den, g.num, g.den)
    yield "__pow__", f**2
    yield "__pow__ < 0", f**-1
    yield "parse_expr", parse_expr(str(f), variables)
    # the direct paths for constant operands
    k, m = (RatFunc.const(rand_fraction(rng) or 1) for _ in range(2))
    yield "const + const", k + m
    yield "const - const", k - m
    yield "const * const", k * m
    yield "const * poly", k * RatFunc(x * rand_poly(rng, variables, nonzero=True))
    yield "poly * const", RatFunc(x * rand_poly(rng, variables, nonzero=True)) * k


def test_every_construction_keeps_correct_partials():
    """Each value starts with no kept partials, and each partial it keeps is
    sympy's derivative, returned as the same object when asked again."""
    rng = rng_for("sympy-kept-partials")
    for variables in VARIABLES:
        for _ in range(4):
            for path, h in constructions(rng, variables):
                assert h._partials is None, path
                sh = rf_to_sympy(h)
                for v in variables:
                    d = h.partial(v)
                    assert_same_function(d, sympy.diff(sh, sympy.Symbol(v)), variables)
                    assert h.partial(v) is d, (path, h, v)
                kept = {v for v in variables if v in h.free_vars()}
                assert set(h._partials or ()) == kept, (path, h)


def test_kept_partials_stay_with_their_value():
    """An equal value built separately keeps its own partials, and a value's
    partials go when the value goes: there is no cache beside the value."""
    rng = rng_for("sympy-kept-own")
    for variables in VARIABLES:
        for _ in range(10):
            f = nonzero_ratfunc(rng, variables)
            for v in variables:
                f.partial(v)
            g = parse_expr(str(f), variables)
            assert g == f and g is not f and g._partials is None
            for v in sorted(f.free_vars()):
                assert g.partial(v) == f.partial(v) and g.partial(v) is not f.partial(v)
            if f.free_vars():
                d = f.partial(min(f.free_vars()))
                held = sys.getrefcount(d)
                del f
                assert sys.getrefcount(d) == held - 1
    # no module-level container of symcore holds a value
    for name, obj in vars(symcore).items():
        if isinstance(obj, (dict, list, set, tuple)):
            items = obj.values() if isinstance(obj, dict) else obj
            assert not any(isinstance(x, RatFunc) for x in items), name
