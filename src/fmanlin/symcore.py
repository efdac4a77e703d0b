"""Exact scalar arithmetic for the chart calculus.

Multivariate polynomials and rational functions over exact rationals, symbolic
partial derivatives, a recursive-descent parser for the expression language
used by model files, and fraction-free linear solving; also the immutable
record base (``_Frozen``) of the package's value types.

All values are immutable and kept in a canonical form (graded-lexicographic
term order, coprime numerator/denominator, integer-primitive denominator with
positive leading coefficient), so structural equality ``==`` decides
mathematical equality.  A coefficient is stored as an ``int`` when integral
and as a ``Fraction`` only when not, so most arithmetic is Python's integer
arithmetic (Knuth, TAOCP vol. 2, 4.6.1); every coefficient division is an
explicit ``Fraction`` or exact ``divmod``, and a float is refused.  Results
canonical by construction (negations, products) skip the checking constructor;
every such path builds through one helper, `_raw`.

Constant operands take a direct path, since most tables of the examples are
integer constants.  A sum or difference of two constant rational functions
computes its one coefficient and builds the value through `_const` (an
``int`` when integral, the zero value for 0); a polynomial times a constant
polynomial, in either order and two constants included, scales each
coefficient in the scalar branch of ``Poly.__mul__``; and a value over the
denominator `_ONE` is already normal.  Each path stores the value
exactly as the general route does, so storage, hashes and printed text are
unchanged.

A rational function keeps each partial derivative it computes, keyed by the
variable, in a slot of its own: values are immutable and canonical, so the
kept derivative is the one a new computation gives.  The derivatives live as
long as their value and no longer; there is no module-level or value-keyed
cache, so an equal value built separately starts with none.

Two rules keep the gcds small.  Arithmetic on canonical operands takes gcds
of the operands, not of the products: a sum ``a/b + c/d`` is reduced only by
``gcd(t, gcd(b, d))`` of its new numerator ``t``, a product only by the cross
gcds ``gcd(a, d)`` and ``gcd(c, b)`` (Henrici 1956; Knuth, TAOCP vol. 2,
4.5.1).  And :func:`poly_gcd` bottoms out in Euclid's algorithm on dense
coefficient lists once both operands are in one variable, with a primitive
pseudo-remainder sequence above it.  Either way the result is brought to the
same canonical form, which is unique, so it is stored, printed and compared
exactly as a value built by the full gcd would be.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from operator import add, sub

__all__ = [
    "Poly",
    "RatFunc",
    "ParseError",
    "SingularMatrixError",
    "parse_expr",
    "poly_gcd",
    "solve_linear",
]

_VAR_RE = re.compile(r"([A-Za-z_]+)([0-9]*)$")
_KEY_CACHE: dict[str, tuple[str, int]] = {}


def _var_key(name: str) -> tuple[str, int]:
    """Sort key giving the fixed global variable order (prefix, then number)."""
    key = _KEY_CACHE.get(name)
    if key is None:
        m = _VAR_RE.match(name)
        key = (m.group(1), int(m.group(2) or "0")) if m else (name, 0)
        _KEY_CACHE[name] = key
    return key


def _grlex(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


# -- immutable record types ---------------------------------------------------


class _Frozen:
    """Base of the package's immutable record types.

    ``__init__`` stores the fields through :meth:`_set`; after that,
    assignment and deletion raise ``AttributeError``.  A ``cached_property``
    still fills in, as it writes the instance ``__dict__`` directly.
    """

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)  # no field is a data descriptor of its class

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Value(_Frozen):
    """A :class:`_Frozen` type that compares and hashes by its fields.

    Each subclass sets ``_key`` to an ``operator.attrgetter`` of its fields.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))


# -- polynomials ----------------------------------------------------------------


class Poly:
    """A multivariate polynomial with exact rational coefficients.

    ``vars`` holds the variables that actually occur, sorted in the global
    variable order; ``terms`` maps exponent tuples (one entry per variable) to
    nonzero coefficients, each an ``int`` when integral, else a ``Fraction``;
    floats are refused.  Construction canonicalizes, so two equal polynomials
    have identical storage.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        clean: dict = {}
        for exp, coeff in terms.items():
            if coeff.__class__ is not int:
                coeff = _coeff(coeff)
            if coeff:
                clean[tuple(exp)] = coeff
        used = [i for i in range(len(variables)) if any(e[i] for e in clean)]
        order = sorted(used, key=lambda i: _var_key(variables[i]))
        if order == list(range(len(variables))):
            self.vars = variables
            self.terms = clean
        else:
            self.vars = tuple(variables[i] for i in order)
            self.terms = {tuple(e[i] for i in order): c for e, c in clean.items()}
        self._hash = None

    @staticmethod
    def _canonical(variables: tuple, terms: dict) -> "Poly":
        """Wrap ``variables`` and ``terms`` that are already canonical, unchecked."""
        p = Poly.__new__(Poly)
        p.vars, p.terms, p._hash = variables, terms, None
        return p

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def const(value) -> "Poly":
        return Poly((), {(): value})

    @staticmethod
    def variable(name: str) -> "Poly":
        return Poly._canonical((name,), {(1,): 1})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def constant(self) -> Fraction:
        """The value of a constant polynomial."""
        if self.vars:
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get((), 0))

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    # -- canonical order helpers --------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True)

    def lead(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex)
        return exp, Fraction(self.terms[exp])

    # -- alignment ----------------------------------------------------------

    def _on_vars(self, variables: tuple[str, ...]) -> dict:
        """Re-key ``terms`` on a superset variable tuple."""
        if variables == self.vars:
            return self.terms
        pos = {v: i for i, v in enumerate(variables)}
        idx = [pos[v] for v in self.vars]
        width = len(variables)
        out = {}
        for exp, c in self.terms.items():
            e = [0] * width
            for pos, ev in zip(idx, exp):
                e[pos] = ev
            out[tuple(e)] = c
        return out

    def _aligned(self, other: "Poly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = tuple(sorted(set(self.vars) | set(other.vars), key=_var_key))
        return merged, self._on_vars(merged), other._on_vars(merged)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other, op=add):
        if not isinstance(other, Poly):
            return NotImplemented
        variables, a, b = self._aligned(other)
        out = dict(a)
        for exp, c in b.items():
            out[exp] = op(out.get(exp, 0), c)
        return _trimmed(variables, out)

    def __sub__(self, other):
        return self.__add__(other, sub)

    def __neg__(self):
        return Poly._canonical(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.vars:
                self, other = other, self
            if not other.vars:
                other = other.terms.get((), 0)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return _ZERO
            if other == 1:
                return self
            terms = {e: c * other for e, c in self.terms.items()}
            return Poly._canonical(self.vars, _tidy(terms))
        if not isinstance(other, Poly):
            return NotImplemented
        # every variable of either nonconstant factor occurs in the product
        variables, a, b = self._aligned(other)
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(exp)
                out[exp] = ca * cb if prev is None else prev + ca * cb
        return Poly._canonical(variables, _tidy(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ------------------------------------------------------------

    def partial(self, name: str) -> "Poly":
        """Partial derivative with respect to the named variable."""
        if name not in self.vars:
            return _ZERO
        i = self.vars.index(name)
        out = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k:
                e = list(exp)
                e[i] = k - 1
                key = tuple(e)
                prev = out.get(key)
                val = c * k
                out[key] = val if prev is None else prev + val
        return _trimmed(self.vars, out)

    # -- equality / hashing / printing ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exp)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)


_ZERO = Poly._canonical((), {})
_ONE = Poly._canonical((), {(): 1})


def _coeff(value):
    """``value`` as a stored coefficient: an ``int`` when integral."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficient {value!r} is not an int or a Fraction")
    return int(value) if value.denominator == 1 else value


def _tidy(terms: dict) -> dict:
    """``terms`` without zeros, with each integral ``Fraction`` as an ``int``."""
    return {
        e: c if c.__class__ is int or c.denominator != 1 else c.numerator
        for e, c in terms.items()
        if c
    }


def _trimmed(variables: tuple, terms: dict) -> Poly:
    """``terms`` on sorted ``variables`` as a `Poly`: tidied, unused variables cut."""
    terms = _tidy(terms)
    used = [i for i, powers in enumerate(zip(*terms)) if any(powers)]
    if len(used) < len(variables):
        variables = tuple(variables[i] for i in used)
        terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
    return Poly._canonical(variables, terms)


def _div(a, b):
    """The exact quotient of two coefficients, an ``int`` when integral."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coeff(Fraction(a, b))


# -- integer-primitive normal form and exact division ------------------------


def _content(p: Poly) -> tuple[int, int]:
    """``(u, v)`` such that ``p * v / u`` has coprime integer coefficients and a
    positive leading coefficient, for a nonzero ``p``."""
    u, v = 0, 1
    for c in p.terms.values():
        u = _int_gcd(u, c.numerator)
        v = _int_lcm(v, c.denominator)
    lead = p.terms[max(p.terms, key=_grlex)]  # stored, so no Fraction is built
    return (-u if lead < 0 else u), v


def _primitive_assoc(p: Poly) -> Poly:
    """The integer-primitive, positive-leading associate of ``p``."""
    if p.is_zero():
        return p
    u, v = _content(p)
    if u == 1 and v == 1:
        return p
    if v == 1:  # integer coefficients, each divisible by u
        return Poly._canonical(p.vars, {e: c // u for e, c in p.terms.items()})
    return p * Fraction(v, u)


def exact_div(a: Poly, b: Poly) -> Poly:
    """Exact polynomial division ``a / b``; raises ``ValueError`` if inexact."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return _ZERO
    if b.is_const():
        c = b.terms[()]
        return a if c == 1 else a * Fraction(1, c)
    variables = tuple(sorted(set(a.vars) | set(b.vars), key=_var_key))
    ra = dict(a._on_vars(variables))
    tb = b._on_vars(variables)
    eb = max(tb, key=_grlex)
    cb = tb[eb]
    quot: dict = {}
    while ra:
        ea = max(ra, key=_grlex)
        diff = tuple(x - y for x, y in zip(ea, eb))
        if any(d < 0 for d in diff):
            raise ValueError("inexact polynomial division")
        cq = _div(ra[ea], cb)
        quot[diff] = cq
        for e, c in tb.items():
            key = tuple(x + y for x, y in zip(diff, e))
            val = ra.get(key, 0) - cq * c
            if val:
                ra[key] = val
            else:
                ra.pop(key, None)
    return Poly(variables, quot)


# -- gcd (Euclid in one variable, primitive pseudo-remainder sequence above) ---


def _as_univar(p: Poly, name: str) -> dict[int, Poly]:
    if name not in p.vars:
        return {0: p}
    i = p.vars.index(name)
    rest = p.vars[:i] + p.vars[i + 1 :]
    out: dict[int, dict] = {}
    for exp, c in p.terms.items():
        d = exp[i]
        out.setdefault(d, {})[exp[:i] + exp[i + 1 :]] = c
    return {d: Poly(rest, t) for d, t in out.items()}


def _content_wrt(p: Poly, name: str) -> Poly:
    g = _ZERO
    for c in _as_univar(p, name).values():
        g = poly_gcd(g, c)
        if g == _ONE:
            break
    return g


def _prem(a: Poly, b: Poly, name: str) -> Poly:
    """Pseudo-remainder of ``a`` by ``b`` as polynomials in ``name``."""
    ub = _as_univar(b, name)
    db = max(ub)
    lb = ub[db]
    x = Poly.variable(name)
    r = a
    dr = r.degree_in(name)
    while not r.is_zero() and dr >= db:
        ur = _as_univar(r, name)
        lr = ur[dr]
        r = r * lb - b * lr * x ** (dr - db)
        dr = r.degree_in(name)
    return r


def _dense(p: Poly) -> list:
    """Coefficients of a univariate ``p``, lowest degree first."""
    out = [0] * (max(e for e, in p.terms) + 1)
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def _euclid(a: Poly, b: Poly) -> Poly:
    """Gcd of two polynomials in the same single variable: Euclid over Q
    on dense coefficient lists (Brown, JACM 1971), then the canonical
    associate."""
    u, v = _dense(a), _dense(b)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        lead = v[-1]
        v = [_div(c, lead) for c in v]
        # u mod v, with v monic
        dv = len(v) - 1
        for k in range(len(u) - 1, dv - 1, -1):
            q = u[k]
            if q:
                for i in range(dv):
                    u[k - dv + i] -= q * v[i]
        del u[dv:]
        while u and not u[-1]:
            u.pop()
        u, v = v, u
    if v:
        return _ONE
    return _primitive_assoc(Poly(a.vars, {(d,): c for d, c in enumerate(u) if c}))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor over the rationals.

    The result is the canonical associate: integer-primitive with positive
    leading coefficient (``1`` for coprime inputs).  Operands that share no
    variable are coprime.  A variable of one operand only cannot occur in a
    common factor, so the gcd is that of the other operand with the first
    one's coefficients in the variable.  Operands in one and the same
    variable go through `_euclid`; the rest go through the primitive
    pseudo-remainder sequence, whose contents recurse down to that base case.
    """
    if a.is_zero():
        return _primitive_assoc(b)
    if b.is_zero():
        return _primitive_assoc(a)
    if a.is_const() or b.is_const():
        return _ONE
    if a.vars != b.vars:
        if set(a.vars).isdisjoint(b.vars):
            return _ONE
        for p, q in ((a, b), (b, a)):
            for name in p.vars:
                if name not in q.vars:
                    g = q
                    for c in _as_univar(p, name).values():
                        g = poly_gcd(g, c)
                        if g.is_const():
                            break
                    return g
    if len(a.vars) == 1:
        return _euclid(a, b)
    name = a.vars[-1]
    ca = _content_wrt(a, name)
    cb = _content_wrt(b, name)
    cont = poly_gcd(ca, cb)
    pa = _primitive_assoc(exact_div(a, ca))
    pb = _primitive_assoc(exact_div(b, cb))
    if pa.degree_in(name) < pb.degree_in(name):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _prem(pa, pb, name)
        if not r.is_zero():
            r = _primitive_assoc(exact_div(r, _content_wrt(r, name)))
        pa, pb = pb, r
    if pa.degree_in(name) == 0:
        # primitive parts are coprime
        return _primitive_assoc(cont)
    return _primitive_assoc(cont * pa)


# -- canonical rational functions ---------------------------------------------


def _normal(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Scale a coprime pair to an integer-primitive denominator with positive
    leading coefficient (``1`` for a constant)."""
    if num.is_zero():
        return _ZERO, _ONE
    if den is _ONE:
        return num, den
    u, v = _content(den)
    if u == 1 and v == 1:
        return num, den
    s = Fraction(v, u)
    return num * s, (_ONE if den.is_const() else den * s)


class RatFunc:
    """A rational function: quotient of two :class:`Poly` in canonical form.

    Numerator and denominator are coprime; the denominator is an
    integer-primitive polynomial with positive leading coefficient (``1`` for
    polynomials).  The constructor divides out the full gcd; the arithmetic
    cancels on its canonical operands instead and builds through `_coprime`.
    """

    __slots__ = ("num", "den", "_hash", "_partials")

    def __init__(self, num: Poly, den: Poly = _ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not (num.is_zero() or den.is_const()):
            g = poly_gcd(num, den)
            num, den = exact_div(num, g), exact_div(den, g)
        self.num, self.den = _normal(num, den)
        self._hash = self._partials = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return _RF_ZERO

    @staticmethod
    def one() -> "RatFunc":
        return _RF_ONE

    @staticmethod
    def const(value) -> "RatFunc":
        return RatFunc(Poly.const(value))

    @staticmethod
    def variable(name: str) -> "RatFunc":
        return RatFunc(Poly.variable(name))

    @staticmethod
    def coerce(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, Poly):
            return RatFunc(value)
        if isinstance(value, (int, Fraction)):
            return RatFunc(Poly.const(value))
        raise TypeError(f"cannot interpret {value!r} as a rational function")

    # -- predicates -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return not self.den.vars  # a constant denominator is 1

    def is_const(self) -> bool:
        return not (self.num.vars or self.den.vars)

    def constant(self) -> Fraction:
        if not self.is_const():
            raise ValueError("rational function is not constant")
        return self.num.constant()

    def free_vars(self) -> frozenset[str]:
        return frozenset(self.num.vars) | frozenset(self.den.vars)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        return _sum(self, other, add)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return -other
        return _sum(self, other, sub)

    def __rsub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return _raw(-self.num, self.den)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if not self.num.terms or not other.num.terms:
            return _RF_ZERO
        if _is_one(other):
            return self
        if _is_one(self):
            return other
        if not (self.den.vars or other.den.vars):  # two polynomials
            return _raw(self.num * other.num, _ONE)
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int):
        # powers of a coprime pair stay coprime
        if n == 0:
            return _RF_ONE
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("zero rational function to a negative power")
            return _coprime(self.den ** (-n), self.num ** (-n))
        return _coprime(self.num**n, self.den**n)

    # -- calculus ---------------------------------------------------------------

    def partial(self, name: str) -> "RatFunc":
        """Partial derivative with respect to the named variable.

        Computed once per variable and kept on the value (see the module
        docstring), so differentiating again costs a dict lookup.
        """
        if name not in self.num.vars and name not in self.den.vars:
            return _RF_ZERO
        kept = self._partials
        if kept is None:
            kept = self._partials = {}
        else:
            out = kept.get(name)
            if out is not None:
                return out
        out = kept[name] = self._derivative(name)
        return out

    def _derivative(self, name: str) -> "RatFunc":
        """The partial derivative along a variable of the value, computed."""
        a, b = self.num, self.den
        if self.is_poly():
            return _coprime(a.partial(name), _ONE)
        # With g = gcd(b, b') and b = g*u, (a/b)' = (a'*u - a*(b'/g)) / (b*u).
        # An irreducible factor of b that contains `name` divides g one time
        # less than b, so it divides u but not the new numerator.  A factor
        # free of `name` divides g wholly and may divide the numerator: d/dx1
        # of (x1*x2 + 1)/x2 is x2/x2^2, which is 1.  So the numerator is still
        # reduced by its gcd with g, and by nothing else.
        db = b.partial(name)
        if db.is_zero():
            g, u, t = b, _ONE, a.partial(name)
        else:
            g = poly_gcd(b, db)
            u = exact_div(b, g)
            t = a.partial(name) * u - a * exact_div(db, g)
        h = poly_gcd(t, g)
        return _coprime(exact_div(t, h), exact_div(b, h) * u)

    # -- equality / hashing / printing --------------------------------------------

    def __eq__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        return f"({self.num})/({self.den})"


_RF_ZERO = RatFunc(_ZERO)
_RF_ONE = RatFunc(_ONE)


def _raw(num: Poly, den: Poly) -> RatFunc:
    """The value ``num/den`` of a canonical pair, built without any check."""
    out = RatFunc.__new__(RatFunc)
    out.num, out.den, out._hash, out._partials = num, den, None, None
    return out


def _const(value) -> RatFunc:
    """The constant ``value``, an ``int`` or a ``Fraction``, built unchecked."""
    return _raw(Poly._canonical((), _tidy({(): value})), _ONE) if value else _RF_ZERO


def _coprime(num: Poly, den: Poly) -> RatFunc:
    """The value ``num/den`` of a coprime pair, built without a gcd."""
    return _raw(*_normal(num, den))


def _sum(f: RatFunc, h: RatFunc, op) -> RatFunc:
    """``op(f, h)`` for ``op`` in (add, sub) on nonzero canonical operands.

    With ``f = a/b``, ``h = c/d``, ``g = gcd(b, d)``, ``b = g*b1`` and
    ``d = g*d1``, the value is ``t / (b1*d)`` with ``t = a*d1 op c*b1``.  As
    ``a`` is coprime to ``b``, ``c`` to ``d`` and ``b1`` to ``d1``, ``t`` is
    coprime to ``b1*d1``: only ``gcd(t, g)`` can cancel, and ``g = 1`` leaves
    nothing to cancel (Henrici; Knuth, TAOCP vol. 2, 4.5.1).  Two constants
    take the direct path: their coefficient is computed and built by `_const`.
    Equal operands give ``2f`` (``2a`` is coprime to ``b``) or zero directly.
    """
    a, b, c, d = f.num, f.den, h.num, h.den
    if not (b.vars or d.vars):
        if a.vars or c.vars:
            return _coprime(op(a, c), _ONE)
        return _const(op(a.terms[()], c.terms[()]))
    if b == d:
        if a == c:  # 2f or 0, with no gcd
            return _coprime(a * 2, b) if op is add else _RF_ZERO
        g, b1, d1 = b, _ONE, _ONE
    else:
        g = poly_gcd(b, d)
        b1, d1 = exact_div(b, g), exact_div(d, g)
    t = op(a * d1, c * b1)
    if t.is_zero():
        return _RF_ZERO
    k = poly_gcd(t, g)
    return _coprime(exact_div(t, k), b1 * exact_div(d, k))


def _product(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFunc:
    """``(a/b) * (c/d)`` for coprime pairs ``a, b`` and ``c, d``.

    Only the cross gcds ``gcd(a, d)`` and ``gcd(c, b)`` can cancel.  ``d``
    need not be canonical, so a quotient is the product with the reciprocal.
    """
    if b.is_const() and d.is_const():
        return _coprime(a * c, b * d)
    g1 = poly_gcd(a, d)
    g2 = poly_gcd(c, b)
    return _coprime(
        exact_div(a, g1) * exact_div(c, g2),
        exact_div(b, g2) * exact_div(d, g1),
    )


def _as_rf(value):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Fraction)):
        return RatFunc.const(value)
    return None


def _is_one(f: RatFunc) -> bool:
    """Whether ``f`` is the constant 1, however it was built.

    A canonical value with no variables in its numerator or denominator is a
    constant over the denominator 1, so only the numerator's one coefficient
    is left to compare.
    """
    return not f.num.vars and not f.den.vars and f.num.terms.get(()) == 1


# -- expression language -------------------------------------------------------
#
# expr   := term (('+' | '-') term)*
# term   := factor (('*' | '/') factor)*
# factor := base ('^' integer)?
# base   := integer | ident | '(' expr ')' | '-' factor


class ParseError(ValueError):
    """Syntax or name error in an expression, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(
                f"unexpected character {stripped[0]!r}",
                len(text) - len(stripped),
            )
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("ident", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


MAX_DEPTH = 100
"""Deepest nesting of parentheses and unary minus that :func:`parse_expr` accepts.

The parser recurses a few frames per level, so this keeps it well inside the
interpreter's recursion limit."""

MAX_EXPONENT = 100
"""Largest absolute value of an exponent that :func:`parse_expr` accepts."""

MAX_TERMS = 1000
"""Most terms :func:`parse_expr` lets a numerator or denominator have.

The budget holds for every value the parser builds, not only the result: a
power is multiplied out one factor at a time and stops at the first product
over the budget, so ``(x1 + x2 + x3 + 1)^40`` is refused after a few
milliseconds instead of being expanded to its 12,341 terms."""

MAX_DIGITS = 1000
"""Most decimal digits :func:`parse_expr` lets an integer have.

The budget holds for integer literals and for the numerator and the
denominator of every coefficient of every value the parser builds, so
``99999^100 * 99999^100 * 99999^100`` is refused at its second ``*``.  It
keeps parsed values far below the interpreter's limit on converting integers
to decimal strings, which rendering a residual needs."""

_DIGIT_BOUND = 10**MAX_DIGITS


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.variables = frozenset(variables)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self) -> RatFunc:
        value = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", offset)
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        while True:
            kind, op, offset = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
                value = _within_budget(value, offset)
            else:
                return value

    def term(self) -> RatFunc:
        value = self.factor()
        while True:
            kind, op, offset = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                rhs = self.factor()
                if op == "*":
                    value = _within_budget(value * rhs, offset)
                else:
                    if rhs.is_zero():
                        raise ParseError("division by the zero polynomial", offset)
                    value = _within_budget(value / rhs, offset)
            else:
                return value

    def factor(self) -> RatFunc:
        value = self.base()
        kind, op, _ = self.peek()
        if kind == "op" and op == "^":
            self.advance()
            sign = 1
            kind, text, offset = self.peek()
            if kind == "op" and text == "-":
                sign = -1
                self.advance()
                kind, text, offset = self.peek()
            if kind != "int":
                raise ParseError("expected an integer exponent", offset)
            self.advance()
            n = sign * int(text)
            if abs(n) > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", offset)
            if n < 0 and value.is_zero():
                raise ParseError("zero to a negative power", offset)
            value = _budget_power(value, n, offset)
        return value

    def base(self) -> RatFunc:
        kind, text, offset = self.advance()
        if kind == "int":
            digits = text.lstrip("0")
            if len(digits) > MAX_DIGITS:
                raise ParseError(f"integer has more than {MAX_DIGITS} digits", offset)
            return RatFunc.const(int(digits or "0"))
        if kind == "ident":
            if text not in self.variables:
                raise ParseError(f"unknown variable {text!r}", offset)
            return RatFunc.variable(text)
        if kind == "op" and text in ("(", "-"):
            if self.depth == MAX_DEPTH:
                raise ParseError(
                    f"expression nested deeper than {MAX_DEPTH} levels", offset
                )
            self.depth += 1
            if text == "(":
                value = self.expr()
                self.expect_op(")")
            else:
                value = -self.factor()
            self.depth -= 1
            return value
        raise ParseError(
            f"unexpected {text!r}" if text else "unexpected end of input", offset
        )


def _check_budget(num: Poly, den: Poly, offset: int) -> None:
    """Refuse a value over :data:`MAX_TERMS` or :data:`MAX_DIGITS`."""
    if max(len(num.terms), len(den.terms)) > MAX_TERMS:
        raise ParseError(f"expression has more than {MAX_TERMS} terms", offset)
    for poly in (num, den):
        for c in poly.terms.values():
            if abs(c.numerator) >= _DIGIT_BOUND or c.denominator >= _DIGIT_BOUND:
                raise ParseError(
                    f"coefficient has more than {MAX_DIGITS} digits", offset
                )


def _within_budget(value: RatFunc, offset: int) -> RatFunc:
    _check_budget(value.num, value.den, offset)
    return value


def _budget_power(value: RatFunc, n: int, offset: int) -> RatFunc:
    """``value ** n``, one factor at a time within the parser's budgets."""
    num, den = _ONE, _ONE
    for _ in range(abs(n)):
        num, den = num * value.num, den * value.den
        _check_budget(num, den, offset)
    # powers of a coprime pair stay coprime; a negative power moves the
    # content of the old numerator, which can lengthen the new one
    value = _coprime(num, den) if n >= 0 else _coprime(den, num)
    return _within_budget(value, offset)


def parse_expr(text: str, variables) -> RatFunc:
    """Parse an expression over the declared variables into a :class:`RatFunc`.

    Raises :class:`ParseError` (with byte offset) on syntax errors, unknown
    variable names, nesting deeper than :data:`MAX_DEPTH`, an exponent larger
    than :data:`MAX_EXPONENT`, a value with more than :data:`MAX_TERMS` terms
    in its numerator or denominator, an integer literal or a coefficient with
    more than :data:`MAX_DIGITS` digits, and division by the zero polynomial.
    """
    return _Parser(text, variables).parse()


# -- exact linear algebra --------------------------------------------------------


class SingularMatrixError(ValueError):
    """The coefficient matrix is singular as a matrix of rational functions."""


def _cleared_rows(matrix, rhs_cols):
    """Scale each row of ``[A | B]`` (``B`` given by its columns) by its
    denominators: the Poly rows."""
    rows = []
    for i, row in enumerate(matrix):
        entries = [RatFunc.coerce(v) for v in (*row, *(col[i] for col in rhs_cols))]
        scale = _ONE
        for v in entries:
            if not v.is_poly():
                scale = exact_div(scale * v.den, poly_gcd(scale, v.den))
        rows.append([v.num * exact_div(scale, v.den) for v in entries])
    return rows


def _bareiss(rows, ncols):
    """One-step fraction-free elimination below each pivot.

    Mutates ``rows`` into echelon form; returns the pivot columns.
    Entries stay polynomial because each division by the previous pivot is
    exact (Sylvester's identity).
    """
    n = len(rows)
    prev = _ONE
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, n):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        row_r = rows[r]
        for i in range(r + 1, n):
            row_i = rows[i]
            factor = row_i[c]
            for j in range(len(row_i)):
                if j == c:
                    row_i[j] = _ZERO
                else:
                    row_i[j] = exact_div(row_i[j] * pivot - factor * row_r[j], prev)
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    return piv_cols


def _solve(matrix, rhs_cols) -> list[list[RatFunc]]:
    """The solution of ``A x = b`` for each column ``b`` of ``rhs_cols``, by one
    fraction-free (Bareiss) elimination of the denominator-cleared ``[A | B]``.

    Raises :class:`SingularMatrixError` when the square ``A`` is singular.
    """
    n = len(matrix)
    rows = _cleared_rows(matrix, rhs_cols)
    piv_cols = _bareiss(rows, n)
    if len(piv_cols) < n:
        raise SingularMatrixError("coefficient matrix is singular")
    solutions = []
    for col in range(n, n + len(rhs_cols)):
        solution = [_RF_ZERO] * n
        for r in range(n - 1, -1, -1):
            c = piv_cols[r]
            acc = RatFunc(rows[r][col])
            for j in range(c + 1, n):
                if not rows[r][j].is_zero():
                    acc = acc - RatFunc(rows[r][j]) * solution[j]
            solution[c] = acc / RatFunc(rows[r][c])
        solutions.append(solution)
    return solutions


def solve_linear(matrix, rhs) -> list[RatFunc]:
    """Solve ``A x = b`` exactly over rational functions.

    Uses fraction-free (Bareiss) elimination on denominator-cleared rows.
    Raises :class:`SingularMatrixError` when ``A`` is singular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_linear expects a square system")
    return _solve(matrix, [rhs])[0]
