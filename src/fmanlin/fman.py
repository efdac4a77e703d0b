"""Fiberwise-linear multiplications and their verification battery.

A fiberwise-linear commutative multiplication on the total space of a
trivialized vector bundle is determined by three frame tables over the base:
a second-derivative-like table ``d`` (``(i, j, k, p) -> a^i_{j,kp}``), a side
table ``l`` (``(i, j, k) -> a^i_{jk}``, the coefficient of ``s_i`` in
``l_{dx^k} s_j``) and a base product ``star`` (``(a, i, j) -> b^a_{ij}``,
the coefficient of ``dx^a`` in ``dx^i * dx^j``).  This module stores that
data, evaluates the operators it induces on sections, and runs the axiom
battery: commutativity, associativity, unit, integrability and Euler fields.
Every check is performed twice where possible -- once on the tables and once
on the assembled tensor -- and reports the first violating index tuple.

Sections are passed around as sparse ``{fiber index: RatFunc}`` coefficient
dicts, base vector fields as ``{base index: RatFunc}`` dicts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product

from .report import Report
from .symcore import RatFunc
from .tensor import (
    Chart,
    LinearComponents,
    TensorField,
    assemble,
    clean_table,
    extract_components,
    lie_derivative,
    table_eq,
)

__all__ = [
    "PreconditionError",
    "LinearVectorField",
    "MultComponents",
    "BaseFManifold",
    "star_product",
    "lie_star",
    "apply_l",
    "apply_d",
    "apply_delta",
    "check_commutative",
    "check_associative",
    "check_unit",
    "check_hertling_manin",
    "check_euler",
    "check_battery",
    "check_base",
    "lie_components",
    "hm_tensor",
    "evaluate_residual",
]

_ZERO = RatFunc.zero()
_ONE = RatFunc.one()


class PreconditionError(RuntimeError):
    """A check was invoked before its prerequisite checks passed."""

    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report


# -- data model ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinearVectorField:
    """Vector field ``sum_a beta^a dx_a + sum_{j,m} lam[j][m] xi^m dxi_j``.

    Base-only coefficients make this exactly a fiberwise-linear vector field;
    candidates with e.g. quadratic fiber parts are unrepresentable and get
    rejected at construction.
    """

    chart: Chart
    beta: tuple
    lam: tuple

    def __post_init__(self):
        chart = self.chart
        beta = tuple(
            chart.require_base_only(RatFunc.coerce(v), "base coefficient")
            for v in self.beta
        )
        if len(beta) != chart.n:
            raise ValueError(f"expected {chart.n} base coefficients, got {len(beta)}")
        lam = tuple(
            tuple(
                chart.require_base_only(RatFunc.coerce(v), "fiber matrix entry")
                for v in row
            )
            for row in self.lam
        )
        if len(lam) != chart.k or any(len(row) != chart.k for row in lam):
            raise ValueError(f"fiber matrix must be {chart.k}x{chart.k}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "lam", lam)

    @staticmethod
    def zero(chart: Chart) -> "LinearVectorField":
        return LinearVectorField(
            chart, (_ZERO,) * chart.n, ((_ZERO,) * chart.k,) * chart.k
        )

    def __eq__(self, other):
        if not isinstance(other, LinearVectorField):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.beta == other.beta
            and self.lam == other.lam
        )

    def as_field(self) -> TensorField:
        comps = list(self.beta)
        for j in range(self.chart.k):
            acc = _ZERO
            for m in range(self.chart.k):
                acc = acc + self.lam[j][m] * RatFunc.variable(
                    self.chart.fiber_names[m]
                )
            comps.append(acc)
        return TensorField.vector(self.chart, comps)

    def base_vec(self) -> dict:
        return {a: v for a, v in enumerate(self.beta) if not v.is_zero()}

    def base_apply(self, f: RatFunc) -> RatFunc:
        names = self.chart.names
        acc = _ZERO
        for a, v in enumerate(self.beta):
            if not v.is_zero():
                acc = acc + v * f.partial(names[a])
        return acc

    def dual(self) -> "LinearVectorField":
        k = self.chart.k
        lam_t = tuple(tuple(-self.lam[m][j] for m in range(k)) for j in range(k))
        return LinearVectorField(self.chart.dual(), self.beta, lam_t)


@dataclass(frozen=True, eq=False)
class MultComponents:
    """Frame tables ``(d, l, star)`` of a fiberwise-linear multiplication."""

    chart: Chart
    d: dict
    l: dict
    star: dict

    def __post_init__(self):
        chart = self.chart
        n, kdim = chart.n, chart.k
        d = clean_table({tuple(k): RatFunc.coerce(v) for k, v in self.d.items()})
        l = clean_table({tuple(k): RatFunc.coerce(v) for k, v in self.l.items()})
        star = clean_table(
            {tuple(k): RatFunc.coerce(v) for k, v in self.star.items()}
        )
        for key, val in d.items():
            if len(key) != 4 or not (
                0 <= key[0] < kdim
                and 0 <= key[1] < kdim
                and 0 <= key[2] < n
                and 0 <= key[3] < n
            ):
                raise ValueError(f"bad derivative-table key {key}")
            chart.require_base_only(val, f"derivative table entry {key}")
        for key, val in l.items():
            if len(key) != 3 or not (
                0 <= key[0] < kdim and 0 <= key[1] < kdim and 0 <= key[2] < n
            ):
                raise ValueError(f"bad side-table key {key}")
            chart.require_base_only(val, f"side table entry {key}")
        for key, val in star.items():
            if len(key) != 3 or not all(0 <= x < n for x in key):
                raise ValueError(f"bad star-table key {key}")
            chart.require_base_only(val, f"star table entry {key}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "star", star)

    def __eq__(self, other):
        if not isinstance(other, MultComponents):
            return NotImplemented
        return (
            self.chart == other.chart
            and table_eq(self.d, other.d)
            and table_eq(self.l, other.l)
            and table_eq(self.star, other.star)
        )

    @property
    def n(self) -> int:
        return self.chart.n

    @property
    def rank(self) -> int:
        return self.chart.k

    def d_at(self, i, j, k, p) -> RatFunc:
        return self.d.get((i, j, k, p), _ZERO)

    def l_at(self, i, j, k) -> RatFunc:
        return self.l.get((i, j, k), _ZERO)

    def star_at(self, a, i, j) -> RatFunc:
        return self.star.get((a, i, j), _ZERO)

    def to_linear(self) -> LinearComponents:
        return LinearComponents(
            chart=self.chart, p=2, d=self.d, ls=(self.l, self.l), basic=self.star
        )

    def assemble(self) -> TensorField:
        return assemble(self.to_linear())

    @classmethod
    def from_tensor(cls, t: TensorField) -> "MultComponents":
        comps = extract_components(t)
        if comps.p != 2:
            raise ValueError("expected a (2,1) tensor field")
        if not table_eq(comps.ls[0], comps.ls[1]):
            raise ValueError(
                "the two side tables differ; not a commutative candidate"
            )
        return cls(chart=comps.chart, d=comps.d, l=comps.ls[0], star=comps.basic)


@dataclass(frozen=True, eq=False)
class BaseFManifold:
    """Base-chart product data: a star table over a chart with no fibers."""

    chart: Chart
    star: dict
    unit: tuple

    def __post_init__(self):
        if self.chart.k != 0:
            raise ValueError("base data must live on a chart without fibers")
        unit = tuple(RatFunc.coerce(v) for v in self.unit)
        if len(unit) != self.chart.n:
            raise ValueError(f"unit field needs {self.chart.n} components")
        star = clean_table(
            {tuple(k): RatFunc.coerce(v) for k, v in self.star.items()}
        )
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "star", star)

    def as_components(self) -> MultComponents:
        return MultComponents(chart=self.chart, d={}, l={}, star=self.star)

    def unit_field(self) -> LinearVectorField:
        return LinearVectorField(self.chart, self.unit, ())

    def verify(self) -> Report:
        rep = check_battery(self.as_components(), self.unit_field())
        rep.title = "base product battery"
        return rep

    def __eq__(self, other):
        if not isinstance(other, BaseFManifold):
            return NotImplemented
        return (
            self.chart == other.chart
            and table_eq(self.star, other.star)
            and self.unit == other.unit
        )


# -- sparse coefficient-dict calculus -----------------------------------------


def _acc(out: dict, key, val: RatFunc):
    if val.is_zero():
        return
    cur = out.get(key)
    total = val if cur is None else cur + val
    if total.is_zero():
        out.pop(key, None)
    else:
        out[key] = total


def _vadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, val in b.items():
        _acc(out, key, val)
    return out


def _vsub(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, val in b.items():
        _acc(out, key, -val)
    return out


def _vscale(a: dict, f: RatFunc) -> dict:
    if f.is_zero():
        return {}
    return {key: val * f for key, val in a.items()}


def _vget(a: dict, key) -> RatFunc:
    return a.get(key, _ZERO)


def _vf_apply(chart: Chart, u: dict, f: RatFunc) -> RatFunc:
    names = chart.names
    acc = _ZERO
    for a, v in u.items():
        acc = acc + v * f.partial(names[a])
    return acc


def _vf_bracket(chart: Chart, u: dict, v: dict) -> dict:
    out = {}
    for a in set(u) | set(v):
        _acc(out, a, _vf_apply(chart, u, _vget(v, a)) - _vf_apply(chart, v, _vget(u, a)))
    return out


def star_product(c: MultComponents, u: dict, v: dict) -> dict:
    """Base product of two base vector fields given as coefficient dicts."""
    out = {}
    for (a, i, j), b in c.star.items():
        ui = u.get(i)
        if ui is None:
            continue
        vj = v.get(j)
        if vj is None:
            continue
        _acc(out, a, b * ui * vj)
    return out


def lie_star(c: MultComponents, w: dict, u: dict, v: dict) -> dict:
    """Lie derivative of the base product along ``w``, applied to ``(u, v)``."""
    chart = c.chart
    out = _vf_bracket(chart, w, star_product(c, u, v))
    out = _vsub(out, star_product(c, _vf_bracket(chart, w, u), v))
    return _vsub(out, star_product(c, u, _vf_bracket(chart, w, v)))


def apply_l(c: MultComponents, k: int, sec: dict) -> dict:
    """Side operator along ``dx^k`` on a section coefficient dict."""
    out = {}
    for (i, j, kk), val in c.l.items():
        if kk != k:
            continue
        f = sec.get(j)
        if f is not None:
            _acc(out, i, val * f)
    return out


def apply_l_vec(c: MultComponents, u: dict, sec: dict) -> dict:
    out = {}
    for a, w in u.items():
        for i, val in apply_l(c, a, sec).items():
            _acc(out, i, w * val)
    return out


def apply_d(c: MultComponents, k: int, p: int, sec: dict) -> dict:
    """Second-order operator ``D`` along ``(dx^k, dx^p)``.

    Follows the product rule of the component dictionary: the table acts on
    frame sections; derivatives of the coefficients couple to the side table
    in the opposite slot; and the base product transports a first-order term.
    """
    chart = c.chart
    names = chart.names
    kdim = chart.k
    out = {}
    for j, f in sec.items():
        for i in range(kdim):
            _acc(out, i, c.d_at(i, j, k, p) * f)
        fk = f.partial(names[k])
        if not fk.is_zero():
            for i in range(kdim):
                _acc(out, i, c.l_at(i, j, p) * fk)
        fp = f.partial(names[p])
        if not fp.is_zero():
            for i in range(kdim):
                _acc(out, i, c.l_at(i, j, k) * fp)
        transport = _ZERO
        for a in range(chart.n):
            b = c.star_at(a, k, p)
            if not b.is_zero():
                transport = transport + b * f.partial(names[a])
        _acc(out, j, -transport)
    return out


def apply_delta(e: LinearVectorField, sec: dict) -> dict:
    """Derivation on sections induced by a fiberwise-linear vector field."""
    out = {}
    for i, f in sec.items():
        _acc(out, i, e.base_apply(f))
    for i in range(e.chart.k):
        for j, f in sec.items():
            _acc(out, i, -(e.lam[i][j] * f))
    return out


def _frame(j: int) -> dict:
    return {j: _ONE}


# -- identity declarations ----------------------------------------------------
#
# Each identity of the battery is declared once, by `_identity` on the
# function that computes it, with its record name, law, kind and index space.
# The kind says how the function is called:
#
# - ``scalar``: ``fn(ctx, idx)`` is the residual at one index tuple;
# - ``vector``: ``fn(ctx, idx[1:])`` is the whole residual vector over the
#   output index ``idx[0]`` as a sparse dict, so a scan evaluates each vector
#   once and keeps it in a memo keyed by ``idx[1:]`` that lives only for that
#   scan;
# - ``oracle``: ``fn(ctx)`` gives the ``(witness, residual)`` pairs of an
#   assembled tensor or of whole tables, computed without the frame
#   identities it cross-checks.
#
# An index space is a string of ``k`` (fiber index) and ``n`` (base index),
# read as a product of ranges: ``"kkn"`` scans ``range(k) x range(k) x
# range(n)``; ``"bracket"`` scans `_bracket_tuples`.  `_Ctx` holds the inputs
# of one battery and memoizes the frame Lie derivatives
# ``L_{d_r}(*)(d_k, d_p)`` that three vector identities share.  `_scan` and
# `evaluate_residual` read the same declaration and evaluate a scalar or
# vector record through `_residual`, so a reported witness can be reproduced
# in isolation; an oracle replays by looking its witness up among its pairs.


class _Ctx:
    __slots__ = ("c", "e", "euler", "l2", "lie")

    def __init__(self, c, e=None, euler=None, l2=None):
        self.c = c
        self.e = e
        self.euler = euler
        self.l2 = l2
        self.lie = {}  # (r, k, p) -> L_{d_r}(*)(d_k, d_p)

    def lie_frame(self, r, k, p) -> dict:
        key = (r, k, p)
        out = self.lie.get(key)
        if out is None:
            out = self.lie[key] = lie_star(self.c, _frame(r), _frame(k), _frame(p))
        return out


@dataclass(frozen=True)
class _Identity:
    law: str
    kind: str  # "scalar", "vector" or "oracle"
    space: str  # index space; empty for an oracle
    fn: object


_IDENTITIES: dict = {}  # record name -> _Identity


def _identity(name: str, law: str, kind: str, space: str = ""):
    def declare(fn):
        _IDENTITIES[name] = _Identity(law, kind, space, fn)
        return fn

    return declare


def _residual(ident: _Identity, ctx: _Ctx, idx: tuple, memo: dict) -> RatFunc:
    if ident.kind == "scalar":
        return ident.fn(ctx, idx)
    if ident.kind == "oracle":
        return dict(ident.fn(ctx)).get(idx, _ZERO)
    rest = idx[1:]
    vec = memo.get(rest)
    if vec is None:
        vec = memo[rest] = ident.fn(ctx, rest)
    return vec.get(idx[0], _ZERO)


@_identity("side-tables-equal", "the two side tables agree", "scalar", "kkn")
def _res_side_tables(ctx: _Ctx, idx) -> RatFunc:
    i, j, k = idx
    other = ctx.c.l if ctx.l2 is None else ctx.l2
    return ctx.c.l_at(i, j, k) - other.get((i, j, k), _ZERO)


@_identity("star-symmetric", "b^a_ij = b^a_ji", "scalar", "nnn")
def _res_star_symmetric(ctx: _Ctx, idx) -> RatFunc:
    a, i, j = idx
    return ctx.c.star_at(a, i, j) - ctx.c.star_at(a, j, i)


@_identity("derivative-symmetric", "a^i_j,kp = a^i_j,pk", "scalar", "kknn")
def _res_derivative_symmetric(ctx: _Ctx, idx) -> RatFunc:
    i, j, k, p = idx
    return ctx.c.d_at(i, j, k, p) - ctx.c.d_at(i, j, p, k)


@_identity("star-associative", "(X*Y)*Z = X*(Y*Z)", "vector", "nnnn")
def _vec_star_associative(ctx: _Ctx, rest) -> dict:
    i, j, k = rest
    c = ctx.c
    lhs = star_product(c, star_product(c, _frame(i), _frame(j)), _frame(k))
    rhs = star_product(c, _frame(i), star_product(c, _frame(j), _frame(k)))
    return _vsub(lhs, rhs)


@_identity("l-composition", "l_X(l_Y s) = l_{X*Y} s", "vector", "kknn")
def _vec_l_composition(ctx: _Ctx, rest) -> dict:
    j, k, p = rest
    c = ctx.c
    lhs = apply_l(c, k, apply_l(c, p, _frame(j)))
    rhs = apply_l_vec(c, star_product(c, _frame(k), _frame(p)), _frame(j))
    return _vsub(lhs, rhs)


def _symmetrized_second(c: MultComponents, j, k, p, r) -> dict:
    inner = {m: c.d_at(m, j, k, p) for m in range(c.rank)}
    out = apply_l(c, r, inner)
    prod = star_product(c, _frame(k), _frame(p))
    for a, w in prod.items():
        for i in range(c.rank):
            _acc(out, i, w * c.d_at(i, j, a, r))
    return out


@_identity(
    "second-derivative-symmetric",
    "l_Z(D_{X,Y} s) + D_{X*Y,Z} s is symmetric in X, Y, Z",
    "vector",
    "kknnn",
)
def _vec_second_derivative_symmetric(ctx: _Ctx, rest) -> dict:
    j, k, p, r = rest
    cur = _symmetrized_second(ctx.c, j, k, p, r)
    return _vsub(cur, _symmetrized_second(ctx.c, j, *sorted((k, p, r))))


@_identity("unit-star", "ebar * X = X", "scalar", "nn")
def _res_unit_star(ctx: _Ctx, idx) -> RatFunc:
    a, k = idx
    prod = star_product(ctx.c, ctx.e.base_vec(), _frame(k))
    return _vget(prod, a) - (_ONE if a == k else _ZERO)


@_identity("unit-side", "l_ebar s = s", "scalar", "kk")
def _res_unit_side(ctx: _Ctx, idx) -> RatFunc:
    i, j = idx
    out = apply_l_vec(ctx.c, ctx.e.base_vec(), _frame(j))
    return _vget(out, i) - (_ONE if i == j else _ZERO)


@_identity("unit-derivative", "l_X(Delta_e s) = D_{ebar,X} s", "scalar", "kkn")
def _res_unit_derivative(ctx: _Ctx, idx) -> RatFunc:
    i, j, k = idx
    c = ctx.c
    lhs = apply_l(c, k, apply_delta(ctx.e, _frame(j)))
    rhs = _ZERO
    for p, w in ctx.e.base_vec().items():
        rhs = rhs + w * c.d_at(i, j, p, k)
    return _vget(lhs, i) - rhs


@_identity(
    "base-integrability", "L_{X*Y}(*) = X*L_Y(*) + Y*L_X(*)", "vector", "nnnnn"
)
def _vec_base_integrability(ctx: _Ctx, rest) -> dict:
    i, j, k, p = rest
    c = ctx.c
    x, y = _frame(i), _frame(j)
    out = lie_star(c, star_product(c, x, y), _frame(k), _frame(p))
    out = _vsub(out, star_product(c, x, ctx.lie_frame(j, k, p)))
    return _vsub(out, star_product(c, y, ctx.lie_frame(i, k, p)))


@_identity(
    "derivative-commutator", "[D_{X,Y}, l_Z] s = l_{L_Z(*)(X,Y)} s", "vector", "kknnn"
)
def _vec_derivative_commutator(ctx: _Ctx, rest) -> dict:
    j, k, p, r = rest
    c = ctx.c
    lhs = apply_d(c, k, p, apply_l(c, r, _frame(j)))
    lhs = _vsub(lhs, apply_l(c, r, apply_d(c, k, p, _frame(j))))
    return _vsub(lhs, apply_l_vec(c, ctx.lie_frame(r, k, p), _frame(j)))


def _bracket_tuples(c: MultComponents):
    # the remaining tuples follow from these by the formal symmetries of the
    # defect (antisymmetry under pair swap, symmetry within each pair once
    # commutativity holds)
    n, kdim = c.n, c.rank
    pairs = [(x, y) for x in range(n) for y in range(x, n)]
    for ia, (x, y) in enumerate(pairs):
        for z, v in pairs[ia + 1 :]:
            for i in range(kdim):
                for j in range(kdim):
                    yield (i, j, x, y, z, v)


@_identity(
    "derivative-bracket",
    "[D_{Z,V}, D_{X,Y}] s = transport terms in star derivatives",
    "vector",
    "bracket",
)
def _vec_derivative_bracket(ctx: _Ctx, rest) -> dict:
    j, x, y, z, v = rest
    c = ctx.c
    chart = c.chart

    def dvec(u: dict, second: int) -> dict:
        out = {}
        for a, w in u.items():
            for m in range(c.rank):
                _acc(out, m, w * c.d_at(m, j, a, second))
        return out

    lhs = apply_d(c, z, v, apply_d(c, x, y, _frame(j)))
    lhs = _vsub(lhs, apply_d(c, x, y, apply_d(c, z, v, _frame(j))))
    prod_xy = star_product(c, _frame(x), _frame(y))
    rhs = dvec(_vf_bracket(chart, prod_xy, _frame(z)), v)
    rhs = _vadd(rhs, dvec(_vf_bracket(chart, prod_xy, _frame(v)), z))
    rhs = _vadd(rhs, dvec(ctx.lie_frame(y, z, v), x))
    rhs = _vadd(rhs, dvec(ctx.lie_frame(x, z, v), y))
    # the side-operator corrections of the general identity involve brackets
    # of coordinate frames and vanish here
    return _vsub(lhs, rhs)


def hm_tensor(t: TensorField) -> TensorField:
    """Integrability defect of a (2,1) tensor as a (4,1) tensor field.

    The defect applied to ``(X, Y, Z, V)`` is the Lie derivative of the
    product along ``X o Y`` applied to ``(Z, V)``, minus the two single-factor
    correction terms; the product is integrable exactly when this vanishes.
    On coordinate frames, evaluating a tensor is a filter on its keys, so the
    entry at ``(a, x, y, z, v)`` is

        L_W(o)^a_{zv} - sum_b t^a_{xb} L_{d_y}(o)^b_{zv}
                      - sum_b t^a_{yb} L_{d_x}(o)^b_{zv},   W^a = t^a_{xy},

    and only the nonzero entries of each factor are visited.
    """
    chart = t.chart
    coeffs = defaultdict(RatFunc.zero)
    pairs: dict = {}  # (x, y) -> the vector field d_x o d_y
    by_last: dict = {}  # b -> [(a, x, t^a_{xb})]
    for (a, x, y), val in t.coeffs.items():
        pairs.setdefault((x, y), {})[(a,)] = val
        by_last.setdefault(y, []).append((a, x, val))
    for c in range(chart.dim):
        lie_c = lie_derivative(TensorField.coordinate_field(chart, c), t)
        for (b, z, v), u in lie_c.coeffs.items():
            for a, x, val in by_last.get(b, ()):
                prod = val * u
                coeffs[(a, x, c, z, v)] -= prod
                coeffs[(a, c, x, z, v)] -= prod
    for (x, y), w in pairs.items():
        lie_w = lie_derivative(TensorField(chart, 0, 1, w), t)
        for (a, z, v), val in lie_w.coeffs.items():
            coeffs[(a, x, y, z, v)] += val
    return TensorField(chart, 4, 1, coeffs)


@_identity(
    "integrability-oracle",
    "the assembled product has vanishing integrability defect",
    "oracle",
)
def _oracle_integrability(ctx: _Ctx):
    return sorted(hm_tensor(ctx.c.assemble()).coeffs.items())


def _lie_l_entry(c: MultComponents, x: LinearVectorField, j: int, k: int) -> dict:
    names = c.chart.names
    out = apply_delta(x, apply_l(c, k, _frame(j)))
    out = _vsub(out, apply_l(c, k, apply_delta(x, _frame(j))))
    for a, v in enumerate(x.beta):
        w = v.partial(names[k])
        if not w.is_zero():
            out = _vadd(out, _vscale(apply_l(c, a, _frame(j)), w))
    return out


def _lie_d_entry(c: MultComponents, x: LinearVectorField, j, k, p) -> dict:
    names = c.chart.names
    out = apply_delta(x, apply_d(c, k, p, _frame(j)))
    out = _vsub(out, apply_d(c, k, p, apply_delta(x, _frame(j))))
    for a, v in enumerate(x.beta):
        wk = v.partial(names[k])
        if not wk.is_zero():
            out = _vadd(out, _vscale(apply_d(c, a, p, _frame(j)), wk))
        wp = v.partial(names[p])
        if not wp.is_zero():
            out = _vadd(out, _vscale(apply_d(c, k, a, _frame(j)), wp))
    return out


@_identity("euler-base", "L_Ebar(*) = *", "scalar", "nnn")
def _res_euler_base(ctx: _Ctx, idx) -> RatFunc:
    a, i, j = idx
    c = ctx.c
    lhs = lie_star(c, ctx.euler.base_vec(), _frame(i), _frame(j))
    rhs = star_product(c, _frame(i), _frame(j))
    return _vget(lhs, a) - _vget(rhs, a)


@_identity(
    "euler-side", "[Delta_E, l_X] s - l_{[Ebar,X]} s = l_X s", "vector", "kkn"
)
def _vec_euler_side(ctx: _Ctx, rest) -> dict:
    j, k = rest
    c = ctx.c
    own = {i: c.l_at(i, j, k) for i in range(c.rank)}
    return _vsub(_lie_l_entry(c, ctx.euler, j, k), own)


@_identity(
    "euler-derivative",
    "[Delta_E, D_{X,Y}] s - D_{[Ebar,X],Y} s - D_{X,[Ebar,Y]} s = D_{X,Y} s",
    "vector",
    "kknn",
)
def _vec_euler_derivative(ctx: _Ctx, rest) -> dict:
    j, k, p = rest
    c = ctx.c
    own = {i: c.d_at(i, j, k, p) for i in range(c.rank)}
    return _vsub(_lie_d_entry(c, ctx.euler, j, k, p), own)


@_identity(
    "euler-components", "Lie-derivative components equal (d, l, star)", "oracle"
)
def _oracle_euler_components(ctx: _Ctx):
    c = ctx.c
    got = lie_components(c, ctx.euler)
    return _table_diffs(zip(("d", "l", "star"), got, (c.d, c.l, c.star)))


@_identity(
    "euler-oracle",
    "the Lie derivative of the assembled product equals the product",
    "oracle",
)
def _oracle_euler(ctx: _Ctx):
    t = ctx.c.assemble()
    return sorted((lie_derivative(ctx.euler.as_field(), t) - t).coeffs.items())


def evaluate_residual(name, idx, c, e=None, euler=None, l2=None) -> RatFunc:
    """Re-evaluate one identity of the battery at one index tuple."""
    try:
        ident = _IDENTITIES[name]
    except KeyError:
        raise KeyError(f"unknown identity {name!r}") from None
    return _residual(ident, _Ctx(c, e=e, euler=euler, l2=l2), tuple(idx), {})


# -- checks -------------------------------------------------------------------
#
# The checks run the declared identities in stages, each a tuple of record
# names scanned in order by `_run_into`.

_COMMUTATIVITY = ("side-tables-equal", "star-symmetric", "derivative-symmetric")
_ASSOCIATIVITY = ("star-associative", "l-composition", "second-derivative-symmetric")
_UNIT = ("unit-star", "unit-side", "unit-derivative")
_INTEGRABILITY = (
    "base-integrability",
    "derivative-commutator",
    "derivative-bracket",
    "integrability-oracle",
)
_EULER = (
    "euler-base",
    "euler-side",
    "euler-derivative",
    "euler-components",
    "euler-oracle",
)


def _tuples(c: MultComponents, space: str):
    if space == "bracket":
        return _bracket_tuples(c)
    ranges = {"k": range(c.rank), "n": range(c.n)}
    return product(*(ranges[s] for s in space))


def _scan(rep: Report, ctx: _Ctx, name: str) -> bool:
    ident = _IDENTITIES[name]
    if ident.kind == "oracle":
        return rep.scan(name, ident.law, ident.fn(ctx))
    memo: dict = {}  # idx[1:] -> residual vector, for vector identities
    pairs = (
        (idx, _residual(ident, ctx, idx, memo)) for idx in _tuples(ctx.c, ident.space)
    )
    return rep.scan(name, ident.law, pairs)


def _run_into(rep: Report, ctx: _Ctx, names) -> bool:
    ok = True
    for name in names:
        ok &= _scan(rep, ctx, name)
    return ok


def _stage_report(title: str, ctx: _Ctx, names) -> Report:
    rep = Report(title)
    _run_into(rep, ctx, names)
    return rep


def _vec_pairs(tuples, vec_fn):
    """``((a, *idx), vec[a])`` for each index tuple and each output index ``a``."""
    for idx in tuples:
        vec = vec_fn(*idx)
        for a in sorted(vec):
            yield (a, *idx), vec[a]


def _table_diffs(tables):
    """``((label, *key), got - want)`` over the keys of each ``(label, got, want)``."""
    for label, got, want in tables:
        for key in sorted(set(got) | set(want)):
            yield (label, *key), got.get(key, _ZERO) - want.get(key, _ZERO)


def _require(what: str, rep: Report):
    bad = rep.first_failure()
    if bad is not None:
        raise PreconditionError(
            f"{what} requires {rep.title} to pass; "
            f"{bad.name} fails at {bad.witness}",
            report=rep,
        )


def _require_algebra(what: str, ctx: _Ctx):
    """Require commutativity and then associativity, each scanned once."""
    _require(what, _stage_report("commutativity", ctx, _COMMUTATIVITY))
    _require(what, _stage_report("associativity", ctx, _ASSOCIATIVITY))


def check_commutative(c: MultComponents, l2: dict | None = None) -> Report:
    return _stage_report("commutativity", _Ctx(c, l2=l2), _COMMUTATIVITY)


def check_associative(c: MultComponents) -> Report:
    ctx = _Ctx(c)
    _require("associativity", _stage_report("commutativity", ctx, _COMMUTATIVITY))
    return _stage_report("associativity", ctx, _ASSOCIATIVITY)


def check_unit(c: MultComponents, e: LinearVectorField) -> Report:
    ctx = _Ctx(c, e=e)
    _require_algebra("the unit check", ctx)
    return _stage_report("unit field", ctx, _UNIT)


def _hm_into(rep: Report, ctx: _Ctx) -> bool:
    *tables, oracle = _INTEGRABILITY
    ok = _run_into(rep, ctx, tables)
    oracle_ok = _scan(rep, ctx, oracle)
    if ok != oracle_ok:
        rep.note(
            "table-level conditions and the tensor defect disagree; "
            "the tensor verdict governs"
        )
    return ok and oracle_ok


def check_hertling_manin(c: MultComponents) -> Report:
    ctx = _Ctx(c)
    _require_algebra("the integrability check", ctx)
    rep = Report("integrability")
    _hm_into(rep, ctx)
    return rep


def check_battery(c: MultComponents, e: LinearVectorField | None = None) -> Report:
    """Run the full axiom battery in dependency order."""
    rep = Report("multiplication battery")
    ctx = _Ctx(c, e=e)
    if not _run_into(rep, ctx, _COMMUTATIVITY):
        rep.note("remaining checks skipped: commutativity failed")
        return rep
    if not _run_into(rep, ctx, _ASSOCIATIVITY):
        rep.note("remaining checks skipped: associativity failed")
        return rep
    if e is not None:
        if not _run_into(rep, ctx, _UNIT):
            rep.note("integrability skipped: unit conditions failed")
            return rep
    else:
        rep.note("no unit candidate supplied; unit conditions not checked")
    _hm_into(rep, ctx)
    return rep


def lie_components(c: MultComponents, x: LinearVectorField):
    """Component tables of the Lie derivative of the product along ``x``."""
    n, kdim = c.n, c.rank
    dt, lt, rt = {}, {}, {}
    for j in range(kdim):
        for k in range(n):
            for i, val in _lie_l_entry(c, x, j, k).items():
                lt[(i, j, k)] = val
            for p in range(n):
                for i, val in _lie_d_entry(c, x, j, k, p).items():
                    dt[(i, j, k, p)] = val
    base = x.base_vec()
    for i in range(n):
        for j in range(n):
            for a, val in lie_star(c, base, _frame(i), _frame(j)).items():
                rt[(a, i, j)] = val
    return dt, lt, rt


def _euler_report(c: MultComponents, e, euler: LinearVectorField) -> Report:
    """The Euler-field records alone, for a battery already known to pass."""
    return _stage_report("euler field check", _Ctx(c, e=e, euler=euler), _EULER)


def check_euler(
    c: MultComponents, e: LinearVectorField, euler: LinearVectorField
) -> Report:
    _require("the euler check", check_battery(c, e))
    return _euler_report(c, e, euler)


def check_base(c: MultComponents, e: LinearVectorField) -> BaseFManifold:
    """Extract the base product and re-verify it on the base chart."""
    if e is None:
        raise ValueError("a unit candidate is required to extract the base")
    _require("base extraction", check_battery(c, e))
    base = BaseFManifold(chart=c.chart.base(), star=c.star, unit=e.beta)
    _require("base extraction", base.verify())
    return base
