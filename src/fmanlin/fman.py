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
from functools import cached_property
from itertools import groupby, permutations
from operator import attrgetter

from .report import Report
from .symcore import RatFunc, _Frozen, _Value
from .tensor import (
    Chart,
    TensorField,
    _acc,
    _box,
    _checked_table,
    _product_tables,
    _vadd,
    _vsub,
    assemble,
    extract_components,
    lie_derivative,
)

__all__ = [
    "PreconditionError",
    "LinearVectorField",
    "MultComponents",
    "BaseFManifold",
    "star_product",
    "apply_l",
    "apply_d",
    "apply_delta",
    "check_commutative",
    "check_associative",
    "check_unit",
    "check_hertling_manin",
    "check_euler",
    "check_battery",
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


class LinearVectorField(_Value):
    """Vector field ``sum_a beta^a dx_a + sum_{j,m} lam[j][m] xi^m dxi_j``.

    Base-only coefficients make this exactly a fiberwise-linear vector field;
    candidates with e.g. quadratic fiber parts are unrepresentable and get
    rejected at construction.
    """

    _key = attrgetter("chart", "beta", "lam")

    def __init__(self, chart: Chart, beta: tuple, lam: tuple):
        beta = tuple(
            chart.require_base_only(RatFunc.coerce(v), "base coefficient")
            for v in beta
        )
        if len(beta) != chart.n:
            raise ValueError(f"expected {chart.n} base coefficients, got {len(beta)}")
        lam = tuple(
            tuple(
                chart.require_base_only(RatFunc.coerce(v), "fiber matrix entry")
                for v in row
            )
            for row in lam
        )
        if len(lam) != chart.k or any(len(row) != chart.k for row in lam):
            raise ValueError(f"fiber matrix must be {chart.k}x{chart.k}")
        self._set(chart=chart, beta=beta, lam=lam)

    @staticmethod
    def zero(chart: Chart) -> "LinearVectorField":
        return LinearVectorField(
            chart, (_ZERO,) * chart.n, ((_ZERO,) * chart.k,) * chart.k
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
        return _vf_apply(self.chart, self.base_vec(), f)

    def dual(self) -> "LinearVectorField":
        k = self.chart.k
        lam_t = tuple(tuple(-self.lam[m][j] for m in range(k)) for j in range(k))
        return LinearVectorField(self.chart.dual(), self.beta, lam_t)


class MultComponents(_Value):
    """Frame tables ``(d, l, star)`` of a fiberwise-linear multiplication.

    The tables are frozen at construction, so :attr:`rows`, compiled from
    them on first use, never goes stale.
    """

    _key = attrgetter("chart", "d", "l", "star")

    def __init__(self, chart: Chart, d: dict, l: dict, star: dict):
        d, l, star = _product_tables(chart, d, l, star)
        self._set(chart=chart, d=d, l=l, star=star)

    @cached_property
    def rows(self) -> "_Rows":
        """The tables as sparse rows, for the frame operators."""
        return _Rows(self)

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

    def assemble(self) -> TensorField:
        return assemble(self)


class BaseFManifold(_Value):
    """Base-chart product data: a star table over a chart with no fibers."""

    _key = attrgetter("chart", "star", "unit")

    def __init__(self, chart: Chart, star: dict, unit: tuple):
        if chart.k != 0:
            raise ValueError("base data must live on a chart without fibers")
        unit = tuple(RatFunc.coerce(v) for v in unit)
        if len(unit) != chart.n:
            raise ValueError(f"unit field needs {chart.n} components")
        n = chart.n
        star = _checked_table(
            chart, star, _box(n, n, n), "bad star-table key", "star table entry"
        )
        self._set(chart=chart, star=star, unit=unit)

    @cached_property
    def components(self) -> MultComponents:
        """The product as tables with no fiber, built once."""
        return MultComponents(chart=self.chart, d={}, l={}, star=self.star)

    def unit_field(self) -> LinearVectorField:
        return LinearVectorField(self.chart, self.unit, ())

    def verify(self) -> Report:
        """The base battery, run on the first call; later calls return it again."""
        return self._battery

    @cached_property
    def _battery(self) -> Report:
        rep = check_battery(self.components, self.unit_field())
        rep.title = "base product battery"
        return rep


class _Rows:
    """The tables of one :class:`MultComponents` as sparse rows.

    ``star[(i, j)]`` lists ``(a, b^a_ij)``, ``l[(k, j)]`` lists ``(i, a^i_jk)``
    and ``d[(j, k, p)]`` lists ``(i, a^i_j,kp)``: the nonzero entries of the
    product of two frames, of a side operator on one frame section and of a
    derivative table on one frame section, by output index.  ``star_vars``
    and ``l_vars`` map the key of each row that has a nonconstant entry to
    the base indices its entries contain; a derivative along any other base
    coordinate vanishes on the whole row.
    """

    __slots__ = ("star", "l", "d", "star_vars", "l_vars")

    def __init__(self, c: MultComponents):
        chart = c.chart
        self.star, self.star_vars = _compile(
            chart, (((i, j), a, v) for (a, i, j), v in c.star.items())
        )
        self.l, self.l_vars = _compile(
            chart, (((k, j), i, v) for (i, j, k), v in c.l.items())
        )
        self.d, _ = _compile(
            chart, (((j, k, p), i, v) for (i, j, k, p), v in c.d.items())
        )


def _compile(chart: Chart, entries):
    """``(rows, vars)`` from ``(row key, output index, value)`` triples."""
    rows, used = {}, {}
    for key, out, val in entries:
        rows.setdefault(key, []).append((out, val))
        if not val.is_const():
            used.setdefault(key, set()).update(_base_vars(chart, (val,)))
    rows = {key: tuple(sorted(row, key=lambda e: e[0])) for key, row in rows.items()}
    return rows, {key: frozenset(found) for key, found in used.items() if found}


def _base_vars(chart: Chart, values) -> set:
    """The base indices whose coordinates occur in any of ``values``."""
    free = set().union(*(v.free_vars() for v in values))
    return {m for m, name in enumerate(chart.base_names) if name in free}


# -- sparse coefficient-dict calculus -----------------------------------------


def _vscale(a: dict, f: RatFunc) -> dict:
    if f.is_zero():
        return {}
    return {key: val * f for key, val in a.items()}


def _vget(a: dict, key) -> RatFunc:
    return a.get(key, _ZERO)


def _vf_apply(chart: Chart, u: dict, f: RatFunc) -> RatFunc:
    if f.is_const():
        return _ZERO
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


def _frame_partial(chart: Chart, w: dict, k: int) -> dict:
    """``d_k w``, which is ``[d_k, w] = -[w, d_k]``: frames have constant components."""
    name = chart.names[k]
    out = {}
    for a, f in w.items():
        d = f.partial(name)
        if not d.is_zero():
            out[a] = d
    return out


def _on_frames(u: dict, image) -> dict:
    """``sum_a u[a] image(a)``: the map that sends ``d_a`` to ``image(a)``, at ``u``."""
    out = {}
    for a, w in u.items():
        for key, val in image(a).items():
            _acc(out, key, w * val)
    return out


def star_product(c: MultComponents, u: dict, v: dict) -> dict:
    """Base product of two base vector fields given as coefficient dicts."""
    rows = c.rows.star
    out = {}
    for i, ui in u.items():
        for j, vj in v.items():
            row = rows.get((i, j))
            if row:
                w = ui * vj
                for a, b in row:
                    _acc(out, a, b * w)
    return out


def apply_l(c: MultComponents, k: int, sec: dict) -> dict:
    """Side operator along ``dx^k`` on a section coefficient dict."""
    rows = c.rows.l
    out = {}
    for j, f in sec.items():
        for i, val in rows.get((k, j), ()):
            _acc(out, i, val * f)
    return out


def apply_l_vec(c: MultComponents, u: dict, sec: dict) -> dict:
    return _on_frames(u, lambda a: apply_l(c, a, sec))


def apply_d(c: MultComponents, k: int, p: int, sec: dict) -> dict:
    """Second-order operator ``D`` along ``(dx^k, dx^p)``.

    Follows the product rule of the component dictionary: the table acts on
    frame sections; derivatives of the coefficients couple to the side table
    in the opposite slot; and the base product transports a first-order term.
    """
    names = c.chart.names
    rows = c.rows
    transports = rows.star.get((k, p), ())
    out = {}
    for j, f in sec.items():
        for i, val in rows.d.get((j, k, p), ()):
            _acc(out, i, val * f)
        if f.is_const():
            continue  # the derivative and transport terms vanish
        fk = f.partial(names[k])
        if not fk.is_zero():
            for i, val in rows.l.get((p, j), ()):
                _acc(out, i, val * fk)
        fp = f.partial(names[p])
        if not fp.is_zero():
            for i, val in rows.l.get((k, j), ()):
                _acc(out, i, val * fp)
        transport = _ZERO
        for a, b in transports:
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
# - ``map``: ``fn(ctx)`` is the whole residual as one sparse dict
#   ``{idx: nonzero residual}``, multiplied out of the compiled rows once;
# - ``vector``: ``fn(ctx, idx[1:])`` is the whole residual vector over the
#   output index ``idx[0]`` as a sparse dict;
# - ``oracle``: ``fn(ctx)`` gives the ``(witness, residual)`` pairs of an
#   assembled tensor, computed without the frame operators and the compiled
#   rows of the identities it cross-checks.
#
# An index space is a string of ``k`` (fiber index) and ``n`` (base index),
# read as a product of ranges in lexicographic order: ``"kkn"`` is
# ``range(k) x range(k) x range(n)``.  ``"bracket"`` is an output index ``i``
# and a fiber index ``j`` over the pairs ``(x, y) < (z, v)`` with ``x <= y``
# and ``z <= v``, ordered by ``(x, y, z, v)``, then ``i``, then ``j``.  A map
# keys its residuals by the whole index tuple, so its sorted items are in the
# dense order of its space.
#
# A vector identity also declares its support: a function of the context
# that yields every ``idx[1:]`` at which the residual vector may be nonzero,
# in any order, repeats allowed.  The support has one clause per term of the
# residual vector.  Every term at a tuple that no clause yields has a factor
# from an empty row, or a derivative along ``x_m`` of entries that do not
# contain ``x_m`` -- frames are constant, so their derivatives vanish -- and
# the whole vector is zero there.  `_vector_pairs` visits a support in the
# dense order of the space and evaluates each vector once, on demand, so a
# failing vector identity computes no vector after its witness's block.
#
# `_Ctx` holds the inputs of one battery and the package's one memo of
# frame quantities: ``star[i, j]``, the frame product ``d_i * d_j`` (a star
# row), and ``lie[r, k, p]``, the frame Lie derivative
# ``L_{d_r}(*)(d_k, d_p)``.  Frames have constant components and commute, so
# that Lie derivative is the partial ``d_r(d_k * d_p)`` (`_frame_partial`),
# and ``lie_at`` reads any other bracket with a frame as a partial too,
# ``[w, d_k] = -d_k w``.  The vector identities here, the duality
# obstructions, the five-field scan and the classifier read these two memos
# and keep no copy of their own.  Memoized dicts are shared, so no caller
# mutates one.  Each value keeps its own partials, so the base battery and
# the battery of its tangent prolongation, which hold the same star entries,
# differentiate each once between them.  `_Ctx` also keeps the assembled
# product and its Lie derivative along the Euler field, which the two Euler
# oracles share and no frame identity reads, so the oracles stay
# independent of the frame route.
# `_scan` and `evaluate_residual` read the same declaration, so a reported
# witness can be reproduced in isolation; a map or an oracle replays by
# looking its witness up in the whole residual.


class _Memo(dict):
    """A dict that computes a missing entry from its key, once."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        out = self[key] = self.fn(*key) if isinstance(key, tuple) else self.fn(key)
        return out


class _Ctx:
    __slots__ = ("c", "e", "euler", "l2", "star", "lie", "euler_pair")

    def __init__(self, c, e=None, euler=None, l2=None):
        self.c = c
        self.e = e
        self.euler = euler
        self.l2 = l2
        # the memos close over c, never over self: no cycle keeps a context alive
        star = self.star = _Memo(lambda i, j: dict(c.rows.star.get((i, j), ())))
        self.lie = _Memo(lambda r, k, p: _frame_partial(c.chart, star[k, p], r))
        self.euler_pair = None  # (t, L_E t) for the assembled product t

    def lie_at(self, w: dict, k, p) -> dict:
        """``L_w(*)(d_k, d_p)``, from the frame products.

        ``[w, d_k*d_p] + (d_k w)*d_p + d_k*(d_p w)``, as ``[w, d_k] = -d_k w``.
        """
        chart, star = self.c.chart, self.star
        out = _vf_bracket(chart, w, star[k, p])
        out = _vadd(out, _on_frames(_frame_partial(chart, w, k), lambda a: star[a, p]))
        return _vadd(out, _on_frames(_frame_partial(chart, w, p), lambda a: star[k, a]))

    def assembled_euler(self) -> tuple:
        """The assembled product ``t`` and ``L_E t``, read by the two Euler oracles."""
        if self.euler_pair is None:
            t = self.c.assemble()
            self.euler_pair = (t, lie_derivative(self.euler.as_field(), t))
        return self.euler_pair


class _Identity(_Frozen):
    """A declared record: ``kind`` is "map", "vector" or "oracle".  Only a
    vector identity has a ``support``, and only an oracle has an empty index
    ``space``."""

    def __init__(self, law: str, kind: str, space: str, fn, support=None):
        self._set(law=law, kind=kind, space=space, fn=fn, support=support)


_IDENTITIES: dict = {}  # record name -> _Identity


def _identity(name: str, law: str, kind: str, space: str = "", support=None):
    def declare(fn):
        _IDENTITIES[name] = _Identity(law, kind, space, fn, support)
        return fn

    return declare


def _residual(ident: _Identity, ctx: _Ctx, idx: tuple) -> RatFunc:
    if ident.kind == "vector":
        return ident.fn(ctx, idx[1:]).get(idx[0], _ZERO)
    return dict(ident.fn(ctx)).get(idx, _ZERO)


def _by(rows: dict, pos: int) -> dict:
    """The rows grouped by one index of their keys: ``{key[pos]: [(key, row)]}``."""
    out = {}
    for key, row in rows.items():
        out.setdefault(key[pos], []).append((key, row))
    return out


@_identity("side-tables-equal", "the two side tables agree", "map", "kkn")
def _map_side_tables(ctx: _Ctx) -> dict:
    return {} if ctx.l2 is None else _vsub(ctx.c.l, ctx.l2)


def _swap_difference(table) -> dict:
    """``t[key] - t[key with its last two indices swapped]``, over all keys."""
    out = {}
    for key, val in table.items():
        _acc(out, key, val)
        _acc(out, (*key[:-2], key[-1], key[-2]), -val)
    return out


@_identity("star-symmetric", "b^a_ij = b^a_ji", "map", "nnn")
def _map_star_symmetric(ctx: _Ctx) -> dict:
    return _swap_difference(ctx.c.star)


@_identity("derivative-symmetric", "a^i_j,kp = a^i_j,pk", "map", "kknn")
def _map_derivative_symmetric(ctx: _Ctx) -> dict:
    return _swap_difference(ctx.c.d)


@_identity("star-associative", "(X*Y)*Z = X*(Y*Z)", "map", "nnnn")
def _map_star_associative(ctx: _Ctx) -> dict:
    star = ctx.c.rows.star
    by_left, by_right = _by(star, 0), _by(star, 1)
    out = {}
    for (x, y), row in star.items():
        for b, w in row:
            for (_, z), image in by_left.get(b, ()):  # (d_x * d_y) * d_z
                for a, v in image:
                    _acc(out, (a, x, y, z), w * v)
            for (z, _), image in by_right.get(b, ()):  # d_z * (d_x * d_y)
                for a, v in image:
                    _acc(out, (a, z, x, y), -(w * v))
    return out


@_identity("l-composition", "l_X(l_Y s) = l_{X*Y} s", "map", "kknn")
def _map_l_composition(ctx: _Ctx) -> dict:
    rows = ctx.c.rows
    by_section, by_direction = _by(rows.l, 1), _by(rows.l, 0)
    out = {}
    for (p, j), row in rows.l.items():  # l_{d_k}(l_{d_p} s_j)
        for m, w in row:
            for (k, _), image in by_section.get(m, ()):
                for i, v in image:
                    _acc(out, (i, j, k, p), w * v)
    for (k, p), row in rows.star.items():  # l_{d_k * d_p} s_j
        for b, w in row:
            for (_, j), image in by_direction.get(b, ()):
                for i, v in image:
                    _acc(out, (i, j, k, p), -(w * v))
    return out


@_identity(
    "second-derivative-symmetric",
    "l_Z(D_{X,Y} s) + D_{X*Y,Z} s is symmetric in X, Y, Z",
    "map",
    "kknnn",
)
def _map_second_derivative_symmetric(ctx: _Ctx) -> dict:
    rows = ctx.c.rows
    by_section, by_direction = _by(rows.l, 1), _by(rows.d, 1)
    second = {}  # (i, j, k, p, r) -> (l_{d_r}(D_{d_k,d_p} s_j) + D_{d_k*d_p,d_r} s_j)^i
    for (j, k, p), row in rows.d.items():  # l_{d_r}(D_{d_k,d_p} s_j)
        for m, w in row:
            for (r, _), image in by_section.get(m, ()):
                for i, v in image:
                    _acc(second, (i, j, k, p, r), w * v)
    for (k, p), row in rows.star.items():  # D_{d_k*d_p,d_r} s_j
        for a, w in row:
            for (j, _, r), image in by_direction.get(a, ()):
                for i, v in image:
                    _acc(second, (i, j, k, p, r), w * v)
    out = {}  # each tuple minus the tuple with its last three indices sorted
    for (i, j, *kpr), val in second.items():
        _acc(out, (i, j, *kpr), val)
        if kpr == sorted(kpr):
            for order in set(permutations(kpr)):
                _acc(out, (i, j, *order), -val)
    return out


def _unit_action(ctx: _Ctx, rows: dict, size: int) -> dict:
    """``(ebar . f_j)^a - delta_aj`` at ``(a, j)``, for rows keyed ``(b, j)``
    that give ``d_b . f_j`` on the frames ``f_j``."""
    ebar = ctx.e.base_vec()
    out = {(j, j): -_ONE for j in range(size)}
    for (b, j), row in rows.items():
        w = ebar.get(b)
        if w is not None:
            for a, v in row:
                _acc(out, (a, j), w * v)
    return out


@_identity("unit-star", "ebar * X = X", "map", "nn")
def _map_unit_star(ctx: _Ctx) -> dict:
    return _unit_action(ctx, ctx.c.rows.star, ctx.c.n)


@_identity("unit-side", "l_ebar s = s", "map", "kk")
def _map_unit_side(ctx: _Ctx) -> dict:
    return _unit_action(ctx, ctx.c.rows.l, ctx.c.rank)


@_identity("unit-derivative", "l_X(Delta_e s) = D_{ebar,X} s", "map", "kkn")
def _map_unit_derivative(ctx: _Ctx) -> dict:
    c, e = ctx.c, ctx.e
    rows, ks = c.rows, range(c.rank)
    out = {}
    for (k, m), row in rows.l.items():  # l_{d_k}(Delta_e s_j), Delta_e s_j = -lam[.][j]
        for j in ks:
            w = e.lam[m][j]
            if not w.is_zero():
                for i, v in row:
                    _acc(out, (i, j, k), -(w * v))
    for (j, p, k), row in rows.d.items():  # D_{ebar,d_k} s_j
        w = e.beta[p]
        if not w.is_zero():
            for i, v in row:
                _acc(out, (i, j, k), -(w * v))
    return out


def _supp_base_integrability(ctx: _Ctx):
    rows, ns = ctx.c.rows, range(ctx.c.n)
    moving = rows.star_vars.items()
    # (X*Y)(Z*V) and (Z*V)(X*Y)
    yield from ((i, j, k, p) for i, j in rows.star for (k, p), _ in moving)
    yield from ((i, j, k, p) for (i, j), _ in moving for k, p in rows.star)
    # [X*Y,Z]*V and Z*[X*Y,V]
    yield from ((i, j, k, p) for (i, j), ms in moving for k in ms for p in ns)
    yield from ((i, j, k, p) for (i, j), ms in moving for p in ms for k in ns)
    # X*L_Y(*)(Z,V) and Y*L_X(*)(Z,V)
    yield from ((i, j, k, p) for (k, p), ms in moving for j in ms for i in ns)
    yield from ((i, j, k, p) for (k, p), ms in moving for i in ms for j in ns)


@_identity(
    "base-integrability",
    "L_{X*Y}(*) = X*L_Y(*) + Y*L_X(*)",
    "vector",
    "nnnnn",
    _supp_base_integrability,
)
def _vec_base_integrability(ctx: _Ctx, rest) -> dict:
    i, j, k, p = rest
    star, lie = ctx.star, ctx.lie
    out = ctx.lie_at(star[i, j], k, p)
    out = _vsub(out, _on_frames(lie[j, k, p], lambda a: star[i, a]))
    return _vsub(out, _on_frames(lie[i, k, p], lambda a: star[j, a]))


def _supp_derivative_commutator(ctx: _Ctx):
    c = ctx.c
    rows, ns = c.rows, range(c.n)
    tables = defaultdict(list)  # m -> [(k, p)] with a row D(m, k, p)
    for m, k, p in rows.d:
        tables[m].append((k, p))
    moving = rows.l_vars.items()
    # D_{X,Y}(l_Z s): the table, then X, Y and X*Y acting on its coefficients
    yield from (
        (j, k, p, r)
        for (r, j), row in rows.l.items()
        for m, _ in row
        for k, p in tables[m]
    )
    yield from ((j, k, p, r) for (r, j), ms in moving for k in ms for p in ns)
    yield from ((j, k, p, r) for (r, j), ms in moving for p in ms for k in ns)
    yield from ((j, k, p, r) for (r, j), _ in moving for k, p in rows.star)
    # l_Z(D_{X,Y} s)
    yield from ((j, k, p, r) for j, k, p in rows.d for r in ns)
    # l_{L_Z(*)(X,Y)} s
    yield from (
        (j, k, p, r)
        for (k, p), ms in rows.star_vars.items()
        for r in ms
        for j in range(c.rank)
    )


@_identity(
    "derivative-commutator",
    "[D_{X,Y}, l_Z] s = l_{L_Z(*)(X,Y)} s",
    "vector",
    "kknnn",
    _supp_derivative_commutator,
)
def _vec_derivative_commutator(ctx: _Ctx, rest) -> dict:
    j, k, p, r = rest
    c = ctx.c
    lhs = apply_d(c, k, p, dict(c.rows.l.get((r, j), ())))
    lhs = _vsub(lhs, apply_l(c, r, apply_d(c, k, p, _frame(j))))
    return _vsub(lhs, apply_l_vec(c, ctx.lie[r, k, p], _frame(j)))


def _supp_derivative_bracket(ctx: _Ctx):
    c = ctx.c
    rows = c.rows
    moving = rows.star_vars
    tables = defaultdict(set)  # (k, p) -> {j} with a row D(j, k, p)
    seconds = defaultdict(set)  # p -> {j} with a row D(j, k, p) for some k
    for j, k, p in rows.d:
        tables[k, p].add(j)
        seconds[p].add(j)
    pairs = [(x, y) for x in range(c.n) for y in range(x, c.n)]
    for at, (x, y) in enumerate(pairs):
        xy = moving.get((x, y), ())
        for z, v in pairs[at + 1 :]:
            zv = moving.get((z, v), ())
            js = set()
            js.update(tables[x, y])  # D_{Z,V}(D_{X,Y} s)
            js.update(tables[z, v])  # D_{X,Y}(D_{Z,V} s)
            js.update(seconds[v] if z in xy else ())  # D_{[X*Y,Z],V} s
            js.update(seconds[z] if v in xy else ())  # D_{[X*Y,V],Z} s
            js.update(seconds[x] if y in zv else ())  # D_{L_Y(*)(Z,V),X} s
            js.update(seconds[y] if x in zv else ())  # D_{L_X(*)(Z,V),Y} s
            yield from ((j, x, y, z, v) for j in js)


@_identity(
    "derivative-bracket",
    "[D_{Z,V}, D_{X,Y}] s = transport terms in star derivatives",
    "vector",
    "bracket",
    _supp_derivative_bracket,
)
def _vec_derivative_bracket(ctx: _Ctx, rest) -> dict:
    j, x, y, z, v = rest
    c, lie = ctx.c, ctx.lie
    rows = c.rows.d

    def dvec(u: dict, second: int) -> dict:
        out = {}
        for a, w in u.items():
            for m, val in rows.get((j, a, second), ()):
                _acc(out, m, w * val)
        return out

    lhs = apply_d(c, z, v, apply_d(c, x, y, _frame(j)))
    lhs = _vsub(lhs, apply_d(c, x, y, apply_d(c, z, v, _frame(j))))
    # minus the transport terms D_{[X*Y,Z],V} s + D_{[X*Y,V],Z} s, where
    # [X*Y, d_z] = -d_z(X*Y) = -L_{d_z}(*)(X, Y), and D_{L_Y(*)(Z,V),X} s +
    # D_{L_X(*)(Z,V),Y} s; the side-operator corrections of the general
    # identity involve brackets of coordinate frames and vanish here
    out = _vadd(lhs, dvec(lie[z, x, y], v))
    out = _vadd(out, dvec(lie[v, x, y], z))
    out = _vsub(out, dvec(lie[y, z, v], x))
    return _vsub(out, dvec(lie[x, z, v], y))


def hm_tensor(t: TensorField) -> TensorField:
    """Integrability defect of a (2,1) tensor as a (4,1) tensor field.

    The defect applied to ``(X, Y, Z, V)`` is the Lie derivative of the
    product along ``X o Y`` applied to ``(Z, V)``, minus the two single-factor
    correction terms; the product is integrable exactly when this vanishes.
    On coordinate frames, evaluating a tensor is a filter on its keys, so the
    entry at ``(a, x, y, z, v)`` is

        L_W(o)^a_{zv} - sum_c t^a_{xc} L_{d_y}(o)^c_{zv}
                      - sum_c t^a_{yc} L_{d_x}(o)^c_{zv},   W^c = t^c_{xy}.

    Expanded with the coordinate formula of `lie_derivative`, term by term:

    - transport, ``W^c d_c o``: ``t^c_{xy} d_c t^a_{zv}``;
    - the contravariant correction: ``-t^c_{zv} d_c t^a_{xy}``;
    - the covariant corrections: ``t^a_{cv} d_z t^c_{xy} + t^a_{zc} d_v t^c_{xy}``;
    - ``L_{d_y}(o) = d_y t``, as ``d_y`` has constant components, so the last
      two terms give ``-t^a_{xc} d_y t^c_{zv} - t^a_{yc} d_x t^c_{zv}``.

    Each partial ``d_e t^b_{pq}`` of a nonconstant entry is taken once and
    joined with the entries of ``t`` whose first index is ``e`` (the first two
    terms) or whose middle (the third) or last index (the other three) is
    ``b``.  Every term has a partial factor, so a constant entry adds no term
    and a ``t`` with constant coefficients has an empty defect.
    """
    if (t.p, t.q) != (2, 1):
        raise ValueError("the integrability defect needs a (2,1) tensor field")
    names = t.chart.names
    dt: dict = {}  # e -> {(b, p, q): d_e t^b_{pq}}, nonzero entries only
    by_first, by_mid, by_last = {}, {}, {}
    for (a, x, y), val in t.coeffs.items():
        by_first.setdefault(a, []).append((x, y, val))
        by_mid.setdefault(x, []).append((a, y, val))
        by_last.setdefault(y, []).append((a, x, val))
        if val.is_const():
            continue  # no partials
        for e, name in enumerate(names):
            d = val.partial(name)
            if not d.is_zero():
                dt.setdefault(e, {})[(a, x, y)] = d
    out: dict = {}
    for e, partials in dt.items():
        for (b, p, q), d in partials.items():
            for r, s, w in by_first.get(e, ()):
                prod = w * d
                _acc(out, (b, r, s, p, q), prod)
                _acc(out, (b, p, q, r, s), -prod)
            for a, f, w in by_mid.get(b, ()):
                _acc(out, (a, p, q, e, f), w * d)
            for a, f, w in by_last.get(b, ()):
                prod = w * d
                _acc(out, (a, p, q, f, e), prod)
                _acc(out, (a, f, e, p, q), -prod)
                _acc(out, (a, e, f, p, q), -prod)
    return TensorField(t.chart, 4, 1, out)


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


def _supp_euler_base(ctx: _Ctx):
    c = ctx.c
    moving = _base_vars(c.chart, ctx.euler.beta)
    yield from c.rows.star  # L_Ebar(X*Y) and X*Y
    yield from ((i, j) for i in moving for j in range(c.n))  # [Ebar,X]*Y
    yield from ((i, j) for j in moving for i in range(c.n))  # X*[Ebar,Y]


@_identity("euler-base", "L_Ebar(*) = *", "vector", "nnn", _supp_euler_base)
def _vec_euler_base(ctx: _Ctx, rest) -> dict:
    i, j = rest
    return _vsub(ctx.lie_at(ctx.euler.base_vec(), i, j), ctx.star[i, j])


def _supp_euler_side(ctx: _Ctx):
    c, lam = ctx.c, ctx.euler.lam
    rows, ks = c.rows, range(c.rank)
    moving = _base_vars(c.chart, ctx.euler.beta)
    # Delta_E(l_X s) and l_X s
    yield from ((j, k) for k, j in rows.l)
    # l_X(Delta_E s), where Delta_E s_j = -lam[.][j]
    yield from ((j, k) for k, m in rows.l for j in ks if not lam[m][j].is_zero())
    # l_{[Ebar,X]} s
    yield from ((j, k) for _, j in rows.l for k in moving)


@_identity(
    "euler-side",
    "[Delta_E, l_X] s - l_{[Ebar,X]} s = l_X s",
    "vector",
    "kkn",
    _supp_euler_side,
)
def _vec_euler_side(ctx: _Ctx, rest) -> dict:
    j, k = rest
    c = ctx.c
    own = dict(c.rows.l.get((k, j), ()))
    return _vsub(_lie_l_entry(c, ctx.euler, j, k), own)


def _supp_euler_derivative(ctx: _Ctx):
    c, lam = ctx.c, ctx.euler.lam
    rows, ks = c.rows, range(c.rank)
    moving = _base_vars(c.chart, ctx.euler.beta)
    lam_vars = {(m, j): _base_vars(c.chart, (lam[m][j],)) for m in ks for j in ks}
    # Delta_E(D_{X,Y} s) and D_{X,Y} s
    yield from rows.d
    # D_{X,Y}(Delta_E s): the table, then X, Y and X*Y acting on its coefficients
    yield from (
        (j, k, p) for m, k, p in rows.d for j in ks if not lam[m][j].is_zero()
    )
    yield from ((j, k, p) for p, m in rows.l for j in ks for k in lam_vars[m, j])
    yield from ((j, k, p) for k, m in rows.l for j in ks for p in lam_vars[m, j])
    yield from (
        (j, k, p) for k, p in rows.star for j in ks if any(lam_vars[m, j] for m in ks)
    )
    # D_{[Ebar,X],Y} s and D_{X,[Ebar,Y]} s
    yield from ((j, k, p) for j, _, p in rows.d for k in moving)
    yield from ((j, k, p) for j, k, _ in rows.d for p in moving)


@_identity(
    "euler-derivative",
    "[Delta_E, D_{X,Y}] s - D_{[Ebar,X],Y} s - D_{X,[Ebar,Y]} s = D_{X,Y} s",
    "vector",
    "kknn",
    _supp_euler_derivative,
)
def _vec_euler_derivative(ctx: _Ctx, rest) -> dict:
    j, k, p = rest
    c = ctx.c
    own = dict(c.rows.d.get((j, k, p), ()))
    return _vsub(_lie_d_entry(c, ctx.euler, j, k, p), own)


@_identity(
    "euler-components", "Lie-derivative components equal (d, l, star)", "oracle"
)
def _oracle_euler_components(ctx: _Ctx):
    """Read the tables off the Lie derivative of the assembled product, so
    that this shares nothing with the frame operators and rows that the
    other Euler identities use."""
    c = ctx.c
    got = extract_components(ctx.assembled_euler()[1])
    return _table_diffs(zip(("d", "l", "star"), got, (c.d, c.l, c.star)))


@_identity(
    "euler-oracle",
    "the Lie derivative of the assembled product equals the product",
    "oracle",
)
def _oracle_euler(ctx: _Ctx):
    t, lie = ctx.assembled_euler()
    return sorted((lie - t).coeffs.items())


def evaluate_residual(name, idx, c, e=None, euler=None, l2=None) -> RatFunc:
    """Re-evaluate one identity of the battery at one index tuple."""
    try:
        ident = _IDENTITIES[name]
    except KeyError:
        raise KeyError(f"unknown identity {name!r}") from None
    return _residual(ident, _Ctx(c, e=e, euler=euler, l2=l2), tuple(idx))


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


def _vector_pairs(ident: _Identity, ctx: _Ctx):
    """``(idx, residual)`` over the support of a vector identity, in dense order.

    The space is cut into blocks of ``idx[1:]``: one block for a product
    space, one per ``(x, y, z, v)`` for ``"bracket"``.  Within a block the
    output index runs outermost, and each vector is evaluated once.
    """
    c = ctx.c
    outputs = range(c.n if ident.space[0] == "n" else c.rank)
    rests = set(ident.support(ctx))
    if ident.space == "bracket":
        rests = sorted(rests, key=lambda rest: (rest[1:], rest[0]))
        blocks = [list(b) for _, b in groupby(rests, key=lambda rest: rest[1:])]
    else:
        blocks = [sorted(rests)]
    for block in blocks:
        vecs: dict = {}  # idx[1:] -> residual vector
        for a in outputs:
            for rest in block:
                vec = vecs.get(rest)
                if vec is None:
                    vec = vecs[rest] = ident.fn(ctx, rest)
                val = vec.get(a)
                if val is not None:
                    yield (a, *rest), val


def _scan(rep: Report, ctx: _Ctx, name: str) -> bool:
    ident = _IDENTITIES[name]
    if ident.kind == "vector":
        pairs = _vector_pairs(ident, ctx)
    elif ident.kind == "map":
        pairs = sorted(ident.fn(ctx).items())
    else:
        pairs = ident.fn(ctx)
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
    """The commutativity records, with ``l2`` as the second side table.

    ``l2`` is the only way ``side-tables-equal`` can fail: without it, as in
    every battery, ``_map_side_tables`` compares ``c.l`` with itself.
    """
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


def _euler_report(c: MultComponents, e, euler: LinearVectorField) -> Report:
    """The Euler-field records alone, for a battery already known to pass."""
    return _stage_report("euler field check", _Ctx(c, e=e, euler=euler), _EULER)


def check_euler(
    c: MultComponents, e: LinearVectorField, euler: LinearVectorField
) -> Report:
    _require("the euler check", check_battery(c, e))
    return _euler_report(c, e, euler)
