"""Fiberwise-linear multiplications and their verification battery.

A fiberwise-linear commutative multiplication on the total space of a
trivialized vector bundle is determined by three frame tables over the base:
a second-derivative-like table ``d`` (``(i, j, k, p) -> a^i_{j,kp}``), a side
table ``l`` (``(i, j, k) -> a^i_{jk}``, the coefficient of ``s_i`` in
``l_{dx^k} s_j``) and a base product ``star`` (``(a, i, j) -> b^a_{ij}``,
the coefficient of ``dx^a`` in ``dx^i * dx^j``).  This module stores that
data, multiplies base vector fields through ``star``, and runs the axiom
battery: commutativity, associativity, unit, integrability and Euler fields.
Every check is performed twice where possible -- once on the tables and once
on the assembled tensor -- and reports the first violating index tuple.

Sections are passed around as sparse ``{fiber index: RatFunc}`` coefficient
dicts, base vector fields as ``{base index: RatFunc}`` dicts.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations
from operator import attrgetter

from .report import Report
from .symcore import RatFunc, _Frozen, _Value
from .tensor import (
    Chart,
    TensorField,
    _acc,
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
            chart, star, (n, n, n), "bad star-table key", "star table entry"
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
    derivative table on one frame section, by output index.
    """

    __slots__ = ("star", "l", "d")

    def __init__(self, c: MultComponents):
        self.star = _kept(
            c.star, "rows", lambda: _compile(((i, j), a, v) for (a, i, j), v in c.star.items())
        )
        self.l = _compile(((k, j), i, v) for (i, j, k), v in c.l.items())
        self.d = _compile(((j, k, p), i, v) for (i, j, k, p), v in c.d.items())


def _kept(table, key, compute):
    """``compute()``, kept in the memo of the checked ``table`` under ``key``."""
    out = table.memo.get(key)
    if out is None:
        out = table.memo[key] = compute()
    return out


def _compile(entries) -> dict:
    """Sparse rows from ``(row key, output index, value)`` triples."""
    rows = {}
    for key, out, val in entries:
        rows.setdefault(key, []).append((out, val))
    return {key: tuple(sorted(row, key=lambda e: e[0])) for key, row in rows.items()}


# -- sparse coefficient-dict calculus -----------------------------------------


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


def _frame(j: int) -> dict:
    return {j: _ONE}


# -- identity declarations ----------------------------------------------------
#
# Each identity of the battery is declared once, by `_identity` on the
# function that computes it, with its record name, law and index space.
# ``fn(ctx)`` is the whole residual as one sparse dict ``{witness: nonzero
# residual}``.  A table identity multiplies it out once from the table
# entries, the partials each value keeps and the compiled rows.  An oracle,
# the identity with an empty space, reads it off an assembled tensor, with
# none of the operators, rows and helpers of the identities it cross-checks.
# `_scan` reads the witnesses in order and `evaluate_residual` looks one up,
# so a reported witness replays in isolation.
#
# An index space is a string of ``k`` (fiber index) and ``n`` (base index),
# read as a product of ranges in lexicographic order: ``"kkn"`` is
# ``range(k) x range(k) x range(n)``, and its witnesses are scanned in that
# order.  ``"bracket"`` is an output index ``i`` and a fiber index ``j`` over
# the pairs ``(x, y) < (z, v)`` with ``x <= y`` and ``z <= v``; its witness
# ``(i, j, x, y, z, v)`` is scanned by ``(x, y, z, v)``, then ``i``, then ``j``.
#
# `_Ctx` holds the inputs of one battery and the package's one memo of
# frame quantities: ``star[i, j]``, the frame product ``d_i * d_j`` (a star
# row), and ``lie[r, k, p]``, the frame Lie derivative
# ``L_{d_r}(*)(d_k, d_p)``.  Frames have constant components and commute, so
# that Lie derivative is the partial ``d_r(d_k * d_p)`` (`_frame_partial`),
# and ``lie_at`` reads any other bracket with a frame as a partial too,
# ``[w, d_k] = -d_k w``.  `duality.regular_connection` and the five-field
# scan read these two memos and keep no copy of their own; the battery's
# table identities and the residual maps of `duality` and `gengeo` read
# neither.
# Memoized dicts are shared, so no caller mutates one.  Each value keeps its
# own partials, so the base battery and the battery of its tangent
# prolongation, which hold the same star entries, differentiate each once
# between them.  `_Ctx` also keeps the assembled product and its Lie
# derivative along the Euler field, which the two Euler oracles share and no
# table identity reads, so the oracles stay independent of the table route.
#
# The prolongations, duals and direct sums hand the star table on as the
# same checked object (`_checked_table`).  Its memo (`_kept`) holds the star
# rows and the items `_scan` read for each identity over base indices only,
# keyed by record name, base names and the unit's and Euler field's base
# parts, all such an identity reads; so each is computed once per star
# table, in one process.  Oracles and fiber records run in every battery.


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
        """``L_w(*)(d_k, d_p)``, from the frame memos.

        ``[w, s] + (d_k w)*d_p + d_k*(d_p w)`` with ``s = d_k*d_p``, as
        ``[w, d_k] = -d_k w``; ``[w, s] = sum_c w^c lie[c, k, p] - sum_c s^c d_c w``.
        """
        chart, star, lie = self.c.chart, self.star, self.lie
        out = _on_frames(w, lambda c: lie[c, k, p])
        out = _vsub(out, _on_frames(star[k, p], lambda c: _frame_partial(chart, w, c)))
        out = _vadd(out, _on_frames(_frame_partial(chart, w, k), lambda a: star[a, p]))
        return _vadd(out, _on_frames(_frame_partial(chart, w, p), lambda a: star[k, a]))

    def assembled_euler(self) -> tuple:
        """The assembled product ``t`` and ``L_E t``, read by the two Euler oracles."""
        if self.euler_pair is None:
            t = self.c.assemble()
            self.euler_pair = (t, lie_derivative(self.euler.as_field(), t))
        return self.euler_pair


class _Identity(_Frozen):
    """A declared record; only an oracle has an empty index ``space``, and an
    identity over base indices only reads base data only (``base_only``)."""

    def __init__(self, law: str, space: str, fn):
        self._set(law=law, space=space, fn=fn, base_only=set(space) == {"n"})


_IDENTITIES: dict = {}  # record name -> _Identity


def _identity(name: str, law: str, space: str = ""):
    def declare(fn):
        _IDENTITIES[name] = _Identity(law, space, fn)
        return fn

    return declare


def _by(rows: dict, pos: int) -> dict:
    """The rows grouped by one index of their keys: ``{key[pos]: [(key, row)]}``."""
    out = {}
    for key, row in rows.items():
        out.setdefault(key[pos], []).append((key, row))
    return out


def _by_out(rows: dict) -> dict:
    """The entries of the rows by output index: ``{out: [(key, value)]}``."""
    out = {}
    for key, row in rows.items():
        for a, v in row:
            out.setdefault(a, []).append((key, v))
    return out


def _partials(chart: Chart, entries):
    """``(e, key, d_e v)`` for each ``(key, v)`` of ``entries`` and each base
    index ``e`` along which ``v`` has a nonzero partial."""
    for key, v in entries:
        if not v.is_const():
            for e, name in enumerate(chart.base_names):
                d = v.partial(name)
                if not d.is_zero():
                    yield e, key, d


@_identity("side-tables-equal", "the two side tables agree", "kkn")
def _map_side_tables(ctx: _Ctx) -> dict:
    return {} if ctx.l2 is None else _vsub(ctx.c.l, ctx.l2)


def _swap_difference(table) -> dict:
    """``t[key] - t[key with its last two indices swapped]``, over all keys."""
    out = {}
    for key, val in table.items():
        _acc(out, key, val)
        _acc(out, (*key[:-2], key[-1], key[-2]), -val)
    return out


@_identity("star-symmetric", "b^a_ij = b^a_ji", "nnn")
def _map_star_symmetric(ctx: _Ctx) -> dict:
    return _swap_difference(ctx.c.star)


@_identity("derivative-symmetric", "a^i_j,kp = a^i_j,pk", "kknn")
def _map_derivative_symmetric(ctx: _Ctx) -> dict:
    return _swap_difference(ctx.c.d)


@_identity("star-associative", "(X*Y)*Z = X*(Y*Z)", "nnnn")
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


@_identity("l-composition", "l_X(l_Y s) = l_{X*Y} s", "kknn")
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


@_identity("unit-star", "ebar * X = X", "nn")
def _map_unit_star(ctx: _Ctx) -> dict:
    return _unit_action(ctx, ctx.c.rows.star, ctx.c.n)


@_identity("unit-side", "l_ebar s = s", "kk")
def _map_unit_side(ctx: _Ctx) -> dict:
    return _unit_action(ctx, ctx.c.rows.l, ctx.c.rank)


@_identity("unit-derivative", "l_X(Delta_e s) = D_{ebar,X} s", "kkn")
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


@_identity("base-integrability", "L_{X*Y}(*) = X*L_Y(*) + Y*L_X(*)", "nnnnn")
def _map_base_integrability(ctx: _Ctx) -> dict:
    """At ``(a, x, y, z, v)``, with ``t^a_xy`` the star entries, the terms
    of `hm_tensor`: ``t^c_xy d_c t^a_zv - t^c_zv d_c t^a_xy + t^a_cv d_z t^c_xy
    + t^a_zc d_v t^c_xy - t^a_xc d_y t^c_zv - t^a_yc d_x t^c_zv``."""
    c = ctx.c
    star = c.rows.star
    by_out, by_first, by_second = _by_out(star), _by(star, 0), _by(star, 1)
    out = {}
    for e, (b, p, q), d in _partials(c.chart, c.star.items()):  # d_e t^b_pq
        for (r, s), w in by_out.get(e, ()):  # t^e_rs, twice
            _acc(out, (b, r, s, p, q), w * d)
            _acc(out, (b, p, q, r, s), -(w * d))
        for (_, f), row in by_first.get(b, ()):  # t^a_bf
            for a, w in row:
                _acc(out, (a, p, q, e, f), w * d)
        for (f, _), row in by_second.get(b, ()):  # t^a_fb, three times
            for a, w in row:
                prod = w * d
                _acc(out, (a, p, q, f, e), prod)
                _acc(out, (a, f, e, p, q), -prod)
                _acc(out, (a, e, f, p, q), -prod)
    return out


@_identity("derivative-commutator", "[D_{X,Y}, l_Z] s = l_{L_Z(*)(X,Y)} s", "kknnn")
def _map_derivative_commutator(ctx: _Ctx) -> dict:
    """At ``(i, j, k, p, r)``, with side, derivative and star entries
    ``a^i_jr``, ``a^i_j,kp`` and ``b^a_kp``: ``a^i_m,kp a^m_jr - a^i_mr a^m_j,kp
    + a^i_mp d_k a^m_jr + a^i_mk d_p a^m_jr - b^a_kp d_a a^i_jr - a^i_ja d_r b^a_kp``."""
    c = ctx.c
    rows = c.rows
    l_by_section, l_by_direction = _by(rows.l, 1), _by(rows.l, 0)
    d_by_section, star_by_out = _by(rows.d, 0), _by_out(rows.star)
    out = {}
    for (r, j), row in rows.l.items():  # the table of D_{d_k,d_p} on l_{d_r} s_j
        for m, w in row:
            for (_, k, p), image in d_by_section.get(m, ()):
                for i, v in image:
                    _acc(out, (i, j, k, p, r), w * v)
    for (j, k, p), row in rows.d.items():  # l_{d_r}(D_{d_k,d_p} s_j)
        for m, w in row:
            for (r, _), image in l_by_section.get(m, ()):
                for i, v in image:
                    _acc(out, (i, j, k, p, r), -(w * v))
    for e, (m, j, r), d in _partials(c.chart, c.l.items()):  # D on the coefficients
        for (q, _), image in l_by_section.get(m, ()):
            for i, v in image:
                _acc(out, (i, j, e, q, r), v * d)
                _acc(out, (i, j, q, e, r), v * d)
        for (k, p), b in star_by_out.get(e, ()):
            _acc(out, (m, j, k, p, r), -(b * d))
    for r, (a, k, p), d in _partials(c.chart, c.star.items()):  # l_{L_{d_r}(*)(d_k,d_p)}
        for (_, j), image in l_by_direction.get(a, ()):
            for i, v in image:
                _acc(out, (i, j, k, p, r), -(v * d))
    return out


@_identity(
    "derivative-bracket",
    "[D_{Z,V}, D_{X,Y}] s = transport terms in star derivatives",
    "bracket",
)
def _map_derivative_bracket(ctx: _Ctx) -> dict:
    """``G(P, Q) - G(Q, P)`` at ``(i, j, *P, *Q)``, where for ``Q = (z, v)``

        G(P, Q) = (D_Q(D_P s_j))^i + d_z b^a_P a^i_j,av + d_v b^a_P a^i_j,az
          = a^i_m,Q a^m_j,P + a^i_mv d_z a^m_j,P + a^i_mz d_v a^m_j,P
            - b^a_Q d_a a^i_j,P + d_z b^a_P a^i_j,av + d_v b^a_P a^i_j,az,

    over nondecreasing pairs.  The star derivatives give the transport terms
    ``D_{[X*Y,Z],V} s + D_{[X*Y,V],Z} s``, as ``[X*Y, d_z] = -L_{d_z}(*)(X, Y)``,
    and in ``G(Q, P)`` the terms ``D_{L_Y(*)(Z,V),X} s + D_{L_X(*)(Z,V),Y} s``;
    the side-operator corrections of the general identity involve brackets of
    coordinate frames and vanish.
    """
    c = ctx.c
    rows = c.rows
    d_by_section, d_by_direction = _by(rows.d, 0), _by(rows.d, 1)
    l_by_section, star_by_out = _by(rows.l, 1), _by_out(rows.star)
    second = {}  # (i, j, *P, *Q) -> G(P, Q)

    def add(i, j, x, y, z, v, val):
        if x <= y and z <= v:
            _acc(second, (i, j, x, y, z, v), val)

    for (j, x, y), row in rows.d.items():  # the table of D_Q on D_P s_j
        for m, w in row:
            for (_, z, v), image in d_by_section.get(m, ()):
                for i, u in image:
                    add(i, j, x, y, z, v, w * u)
    for e, (m, j, x, y), d in _partials(c.chart, c.d.items()):  # D_Q on its coefficients
        for (q, _), image in l_by_section.get(m, ()):
            for i, u in image:
                add(i, j, x, y, e, q, u * d)
                add(i, j, x, y, q, e, u * d)
        for (z, v), b in star_by_out.get(e, ()):
            add(m, j, x, y, z, v, -(b * d))
    for e, (a, x, y), d in _partials(c.chart, c.star.items()):  # the star derivatives
        for (j, _, q), image in d_by_direction.get(a, ()):
            for i, u in image:
                add(i, j, x, y, e, q, d * u)
                add(i, j, x, y, q, e, d * u)
    out = {}
    for (i, j, x, y, z, v), val in second.items():
        if (x, y) < (z, v):
            _acc(out, (i, j, x, y, z, v), val)
        elif (z, v) < (x, y):
            _acc(out, (i, j, z, v, x, y), -val)
    return out


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
    "integrability-oracle", "the assembled product has vanishing integrability defect"
)
def _oracle_integrability(ctx: _Ctx) -> dict:
    return hm_tensor(ctx.c.assemble()).coeffs


def _euler_transport(ctx: _Ctx, table: dict) -> dict:
    """``E^e d_e t - t`` at each key of the table ``t``, for the base part
    ``E^e`` of the Euler field."""
    beta = ctx.euler.beta
    out = {}
    for key, v in table.items():
        _acc(out, key, -v)
    for e, key, d in _partials(ctx.c.chart, table.items()):
        _acc(out, key, beta[e] * d)
    return out


@_identity("euler-base", "L_Ebar(*) = *", "nnn")
def _map_euler_base(ctx: _Ctx) -> dict:
    """At ``(a, i, j)``: ``E^c d_c b^a_ij - b^c_ij d_c E^a + d_i E^c b^a_cj
    + d_j E^c b^a_ic - b^a_ij``, with ``E^c`` the base part of the Euler field."""
    c = ctx.c
    star = c.rows.star
    by_out, by_first, by_second = _by_out(star), _by(star, 0), _by(star, 1)
    out = _euler_transport(ctx, c.star)
    for e, a, d in _partials(c.chart, enumerate(ctx.euler.beta)):  # d_e E^a
        for (i, j), b in by_out.get(e, ()):
            _acc(out, (a, i, j), -(b * d))
        for (_, j), row in by_first.get(a, ()):
            for m, w in row:
                _acc(out, (m, e, j), w * d)
        for (i, _), row in by_second.get(a, ()):
            for m, w in row:
                _acc(out, (m, i, e), w * d)
    return out


def _lam_terms(out: dict, rows, lam: tuple) -> None:
    """Add ``-lam[m][i] T^i`` at ``(m, j, *rest)`` and ``T^i lam[j][m]`` at
    ``(i, m, *rest)``, the terms of ``[Delta_E, T] s_j`` in ``lam``, for the
    rows ``((j, *rest), T s_j)``."""
    ks = range(len(lam))
    for (j, *rest), row in rows:
        for i, v in row:
            for m in ks:
                _acc(out, (m, j, *rest), -(lam[m][i] * v))
                _acc(out, (i, m, *rest), lam[j][m] * v)


@_identity("euler-side", "[Delta_E, l_X] s - l_{[Ebar,X]} s = l_X s", "kkn")
def _map_euler_side(ctx: _Ctx) -> dict:
    """At ``(i, j, k)``, with ``E = (beta, lam)``: ``E^e d_e a^i_jk
    - lam[i][m] a^m_jk + a^i_mk lam[m][j] + d_k E^a a^i_ja - a^i_jk``."""
    c, euler = ctx.c, ctx.euler
    rows = c.rows
    by_direction = _by(rows.l, 0)
    out = _euler_transport(ctx, c.l)
    _lam_terms(out, (((j, k), row) for (k, j), row in rows.l.items()), euler.lam)
    for k, a, d in _partials(c.chart, enumerate(euler.beta)):  # d_k E^a
        for (_, j), row in by_direction.get(a, ()):
            for i, v in row:
                _acc(out, (i, j, k), d * v)
    return out


@_identity(
    "euler-derivative",
    "[Delta_E, D_{X,Y}] s - D_{[Ebar,X],Y} s - D_{X,[Ebar,Y]} s = D_{X,Y} s",
    "kknn",
)
def _map_euler_derivative(ctx: _Ctx) -> dict:
    """At ``(i, j, k, p)``, with ``E = (beta, lam)``: ``E^e d_e a^i_j,kp
    - lam[i][m] a^m_j,kp + a^i_m,kp lam[m][j] + d_k E^a a^i_j,ap + d_p E^a a^i_j,ka
    - a^i_j,kp``, plus ``D_{d_k,d_p}`` on the coefficients of ``Delta_E s_j``:
    ``a^i_mp d_k lam[m][j] + a^i_mk d_p lam[m][j] - b^a_kp d_a lam[i][j]``."""
    c, euler = ctx.c, ctx.euler
    rows, ks = c.rows, range(c.rank)
    l_by_section, star_by_out = _by(rows.l, 1), _by_out(rows.star)
    d_by_first, d_by_second = _by(rows.d, 1), _by(rows.d, 2)
    out = _euler_transport(ctx, c.d)
    _lam_terms(out, rows.d.items(), euler.lam)
    lam = (((m, j), euler.lam[m][j]) for m in ks for j in ks)
    for e, (m, j), d in _partials(c.chart, lam):  # d_e lam[m][j]
        for (q, _), row in l_by_section.get(m, ()):
            for i, v in row:
                _acc(out, (i, j, e, q), v * d)
                _acc(out, (i, j, q, e), v * d)
        for (k, p), b in star_by_out.get(e, ()):
            _acc(out, (m, j, k, p), -(b * d))
    for e, a, d in _partials(c.chart, enumerate(euler.beta)):  # d_e E^a
        for (j, _, p), row in d_by_first.get(a, ()):
            for i, v in row:
                _acc(out, (i, j, e, p), d * v)
        for (j, k, _), row in d_by_second.get(a, ()):
            for i, v in row:
                _acc(out, (i, j, k, e), d * v)
    return out


@_identity("euler-components", "Lie-derivative components equal (d, l, star)")
def _oracle_euler_components(ctx: _Ctx) -> dict:
    """Read the tables off the Lie derivative of the assembled product, so
    that this shares nothing with the frame operators and rows that the
    other Euler identities use."""
    c = ctx.c
    got = extract_components(ctx.assembled_euler()[1])
    diffs = _table_diffs(zip(("d", "l", "star"), got, (c.d, c.l, c.star)))
    return {key: val for key, val in diffs if not val.is_zero()}


@_identity(
    "euler-oracle", "the Lie derivative of the assembled product equals the product"
)
def _oracle_euler(ctx: _Ctx) -> dict:
    t, lie = ctx.assembled_euler()
    return (lie - t).coeffs


def evaluate_residual(name, idx, c, e=None, euler=None, l2=None) -> RatFunc:
    """Re-evaluate one identity of the battery at one index tuple."""
    try:
        ident = _IDENTITIES[name]
    except KeyError:
        raise KeyError(f"unknown identity {name!r}") from None
    return ident.fn(_Ctx(c, e=e, euler=euler, l2=l2)).get(tuple(idx), _ZERO)


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


def _scan(rep: Report, ctx: _Ctx, name: str) -> bool:
    ident = _IDENTITIES[name]
    if ident.base_only:  # kept on the star table
        c, fields = ctx.c, (ctx.e, ctx.euler)
        key = (name, c.chart.base_names, *(None if f is None else f.beta for f in fields))
        items = _kept(c.star, key, lambda: tuple(sorted(ident.fn(ctx).items())))
        return rep.scan(name, ident.law, items)
    # in the order of the space: a bracket witness by (x, y, z, v) first
    key = (lambda pair: (pair[0][2:], pair[0][:2])) if ident.space == "bracket" else None
    return rep.scan(name, ident.law, sorted(ident.fn(ctx).items(), key=key))


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
