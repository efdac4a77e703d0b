"""Prolonged structures: canonical multiplications on enlarged fibers.

Any verified base product induces a multiplication on the rank-n bundle
whose frame sections mirror the coordinate fields (the tangent
prolongation); over a flat structure the duality transport yields its
covector twin, and stacking the two gives a rank-2n structure on the
double fiber.  The building blocks -- block direct sums and conjugation by
a fiber isomorphism -- are exposed separately, since they preserve every
battery verdict and are reused by the generalized-geometry layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .duality import Connection, check_flat_f, dualize
from .fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    apply_d,
    apply_delta,
    apply_l,
    check_battery,
    lie_star,
    star_product,
    _frame,
    _require,
    _vadd,
    _vec_pairs,
    _vf_bracket,
    _vsub,
)
from .report import Report
from .symcore import RatFunc, SingularMatrixError, solve_linear
from .tensor import Chart, table_eq

__all__ = [
    "ProlongedStructure",
    "tangent_prolongation",
    "cotangent_prolongation",
    "generalized_prolongation",
    "direct_sum",
    "direct_sum_unit",
    "conjugate",
    "conjugate_unit",
    "five_field_residual",
    "check_five_field_identity",
]

_ZERO = RatFunc.zero()
_ONE = RatFunc.one()

_KINDS = ("tangent", "cotangent", "generalized")


@dataclass(frozen=True, eq=False)
class ProlongedStructure:
    """A prolonged multiplication with its unit and construction data.

    ``kind`` records which construction produced it; the fiber rank is the
    base dimension for the single prolongations and twice that for the
    double one.  The basic component always coincides with the source
    product, which is what makes the constructions prolongations rather
    than arbitrary extensions.
    """

    kind: str
    components: MultComponents
    unit: LinearVectorField
    source: BaseFManifold
    nabla: Connection | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown prolongation kind {self.kind!r}")
        n = self.source.chart.n
        want = 2 * n if self.kind == "generalized" else n
        if self.components.rank != want:
            raise ValueError(
                f"{self.kind} prolongation needs fiber rank {want}, "
                f"got {self.components.rank}"
            )
        if self.unit.chart != self.components.chart:
            raise ValueError("unit field lives on a different chart")
        if self.components.chart.base_names != self.source.chart.base_names:
            raise ValueError("prolongation must sit over the source base chart")
        if not table_eq(self.components.star, self.source.star):
            raise ValueError("basic component must equal the source product")

    def verify(self) -> Report:
        rep = check_battery(self.components, self.unit)
        rep.title = f"{self.kind} prolongation battery"
        return rep


# -- the three constructors ----------------------------------------------------


def tangent_prolongation(base: BaseFManifold) -> ProlongedStructure:
    """Prolong a verified base product to the fiber spanned by the frames.

    The side table is the product table itself (a frame section multiplies
    a direction exactly as the corresponding coordinate fields multiply),
    the derivative table collects the coordinate derivatives of the product
    entries, and the unit acquires the Jacobian of its own coefficients as
    fiber matrix.
    """
    _require("the tangent prolongation", base.verify())
    return _tangent(base)


def _tangent(base: BaseFManifold) -> ProlongedStructure:
    bchart = base.chart
    n = bchart.n
    names = bchart.names
    chart = Chart(bchart.base_names, tuple(f"xi{j + 1}" for j in range(n)))
    d = {}
    for (a, i, j), val in base.star.items():
        for m in range(n):
            dv = val.partial(names[m])
            if not dv.is_zero():
                d[(a, m, i, j)] = dv
    lam = tuple(
        tuple(base.unit[i].partial(names[j]) for j in range(n)) for i in range(n)
    )
    comps = MultComponents(chart=chart, d=d, l=dict(base.star), star=dict(base.star))
    unit = LinearVectorField(chart, base.unit, lam)
    return ProlongedStructure("tangent", comps, unit, base)


def cotangent_prolongation(base: BaseFManifold, nabla: Connection) -> ProlongedStructure:
    """Dual-fiber prolongation: the duality image of the tangent one."""
    _require("the cotangent prolongation", check_flat_f(base, nabla))
    tan = _tangent(base)
    dual_c, dual_e = dualize(tan.components, tan.unit, nabla)
    return ProlongedStructure("cotangent", dual_c, dual_e, base, nabla)


def generalized_prolongation(base: BaseFManifold, nabla: Connection) -> ProlongedStructure:
    """Rank-2n prolongation on the double fiber (vector block, covector block)."""
    _require("the generalized prolongation", check_flat_f(base, nabla))
    tan = _tangent(base)
    dual_c, dual_e = dualize(tan.components, tan.unit, nabla)
    comps = direct_sum(tan.components, dual_c)
    unit = direct_sum_unit(tan.unit, dual_e)
    return ProlongedStructure("generalized", comps, unit, base, nabla)


# -- block direct sums ----------------------------------------------------------


def direct_sum(c1: MultComponents, c2: MultComponents) -> MultComponents:
    """Block-diagonal tables over a shared base product.

    The summands must live over the same base chart, carry equal star
    tables, and use disjoint fiber names (the combined chart keeps both
    blocks apart by name; the second block's indices are shifted past the
    first).
    """
    if c1.chart.base() != c2.chart.base():
        raise ValueError("direct sum needs summands over the same base chart")
    if not table_eq(c1.star, c2.star):
        raise ValueError("star tables of the summands differ")
    chart = Chart(c1.chart.base_names, c1.chart.fiber_names + c2.chart.fiber_names)
    shift = c1.rank
    d = dict(c1.d)
    for (i, j, k, p), val in c2.d.items():
        d[(i + shift, j + shift, k, p)] = val
    l = dict(c1.l)
    for (i, j, k), val in c2.l.items():
        l[(i + shift, j + shift, k)] = val
    return MultComponents(chart=chart, d=d, l=l, star=dict(c1.star))


def direct_sum_unit(e1: LinearVectorField, e2: LinearVectorField) -> LinearVectorField:
    """Block-diagonal unit over a shared base part."""
    if e1.chart.base() != e2.chart.base():
        raise ValueError("direct sum needs summands over the same base chart")
    if e1.beta != e2.beta:
        raise ValueError("base parts of the summand units differ")
    chart = Chart(e1.chart.base_names, e1.chart.fiber_names + e2.chart.fiber_names)
    k1, k2 = e1.chart.k, e2.chart.k
    lam = []
    for i in range(k1):
        lam.append(tuple(e1.lam[i]) + (_ZERO,) * k2)
    for i in range(k2):
        lam.append((_ZERO,) * k1 + tuple(e2.lam[i]))
    return LinearVectorField(chart, e1.beta, tuple(lam))


# -- conjugation by a fiber isomorphism -----------------------------------------


def _coerce_iso(chart: Chart, iso):
    k = chart.k
    rows = [
        [
            chart.require_base_only(RatFunc.coerce(v), "fiber isomorphism entry")
            for v in row
        ]
        for row in iso
    ]
    if len(rows) != k or any(len(row) != k for row in rows):
        raise ValueError(f"fiber isomorphism must be {k}x{k}")
    cols = []
    for b in range(k):
        rhs = [_ONE if i == b else _ZERO for i in range(k)]
        try:
            cols.append(solve_linear(rows, rhs))
        except SingularMatrixError:
            raise SingularMatrixError("the fiber isomorphism is singular") from None
    inv = [[cols[b][i] for b in range(k)] for i in range(k)]
    return rows, inv


def _mat_apply(mat, vec: dict) -> dict:
    out = {}
    for i, val in vec.items():
        for a in range(len(mat)):
            m = mat[a][i]
            if m.is_zero():
                continue
            cur = out.get(a, _ZERO) + m * val
            if cur.is_zero():
                out.pop(a, None)
            else:
                out[a] = cur
    return out


def conjugate(c: MultComponents, iso) -> MultComponents:
    """Transport the tables through an invertible change of fiber frame.

    Each new table column is the old operator applied to the matching
    column of the inverse matrix, pushed back through the matrix.  For a
    frame change with non-constant entries the derivative table picks up
    the usual first-order corrections; the base product is untouched.
    """
    chart = c.chart
    mat, inv = _coerce_iso(chart, iso)
    n, kdim = chart.n, chart.k
    new_d, new_l = {}, {}
    for b in range(kdim):
        col = {i: inv[i][b] for i in range(kdim) if not inv[i][b].is_zero()}
        for k in range(n):
            for a, val in _mat_apply(mat, apply_l(c, k, col)).items():
                new_l[(a, b, k)] = val
            for p in range(n):
                for a, val in _mat_apply(mat, apply_d(c, k, p, col)).items():
                    new_d[(a, b, k, p)] = val
    return MultComponents(chart=chart, d=new_d, l=new_l, star=dict(c.star))


def conjugate_unit(e: LinearVectorField, iso) -> LinearVectorField:
    """Transport a fiberwise-linear vector field through a change of frame."""
    chart = e.chart
    mat, inv = _coerce_iso(chart, iso)
    kdim = chart.k
    lam = [[_ZERO] * kdim for _ in range(kdim)]
    for b in range(kdim):
        col = {i: inv[i][b] for i in range(kdim) if not inv[i][b].is_zero()}
        img = _mat_apply(mat, apply_delta(e, col))
        for a in range(kdim):
            lam[a][b] = -img.get(a, _ZERO)
    return LinearVectorField(chart, e.beta, tuple(tuple(row) for row in lam))


# -- the five-field identity -----------------------------------------------------


def five_field_residual(c: MultComponents, x, y, z, v, w) -> dict:
    """Five-argument combination of product derivatives, as a vector dict.

    On an integrable product the combination vanishes identically; it mixes
    the derivative of the product along the fifth field with brackets by
    ``x*y`` and nested product derivatives in the remaining slots.  The
    arguments are base vector fields given as coefficient dicts.
    """
    chart = c.chart

    def br(u1, u2):
        return _vf_bracket(chart, u1, u2)

    def ls(w_, u1, u2):
        return lie_star(c, w_, u1, u2)

    xy = star_product(c, x, y)
    out = ls(w, br(xy, z), v)
    out = _vadd(out, ls(w, br(xy, v), z))
    out = _vadd(out, ls(w, ls(y, z, v), x))
    out = _vadd(out, ls(w, ls(x, z, v), y))
    out = _vsub(
        out, star_product(c, x, _vadd(ls(w, br(y, v), z), ls(w, br(y, z), v)))
    )
    out = _vsub(
        out, star_product(c, y, _vadd(ls(w, br(x, v), z), ls(w, br(x, z), v)))
    )
    out = _vadd(out, ls(ls(w, z, v), x, y))
    return _vsub(out, ls(ls(w, x, y), z, v))


def check_five_field_identity(base: BaseFManifold) -> Report:
    """Scan the five-field identity over every tuple of base frames."""
    _require("the five-field identity check", base.verify())
    c = base.as_components()
    n = c.n
    rep = Report("five-field identity")
    law = "the five-field consequence of the integrability law vanishes"
    frames = [_frame(j) for j in range(n)]
    rep.scan(
        "five-field-identity",
        law,
        _vec_pairs(
            product(range(n), repeat=5),
            lambda *idx: five_field_residual(c, *(frames[t] for t in idx)),
        ),
    )
    return rep
