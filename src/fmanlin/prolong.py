"""Prolonged structures: canonical multiplications on enlarged fibers.

Any verified base product induces a multiplication on the rank-n bundle
whose frame sections mirror the coordinate fields (the tangent
prolongation); over a flat structure the duality transport yields its
covector twin, and stacking the two gives a rank-2n structure on the
double fiber.  The stacking is the block direct sum of tables and of units
(`direct_sum`, `direct_sum_unit`), which preserves every battery verdict.
"""

from __future__ import annotations

from itertools import product

from .fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    check_battery,
    _Ctx,
    _on_frames,
    _require,
    _vec_pairs,
)
from .report import Report
from .symcore import RatFunc, _Frozen
from .tensor import Chart, Connection, _vadd, _vsub

__all__ = [
    "ProlongedStructure",
    "tangent_prolongation",
    "cotangent_prolongation",
    "generalized_prolongation",
    "direct_sum",
    "direct_sum_unit",
    "check_five_field_identity",
]

_ZERO = RatFunc.zero()

_KINDS = ("tangent", "cotangent", "generalized")


class ProlongedStructure(_Frozen):
    """A prolonged multiplication with its unit and construction data.

    ``kind`` records which construction produced it; the fiber rank is the
    base dimension for the single prolongations and twice that for the
    double one.  The basic component always coincides with the source
    product, which is what makes the constructions prolongations rather
    than arbitrary extensions.
    """

    def __init__(
        self,
        kind: str,
        components: MultComponents,
        unit: LinearVectorField,
        source: BaseFManifold,
        nabla: Connection | None = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown prolongation kind {kind!r}")
        n = source.chart.n
        want = 2 * n if kind == "generalized" else n
        if components.rank != want:
            raise ValueError(
                f"{kind} prolongation needs fiber rank {want}, "
                f"got {components.rank}"
            )
        if unit.chart != components.chart:
            raise ValueError("unit field lives on a different chart")
        if components.chart.base_names != source.chart.base_names:
            raise ValueError("prolongation must sit over the source base chart")
        if components.star != source.star:
            raise ValueError("basic component must equal the source product")
        self._set(
            kind=kind, components=components, unit=unit, source=source, nabla=nabla
        )

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
    bchart = base.chart
    n = bchart.n
    names = bchart.names
    chart = Chart(bchart.base_names, tuple(f"xi{j + 1}" for j in range(n)))
    d = {}
    for (a, i, j), val in base.star.items():
        for m in range(n):
            d[(a, m, i, j)] = val.partial(names[m])
    lam = tuple(
        tuple(base.unit[i].partial(names[j]) for j in range(n)) for i in range(n)
    )
    comps = MultComponents(chart=chart, d=d, l=base.star, star=base.star)
    unit = LinearVectorField(chart, base.unit, lam)
    return ProlongedStructure("tangent", comps, unit, base)


def cotangent_prolongation(base: BaseFManifold, nabla: Connection) -> ProlongedStructure:
    """Dual-fiber prolongation: the duality image of the tangent one."""
    from .duality import check_flat_f, dualize

    _require("the cotangent prolongation", check_flat_f(base, nabla))
    tan = tangent_prolongation(base)
    dual_c, dual_e = dualize(tan.components, tan.unit, nabla)
    return ProlongedStructure("cotangent", dual_c, dual_e, base, nabla)


def generalized_prolongation(base: BaseFManifold, nabla: Connection) -> ProlongedStructure:
    """Rank-2n prolongation on the double fiber (vector block, covector block)."""
    from .duality import check_flat_f

    _require("the generalized prolongation", check_flat_f(base, nabla))
    return _double_prolongation(base, nabla)


def _double_prolongation(base: BaseFManifold, nabla: Connection) -> ProlongedStructure:
    """`generalized_prolongation` once its flat structure is known to pass."""
    from .duality import dualize

    tan = tangent_prolongation(base)
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
    if c1.star != c2.star:
        raise ValueError("star tables of the summands differ")
    chart = Chart(c1.chart.base_names, c1.chart.fiber_names + c2.chart.fiber_names)
    shift = c1.rank
    d = dict(c1.d)
    for (i, j, k, p), val in c2.d.items():
        d[(i + shift, j + shift, k, p)] = val
    l = dict(c1.l)
    for (i, j, k), val in c2.l.items():
        l[(i + shift, j + shift, k)] = val
    return MultComponents(chart=chart, d=d, l=l, star=c1.star)


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


# -- the five-field identity -----------------------------------------------------


def _five_field_vec(ctx: _Ctx, x, y, z, v, w) -> dict:
    """The five-field combination of product derivatives at frames.

    On an integrable product it vanishes identically.  In general it reads

        L_W(*)([X*Y, Z], V) + L_W(*)([X*Y, V], Z)
        + L_W(*)(L_Y(*)(Z, V), X) + L_W(*)(L_X(*)(Z, V), Y)
        - X * (L_W(*)([Y, V], Z) + L_W(*)([Y, Z], V)) - (the same with X, Y swapped)
        + L_{L_W(*)(Z, V)}(*)(X, Y) - L_{L_W(*)(X, Y)}(*)(Z, V).

    On coordinate frames the two terms with a bracket of frames vanish,
    ``[d_x * d_y, d_z] = -L_{d_z}(*)(d_x, d_y)``, and ``L_{d_w}(*)`` is
    tensorial, so every term reads the frame memos of ``ctx``.
    """
    lie = ctx.lie

    def along_w(u: dict, t: int) -> dict:  # L_{d_w}(*)(u, d_t)
        return _on_frames(u, lambda a: lie[w, a, t])

    out = _vadd(along_w(lie[y, z, v], x), along_w(lie[x, z, v], y))
    out = _vsub(out, _vadd(along_w(lie[z, x, y], v), along_w(lie[v, x, y], z)))
    out = _vadd(out, ctx.lie_at(lie[w, z, v], x, y))
    return _vsub(out, ctx.lie_at(lie[w, x, y], z, v))


def check_five_field_identity(base: BaseFManifold) -> Report:
    """Scan the five-field identity over every tuple of base frames."""
    _require("the five-field identity check", base.verify())
    ctx = _Ctx(base.components)
    rep = Report("five-field identity")
    law = "the five-field consequence of the integrability law vanishes"
    rep.scan(
        "five-field-identity",
        law,
        _vec_pairs(product(range(ctx.c.n), repeat=5), lambda *idx: _five_field_vec(ctx, *idx)),
    )
    return rep
