"""Base connections and the dual multiplication package.

A linear connection on the base enters in two roles.  Its compatibility
package (torsion-free, flat, parallel unit, symmetric product derivative)
singles out the base products for which passing to the dual fibers preserves
every multiplication axiom, and its symmetric bracket ``<X:Y>`` drives the
dual derivative table itself.  All checks report condition by condition, so
a connection that fails part of the package can still be used as a
diagnostic tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

from .fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    apply_l_vec,
    check_battery,
    lie_star,
    star_product,
    _euler_report,
    _frame,
    _require,
    _vadd,
    _vec_pairs,
    _vf_bracket,
    _vscale,
    _vsub,
)
from .report import Report
from .symcore import RatFunc, SingularMatrixError, solve_linear
from .tensor import Chart, TensorField, clean_table, table_eq

__all__ = [
    "Connection",
    "FlatFStructure",
    "torsion",
    "curvature",
    "nabla_apply",
    "nabla_star",
    "symmetric_bracket",
    "check_flat_f",
    "dualize",
    "check_duality_conditions",
    "regular_connection",
    "regular_flat_check",
]

_ZERO = RatFunc.zero()
_ONE = RatFunc.one()
_TWO = RatFunc.coerce(2)


@dataclass(frozen=True, eq=False)
class Connection:
    """Christoffel table of a linear connection on the base coordinates.

    ``gamma[(k, i, j)]`` is the ``dx_k`` component of the covariant derivative
    of ``dx_j`` along ``dx_i``; missing entries are zero.
    """

    chart: Chart
    gamma: dict

    def __post_init__(self):
        chart = self.chart
        n = chart.n
        gamma = clean_table(
            {tuple(k): RatFunc.coerce(v) for k, v in self.gamma.items()}
        )
        for key, val in gamma.items():
            if len(key) != 3 or not all(0 <= x < n for x in key):
                raise ValueError(f"bad christoffel key {key}")
            chart.require_base_only(val, f"christoffel entry {key}")
        object.__setattr__(self, "gamma", gamma)

    @staticmethod
    def zero(chart: Chart) -> "Connection":
        return Connection(chart, {})

    def at(self, k: int, i: int, j: int) -> RatFunc:
        return self.gamma.get((k, i, j), _ZERO)

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return self.chart.base() == other.chart.base() and table_eq(
            self.gamma, other.gamma
        )


# -- covariant calculus on base coefficient dicts ------------------------------


def nabla_apply(nabla: Connection, u: dict, v: dict) -> dict:
    """Covariant derivative of the base vector field ``v`` along ``u``."""
    chart = nabla.chart
    names = chart.names
    out = {}
    for a, f in v.items():
        for i, g in u.items():
            fi = f.partial(names[i])
            if not fi.is_zero():
                out[a] = out.get(a, _ZERO) + g * fi
    for (k, i, j), g in nabla.gamma.items():
        ui = u.get(i)
        if ui is None:
            continue
        vj = v.get(j)
        if vj is None:
            continue
        out[k] = out.get(k, _ZERO) + g * ui * vj
    return {a: f for a, f in out.items() if not f.is_zero()}


def symmetric_bracket(nabla: Connection, u: dict, v: dict) -> dict:
    """``<u : v>``: the sum of the covariant derivatives in both orders."""
    return _vadd(nabla_apply(nabla, u, v), nabla_apply(nabla, v, u))


def torsion_vec(nabla: Connection, u: dict, v: dict) -> dict:
    out = _vsub(nabla_apply(nabla, u, v), nabla_apply(nabla, v, u))
    return _vsub(out, _vf_bracket(nabla.chart, u, v))


def torsion(nabla: Connection) -> TensorField:
    """Torsion tensor; key ``(k, i, j)`` is the ``dx_k`` part of ``T(dx_i, dx_j)``."""
    chart = nabla.chart.base()
    coeffs = {}
    for (k, i, j) in set(nabla.gamma) | {(k, j, i) for (k, i, j) in nabla.gamma}:
        val = nabla.at(k, i, j) - nabla.at(k, j, i)
        if not val.is_zero():
            coeffs[(k, i, j)] = val
    return TensorField(chart, 2, 1, coeffs)


def curvature(nabla: Connection) -> TensorField:
    """Curvature tensor; key ``(m, i, j, k)`` is the ``dx_m`` part of ``R(dx_i, dx_j)dx_k``."""
    chart = nabla.chart.base()
    n = chart.n
    names = chart.names
    coeffs = {}
    for i, j, k, m in product(range(n), repeat=4):
        val = nabla.at(m, j, k).partial(names[i]) - nabla.at(m, i, k).partial(
            names[j]
        )
        for a in range(n):
            val = val + nabla.at(a, j, k) * nabla.at(m, i, a)
            val = val - nabla.at(a, i, k) * nabla.at(m, j, a)
        if not val.is_zero():
            coeffs[(m, i, j, k)] = val
    return TensorField(chart, 3, 1, coeffs)


def nabla_star(nabla: Connection, c: MultComponents, u: dict, v: dict, w: dict) -> dict:
    """Covariant derivative of the base product along ``u``, applied to ``(v, w)``."""
    out = nabla_apply(nabla, u, star_product(c, v, w))
    out = _vsub(out, star_product(c, nabla_apply(nabla, u, v), w))
    return _vsub(out, star_product(c, v, nabla_apply(nabla, u, w)))


def _nabla2_vec(nabla: Connection, u: dict, v: dict, w: dict) -> dict:
    """Second covariant derivative of ``w`` in the directions ``(u, v)``."""
    out = nabla_apply(nabla, u, nabla_apply(nabla, v, w))
    return _vsub(out, nabla_apply(nabla, nabla_apply(nabla, u, v), w))


# -- flat structures on the base ------------------------------------------------


def check_flat_f(base: BaseFManifold, nabla: Connection, euler=None) -> Report:
    """Check the compatibility conditions between a base product and a connection."""
    _require("the flat-structure check", base.verify())
    if nabla.chart.base() != base.chart:
        raise ValueError("connection chart does not match the base chart")
    rep = Report("flat structure")
    chart = base.chart
    n = chart.n
    c = base.as_components()

    rep.scan("torsion-free", "T(X, Y) = 0", sorted(torsion(nabla).coeffs.items()))
    rep.scan("flat", "R(X, Y)Z = 0", sorted(curvature(nabla).coeffs.items()))

    unit = {a: f for a, f in enumerate(base.unit) if not f.is_zero()}
    rep.scan(
        "unit-parallel",
        "nabla ebar = 0",
        _vec_pairs(product(range(n)), lambda i: nabla_apply(nabla, _frame(i), unit)),
    )
    rep.scan(
        "star-derivative-symmetric",
        "nabla_X(*)(Y, Z) = nabla_Y(*)(X, Z)",
        _vec_pairs(
            ((i, j, k) for i, j in combinations(range(n), 2) for k in range(n)),
            lambda i, j, k: _vsub(
                nabla_star(nabla, c, _frame(i), _frame(j), _frame(k)),
                nabla_star(nabla, c, _frame(j), _frame(i), _frame(k)),
            ),
        ),
    )

    if euler is None:
        rep.note("no Euler candidate supplied; the second-derivative condition was not checked")
        return rep

    evec = _euler_to_vec(chart, euler)
    rep.scan(
        "euler-base",
        "L_Ebar(*) = *",
        _vec_pairs(
            combinations_with_replacement(range(n), 2),
            lambda j, k: _vsub(
                lie_star(c, evec, _frame(j), _frame(k)),
                star_product(c, _frame(j), _frame(k)),
            ),
        ),
    )
    rep.scan(
        "euler-second-derivative",
        "nabla^2 Ebar = 0",
        _vec_pairs(
            product(range(n), repeat=2),
            lambda i, j: _nabla2_vec(nabla, _frame(i), _frame(j), evec),
        ),
    )
    return rep


def _euler_to_vec(chart: Chart, euler) -> dict:
    comps = tuple(
        chart.require_base_only(RatFunc.coerce(v), "Euler coefficient")
        for v in euler
    )
    if len(comps) != chart.n:
        raise ValueError(f"Euler candidate needs {chart.n} base components")
    return {a: f for a, f in enumerate(comps) if not f.is_zero()}


@dataclass(frozen=True, eq=False)
class FlatFStructure:
    """Base product data with a compatible flat connection, verified on construction."""

    base: BaseFManifold
    nabla: Connection
    euler: tuple | None = None

    def __post_init__(self):
        if self.euler is not None:
            euler = tuple(RatFunc.coerce(v) for v in self.euler)
            object.__setattr__(self, "euler", euler)
        _require("FlatFStructure", check_flat_f(self.base, self.nabla, self.euler))

    def verify(self) -> Report:
        return check_flat_f(self.base, self.nabla, self.euler)

    def euler_vec(self) -> dict | None:
        if self.euler is None:
            return None
        return _euler_to_vec(self.base.chart, self.euler)


# -- the dual package ----------------------------------------------------------


def dualize(c: MultComponents, e: LinearVectorField, nabla: Connection):
    """Component tables of the dual multiplication on the dual chart.

    The side table pairs through the fibers (a transpose), the derivative
    table is the frame evaluation of the five-term dual derivative (first
    derivatives of the side table, the symmetric bracket of the connection,
    and the sign-flipped derivative table), and the base product is carried
    over unchanged.  Works for any connection; whether the result satisfies
    the multiplication axioms is a separate check.
    """
    chart = c.chart
    if nabla.chart.base_names != chart.base_names:
        raise ValueError("connection chart does not match the base coordinates")
    n, kdim = c.n, c.rank
    names = chart.names
    dual_l = {(j, i, k): val for (i, j, k), val in c.l.items()}
    dual_d = {}
    for i, j, k, p in product(range(kdim), range(kdim), range(n), range(n)):
        val = (
            c.l_at(j, i, p).partial(names[k])
            + c.l_at(j, i, k).partial(names[p])
            - c.d_at(j, i, k, p)
        )
        for a in range(n):
            g = nabla.at(a, k, p) + nabla.at(a, p, k)
            if not g.is_zero():
                val = val - g * c.l_at(j, i, a)
        if not val.is_zero():
            dual_d[(i, j, k, p)] = val
    dual = MultComponents(chart=chart.dual(), d=dual_d, l=dual_l, star=dict(c.star))
    return dual, e.dual()


# -- obstruction vectors for the duality conditions -----------------------------
#
# Each condition says a base vector expression lies in the kernel of the map
# sending a vector field to its side operator.  The expressions are computed
# on arbitrary coefficient dicts; on coordinate frames the plain Lie-bracket
# terms drop out on their own.


def _asoc_vec(c: MultComponents, nabla: Connection, x: int, y: int, z: int) -> dict:
    fx, fy, fz = _frame(x), _frame(y), _frame(z)
    out = star_product(c, torsion_vec(nabla, fx, fy), fz)
    out = _vadd(out, _vscale(star_product(c, torsion_vec(nabla, fx, fz), fy), _TWO))
    out = _vadd(out, star_product(c, torsion_vec(nabla, fy, fz), fx))
    out = _vadd(out, torsion_vec(nabla, fz, star_product(c, fx, fy)))
    out = _vsub(out, torsion_vec(nabla, fx, star_product(c, fy, fz)))
    out = _vadd(out, _vscale(nabla_star(nabla, c, fx, fy, fz), _TWO))
    return _vsub(out, _vscale(nabla_star(nabla, c, fz, fx, fy), _TWO))


def _unit_vec(c: MultComponents, e: LinearVectorField, nabla: Connection, x: int) -> dict:
    fx = _frame(x)
    ebar = e.base_vec()
    out = _vscale(nabla_apply(nabla, fx, ebar), _TWO)
    return _vadd(out, torsion_vec(nabla, ebar, fx))


def _integr_vec(c: MultComponents, nabla: Connection, x: int, y: int, z: int, v: int) -> dict:
    chart = c.chart

    def br(a, b):
        return _vf_bracket(chart, a, b)

    def sb(a, b):
        return symmetric_bracket(nabla, a, b)

    fx, fy, fz, fv = _frame(x), _frame(y), _frame(z), _frame(v)
    sxy = star_product(c, fx, fy)
    out = sb(br(fz, sxy), fv)
    out = _vadd(out, sb(br(fv, sxy), fz))
    out = _vadd(out, lie_star(c, sb(fx, fy), fz, fv))
    out = _vsub(out, lie_star(c, sb(fz, fv), fx, fy))
    out = _vsub(out, sb(fx, lie_star(c, fy, fz, fv)))
    out = _vsub(out, sb(fy, lie_star(c, fx, fz, fv)))
    out = _vadd(out, lie_star(c, fy, br(fx, fv), fz))
    out = _vadd(out, lie_star(c, fy, br(fx, fz), fv))
    out = _vadd(out, lie_star(c, fx, br(fy, fv), fz))
    out = _vadd(out, lie_star(c, fx, br(fy, fz), fv))
    out = _vadd(
        out,
        star_product(c, fx, _vadd(sb(br(fy, fv), fz), sb(br(fy, fz), fv))),
    )
    return _vadd(
        out,
        star_product(c, fy, _vadd(sb(br(fx, fv), fz), sb(br(fx, fz), fv))),
    )


def _euler_obstruction_vec(nabla: Connection, evec: dict, x: int, y: int) -> dict:
    fx, fy = _frame(x), _frame(y)
    return _vadd(
        _nabla2_vec(nabla, fx, fy, evec), _nabla2_vec(nabla, fy, fx, evec)
    )


def check_duality_conditions(
    c: MultComponents,
    e: LinearVectorField,
    nabla: Connection,
    euler: LinearVectorField | None = None,
) -> Report:
    """Check the frame conditions under which the dual package keeps the axioms.

    Each condition record tests that an obstruction vector lies in the kernel
    of the side-operator map; the ``dual-battery`` record cross-checks by
    assembling the dual tables and running the full multiplication battery on
    them (with the dual Euler candidate, when one is supplied).
    """
    _require("the duality check", check_battery(c, e))
    if nabla.chart.base_names != c.chart.base_names:
        raise ValueError("connection chart does not match the base coordinates")
    rep = Report("duality conditions")
    n, kdim = c.n, c.rank

    def kernel_pairs(tuples, vec_fn):
        """``((i, j, *idx), l(s_j, w)^i)`` for the obstruction ``w`` at ``idx``."""
        for idx in tuples:
            w = vec_fn(*idx)
            for j in range(kdim):
                img = apply_l_vec(c, w, _frame(j))
                for i in sorted(img):
                    yield (i, j, *idx), img[i]

    ok = rep.scan(
        "dual-associative",
        "the associativity obstruction lies in the kernel of l",
        kernel_pairs(
            product(range(n), repeat=3),
            lambda x, y, z: _asoc_vec(c, nabla, x, y, z),
        ),
    )
    ok &= rep.scan(
        "dual-unit",
        "l(s, 2 nabla_X ebar + T(ebar, X)) = 0",
        kernel_pairs(product(range(n)), lambda x: _unit_vec(c, e, nabla, x)),
    )
    # the integrability obstruction is symmetric within each frame pair
    # (commutativity holds by precondition), so ordered pairs suffice
    pairs = list(combinations_with_replacement(range(n), 2))
    ok &= rep.scan(
        "dual-integrable",
        "the integrability obstruction lies in the kernel of l",
        kernel_pairs(
            ((x, y, z, v) for (x, y) in pairs for (z, v) in pairs),
            lambda x, y, z, v: _integr_vec(c, nabla, x, y, z, v),
        ),
    )
    if euler is not None:
        evec = euler.base_vec()
        rep.scan(
            "dual-euler",
            "l(s, symmetrized nabla^2 Ebar) = 0",
            kernel_pairs(
                pairs, lambda x, y: _euler_obstruction_vec(nabla, evec, x, y)
            ),
        )

    dual_c, dual_e = dualize(c, e, nabla)
    bat = check_battery(dual_c, dual_e)
    rep.summarize(
        "dual-battery", "the dual package passes the multiplication battery", bat
    )
    if ok != bat.passed:
        rep.note(
            "the condition records and the dual battery disagree; "
            "the dual battery verdict governs"
        )

    if euler is not None:
        up = _euler_report(c, e, euler)
        if not up.passed:
            rep.note(
                "the Euler candidate fails on the source; "
                "transported verdicts are diagnostic only"
            )
        if bat.passed:
            erep = _euler_report(dual_c, dual_e, euler.dual())
            rep.summarize(
                "dual-euler-battery",
                "the dual Euler candidate passes the Euler-field check",
                erep,
            )
            if up.passed and erep.passed != rep.record("dual-euler").passed:
                rep.note(
                    "the Euler condition record and the dual Euler cross-check "
                    "disagree; the cross-check governs"
                )
        else:
            rep.note("dual battery failed; the dual Euler cross-check was skipped")
    return rep


# -- the connection attached to a regular structure ------------------------------


def regular_connection(base: BaseFManifold, euler) -> Connection:
    """Connection that makes the unit-and-power frame of an Euler field parallel.

    Writes every coordinate field in the frame ``(ebar, E, E*E, ...)`` and
    imposes that the covariant derivative of the i-th power along ``X`` is
    ``i`` times the (i-1)-th power multiplied by ``X``.  Invertibility of the
    frame's coefficient matrix is exactly the regularity of the input.
    """
    _require("the regular connection", base.verify())
    chart = base.chart
    n = chart.n
    names = chart.names
    c = base.as_components()
    evec = _euler_to_vec(chart, euler)

    powers = [{a: f for a, f in enumerate(base.unit) if not f.is_zero()}]
    for _ in range(1, n):
        powers.append(star_product(c, powers[-1], evec))
    mat = [[powers[i].get(a, _ZERO) for i in range(n)] for a in range(n)]
    cols = []
    for j in range(n):
        rhs = [_ONE if a == j else _ZERO for a in range(n)]
        try:
            cols.append(solve_linear(mat, rhs))
        except SingularMatrixError:
            raise SingularMatrixError(
                "the unit-and-power frame of the Euler candidate is singular; "
                "the structure is not regular"
            ) from None

    gamma = {}
    for k in range(n):
        for j in range(n):
            out = {}
            for i in range(n):
                cij = cols[j][i]
                dk = cij.partial(names[k])
                if not dk.is_zero():
                    for a, w in powers[i].items():
                        out[a] = out.get(a, _ZERO) + dk * w
                if i >= 1 and not cij.is_zero():
                    scale = cij * RatFunc.coerce(i)
                    for a, w in star_product(c, powers[i - 1], _frame(k)).items():
                        out[a] = out.get(a, _ZERO) + scale * w
            for a, w in out.items():
                if not w.is_zero():
                    gamma[(a, k, j)] = w
    return Connection(chart, gamma)


def regular_flat_check(base: BaseFManifold, euler):
    """Compute the regular connection and run the flat-structure check on it."""
    nabla = regular_connection(base, euler)
    rep = check_flat_f(base, nabla, euler)
    rep.note(
        "computed over rational-function coefficients; the construction is "
        "usually stated for holomorphic data"
    )
    return nabla, rep
