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

from functools import partial
from itertools import combinations_with_replacement, product

from .fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    apply_l_vec,
    check_battery,
    star_product,
    _Ctx,
    _Memo,
    _euler_report,
    _frame,
    _on_frames,
    _partials,
    _require,
    _vec_pairs,
    _vscale,
)
from .report import Report
from .symcore import RatFunc, SingularMatrixError, _inverse
from .tensor import Chart, Connection, TensorField, _acc, _vadd, _vsub

__all__ = [
    "Connection",
    "torsion",
    "curvature",
    "nabla_apply",
    "symmetric_bracket",
    "check_flat_f",
    "dualize",
    "check_duality_conditions",
    "regular_connection",
    "regular_flat_check",
]

_ZERO = RatFunc.zero()
_TWO = RatFunc.coerce(2)


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
                _acc(out, a, g * fi)
    for (k, i, j), g in nabla.gamma.items():
        ui = u.get(i)
        if ui is None:
            continue
        vj = v.get(j)
        if vj is None:
            continue
        _acc(out, k, g * ui * vj)
    return out


def symmetric_bracket(nabla: Connection, u: dict, v: dict) -> dict:
    """``<u : v>``: the sum of the covariant derivatives in both orders."""
    return _vadd(nabla_apply(nabla, u, v), nabla_apply(nabla, v, u))


def torsion(nabla: Connection) -> TensorField:
    """Torsion tensor; key ``(k, i, j)`` is the ``dx_k`` part of ``T(dx_i, dx_j)``."""
    chart = nabla.chart.base()
    keys = set(nabla.gamma) | {(k, j, i) for (k, i, j) in nabla.gamma}
    coeffs = {(k, i, j): nabla.at(k, i, j) - nabla.at(k, j, i) for k, i, j in keys}
    return TensorField(chart, 2, 1, coeffs)


def curvature(nabla: Connection) -> TensorField:
    """Curvature tensor; key ``(m, i, j, k)`` is the ``dx_m`` part of ``R(dx_i, dx_j)dx_k``.

    Each term of ``d_i G^m_jk - d_j G^m_ik + G^a_jk G^m_ia - G^a_ik G^m_ja``
    is read off the entries of ``gamma``, so zero entries cost nothing.
    """
    chart = nabla.chart.base()
    coeffs = {}
    for (p, j, k), g in nabla.gamma.items():
        for i, name in enumerate(chart.names):
            di = g.partial(name)
            _acc(coeffs, (p, i, j, k), di)
            _acc(coeffs, (p, j, i, k), -di)
        for (m, i, q), h in nabla.gamma.items():
            if q == p:
                w = g * h
                _acc(coeffs, (m, i, j, k), w)
                _acc(coeffs, (m, j, i, k), -w)
    return TensorField(chart, 3, 1, coeffs)


# -- flat structures on the base ------------------------------------------------


def check_flat_f(base: BaseFManifold, nabla: Connection, euler=None) -> Report:
    """Check the compatibility conditions between a base product and a connection."""
    chart = base.chart
    if nabla.chart.base() != chart:
        raise ValueError("connection chart does not match the base chart")
    evec = None if euler is None else _euler_to_vec(chart, euler)
    _require("the flat-structure check", base.verify())
    rep = Report("flat structure")
    n = chart.n
    c = base.components

    rep.scan("torsion-free", "T(X, Y) = 0", sorted(torsion(nabla).coeffs.items()))
    rep.scan("flat", "R(X, Y)Z = 0", sorted(curvature(nabla).coeffs.items()))
    unit = {a: f for a, f in enumerate(base.unit) if not f.is_zero()}
    rep.scan("unit-parallel", "nabla ebar = 0", _by_frames(_map_unit_parallel(nabla, unit)))
    rep.scan(
        "star-derivative-symmetric",
        "nabla_X(*)(Y, Z) = nabla_Y(*)(X, Z)",
        _by_frames(_map_star_derivative_symmetric(c, nabla)),
    )

    if euler is None:
        rep.note("no Euler candidate supplied; the second-derivative condition was not checked")
        return rep

    frames = _Frames(c, nabla, evec)
    rep.scan(
        "euler-base",
        "L_Ebar(*) = *",
        _vec_pairs(
            combinations_with_replacement(range(n), 2),
            lambda j, k: _vsub(frames.ctx.lie_at(evec, j, k), frames.ctx.star[j, k]),
        ),
    )
    rep.scan(
        "euler-second-derivative",
        "nabla^2 Ebar = 0",
        _vec_pairs(product(range(n), repeat=2), frames.nabla2_euler),
    )
    return rep


def _by_frames(residuals: dict) -> list:
    """The ``((a, *idx), value)`` pairs of a map, by frame indices ``idx`` and then ``a``."""
    return sorted(residuals.items(), key=lambda pair: (pair[0][1:], pair[0][0]))


def _map_unit_parallel(nabla: Connection, unit: dict) -> dict:
    """``nabla_{d_i} ebar`` at ``(a, i)``: ``d_i ebar^a + G^a_ij ebar^j``."""
    out = {}
    for i, a, d in _partials(nabla.chart, unit.items()):
        _acc(out, (a, i), d)
    for (a, i, j), g in nabla.gamma.items():
        if j in unit:
            _acc(out, (a, i), g * unit[j])
    return out


def _map_star_derivative_symmetric(c: MultComponents, nabla: Connection) -> dict:
    """``F(a, x, y, z) - F(a, y, x, z)`` at ``(a, x, y, z)`` with ``x < y``, where
    ``F(a, x, y, z) = d_x b^a_yz + G^a_xc b^c_yz - G^c_xy b^a_cz - G^c_xz b^a_yc``
    is ``nabla_{d_x}(*)(d_y, d_z)``: the partials of the star entries ``b``,
    and each Christoffel entry ``G`` joined with the star entries by output,
    first and second index."""
    by_out, by_first, by_second = {}, {}, {}
    for (a, y, z), b in c.star.items():
        by_out.setdefault(a, []).append((y, z, b))
        by_first.setdefault(y, []).append((a, z, b))
        by_second.setdefault(z, []).append((a, y, b))
    out = {}

    def add(a, x, y, z, val):
        if x < y:
            _acc(out, (a, x, y, z), val)
        elif y < x:
            _acc(out, (a, y, x, z), -val)

    for x, (a, y, z), d in _partials(c.chart, c.star.items()):  # d_x b^a_yz
        add(a, x, y, z, d)
    for (k, x, m), g in nabla.gamma.items():  # G^k_xm
        for y, z, b in by_out.get(m, ()):  # G^a_xc b^c_yz
            add(k, x, y, z, g * b)
        for a, z, b in by_first.get(k, ()):  # G^c_xy b^a_cz
            add(a, x, m, z, -(g * b))
        for a, y, b in by_second.get(k, ()):  # G^c_xz b^a_yc
            add(a, x, y, m, -(g * b))
    return out


def _euler_to_vec(chart: Chart, euler) -> dict:
    comps = tuple(
        chart.require_base_only(RatFunc.coerce(v), "Euler coefficient")
        for v in euler
    )
    if len(comps) != chart.n:
        raise ValueError(f"Euler candidate needs {chart.n} base components")
    return {a: f for a, f in enumerate(comps) if not f.is_zero()}


# -- the dual package ----------------------------------------------------------


def dualize(c: MultComponents, e: LinearVectorField, nabla: Connection):
    """Component tables of the dual multiplication on the dual chart.

    The side table pairs through the fibers (a transpose), the derivative
    table is the frame evaluation of the five-term dual derivative (first
    derivatives of the side table, the symmetric bracket of the connection,
    and the sign-flipped derivative table), and the base product is carried
    over unchanged.  Works for any connection; whether the result satisfies
    the multiplication axioms is a separate check.  The derivative table

        dual_d[(i, j, k, p)] = d_k l_{jip} + d_p l_{jik} - d_{jikp}
                               - sum_a (G^a_{kp} + G^a_{pk}) l_{jia}

    is summed over table entries only: each partial ``d_k l_{jim}`` lands at
    ``(i, j, k, m)`` and ``(i, j, m, k)``, each ``d_{jikp}`` at ``(i, j, k, p)``,
    and each ``G^a_{kp} l_{jia}`` at ``(i, j, k, p)`` and ``(i, j, p, k)``.
    """
    chart = c.chart
    if nabla.chart.base_names != chart.base_names:
        raise ValueError("connection chart does not match the base coordinates")
    dual_l = {(j, i, k): val for (i, j, k), val in c.l.items()}
    dual_d: dict = {}
    by_last: dict = {}  # a -> [(j, i, l_{jia})]
    for (j, i, m), val in c.l.items():
        by_last.setdefault(m, []).append((j, i, val))
        for k, name in enumerate(chart.base_names):
            dv = val.partial(name)
            _acc(dual_d, (i, j, k, m), dv)
            _acc(dual_d, (i, j, m, k), dv)
    for (j, i, k, p), val in c.d.items():
        _acc(dual_d, (i, j, k, p), -val)
    for (a, k, p), g in nabla.gamma.items():
        for j, i, val in by_last.get(a, ()):
            prod = -(g * val)
            _acc(dual_d, (i, j, k, p), prod)
            _acc(dual_d, (i, j, p, k), prod)
    dual = MultComponents(chart=chart.dual(), d=dual_d, l=dual_l, star=c.star)
    return dual, e.dual()


# -- obstruction vectors for the duality conditions -----------------------------
#
# Each condition says a base vector expression lies in the kernel of the map
# sending a vector field to its side operator, evaluated on coordinate frames:
# as ``[d_a, d_b] = 0``, six of the twelve integrability terms vanish.  Frame
# quantities that recur between index tuples are memoized per check by
# `_Frames`: the covariant ones here, and the frame products ``d_x * d_y``
# and frame Lie derivatives ``L_{d_z}(*)(d_x, d_y)``, which are also the
# brackets ``[d_z, d_x * d_y]``, in the `_Ctx` it holds.  Torsion is
# tensorial, so ``T(ebar, d_x)`` is summed from ``T(d_a, d_x)``.  The
# ``dual-battery`` cross-check reads none of these memos.  `_Frames` serves
# these obstruction scans and the two Euler records of the flat-structure
# check; its other records read the star, unit and Christoffel entries.


class _Frames:
    """The inputs of one check and its frame quantities, each computed on first use."""

    def __init__(self, c: MultComponents, nabla: Connection, evec: dict | None = None):
        self.nabla, fr = nabla, _frame
        sb = partial(symmetric_bracket, nabla)
        ctx = self.ctx = _Ctx(c)  # d_x * d_y and L_{d_z}(*)(d_x, d_y)
        star, lie = ctx.star, ctx.lie
        nab = self.nab = _Memo(lambda x, y: nabla_apply(nabla, fr(x), fr(y)))  # nabla_{d_x} d_y
        sym = _Memo(lambda x, y: _vadd(nab[x, y], nab[y, x]))  # <d_x : d_y>
        self.tor = _Memo(lambda x, y: _vsub(nab[x, y], nab[y, x]))  # T(d_x, d_y)

        def tor_star_at(z, x, y):  # T(d_z, d_x * d_y)
            s = star[x, y]
            out = _vsub(nabla_apply(nabla, fr(z), s), nabla_apply(nabla, s, fr(z)))
            return _vsub(out, lie[z, x, y])

        self.tor_star = _Memo(tor_star_at)

        def nabla_star_at(x, y, z):  # nabla_{d_x}(*)(d_y, d_z)
            out = nabla_apply(nabla, fr(x), star[y, z])
            out = _vsub(out, _on_frames(nab[x, y], lambda a: star[a, z]))
            return _vsub(out, _on_frames(nab[x, z], lambda a: star[y, a]))

        self.nabla_star = _Memo(nabla_star_at)  # nabla_{d_x}(*)(d_y, d_z)
        # the integrability terms <[d_z, d_x * d_y] : d_v>, L_{<d_x : d_y>}(*)(d_z, d_v)
        # and <d_x : L_{d_y}(*)(d_z, d_v)>
        self.sym_bracket = _Memo(lambda z, x, y, v: sb(lie[z, x, y], fr(v)))
        self.lie_sym = _Memo(lambda x, y, z, v: ctx.lie_at(sym[x, y], z, v))
        self.sym_lie = _Memo(lambda x, y, z, v: sb(fr(x), lie[y, z, v]))
        self.nabla_euler = _Memo(lambda j: nabla_apply(nabla, fr(j), evec))  # nabla_{d_j} Ebar

    def nabla2_euler(self, i, j) -> dict:
        """``nabla^2 Ebar`` at ``(d_i, d_j)``; ``nabla_u Ebar`` is linear in ``u``."""
        out = nabla_apply(self.nabla, _frame(i), self.nabla_euler[j])
        for k, g in self.nab[i, j].items():
            out = _vsub(out, _vscale(self.nabla_euler[k], g))
        return out


def _asoc_vec(f: _Frames, x: int, y: int, z: int) -> dict:
    tor, star = f.tor, f.ctx.star
    out = _on_frames(tor[x, y], lambda a: star[a, z])
    out = _vadd(out, _vscale(_on_frames(tor[x, z], lambda a: star[a, y]), _TWO))
    out = _vadd(out, _on_frames(tor[y, z], lambda a: star[a, x]))
    out = _vadd(out, _vsub(f.tor_star[z, x, y], f.tor_star[x, y, z]))
    return _vadd(out, _vscale(_vsub(f.nabla_star[x, y, z], f.nabla_star[z, x, y]), _TWO))


def _unit_vec(f: _Frames, ebar: dict, x: int) -> dict:
    out = _vscale(nabla_apply(f.nabla, _frame(x), ebar), _TWO)
    return _vadd(out, _on_frames(ebar, lambda a: f.tor[a, x]))  # T(ebar, d_x)


def _integr_vec(f: _Frames, x: int, y: int, z: int, v: int) -> dict:
    out = _vadd(f.sym_bracket[z, x, y, v], f.sym_bracket[v, x, y, z])
    out = _vadd(out, _vsub(f.lie_sym[x, y, z, v], f.lie_sym[z, v, x, y]))
    return _vsub(out, _vadd(f.sym_lie[x, y, z, v], f.sym_lie[y, x, z, v]))


def _euler_vec(f: _Frames, x: int, y: int) -> dict:
    return _vadd(f.nabla2_euler(x, y), f.nabla2_euler(y, x))


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
    if nabla.chart.base_names != c.chart.base_names:
        raise ValueError("connection chart does not match the base coordinates")
    _require("the duality check", check_battery(c, e))
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

    frames = _Frames(c, nabla, None if euler is None else euler.base_vec())
    ok = rep.scan(
        "dual-associative",
        "the associativity obstruction lies in the kernel of l",
        kernel_pairs(product(range(n), repeat=3), partial(_asoc_vec, frames)),
    )
    ok &= rep.scan(
        "dual-unit",
        "l(s, 2 nabla_X ebar + T(ebar, X)) = 0",
        kernel_pairs(product(range(n)), partial(_unit_vec, frames, e.base_vec())),
    )
    # the integrability obstruction is symmetric within each frame pair
    # (commutativity holds by precondition), so ordered pairs suffice
    pairs = list(combinations_with_replacement(range(n), 2))
    ok &= rep.scan(
        "dual-integrable",
        "the integrability obstruction lies in the kernel of l",
        kernel_pairs(
            (xy + zv for xy, zv in product(pairs, pairs)), partial(_integr_vec, frames)
        ),
    )
    if euler is not None:
        rep.scan(
            "dual-euler",
            "l(s, symmetrized nabla^2 Ebar) = 0",
            kernel_pairs(pairs, partial(_euler_vec, frames)),
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
    chart = base.chart
    evec = _euler_to_vec(chart, euler)
    _require("the regular connection", base.verify())
    n = chart.n
    names = chart.names
    c = base.components

    powers = [{a: f for a, f in enumerate(base.unit) if not f.is_zero()}]
    for _ in range(1, n):
        powers.append(star_product(c, powers[-1], evec))
    mat = [[powers[i].get(a, _ZERO) for i in range(n)] for a in range(n)]
    try:
        cols = _inverse(mat)
    except SingularMatrixError:
        raise SingularMatrixError(
            "the unit-and-power frame of the Euler candidate is singular; "
            "the structure is not regular"
        ) from None

    star = _Ctx(c).star  # d_a * d_k, the star row
    gamma = {}
    for k in range(n):
        # the powers below the top times d_k, each once
        moved = [_on_frames(pw, lambda a: star[a, k]) for pw in powers[:-1]]
        for j in range(n):
            out = {}
            for i in range(n):
                cij = cols[j][i]
                dk = cij.partial(names[k])
                if not dk.is_zero():
                    for a, w in powers[i].items():
                        _acc(out, a, dk * w)
                if i >= 1 and not cij.is_zero():
                    scale = cij * RatFunc.coerce(i)
                    for a, w in moved[i - 1].items():
                        _acc(out, a, scale * w)
            for a, w in out.items():
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
