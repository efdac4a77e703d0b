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

from .fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    check_battery,
    star_product,
    _Ctx,
    _euler_report,
    _map_euler_base,
    _on_frames,
    _partials,
    _require,
)
from .report import Report
from .symcore import RatFunc, SingularMatrixError, _ONE, _solve, exact_div, poly_gcd
from .tensor import Chart, Connection, TensorField, _acc, _vadd

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
    keys = {(k, i, j) for k, i, j in nabla.gamma if i != j}
    keys |= {(k, j, i) for k, i, j in keys}
    coeffs = {(k, i, j): nabla.at(k, i, j) - nabla.at(k, j, i) for k, i, j in keys}
    return TensorField(chart, 2, 1, coeffs)


def curvature(nabla: Connection) -> TensorField:
    """Curvature tensor; key ``(m, i, j, k)`` is the ``dx_m`` part of ``R(dx_i, dx_j)dx_k``.

    Each term of ``d_i G^m_jk - d_j G^m_ik + G^a_jk G^m_ia - G^a_ik G^m_ja``
    is read off the entries of ``gamma``, so zero entries cost nothing.  The
    terms at ``i == j`` cancel and are skipped, and each entry ``G^p_jk`` is
    joined only with the entries ``G^m_ip`` whose last index is ``p``.
    """
    chart = nabla.chart.base()
    by_last = _grouped((q, (m, i, h)) for (m, i, q), h in nabla.gamma.items())
    coeffs = {}
    for (p, j, k), g in nabla.gamma.items():
        for i, name in enumerate(chart.names):
            if i != j:
                di = g.partial(name)
                _acc(coeffs, (p, i, j, k), di)
                _acc(coeffs, (p, j, i, k), -di)
        for m, i, h in by_last.get(p, ()):
            if i != j:
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

    # L_Ebar(*)(d_j, d_k) - d_j * d_k is the battery's euler-base map
    lie = _map_euler_base(_Ctx(c, euler=LinearVectorField(chart, euler, ())))
    lie = {key: val for key, val in lie.items() if key[1] <= key[2]}
    rep.scan("euler-base", "L_Ebar(*) = *", _by_frames(lie))
    rep.scan("euler-second-derivative", "nabla^2 Ebar = 0", _by_frames(_map_nabla2(nabla, evec)))
    return rep


def _by_frames(residuals: dict) -> list:
    """The ``((a, *idx), value)`` pairs of a map, by frame indices ``idx`` and then ``a``."""
    return sorted(residuals.items(), key=lambda pair: (pair[0][1:], pair[0][0]))


def _map_unit_parallel(nabla: Connection, unit: dict) -> dict:
    """``nabla_{d_i} ebar`` at ``(a, i)``: ``d_i ebar^a + G^a_ij ebar^j``."""
    terms = [((a, i), 1, d) for i, a, d in _partials(nabla.chart, unit.items())]
    terms += [((a, i), 1, g * unit[j]) for (a, i, j), g in nabla.gamma.items() if j in unit]
    return _merged(terms)


def _grouped(pairs) -> dict:
    """``{key: [item, ...]}`` from ``(key, item)`` pairs."""
    out = {}
    for key, item in pairs:
        out.setdefault(key, []).append(item)
    return out


def _star_groups(c: MultComponents) -> tuple:
    """The star entries ``b^a_yz`` by output, first and second index:
    ``{a: [(y, z, b)]}``, ``{y: [(a, z, b)]}`` and ``{z: [(a, y, b)]}``."""
    entries = c.star.items()
    return (
        _grouped((a, (y, z, b)) for (a, y, z), b in entries),
        _grouped((y, (a, z, b)) for (a, y, z), b in entries),
        _grouped((z, (a, y, b)) for (a, y, z), b in entries),
    )


def _star_derivative_terms(c: MultComponents, nabla: Connection, groups: tuple):
    """``((a, x, y, z), sign, term)`` for the terms of ``F(a, x, y, z) = d_x b^a_yz
    + G^a_xc b^c_yz - G^c_xy b^a_cz - G^c_xz b^a_yc``, which is
    ``nabla_{d_x}(*)(d_y, d_z)``: the partials of the star entries ``b``, and
    each Christoffel entry ``G`` joined with the star entries by output, first
    and second index."""
    by_out, by_first, by_second = groups
    for x, (a, y, z), d in _partials(c.chart, c.star.items()):  # d_x b^a_yz
        yield (a, x, y, z), 1, d
    for (k, x, m), g in nabla.gamma.items():  # G^k_xm
        for y, z, b in by_out.get(m, ()):  # G^a_xc b^c_yz
            yield (k, x, y, z), 1, g * b
        for a, z, b in by_first.get(k, ()):  # G^c_xy b^a_cz
            yield (a, x, m, z), -1, g * b
        for a, y, b in by_second.get(k, ()):  # G^c_xz b^a_yc
            yield (a, x, y, m), -1, g * b


def _merged(terms) -> dict:
    """``{key: sum of sign * value}`` over ``(key, sign, value)`` terms, nonzero
    sums only.  Equal values at one key merge into an integer multiple first,
    so a term that cancels or repeats costs no rational arithmetic."""
    by_key = {}
    for key, sign, val in terms:
        vals = by_key.setdefault(key, {})
        vals[val] = vals.get(val, 0) + sign
    out = {}
    for key, vals in by_key.items():
        for val, sign in vals.items():
            if sign:
                _acc(out, key, val if sign == 1 else -val if sign == -1 else val * sign)
    return out


def _map_star_derivative_symmetric(c: MultComponents, nabla: Connection) -> dict:
    """``F(a, x, y, z) - F(a, y, x, z)`` at ``(a, x, y, z)`` with ``x < y``, for
    ``F`` of `_star_derivative_terms`."""
    return _merged(
        ((a, x, y, z), sign, val) if x < y else ((a, y, x, z), -sign, val)
        for (a, x, y, z), sign, val in _star_derivative_terms(c, nabla, _star_groups(c))
        if x != y
    )


def _map_nabla2(nabla: Connection, evec: dict) -> dict:
    """``nabla^2 Ebar`` at ``(k, i, j)``: ``d_i V^k_j + G^k_ia V^a_j - G^a_ij V^k_a``,
    for the entries ``V^k_j`` of ``nabla_{d_j} Ebar`` (`_map_unit_parallel`)."""
    first = _map_unit_parallel(nabla, evec)
    by_out = _grouped((k, (j, v)) for (k, j), v in first.items())
    by_frame = _grouped((j, (k, v)) for (k, j), v in first.items())
    terms = [((k, i, j), 1, d) for i, (k, j), d in _partials(nabla.chart, first.items())]
    for (k, i, a), g in nabla.gamma.items():  # G^k_ia
        terms += [((k, i, j), 1, g * v) for j, v in by_out.get(a, ())]  # G^k_ia V^a_j
        terms += [((m, i, a), -1, g * v) for m, v in by_frame.get(k, ())]  # G^k_ia V^m_k
    return _merged(terms)


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


# -- obstruction maps for the duality conditions --------------------------------
#
# Each condition says a base vector expression ``w`` lies in the kernel of
# ``X -> l_X`` on coordinate frames.  ``w`` is one ``{(m, *idx): w^m}`` map,
# summed from the star, Christoffel, unit and Euler entries and the partials
# they keep, and its kernel image is one join with the ``l`` entries.  The
# ``dual-battery`` cross-check calls none of these maps.


def _kernel_image(c: MultComponents, w: dict) -> list:
    """``((i, j, *idx), l(s_j, w)^i)`` for the obstruction ``w`` at ``(m, *idx)``,
    in scan order: by ``idx``, then ``j``, then ``i``."""
    by_last = _grouped((m, (i, j, a)) for (i, j, m), a in c.l.items())
    image = _merged(
        ((i, j, *idx), 1, wm * a) for (m, *idx), wm in w.items() for i, j, a in by_last.get(m, ())
    )
    return sorted(image.items(), key=lambda pair: (pair[0][2:], pair[0][1], pair[0][0]))


def _map_dual_associative(c: MultComponents, nabla: Connection) -> dict:
    """The associativity obstruction at ``(k, x, y, z)``: with ``t`` the torsion,
    ``t^a_xy b^k_az + 2 t^a_xz b^k_ay + t^a_yz b^k_ax + b^j_xy t^k_zj
    - b^j_yz t^k_xj + 2 F(k, x, y, z) - 2 F(k, z, x, y)``, for ``F`` of
    `_star_derivative_terms`: each torsion entry joined with the star entries
    by first and by output index, and ``F`` summed before it is placed twice."""
    by_out, by_first, _ = groups = _star_groups(c)
    terms = []
    for (k, p, q), t in torsion(nabla).coeffs.items():  # t^k_pq
        for m, r, b in by_first.get(k, ()):  # t^k_pq b^m_kr
            tb = t * b
            terms += [((m, p, q, r), 1, tb), ((m, p, r, q), 2, tb), ((m, r, p, q), 1, tb)]
        for x, y, b in by_out.get(q, ()):  # b^q_xy t^k_pq
            tb = t * b
            terms += [((k, x, y, p), 1, tb), ((k, p, x, y), -1, tb)]
    for (a, x, y, z), f in _merged(_star_derivative_terms(c, nabla, groups)).items():
        terms += [((a, x, y, z), 2, f), ((a, y, z, x), -2, f)]
    return _merged(terms)


def _map_dual_unit(nabla: Connection, ebar: dict) -> dict:
    """``2 nabla_{d_x} ebar + T(ebar, d_x)`` at ``(k, x)``: twice the entries of
    `_map_unit_parallel`, and each torsion entry ``t^k_jx`` times ``ebar^j``."""
    terms = [(key, 2, val) for key, val in _map_unit_parallel(nabla, ebar).items()]
    tor = torsion(nabla).coeffs.items()
    terms += [((k, x), 1, t * ebar[j]) for (k, j, x), t in tor if j in ebar]
    return _merged(terms)


def _map_dual_integrable(c: MultComponents, nabla: Connection) -> dict:
    """The integrability obstruction at ``(m, x, y, z, v)``, ``x <= y``, ``z <= v``:
    the six of its twelve terms with no bracket of two frames, which are
    ``H(x, y, z, v) - H(z, v, x, y)`` with ``S^m_pq = G^m_pq + G^m_qp`` and

        H^m(x, y, z, v) = 2 d_z d_v b^m_xy + d_z b^j_xy S^m_jv + d_v b^j_xy S^m_jz
                          - S^c_zv d_c b^m_xy + b^c_xy d_c S^m_zv
                          - d_x S^a_zv b^m_ay - d_y S^a_zv b^m_xa.

    ``S`` is taken term by term, each Christoffel entry in both orders, so
    each partial of ``S`` is one that an entry keeps."""
    by_out, by_first, by_second = _star_groups(c)
    sym = list(nabla.gamma.items())
    sym += [((k, j, i), g) for (k, i, j), g in sym]
    sym_by_first = _grouped((j, (m, q, s)) for (m, j, q), s in sym)
    dstar = list(_partials(c.chart, c.star.items()))
    dstar_by_dir = _grouped((p, (m, x, y, d)) for p, (m, x, y), d in dstar)
    terms = []
    for p, (j, x, y), d in dstar:  # d_p b^j_xy, placed at (z, v) = (p, q) and (q, p)
        vals = [(j, q, dd) for q, _, dd in _partials(c.chart, ((j, d),))]
        vals += [(m, q, d * s) for m, q, s in sym_by_first.get(j, ())]
        for m, q, val in vals:
            terms += [((m, x, y, p, q), 1, val), ((m, x, y, q, p), 1, val)]
    for (a, z, v), s in sym:  # S^a_zv
        terms += [((m, x, y, z, v), -1, s * d) for m, x, y, d in dstar_by_dir.get(a, ())]
    for e, (a, z, v), d in _partials(c.chart, sym):  # d_e S^a_zv
        terms += [((a, x, y, z, v), 1, b * d) for x, y, b in by_out.get(e, ())]
        terms += [((m, e, y, z, v), -1, d * b) for m, y, b in by_first.get(a, ())]
        terms += [((m, x, e, z, v), -1, d * b) for m, x, b in by_second.get(a, ())]
    half = _merged(
        t for t in terms if t[0][1] <= t[0][2] and t[0][3] <= t[0][4] and t[0][1:3] != t[0][3:]
    )
    swapped = [((m, z, v, x, y), -1, h) for (m, x, y, z, v), h in half.items()]
    return _merged([(key, 1, h) for key, h in half.items()] + swapped)


def _map_dual_euler(nabla: Connection, evec: dict) -> dict:
    """``nabla^2 Ebar (d_x, d_y) + nabla^2 Ebar (d_y, d_x)`` at ``(k, x, y)``, ``x <= y``."""
    return _merged(
        ((k, min(x, y), max(x, y)), 1 if x != y else 2, val)
        for (k, x, y), val in _map_nabla2(nabla, evec).items()
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
    if nabla.chart.base_names != c.chart.base_names:
        raise ValueError("connection chart does not match the base coordinates")
    _require("the duality check", check_battery(c, e))
    rep = Report("duality conditions")
    ok = rep.scan(
        "dual-associative",
        "the associativity obstruction lies in the kernel of l",
        _kernel_image(c, _map_dual_associative(c, nabla)),
    )
    ok &= rep.scan(
        "dual-unit",
        "l(s, 2 nabla_X ebar + T(ebar, X)) = 0",
        _kernel_image(c, _map_dual_unit(nabla, e.base_vec())),
    )
    # the integrability obstruction is symmetric within each frame pair
    # (commutativity holds by precondition), so ordered pairs suffice
    ok &= rep.scan(
        "dual-integrable",
        "the integrability obstruction lies in the kernel of l",
        _kernel_image(c, _map_dual_integrable(c, nabla)),
    )
    if euler is not None:
        rep.scan(
            "dual-euler",
            "l(s, symmetrized nabla^2 Ebar) = 0",
            _kernel_image(c, _map_dual_euler(nabla, euler.base_vec())),
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
    imposes that the covariant derivative of the i-th power ``P_i`` along
    ``X`` is ``i`` times the (i-1)-th power multiplied by ``X``.  With ``C``
    the inverse of the frame's coefficient matrix ``M``, ``d_j = sum_i C_ji P_i``
    has no partial, so ``nabla_{d_k} d_j = sum_i C_ji Q_ki`` with
    ``Q_ki = i P_{i-1} * d_k - d_k P_i``: the Christoffel entries ``G^a_kj``
    solve ``M^T x = (Q_ki^a)_i``, one elimination with a right-hand side for
    each nonzero ``(k, a)``, each side cleared of its denominators (`_cleared`).
    Invertibility of ``M`` is exactly the regularity of the input.
    """
    chart = base.chart
    evec = _euler_to_vec(chart, euler)
    _require("the regular connection", base.verify())
    n = chart.n
    c = base.components

    powers = [{a: f for a, f in enumerate(base.unit) if not f.is_zero()}]
    for _ in range(1, n):
        powers.append(star_product(c, powers[-1], evec))
    star = _Ctx(c).star  # d_a * d_k, the star row
    q = {}  # Q_ki^a at (k, a, i)
    for i in range(1, n):
        for k in range(n):
            for a, w in _on_frames(powers[i - 1], lambda b: star[b, k]).items():
                _acc(q, (k, a, i), w * i)
    entries = (((a, i), f) for i, pw in enumerate(powers) for a, f in pw.items())
    for k, (a, i), d in _partials(chart, entries):
        _acc(q, (k, a, i), -d)
    cols = sorted({(k, a) for k, a, _ in q})
    rhs = [_cleared([q.get((k, a, i), _ZERO) for i in range(n)]) for k, a in cols]
    mat = [[powers[i].get(a, _ZERO) for a in range(n)] for i in range(n)]
    try:
        sols = _solve(mat, [col for _, col in rhs])
    except SingularMatrixError:
        raise SingularMatrixError(
            "the unit-and-power frame of the Euler candidate is singular; "
            "the structure is not regular"
        ) from None
    gamma = {
        (a, k, j): x * unscale
        for (k, a), (unscale, _), sol in zip(cols, rhs, sols)
        for j, x in enumerate(sol)
    }
    return Connection(chart, gamma)


def _cleared(col: list) -> tuple:
    """``(1/L, L col)`` for ``L`` the lcm of the denominators of ``col``, so that
    the elimination scales each row by the denominators of its matrix entries only."""
    lcm = _ONE
    for v in col:
        if v.den.vars:
            lcm = exact_div(lcm * v.den, poly_gcd(lcm, v.den))
    scale = RatFunc(lcm)
    return 1 / scale, [v * scale for v in col]


def regular_flat_check(base: BaseFManifold, euler):
    """Compute the regular connection and run the flat-structure check on it."""
    nabla = regular_connection(base, euler)
    rep = check_flat_f(base, nabla, euler)
    rep.note(
        "computed over rational-function coefficients; the construction is "
        "usually stated for holomorphic data"
    )
    return nabla, rep
