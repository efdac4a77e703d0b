"""Compatibility of a double-fiber multiplication with the exact Courant structure.

The double bundle has sections ``X + xi``, the anchor ``X + xi -> X``, the
pairing ``<X + xi, Y + eta> = (xi(Y) + eta(X))/2`` and the Dorfman bracket
``[X + xi, Y + eta]_H = L_X(Y + eta) - i_Y dxi + i_X i_Y H`` twisted by a
closed three-form, whose ``i_X i_Y H`` is ``H(Y, X, .)``.  The checks single
out the multiplications of B-field type, shears ``X + xi -> X + xi + i_X
gamma`` of the double prolongation by a two-form ``gamma``: the classifier
recovers ``gamma`` and decides bracket compatibility, a first-order condition
tying the covariant derivative of ``gamma`` to the twist.  Each law is checked
on coordinate frames, where it reads the tables: a record is one ``{witness:
nonzero residual}`` map summed from the table entries and the partials they
keep, scanned in witness order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from .duality import check_flat_f, dualize, symmetric_bracket
from .fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    PreconditionError,
    _frame,
    _partials,
    _require,
    _table_diffs,
    check_battery,
)
from .prolong import _double_prolongation
from .report import Report
from .symcore import RatFunc
from .tensor import Chart, Connection, ThreeForm, TwoForm, _grouped, _merged

__all__ = [
    "TwoForm",
    "ThreeForm",
    "check_anchor_compat",
    "check_scalar_compat",
    "check_dorfman_compat",
    "bfield_transform",
    "classify_exact_courant",
]

_ZERO = RatFunc.zero()
_HALF = RatFunc.coerce(Fraction(1, 2))
_THIRD = RatFunc.coerce(Fraction(1, 3))

_LAWS = {  # the law of each record scanned from a residual map
    "anchor-side": "pi(l_X s) = X * pi(s)",
    "anchor-derivative": "pi(D_{X,Y} s) = L_{pi(s)}(*)(X, Y)",
    "pairing-side": "<l_X s, t> = <l_X t, s>",
    "pairing-derivative": "<D_{X,Y} s, t> + <s, D_{X,Y} t> = X<s, l_Y t> + Y<s, l_X t>"
    " - <s, l_<X:Y> t> - (X*Y)<s, t>",
    "pairing-unit": "ebar<s, t> = <Delta_e s, t> + <s, Delta_e t>",
    "dorfman-side": "l_Z[s, t] = [s, l_Z t] - D_{Z,pi(t)} s - 2<D_{Z,.} s, t> "
    "+ 2 nabla_Z S(s, t)",
    "dorfman-derivative": "D_{Z,V}[s, t] = [s, D_{Z,V} t] - [t, D_{Z,V} s] "
    "- 2 nabla^sym<D s, t>(Z, V) + 4 d<D_{Z,V} s, t> + 2 nabla_Z nabla_V S(s, t)",
    "bfield-gradient": "nabla gamma = (1/3) d gamma for the recovered two-form",
    "twist-match": "the twist equals (1/3) d gamma for the recovered two-form",
    "parallel-bfield": "the recovered two-form is parallel",
    "parallel-product": "the pairing gamma(X*Y, Z) of the base product is parallel",
}


def _scan(rep: Report, name: str, residuals: dict) -> bool:
    return rep.scan(name, _LAWS[name], sorted(residuals.items()))


def _double_rank(chart: Chart) -> int:
    n = chart.n
    if chart.k != 2 * n:
        raise ValueError(
            f"expected a double fiber of rank {2 * n} over {n} base coordinates, "
            f"got rank {chart.k}"
        )
    return n


def _partner(n: int, i: int) -> int:
    """The index paired with ``i``: the block swap ``i -> i +- n``."""
    return i + n if i < n else i - n


def _check_candidate(
    c: MultComponents, e: LinearVectorField, form=None, what="twist three-form"
) -> int:
    """The base dimension ``n`` of ``(c, e)``, once checked in order: rank ``2n``,
    ``e`` on the chart of ``c``, and ``form`` (named ``what``) on its base."""
    n = _double_rank(c.chart)
    if e.chart != c.chart:
        raise ValueError("unit candidate and components live on different charts")
    if form is not None and form.chart.base_names != c.chart.base_names:
        raise ValueError(f"{what} lives on different base coordinates")
    return n


def _lam_table(e: LinearVectorField) -> dict:
    """The fiber matrix of ``e`` as a table ``(i, j) -> lam[i][j]``."""
    return {(i, j): v for i, row in enumerate(e.lam) for j, v in enumerate(row)}


# -- the anchor and pairing laws on frames ------------------------------------------
#
# ``d_b`` is a vector frame for ``b < n``, else a form frame; ``l_{d_m} d_b`` and
# ``D_{d_m,d_p} d_b`` have the entries ``a^i_bm`` and ``a^i_{b,mp}``, and
# ``<s, d_c> = s^{c'}/2`` with ``c' = c +- n`` the partner of ``c``.


def _map_anchor_side(c: MultComponents) -> dict:
    """``pi(l_{d_m} d_b) - d_m * pi(d_b)`` at ``(m, b, i)``: each ``a^i_bm`` with
    ``i < n``, less each star entry ``b^i_mb``."""
    terms = [((m, b, i), 1, v) for (i, b, m), v in c.l.items() if i < c.n]
    terms += [((m, b, a), -1, v) for (a, m, b), v in c.star.items()]
    return _merged(terms)


def _map_anchor_derivative(c: MultComponents) -> dict:
    """``pi(D_{d_m,d_p} d_b) - L_{d_b}(*)(d_m, d_p)`` at ``(m, p, b, i)``: each
    ``a^i_{b,mp}`` with ``i < n``, less each partial ``d_b b^i_mp``."""
    terms = [((m, p, b, i), 1, v) for (i, b, m, p), v in c.d.items() if i < c.n]
    terms += [((m, p, b, a), -1, d) for b, (a, m, p), d in _partials(c.chart, c.star.items())]
    return _merged(terms)


def _map_pairing_side(c: MultComponents, n: int) -> dict:
    """``<l_{d_m} d_b, d_c> - <l_{d_m} d_c, d_b> = (a^{c'}_bm - a^{b'}_cm)/2`` at
    ``(m, b, c, 0)``: each ``a^i_jm`` at ``(m, j, i')``, negated at ``(m, i', j)``."""
    terms = []
    for (i, j, m), v in c.l.items():
        s = _partner(n, i)
        terms += [((m, j, s, 0), 1, v), ((m, s, j, 0), -1, v)]
    return {key: _HALF * v for key, v in _merged(terms).items()}


def _map_pairing_derivative(c: MultComponents, n: int, nabla: Connection) -> dict:
    """``<D d_b, d_c> + <d_b, D d_c> - d_m<d_b, l_p d_c> - d_p<d_b, l_m d_c> + <d_b,
    l_{<d_m:d_p>} d_c>``, ``D = D_{d_m,d_p}``, at ``(m, p, b, c, 0)``: half of
    ``a^{c'}_{b,mp} + a^{b'}_{c,mp} - d_m a^{b'}_cp - d_p a^{b'}_cm + sum_q G^q_mp
    a^{b'}_cq``, one symmetric bracket ``G_mp = <d_m : d_p>`` per ``(m, p)``."""
    terms = []
    for (i, j, m, p), v in c.d.items():
        s = _partner(n, i)
        terms += [((m, p, j, s, 0), 1, v), ((m, p, s, j, 0), 1, v)]
    for e, (i, j, k), d in _partials(c.chart, c.l.items()):
        s = _partner(n, i)
        terms += [((e, k, s, j, 0), -1, d), ((k, e, s, j, 0), -1, d)]
    by_last = _grouped((q, (i, j, v)) for (i, j, q), v in c.l.items())
    for m, p in product(range(n), repeat=2):
        for q, g in symmetric_bracket(nabla, _frame(m), _frame(p)).items():
            terms += [((m, p, _partner(n, i), j, 0), 1, g * v) for i, j, v in by_last.get(q, ())]
    return {key: _HALF * v for key, v in _merged(terms).items()}


def _map_pairing_unit(e: LinearVectorField, n: int) -> dict:
    """``ebar<d_b, d_c> - <Delta_e d_b, d_c> - <d_b, Delta_e d_c> = (lam[c'][b] +
    lam[b'][c])/2`` at ``(b, c, 0)``: each ``lam[i][j]`` at ``(j, i')`` and ``(i', j)``."""
    terms = []
    for (i, j), v in _lam_table(e).items():
        if not v.is_zero():
            s = _partner(n, i)
            terms += [((j, s, 0), 1, v), ((s, j, 0), 1, v)]
    return {key: _HALF * v for key, v in _merged(terms).items()}


def check_anchor_compat(c: MultComponents) -> Report:
    """Check that side and derivative operators project to the base product."""
    _double_rank(c.chart)
    rep = Report("anchor compatibility")
    _scan(rep, "anchor-side", _map_anchor_side(c))
    _scan(rep, "anchor-derivative", _map_anchor_derivative(c))
    return rep


def check_scalar_compat(
    c: MultComponents, e: LinearVectorField, nabla: Connection
) -> Report:
    """Compare the pairing conjugate of ``(c, e)`` with its connection dual.

    The structural route relabels the candidate's tables by the block swap
    ``i -> i +- n`` and compares them with ``dualize``: the pairing matrix is
    half that swap, and conjugation by a constant matrix ignores the scale.
    The frame route checks the equivalent section identities on frames.  A
    final record asserts that the two routes reach the same verdict.
    """
    n = _check_candidate(c, e)
    base = BaseFManifold(chart=c.chart.base(), star=c.star, unit=e.beta)
    _require("the scalar compatibility check", check_flat_f(base, nabla))
    return _scalar_compat(c, e, nabla, n)


def _scalar_compat(c: MultComponents, e: LinearVectorField, nabla: Connection, n: int):
    """`check_scalar_compat` once its flat structure is known to pass."""
    rep = Report("scalar compatibility")

    def swapped(table):
        return {(_partner(n, i), _partner(n, j), *rest): v for (i, j, *rest), v in table.items()}

    frames_ok = _scan(rep, "pairing-side", _map_pairing_side(c, n))
    frames_ok &= _scan(rep, "pairing-derivative", _map_pairing_derivative(c, n, nabla))
    frames_ok &= _scan(rep, "pairing-unit", _map_pairing_unit(e, n))

    dual_c, dual_e = dualize(c, e, nabla)
    struct_ok = rep.scan(
        "pairing-duality",
        "the pairing conjugate of the candidate equals its connection dual",
        _table_diffs(
            [
                ("l", swapped(c.l), dual_c.l),
                ("d", swapped(c.d), dual_c.d),
                ("lam", swapped(_lam_table(e)), _lam_table(dual_e)),
            ]
        ),
    )
    rep.add(
        "route-agreement",
        "the frame identities and the structural comparison give the same verdict",
        frames_ok == struct_ok,
        (int(frames_ok), int(struct_ok)),
    )
    return rep


# -- the Dorfman laws on frames ------------------------------------------------------
#
# With the connection vanishing in the chart, ``[d_b, d_c]_H = sum_q H(c, b, q)
# d_{n+q}`` for ``b, c < n``, else 0; ``[d_b, Y]_H`` is ``d_b Y`` plus ``sum_a Y^a
# H(a, b, q)`` in slot ``n + q`` for ``b < n``; a form frame brackets to 0.  Then
# ``2<D_{d_x,d_y} d_b, d_c> = a^{c'}_{b,xy}`` and ``S(d_b, d_c)(d_q) = b^{b-n}_cq``
# (star entries ``b``) for ``b >= n > c``, else 0; ``r`` is the output index.


def _twist_entries(h: ThreeForm | None) -> list:
    """``((a, b, q), H(a, b, q))`` for every order of every nonzero entry of ``h``."""
    keys = h.table if h is not None else ()
    return [(idx, h.at(*idx)) for key in keys for idx in permutations(key)]


def _map_dorfman_side(c: MultComponents, n: int, twist: list) -> dict:
    """``l_{d_m}[d_b, d_c] - [d_b, l_{d_m} d_c] + D_{d_m,pi(d_c)} d_b + 2<D_{d_m,.} d_b,
    d_c> - 2 d_m S(d_b, d_c)`` at ``(m, b, c, r)``, summed from::

        + a^r_{n+q,m} H(c, b, q)      - d_b a^r_cm       + a^r_{b,mc}
        - a^a_cm H(a, b, q) at n+q    + a^{c'}_{b,mq} at n+q
        - 2 d_m b^{b-n}_cq at n+q
    """
    l_by_second = _grouped((j, (i, m, v)) for (i, j, m), v in c.l.items())
    twist_by_first = _grouped((a, (b, q, h)) for (a, b, q), h in twist)
    terms = []
    for (cc, b, q), h in twist:
        terms += [((m, b, cc, r), 1, v * h) for r, m, v in l_by_second.get(n + q, ())]
    for e, (r, j, m), d in _partials(c.chart, c.l.items()):
        terms.append(((m, e, j, r), -1, d))
    for (a, j, m), v in c.l.items():
        terms += [((m, b, j, n + q), -1, v * h) for b, q, h in twist_by_first.get(a, ())]
    for (r, j, m, p), v in c.d.items():
        terms += [((m, j, p, r), 1, v), ((m, j, _partner(n, r), n + p), 1, v)]
    for e, (a, y, z), d in _partials(c.chart, c.star.items()):
        terms.append(((e, n + a, y, n + z), -2, d))
    return _merged(terms)


def _map_dorfman_derivative(c: MultComponents, n: int, twist: list) -> dict:
    """``D[d_b, d_c] - [d_b, D d_c] + [d_c, D d_b] + 2 nabla^sym<D d_b, d_c>(d_m,
    d_p) - 4 d<D d_b, d_c> - 2 d_m d_p S(d_b, d_c)`` with ``D = D_{d_m,d_p}``, at
    ``(m, p, b, c, r)``, summed from::

        + a^r_{n+q,mp} H(c, b, q)     + a^r_{n+q,p} d_m H(c, b, q)
        + a^r_{n+q,m} d_p H(c, b, q)  - b^a_mp d_a H(c, b, q) at n+q
        - d_b a^r_{c,mp}              + d_c a^r_{b,mp}
        - a^a_{c,mp} H(a, b, q) at n+q    + a^a_{b,mp} H(a, c, q) at n+q
        + d_m a^{c'}_{b,pq} at n+q    + d_p a^{c'}_{b,mq} at n+q
        - d_q a^{c'}_{b,mp} at n+q    - 2 d_m d_p b^{b-n}_cq at n+q

    The ``d_q`` term merges ``-2 d_q t_mp + 4 d_q t_mp``, ``t = <D d_b, d_c>``.
    """
    l_by_second = _grouped((j, (i, m, v)) for (i, j, m), v in c.l.items())
    d_by_second = _grouped((j, (i, m, p, v)) for (i, j, m, p), v in c.d.items())
    star_by_out = _grouped((a, (m, p, v)) for (a, m, p), v in c.star.items())
    twist_by_first = _grouped((a, (b, q, h)) for (a, b, q), h in twist)
    terms = []
    for (cc, b, q), h in twist:
        terms += [((m, p, b, cc, r), 1, v * h) for r, m, p, v in d_by_second.get(n + q, ())]
    for e, (cc, b, q), dh in _partials(c.chart, twist):
        for r, k, v in l_by_second.get(n + q, ()):
            terms += [((e, k, b, cc, r), 1, v * dh), ((k, e, b, cc, r), 1, v * dh)]
        terms += [((m, p, b, cc, n + q), -1, v * dh) for m, p, v in star_by_out.get(e, ())]
    for (a, j, m, p), v in c.d.items():
        for b, q, h in twist_by_first.get(a, ()):
            vh = v * h
            terms += [((m, p, b, j, n + q), -1, vh), ((m, p, j, b, n + q), 1, vh)]
    for e, (r, j, k, p), d in _partials(c.chart, c.d.items()):
        s = _partner(n, r)
        terms += [((k, p, e, j, r), -1, d), ((k, p, j, e, r), 1, d)]
        terms += [((e, k, j, s, n + p), 1, d), ((k, e, j, s, n + p), 1, d)]
        terms.append(((k, p, j, s, n + e), -1, d))
    for e, (a, y, z), d in _partials(c.chart, c.star.items()):
        for f, _, dd in _partials(c.chart, ((None, d),)):
            terms.append(((e, f, n + a, y, n + z), -2, dd))
    return _merged(terms)


def _require_trivial_connection(what: str, nabla: Connection):
    if nabla.gamma:
        key = min(nabla.gamma)
        raise PreconditionError(
            f"{what} needs the connection coefficients to vanish in this chart; "
            f"gamma{key} = {nabla.gamma[key]}"
        )


def _require_closed(h: ThreeForm | None):
    if h is not None and not h.is_closed():
        raise PreconditionError("the twist three-form is not closed")


def check_dorfman_compat(
    c: MultComponents,
    e: LinearVectorField,
    nabla: Connection,
    h: ThreeForm | None = None,
) -> Report:
    """Check both derivative laws of the candidate against the twisted bracket,
    on coordinate frames, which are parallel: the connection must vanish."""
    n = _check_candidate(c, e, h)
    _require_trivial_connection("the bracket compatibility check", nabla)
    _require_closed(h)
    rep = Report("dorfman compatibility")
    rep.note(
        "the twisted bracket replaces the untwisted one verbatim in both "
        "derivative laws"
    )
    twist = _twist_entries(h)
    _scan(rep, "dorfman-side", _map_dorfman_side(c, n, twist))
    _scan(rep, "dorfman-derivative", _map_dorfman_derivative(c, n, twist))
    return rep


# -- B-field transformations -------------------------------------------------------


def _sheared(table: dict, into: dict, out_of: dict) -> list:
    """The terms of ``M T M^-1 = T + N T - T N - N T N`` for a table ``T`` keyed
    ``(i, j, *rest)``: ``into[i]`` lists each ``(r, N[r][i])`` and ``out_of[j]``
    each ``(s, N[j][s])``."""
    terms = []
    for (i, j, *rest), v in table.items():
        left, right = into.get(i, ()), out_of.get(j, ())
        terms.append(((i, j, *rest), 1, v))
        terms += [((r, j, *rest), 1, w * v) for r, w in left]
        terms += [((i, s, *rest), -1, v * u) for s, u in right]
        terms += [((r, s, *rest), -1, w * v * u) for r, w in left for s, u in right]
    return terms


def bfield_transform(
    c: MultComponents, e: LinearVectorField, gamma: TwoForm
) -> tuple[MultComponents, LinearVectorField]:
    """Conjugate ``(c, e)`` by the shear ``X + xi -> X + xi + i_X gamma``.

    The shear is ``M = I + N`` with ``N[n+a][b] = gamma(b, a)``; ``N`` maps the
    vector block into the form block, so ``N N = N d_e N = 0`` and ``M^-1 = I -
    N`` is the shear by ``-gamma``.  Each table ``T`` of ``l`` and ``d`` becomes
    ``M T M^-1`` (`_sheared`), and ``lam`` becomes ``M lam M^-1 + ebar(N)``; with
    ``l_p`` the side table along ``dx^p``, the tables gain::

        d_kp:  - l_p d_k N - N l_p d_k N    - l_k d_p N - N l_k d_p N
               + sum_a b^a_kp d_a N
        lam:   + sum_q beta^q d_q N
    """
    n = _check_candidate(c, e, gamma, "two-form")
    shear = {}
    for (i, j), v in gamma.table.items():
        shear[n + j, i], shear[n + i, j] = v, -v
    into = _grouped((i, (r, v)) for (r, i), v in shear.items())
    out_of = _grouped((j, (s, v)) for (j, s), v in shear.items())
    grads = list(_partials(c.chart, shear.items()))  # (k, (r, s), d_k N[r][s])
    grads_by_row = _grouped((r, (k, s, g)) for k, (r, s), g in grads)
    star_by_out = _grouped((a, (k, p, b)) for (a, k, p), b in c.star.items())
    d_terms = _sheared(c.d, into, out_of)
    for (i, m, p), v in c.l.items():
        for k, s, g in grads_by_row.get(m, ()):
            vg = v * g
            d_terms += [((i, s, k, p), -1, vg), ((i, s, p, k), -1, vg)]
            for r, w in into.get(i, ()):
                d_terms += [((r, s, k, p), -1, w * vg), ((r, s, p, k), -1, w * vg)]
    for a, (r, s), g in grads:
        d_terms += [((r, s, k, p), 1, b * g) for k, p, b in star_by_out.get(a, ())]
    lam = {key: v for key, v in _lam_table(e).items() if not v.is_zero()}
    lam_terms = _sheared(lam, into, out_of)
    lam_terms += [((r, s), 1, e.beta[q] * g) for q, (r, s), g in grads]
    lam = _merged(lam_terms)
    rows = tuple(tuple(lam.get((i, j), _ZERO) for j in range(2 * n)) for i in range(2 * n))
    l = _merged(_sheared(c.l, into, out_of))
    return (
        MultComponents(chart=c.chart, d=_merged(d_terms), l=l, star=c.star),
        LinearVectorField(e.chart, e.beta, rows),
    )


# -- classification: the derivative predicate shares no code with the Dorfman laws --


def _recover(c: MultComponents, e: LinearVectorField, ref: MultComponents) -> TwoForm:
    """Read the shear two-form off the unit slot of the side difference.

    For a shear of the double prolongation ``ref`` the skew part of the side
    difference, contracted with the unit, returns the two-form exactly; for
    anything else the result is merely the best candidate, and the
    ``bfield-recovery`` record flags the mismatch.  With ``D = c.l - ref.l``
    that is ``gamma(m, p) = 1/2 sum_q beta^q (D^{n+q}_{pm} - D^{n+q}_{mp})`` at
    ``m < p``: the side entries with an output index in the form block, an
    input index in the vector block and a nonzero unit entry ``beta^q``.
    """
    n, beta = c.chart.n, e.beta
    terms = []
    for sign, table in ((1, c.l), (-1, ref.l)):
        for (i, j, k), v in table.items():
            if i >= n and j < n and j != k and not beta[i - n].is_zero():
                key, skew = ((k, j), sign) if k < j else ((j, k), -sign)
                terms.append((key, skew, beta[i - n] * v))
    table = {key: _HALF * v for key, v in _merged(terms).items()}
    return TwoForm(c.chart.base(), table)


def _nabla_two_form(gamma: TwoForm) -> dict:
    """``nabla gamma`` at ``(r, i, j)`` under the vanishing connection: ``d_r gamma_ij``."""
    out = {}
    for r, (i, j), d in _partials(gamma.chart, gamma.table.items()):
        out[r, i, j], out[r, j, i] = d, -d
    return out


def _map_bfield_gradient(nab: dict, dg: ThreeForm) -> dict:
    """``nabla gamma - (1/3) d gamma`` at ``(r, i, j)``, ``dg`` in all index orders."""
    terms = [(key, 1, v) for key, v in nab.items()]
    terms += [(idx, -1, _THIRD * dg.at(*idx)) for key in dg.table for idx in permutations(key)]
    return _merged(terms)


def _map_twist_match(h: ThreeForm | None, dg: ThreeForm) -> dict:
    """``H - (1/3) d gamma`` at each increasing triple."""
    terms = [(key, -1, _THIRD * v) for key, v in dg.table.items()]
    terms += [(key, 1, v) for key, v in (h.table.items() if h is not None else ())]
    return _merged(terms)


def _map_parallel_product(c: MultComponents, gamma: TwoForm) -> dict:
    """``d_r gamma(d_m * d_p, d_q)`` at ``(r, m, p, q)``: the partials of the sums
    of each star entry ``b^a_mp`` times each ``gamma(a, q)``."""
    by_first = _grouped(
        pair for (i, j), v in gamma.table.items() for pair in ((i, (j, 1, v)), (j, (i, -1, v)))
    )
    sums = _merged(
        ((m, p, q), s, b * v) for (a, m, p), b in c.star.items() for q, s, v in by_first.get(a, ())
    )
    return {(r, *key): d for r, key, d in _partials(gamma.chart, sums.items())}


def classify_exact_courant(
    c: MultComponents,
    e: LinearVectorField,
    nabla: Connection,
    h: ThreeForm | None = None,
) -> Report:
    """Decide whether ``(c, e)`` is bracket-compatible, and say why.

    After the anchor and pairing checks pass, the candidate is a shear of the
    double prolongation by a recovered two-form ``gamma``; compatibility with
    the twisted bracket is then equivalent to the derivative predicate
    ``nabla gamma = (1/3) d gamma`` together with ``H = (1/3) d gamma``, and
    the report records both sides of that equivalence.
    """
    n = _check_candidate(c, e, h)
    base = BaseFManifold(chart=c.chart.base(), star=c.star, unit=e.beta)
    _require("the exact Courant classification", check_battery(c, e))
    _require("the exact Courant classification", check_flat_f(base, nabla))
    _require_trivial_connection("the exact Courant classification", nabla)
    _require_closed(h)
    rep = Report("exact courant classification")
    anchor_ok = rep.summarize(
        "anchor-compatibility",
        "side and derivative operators project to the base product action",
        check_anchor_compat(c),
    )
    scalar_ok = rep.summarize(
        "scalar-compatibility",
        "the pairing conjugate of the candidate is its connection dual",
        _scalar_compat(c, e, nabla, n),
    )
    if not (anchor_ok and scalar_ok):
        rep.note(
            "classification aborted: the candidate is not a shear of the "
            "double prolongation"
        )
        return rep
    prol = _double_prolongation(base, nabla)
    gamma = _recover(c, e, prol.components)
    tc, te = bfield_transform(prol.components, prol.unit, gamma)
    rep.scan(
        "bfield-recovery",
        "the candidate equals the shear of the double prolongation by the "
        "recovered two-form",
        _table_diffs(
            [("l", tc.l, c.l), ("d", tc.d, c.d), ("lam", _lam_table(te), _lam_table(e))]
        ),
    )

    nab, dg = _nabla_two_form(gamma), gamma.d()
    gradient_ok = _scan(rep, "bfield-gradient", _map_bfield_gradient(nab, dg))
    twist_ok = _scan(rep, "twist-match", _map_twist_match(h, dg))
    dorf_ok = rep.summarize(
        "dorfman-compatibility",
        "both derivative laws hold against the twisted bracket",
        check_dorfman_compat(c, e, nabla, h),
    )
    rep.add(
        "classification-agreement",
        "the bracket verdict matches the derivative predicate",
        dorf_ok == (gradient_ok and twist_ok),
        (int(dorf_ok), int(gradient_ok and twist_ok)),
    )
    if h is None or h.is_zero():
        _scan(rep, "parallel-bfield", nab)
        _scan(rep, "parallel-product", _map_parallel_product(c, gamma))
    return rep
