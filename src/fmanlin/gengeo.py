"""The double bundle as a Courant algebroid: pairing, anchor, Dorfman bracket.

Sections of the double bundle are pairs ``X + xi`` of a vector part and a
covector part over the base.  This module implements the standard exact
Courant structure on such sections -- the anchor ``X + xi -> X``, the pairing
``<X + xi, Y + eta> = (xi(Y) + eta(X))/2`` and the Dorfman bracket
``[X + xi, Y + eta]_H = L_X(Y + eta) - i_Y dxi + i_X i_Y H`` twisted by a
closed three-form -- together with the compatibility checks that single out
multiplications of B-field type: transforms ``X + xi -> X + xi + i_X gamma``
of the double prolongation by a two-form ``gamma``.  The classification
check recovers ``gamma`` from the component data and decides whether the
candidate is compatible with the twisted bracket, which happens exactly when
``gamma`` satisfies a first-order differential condition tying its covariant
derivative to the twist.

Contractions follow operator order throughout: ``i_X i_Y H`` contracts ``Y``
into the first slot, then ``X`` into the (new) first slot, so its value on
``Z`` is ``H(Y, X, Z)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from operator import attrgetter

from .duality import check_flat_f, dualize, symmetric_bracket
from .fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    PreconditionError,
    _Ctx,
    _frame,
    _require,
    _table_diffs,
    _vf_apply,
    _vf_bracket,
    apply_d,
    apply_l,
    check_battery,
)
from .prolong import _conjugate, _conjugate_unit, _double_prolongation
from .report import Report
from .symcore import RatFunc, _Value
from .tensor import (
    Chart,
    Connection,
    ThreeForm,
    TwoForm,
    _acc,
    _vsub,
)

__all__ = [
    "GenSection",
    "TwoForm",
    "ThreeForm",
    "pairing",
    "anchor",
    "dorfman",
    "check_anchor_compat",
    "check_scalar_compat",
    "check_dorfman_compat",
    "bfield_transform",
    "classify_exact_courant",
]

_ZERO = RatFunc.zero()
_ONE = RatFunc.one()
_HALF = RatFunc.coerce(Fraction(1, 2))
_THIRD = RatFunc.coerce(Fraction(1, 3))
_TWO = RatFunc.coerce(2)


# -- domain types ---------------------------------------------------------------


class GenSection(_Value):
    """Section ``X + xi`` of the double bundle, both parts base-only."""

    _key = attrgetter("chart", "vec", "form")

    def __init__(self, chart: Chart, vec: tuple, form: tuple):
        vec = tuple(
            chart.require_base_only(RatFunc.coerce(v), "vector part") for v in vec
        )
        form = tuple(
            chart.require_base_only(RatFunc.coerce(v), "covector part")
            for v in form
        )
        if len(vec) != chart.n or len(form) != chart.n:
            raise ValueError(f"both parts need {chart.n} components")
        self._set(chart=chart, vec=vec, form=form)

    @staticmethod
    def frame(chart: Chart, idx: int) -> "GenSection":
        n = chart.n
        if not 0 <= idx < 2 * n:
            raise ValueError(f"frame index {idx} out of range for rank {2 * n}")
        comps = [_ZERO] * (2 * n)
        comps[idx] = _ONE
        return GenSection(chart, tuple(comps[:n]), tuple(comps[n:]))

    @classmethod
    def from_components(cls, chart: Chart, comps: dict) -> "GenSection":
        n = chart.n
        full = [_ZERO] * (2 * n)
        for i, v in comps.items():
            full[i] = v
        return cls(chart, tuple(full[:n]), tuple(full[n:]))

    def components(self) -> dict:
        out = {}
        for i, v in enumerate(self.vec):
            if not v.is_zero():
                out[i] = v
        n = len(self.vec)
        for i, v in enumerate(self.form):
            if not v.is_zero():
                out[n + i] = v
        return out

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.vec + self.form)


# -- the exact Courant operations ------------------------------------------------


def _same_chart(s: GenSection, t: GenSection):
    if s.chart != t.chart:
        raise ValueError("sections live on different charts")


def _partner(n: int, i: int) -> int:
    """The index paired with ``i``: the block swap ``i -> i +- n``."""
    return i + n if i < n else i - n


def pairing(s: GenSection, t: GenSection) -> RatFunc:
    """``<X + xi, Y + eta> = (xi(Y) + eta(X)) / 2``."""
    _same_chart(s, t)
    n = s.chart.n
    v = t.components()
    acc = _ZERO
    for i, f in s.components().items():
        g = v.get(_partner(n, i))
        if g is not None:
            acc = acc + f * g
    return _HALF * acc


def anchor(s: GenSection) -> tuple:
    """Project a section to its vector part."""
    return s.vec


def _dorfman_comps(chart: Chart, n: int, u: dict, v: dict, h: ThreeForm | None) -> dict:
    names = chart.names
    xu = {i: f for i, f in u.items() if i < n}
    xv = {i: f for i, f in v.items() if i < n}
    out = dict(_vf_bracket(chart, xu, xv))
    for q in range(n):
        acc = _vf_apply(chart, xu, v.get(n + q, _ZERO))
        acc = acc - _vf_apply(chart, xv, u.get(n + q, _ZERO))
        for i in range(n):
            eta_i = v.get(n + i)
            if eta_i is not None:
                acc = acc + eta_i * xu.get(i, _ZERO).partial(names[q])
            xi_i = u.get(n + i)
            if xi_i is not None:
                acc = acc + xv.get(i, _ZERO) * xi_i.partial(names[q])
        if h is not None:
            for m, g in xv.items():
                for i, f in xu.items():
                    acc = acc + g * f * h.at(m, i, q)
        if not acc.is_zero():
            out[n + q] = acc
        else:
            out.pop(n + q, None)
    return out


def dorfman(s: GenSection, t: GenSection, h: ThreeForm | None = None) -> GenSection:
    """``[X + xi, Y + eta]_H = L_X(Y + eta) - i_Y dxi + i_X i_Y H``."""
    _same_chart(s, t)
    if h is not None and h.chart.base_names != s.chart.base_names:
        raise ValueError("twist three-form lives on different base coordinates")
    _require_closed(h)
    n = s.chart.n
    out = _dorfman_comps(s.chart, n, s.components(), t.components(), h)
    return GenSection.from_components(s.chart, out)


# -- compatibility checks ---------------------------------------------------------


def _double_rank(chart: Chart) -> int:
    n = chart.n
    if chart.k != 2 * n:
        raise ValueError(
            f"expected a double fiber of rank {2 * n} over {n} base coordinates, "
            f"got rank {chart.k}"
        )
    return n


def _check_candidate(
    c: MultComponents, e: LinearVectorField, form=None, what="twist three-form"
) -> int:
    """The base dimension of a double-fiber candidate ``(c, e)``, once it is checked.

    In order: the fiber has rank ``2n``, ``e`` lives on the chart of ``c``, and
    ``form`` (a twist three-form or a two-form, named ``what``), when given,
    lives on its base coordinates.
    """
    n = _double_rank(c.chart)
    if e.chart != c.chart:
        raise ValueError("unit candidate and components live on different charts")
    if form is not None and form.chart.base_names != c.chart.base_names:
        raise ValueError(f"{what} lives on different base coordinates")
    return n


def _lam_table(e: LinearVectorField) -> dict:
    """The fiber matrix of ``e`` as a table ``(i, j) -> lam[i][j]``."""
    return {(i, j): v for i, row in enumerate(e.lam) for j, v in enumerate(row)}


def _comp_pairs(tuples, vec_fn):
    """``((*idx, comp), vec[comp])`` for each index tuple and each component."""
    for idx in tuples:
        vec = vec_fn(*idx)
        for comp in sorted(vec):
            yield (*idx, comp), vec[comp]


def check_anchor_compat(c: MultComponents) -> Report:
    """Check that side and derivative operators project to the base product."""
    n = _double_rank(c.chart)
    rep = Report("anchor compatibility")
    ctx = _Ctx(c)  # d_m * d_b and L_{d_b}(*)(d_m, d_p), from the star rows

    def proj(sec: dict) -> dict:
        return {i: f for i, f in sec.items() if i < n}

    def side(m, b):
        got = proj(apply_l(c, m, _frame(b)))
        return _vsub(got, ctx.star[m, b] if b < n else {})

    def deriv(m, p, b):
        got = proj(apply_d(c, m, p, _frame(b)))
        return _vsub(got, ctx.lie[b, m, p] if b < n else {})

    rep.scan(
        "anchor-side",
        "pi(l_X s) = X * pi(s)",
        _comp_pairs(product(range(n), range(2 * n)), side),
    )
    rep.scan(
        "anchor-derivative",
        "pi(D_{X,Y} s) = L_{pi(s)}(*)(X, Y)",
        _comp_pairs(product(range(n), range(n), range(2 * n)), deriv),
    )
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
    """`check_scalar_compat` once its flat structure is known to pass.

    On frames ``<s, d_c> = s^{c'}/2``, with ``c'`` the partner of ``c``, so
    each frame law reads table entries.  Two frames pair to a constant, so
    the terms that differentiate their pairing vanish.
    """
    rep = Report("scalar compatibility")
    names = c.chart.names

    def sw(i):
        return _partner(n, i)

    def side(m, b, cc):
        return {0: _HALF * (c.l_at(sw(cc), b, m) - c.l_at(sw(b), cc, m))}

    brackets = {  # <d_m : d_p>, once per pair
        (m, p): symmetric_bracket(nabla, _frame(m), _frame(p))
        for m, p in product(range(n), repeat=2)
    }

    def deriv(m, p, b, cc):
        pb = sw(b)
        lhs = c.d_at(sw(cc), b, m, p) + c.d_at(pb, cc, m, p)
        rhs = c.l_at(pb, cc, p).partial(names[m]) + c.l_at(pb, cc, m).partial(names[p])
        for q, g in brackets[m, p].items():
            rhs = rhs - g * c.l_at(pb, cc, q)
        return {0: _HALF * (lhs - rhs)}

    def unit(b, cc):
        return {0: _HALF * (e.lam[sw(cc)][b] + e.lam[sw(b)][cc])}

    def swapped(table):
        return {(sw(i), sw(j), *rest): v for (i, j, *rest), v in table.items()}

    frames_ok = rep.scan(
        "pairing-side",
        "<l_X s, t> = <l_X t, s>",
        _comp_pairs(product(range(n), range(2 * n), range(2 * n)), side),
    )
    frames_ok &= rep.scan(
        "pairing-derivative",
        "<D_{X,Y} s, t> + <s, D_{X,Y} t> = X<s, l_Y t> + Y<s, l_X t>"
        " - <s, l_<X:Y> t> - (X*Y)<s, t>",
        _comp_pairs(product(range(n), range(n), range(2 * n), range(2 * n)), deriv),
    )
    frames_ok &= rep.scan(
        "pairing-unit",
        "ebar<s, t> = <Delta_e s, t> + <s, Delta_e t>",
        _comp_pairs(product(range(2 * n), range(2 * n)), unit),
    )

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
    """Check both derivative laws of the candidate against the twisted bracket.

    Sections and directions run over coordinate frames, which are parallel
    because the connection is required to vanish in the chart.  The pairing
    scalars of both laws are then table entries, as in `_scalar_compat`.
    """
    n = _check_candidate(c, e, h)
    _require_trivial_connection("the bracket compatibility check", nabla)
    _require_closed(h)
    rep = Report("dorfman compatibility")
    rep.note(
        "the twisted bracket replaces the untwisted one verbatim in both "
        "derivative laws"
    )
    chart = c.chart
    names = chart.names

    def br(u, v):
        return _dorfman_comps(chart, n, u, v, h)

    def t_scal(b, cc, q, r):  # <D_{q,r} d_b, d_cc>
        return _HALF * c.d_at(_partner(n, cc), b, q, r)

    def s_form(b, cc, q):  # S(d_b, d_cc)(d_q) = 2<d_b, pi(d_cc) * d_q>
        return c.star_at(b - n, cc, q) if b >= n and cc < n else _ZERO

    def side(m, b, cc):
        fb, fc = _frame(b), _frame(cc)
        lhs = apply_l(c, m, br(fb, fc))
        rhs = br(fb, apply_l(c, m, fc))
        if cc < n:
            rhs = _vsub(rhs, apply_d(c, m, cc, fb))
        for q in range(n):
            corr = -_TWO * t_scal(b, cc, m, q)
            _acc(rhs, n + q, corr + _TWO * s_form(b, cc, q).partial(names[m]))
        return _vsub(lhs, rhs)

    def deriv(m, p, b, cc):
        fb, fc = _frame(b), _frame(cc)
        lhs = apply_d(c, m, p, br(fb, fc))
        rhs = _vsub(br(fb, apply_d(c, m, p, fc)), br(fc, apply_d(c, m, p, fb)))
        t_mp = t_scal(b, cc, m, p)
        for q in range(n):
            corr = -_TWO * (
                t_scal(b, cc, p, q).partial(names[m])
                + t_scal(b, cc, m, q).partial(names[p])
                + t_mp.partial(names[q])
            )
            corr = corr + _TWO * _TWO * t_mp.partial(names[q])
            corr = corr + _TWO * s_form(b, cc, q).partial(names[m]).partial(names[p])
            _acc(rhs, n + q, corr)
        return _vsub(lhs, rhs)

    rep.scan(
        "dorfman-side",
        "l_Z[s, t] = [s, l_Z t] - D_{Z,pi(t)} s - 2<D_{Z,.} s, t> "
        "+ 2 nabla_Z S(s, t)",
        _comp_pairs(product(range(n), range(2 * n), range(2 * n)), side),
    )
    rep.scan(
        "dorfman-derivative",
        "D_{Z,V}[s, t] = [s, D_{Z,V} t] - [t, D_{Z,V} s] "
        "- 2 nabla^sym<D s, t>(Z, V) + 4 d<D_{Z,V} s, t> "
        "+ 2 nabla_Z nabla_V S(s, t)",
        _comp_pairs(product(range(n), range(n), range(2 * n), range(2 * n)), deriv),
    )
    return rep


# -- B-field transformations -------------------------------------------------------


def bfield_transform(
    c: MultComponents, e: LinearVectorField, gamma: TwoForm
) -> tuple[MultComponents, LinearVectorField]:
    """Conjugate ``(c, e)`` by the shear ``X + xi -> X + xi + i_X gamma``,
    whose inverse is the shear by ``-gamma``."""
    n = _check_candidate(c, e, gamma, "two-form")
    mat = [[_ONE if b == a else _ZERO for b in range(2 * n)] for a in range(2 * n)]
    inv = [list(row) for row in mat]
    for a, b in product(range(n), repeat=2):
        mat[n + a][b], inv[n + a][b] = gamma.at(b, a), -gamma.at(b, a)
    return _conjugate(c, mat, inv), _conjugate_unit(e, mat, inv)


# -- classification -----------------------------------------------------------------


def _recover(c: MultComponents, e: LinearVectorField, ref: MultComponents) -> TwoForm:
    """Read the shear two-form off the unit slot of the side difference.

    For a shear of the double prolongation ``ref`` the skew part of the side
    difference, contracted with the unit, returns the two-form exactly; for
    anything else the result is merely the best candidate, and the
    ``bfield-recovery`` record flags the mismatch.
    """
    n = c.chart.n
    table = {}
    for m, p in combinations(range(n), 2):
        acc = _ZERO
        for q in range(n):
            w = e.beta[q]
            if w.is_zero():
                continue
            fwd = c.l_at(n + q, p, m) - ref.l_at(n + q, p, m)
            bwd = c.l_at(n + q, m, p) - ref.l_at(n + q, m, p)
            acc = acc + _HALF * w * (fwd - bwd)
        table[(m, p)] = acc
    return TwoForm(c.chart.base(), table)


def _nabla_two_form(gamma: TwoForm, nabla: Connection) -> dict:
    names = gamma.chart.names
    n = gamma.chart.n
    out = {}
    for r, i, j in product(range(n), repeat=3):
        val = gamma.at(i, j).partial(names[r])
        for m in range(n):
            g = nabla.at(m, r, i)
            if not g.is_zero():
                val = val - g * gamma.at(m, j)
            g = nabla.at(m, r, j)
            if not g.is_zero():
                val = val - g * gamma.at(i, m)
        if not val.is_zero():
            out[(r, i, j)] = val
    return out


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

    nab = _nabla_two_form(gamma, nabla)
    dg = gamma.d()
    gradient_ok = rep.scan(
        "bfield-gradient",
        "nabla gamma = (1/3) d gamma for the recovered two-form",
        (
            (idx, nab.get(idx, _ZERO) - _THIRD * dg.at(*idx))
            for idx in product(range(n), repeat=3)
        ),
    )
    twist_ok = rep.scan(
        "twist-match",
        "the twist equals (1/3) d gamma for the recovered two-form",
        (
            (idx, (h.at(*idx) if h is not None else _ZERO) - _THIRD * dg.at(*idx))
            for idx in combinations(range(n), 3)
        ),
    )
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
        rep.scan(
            "parallel-bfield", "the recovered two-form is parallel", sorted(nab.items())
        )
        names = c.chart.names
        star = _Ctx(c).star
        rep.scan(
            "parallel-product",
            "the pairing gamma(X*Y, Z) of the base product is parallel",
            (
                ((r, m, p, q), gamma.apply(star[m, p], _frame(q)).partial(names[r]))
                for r, m, p, q in product(range(n), repeat=4)
            ),
        )
    return rep
