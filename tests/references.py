"""Reference implementations that tests compare the package against.

They are not part of the package: no command or check needs them.
:class:`BFieldData` evaluates the closed-form difference tables of a two-form
shear of the double prolongation, for comparison with the tables extracted
from the sheared structure; :func:`lie_components` reads the Lie derivative
of a product off the assembled tensor, and :func:`nabla_star` takes the
covariant derivative of a product on any three vector fields.
:func:`lie_star`, :func:`torsion_vec` and :func:`five_field_residual` take
the Lie derivative of a product, the torsion and the five-field combination
on general vector fields, through the general bracket :func:`_vf_bracket`;
the package computes them on coordinate frames only and has no general
bracket.  :func:`lie_l_entry` and :func:`lie_d_entry`
take one frame entry of the Lie derivative of the side and derivative tables
along a linear vector field through the frame operators, the Euler
references of the battery's table identities.
:func:`reference_components` reads the tables of a linear (2,1) tensor
through vertical lifts, Lie derivatives and contractions instead of by key,
and :func:`_verify_leibniz` checks an assembled tensor against the Leibniz
rule of its tables.  :class:`GenSection`, :func:`pairing`, :func:`anchor`
and :func:`dorfman` are the exact Courant operations on sections of the
double bundle, which ``gengeo`` checks on coordinate frames only.
:func:`courant_frame_residuals` evaluates the frame laws of the anchor,
scalar and bracket checks in section form, through the frame operators, the
pairing of sections and the Dorfman bracket, and the structural pairing
record by conjugating with the pairing matrix; :func:`courant_predicate_residuals`
is the dense, tuple-by-tuple form of the classifier's derivative predicate.  The ``ref_*_vec`` functions
are the dense frame forms of the duality obstructions and
:func:`ref_kernel_records` scans them frame tuple by frame tuple, the
reference for the residual maps of ``duality``.  :func:`report_layout` is the
JSON layout that ``Report.to_json`` writes.  :func:`ref_regular_connection`
inverts the unit-and-power frame and differentiates the inverse, the
reference for ``duality.regular_connection``.  :func:`apply_l`,
:func:`apply_d` and :func:`apply_delta` are the operators the tables induce
on sections, and :func:`conjugate` and :func:`conjugate_unit` transport the
tables through any invertible change of fiber frame, inverted by elimination
(:func:`_inverse`): by :func:`shear_matrix` they are the reference route of
``gengeo.bfield_transform``, and :func:`ref_recover` reads the shear two-form
pair by pair, the reference for ``gengeo._recover``.  :func:`ref_two_form_d` and
:func:`ref_three_form_is_closed` are the dense exterior derivatives over every
triple and quadruple.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from operator import attrgetter

from fmanlin.duality import dualize, nabla_apply, symmetric_bracket
from fmanlin.fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    _frame,
    star_product,
)
from fmanlin.gengeo import _double_rank, _require_closed
from fmanlin.report import Report
from fmanlin.symcore import RatFunc, SingularMatrixError, _solve, _Value
from fmanlin.tensor import (
    Chart,
    Connection,
    TensorField,
    TwoForm,
    _acc,
    _checked_table,
    _vadd,
    _vsub,
    contract,
    extract_components,
    lie_derivative,
)

_ZERO = RatFunc.zero()
_HALF = RatFunc.coerce(Fraction(1, 2))
_TWO = RatFunc.coerce(2)


def vscale(a: dict, f: RatFunc) -> dict:
    """The vector dict ``a`` times the scalar ``f``."""
    if f.is_zero():
        return {}
    return {key: val * f for key, val in a.items()}


def _vget(a: dict, key) -> RatFunc:
    return a.get(key, _ZERO)


def _vf_apply(chart: Chart, u: dict, f: RatFunc) -> RatFunc:
    """The vector field ``u`` applied to the function ``f``."""
    if f.is_const():
        return _ZERO
    names = chart.names
    acc = _ZERO
    for a, v in u.items():
        acc = acc + v * f.partial(names[a])
    return acc


def apply_l(c: MultComponents, k: int, sec: dict) -> dict:
    """Side operator along ``dx^k`` on a section coefficient dict."""
    rows = c.rows.l
    out = {}
    for j, f in sec.items():
        for i, val in rows.get((k, j), ()):
            _acc(out, i, val * f)
    return out


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
    ebar = e.base_vec()
    out = {}
    for i, f in sec.items():
        _acc(out, i, _vf_apply(e.chart, ebar, f))
    for i in range(e.chart.k):
        for j, f in sec.items():
            _acc(out, i, -(e.lam[i][j] * f))
    return out


def _inverse(matrix) -> list[list[RatFunc]]:
    """The columns of the inverse of a square matrix, from one elimination:
    column ``j`` solves ``matrix x = e_j``."""
    n = len(matrix)
    unit = [[RatFunc.coerce(int(i == j)) for i in range(n)] for j in range(n)]
    return _solve(matrix, unit)


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
    try:
        cols = _inverse(rows)
    except SingularMatrixError:
        raise SingularMatrixError("the fiber isomorphism is singular") from None
    inv = [[cols[b][i] for b in range(k)] for i in range(k)]
    return rows, inv


def _mat_apply(mat, vec: dict) -> dict:
    out = {}
    for i, val in vec.items():
        for a in range(len(mat)):
            if not mat[a][i].is_zero():
                _acc(out, a, mat[a][i] * val)
    return out


def conjugate(c: MultComponents, iso) -> MultComponents:
    """Transport the tables through an invertible change of fiber frame.

    Each new table column is the old operator applied to the matching
    column of the inverse matrix, pushed back through the matrix.  For a
    frame change with non-constant entries the derivative table picks up
    the usual first-order corrections; the base product is untouched.
    """
    return _conjugate(c, *_coerce_iso(c.chart, iso))


def _conjugate(c: MultComponents, mat, inv) -> MultComponents:
    chart = c.chart
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
    return MultComponents(chart=chart, d=new_d, l=new_l, star=c.star)


def conjugate_unit(e: LinearVectorField, iso) -> LinearVectorField:
    """Transport a fiberwise-linear vector field through a change of frame."""
    return _conjugate_unit(e, *_coerce_iso(e.chart, iso))


def _conjugate_unit(e: LinearVectorField, mat, inv) -> LinearVectorField:
    kdim = e.chart.k
    lam = [[_ZERO] * kdim for _ in range(kdim)]
    for b in range(kdim):
        col = {i: inv[i][b] for i in range(kdim) if not inv[i][b].is_zero()}
        img = _mat_apply(mat, apply_delta(e, col))
        for a in range(kdim):
            lam[a][b] = -img.get(a, _ZERO)
    return LinearVectorField(e.chart, e.beta, tuple(tuple(row) for row in lam))


def shear_matrix(n: int, gamma: TwoForm) -> list:
    """The shear ``X + xi -> X + xi + i_X gamma`` as a ``2n x 2n`` matrix."""
    one = RatFunc.one()
    mat = [[one if b == a else _ZERO for b in range(2 * n)] for a in range(2 * n)]
    for a, b in product(range(n), repeat=2):
        mat[n + a][b] = gamma.at(b, a)
    return mat


def ref_recover(c: MultComponents, e: LinearVectorField, ref: MultComponents) -> TwoForm:
    """The two-form of ``gengeo._recover``, pair by pair: ``1/2 sum_q beta^q
    (D^{n+q}_{pm} - D^{n+q}_{mp})`` at every ``m < p``, with ``D = c.l - ref.l``."""
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


def ref_two_form_d(gamma: TwoForm) -> dict:
    """``d gamma`` at every increasing triple, zeros dropped, read term by term."""
    names, out = gamma.chart.names, {}
    for i, j, k in combinations(range(gamma.chart.n), 3):
        val = (
            gamma.at(j, k).partial(names[i])
            - gamma.at(i, k).partial(names[j])
            + gamma.at(i, j).partial(names[k])
        )
        if not val.is_zero():
            out[i, j, k] = val
    return out


def ref_three_form_is_closed(h) -> bool:
    """Whether ``d h`` vanishes at every increasing quadruple."""
    names = h.chart.names
    for i, j, k, m in combinations(range(h.chart.n), 4):
        val = (
            h.at(j, k, m).partial(names[i])
            - h.at(i, k, m).partial(names[j])
            + h.at(i, j, m).partial(names[k])
            - h.at(i, j, k).partial(names[m])
        )
        if not val.is_zero():
            return False
    return True


def _vf_bracket(chart: Chart, u: dict, v: dict) -> dict:
    """The bracket ``[u, v]`` of two vector fields given as coefficient dicts."""
    out = {}
    for a in set(u) | set(v):
        _acc(out, a, _vf_apply(chart, u, _vget(v, a)) - _vf_apply(chart, v, _vget(u, a)))
    return out


def apply_l_vec(c: MultComponents, u: dict, sec: dict) -> dict:
    """``l_u sec``: the side operator along the base vector field ``u``."""
    out = {}
    for a, w in u.items():
        for key, val in apply_l(c, a, sec).items():
            _acc(out, key, w * val)
    return out


def record_layout(rec) -> dict:
    """The JSON layout of one record: its name, law and verdict, and when it
    failed its witness (a list, or None) and residual."""
    body = {"name": rec.name, "law": rec.law, "passed": rec.passed}
    if not rec.passed:
        body["witness"] = list(rec.witness) if rec.witness is not None else None
        body["residual"] = rec.residual
    return body


def report_layout(rep: Report) -> dict:
    """The JSON layout of a report, which ``Report.to_json`` writes with ``indent=2``."""
    return {
        "title": rep.title,
        "passed": rep.passed,
        "records": [record_layout(r) for r in rep.records],
        "notes": list(rep.notes),
    }


def lie_components(c: MultComponents, x: LinearVectorField):
    """Tables ``(d, l, star)`` of the Lie derivative of the product along ``x``,
    read off the Lie derivative of the assembled tensor."""
    return extract_components(lie_derivative(x.as_field(), c.assemble()))


def nabla_star(nabla: Connection, c: MultComponents, u: dict, v: dict, w: dict) -> dict:
    """Covariant derivative of the base product along ``u``, applied to ``(v, w)``."""
    out = nabla_apply(nabla, u, star_product(c, v, w))
    out = _vsub(out, star_product(c, nabla_apply(nabla, u, v), w))
    return _vsub(out, star_product(c, v, nabla_apply(nabla, u, w)))


def lie_star(c: MultComponents, w: dict, u: dict, v: dict) -> dict:
    """Lie derivative of the base product along ``w``, applied to ``(u, v)``."""
    chart = c.chart
    out = _vf_bracket(chart, w, star_product(c, u, v))
    out = _vsub(out, star_product(c, _vf_bracket(chart, w, u), v))
    return _vsub(out, star_product(c, u, _vf_bracket(chart, w, v)))


def torsion_vec(nabla: Connection, u: dict, v: dict) -> dict:
    """``T(u, v) = nabla_u v - nabla_v u - [u, v]``."""
    out = _vsub(nabla_apply(nabla, u, v), nabla_apply(nabla, v, u))
    return _vsub(out, _vf_bracket(nabla.chart, u, v))


def ref_nabla2_vec(nabla: Connection, u: dict, v: dict, w: dict) -> dict:
    """``nabla^2 w (u, v) = nabla_u nabla_v w - nabla_{nabla_u v} w``."""
    out = nabla_apply(nabla, u, nabla_apply(nabla, v, w))
    return _vsub(out, nabla_apply(nabla, nabla_apply(nabla, u, v), w))


def ref_asoc_vec(c: MultComponents, nabla: Connection, x, y, z) -> dict:
    """The associativity obstruction of the duality conditions at three frames."""
    fx, fy, fz = _frame(x), _frame(y), _frame(z)
    out = star_product(c, torsion_vec(nabla, fx, fy), fz)
    out = _vadd(out, vscale(star_product(c, torsion_vec(nabla, fx, fz), fy), _TWO))
    out = _vadd(out, star_product(c, torsion_vec(nabla, fy, fz), fx))
    out = _vadd(out, torsion_vec(nabla, fz, star_product(c, fx, fy)))
    out = _vsub(out, torsion_vec(nabla, fx, star_product(c, fy, fz)))
    out = _vadd(out, vscale(nabla_star(nabla, c, fx, fy, fz), _TWO))
    return _vsub(out, vscale(nabla_star(nabla, c, fz, fx, fy), _TWO))


def ref_unit_vec(e: LinearVectorField, nabla: Connection, x) -> dict:
    """The unit obstruction ``2 nabla_{d_x} ebar + T(ebar, d_x)``."""
    ebar = e.base_vec()
    out = vscale(nabla_apply(nabla, _frame(x), ebar), _TWO)
    return _vadd(out, torsion_vec(nabla, ebar, _frame(x)))


def ref_integr_vec(c: MultComponents, nabla: Connection, x, y, z, v) -> dict:
    """The full twelve-term integrability obstruction at four frames, brackets
    of two frames included."""

    def br(a, b):
        return _vf_bracket(c.chart, a, b)

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
    out = _vadd(out, star_product(c, fx, _vadd(sb(br(fy, fv), fz), sb(br(fy, fz), fv))))
    return _vadd(out, star_product(c, fy, _vadd(sb(br(fx, fv), fz), sb(br(fx, fz), fv))))


def ref_euler_vec(nabla: Connection, evec: dict, x, y) -> dict:
    """The symmetrized second covariant derivative of ``evec`` at two frames."""
    fx, fy = _frame(x), _frame(y)
    return _vadd(ref_nabla2_vec(nabla, fx, fy, evec), ref_nabla2_vec(nabla, fy, fx, evec))


def ref_kernel_records(c: MultComponents, e: LinearVectorField, nabla: Connection, euler=None):
    """The four condition records of the duality check, scanned densely from
    the reference obstructions: frame tuple by frame tuple, then fiber frame
    ``j``, then output index ``i``."""
    n, kdim = c.n, c.rank
    rep = Report("duality conditions")

    def kernel_pairs(tuples, vec_fn):
        for idx in tuples:
            w = vec_fn(*idx)
            for j in range(kdim):
                img = apply_l_vec(c, w, _frame(j))
                for i in sorted(img):
                    yield (i, j, *idx), img[i]

    pairs = list(combinations_with_replacement(range(n), 2))
    law = "the associativity obstruction lies in the kernel of l"
    asoc = kernel_pairs(product(range(n), repeat=3), lambda *i: ref_asoc_vec(c, nabla, *i))
    rep.scan("dual-associative", law, asoc)
    unit = kernel_pairs(product(range(n)), lambda x: ref_unit_vec(e, nabla, x))
    rep.scan("dual-unit", "l(s, 2 nabla_X ebar + T(ebar, X)) = 0", unit)
    law = "the integrability obstruction lies in the kernel of l"
    quads = ((x, y, z, v) for (x, y) in pairs for (z, v) in pairs)
    rep.scan("dual-integrable", law, kernel_pairs(quads, lambda *i: ref_integr_vec(c, nabla, *i)))
    if euler is not None:
        evec = euler.base_vec()
        law = "l(s, symmetrized nabla^2 Ebar) = 0"
        rep.scan("dual-euler", law, kernel_pairs(pairs, lambda *i: ref_euler_vec(nabla, evec, *i)))
    return rep.records


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


def lie_l_entry(c: MultComponents, x: LinearVectorField, j: int, k: int) -> dict:
    """``(L_x l)_{d_k} s_j``: ``[Delta_x, l_{d_k}] s_j - l_{[xbar, d_k]} s_j``."""
    names = c.chart.names
    out = apply_delta(x, apply_l(c, k, _frame(j)))
    out = _vsub(out, apply_l(c, k, apply_delta(x, _frame(j))))
    for a, v in enumerate(x.beta):
        w = v.partial(names[k])
        if not w.is_zero():
            out = _vadd(out, vscale(apply_l(c, a, _frame(j)), w))
    return out


def lie_d_entry(c: MultComponents, x: LinearVectorField, j, k, p) -> dict:
    """``(L_x D)_{d_k,d_p} s_j``: ``[Delta_x, D_{d_k,d_p}] s_j`` minus
    ``D_{[xbar, d_k],d_p} s_j + D_{d_k,[xbar, d_p]} s_j``."""
    names = c.chart.names
    out = apply_delta(x, apply_d(c, k, p, _frame(j)))
    out = _vsub(out, apply_d(c, k, p, apply_delta(x, _frame(j))))
    for a, v in enumerate(x.beta):
        wk = v.partial(names[k])
        if not wk.is_zero():
            out = _vadd(out, vscale(apply_d(c, a, p, _frame(j)), wk))
        wp = v.partial(names[p])
        if not wp.is_zero():
            out = _vadd(out, vscale(apply_d(c, k, a, _frame(j)), wp))
    return out


class Section(_Value):
    """A section of the bundle: one base-only coefficient per fiber direction."""

    _key = attrgetter("chart", "components")

    def __init__(self, chart: Chart, components: tuple[RatFunc, ...]):
        if len(components) != chart.k:
            raise ValueError("section needs one component per fiber direction")
        for c in components:
            chart.require_base_only(c, "section component")
        self._set(chart=chart, components=components)

    @staticmethod
    def frame(chart: Chart, j: int) -> "Section":
        comps = [_ZERO] * chart.k
        comps[j] = RatFunc.one()
        return Section(chart, tuple(comps))


def vertical_lift(s: Section) -> TensorField:
    """The vertical vector field with the section's coefficients."""
    chart = s.chart
    return TensorField(
        chart, 0, 1, {(chart.n + j,): c for j, c in enumerate(s.components)}
    )


class LeibnizError(ValueError):
    """Component tables violate the Leibniz compatibility rule."""

    def __init__(self, i: int, j: int, slot):
        super().__init__(
            f"Leibniz compatibility fails on section {j}, output {i}, slot {slot}"
        )
        self.witness = (i, j, slot)


def _core_to_table(chart: Chart, t: TensorField, j: int, what: str) -> dict:
    """Read a core tensor as a frame table ``(i, j, base indices) -> value``."""
    n = chart.n
    out = {}
    for key, val in t.coeffs.items():
        if key[0] < n or any(b >= n for b in key[1:]):
            raise ValueError(f"{what} has non-core components")
        out[(key[0] - n, j) + key[1:]] = val
    return out


def reference_components(t: TensorField):
    """Tables ``(d, l, star)`` of a linear (2,1) tensor, by the frame sections.

    ``d`` is read off the Lie derivative of ``t`` along each lifted frame
    section, ``l`` off its contraction into either covariant slot, and
    ``star`` off the base keys; the result is checked against the Leibniz
    rule on ``f = x1``.
    """
    chart = t.chart
    n = chart.n
    d, sides = {}, ({}, {})
    for j in range(chart.k):
        lift = vertical_lift(Section.frame(chart, j))
        d.update(_core_to_table(chart, lie_derivative(lift, t), j, "derivative"))
        for m, side in enumerate(sides):
            side.update(_core_to_table(chart, contract(t, m, lift), j, "contraction"))
    if sides[0] != sides[1]:
        raise ValueError("the two side slots disagree")
    star = {key: val for key, val in t.coeffs.items() if max(key) < n}
    c = MultComponents(chart, d, sides[0], star)
    if chart.k and n:
        _verify_leibniz(t, c, coords=(0,))
    return c.d, c.l, c.star


def _leibniz_expected(c: MultComponents, f: RatFunc, j: int) -> TensorField:
    """Right-hand side of the Leibniz rule for ``D(f s_j)`` as a core tensor."""
    chart = c.chart
    n = chart.n
    out = {}
    for (i, jj, *bs), val in c.d.items():
        if jj == j:
            _acc(out, (n + i, *bs), f * val)
    df = [f.partial(name) for name in chart.base_names]
    for (i, jj, b), val in c.l.items():
        if jj != j:
            continue
        for a in range(n):
            _acc(out, (n + i, a, b), df[a] * val)
            _acc(out, (n + i, b, a), df[a] * val)
    for (a, *bs), val in c.star.items():
        _acc(out, (n + j, *bs), -(df[a] * val))
    return TensorField(chart, 2, 1, out)


def _verify_leibniz(t: TensorField, c: MultComponents, coords=None):
    """Check ``D(f s_j)`` against the Leibniz rule for coordinate functions ``f``."""
    chart = c.chart
    coords = range(chart.n) if coords is None else coords
    for j in range(chart.k):
        for a in coords:
            f = RatFunc.variable(chart.base_names[a])
            sec = Section(chart, tuple(f if i == j else _ZERO for i in range(chart.k)))
            actual = lie_derivative(vertical_lift(sec), t)
            expected = _leibniz_expected(c, f, j)
            if actual != expected:
                key = min((actual - expected).coeffs)
                raise LeibnizError(key[0] - chart.n, j, key[1:])


class BFieldData(_Value):
    """Difference tables of a candidate against the double prolongation.

    ``b[(m, p, z, v)]`` is the ``dx^v`` component of the derivative-table
    difference applied to the frame ``dx_z`` along ``(dx_m, dx_p)``;
    ``a[(m, p, q)]`` the ``dx^q`` component of the side difference on
    ``dx_p`` along ``dx_m``; ``s[(m, q)]`` the ``dx^q`` component of the
    unit-derivation difference on ``dx_m``.  All three take covector values
    on vector arguments and vanish on the covector block; ``a`` is symmetric
    in its last two slots and ``s`` is skew.
    """

    _key = attrgetter("chart", "b", "a", "s")

    def __init__(self, chart: Chart, b: dict, a: dict, s: dict):
        if chart.k != 0:
            raise ValueError("difference tables live on the base chart")
        n = chart.n
        b, a, s = (
            _checked_table(
                chart,
                table,
                (n,) * width,
                "bad difference key",
                "difference entry",
            )
            for table, width in ((b, 4), (a, 3), (s, 2))
        )
        for m, p, q in product(range(n), repeat=3):
            if a.get((m, p, q), _ZERO) != a.get((m, q, p), _ZERO):
                raise ValueError(
                    f"side difference is not symmetric at {(m, p, q)}"
                )
        for m, q in product(range(n), repeat=2):
            if s.get((m, q), _ZERO) != -s.get((q, m), _ZERO):
                raise ValueError(f"unit difference is not skew at {(m, q)}")
        self._set(chart=chart, b=b, a=a, s=s)

    @classmethod
    def from_difference(
        cls,
        c: MultComponents,
        e: LinearVectorField,
        ref_c: MultComponents,
        ref_e: LinearVectorField,
    ) -> "BFieldData":
        """Extract ``(B, A, S)`` from a candidate and its reference structure."""
        n = _double_rank(c.chart)
        if ref_c.chart != c.chart or ref_e.chart != e.chart or e.chart != c.chart:
            raise ValueError("candidate and reference live on different charts")
        if c.star != ref_c.star:
            raise ValueError("candidate and reference base products differ")
        if e.beta != ref_e.beta:
            raise ValueError("candidate and reference units project differently")
        b, a, s = {}, {}, {}
        for key, val in sorted(_vsub(c.d, ref_c.d).items()):
            i, j, m, p = key
            if i < n or j >= n:
                raise ValueError(
                    f"derivative difference leaves the covector block at {key}"
                )
            b[(m, p, j, i - n)] = val
        for key, val in sorted(_vsub(c.l, ref_c.l).items()):
            i, j, m = key
            if i < n or j >= n:
                raise ValueError(
                    f"side difference leaves the covector block at {key}"
                )
            a[(m, j, i - n)] = val
        for i, j in product(range(2 * n), repeat=2):
            val = ref_e.lam[i][j] - e.lam[i][j]
            if val.is_zero():
                continue
            if i < n or j >= n:
                raise ValueError(
                    f"unit difference leaves the covector block at {(i, j)}"
                )
            s[(j, i - n)] = val
        return cls(chart=c.chart.base(), b=b, a=a, s=s)

    @classmethod
    def from_two_form(
        cls, base: BaseFManifold, gamma: TwoForm, nabla: Connection
    ) -> "BFieldData":
        """Evaluate the closed-form difference tables of the ``gamma`` shear."""
        chart = base.chart
        if gamma.chart.base_names != chart.base_names:
            raise ValueError("two-form lives on different base coordinates")
        n = chart.n
        names = chart.names
        c = base.components
        unit = {i: f for i, f in enumerate(base.unit) if not f.is_zero()}
        b, a = {}, {}
        for m, p, q in product(range(n), repeat=3):
            val = gamma.apply(star_product(c, _frame(m), _frame(p)), _frame(q))
            val = val - gamma.apply(_frame(p), star_product(c, _frame(m), _frame(q)))
            a[(m, p, q)] = val
        for m, p, z, v in product(range(n), repeat=4):
            fm, fp, fz, fv = _frame(m), _frame(p), _frame(z), _frame(v)
            val = gamma.apply(star_product(c, fp, fv), fz).partial(names[m])
            val = val + gamma.apply(star_product(c, fm, fv), fz).partial(names[p])
            val = val + _vf_apply(chart, star_product(c, fm, fp), gamma.at(z, v))
            val = val + gamma.apply(lie_star(c, fz, fm, fp), fv)
            val = val - gamma.apply(lie_star(c, fv, fm, fp), fz)
            sb = symmetric_bracket(nabla, fm, fp)
            b[(m, p, z, v)] = val - gamma.apply(star_product(c, sb, fv), fz)
        lie_gamma = {}
        for i, j in combinations(range(n), 2):
            val = _vf_apply(chart, unit, gamma.at(i, j))
            for q in range(n):
                w = unit.get(q)
                if w is None:
                    continue
                val = val + gamma.at(q, j) * w.partial(names[i])
                val = val + gamma.at(i, q) * w.partial(names[j])
            lie_gamma[(i, j)] = val
        lg = TwoForm(chart, lie_gamma)
        s = {(m, q): -lg.at(m, q) for m, q in product(range(n), repeat=2)}
        return cls(chart=chart, b=b, a=a, s=s)


# -- the exact Courant operations in section form ------------------------------


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
        comps[idx] = RatFunc.one()
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


def _same_chart(s: GenSection, t: GenSection):
    if s.chart != t.chart:
        raise ValueError("sections live on different charts")


def pairing(s: GenSection, t: GenSection) -> RatFunc:
    """``<X + xi, Y + eta> = (xi(Y) + eta(X)) / 2``."""
    _same_chart(s, t)
    return _pair_comps(s.chart.n, s.components(), t.components())


def anchor(s: GenSection) -> tuple:
    """Project a section to its vector part."""
    return s.vec


def _dorfman_comps(chart: Chart, n: int, u: dict, v: dict, h) -> dict:
    """The twisted Dorfman bracket of two sections given as component dicts."""
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


def dorfman(s: GenSection, t: GenSection, h=None) -> GenSection:
    """``[X + xi, Y + eta]_H = L_X(Y + eta) - i_Y dxi + i_X i_Y H``."""
    _same_chart(s, t)
    if h is not None and h.chart.base_names != s.chart.base_names:
        raise ValueError("twist three-form lives on different base coordinates")
    _require_closed(h)
    n = s.chart.n
    out = _dorfman_comps(s.chart, n, s.components(), t.components(), h)
    return GenSection.from_components(s.chart, out)


# -- the Courant frame laws in section form ------------------------------------


def _pair_comps(n: int, u: dict, v: dict) -> RatFunc:
    """``<u, v> = (xi(Y) + eta(X)) / 2`` on component dicts of rank ``2n``."""
    acc = _ZERO
    for i, f in u.items():
        g = v.get(i - n if i >= n else i + n)
        if g is not None:
            acc = acc + f * g
    return _HALF * acc


def pairing_matrix(n: int) -> tuple:
    """The matrix of the pairing: ``1/2`` at ``(a, a +- n)``."""
    return tuple(
        tuple(_HALF if b == (a + n if a < n else a - n) else _ZERO for b in range(2 * n))
        for a in range(2 * n)
    )


def _nonzero_pairs(tuples, vec_fn) -> list:
    """Nonzero ``((*idx, comp), vec[comp])`` in scan order."""
    return [
        ((*idx, comp), val)
        for idx in tuples
        for comp, val in sorted(vec_fn(*idx).items())
        if not val.is_zero()
    ]


def courant_frame_residuals(
    c: MultComponents, e: LinearVectorField, nabla: Connection, h=None
) -> dict:
    """Nonzero ``(witness, residual)`` pairs of each frame law, by record name.

    Each law is evaluated on coordinate frames as written, through the frame
    operators, the pairing of sections and the Dorfman bracket, in the scan
    order of its record; ``pairing-duality`` conjugates the candidate by the
    pairing matrix.  The Dorfman laws assume a connection that vanishes in
    the chart and a closed twist.
    """
    n = _double_rank(c.chart)
    chart, names = c.chart, c.chart.names

    def pair(u, v):
        return _pair_comps(n, u, v)

    def proj(sec):
        return {i: f for i, f in sec.items() if i < n}

    def frame_product(a, q):
        return star_product(c, _frame(a), _frame(q))

    def anchor_side(m, b):
        want = frame_product(m, b) if b < n else {}
        return _vsub(proj(apply_l(c, m, _frame(b))), want)

    def anchor_deriv(m, p, b):
        want = lie_star(c, _frame(b), _frame(m), _frame(p)) if b < n else {}
        return _vsub(proj(apply_d(c, m, p, _frame(b))), want)

    def pairing_side(m, b, cc):
        lhs = pair(apply_l(c, m, _frame(b)), _frame(cc))
        return {0: lhs - pair(apply_l(c, m, _frame(cc)), _frame(b))}

    def pairing_deriv(m, p, b, cc):
        fb, fc = _frame(b), _frame(cc)
        lhs = pair(apply_d(c, m, p, fb), fc) + pair(fb, apply_d(c, m, p, fc))
        rhs = pair(fb, apply_l(c, p, fc)).partial(names[m])
        rhs = rhs + pair(fb, apply_l(c, m, fc)).partial(names[p])
        for q, g in symmetric_bracket(nabla, _frame(m), _frame(p)).items():
            rhs = rhs - g * pair(fb, apply_l(c, q, fc))
        scal = pair(fb, fc)
        for a in range(n):
            w = c.star_at(a, m, p)
            if not w.is_zero():
                rhs = rhs - w * scal.partial(names[a])
        return {0: lhs - rhs}

    def pairing_unit(b, cc):
        fb, fc = _frame(b), _frame(cc)
        lhs = _vf_apply(chart, e.base_vec(), pair(fb, fc))
        return {0: lhs - pair(apply_delta(e, fb), fc) - pair(fb, apply_delta(e, fc))}

    def br(u, v):
        return _dorfman_comps(chart, n, u, v, h)

    def s_form(u, v):
        pv = proj(v)
        out = {}
        for q in range(n):
            prod = {}
            for a, f in pv.items():
                prod = _vadd(prod, vscale(frame_product(a, q), f))
            out[q] = _TWO * pair(u, prod)
        return out

    def dorfman_side(m, b, cc):
        fb, fc = _frame(b), _frame(cc)
        lhs = apply_l(c, m, br(fb, fc))
        rhs = br(fb, apply_l(c, m, fc))
        if cc < n:
            rhs = _vsub(rhs, apply_d(c, m, cc, fb))
        sform = s_form(fb, fc)
        for q in range(n):
            corr = -_TWO * pair(apply_d(c, m, q, fb), fc)
            _acc(rhs, n + q, corr + _TWO * sform[q].partial(names[m]))
        return _vsub(lhs, rhs)

    def dorfman_deriv(m, p, b, cc):
        fb, fc = _frame(b), _frame(cc)

        def t_scal(q, r):
            return pair(apply_d(c, q, r, fb), fc)

        lhs = apply_d(c, m, p, br(fb, fc))
        rhs = _vsub(br(fb, apply_d(c, m, p, fc)), br(fc, apply_d(c, m, p, fb)))
        sform = s_form(fb, fc)
        t_mp = t_scal(m, p)
        for q in range(n):
            corr = -_TWO * (
                t_scal(p, q).partial(names[m])
                + t_scal(m, q).partial(names[p])
                + t_mp.partial(names[q])
            )
            corr = corr + _TWO * _TWO * t_mp.partial(names[q])
            corr = corr + _TWO * sform[q].partial(names[m]).partial(names[p])
            _acc(rhs, n + q, corr)
        return _vsub(lhs, rhs)

    iso = pairing_matrix(n)
    conj_c, conj_e = conjugate(c, iso), conjugate_unit(e, iso)
    dual_c, dual_e = dualize(c, e, nabla)
    duality = []
    for label, got, want in (
        ("l", conj_c.l, dual_c.l),
        ("d", conj_c.d, dual_c.d),
        ("star", conj_c.star, dual_c.star),
        ("lam", _lam_dict(conj_e), _lam_dict(dual_e)),
    ):
        for key in sorted(set(got) | set(want)):
            val = got.get(key, _ZERO) - want.get(key, _ZERO)
            if not val.is_zero():
                duality.append(((label, *key), val))

    k, b = range(2 * n), range(n)
    return {
        "anchor-side": _nonzero_pairs(product(b, k), anchor_side),
        "anchor-derivative": _nonzero_pairs(product(b, b, k), anchor_deriv),
        "pairing-side": _nonzero_pairs(product(b, k, k), pairing_side),
        "pairing-derivative": _nonzero_pairs(product(b, b, k, k), pairing_deriv),
        "pairing-unit": _nonzero_pairs(product(k, k), pairing_unit),
        "pairing-duality": duality,
        "dorfman-side": _nonzero_pairs(product(b, k, k), dorfman_side),
        "dorfman-derivative": _nonzero_pairs(product(b, b, k, k), dorfman_deriv),
    }


def ref_nabla_two_form(gamma: TwoForm, nabla: Connection) -> dict:
    """``nabla gamma`` at every ``(r, i, j)``, nonzero entries only, from
    ``d_r gamma_ij - G^m_ri gamma_mj - G^m_rj gamma_im``."""
    names = gamma.chart.names
    n = gamma.chart.n
    out = {}
    for r, i, j in product(range(n), repeat=3):
        val = gamma.at(i, j).partial(names[r])
        for m in range(n):
            val = val - nabla.at(m, r, i) * gamma.at(m, j)
            val = val - nabla.at(m, r, j) * gamma.at(i, m)
        if not val.is_zero():
            out[(r, i, j)] = val
    return out


def courant_predicate_residuals(
    c: MultComponents, gamma: TwoForm, nabla: Connection, h=None
) -> dict:
    """Nonzero ``(witness, residual)`` pairs of each record of the derivative
    predicate, by record name, index tuple by index tuple in scan order:
    ``bfield-gradient`` and ``parallel-bfield`` from `ref_nabla_two_form`,
    ``twist-match`` from the twist and ``d gamma`` on increasing triples, and
    ``parallel-product`` as ``gamma.apply`` of each frame product, then
    differentiated."""
    n, names = c.n, c.chart.names
    nab = ref_nabla_two_form(gamma, nabla)
    dg = gamma.d()
    third = RatFunc.coerce(Fraction(1, 3))

    def nonzero(pairs):
        return [(idx, val) for idx, val in pairs if not val.is_zero()]

    return {
        "bfield-gradient": nonzero(
            (idx, nab.get(idx, _ZERO) - third * dg.at(*idx))
            for idx in product(range(n), repeat=3)
        ),
        "twist-match": nonzero(
            (idx, (h.at(*idx) if h is not None else _ZERO) - third * dg.at(*idx))
            for idx in combinations(range(n), 3)
        ),
        "parallel-bfield": sorted(nab.items()),
        "parallel-product": nonzero(
            (
                (r, m, p, q),
                gamma.apply(star_product(c, _frame(m), _frame(p)), _frame(q)).partial(
                    names[r]
                ),
            )
            for r, m, p, q in product(range(n), repeat=4)
        ),
    }


def _lam_dict(e: LinearVectorField) -> dict:
    return {(i, j): v for i, row in enumerate(e.lam) for j, v in enumerate(row)}


def ref_regular_connection(base: BaseFManifold, euler) -> Connection:
    """The connection that makes the unit-and-power frame ``P_i`` of ``euler``
    parallel, from the inverse ``C`` of the frame matrix: ``nabla_{d_k} d_j =
    sum_i d_k C_ji P_i + i C_ji P_{i-1} * d_k``, each partial of ``C`` taken.
    Raises ``SingularMatrixError`` when the frame is singular."""
    chart, c = base.chart, base.components
    n, names = chart.n, chart.names
    evec = {a: f for a, f in enumerate(map(RatFunc.coerce, euler)) if not f.is_zero()}
    powers = [{a: f for a, f in enumerate(base.unit) if not f.is_zero()}]
    for _ in range(1, n):
        powers.append(star_product(c, powers[-1], evec))
    cols = _inverse([[powers[i].get(a, _ZERO) for i in range(n)] for a in range(n)])
    gamma = {}
    for k in range(n):
        moved = [star_product(c, pw, _frame(k)) for pw in powers[:-1]]
        for j in range(n):
            out = {}
            for i in range(n):
                cij = cols[j][i]
                for a, w in powers[i].items():
                    _acc(out, a, cij.partial(names[k]) * w)
                if i >= 1:
                    for a, w in moved[i - 1].items():
                        _acc(out, a, cij * RatFunc.coerce(i) * w)
            gamma.update({(a, k, j): w for a, w in out.items()})
    return Connection(chart, gamma)
