"""Reference implementations that tests compare the package against.

They are not part of the package: no command or check needs them.
:class:`BFieldData` evaluates the closed-form difference tables of a two-form
shear of the double prolongation, for comparison with the tables extracted
from the sheared structure; :func:`lie_components` reads the Lie derivative
of a product off the assembled tensor.
"""

from itertools import combinations, product
from operator import attrgetter

from fmanlin.duality import symmetric_bracket
from fmanlin.fman import (
    BaseFManifold,
    LinearVectorField,
    MultComponents,
    _component_tables,
    _frame,
    _vf_apply,
    lie_star,
    star_product,
)
from fmanlin.gengeo import _double_rank
from fmanlin.symcore import RatFunc, _Value
from fmanlin.tensor import (
    Chart,
    Connection,
    TwoForm,
    _box,
    _checked_table,
    _vsub,
    lie_derivative,
)

_ZERO = RatFunc.zero()


def lie_components(c: MultComponents, x: LinearVectorField):
    """Tables ``(d, l, star)`` of the Lie derivative of the product along ``x``,
    read off the Lie derivative of the assembled tensor."""
    return _component_tables(lie_derivative(x.as_field(), c.assemble()))


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
                _box(*(n,) * width),
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
