"""Chart-level tensor calculus on the total space of a trivialized bundle.

A chart has base coordinates ``x1..xn`` and fiber coordinates (``xi*`` or
``mu*``); a tensor field of type (p, q) with p <= 4 covariant slots and q in
{0, 1} is stored sparsely as a map from index tuples to rational-function
coefficients.  Indices run over all ``n + k`` coordinate directions, the
first ``n`` being base directions.

The module also implements the dictionary between linear (2,1) tensor
fields, such as the product of a linear F-manifold, and their frame tables
``(d, l, star)``: `assemble` builds the tensor from the tables and
`extract_components` reads them back by key.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from .symcore import RatFunc, _Frozen, _Value

__all__ = [
    "Chart",
    "Connection",
    "TwoForm",
    "ThreeForm",
    "TensorField",
    "lie_derivative",
    "contract",
    "scaling_class",
    "extract_components",
    "assemble",
]

_ZERO = RatFunc.zero()


# -- sparse coefficient dicts: {key: nonzero RatFunc} -------------------------


def _acc(out: dict, key, val: RatFunc):
    """Add ``val`` at ``key``, dropping the key when its sum reaches zero."""
    if not val.num.terms:
        return
    cur = out.get(key)
    total = val if cur is None else cur + val
    if not total.num.terms:
        out.pop(key, None)
    else:
        out[key] = total


def _vadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, val in b.items():
        _acc(out, key, val)
    return out


def _vsub(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, val in b.items():
        _acc(out, key, -val)
    return out


def _key_test(shape: tuple):
    """The test of a key of ``shape``: bounds, ``0 <= key[m] < shape[m]``, or
    ``("form", width, n)``, ``width`` strictly increasing indices below ``n``."""
    if shape[0] == "form":
        _, width, n = shape
        return lambda key: len(key) == width and 0 <= key[0] and all(
            a < b for a, b in zip(key, key[1:] + (n,))
        )
    return lambda key: len(key) == len(shape) and all(0 <= i < b for i, b in zip(key, shape))


class _Table(dict):
    """A checked table: read-only, with the ``shape`` it was checked for and a
    ``memo`` (see `fman._kept`)."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a checked table is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    @cached_property
    def free(self) -> frozenset:
        """The variables the values hold, found when a pass-through needs them."""
        return frozenset().union(*(v.num.vars + v.den.vars for v in self.values()))


def _checked_table(chart: "Chart", table: dict, shape: tuple, bad_key: str, entry: str):
    """``table`` frozen, with tuple keys, coerced values and no zeros, all checked.

    This is the one place where a table's keys and values are checked.  The
    result is a read-only `_Table` in canonical form, so two tables hold the
    same entries exactly when they compare equal with ``==``.  A key not of
    the shape ``shape`` (`_key_test`) raises ``ValueError(f"{bad_key} {key}")``,
    and a value with a fiber coordinate raises `Chart.require_base_only` for
    ``entry`` and ``key``.  A `_Table` of the same shape passes through as
    the same object, unless its variables meet the fiber names of ``chart``.
    """
    fiber = chart.fiber_names
    if type(table) is _Table and table.shape == shape and table.free.isdisjoint(fiber):
        return table
    out, fits = {}, _key_test(shape)
    for key, val in {tuple(k): RatFunc.coerce(v) for k, v in table.items()}.items():
        if val.is_zero():
            continue
        if not fits(key):
            raise ValueError(f"{bad_key} {key}")
        out[key] = chart.require_base_only(val, entry, key)
    out = _Table(out)
    out.shape, out.memo = shape, {}
    return out


class Chart(_Value):
    """Coordinates on a trivialized bundle: base names plus fiber names."""

    _key = attrgetter("base_names", "fiber_names")

    def __init__(self, base_names: tuple[str, ...], fiber_names: tuple[str, ...]):
        names = base_names + fiber_names
        if len(set(names)) != len(names):
            raise ValueError("chart coordinate names must be distinct")
        self._set(base_names=base_names, fiber_names=fiber_names)

    @staticmethod
    def standard(n: int, k: int) -> "Chart":
        return Chart(
            tuple(f"x{i + 1}" for i in range(n)),
            tuple(f"xi{j + 1}" for j in range(k)),
        )

    @staticmethod
    def generalized(n: int) -> "Chart":
        """The double-fiber chart: tangent block ``xi*`` then covector block ``mu*``."""
        return Chart(
            tuple(f"x{i + 1}" for i in range(n)),
            tuple(f"xi{j + 1}" for j in range(n))
            + tuple(f"mu{j + 1}" for j in range(n)),
        )

    @property
    def n(self) -> int:
        return len(self.base_names)

    @property
    def k(self) -> int:
        return len(self.fiber_names)

    @property
    def dim(self) -> int:
        return self.n + self.k

    @property
    def names(self) -> tuple[str, ...]:
        return self.base_names + self.fiber_names

    def base(self) -> "Chart":
        return Chart(self.base_names, ())

    def dual(self) -> "Chart":
        """Same base, each fiber name swapped ``xi <-> mu`` (so dual is an involution)."""
        swapped = []
        for name in self.fiber_names:
            if name.startswith("xi"):
                swapped.append("mu" + name[2:])
            elif name.startswith("mu"):
                swapped.append("xi" + name[2:])
            else:
                raise ValueError(f"fiber name {name!r} has no dual counterpart")
        return Chart(self.base_names, tuple(swapped))

    def require_base_only(self, value: RatFunc, *what) -> RatFunc:
        """``value``, or ``ValueError`` naming ``what`` (joined by spaces only
        then) when it has a fiber coordinate; a constant has none."""
        if not value.is_const() and value.free_vars() & set(self.fiber_names):
            what = " ".join(map(str, what))
            raise ValueError(f"{what} must not involve fiber coordinates: {value}")
        return value


class TensorField:
    """A (p, q) tensor field on a chart, q in {0, 1}, stored sparsely.

    Keys are index tuples; with q = 1 the first entry is the contravariant
    index, followed by the p covariant indices.
    """

    __slots__ = ("chart", "p", "q", "coeffs")

    def __init__(self, chart: Chart, p: int, q: int, coeffs: dict):
        if q not in (0, 1):
            raise ValueError("only q in {0, 1} is supported")
        if p < 0 or p > 4:
            raise ValueError("only p <= 4 covariant slots are supported")
        self.chart = chart
        self.p = p
        self.q = q
        clean = {}
        width = p + q
        dim = chart.dim
        for key, val in coeffs.items():
            val = RatFunc.coerce(val)
            if val.is_zero():
                continue
            if len(key) != width or any(not 0 <= i < dim for i in key):
                raise ValueError(f"bad index tuple {key} for a ({p},{q}) tensor")
            clean[tuple(key)] = val
        self.coeffs = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def vector(chart: Chart, components) -> "TensorField":
        return TensorField(
            chart, 0, 1, {(i,): c for i, c in enumerate(components)}
        )

    # -- access ----------------------------------------------------------------

    def get(self, key: tuple[int, ...]) -> RatFunc:
        return self.coeffs.get(key, RatFunc.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- algebra ------------------------------------------------------------------

    def _check_like(self, other: "TensorField"):
        if (
            not isinstance(other, TensorField)
            or self.chart != other.chart
            or self.p != other.p
            or self.q != other.q
        ):
            raise ValueError("tensor shapes or charts differ")

    def __add__(self, other):
        self._check_like(other)
        return TensorField(self.chart, self.p, self.q, _vadd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check_like(other)
        return TensorField(self.chart, self.p, self.q, _vsub(self.coeffs, other.coeffs))

    def __neg__(self):
        return TensorField(
            self.chart, self.p, self.q, {k: -v for k, v in self.coeffs.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, TensorField):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.p == other.p
            and self.q == other.q
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        entries = ", ".join(
            f"{key}: {val}" for key, val in sorted(self.coeffs.items())
        )
        return f"TensorField(p={self.p}, q={self.q}, {{{entries}}})"


def lie_derivative(x: TensorField, t: TensorField) -> TensorField:
    """Lie derivative of ``t`` along the vector field ``x`` (coordinate formula)."""
    if (x.p, x.q) != (0, 1):
        raise ValueError("can only differentiate along a vector field")
    if x.chart != t.chart:
        raise ValueError("charts differ")
    chart = t.chart
    names = chart.names
    xc = {key[0]: val for key, val in x.coeffs.items()}
    # dx[(c, a)] = d X^a / d coordinate_c, nonzero entries only
    dx: dict[tuple[int, int], RatFunc] = {}
    for a, val in xc.items():
        for c, name in enumerate(names):
            d = val.partial(name)
            if not d.is_zero():
                dx[(c, a)] = d
    out: dict[tuple[int, ...], RatFunc] = {}
    q = t.q
    for key, coeff in t.coeffs.items():
        # transport term: X^c d_c T
        for c, xval in xc.items():
            d = coeff.partial(names[c])
            if not d.is_zero():
                _acc(out, key, xval * d)
        if q:
            # contravariant correction: - T^c d_c X^a
            c = key[0]
            for (cc, a), dval in dx.items():
                if cc == c:
                    _acc(out, (a,) + key[1:], -(coeff * dval))
        # covariant corrections: + T(.., c at slot i, ..) d_{b_i} X^c
        for i in range(q, q + t.p):
            c = key[i]
            for (b, cc), dval in dx.items():
                if cc == c:
                    _acc(out, key[:i] + (b,) + key[i + 1 :], coeff * dval)
    return TensorField(chart, t.p, t.q, out)


def contract(t: TensorField, slot: int, s: TensorField) -> TensorField:
    """Contract the vector field ``s`` into covariant slot ``slot`` (0-based)."""
    if (s.p, s.q) != (0, 1):
        raise ValueError("can only contract a vector field")
    if s.chart != t.chart:
        raise ValueError("charts differ")
    if not 0 <= slot < t.p:
        raise ValueError(f"no covariant slot {slot} in a p={t.p} tensor")
    pos = t.q + slot
    sc = {key[0]: val for key, val in s.coeffs.items()}
    out: dict[tuple[int, ...], RatFunc] = {}
    for key, coeff in t.coeffs.items():
        sval = sc.get(key[pos])
        if sval is None:
            continue
        _acc(out, key[:pos] + key[pos + 1 :], coeff * sval)
    return TensorField(t.chart, t.p - 1, t.q, out)


def _fiber_degree(p, fiber) -> int | None:
    """The fiber degree shared by every term of the polynomial ``p``, or ``None``."""
    slots = [i for i, name in enumerate(p.vars) if name in fiber]
    degrees = {sum(exp[i] for i in slots) for exp in p.terms}
    return degrees.pop() if len(degrees) == 1 else None


def scaling_class(t: TensorField) -> str:
    """Classify the scaling behaviour: ``"linear"``, ``"core"`` or ``"neither"``.

    Under the fiber scaling ``xi -> s xi`` an entry ``num/den``, kept in lowest
    terms, scales by a power of ``s`` exactly when ``num`` and ``den`` are each
    homogeneous in the fiber coordinates.  The entry's power is then their
    degree difference plus the fiber weight of its key: one per covariant
    fiber slot, less one for a contravariant fiber index.  Linear tensors have
    power ``1 - q`` at every entry, core tensors ``-q``.
    """
    chart = t.chart
    fiber = set(chart.fiber_names)
    powers = set()
    for key, coeff in t.coeffs.items():
        num = _fiber_degree(coeff.num, fiber)
        den = _fiber_degree(coeff.den, fiber)
        if num is None or den is None:
            return "neither"
        w = sum(1 for i in key[t.q :] if i >= chart.n)
        if t.q and key[0] >= chart.n:
            w -= 1
        powers.add(num - den + w)
    for label, power in (("linear", 1 - t.q), ("core", -t.q)):
        if powers <= {power}:
            return label
    return "neither"


def _product_tables(chart: Chart, d: dict, l: dict, star: dict) -> tuple:
    """The frame tables ``(d, l, star)`` of a linear (2,1) tensor, checked and frozen."""
    n, k = chart.n, chart.k
    return tuple(
        _checked_table(
            chart, table, bounds, f"bad {what}-table key", f"{what} table entry"
        )
        for table, bounds, what in (
            (d, (k, k, n, n), "derivative"),
            (l, (k, k, n), "side"),
            (star, (n, n, n), "star"),
        )
    )


def extract_components(t: TensorField) -> tuple:
    """The frame tables ``(d, l, star)`` of a linear (2,1) tensor field.

    This is the inverse of `assemble`, read off key by key: ``(n+i, b, p)``
    holds ``sum_j d[i, j, b, p] xi_j``, so the ``d`` entries are its partials
    in the fiber coordinates; ``(n+i, n+j, b)`` and ``(n+i, b, n+j)`` both
    hold ``l[i, j, b]``; a base key holds its ``star`` entry.  Raises
    ``ValueError`` for a tensor that is not (2,1) or not fiberwise linear,
    for an entry at any other key, for side slots that disagree and for a
    read value that still holds a fiber coordinate.
    """
    if (t.p, t.q) != (2, 1):
        raise ValueError(
            f"components are defined for (2,1) tensors, not ({t.p},{t.q})"
        )
    if scaling_class(t) != "linear":
        raise ValueError("tensor is not fiberwise linear")
    chart = t.chart
    n = chart.n
    d, l, star = {}, {}, {}
    for key, val in t.coeffs.items():
        a, b, p = key
        if b < n and p < n:
            if a < n:
                star[key] = val
            else:
                for j, name in enumerate(chart.fiber_names):
                    d[(a - n, j, b, p)] = val.partial(name)
        elif a >= n and (b < n or p < n):
            if t.coeffs.get((a, p, b)) != val:
                raise ValueError(f"side slots disagree at {key}")
            l[(a - n, b - n, p) if p < n else (a - n, p - n, b)] = val
        else:
            raise ValueError(f"a linear (2,1) tensor has no entry at {key}")
    return _product_tables(chart, d, l, star)


def assemble(c) -> TensorField:
    """The unique linear (2,1) tensor field with the frame tables of ``c``.

    ``c`` has a ``chart`` and the tables ``d``, ``l`` and ``star`` of
    `extract_components`, checked when it was built, so this only sums
    entries.  A ``d`` entry puts ``a xi_j`` at ``(n+i, b, p)``; an ``l``
    entry puts ``a`` at ``(n+i, n+j, b)`` and at ``(n+i, b, n+j)``; a
    ``star`` entry puts ``a`` at its own base key.  These key shapes never
    collide, and no value contains a fiber coordinate.

    The result obeys the Leibniz rule by construction.  Let ``T`` be the
    result and ``V = f d_{xi_j}`` the vertical lift of ``f s_j`` for a base
    function ``f``.  In the coordinate formula for ``L_V T``, term by term:

    - transport, ``V^c d_c T = f d_{xi_j} T``: only the ``d`` entries depend
      on ``xi_j``, which gives ``f a`` at ``(n+i, b, p)`` for each ``d``
      entry of section ``j``;
    - the covariant correction ``T(.., c in slot m, ..) d_{b_m} V^c`` needs
      ``c = n+j`` and a base ``b_m``, since ``V^{n+j} = f`` depends on the
      base only.  The only keys with a fiber index in a covariant slot are
      the side keys, so it gives ``d_b f a`` with ``b`` in place of ``n+j``;
    - the contravariant correction ``-T^c d_c V^a`` needs ``a = n+j`` and a
      base ``c``, and only the ``star`` keys have a base contravariant
      index, which gives ``-d_c f star^c_{bp}`` at ``(n+j, b, p)``.

    These are the three terms of the Leibniz rule, so the result is not
    verified again; the tests keep that check as a reference.
    """
    chart = c.chart
    n = chart.n
    xi = [RatFunc.variable(name) for name in chart.fiber_names]
    out: dict[tuple[int, ...], RatFunc] = {}
    for (i, j, b, p), val in c.d.items():
        _acc(out, (n + i, b, p), val * xi[j])
    for (i, j, b), val in c.l.items():
        _acc(out, (n + i, n + j, b), val)
        _acc(out, (n + i, b, n + j), val)
    for key, val in c.star.items():
        _acc(out, key, val)
    return TensorField(chart, 2, 1, out)


# -- base value types: a connection and differential forms --------------------


class Connection(_Frozen):
    """Christoffel table of a linear connection on the base coordinates.

    ``gamma[(k, i, j)]`` is the ``dx_k`` component of the covariant derivative
    of ``dx_j`` along ``dx_i``; missing entries are zero.
    """

    def __init__(self, chart: Chart, gamma: dict):
        n = chart.n
        gamma = _checked_table(
            chart, gamma, (n, n, n), "bad christoffel key", "christoffel entry"
        )
        self._set(chart=chart, gamma=gamma)

    @staticmethod
    def zero(chart: Chart) -> "Connection":
        return Connection(chart, {})

    def at(self, k: int, i: int, j: int) -> RatFunc:
        return self.gamma.get((k, i, j), _ZERO)

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return (
            self.chart.base() == other.chart.base() and self.gamma == other.gamma
        )


def _sorted_with_parity(idx):
    order = list(idx)
    sign = 1
    for a in range(len(order)):
        for b in range(len(order) - 1 - a):
            if order[b] > order[b + 1]:
                order[b], order[b + 1] = order[b + 1], order[b]
                sign = -sign
    return tuple(order), sign


def _exterior_d(chart: Chart, table: dict) -> dict:
    """The exterior derivative of a form stored by increasing keys: each
    nonzero partial ``d_e w_K`` along an index ``e`` outside ``K`` adds to the
    sorted key of ``(e, *K)``, with the sign of that sort."""
    out = {}
    for key, v in table.items():
        if v.is_const():
            continue
        for e, name in enumerate(chart.base_names):
            if e not in key:
                idx, sign = _sorted_with_parity((e, *key))
                dv = v.partial(name)
                _acc(out, idx, dv if sign > 0 else -dv)
    return out


class TwoForm(_Frozen):
    """Antisymmetric two-form stored by its strictly increasing index pairs."""

    def __init__(self, chart: Chart, table: dict):
        n = chart.n
        table = _checked_table(
            chart,
            table,
            ("form", 2, n),
            "two-form keys must be increasing pairs, got",
            "two-form entry",
        )
        self._set(chart=chart, table=table)

    def __eq__(self, other):
        if not isinstance(other, TwoForm):
            return NotImplemented
        return (
            self.chart.base() == other.chart.base() and self.table == other.table
        )

    @staticmethod
    def zero(chart: Chart) -> "TwoForm":
        return TwoForm(chart, {})

    def at(self, i: int, j: int) -> RatFunc:
        if i == j:
            return _ZERO
        if i < j:
            return self.table.get((i, j), _ZERO)
        return -self.table.get((j, i), _ZERO)

    def is_zero(self) -> bool:
        return not self.table

    def apply(self, u: dict, v: dict) -> RatFunc:
        acc = _ZERO
        for (i, j), g in self.table.items():
            ui, uj = u.get(i, _ZERO), u.get(j, _ZERO)
            vi, vj = v.get(i, _ZERO), v.get(j, _ZERO)
            acc = acc + g * (ui * vj - uj * vi)
        return acc

    def d(self) -> "ThreeForm":
        return ThreeForm(self.chart, _exterior_d(self.chart, self.table))


class ThreeForm(_Frozen):
    """Antisymmetric three-form stored by its strictly increasing index triples."""

    def __init__(self, chart: Chart, table: dict):
        n = chart.n
        table = _checked_table(
            chart,
            table,
            ("form", 3, n),
            "three-form keys must be increasing triples, got",
            "three-form entry",
        )
        self._set(chart=chart, table=table)

    def __eq__(self, other):
        if not isinstance(other, ThreeForm):
            return NotImplemented
        return (
            self.chart.base() == other.chart.base() and self.table == other.table
        )

    def at(self, i: int, j: int, k: int) -> RatFunc:
        if len({i, j, k}) != 3:
            return _ZERO
        key, sign = _sorted_with_parity((i, j, k))
        val = self.table.get(key, _ZERO)
        return val if sign > 0 else -val

    def is_zero(self) -> bool:
        return not self.table

    def is_closed(self) -> bool:
        return not _exterior_d(self.chart, self.table)
